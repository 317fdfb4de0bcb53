package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cri"
	"repro/internal/hw"
	"repro/internal/latency"
	"repro/internal/rma"
	"repro/internal/spc"
	"repro/internal/transport/tcpnet"
)

// loopKind selects the closed loop the two application threads run.
type loopKind int

const (
	// kindStream: rank 0 posts a window of Isends then WaitAll, rank 1 a
	// window of Irecvs then WaitAll (Multirate at one pair).
	kindStream loopKind = iota
	// kindPingPong: Send/Recv on rank 0 against Recv/Send on rank 1.
	kindPingPong
	// kindPut: two origin threads on rank 0 each Put a burst into rank 1's
	// window then Flush (RMA-MT); the target is passive.
	kindPut
)

// workload is one closed loop of exactly two application threads in one
// process on the hw.Fast() machine. Operation counts are constants, never
// flags, so a repetition is the same work on both sides of any comparison.
type workload struct {
	name string
	why  string
	kind loopKind
	// tcp runs the two ranks as two distributed worlds joined by
	// tcpnet.NewLoopback (the conformance suite's construction: the code
	// path of two OS processes, minus the fork); otherwise one in-process
	// world over the default simulated fabric.
	tcp  bool
	opts func() core.Options
	// iters is the loop iterations per repetition (windows, round trips or
	// put rounds); window the operations per iteration per thread; size the
	// payload bytes per operation.
	iters, window, size int
	// deep posts each window's receives with distinct tags in a seeded
	// order and sends them in the reverse of that order.
	deep bool
}

// The six workloads. Iteration counts give roughly 0.8 to 1 s per repetition
// on the 2-core reference host.
var workloads = []workload{
	{name: "inproc_stream_0B",
		why:  "Multirate at one pair with no socket: core, cri, progress, match, fabric and ringbuf do all the work, tcpnet and the wire codec none",
		kind: kindStream, opts: core.Stock, iters: 12000, window: 128},
	{name: "inproc_match_deep_0B",
		why:  "same traffic, 128 distinct tags per window sent in reverse of the posted order: every arrival walks the match list instead of hitting its head",
		kind: kindStream, opts: core.Stock, iters: 10000, window: 128, deep: true},
	{name: "inproc_rma_put_8B_mt",
		why:  "RMA-MT: two origin threads put+flush into a passive target, so cri assignment, the concurrent progress sweep and rma work under real thread contention; match does nothing",
		kind: kindPut, opts: func() core.Options { return core.CRIsConcurrent(2, cri.Dedicated) },
		iters: 2000, window: 1000, size: 8},
	{name: "tcp_stream_0B",
		why:  "the stream over loopback TCP: tcpnet and the wire codec do most of the work (one write and two read syscalls per message), the layer the wire-gap work attacks",
		kind: kindStream, tcp: true, opts: core.Stock, iters: 4000, window: 128},
	{name: "tcp_pingpong_8B",
		why:  "one 8-byte message in flight: tcpnet used for latency with nothing to batch, so a change that lifts tcp_stream_0B must leave this alone",
		kind: kindPingPong, tcp: true, opts: core.Stock, iters: 32000, window: 1, size: 8},
	{name: "tcp_rndv_64K",
		why:  "64 KiB rendezvous payloads (data-in-FIN), 16 per window: bytes not messages, so copies and frame allocation dominate and a 0-byte optimisation predicts no change",
		kind: kindStream, tcp: true, opts: core.Stock, iters: 250, window: 16, size: 64 << 10},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled returns the workload at 1/div of its size (tests and the obs
// switches); iteration counts stay at least 2.
func (w workload) scaled(div int) workload {
	w.iters = max(w.iters/div, 2)
	return w
}

// msgsPerIter is the messages (puts count as messages) both threads
// complete in one loop iteration.
func (w workload) msgsPerIter() int {
	switch w.kind {
	case kindPingPong:
		return 2
	case kindPut:
		return 2 * w.window
	default:
		return w.window
	}
}

func (w workload) warmIters() int { return max(w.iters/10, 1) }

// repTimeout bounds one phase of a repetition; a loop that has not finished
// by then is stuck behind a failed peer and the run is abandoned.
const repTimeout = 60 * time.Second

// mix is splitmix64: the one generator every seeded input comes from.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func fillSeeded(b []byte, s uint64) {
	for i := 0; i < len(b); i += 8 {
		s = mix(s)
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], s)
		copy(b[i:], w[:])
	}
}

// rep is one repetition: a fresh world, the inputs made from the seed, and
// the buffers the loops reuse so that the timed section allocates nothing
// of its own.
type rep struct {
	w     workload
	seed  uint64
	procs [2]*core.Proc
	comms [2]*core.Comm
	ths   [2]*core.Thread
	wins  []*rma.Win
	close func()

	// tags[i%len(tags)] is the posting order of window i's tags.
	tags [][]int32
	// pool holds the seeded payload bodies: one per window slot (stream),
	// one per direction (ping-pong), one burst per origin (put). The first 8
	// bytes of a two-sided payload are overwritten with the message stamp.
	pool     [][]byte
	recvBufs [][]byte
	reqs     [2][]*core.Request

	failed  atomic.Int64
	errMu   sync.Mutex
	errText string
}

// fail counts one failed operation and keeps the first reason.
func (r *rep) fail(format string, args ...any) {
	r.failed.Add(1)
	r.errMu.Lock()
	if r.errText == "" {
		r.errText = fmt.Sprintf(format, args...)
	}
	r.errMu.Unlock()
}

func (r *rep) firstFailure() string {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.errText
}

// stamp is the 8-byte pattern of message idx (numbered from world creation).
func (r *rep) stamp(idx int) uint64 { return mix(r.seed ^ uint64(idx)*0x2545f4914f6cdd1d) }

// newRep makes the seeded inputs, then builds the world. Only the second
// part is set-up time the runtime is responsible for; start marks it.
func newRep(w workload, seed uint64, tune func(*core.Options)) (r *rep, start time.Time, err error) {
	r = &rep{w: w, seed: seed}
	slots := w.window
	bodyLen := w.size
	switch w.kind {
	case kindPingPong:
		slots = 2
	case kindPut:
		slots, bodyLen = 2, w.window*w.size
	}
	r.pool = make([][]byte, slots)
	r.recvBufs = make([][]byte, slots)
	for k := range r.pool {
		r.pool[k] = make([]byte, bodyLen)
		fillSeeded(r.pool[k], mix(seed+uint64(k)))
		r.recvBufs[k] = make([]byte, bodyLen)
	}
	if w.deep {
		// 64 seeded permutations of the window's tags, cycled by window.
		r.tags = make([][]int32, 64)
		s := seed
		for p := range r.tags {
			perm := make([]int32, w.window)
			for i := range perm {
				perm[i] = int32(i)
			}
			for i := len(perm) - 1; i > 0; i-- {
				s = mix(s)
				j := int(s % uint64(i+1))
				perm[i], perm[j] = perm[j], perm[i]
			}
			r.tags[p] = perm
		}
	} else {
		r.tags = [][]int32{make([]int32, w.window)}
	}
	for t := range r.reqs {
		r.reqs[t] = make([]*core.Request, 0, w.window)
	}

	start = time.Now()
	opts := w.opts()
	if tune != nil {
		tune(&opts)
	}
	if w.tcp {
		nets, err := tcpnet.NewLoopback(2)
		if err != nil {
			return nil, start, err
		}
		var worlds [2]*core.World
		for rank := range worlds {
			worlds[rank], err = core.NewDistributedWorld(hw.Fast(), rank, 2, nets[rank], opts)
			if err != nil {
				return nil, start, fmt.Errorf("rank %d world: %w", rank, err)
			}
			r.procs[rank] = worlds[rank].LocalProc()
		}
		r.close = func() { worlds[0].Close(); worlds[1].Close() }
	} else {
		world, err := core.NewWorld(hw.Fast(), 2, opts)
		if err != nil {
			return nil, start, err
		}
		r.procs = [2]*core.Proc{world.Proc(0), world.Proc(1)}
		r.close = world.Close
	}
	for rank, p := range r.procs {
		r.comms[rank] = p.CommWorld()
		r.ths[rank] = p.NewThread()
	}
	if w.kind == kindPut {
		r.ths[1] = r.procs[0].NewThread() // both origins live on rank 0
		r.wins, err = rma.Allocate(r.comms[:], 2*w.window*w.size)
		if err != nil {
			r.close()
			return nil, start, err
		}
		r.wins[0].LockAll()
	}
	return r, start, nil
}

// phase runs iterations [first, first+n) on both threads and returns the
// wall time from the start to the later thread's end, plus the iteration
// times of the observing thread(s) when sample is set.
func (r *rep) phase(first, n int, logs [2]*spanLog, sample bool) (time.Duration, []int64, error) {
	var iter [2][]int64
	if sample {
		switch r.w.kind {
		case kindStream:
			iter[1] = make([]int64, n) // the receiver sees delivery
		case kindPingPong:
			iter[0] = make([]int64, n) // the initiator sees the round trip
		case kindPut:
			iter[0], iter[1] = make([]int64, n), make([]int64, n)
		}
	}
	var wg sync.WaitGroup
	var ends [2]time.Time
	start := time.Now()
	for t := 0; t < 2; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			t0 := logs[t].now()
			switch {
			case r.w.kind == kindStream && t == 0:
				r.streamSend(first, n, logs[t])
			case r.w.kind == kindStream:
				r.streamRecv(first, n, logs[t], iter[t])
			case r.w.kind == kindPingPong && t == 0:
				r.pingInitiate(first, n, logs[t], iter[t])
			case r.w.kind == kindPingPong:
				r.pingRespond(first, n, logs[t])
			default:
				r.putOrigin(t, first, n, logs[t], iter[t])
			}
			ends[t] = time.Now()
			logs[t].closeRep(t0, logs[t].now())
		}(t)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(repTimeout):
		return 0, nil, fmt.Errorf("%s: loop stuck for %v (first failure: %s)", r.w.name, repTimeout, r.firstFailure())
	}
	end := ends[0]
	if ends[1].After(end) {
		end = ends[1]
	}
	return end.Sub(start), append(iter[0], iter[1]...), nil
}

// slot maps the sender's j-th send of a window to the receive slot it
// matches: the same position, or the mirrored one when tags are sent in
// the reverse of the posted order.
func (r *rep) slot(j int) int {
	if r.w.deep {
		return r.w.window - 1 - j
	}
	return j
}

// payloadOK checks a stream payload received in slot k of window it against
// the seeded pattern: the message's stamp, then the slot's body.
func (r *rep) payloadOK(got []byte, it, k int) bool {
	if r.w.size < 8 {
		return len(got) == r.w.size
	}
	return binary.LittleEndian.Uint64(got) == r.stamp(it*r.w.window+k) && bytes.Equal(got[8:], r.pool[k][8:])
}

func (r *rep) streamSend(first, n int, log *spanLog) {
	w, th, c := r.w, r.ths[0], r.comms[0]
	reqs := r.reqs[0]
	for it := first; it < first+n; it++ {
		tags := r.tags[it%len(r.tags)]
		reqs = reqs[:0]
		t0 := log.now()
		for j := 0; j < w.window; j++ {
			k := r.slot(j)
			buf := r.pool[k]
			if w.size >= 8 {
				binary.LittleEndian.PutUint64(buf, r.stamp(it*w.window+k))
			}
			req, err := c.Isend(th, 1, tags[k], buf)
			if err != nil {
				r.fail("isend window %d: %v", it, err)
				return
			}
			reqs = append(reqs, req)
		}
		t1 := log.now()
		if err := core.WaitAll(th, reqs...); err != nil {
			r.fail("sender waitall window %d: %v", it, err)
			return
		}
		log.phases(it, t0, t1, log.now(), spanPostSends, spanWaitSends)
	}
}

func (r *rep) streamRecv(first, n int, log *spanLog, iter []int64) {
	w, th, c := r.w, r.ths[1], r.comms[1]
	reqs := r.reqs[1]
	prev := time.Now()
	for it := first; it < first+n; it++ {
		tags := r.tags[it%len(r.tags)]
		reqs = reqs[:0]
		t0 := log.now()
		for k := 0; k < w.window; k++ {
			req, err := c.Irecv(th, 0, tags[k], r.recvBufs[k])
			if err != nil {
				r.fail("irecv window %d: %v", it, err)
				return
			}
			reqs = append(reqs, req)
		}
		t1 := log.now()
		if err := core.WaitAll(th, reqs...); err != nil {
			r.fail("receiver waitall window %d: %v", it, err)
			return
		}
		log.phases(it, t0, t1, log.now(), spanPostRecvs, spanWaitRecvs)
		if iter != nil {
			now := time.Now()
			iter[it-first] = int64(now.Sub(prev))
			prev = now
		}
		// Every message is checked against the seeded pattern for its index
		// and against the Status the runtime reports.
		for k, req := range reqs {
			st := req.Status()
			if st.Source != 0 || st.Tag != tags[k] || st.Count != w.size || st.Truncated {
				r.fail("window %d slot %d: status %+v, want tag %d count %d", it, k, st, tags[k], w.size)
				continue
			}
			if !r.payloadOK(r.recvBufs[k], it, k) {
				r.fail("window %d slot %d: payload differs from the seeded pattern", it, k)
			}
		}
	}
}

func (r *rep) pingInitiate(first, n int, log *spanLog, iter []int64) {
	th, c := r.ths[0], r.comms[0]
	out, in := r.pool[0], r.recvBufs[0]
	prev := time.Now()
	for it := first; it < first+n; it++ {
		want := r.stamp(it)
		binary.LittleEndian.PutUint64(out, want)
		var l *spanLog
		if it%16 == 0 { // a span pair for every 16th round trip
			l = log
		}
		t0 := l.now()
		if err := c.Send(th, 1, 0, out); err != nil {
			r.fail("ping send %d: %v", it, err)
			return
		}
		t1 := l.now()
		st, err := c.Recv(th, 1, 0, in)
		if err != nil {
			r.fail("ping recv %d: %v", it, err)
			return
		}
		l.phases(it, t0, t1, l.now(), spanSend, spanRecv)
		if iter != nil {
			now := time.Now()
			iter[it-first] = int64(now.Sub(prev))
			prev = now
		}
		if st.Source != 1 || st.Tag != 0 || st.Count != len(in) || binary.LittleEndian.Uint64(in) != ^want {
			r.fail("round trip %d: echo %x status %+v, want %x", it, in, st, ^want)
		}
	}
}

func (r *rep) pingRespond(first, n int, log *spanLog) {
	th, c := r.ths[1], r.comms[1]
	out, in := r.pool[1], r.recvBufs[1]
	for it := first; it < first+n; it++ {
		var l *spanLog
		if it%16 == 0 {
			l = log
		}
		t0 := l.now()
		st, err := c.Recv(th, 0, 0, in)
		if err != nil {
			r.fail("pong recv %d: %v", it, err)
			return
		}
		t1 := l.now()
		got := binary.LittleEndian.Uint64(in)
		if st.Source != 0 || st.Tag != 0 || st.Count != len(in) || got != r.stamp(it) {
			r.fail("ping %d: payload %x status %+v, want %x", it, in, st, r.stamp(it))
		}
		binary.LittleEndian.PutUint64(out, ^got)
		if err := c.Send(th, 0, 0, out); err != nil {
			r.fail("pong send %d: %v", it, err)
			return
		}
		l.phases(it, t0, t1, l.now(), spanRecv, spanSend)
	}
}

// putOrigin is origin thread g: a burst of puts into its own half of the
// target window, one distinct offset per put, then a flush.
func (r *rep) putOrigin(g, first, n int, log *spanLog, iter []int64) {
	w, th, win := r.w, r.ths[g], r.wins[0]
	src := r.pool[g]
	base := g * len(src)
	prev := time.Now()
	for it := first; it < first+n; it++ {
		t0 := log.now()
		for off := 0; off < len(src); off += w.size {
			if err := win.Put(th, 1, base+off, src[off:off+w.size]); err != nil {
				r.fail("origin %d put round %d: %v", g, it, err)
				return
			}
		}
		t1 := log.now()
		if err := win.Flush(th, 1); err != nil {
			r.fail("origin %d flush round %d: %v", g, it, err)
			return
		}
		log.phases(it, t0, t1, log.now(), spanPutBurst, spanFlush)
		if iter != nil {
			now := time.Now()
			iter[it-first] = int64(now.Sub(prev))
			prev = now
		}
	}
}

// counters returns both ranks' SPC roll-ups merged.
func (r *rep) counters() spc.Snapshot {
	return spc.Merge(r.procs[0].SPCSnapshot(), r.procs[1].SPCSnapshot())
}

// verifyTotals checks, after iters iterations, that the runtime's own
// counters agree with the count attempted, and for RMA every byte of the
// target window. A mismatch is a failed operation.
func (r *rep) verifyTotals(iters int) {
	w := r.w
	want := int64(iters * w.msgsPerIter())
	total := r.counters()
	if w.kind == kindPut {
		if got := total[spc.PutsIssued]; got != want {
			r.fail("puts_issued %d, want %d", got, want)
		}
		if err := r.wins[0].UnlockAll(r.ths[0]); err != nil {
			r.fail("unlock_all: %v", err)
		}
		target := r.wins[1].Local()
		wantBytes := append(append([]byte(nil), r.pool[0]...), r.pool[1]...)
		for off := 0; off < len(target); off += w.size {
			if !bytes.Equal(target[off:off+w.size], wantBytes[off:off+w.size]) {
				r.fail("target window bytes [%d,%d) differ from the seeded pattern", off, off+w.size)
			}
		}
		return
	}
	if got := total[spc.MessagesReceived]; got != want {
		r.fail("messages_received %d, want %d", got, want)
	}
	// The runtime counts messages_sent on the eager path only.
	if w.size <= core.DefaultEagerLimit {
		if got := total[spc.MessagesSent]; got != want {
			r.fail("messages_sent %d, want %d", got, want)
		}
	}
}

// repMode says what a repetition records beyond the end-to-end numbers.
type repMode struct {
	// index numbers the repetition within the run (span ids, input seed).
	index int
	// spans records the loop phases into logs based at epoch.
	spans bool
	epoch time.Time
	// tune flips one observer switch of core.Options (the obs metrics).
	tune func(*core.Options)
	// latency turns Options.Latency on and collects the ranks' stage dumps.
	latency bool
}

// repResult is what one repetition measured.
type repResult struct {
	setup, wall time.Duration
	// msgs and payloadBytes count the timed section only; attempted and
	// failed count every operation of the repetition, warm-up included.
	msgs, payloadBytes int64
	attempted, failed  int64
	failure            string
	// Of the observing thread's iteration times only the count, the median
	// and the tail (see tailPercentile) are kept: holding every sample of
	// every repetition would grow the heap the later repetitions run in.
	iterSamples         int
	iterP50Us, iterTail float64
	mallocs, allocB     uint64
	gcCycles            uint32
	gcPauseNs           uint64
	spcs                spc.Snapshot // timed-section delta, both ranks
	spcTotals           spc.Snapshot
	io                  ioCounters
	ioOK                bool
	logs                []*spanLog // span repetitions only; the caller frees them
	lat                 []latency.RankDump
}

func (r *repResult) rate() float64 { return float64(r.msgs) / r.wall.Seconds() }

// runRep runs one repetition of w: build the world, warm up (lazy dial and
// handshake included), then the timed section, then verification.
func runRep(w workload, seed uint64, mode repMode) (*repResult, error) {
	tune := mode.tune
	if mode.latency {
		tune = func(o *core.Options) { o.Latency = true }
	}
	r, start, err := newRep(w, mix(seed+uint64(mode.index)), tune)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer r.close()
	warm := w.warmIters()
	if _, _, err := r.phase(0, warm, [2]*spanLog{}, false); err != nil {
		return nil, err
	}
	res := &repResult{setup: time.Since(start)}

	var logs [2]*spanLog
	if mode.spans {
		perIter := 3
		if w.kind == kindPingPong {
			perIter = 1 // three spans for every 16th round trip
		}
		for t := range logs {
			logs[t] = newSpanLog(mode.epoch, t, mode.index, w.iters*perIter)
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	io0, ioOK := readIO()
	s0 := r.counters()
	wall, iter, err := r.phase(warm, w.iters, logs, true)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	io1, _ := readIO()
	res.spcTotals = r.counters()
	r.verifyTotals(warm + w.iters)

	slices.Sort(iter)
	res.wall = wall
	res.iterSamples = len(iter)
	res.iterP50Us = float64(percentile(iter, 50)) / 1e3
	if p, ok := tailPercentile(len(iter)); ok {
		res.iterTail = float64(percentile(iter, p)) / 1e3
	}
	res.msgs = int64(w.iters * w.msgsPerIter())
	res.payloadBytes = res.msgs * int64(w.size)
	res.attempted = int64((warm + w.iters) * w.msgsPerIter())
	res.failed = r.failed.Load()
	res.failure = r.firstFailure()
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.allocB = m1.TotalAlloc - m0.TotalAlloc
	res.gcCycles = m1.NumGC - m0.NumGC
	res.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	res.spcs = res.spcTotals.Sub(s0)
	res.io, res.ioOK = io1.sub(io0), ioOK
	if mode.spans {
		res.logs = logs[:]
	}
	if mode.latency {
		for _, p := range r.procs {
			res.lat = append(res.lat, p.LatencyDump())
		}
	}
	return res, nil
}
