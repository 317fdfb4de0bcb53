package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/backends"
	"repro/internal/core"
	"repro/internal/cri"
	"repro/internal/hw"
	"repro/internal/match"
	"repro/internal/prof"
	"repro/internal/progress"
	"repro/internal/ringbuf"
	"repro/internal/spc"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
)

// The ladder times calls into each layer's public functions from outside
// the program: single-threaded loops (two threads for tcpnet, whose reader
// goroutine is asynchronous anyway), inputs from the seed, each rung the
// median of ladderRuns runs. README.md lists every symbol touched.

const ladderRuns = 3

// sink keeps measured results alive so the compiler cannot drop the calls.
// Loops fold into a local and store it once, after the clock has stopped.
var sink any

// stopwatch collects the runs of one rung. A rung body prepares its inputs,
// calls start, performs ops operations and calls stop.
type stopwatch struct {
	t0     time.Time
	m0     uint64
	ns     []float64
	allocs []float64
}

func (s *stopwatch) start() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.m0 = m.Mallocs
	s.t0 = time.Now()
}

func (s *stopwatch) stop(ops int) {
	el := time.Since(s.t0)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.ns = append(s.ns, float64(el.Nanoseconds())/float64(ops))
	s.allocs = append(s.allocs, float64(m.Mallocs-s.m0)/float64(ops))
}

// rung runs body ladderRuns times and returns the median ns and heap
// allocations per operation.
func rung(body func(sw *stopwatch) error) (ns, allocs float64, err error) {
	var sw stopwatch
	for i := 0; i < ladderRuns; i++ {
		if err := body(&sw); err != nil {
			return 0, 0, err
		}
	}
	return median(sw.ns), median(sw.allocs), nil
}

// ladder collects the rungs' results by metric name; every rung runs at
// 1/div of its full operation count.
type ladder struct {
	out  map[string]float64
	seed uint64
	div  int
}

func (l *ladder) ops(full int) int { return max(full/l.div, 64) }

// put measures one rung into out[name] and returns its allocations per op.
func (l *ladder) put(name string, body func(sw *stopwatch) error) (allocs float64, err error) {
	ns, allocs, err := rung(body)
	if err != nil {
		return 0, fmt.Errorf("ladder %s: %w", name, err)
	}
	l.out[name] = ns
	return allocs, nil
}

// runLadder measures every rung at 1/div of its full operation count and
// returns the ladder's per-layer metrics by name.
func runLadder(seed uint64, div int) (map[string]float64, error) {
	l := &ladder{out: make(map[string]float64), seed: seed, div: div}
	for _, layer := range []func() error{l.wire, l.ringbuf, l.match, l.cri, l.progress, l.fabric, l.tcpnet} {
		if err := layer(); err != nil {
			return nil, err
		}
	}
	// The rungs a 0-byte in-process message crosses on each thread.
	out := l.out
	out["ladder.send_side_ns"] = out["cri.acquire_rr_ns"] + out["fabric.send_ns_per_msg"]
	out["ladder.recv_side_ns"] = out["progress.idle_pass_serial_ns"] + out["fabric.poll_ns_per_msg"] + out["match.list_posted_hit_ns"]
	return out, nil
}

// wire: the mux-frame codec, 0-byte and 64 KiB payloads.
func (l *ladder) wire() error {
	env := transport.Envelope{Src: 0, Dst: 1, Tag: 7, Comm: 1, Seq: 1, Kind: transport.KindEager}
	for _, sz := range []struct {
		label string
		bytes int
		ops   int
	}{{"0B", 0, 400000}, {"64K", 64 << 10, 1000}} {
		payload := make([]byte, sz.bytes)
		fillSeeded(payload, l.seed)
		pkt := transport.NewPacket(env, payload, nil)
		ops := l.ops(sz.ops)
		if _, err := l.put("wire.encode_mux_"+sz.label+"_ns", func(sw *stopwatch) error {
			buf := make([]byte, 0, pkt.WireSize()+64)
			sw.start()
			for i := 0; i < ops; i++ {
				buf = pkt.AppendMuxFrame(buf[:0], 3)
			}
			sw.stop(ops)
			sink = buf
			return nil
		}); err != nil {
			return err
		}
		frame := pkt.AppendMuxFrame(nil, 3)[4:] // DecodeMuxFrame takes the body after the length prefix
		allocs, err := l.put("wire.decode_mux_"+sz.label+"_ns", func(sw *stopwatch) error {
			var last *transport.Packet
			sw.start()
			for i := 0; i < ops; i++ {
				mux, p, err := transport.DecodeMuxFrame(frame)
				if err != nil || mux != 3 {
					return fmt.Errorf("decode: mux %d: %v", mux, err)
				}
				last = p
			}
			sw.stop(ops)
			sink = last
			return nil
		})
		if err != nil {
			return err
		}
		if sz.bytes == 0 {
			l.out["wire.decode_allocs_per_op"] = allocs
		}
	}
	return nil
}

// ringbuf: the MPSC ring behind every receive queue and completion queue.
func (l *ladder) ringbuf() error {
	ops := l.ops(1000000)
	if _, err := l.put("ringbuf.mpsc_push_pop_ns", func(sw *stopwatch) error {
		q := ringbuf.NewMPSC[int](4096)
		sum := 0
		sw.start()
		for i := 0; i < ops; i++ {
			q.Push(i)
			v, _ := q.Pop()
			sum += v
		}
		sw.stop(ops)
		sink = sum
		return nil
	}); err != nil {
		return err
	}
	_, err := l.put("ringbuf.mpsc_popbatch_ns_per_elem", func(sw *stopwatch) error {
		q := ringbuf.NewMPSC[int](4096)
		dst := make([]int, 64)
		batches := ops / len(dst)
		sw.start()
		for i := 0; i < batches; i++ {
			for j := range dst {
				q.Push(j)
			}
			if got := q.PopBatch(dst); got != len(dst) {
				return fmt.Errorf("PopBatch returned %d of %d", got, len(dst))
			}
		}
		sw.stop(batches * len(dst))
		return nil
	})
	return err
}

// matchPackets makes count 0-byte packets with the given tag and the
// sequence numbers 0, 1, ... a fresh engine expects from rank 0.
func matchPackets(tag int32, count int) []*transport.Packet {
	pkts := make([]*transport.Packet, count)
	for i := range pkts {
		e := transport.Envelope{Src: 0, Dst: 1, Tag: tag, Comm: 1, Seq: uint32(i), Kind: transport.KindEager}
		pkts[i] = transport.NewPacket(e, nil, nil)
	}
	return pkts
}

// match: the list engine core uses by default and the sharded engine,
// configured as core configures them (spin meter, a live counter set).
func (l *ladder) match() error {
	costs := hw.Fast().Scaled()
	engines := []struct {
		label string
		mk    func() match.Matcher
	}{
		{"list", func() match.Matcher { return match.NewEngine(1, 2, costs, match.SpinMeter{}, spc.NewSet()) }},
		{"sharded", func() match.Matcher { return match.NewSharded(1, 2, 8, costs, match.SpinMeter{}, spc.NewSet()) }},
	}
	ops := l.ops(40000)
	for _, eng := range engines {
		for _, unexpected := range []bool{false, true} {
			name := "match." + eng.label + "_posted_hit_ns"
			if unexpected {
				name = "match." + eng.label + "_unexpected_hit_ns"
			}
			allocs, err := l.put(name, func(sw *stopwatch) error {
				e := eng.mk()
				pkts := matchPackets(7, ops)
				recvs := make([]match.Recv, ops)
				var comps []match.Completion
				matched := 0
				sw.start()
				for i := range pkts {
					r := &recvs[i]
					r.Source, r.Tag = 0, 7
					if unexpected {
						comps = e.Deliver(pkts[i], comps[:0])
						if _, ok := e.PostRecv(r); ok {
							matched++
						}
					} else {
						e.PostRecv(r)
						comps = e.Deliver(pkts[i], comps[:0])
						matched += len(comps)
					}
				}
				sw.stop(ops)
				if matched != ops {
					return fmt.Errorf("matched %d of %d", matched, ops)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if eng.label == "list" && !unexpected {
				l.out["match.allocs_per_msg"] = allocs
			}
		}
	}
	// Walk: 128 receives with distinct tags stay posted; each arrival
	// matches the last one, which is re-posted at the tail.
	const depth = 128
	walkOps := l.ops(8000)
	walkNs, _, err := rung(func(sw *stopwatch) error {
		e := engines[0].mk()
		posted := make([]match.Recv, depth)
		for i := range posted {
			posted[i].Source, posted[i].Tag = 0, int32(i)
			e.PostRecv(&posted[i])
		}
		pkts := matchPackets(depth-1, walkOps)
		recvs := make([]match.Recv, walkOps)
		var comps []match.Completion
		sw.start()
		for i := range pkts {
			comps = e.Deliver(pkts[i], comps[:0])
			if len(comps) != 1 {
				return fmt.Errorf("arrival %d matched %d receives", i, len(comps))
			}
			r := &recvs[i]
			r.Source, r.Tag = 0, depth-1
			e.PostRecv(r)
		}
		sw.stop(walkOps)
		return nil
	})
	if err != nil {
		return fmt.Errorf("ladder match walk: %w", err)
	}
	l.out["match.list_walk_ns_per_elem"] = (walkNs - l.out["match.list_posted_hit_ns"]) / (depth - 1)
	return nil
}

// simPool builds a pool of size instances over contexts of the simulated
// fabric, each with its own counter set as core gives them.
func simPool(size int, mode cri.Assignment) (*cri.Pool, error) {
	insts := make([]*cri.Instance, size)
	for i := range insts {
		dev, err := backends.Sim().NewDevice(0, hw.Fast(), transport.DeviceConfig{})
		if err != nil {
			return nil, err
		}
		ctx, err := dev.CreateContext(64)
		if err != nil {
			return nil, err
		}
		insts[i] = cri.NewInstance(i, ctx, spc.NewSet())
	}
	p, err := cri.NewPool(insts, mode)
	if err != nil {
		return nil, err
	}
	p.SetSPCs(spc.NewSet())
	return p, nil
}

// cri: acquire and release one instance under each assignment.
func (l *ladder) cri() error {
	ops := l.ops(1000000)
	for _, a := range []struct {
		name string
		size int
		mode cri.Assignment
	}{
		{"cri.acquire_rr_ns", 1, cri.RoundRobin}, // core.Stock: one instance, round-robin
		{"cri.acquire_dedicated_ns", 2, cri.Dedicated},
		{"cri.acquire_freelist_ns", 2, cri.FreeList},
	} {
		if _, err := l.put(a.name, func(sw *stopwatch) error {
			p, err := simPool(a.size, a.mode)
			if err != nil {
				return err
			}
			var ts cri.ThreadState
			var last *cri.Instance
			sw.start()
			for i := 0; i < ops; i++ {
				in, release := p.AcquireSend(&ts)
				release()
				last = in
			}
			sw.stop(ops)
			sink = last
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// progress: one pass over contexts with nothing to extract.
func (l *ladder) progress() error {
	ops := l.ops(500000)
	for _, m := range []struct {
		name string
		size int
		mode progress.Mode
	}{
		{"progress.idle_pass_serial_ns", 1, progress.Serial},
		{"progress.idle_pass_concurrent4_ns", 4, progress.Concurrent},
	} {
		if _, err := l.put(m.name, func(sw *stopwatch) error {
			p, err := simPool(m.size, cri.Dedicated)
			if err != nil {
				return err
			}
			eng := progress.New(m.mode, p, func(*prof.ThreadClock, *cri.Instance, transport.CQE) {}, spc.NewSet())
			ts := cri.NewThreadState(0)
			handled := 0
			sw.start()
			for i := 0; i < ops; i++ {
				handled += eng.Progress(&ts)
			}
			sw.stop(ops)
			if handled != 0 {
				return fmt.Errorf("idle pass handled %d events", handled)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// fabric drives the simulated fabric through the transport interface
// with no core on top, one thread, in batches that fit the rings: Send a
// batch and reap its send completions (the send side), then Poll the batch
// out of the peer context (the receive side).
func (l *ladder) fabric() error {
	const batch = 1024
	ops, out := l.ops(200000), l.out
	var sendNs, pollNs []float64
	for run := 0; run < ladderRuns; run++ {
		net := backends.Sim()
		var ctxs [2]transport.Context
		var devs [2]transport.Device
		for rank := range devs {
			dev, err := net.NewDevice(rank, hw.Fast(), transport.DeviceConfig{})
			if err != nil {
				return err
			}
			devs[rank] = dev
			if ctxs[rank], err = dev.CreateContext(0); err != nil {
				return err
			}
		}
		ep, err := devs[0].Connect(ctxs[0], 1, 0)
		if err != nil {
			return err
		}
		env := transport.Envelope{Src: 0, Dst: 1, Comm: 1, Kind: transport.KindEager}
		var send, poll time.Duration
		got := 0
		count := func(transport.CQE) { got++ }
		for done := 0; done < ops; done += batch {
			pkts := make([]*transport.Packet, batch)
			for i := range pkts {
				pkts[i] = transport.NewPacket(env, nil, nil)
			}
			t0 := time.Now()
			for _, p := range pkts {
				if err := ep.Send(p); err != nil {
					return err
				}
			}
			for got = 0; got < batch; {
				ctxs[0].Poll(count, 64)
			}
			t1 := time.Now()
			for got = 0; got < batch; {
				ctxs[1].Poll(count, 64)
			}
			send += t1.Sub(t0)
			poll += time.Since(t1)
		}
		total := float64((ops + batch - 1) / batch * batch)
		sendNs = append(sendNs, float64(send.Nanoseconds())/total)
		pollNs = append(pollNs, float64(poll.Nanoseconds())/total)
		devs[0].Close()
		devs[1].Close()
	}
	out["fabric.send_ns_per_msg"] = median(sendNs)
	out["fabric.poll_ns_per_msg"] = median(pollNs)
	out["fabric.send_poll_ns_per_msg"] = out["fabric.send_ns_per_msg"] + out["fabric.poll_ns_per_msg"]
	return nil
}

// tcpnet is the median of ladderRuns tcpRungs.
func (l *ladder) tcpnet() error {
	var ns, connMs []float64
	for i := 0; i < ladderRuns; i++ {
		n, ms, err := tcpRung(l.ops(60000))
		if err != nil {
			return fmt.Errorf("ladder tcpnet: %w", err)
		}
		ns, connMs = append(ns, n), append(connMs, ms)
	}
	l.out["tcpnet.send_poll_ns_per_msg"] = median(ns)
	l.out["tcpnet.connect_ms"] = median(connMs)
	return nil
}

// tcpRung drives tcpnet through the transport interface with no core on
// top: the first Send dials and handshakes (connect_ms, until the frame is
// polled out at the peer), then one thread sends while another polls.
func tcpRung(ops int) (nsPerMsg, connectMs float64, err error) {
	nets, err := tcpnet.NewLoopback(2)
	if err != nil {
		return 0, 0, err
	}
	var ctxs [2]transport.Context
	var devs [2]transport.Device
	for rank := range devs {
		dev, err := nets[rank].NewDevice(rank, hw.Fast(), transport.DeviceConfig{})
		if err != nil {
			return 0, 0, err
		}
		devs[rank] = dev
		defer dev.Close()
		if ctxs[rank], err = dev.CreateContext(0); err != nil {
			return 0, 0, err
		}
	}
	ep, err := devs[0].Connect(ctxs[0], 1, 0)
	if err != nil {
		return 0, 0, err
	}
	env := transport.Envelope{Src: 0, Dst: 1, Comm: 1, Kind: transport.KindEager}
	got := 0
	count := func(transport.CQE) { got++ }
	// pollUntil spins the peer context until want packets arrived.
	pollUntil := func(want int) error {
		deadline := time.Now().Add(repTimeout)
		for got < want {
			if ctxs[1].Poll(count, 64) == 0 {
				runtime.Gosched()
				if time.Now().After(deadline) {
					return fmt.Errorf("polled %d of %d packets", got, want)
				}
			}
		}
		return nil
	}

	t0 := time.Now()
	if err := ep.Send(transport.NewPacket(env, nil, nil)); err != nil {
		return 0, 0, err
	}
	if err := pollUntil(1); err != nil {
		return 0, 0, err
	}
	connectMs = float64(time.Since(t0).Nanoseconds()) / 1e6

	pkts := make([]*transport.Packet, ops)
	for i := range pkts {
		pkts[i] = transport.NewPacket(env, nil, nil)
	}
	got = 0
	sendErr := make(chan error, 1)
	t0 = time.Now()
	go func() {
		drop := func(transport.CQE) {}
		for i, p := range pkts {
			if err := ep.Send(p); err != nil {
				sendErr <- err
				return
			}
			if i%32 == 31 {
				ctxs[0].Poll(drop, 64) // reap send completions so the CQ never fills
			}
		}
		sendErr <- nil
	}()
	perr := pollUntil(ops)
	el := time.Since(t0)
	if err := <-sendErr; err != nil {
		return 0, 0, err
	}
	if perr != nil {
		return 0, 0, perr
	}
	return float64(el.Nanoseconds()) / float64(ops), connectMs, nil
}

// observers are the core.Options switches whose enabled cost the obs
// metrics report, one at a time.
var observers = []struct {
	name string
	set  func(*core.Options)
}{
	{"telemetry", func(o *core.Options) { o.Telemetry = true }},
	{"tracewire", func(o *core.Options) { o.TraceWire = true }},
	{"latency", func(o *core.Options) { o.Latency = true }},
	{"flight", func(o *core.Options) { o.FlightCapacity = 4096 }},
	{"profile", func(o *core.Options) { o.Profile = true }},
}

const obsRuns = 3

// runObs measures inproc_stream_0B at 1/div size with no observer and with
// each one, obsRuns repetitions each, interleaved. It returns the enabled
// cost of each as a percentage of the time per message, and the baseline
// rate the ladder's residual is taken against.
func runObs(seed uint64, div int) (map[string]float64, float64, error) {
	w, _ := findWorkload("inproc_stream_0B")
	w = w.scaled(div)
	rates := make([][]float64, len(observers)+1)
	index := 0
	for run := 0; run < obsRuns; run++ {
		for i := range rates {
			var tune func(*core.Options)
			if i > 0 {
				tune = observers[i-1].set
			}
			res, err := runRep(w, seed, repMode{index: index, tune: tune})
			if err != nil {
				return nil, 0, err
			}
			if res.failed > 0 {
				return nil, 0, fmt.Errorf("obs run with switch %d: %s", i, res.failure)
			}
			index++
			rates[i] = append(rates[i], res.rate())
		}
	}
	base := median(rates[0])
	out := make(map[string]float64)
	for i, o := range observers {
		out["obs."+o.name+"_overhead_pct"] = (base/median(rates[i+1]) - 1) * 100
	}
	return out, base, nil
}
