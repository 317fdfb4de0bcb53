package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/backends"
	"repro/internal/flight"
	"repro/internal/hw"
	"repro/internal/match"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
)

// kindEvents returns p's retained flight events of kind k, in record order.
func kindEvents(p *Proc, k flight.Kind) []flight.Event {
	var out []flight.Event
	for _, e := range p.FlightRecord().Events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

func TestFlightRecordsMessageLifecycle(t *testing.T) {
	opts := Stock()
	opts.FlightCapacity = 1024
	w := newTestWorld(t, 2, opts)
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	c0, c1 := w.Proc(0).CommWorld(), w.Proc(1).CommWorld()

	const msgs = 5
	go func() {
		for i := 0; i < msgs; i++ {
			_ = c0.Send(t0, 1, int32(i), []byte{byte(i)})
		}
	}()
	buf := make([]byte, 1)
	for i := 0; i < msgs; i++ {
		if _, err := c1.Recv(t1, 0, int32(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(kindEvents(w.Proc(1), flight.KindRecvDeliver)); got != msgs {
		t.Fatalf("receiver recorded %d deliveries, want %d", got, msgs)
	}
	if got := len(kindEvents(w.Proc(1), flight.KindMatchComplete)); got != msgs {
		t.Fatalf("receiver recorded %d completions, want %d", got, msgs)
	}
	// Injection events carry (dst, seq) in order for a single thread, on the
	// row of the one instance Stock has.
	injects := kindEvents(w.Proc(0), flight.KindSendInject)
	if len(injects) != msgs {
		t.Fatalf("sender recorded %d injections, want %d", len(injects), msgs)
	}
	for seq, e := range injects {
		if e.A0 != 1 || e.A1 != int32(seq) || e.CRI() != 0 {
			t.Fatalf("inject event = %+v, want dst=1 seq=%d cri=0", e, seq)
		}
	}
}

func TestFlightRecordsRendezvous(t *testing.T) {
	const size = DefaultEagerLimit + 100
	opts := Stock()
	opts.FlightCapacity = 256
	w := newTestWorld(t, 2, opts)
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	go func() { _ = w.Proc(0).CommWorld().Send(t0, 1, 1, make([]byte, size)) }()
	buf := make([]byte, size+28)
	if _, err := w.Proc(1).CommWorld().Recv(t1, 0, 1, buf); err != nil {
		t.Fatal(err)
	}
	start, done := kindEvents(w.Proc(1), flight.KindRendezvousStart), kindEvents(w.Proc(1), flight.KindRendezvousDone)
	if len(start) != 1 || len(done) != 1 {
		t.Fatalf("rendezvous events: start=%d done=%d", len(start), len(done))
	}
	if start[0].A1 != size || done[0].A1 != size {
		t.Fatalf("rendezvous lengths: start=%+v done=%+v", start[0], done[0])
	}
	// A rendezvous is followed by its own events, not by send_inject.
	if n := len(kindEvents(w.Proc(0), flight.KindSendInject)); n != 0 {
		t.Fatalf("rendezvous RTS recorded %d send_inject events", n)
	}
}

func TestTraceWireLifecycle(t *testing.T) {
	opts := Stock()
	opts.FlightCapacity = 1024
	opts.Telemetry = true
	opts.TraceWire = true
	w := newTestWorld(t, 2, opts)
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	c0, c1 := w.Proc(0).CommWorld(), w.Proc(1).CommWorld()

	go func() { _ = c0.Send(t0, 1, 7, []byte("traced")) }()
	buf := make([]byte, 8)
	if _, err := c1.Recv(t1, 0, 7, buf); err != nil {
		t.Fatal(err)
	}

	// Both ends compute the same deterministic flow id; the first eager
	// send on the world communicator has seq 0 (the rank bias keeps the id
	// non-zero regardless).
	want := TraceID(0, 1, 0)
	for _, hop := range []struct {
		p *Proc
		k flight.Kind
	}{
		{w.Proc(0), flight.KindSendInject},
		{w.Proc(1), flight.KindRecvDeliver},
		{w.Proc(1), flight.KindMatchComplete},
	} {
		ev := kindEvents(hop.p, hop.k)
		if len(ev) != 1 || ev[0].Flow != want {
			t.Fatalf("rank %d %v events = %+v, want one with flow %#x", hop.p.Rank(), hop.k, ev, want)
		}
	}

	// Lifecycle histograms fill on the receiver.
	tel := w.Proc(1).Telemetry()
	if tel.OneWayLatency.Count() == 0 {
		t.Error("one-way latency histogram empty on a traced run")
	}
	if tel.MatchResidency.Count() == 0 {
		t.Error("match residency histogram empty on a traced run")
	}

	// The flight record carries the shard anchors.
	rec := w.Proc(1).FlightRecord()
	if rec.Rank != 1 || len(rec.Events) == 0 || rec.StartUnixNs == 0 {
		t.Fatalf("trace shard incomplete: rank=%d events=%d base=%d", rec.Rank, len(rec.Events), rec.StartUnixNs)
	}
}

func TestTraceWireOffByDefault(t *testing.T) {
	opts := Stock()
	opts.FlightCapacity = 64
	opts.Telemetry = true
	w := newTestWorld(t, 2, opts)
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	go func() { _ = w.Proc(0).CommWorld().Send(t0, 1, 1, []byte{1}) }()
	buf := make([]byte, 1)
	if _, err := w.Proc(1).CommWorld().Recv(t1, 0, 1, buf); err != nil {
		t.Fatal(err)
	}
	for _, e := range w.Proc(1).FlightRecord().Events {
		if e.Flow != 0 {
			t.Fatalf("flow id %#x recorded with TraceWire off", e.Flow)
		}
	}
	if n := w.Proc(1).Telemetry().OneWayLatency.Count(); n != 0 {
		t.Fatalf("one-way latency recorded %d samples with TraceWire off", n)
	}
}

// skewedNet is an in-process backend that reports offsetNs as the local −
// peer clock difference for every peer, as tcpnet's handshake estimate would.
type skewedNet struct {
	transport.Network
	offsetNs int64
}

func (n skewedNet) PeerClockOffsetNs(int) (int64, bool) { return n.offsetNs, true }

// Every latency derived from a traced packet's send stamp goes through the
// same clock correction: the message-latency histogram's sample, the
// attribution's end-to-end and the one-way latency must all see the send a
// full offset earlier than the raw stamp says.
func TestLatenciesShareOneClockCorrection(t *testing.T) {
	const offset = int64(50 * time.Millisecond)
	opts := Stock()
	opts.Network = skewedNet{Network: backends.Sim(), offsetNs: -offset}
	opts.Telemetry = true
	opts.Latency = true
	w := newTestWorld(t, 2, opts)
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	go func() { _ = w.Proc(0).CommWorld().Send(t0, 1, 3, []byte("skewed")) }()
	if _, err := w.Proc(1).CommWorld().Recv(t1, 0, 3, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}

	p := w.Proc(1)
	hist := p.Telemetry().MsgLatency.Snapshot()
	ex := p.LatencyRecorder().Exemplars()
	if hist.Count != 1 || len(ex) != 1 {
		t.Fatalf("one message gave %d histogram samples and %d exemplars", hist.Count, len(ex))
	}
	if hist.Sum != ex[0].E2ENs {
		t.Fatalf("msg_latency sample = %dns, attribution e2e = %dns: derived from different send stamps", hist.Sum, ex[0].E2ENs)
	}
	if ex[0].E2ENs < offset {
		t.Fatalf("e2e = %dns ignores the %dns clock offset", ex[0].E2ENs, offset)
	}
	if oneWay := p.Telemetry().OneWayLatency.Snapshot(); oneWay.Sum < offset || oneWay.Sum > ex[0].E2ENs {
		t.Fatalf("one-way latency %dns outside [offset %dns, e2e %dns]", oneWay.Sum, offset, ex[0].E2ENs)
	}
}

// pinAllocs fails when f allocates more than pinned times per op — a run of f
// is ops operations — or, with pinnedBytes above zero, more than pinnedBytes
// heap bytes per op (the TotalAlloc delta over as many runs, size-class
// rounding included: what the collector sees), and logs the row `make allocs`
// collects into its table. Nothing on the message path is in a sync.Pool (a
// receive's record is reused through its Thread's own list, which the race
// detector leaves alone), so the counts are the same under the race detector
// and the pins hold there too.
func pinAllocs(t *testing.T, path string, pinned float64, pinnedBytes uint64, ops int, f func()) {
	t.Helper()
	const runs = 200
	got := testing.AllocsPerRun(runs, f) / float64(ops)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&m1)
	bytes := (m1.TotalAlloc - m0.TotalAlloc) / uint64(runs*ops)
	bytePin := "-"
	if pinnedBytes > 0 {
		bytePin = fmt.Sprint(pinnedBytes)
	}
	t.Logf("allocs-pin | %-46s | %5.2f | %5.2f | %6d | %6s", path, got, pinned, bytes, bytePin)
	if got > pinned {
		t.Errorf("%s allocates %v times per op, pinned at %v", path, got, pinned)
	}
	if pinnedBytes > 0 && bytes > pinnedBytes {
		t.Errorf("%s allocates %d heap bytes per op, pinned at %d", path, bytes, pinnedBytes)
	}
}

// A message costs no heap object of its own: one Stock 8-byte eager message
// end to end — posted receive, send, the receiver's progress pass that
// matches it, both Waits — carves the receive's handle and the send's packet
// from their Threads' slabs and the payload copy from the sender's 8 KiB
// chunk. The send returns its proc's shared completed handle, and the
// receive's matching record comes back to the receiving Thread at its Wait,
// so the next receive reuses it. The CRI release function, the disabled
// hooks and the progress passes cost nothing, so the run averages one
// allocation per slab refill, which AllocsPerRun's whole-number average reads
// as 0, and about 120 heap bytes: a 48-byte handle, a 64-byte packet and the
// 8-byte payload. A run is 16 messages one after the other, so the bytes are
// averaged over enough messages that where the 8 KiB slab refills fall moves
// the figure by a few bytes, not by half of it.
func TestStockMessageAllocations(t *testing.T) {
	const msgs = 16
	w := newTestWorld(t, 2, Stock())
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	c0, c1 := w.Proc(0).CommWorld(), w.Proc(1).CommWorld()
	buf, payload := make([]byte, 8), []byte("12345678")
	pinAllocs(t, "core 8 B eager send + matched receive (sim)", 0.1, 128, msgs, func() {
		for range msgs {
			rreq, err := c1.Irecv(t1, 0, 7, buf)
			if err != nil {
				t.Fatal(err)
			}
			sreq, err := c0.Isend(t0, 1, 7, payload)
			if err != nil {
				t.Fatal(err)
			}
			if err := rreq.Wait(t1); err != nil {
				t.Fatal(err)
			}
			if err := sreq.Wait(t0); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// The Multirate shape the benchmark's inproc_stream_0B runs: a window of 128
// empty messages, receives posted first, then WaitAll on each side. A
// message carves two slab entries, the receive's 48-byte handle and the
// send's 64-byte packet, 112 bytes in all, and refills a slab once per 170
// handles or 127 packets: above zero allocations, because a handle and a
// packet are never handed out twice. The receives' matching records come
// back to the receiving Thread at its WaitAll and serve the next window,
// and an untimed message carves no metadata record.
func TestStockWindowAllocations(t *testing.T) {
	const window = 128
	w := newTestWorld(t, 2, Stock())
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	c0, c1 := w.Proc(0).CommWorld(), w.Proc(1).CommWorld()
	sreqs, rreqs := make([]*Request, window), make([]*Request, window)
	pinAllocs(t, "core 0 B window of 128, per message (sim)", 0.05, 128, window, func() {
		var err error
		for i := range rreqs {
			if rreqs[i], err = c1.Irecv(t1, 0, 3, nil); err != nil {
				t.Fatal(err)
			}
		}
		for i := range sreqs {
			if sreqs[i], err = c0.Isend(t0, 1, 3, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := WaitAll(t1, rreqs...); err != nil {
			t.Fatal(err)
		}
		if err := WaitAll(t0, sreqs...); err != nil {
			t.Fatal(err)
		}
	})
}

// Over tcp the sender carves nothing: tcpnet encodes each packet into its
// wire buffer before Send returns (Caps.Copies), so the sending Thread reuses
// one packet whose payload is the caller's buffer, copied once, into the
// frame, and a successful flush allocates nothing. What a message still
// carves is on the receiving side: the reader's 64-byte decoded packet, from
// its 63-packet slab, the receive's 48-byte handle and the 8-byte payload in
// the reader's 8 KiB chunk, 120 heap bytes. An untraced frame decodes without
// a metadata record. An 8-byte round trip — the benchmark's tcp_pingpong_8B —
// is two such messages. The pin leaves 8 bytes above the 120 measured at 1, 2
// and 4 Ps for the backstop timer's firings, which start a goroutine inside
// the measured loop, and for where the slabs refill.
func TestTCPRoundTripAllocations(t *testing.T) {
	th, c := metaPair(t, "tcp", Stock())
	buf, payload := make([]byte, 8), []byte("12345678")
	// oneWay moves one message from rank src to the other. Nothing leaves the
	// sender until it polls (the flush rides its progress pass), so both ranks
	// progress until both requests are done.
	oneWay := func(src int) {
		dst := 1 - src
		rreq, err := c[dst].Irecv(th[dst], src, 7, buf)
		if err != nil {
			t.Fatal(err)
		}
		sreq, err := c[src].Isend(th[src], dst, 7, payload)
		if err != nil {
			t.Fatal(err)
		}
		for !sreq.Done() || !rreq.Done() {
			th[src].Progress()
			th[dst].Progress()
		}
		// Waited on by their Threads, as Send and Recv wait: the receive's
		// matching record goes back to its Thread for the next message.
		serr, rerr := sreq.Wait(th[src]), rreq.Wait(th[dst])
		if serr != nil || rerr != nil || string(buf) != "12345678" {
			t.Fatalf("rank %d to %d: send %v, receive %v, payload %q", src, dst, serr, rerr, buf)
		}
	}
	oneWay(0) // dial and handshake outside the measurement
	oneWay(1)
	// A run is 16 round trips, so the bytes are averaged over 6400 messages
	// and where the 8 KiB slab refills fall moves them by a fraction of a byte.
	const trips = 16
	pinAllocs(t, "core 8 B eager round trip, per message (tcp)", 0.1, 128, 2*trips, func() {
		for range trips {
			oneWay(0)
			oneWay(1)
		}
	})
}

// The benchmark's tcp_stream_0B shape: a window of 128 empty messages over
// loopback tcp, receives posted first, then WaitAll on each side. tcpnet
// copies each packet into its wire buffer (Caps.Copies), so the sender's 128
// Isends allocate nothing: each reuses the sending Thread's one packet and
// returns the proc's shared completed handle. What the window carves is the
// receiver's, 112 bytes a message: the 48-byte receive handle and the reader's
// 64-byte decoded packet. The sender's share is read from an allocation
// profile, by stack, because the heap totals also count what the receiver's
// reader goroutine decodes whenever the backstop timer flushes mid-loop.
func TestTCPWindowAllocations(t *testing.T) {
	const window = 128
	th, c := metaPair(t, "tcp", Stock())
	sreqs, rreqs := make([]*Request, window), make([]*Request, window)
	round := func() {
		var err error
		for i := range rreqs {
			if rreqs[i], err = c[1].Irecv(th[1], 0, 3, nil); err != nil {
				t.Fatal(err)
			}
		}
		for i := range sreqs {
			if sreqs[i], err = c[0].Isend(th[0], 1, 3, nil); err != nil {
				t.Fatal(err)
			}
		}
		th[0].Progress() // the batch leaves with the sender's progress pass
		if err := WaitAll(th[1], rreqs...); err != nil {
			t.Fatal(err)
		}
		if err := WaitAll(th[0], sreqs...); err != nil {
			t.Fatal(err)
		}
	}
	round() // dial and handshake outside the measurements
	pinAllocs(t, "core 0 B window of 128, per message (tcp)", 0.05, 128, window, round)

	// Per message, as every byte pin reads: a carved slab entry of any size
	// shows as a whole byte or more, while the runtime's timer heap, which
	// can grow once when an Isend arms tcpnet's backstop timer, does not.
	const sends = 16 * window
	bytes, objects := heapUnder("repro/internal/core.(*Comm).Isend", func() {
		for range sends / window {
			round()
		}
	})
	t.Logf("allocs-pin | %-46s | %5.2f | %5.2f | %6d | %6d", "core 0 B window of 128, sender's Isend (tcp)",
		float64(objects)/sends, 0.0, bytes/sends, 0)
	if bytes/sends != 0 {
		t.Errorf("the sender's %d Isends allocated %d objects, %d heap bytes; want none", sends, objects, bytes)
	}
}

// heapUnder runs f with every allocation profiled and returns the heap bytes
// and objects allocated with function fn on the stack, so what f's calls of fn
// allocate is told apart from what other goroutines (a tcp reader, a timer)
// allocate meanwhile.
func heapUnder(fn string, f func()) (bytes, objects int64) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	b0, o0 := profiledUnder(fn)
	f()
	b1, o1 := profiledUnder(fn)
	return b1 - b0, o1 - o0
}

// profiledUnder sums the allocation profile's records whose stack holds fn.
// The collection it runs first publishes every allocation made before it.
func profiledUnder(fn string) (bytes, objects int64) {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for n, ok := runtime.MemProfile(nil, true); !ok; {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
		recs = recs[:n]
	}
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if f.Function == fn {
				bytes, objects = bytes+r.AllocBytes, objects+r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return bytes, objects
}

// TestTCPWaitProgressesOnOneP: with a single P, two ranks spinning in Wait
// leave the scheduler no idle moment to poll the network for a parked reader
// goroutine (that happens every 10 ms, from sysmon). The progress engine reads
// the socket itself, so 300 blocking round trips take milliseconds, not
// seconds.
func TestTCPWaitProgressesOnOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	nets, err := tcpnet.NewLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	const trips = 300
	start := time.Now()
	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		w, err := NewDistributedWorld(hw.Fast(), rank, 2, nets[rank], Stock())
		if err != nil {
			t.Fatalf("rank %d world: %v", rank, err)
		}
		t.Cleanup(w.Close)
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			th, c := w.LocalProc().NewThread(), w.LocalProc().CommWorld()
			buf := make([]byte, 8)
			for i := 0; i < trips; i++ {
				var err error
				if rank == 0 {
					if err = c.Send(th, 1, 3, []byte("pingpong")); err == nil {
						_, err = c.Recv(th, 1, 3, buf)
					}
				} else {
					if _, err = c.Recv(th, 0, 3, buf); err == nil {
						err = c.Send(th, 0, 3, buf)
					}
				}
				if err != nil || string(buf) != "pingpong" {
					t.Errorf("rank %d trip %d: %v, payload %q", rank, i, err, buf)
					return
				}
			}
		}(rank)
	}
	wg.Wait()
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("%d round trips on one P took %v, want under 2s", trips, d)
	} else {
		t.Logf("%d round trips on one P: %v", trips, d)
	}
}

// TestMessageFootprint pins the size of what every two-sided message carves
// and of the structs it is made of, on 64-bit platforms: heap bytes per
// message are what drive the collector, so a field added to any of them
// costs every message. An untracked eager message carves two entries, its
// receive's handle and its send's packet — the send shares its proc's
// completed handle and the receive's matching record is reused — so the
// per-message row is their sum. The handle carries the receive's status,
// which is why it is 48 bytes, not the 32 it was when the status was read
// from a matching record that was never reused; the message as a whole went
// from 232 bytes (a 96-byte send, a 136-byte receive) to 112. A failure names
// the struct that grew.
func TestMessageFootprint(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	for _, s := range []struct {
		name         string
		size, pinned uintptr
	}{
		{"core.Request (the handle, status inline)", unsafe.Sizeof(Request{}), 48},
		{"transport.Packet (an eager send's entry)", unsafe.Sizeof(transport.Packet{}), 64},
		{"per message: receive handle + send packet", unsafe.Sizeof(Request{}) + unsafe.Sizeof(transport.Packet{}), 112},
		{"match.Recv", unsafe.Sizeof(match.Recv{}), 104},
		{"core.recvRec (match.Recv + reuse; recycled)", unsafe.Sizeof(recvRec{}), 120},
		{"core.rdvSendOp (Request + RTS + FIN)", unsafe.Sizeof(rdvSendOp{}), 216},
		{"core.rdvRecv (transfer state + ACK)", unsafe.Sizeof(rdvRecv{}), 120},
	} {
		t.Logf("%-44s %4d B (pinned %d)", s.name, s.size, s.pinned)
		if s.size > s.pinned {
			t.Errorf("%s grew to %d bytes, pinned at %d: every message pays for the growth", s.name, s.size, s.pinned)
		}
	}
}
