package fabric

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/spc"
	"repro/internal/transport"
)

// The tests drive the fabric the way the runtime does: devices come from
// NewNetwork().NewDevice, endpoints from Device.Connect. Only what the seam
// does not show (the context table, the injector's dice) is read off the
// concrete types.

func newDevice(t testing.TB, n *Network, rank int, m hw.Machine, cfg transport.DeviceConfig) transport.Device {
	t.Helper()
	d, err := n.NewDevice(rank, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newContextOn(t testing.TB, d transport.Device, depth int) transport.Context {
	t.Helper()
	c, err := d.CreateContext(depth)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func connect(t testing.TB, d transport.Device, local transport.Context, peer, remoteIdx int) transport.Endpoint {
	t.Helper()
	ep, err := d.Connect(local, peer, remoteIdx)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// newPair builds ranks 0 and 1 of n on the Fast machine, one context each,
// and an endpoint from rank 0's context to rank 1's; cfg configures both
// devices alike. On a faulty n, faults act on rank 0 (outbound) and the
// scrambler on rank 1 (inbound).
func newPair(t testing.TB, n *Network, cfg transport.DeviceConfig) (ep transport.Endpoint, tx, rx transport.Context) {
	t.Helper()
	d0 := newDevice(t, n, 0, hw.Fast(), cfg)
	d1 := newDevice(t, n, 1, hw.Fast(), cfg)
	tx, rx = newContextOn(t, d0, 0), newContextOn(t, d1, 0)
	return connect(t, d0, tx, 1, 0), tx, rx
}

// newInitiator builds a target device (rank 0) and one context of an
// initiator device (rank 1) for the one-sided tests.
func newInitiator(t testing.TB) (target, initiator transport.Device, ictx *Context) {
	t.Helper()
	n := NewNetwork()
	target = newDevice(t, n, 0, hw.Fast(), transport.DeviceConfig{})
	initiator = newDevice(t, n, 1, hw.Fast(), transport.DeviceConfig{})
	return target, initiator, newContextOn(t, initiator, 0).(*Context)
}

func eager(seq uint32) *transport.Packet {
	return transport.NewPacket(transport.Envelope{Seq: seq, Kind: transport.KindEager}, nil, nil)
}

func le64(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }

func TestContextLimit(t *testing.T) {
	m := hw.Fast()
	m.MaxContexts = 2
	d := newDevice(t, NewNetwork(), 0, m, transport.DeviceConfig{})
	if _, err := d.CreateContext(0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateContext(0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateContext(0); !errors.Is(err, errContextLimit) {
		t.Fatalf("third CreateContext err = %v, want errContextLimit", err)
	}
	if n := len(d.(*Device).contexts); n != 2 {
		t.Fatalf("device holds %d contexts, want 2", n)
	}
}

func TestDeviceContextLookup(t *testing.T) {
	d := newDevice(t, NewNetwork(), 0, hw.Fast(), transport.DeviceConfig{}).(*Device)
	c0 := newContextOn(t, d, 0)
	if got := d.context(0); got != c0 {
		t.Fatal("context(0) did not return the created context")
	}
	if d.context(5) != nil || d.context(-1) != nil {
		t.Fatal("out-of-range context lookup returned non-nil")
	}
}

func TestClosedDeviceRefusesContexts(t *testing.T) {
	d := newDevice(t, NewNetwork(), 0, hw.Fast(), transport.DeviceConfig{})
	d.Close()
	if c, err := d.CreateContext(0); err == nil || c != nil {
		t.Fatalf("CreateContext on a closed device = %v, %v; want nil and an error", c, err)
	}
}

// TestSendDeliversAndCompletes: a Send delivers one Recv to the peer. A
// signaled device (the zero DeviceConfig) posts one CQESendComplete naming
// the packet to the sender's context; an Unsignaled one, as every device the
// runtime opens is, posts nothing.
func TestSendDeliversAndCompletes(t *testing.T) {
	for _, unsignaled := range []bool{false, true} {
		ep, sctx, rctx := newPair(t, NewNetwork(), transport.DeviceConfig{Unsignaled: unsignaled})

		env := transport.Envelope{Src: 0, Dst: 1, Tag: 5, Comm: 1, Seq: 0, Kind: transport.KindEager}
		pkt := transport.NewPacket(env, []byte("hi"), nil)
		if err := ep.Send(pkt); err != nil {
			t.Fatal(err)
		}

		var sendDone []transport.CQE
		sctx.Poll(func(e transport.CQE) { sendDone = append(sendDone, e) }, 16)
		want := []transport.CQE{{Kind: transport.CQESendComplete, Packet: pkt}}
		if unsignaled {
			want = nil
		}
		if !slices.Equal(sendDone, want) || sctx.Pending() {
			t.Fatalf("unsignaled=%v: sender CQ = %+v, want %+v", unsignaled, sendDone, want)
		}

		// Receiver side: one recv event with intact envelope and payload.
		var recvd []transport.CQE
		rctx.Poll(func(e transport.CQE) { recvd = append(recvd, e) }, 16)
		if len(recvd) != 1 || recvd[0].Kind != transport.CQERecv {
			t.Fatalf("receiver CQ = %+v, want one Recv", recvd)
		}
		got := recvd[0].Packet.Envelope()
		if got.Tag != 5 || got.Src != 0 || got.Len != 2 {
			t.Fatalf("received envelope = %+v", got)
		}
		if string(recvd[0].Packet.Payload) != "hi" {
			t.Fatalf("payload = %q", recvd[0].Packet.Payload)
		}
	}
}

// TestSignaledSendFullQueue: a signaled Send claims its completion before it
// injects, so once the sender's completion queue is full a Send is refused
// with ErrCQFull and nothing reaches the peer; a Poll of the sender makes
// room. An Unsignaled device sends past any queue depth.
func TestSignaledSendFullQueue(t *testing.T) {
	const depth, sends = 8, 64
	for _, unsignaled := range []bool{false, true} {
		n := NewNetwork()
		cfg := transport.DeviceConfig{Unsignaled: unsignaled}
		d0 := newDevice(t, n, 0, hw.Fast(), cfg)
		tx, rx := newContextOn(t, d0, depth), newContextOn(t, newDevice(t, n, 1, hw.Fast(), cfg), 0)
		ep := connect(t, d0, tx, 1, 0)
		accepted, refused := 0, 0
		for i := range sends {
			switch err := ep.Send(eager(uint32(i))); {
			case err == nil:
				accepted++
			case errors.Is(err, transport.ErrCQFull):
				refused++
			default:
				t.Fatal(err)
			}
		}
		if got := drain(rx, 4); got != accepted {
			t.Fatalf("unsignaled=%v: %d packets arrived for %d accepted sends", unsignaled, got, accepted)
		}
		if unsignaled {
			if refused != 0 || tx.Pending() {
				t.Fatalf("unsignaled device refused %d of %d sends (pending %v)", refused, sends, tx.Pending())
			}
			continue
		}
		if refused == 0 || accepted < depth {
			t.Fatalf("signaled device accepted %d and refused %d of %d sends on a depth-%d queue", accepted, refused, sends, depth)
		}
		if reaped := tx.Poll(func(transport.CQE) {}, sends); reaped != accepted {
			t.Fatalf("reaped %d send completions for %d accepted sends", reaped, accepted)
		}
		if err := ep.Send(eager(sends)); err != nil {
			t.Fatalf("send after the sender's queue drained: %v", err)
		}
	}
}

func TestPollMaxBound(t *testing.T) {
	ep, _, rx := newPair(t, NewNetwork(), transport.DeviceConfig{})
	for i := 0; i < 10; i++ {
		ep.Send(eager(uint32(i)))
	}
	n := rx.Poll(func(transport.CQE) {}, 4)
	if n != 4 {
		t.Fatalf("Poll handled %d, want 4 (max bound)", n)
	}
	if !rx.Pending() {
		t.Fatal("Pending() = false with 6 packets still queued")
	}
	total := n
	for rx.Pending() {
		total += rx.Poll(func(transport.CQE) {}, 64)
	}
	if total != 10 {
		t.Fatalf("drained %d packets, want 10", total)
	}
}

func TestPollFIFOPerSender(t *testing.T) {
	ep, _, rx := newPair(t, NewNetwork(), transport.DeviceConfig{})
	const n = 100
	for i := 0; i < n; i++ {
		ep.Send(eager(uint32(i)))
	}
	next := uint32(0)
	for rx.Pending() {
		rx.Poll(func(e transport.CQE) {
			if e.Kind != transport.CQERecv {
				return
			}
			if got := e.Packet.Envelope().Seq; got != next {
				t.Fatalf("seq %d delivered, want %d (single-sender FIFO)", got, next)
			}
			next++
		}, 16)
	}
	if next != n {
		t.Fatalf("received %d packets, want %d", next, n)
	}
}

func TestConcurrentSendersAllDelivered(t *testing.T) {
	n := NewNetwork()
	sender := newDevice(t, n, 0, hw.Fast(), transport.DeviceConfig{})
	rctx := newContextOn(t, newDevice(t, n, 1, hw.Fast(), transport.DeviceConfig{}), 0)
	const (
		goroutines = 8
		perG       = 500
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sctx, err := sender.CreateContext(0)
			if err != nil {
				t.Error(err)
				return
			}
			ep, err := sender.Connect(sctx, 1, 0)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perG; i++ {
				ep.Send(transport.NewPacket(transport.Envelope{Src: int32(g), Seq: uint32(i), Kind: transport.KindEager}, nil, nil))
			}
		}(g)
	}
	wg.Wait()

	seen := make(map[int32]uint32)
	count := 0
	for rctx.Pending() {
		rctx.Poll(func(e transport.CQE) {
			if e.Kind != transport.CQERecv {
				return
			}
			env := e.Packet.Envelope()
			if env.Seq != seen[env.Src] {
				t.Fatalf("sender %d: seq %d, want %d (per-sender FIFO broken)", env.Src, env.Seq, seen[env.Src])
			}
			seen[env.Src]++
			count++
		}, 64)
	}
	if count != goroutines*perG {
		t.Fatalf("delivered %d, want %d", count, goroutines*perG)
	}
}

func TestRMAPutGet(t *testing.T) {
	target, _, ictx := newInitiator(t)

	mem := make([]byte, 64)
	reg := target.RegisterMemory(mem)

	if err := ictx.Put(reg, 8, []byte("hello"), "p1"); err != nil {
		t.Fatal(err)
	}
	if string(mem[8:13]) != "hello" {
		t.Fatalf("target memory = %q", mem[8:13])
	}

	dst := make([]byte, 5)
	if err := ictx.Get(reg, 8, dst); err != nil {
		t.Fatal(err)
	}
	if string(dst) != "hello" {
		t.Fatalf("Get read %q", dst)
	}

	// Only the signaled put completes; a get posts nothing.
	var kinds []transport.CQEKind
	var tokens []any
	for ictx.Pending() {
		ictx.Poll(func(e transport.CQE) { kinds = append(kinds, e.Kind); tokens = append(tokens, e.Token) }, 16)
	}
	if len(kinds) != 1 || kinds[0] != transport.CQEPutComplete || tokens[0] != "p1" {
		t.Fatalf("completions = %v, tokens = %v; want the put's alone", kinds, tokens)
	}

	// A deregistered region is gone: every initiator on a stale handle
	// returns ErrRegionUnavailable and posts nothing — a zero-byte signaled
	// put (a flush marker) included — and a notified write to its id finds
	// no region.
	target.DeregisterMemory(reg)
	var res int64
	for name, op := range map[string]func() error{
		"Put":            func() error { return ictx.Put(reg, 8, []byte("x"), nil) },
		"signaled Put":   func() error { return ictx.Put(reg, 0, nil, "marker") },
		"Get":            func() error { return ictx.Get(reg, 8, dst) },
		"Accumulate":     func() error { return ictx.Accumulate(reg, 8, []int64{1}, transport.AccSum) },
		"FetchAndOp":     func() error { return ictx.FetchAndOp(reg, 8, 1, transport.AccSum, &res) },
		"CompareAndSwap": func() error { return ictx.CompareAndSwap(reg, 8, 0, 1, &res) },
	} {
		if err := op(); !errors.Is(err, transport.ErrRegionUnavailable) {
			t.Errorf("%s on a deregistered region = %v, want ErrRegionUnavailable", name, err)
		}
	}
	if ictx.Pending() {
		t.Fatal("an initiator on a deregistered region posted a completion")
	}
	newContextOn(t, target, 0)
	ep := connect(t, ictx.dev, ictx, 0, 0)
	if err := ep.PutNotify(reg.ID(), []byte("x"), eager(0)); !errors.Is(err, transport.ErrRegionUnavailable) {
		t.Fatalf("PutNotify to a deregistered region = %v, want ErrRegionUnavailable", err)
	}
}

// TestUnsignaledPutsImpliedBySignaled: the transport's selective-completion
// rule. k puts with a nil token post nothing; the one signaled put after
// them posts the context's only CQE, and every one of the k+1 writes is in
// the target by the time that CQE is reaped.
func TestUnsignaledPutsImpliedBySignaled(t *testing.T) {
	const k, size = 100, 8
	target, _, ictx := newInitiator(t)
	mem := make([]byte, (k+1)*size)
	reg := target.RegisterMemory(mem)
	want := make([]byte, len(mem))
	for i := range want {
		want[i] = byte(i%251 + 1)
	}
	for i := 0; i < k; i++ {
		if err := ictx.Put(reg, i*size, want[i*size:][:size], nil); err != nil {
			t.Fatal(err)
		}
	}
	if ictx.Pending() {
		t.Fatal("an unsignaled put posted a completion")
	}
	if err := ictx.Put(reg, k*size, want[k*size:], "last"); err != nil {
		t.Fatal(err)
	}
	var tokens []any
	for ictx.Pending() {
		ictx.Poll(func(e transport.CQE) {
			if e.Kind != transport.CQEPutComplete {
				t.Fatalf("completion kind = %d", e.Kind)
			}
			if !bytes.Equal(mem, want) {
				t.Fatal("a write the signaled completion covers is not in the target when it is reaped")
			}
			tokens = append(tokens, e.Token)
		}, 16)
	}
	if len(tokens) != 1 || tokens[0] != "last" {
		t.Fatalf("completions = %v, want the signaled put's alone", tokens)
	}
}

func TestRMABounds(t *testing.T) {
	target, _, ictx := newInitiator(t)
	reg := target.RegisterMemory(make([]byte, 16))

	// The puts are signaled, so a completion a failed put posted would show.
	cases := []error{
		ictx.Put(reg, 12, []byte("too long"), "bad"),
		ictx.Put(reg, -1, []byte("x"), "bad"),
		ictx.Get(reg, 16, make([]byte, 1)),
		ictx.Accumulate(reg, 16, []int64{1}, transport.AccSum),
		ictx.Accumulate(reg, 3, []int64{1}, transport.AccSum), // misaligned
	}
	for i, err := range cases {
		var be *boundsError
		if !errors.As(err, &be) {
			t.Errorf("case %d: err = %v, want boundsError", i, err)
		}
	}
	if ictx.Pending() {
		t.Fatal("failed operations generated completions")
	}
}

func TestAccumulateOps(t *testing.T) {
	target, _, ictx := newInitiator(t)
	mem := make([]byte, 32)
	reg := target.RegisterMemory(mem)

	check := func(op transport.AccumulateOp, operand, want int64) {
		t.Helper()
		if err := ictx.Accumulate(reg, 0, []int64{operand}, op); err != nil {
			t.Fatal(err)
		}
		if got := le64(mem[0:8]); got != want {
			t.Fatalf("op %d: memory = %d, want %d", op, got, want)
		}
	}
	check(transport.AccReplace, 10, 10)
	check(transport.AccSum, 5, 15)
	check(transport.AccMax, 3, 15)
	check(transport.AccMax, 99, 99)
	check(transport.AccMin, 50, 50)
	check(transport.AccMin, 60, 50)
	check(transport.AccSum, -50, 0)
}

func TestAccumulateAtomicUnderConcurrency(t *testing.T) {
	target, initiator, _ := newInitiator(t)
	mem := make([]byte, 8)
	reg := target.RegisterMemory(mem)

	const (
		goroutines = 8
		adds       = 1000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		ctx, err := initiator.CreateContext(0)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(ctx *Context) {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				if err := ctx.Accumulate(reg, 0, []int64{1}, transport.AccSum); err != nil {
					t.Error(err)
					return
				}
			}
		}(ctx.(*Context))
	}
	wg.Wait()
	if got := le64(mem); got != goroutines*adds {
		t.Fatalf("sum = %d, want %d (accumulate not atomic)", got, goroutines*adds)
	}
}

func TestScramblerDeliversEverythingOnce(t *testing.T) {
	ep, _, rx := newPair(t, NewFaultyNetwork(transport.FaultConfig{ScrambleWindow: 8, Seed: 42}), transport.DeviceConfig{})
	const n = 200
	for i := 0; i < n; i++ {
		ep.Send(eager(uint32(i)))
	}

	seen := make(map[uint32]bool)
	outOfOrder := false
	var last int64 = -1
	// An idle Poll releases what the scrambler still holds, so polling until
	// one comes back empty sees the whole stream.
	for idle := false; !idle; {
		idle = rx.Poll(func(e transport.CQE) {
			if e.Kind != transport.CQERecv {
				return
			}
			seq := e.Packet.Envelope().Seq
			if seen[seq] {
				t.Fatalf("seq %d delivered twice", seq)
			}
			seen[seq] = true
			if int64(seq) < last {
				outOfOrder = true
			}
			last = int64(seq)
		}, 64) == 0
	}
	if len(seen) != n {
		t.Fatalf("delivered %d distinct packets, want %d", len(seen), n)
	}
	if !outOfOrder {
		t.Fatal("scrambler produced fully ordered delivery; want reordering")
	}
}

// TestRingFullWaitsCountedPerDelivery: a depth-8 context fed 100 packets
// before its first Poll stalls the sender on a full ring. Every stalled
// delivery ticks ring_full_waits once on the ring's device — the receiver's —
// however long it spins, and a delivery that found room ticks nothing.
func TestRingFullWaitsCountedPerDelivery(t *testing.T) {
	n := NewNetwork()
	txCtr, rxCtr := spc.NewSet(), spc.NewSet()
	d0 := newDevice(t, n, 0, hw.Fast(), transport.DeviceConfig{Counters: txCtr})
	d1 := newDevice(t, n, 1, hw.Fast(), transport.DeviceConfig{Counters: rxCtr})
	tx, rx := newContextOn(t, d0, 0), newContextOn(t, d1, 8)
	ep := connect(t, d0, tx, 1, 0)

	const total = 100
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for i := 0; i < total; i++ {
			ep.Send(eager(uint32(i)))
		}
	}()
	// The ninth send finds the ring full; let it spin for a while so a
	// per-spin count would run far past the number of packets.
	for rxCtr.Get(spc.RingFullWaits) == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	if got := rxCtr.Get(spc.RingFullWaits); got != 1 {
		t.Fatalf("ring_full_waits = %d while one delivery spins on the full ring, want 1", got)
	}
	got := 0
	for got < total {
		got += rx.Poll(func(transport.CQE) {}, 64)
	}
	<-sent
	if waits := rxCtr.Get(spc.RingFullWaits); waits < 1 || waits > total-8 {
		t.Fatalf("ring_full_waits = %d, want between 1 and %d (at most one per delivery past the first 8)", waits, total-8)
	}
	if waits := txCtr.Get(spc.RingFullWaits); waits != 0 {
		t.Fatalf("sender's device counted %d ring_full_waits; its completion queue never filled", waits)
	}
}

func BenchmarkEndpointSendZeroByte(b *testing.B) {
	d := newDevice(b, NewNetwork(), 0, hw.Fast(), transport.DeviceConfig{})
	rx, tx := newContextOn(b, d, 1<<16), newContextOn(b, d, 1<<16)
	ep := connect(b, d, tx, 0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ep.Send(eager(uint32(i)))
		if i%1024 == 1023 {
			for rx.Pending() {
				rx.Poll(func(transport.CQE) {}, 256)
			}
			for tx.Pending() {
				tx.Poll(func(transport.CQE) {}, 256)
			}
		}
	}
}
