package match

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/spc"
	"repro/internal/transport"
)

func newTestEngine(spcs *spc.Set) *Engine {
	return NewEngine(1, 8, hw.Fast().Scaled(), NopMeter{}, spcs)
}

func pkt(src int32, tag int32, seq uint32, payload []byte) *transport.Packet {
	return transport.NewPacket(transport.Envelope{
		Src: src, Dst: 0, Tag: tag, Comm: 1, Seq: seq, Kind: transport.KindEager,
	}, payload, nil)
}

func TestInOrderExpectedMatch(t *testing.T) {
	e := newTestEngine(nil)
	r := &Recv{Source: 2, Tag: 7, Buf: make([]byte, 8)}
	if _, ok := e.PostRecv(r); ok {
		t.Fatal("PostRecv matched with nothing delivered")
	}
	comps := e.Deliver(pkt(2, 7, 0, []byte("abc")), nil)
	if len(comps) != 1 || comps[0].Recv != r {
		t.Fatalf("completions = %+v", comps)
	}
	if r.N != 3 || string(r.Buf[:3]) != "abc" || r.Truncated {
		t.Fatalf("recv result = N=%d buf=%q trunc=%v", r.N, r.Buf[:r.N], r.Truncated)
	}
	if e.PostedLen() != 0 || e.UnexpectedLen() != 0 {
		t.Fatal("queues not empty after match")
	}
}

func TestUnexpectedThenPost(t *testing.T) {
	e := newTestEngine(nil)
	e.Deliver(pkt(3, 9, 0, []byte("x")), nil)
	if e.UnexpectedLen() != 1 {
		t.Fatalf("UnexpectedLen = %d, want 1", e.UnexpectedLen())
	}
	r := &Recv{Source: 3, Tag: 9, Buf: make([]byte, 4)}
	c, ok := e.PostRecv(r)
	if !ok || c.Recv != r {
		t.Fatal("PostRecv did not match the queued unexpected message")
	}
	if e.UnexpectedLen() != 0 {
		t.Fatal("unexpected queue not drained")
	}
}

func TestTagMismatchStaysQueued(t *testing.T) {
	e := newTestEngine(nil)
	r := &Recv{Source: 1, Tag: 5, Buf: nil}
	e.PostRecv(r)
	comps := e.Deliver(pkt(1, 6, 0, nil), nil)
	if len(comps) != 0 {
		t.Fatal("mismatched tag matched")
	}
	if e.PostedLen() != 1 || e.UnexpectedLen() != 1 {
		t.Fatalf("queues = posted %d unexpected %d, want 1/1", e.PostedLen(), e.UnexpectedLen())
	}
}

func TestWildcardSourceAndTag(t *testing.T) {
	e := newTestEngine(nil)
	r1 := &Recv{Source: AnySource, Tag: 5}
	r2 := &Recv{Source: 2, Tag: AnyTag}
	e.PostRecv(r1)
	e.PostRecv(r2)
	comps := e.Deliver(pkt(4, 5, 0, nil), nil) // matches r1 (any source, tag 5)
	if len(comps) != 1 || comps[0].Recv != r1 {
		t.Fatalf("wildcard-source match = %+v", comps)
	}
	comps = e.Deliver(pkt(2, 77, 0, nil), nil) // matches r2 (src 2, any tag)
	if len(comps) != 1 || comps[0].Recv != r2 {
		t.Fatalf("wildcard-tag match = %+v", comps)
	}
}

func TestPostedQueueFIFOPreference(t *testing.T) {
	// Two receives both matching: the first posted must win (MPI ordering).
	e := newTestEngine(nil)
	r1 := &Recv{Source: AnySource, Tag: AnyTag}
	r2 := &Recv{Source: AnySource, Tag: AnyTag}
	e.PostRecv(r1)
	e.PostRecv(r2)
	comps := e.Deliver(pkt(0, 1, 0, nil), nil)
	if comps[0].Recv != r1 {
		t.Fatal("second-posted receive matched first")
	}
}

func TestOutOfSequenceBuffering(t *testing.T) {
	s := spc.NewSet()
	e := NewEngine(1, 8, hw.Fast().Scaled(), NopMeter{}, s)
	// Deliver seq 2, 1 first: both must be buffered, not matched.
	e.Deliver(pkt(0, 1, 2, []byte("c")), nil)
	e.Deliver(pkt(0, 1, 1, []byte("b")), nil)
	if e.UnexpectedLen() != 0 {
		t.Fatal("out-of-sequence packets reached the unexpected queue")
	}
	if e.OOSBuffered() != 2 {
		t.Fatalf("OOSBuffered = %d, want 2", e.OOSBuffered())
	}
	if got := e.Counts().Get(spc.OutOfSequence); got != 2 {
		t.Fatalf("SPC out_of_sequence = %d, want 2", got)
	}
	// Seq 0 arrives: all three deliver, in order.
	var recvs []*Recv
	for i := 0; i < 3; i++ {
		r := &Recv{Source: 0, Tag: 1, Buf: make([]byte, 1)}
		recvs = append(recvs, r)
		e.PostRecv(r)
	}
	comps := e.Deliver(pkt(0, 1, 0, []byte("a")), nil)
	if len(comps) != 3 {
		t.Fatalf("completions = %d, want 3 (in-order drain)", len(comps))
	}
	want := "abc"
	for i, c := range comps {
		if c.Recv != recvs[i] {
			t.Fatalf("completion %d matched wrong receive", i)
		}
		if string(recvs[i].Buf[:1]) != string(want[i]) {
			t.Fatalf("recv %d payload = %q, want %q", i, recvs[i].Buf[:1], want[i])
		}
	}
	if e.OOSBuffered() != 0 {
		t.Fatal("OOS buffer not drained")
	}
}

func TestSequenceStreamsIndependentPerPeer(t *testing.T) {
	e := newTestEngine(nil)
	// Peer 0 is at seq 0; peer 1 delivering seq 0 must not be blocked by
	// peer 0's stream state.
	r := &Recv{Source: 1, Tag: 1}
	e.PostRecv(r)
	comps := e.Deliver(pkt(1, 1, 0, nil), nil)
	if len(comps) != 1 {
		t.Fatal("peer streams are not independent")
	}
}

func TestAllowOvertakingSkipsSeqValidation(t *testing.T) {
	s := spc.NewSet()
	e := NewEngine(1, 8, hw.Fast().Scaled(), NopMeter{}, s)
	e.AllowOvertaking = true
	r1 := &Recv{Source: AnySource, Tag: AnyTag}
	r2 := &Recv{Source: AnySource, Tag: AnyTag}
	e.PostRecv(r1)
	e.PostRecv(r2)
	// Reverse sequence order: with overtaking they match immediately.
	comps := e.Deliver(pkt(0, 1, 5, []byte("x")), nil)
	comps = append(comps, e.Deliver(pkt(0, 1, 4, []byte("y")), nil)...)
	if len(comps) != 2 {
		t.Fatalf("completions = %d, want 2", len(comps))
	}
	if comps[0].Recv != r1 || comps[1].Recv != r2 {
		t.Fatal("overtaking did not match first-posted-first")
	}
	if got := e.Counts().Get(spc.OutOfSequence); got != 0 {
		t.Fatalf("overtaking recorded %d OOS messages, want 0", got)
	}
	if e.OOSBuffered() != 0 {
		t.Fatal("overtaking buffered packets")
	}
}

func TestTruncation(t *testing.T) {
	e := newTestEngine(nil)
	r := &Recv{Source: 0, Tag: 0, Buf: make([]byte, 2)}
	e.PostRecv(r)
	e.Deliver(pkt(0, 0, 0, []byte("hello")), nil)
	if !r.Truncated || r.N != 2 || string(r.Buf) != "he" {
		t.Fatalf("truncation result: N=%d trunc=%v buf=%q", r.N, r.Truncated, r.Buf)
	}
}

func TestCancelRecv(t *testing.T) {
	e := newTestEngine(nil)
	r := &Recv{Source: 0, Tag: 0}
	e.PostRecv(r)
	if !e.CancelRecv(r) {
		t.Fatal("CancelRecv failed on queued receive")
	}
	if e.PostedLen() != 0 {
		t.Fatal("cancelled receive still queued")
	}
	if e.CancelRecv(r) {
		t.Fatal("CancelRecv succeeded twice")
	}
	// The message that would have matched now goes unexpected.
	e.Deliver(pkt(0, 0, 0, nil), nil)
	if e.UnexpectedLen() != 1 {
		t.Fatal("message matched a cancelled receive")
	}
}

func TestProbe(t *testing.T) {
	e := newTestEngine(nil)
	if _, ok := e.Probe(AnySource, AnyTag); ok {
		t.Fatal("Probe found a message in an empty engine")
	}
	e.Deliver(pkt(3, 42, 0, []byte("xyz")), nil)
	env, ok := e.Probe(3, 42)
	if !ok || env.Len != 3 || env.Src != 3 {
		t.Fatalf("Probe = %+v, %v", env, ok)
	}
	if _, ok := e.Probe(3, 43); ok {
		t.Fatal("Probe matched wrong tag")
	}
}

func TestDoublePostPanics(t *testing.T) {
	e := newTestEngine(nil)
	r := &Recv{Source: 0, Tag: 0}
	e.PostRecv(r)
	defer func() {
		if recover() == nil {
			t.Fatal("double PostRecv did not panic")
		}
	}()
	e.PostRecv(r)
}

func TestWrongCommPanics(t *testing.T) {
	e := newTestEngine(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-communicator delivery did not panic")
		}
	}()
	p := transport.NewPacket(transport.Envelope{Comm: 99, Kind: transport.KindEager}, nil, nil)
	e.Deliver(p, nil)
}

// TestDuplicateSeqDiscarded covers both duplicate shapes a faulty fabric can
// produce: a second copy of a sequence that is still buffered out of order,
// and a copy of a sequence that was already delivered. Both are counted and
// discarded, never matched twice.
func TestDuplicateSeqDiscarded(t *testing.T) {
	s := spc.NewSet()
	e := NewEngine(1, 8, hw.Fast().Scaled(), NopMeter{}, s)

	// Future sequence, buffered; its duplicate must not double-buffer.
	e.Deliver(pkt(0, 1, 5, nil), nil)
	e.Deliver(pkt(0, 1, 5, nil), nil)
	if got := e.Counts().Get(spc.DuplicateSequences); got != 1 {
		t.Fatalf("buffered duplicate: DuplicateSequences = %d, want 1", got)
	}
	if got := e.OOSBuffered(); got != 1 {
		t.Fatalf("OOSBuffered = %d, want 1", got)
	}

	// Deliver seq 0 in order, then a stale copy of it.
	e.Deliver(pkt(0, 1, 0, nil), nil)
	if got := e.UnexpectedLen(); got != 1 {
		t.Fatalf("UnexpectedLen = %d, want 1", got)
	}
	e.Deliver(pkt(0, 1, 0, nil), nil)
	if got := e.Counts().Get(spc.DuplicateSequences); got != 2 {
		t.Fatalf("stale duplicate: DuplicateSequences = %d, want 2", got)
	}
	if got := e.UnexpectedLen(); got != 1 {
		t.Fatalf("stale duplicate re-matched: UnexpectedLen = %d, want 1", got)
	}
}

func TestSPCQueuePeaks(t *testing.T) {
	s := spc.NewSet()
	e := NewEngine(1, 4, hw.Fast().Scaled(), NopMeter{}, s)
	for i := 0; i < 5; i++ {
		e.PostRecv(&Recv{Source: 0, Tag: int32(100 + i)})
	}
	if got := e.Counts().Get(spc.PostedQueuePeak); got != 5 {
		t.Fatalf("posted peak = %d, want 5", got)
	}
	for i := 0; i < 3; i++ {
		e.Deliver(pkt(1, int32(200+i), uint32(i), nil), nil)
	}
	if got := e.Counts().Get(spc.UnexpectedQueuePeak); got != 3 {
		t.Fatalf("unexpected peak = %d, want 3", got)
	}
}

// TestQuickAnyPermutationDeliversInOrder is the core ordering property:
// for ANY permutation of sequence numbers from one sender, posted receives
// complete in send (sequence) order, every message exactly once.
func TestQuickAnyPermutationDeliversInOrder(t *testing.T) {
	prop := func(seed int64, nMsgs uint8) bool {
		n := int(nMsgs%32) + 1
		rng := rand.New(rand.NewSource(seed))
		e := newTestEngine(nil)
		var recvs []*Recv
		for i := 0; i < n; i++ {
			r := &Recv{Source: 0, Tag: 1, Buf: make([]byte, 4)}
			recvs = append(recvs, r)
			e.PostRecv(r)
		}
		var comps []Completion
		for _, seq := range rng.Perm(n) {
			payload := []byte{byte(seq)}
			comps = e.Deliver(pkt(0, 1, uint32(seq), payload), comps)
		}
		if len(comps) != n {
			return false
		}
		for i, c := range comps {
			if c.Recv != recvs[i] {
				return false // completion order must be post order
			}
			if recvs[i].Buf[0] != byte(i) {
				return false // message i must land in receive i
			}
		}
		return e.OOSBuffered() == 0 && e.UnexpectedLen() == 0 && e.PostedLen() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOvertakingDeliversExactlyOnce: with overtaking, any permutation
// still delivers every message exactly once (order unconstrained).
func TestQuickOvertakingDeliversExactlyOnce(t *testing.T) {
	prop := func(seed int64, nMsgs uint8) bool {
		n := int(nMsgs%32) + 1
		rng := rand.New(rand.NewSource(seed))
		e := newTestEngine(nil)
		e.AllowOvertaking = true
		for i := 0; i < n; i++ {
			e.PostRecv(&Recv{Source: AnySource, Tag: AnyTag, Buf: make([]byte, 1)})
		}
		seen := make(map[byte]bool)
		total := 0
		for _, seq := range rng.Perm(n) {
			comps := e.Deliver(pkt(0, 1, uint32(seq), []byte{byte(seq)}), nil)
			for _, c := range comps {
				b := c.Recv.Buf[0]
				if seen[b] {
					return false
				}
				seen[b] = true
				total++
			}
		}
		return total == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMixedPostDeliverInterleaving: random interleavings of posts and
// deliveries conserve messages and preserve per-sender order.
func TestQuickMixedPostDeliverInterleaving(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := newTestEngine(nil)
		const n = 24
		perm := rng.Perm(n)
		di, pi := 0, 0
		completed := 0
		var lastPayload int = -1
		check := func(comps []Completion) bool {
			for _, c := range comps {
				v := int(c.Recv.Buf[0])
				if v != lastPayload+1 {
					return false
				}
				lastPayload = v
				completed++
			}
			return true
		}
		for di < n || pi < n {
			if pi < n && (di >= n || rng.Intn(2) == 0) {
				r := &Recv{Source: 0, Tag: 1, Buf: make([]byte, 1)}
				if c, ok := e.PostRecv(r); ok {
					if !check([]Completion{c}) {
						return false
					}
				}
				pi++
			} else {
				seq := perm[di]
				if !check(e.Deliver(pkt(0, 1, uint32(seq), []byte{byte(seq)}), nil)) {
					return false
				}
				di++
			}
		}
		return completed == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqTrackerDense(t *testing.T) {
	tr := NewSeqTracker(4)
	for i := uint32(0); i < 5; i++ {
		if got := tr.Next(2); got != i {
			t.Fatalf("Next(2) = %d, want %d", got, i)
		}
	}
	if got := tr.Next(3); got != 0 {
		t.Fatalf("independent rank started at %d", got)
	}
}

func TestSeqTrackerSparseFallback(t *testing.T) {
	tr := NewSeqTracker(2)
	if got := tr.Next(100); got != 0 {
		t.Fatalf("sparse Next = %d, want 0", got)
	}
	if got := tr.Next(100); got != 1 {
		t.Fatalf("sparse Next = %d, want 1", got)
	}
}

func TestSeqTrackerConcurrentUnique(t *testing.T) {
	tr := NewSeqTracker(1)
	const (
		goroutines = 8
		per        = 1000
	)
	results := make(chan uint32, goroutines*per)
	done := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		go func() {
			for i := 0; i < per; i++ {
				results <- tr.Next(0)
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < goroutines; g++ {
		<-done
	}
	close(results)
	seen := make(map[uint32]bool)
	for v := range results {
		if seen[v] {
			t.Fatalf("sequence %d issued twice", v)
		}
		seen[v] = true
	}
	if len(seen) != goroutines*per {
		t.Fatalf("issued %d unique sequences, want %d", len(seen), goroutines*per)
	}
}

func BenchmarkDeliverInOrder(b *testing.B) {
	e := newTestEngine(nil)
	b.ReportAllocs()
	var comps []Completion
	for i := 0; i < b.N; i++ {
		r := &Recv{Source: 0, Tag: 1}
		e.PostRecv(r)
		comps = e.Deliver(pkt(0, 1, uint32(i), nil), comps[:0])
	}
}

func BenchmarkDeliverOOSWindow(b *testing.B) {
	// Pairs of (seq+1, seq) deliveries: every other packet is buffered.
	e := newTestEngine(nil)
	b.ReportAllocs()
	var comps []Completion
	seq := uint32(0)
	for i := 0; i < b.N; i++ {
		e.PostRecv(&Recv{Source: 0, Tag: 1})
		e.PostRecv(&Recv{Source: 0, Tag: 1})
		comps = e.Deliver(pkt(0, 1, seq+1, nil), comps[:0])
		comps = e.Deliver(pkt(0, 1, seq, nil), comps[:0])
		seq += 2
	}
}

// An unexpected message costs its engine no allocation once warm: the
// record that queues it comes off the free list the last claim put it on,
// in both engines. The row joins the table `make allocs` prints.
func TestUnexpectedClaimAllocations(t *testing.T) {
	const runs = 200
	for _, eng := range []struct {
		name string
		e    Matcher
	}{
		{"list", newTestEngine(spc.NewSet())},
		{"sharded", newTestSharded(spc.NewSet())},
	} {
		pkts := make([]*transport.Packet, runs+1)
		for i := range pkts {
			pkts[i] = pkt(2, 7, uint32(i), []byte("payload"))
		}
		r := &Recv{Source: 2, Tag: 7, Buf: make([]byte, 8)}
		next := 0
		got := testing.AllocsPerRun(runs, func() {
			eng.e.Deliver(pkts[next], nil)
			next++
			if _, ok := eng.e.PostRecv(r); !ok || r.N != 7 {
				t.Fatalf("%s: the receive did not claim the unexpected message", eng.name)
			}
		})
		path := "match unexpected + claimed, " + eng.name
		t.Logf("allocs-pin | %-46s | %5.2f | %5.2f", path, got, 0.0)
		if got > 0 {
			t.Errorf("%s allocates %v times per message, pinned at 0", path, got)
		}
	}
}
