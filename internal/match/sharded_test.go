package match

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/spc"
)

func newTestSharded(spcs *spc.Set) *Sharded {
	return NewSharded(1, 8, 8, hw.Fast().Scaled(), NopMeter{}, spcs)
}

func TestShardedSelfLocking(t *testing.T) {
	if !SelfLocking(newTestSharded(nil)) {
		t.Fatal("Sharded must report SelfLocking")
	}
	if SelfLocking(newTestEngine(nil)) {
		t.Fatal("Engine must not report SelfLocking")
	}
}

func TestShardedExactMatch(t *testing.T) {
	e := newTestSharded(nil)
	r := &Recv{Source: 2, Tag: 7, Buf: make([]byte, 8)}
	if _, ok := e.PostRecv(r); ok {
		t.Fatal("PostRecv matched with nothing delivered")
	}
	comps := e.Deliver(pkt(2, 7, 0, []byte("abc")), nil)
	if len(comps) != 1 || comps[0].Recv != r {
		t.Fatalf("completions = %+v", comps)
	}
	if r.N != 3 || string(r.Buf[:3]) != "abc" {
		t.Fatalf("recv result = N=%d buf=%q", r.N, r.Buf[:r.N])
	}
	if e.PostedLen() != 0 || e.UnexpectedLen() != 0 {
		t.Fatal("queues not empty after match")
	}
}

func TestShardedUnexpectedThenPost(t *testing.T) {
	e := newTestSharded(nil)
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

// TestShardedPostedOrder: a message matches the oldest receive posted on its
// own (source, tag) channel; receives on other channels never compete.
func TestShardedPostedOrder(t *testing.T) {
	e := newTestSharded(nil)
	first := &Recv{Source: 1, Tag: 5}
	second := &Recv{Source: 1, Tag: 5}
	other := &Recv{Source: 1, Tag: 6}
	e.PostRecv(first)
	e.PostRecv(other)
	e.PostRecv(second)
	for seq, want := range []*Recv{first, other, second} {
		comps := e.Deliver(pkt(1, want.Tag, uint32(seq), nil), nil)
		if len(comps) != 1 || comps[0].Recv != want {
			t.Fatalf("message %d matched %+v, want the oldest receive of tag %d", seq, comps, want.Tag)
		}
	}
}

// TestShardedRefusesWildcards: a wildcard names no shard, so every receive
// entry point panics with ErrWildcard — documented misuse the runtime refuses
// earlier (core.Info.NoWildcards) — before touching a counter or a queue.
func TestShardedRefusesWildcards(t *testing.T) {
	set := spc.NewSet()
	e := newTestSharded(set)
	e.Deliver(pkt(0, 10, 0, []byte("queued")), nil)
	for _, co := range [][2]int32{{AnySource, 10}, {0, AnyTag}, {AnySource, AnyTag}} {
		src, tag := co[0], co[1]
		if err := RefuseWildcard(src, tag); !errors.Is(err, ErrWildcard) {
			t.Fatalf("RefuseWildcard(%d, %d) = %v, want ErrWildcard", src, tag, err)
		}
		for name, op := range map[string]func(){
			"PostRecv":   func() { e.PostRecv(&Recv{Source: src, Tag: tag}) },
			"CancelRecv": func() { e.CancelRecv(&Recv{Source: src, Tag: tag}) },
			"Probe":      func() { e.Probe(src, tag) },
			"MProbe":     func() { e.MProbe(src, tag) },
		} {
			func() {
				defer func() {
					if err, _ := recover().(error); !errors.Is(err, ErrWildcard) {
						t.Errorf("%s(%d, %d): recovered %v, want an ErrWildcard panic", name, src, tag, err)
					}
				}()
				op()
			}()
		}
	}
	if err := RefuseWildcard(0, 10); err != nil {
		t.Fatalf("RefuseWildcard of exact coordinates = %v", err)
	}
	if e.PostedLen() != 0 || e.UnexpectedLen() != 1 || e.Counts().Get(spc.MatchAttempts) != 1 {
		t.Fatalf("refused wildcards changed the engine: posted %d, unexpected %d, attempts %d",
			e.PostedLen(), e.UnexpectedLen(), e.Counts().Get(spc.MatchAttempts))
	}
}

func TestShardedProbeAndMProbe(t *testing.T) {
	e := newTestSharded(nil)
	e.Deliver(pkt(4, 2, 0, []byte("m1")), nil)
	e.Deliver(pkt(5, 3, 0, []byte("m2")), nil)
	if env, ok := e.Probe(4, 2); !ok || env.Src != 4 {
		t.Fatalf("exact Probe = %+v %v", env, ok)
	}
	if _, ok := e.Probe(4, 3); ok {
		t.Fatal("Probe matched a message of another channel")
	}
	if p, ok := e.MProbe(4, 2); !ok || p.Envelope().Src != 4 {
		t.Fatal("exact MProbe did not claim the queued message")
	}
	if e.UnexpectedLen() != 1 {
		t.Fatalf("UnexpectedLen = %d after MProbe, want 1", e.UnexpectedLen())
	}
	if _, ok := e.Probe(4, 2); ok {
		t.Fatal("claimed message still probeable")
	}
}

func TestShardedCancelRecv(t *testing.T) {
	e := newTestSharded(nil)
	exact := &Recv{Source: 1, Tag: 1}
	other := &Recv{Source: 2, Tag: 9}
	e.PostRecv(exact)
	e.PostRecv(other)
	if !e.CancelRecv(exact) || !e.CancelRecv(other) {
		t.Fatal("cancel failed")
	}
	if e.CancelRecv(exact) {
		t.Fatal("double cancel succeeded")
	}
	if e.PostedLen() != 0 {
		t.Fatalf("PostedLen = %d after cancels", e.PostedLen())
	}
	if comps := e.Deliver(pkt(1, 1, 0, nil), nil); len(comps) != 0 {
		t.Fatal("cancelled recv matched")
	}
}

// TestShardedOutOfSequence: the stripe must buffer out-of-sequence arrivals
// and drain them in order, like the other engines.
func TestShardedOutOfSequence(t *testing.T) {
	set := spc.NewSet()
	e := newTestSharded(set)
	var rs []*Recv
	for i := 0; i < 3; i++ {
		r := &Recv{Source: 2, Tag: 1, Buf: make([]byte, 4)}
		rs = append(rs, r)
		e.PostRecv(r)
	}
	// Deliver 2, 1, 0: the first two buffer, the third drains all.
	if comps := e.Deliver(pkt(2, 1, 2, []byte("c")), nil); len(comps) != 0 {
		t.Fatal("out-of-sequence packet matched early")
	}
	if comps := e.Deliver(pkt(2, 1, 1, []byte("b")), nil); len(comps) != 0 {
		t.Fatal("out-of-sequence packet matched early")
	}
	if e.OOSBuffered() != 2 {
		t.Fatalf("OOSBuffered = %d, want 2", e.OOSBuffered())
	}
	comps := e.Deliver(pkt(2, 1, 0, []byte("a")), nil)
	if len(comps) != 3 {
		t.Fatalf("drain produced %d completions, want 3", len(comps))
	}
	for i, c := range comps {
		if c.Recv != rs[i] {
			t.Fatalf("completion %d went to the wrong recv (FIFO violated)", i)
		}
	}
	if e.OOSBuffered() != 0 {
		t.Fatalf("OOSBuffered = %d after drain", e.OOSBuffered())
	}
	if e.Counts().Get(spc.OutOfSequence) != 2 {
		t.Fatalf("OutOfSequence = %d, want 2", e.Counts().Get(spc.OutOfSequence))
	}
}

// TestSeqWraparound is the ISSUE 7 wraparound regression test: seed the
// per-peer expected sequence near 2^32 on each engine and deliver a run of
// packets crossing the wrap. Serial (modular) arithmetic must keep them in
// order; plain comparisons would misclassify post-wrap packets as stale
// duplicates and drop them.
func TestSeqWraparound(t *testing.T) {
	const start = math.MaxUint32 - 2 // three pre-wrap seqs, then 0, 1, ...
	engines := map[string]Matcher{
		"engine":  newTestEngine(spc.NewSet()),
		"sharded": newTestSharded(spc.NewSet()),
	}
	seed := map[string]func(src int32, v uint32){
		"engine":  engines["engine"].(*Engine).SeedNextSeq,
		"sharded": engines["sharded"].(*Sharded).SeedNextSeq,
	}
	for name, e := range engines {
		seed[name](7, start)
		const n = 6 // crosses the wrap after 3 deliveries
		for i := 0; i < n; i++ {
			r := &Recv{Source: 7, Tag: 1, Buf: make([]byte, 4)}
			if _, ok := e.PostRecv(r); ok {
				t.Fatalf("%s: recv matched before delivery", name)
			}
		}
		for i := 0; i < n; i++ {
			seq := uint32(start + uint32(i)) // wraps through MaxUint32 to 0, 1, 2
			comps := e.Deliver(pkt(7, 1, seq, []byte{byte(i)}), nil)
			if len(comps) != 1 {
				t.Fatalf("%s: packet seq %d (i=%d) produced %d completions, want 1 (dropped across wrap?)",
					name, seq, i, len(comps))
			}
		}
		if e.PostedLen() != 0 || e.UnexpectedLen() != 0 || e.OOSBuffered() != 0 {
			t.Fatalf("%s: queues not empty after wrap crossing", name)
		}
	}
}

// TestSeqWraparoundOutOfOrder drives the wrap boundary with REORDERED
// arrivals: the pre-wrap packet arrives after the post-wrap ones, which
// must buffer (not drop) under serial arithmetic.
func TestSeqWraparoundOutOfOrder(t *testing.T) {
	set := spc.NewSet()
	e := newTestSharded(set)
	e.SeedNextSeq(3, math.MaxUint32)
	var rs []*Recv
	for i := 0; i < 3; i++ {
		r := &Recv{Source: 3, Tag: 2, Buf: make([]byte, 4)}
		rs = append(rs, r)
		e.PostRecv(r)
	}
	// Post-wrap seqs 0 and 1 arrive before pre-wrap MaxUint32.
	if comps := e.Deliver(pkt(3, 2, 0, []byte("b")), nil); len(comps) != 0 {
		t.Fatal("post-wrap packet matched before the pre-wrap one")
	}
	if comps := e.Deliver(pkt(3, 2, 1, []byte("c")), nil); len(comps) != 0 {
		t.Fatal("post-wrap packet matched before the pre-wrap one")
	}
	if e.Counts().Get(spc.DuplicateSequences) != 0 {
		t.Fatal("post-wrap packets misclassified as duplicates (plain comparison bug)")
	}
	comps := e.Deliver(pkt(3, 2, math.MaxUint32, []byte("a")), nil)
	if len(comps) != 3 {
		t.Fatalf("wrap drain produced %d completions, want 3", len(comps))
	}
	for i, c := range comps {
		if c.Recv != rs[i] {
			t.Fatalf("completion %d out of order across wrap", i)
		}
	}
	// A true duplicate of an already-delivered seq must still be dropped.
	if comps := e.Deliver(pkt(3, 2, math.MaxUint32, []byte("dup")), nil); len(comps) != 0 {
		t.Fatal("stale pre-wrap duplicate matched")
	}
	if e.Counts().Get(spc.DuplicateSequences) != 1 {
		t.Fatalf("DuplicateSequences = %d, want 1", e.Counts().Get(spc.DuplicateSequences))
	}
}

func TestShardOfStable(t *testing.T) {
	e := newTestSharded(nil)
	for src := int32(0); src < 16; src++ {
		for tag := int32(0); tag < 16; tag++ {
			s1 := e.ShardOf(src, tag)
			s2 := e.ShardOf(src, tag)
			if s1 != s2 || s1 < 0 || s1 >= e.NumShards() {
				t.Fatalf("ShardOf(%d,%d) = %d, %d", src, tag, s1, s2)
			}
		}
	}
}

// TestShardedConcurrentStress is the -race stress case from ISSUE 7:
// concurrent deliverers (one per source, preserving per-source seq order),
// concurrent exact receivers, and a concurrent prober, at GOMAXPROCS >= 8.
// Asserts conservation: every message is consumed by exactly one receive.
func TestShardedConcurrentStress(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	if prev < 8 {
		runtime.GOMAXPROCS(8)
		defer runtime.GOMAXPROCS(prev)
	}
	const (
		sources = 8
		perSrc  = 2000
	)
	e := NewSharded(1, sources, 8, hw.Fast().Scaled(), NopMeter{}, spc.NewSet())

	var wg sync.WaitGroup
	completed := make([]int, sources) // per-source completions via Deliver
	var compMu sync.Mutex

	// Receivers: each posts perSrc exact receives for its source, counting
	// immediate (unexpected-queue) matches.
	recvDone := make([]chan int, sources)
	for s := 0; s < sources; s++ {
		recvDone[s] = make(chan int, 1)
		wg.Add(1)
		go func(src int32, done chan int) {
			defer wg.Done()
			immediate := 0
			for i := 0; i < perSrc; i++ {
				r := &Recv{Source: src, Tag: src % 4, Buf: make([]byte, 4)}
				if _, ok := e.PostRecv(r); ok {
					immediate++
				}
			}
			done <- immediate
		}(int32(s), recvDone[s])
	}
	// Deliverers: one per source, sequential seqs (the per-source stream).
	for s := 0; s < sources; s++ {
		wg.Add(1)
		go func(src int32) {
			defer wg.Done()
			n := 0
			for i := 0; i < perSrc; i++ {
				comps := e.Deliver(pkt(src, src%4, uint32(i), []byte{1}), nil)
				n += len(comps)
			}
			compMu.Lock()
			completed[src] += n
			compMu.Unlock()
		}(int32(s))
	}
	// A prober hammering exact probes concurrently.
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.Probe(3, 3)
				e.Probe(5, 1)
				e.PostedLen()
				e.UnexpectedLen()
			}
		}
	}()
	// Wait for receivers and deliverers (not the prober) to finish.
	done := make(chan struct{})
	go func() {
		for s := 0; s < sources; s++ {
			im := <-recvDone[s]
			compMu.Lock()
			completed[s] += im
			compMu.Unlock()
		}
		close(done)
	}()
	<-done
	close(stop)
	wg.Wait()

	total := 0
	for s, n := range completed {
		total += n
		if n != perSrc {
			t.Errorf("source %d: %d completions, want %d", s, n, perSrc)
		}
	}
	if total != sources*perSrc {
		t.Fatalf("total completions %d, want %d", total, sources*perSrc)
	}
	if e.PostedLen() != 0 || e.UnexpectedLen() != 0 || e.OOSBuffered() != 0 {
		t.Fatalf("queues not empty: posted=%d unexp=%d oos=%d",
			e.PostedLen(), e.UnexpectedLen(), e.OOSBuffered())
	}
}

// The cases below test Sharded's shards as hash stores: every receive,
// message and probe lands in the bucket of its exact (source, tag).

// TestHashExactMatch: receives posted on one channel match that channel's
// messages first-in first-out, each with its own payload.
func TestHashExactMatch(t *testing.T) {
	e := newTestSharded(nil)
	first := &Recv{Source: 2, Tag: 7, Buf: make([]byte, 8)}
	second := &Recv{Source: 2, Tag: 7, Buf: make([]byte, 8)}
	for _, r := range []*Recv{first, second} {
		if _, ok := e.PostRecv(r); ok {
			t.Fatal("matched with nothing delivered")
		}
	}
	for seq, want := range []*Recv{first, second} {
		payload := []byte("abc")[:seq+2]
		comps := e.Deliver(pkt(2, 7, uint32(seq), payload), nil)
		if len(comps) != 1 || comps[0].Recv != want || want.N != len(payload) {
			t.Fatalf("message %d: comps = %+v, want the oldest receive with %d bytes", seq, comps, len(payload))
		}
	}
	if e.PostedLen() != 0 || e.UnexpectedLen() != 0 {
		t.Fatal("queues not empty")
	}
}

// TestHashUnexpectedExactLookup: a receive claims the queued message of its
// own tag and leaves a sender's other tags queued.
func TestHashUnexpectedExactLookup(t *testing.T) {
	e := newTestSharded(nil)
	e.Deliver(pkt(1, 5, 0, []byte("x")), nil)
	e.Deliver(pkt(1, 6, 1, []byte("y")), nil)
	r := &Recv{Source: 1, Tag: 6, Buf: make([]byte, 2)}
	c, ok := e.PostRecv(r)
	if !ok || c.Recv.MatchedEnv.Tag != 6 {
		t.Fatalf("exact unexpected lookup failed: %+v", c)
	}
	if e.UnexpectedLen() != 1 {
		t.Fatalf("unexpected len = %d", e.UnexpectedLen())
	}
}

// TestHashSequenceValidation: buffered out-of-sequence packets drain in
// sequence order, so the payloads land in the receives in that order.
func TestHashSequenceValidation(t *testing.T) {
	s := spc.NewSet()
	e := newTestSharded(s)
	for i := 0; i < 3; i++ {
		e.PostRecv(&Recv{Source: 0, Tag: 1, Buf: make([]byte, 1)})
	}
	e.Deliver(pkt(0, 1, 2, []byte{2}), nil)
	e.Deliver(pkt(0, 1, 1, []byte{1}), nil)
	if got := e.Counts().Get(spc.OutOfSequence); got != 2 {
		t.Fatalf("OOS = %d", got)
	}
	comps := e.Deliver(pkt(0, 1, 0, []byte{0}), nil)
	if len(comps) != 3 {
		t.Fatalf("drain produced %d completions", len(comps))
	}
	for i, c := range comps {
		if c.Recv.Buf[0] != byte(i) {
			t.Fatalf("completion %d carries payload %d", i, c.Recv.Buf[0])
		}
	}
	if e.OOSBuffered() != 0 {
		t.Fatal("OOS buffer not drained")
	}
}

// TestHashOvertaking: with overtaking asserted a packet matches at once,
// whatever its sequence number.
func TestHashOvertaking(t *testing.T) {
	e := newTestSharded(nil)
	e.SetAllowOvertaking(true)
	e.PostRecv(&Recv{Source: 0, Tag: 1, Buf: make([]byte, 1)})
	comps := e.Deliver(pkt(0, 1, 99, []byte{7}), nil) // wild seq: fine
	if len(comps) != 1 {
		t.Fatal("overtaking did not match immediately")
	}
	if e.OOSBuffered() != 0 {
		t.Fatal("an overtaking packet was sequence-buffered")
	}
}

// TestHashCancel: a cancelled receive leaves its bucket, and a second cancel
// finds nothing.
func TestHashCancel(t *testing.T) {
	e := newTestSharded(nil)
	r := &Recv{Source: 0, Tag: 0}
	e.PostRecv(r)
	if !e.CancelRecv(r) || e.CancelRecv(r) {
		t.Fatal("cancel semantics broken")
	}
	if e.PostedLen() != 0 {
		t.Fatal("posted count wrong after cancel")
	}
}

// TestHashProbe: a probe reads its own channel's oldest message and no
// other channel's.
func TestHashProbe(t *testing.T) {
	e := newTestSharded(nil)
	e.Deliver(pkt(3, 42, 0, []byte("xy")), nil)
	if env, ok := e.Probe(3, 42); !ok || env.Len != 2 {
		t.Fatalf("exact probe = %+v %v", env, ok)
	}
	if _, ok := e.Probe(3, 43); ok {
		t.Fatal("probe matched wrong tag")
	}
	if _, ok := e.Probe(4, 42); ok {
		t.Fatal("probe matched wrong source")
	}
}

// TestDuplicateSeqDiscardedHash: a duplicate of a delivered or of a
// buffered sequence number is discarded and counted, on the sharded engine.
func TestDuplicateSeqDiscardedHash(t *testing.T) {
	s := spc.NewSet()
	e := newTestSharded(s)
	e.Deliver(pkt(0, 1, 0, nil), nil)
	e.Deliver(pkt(0, 1, 0, nil), nil)
	e.Deliver(pkt(0, 1, 3, nil), nil)
	e.Deliver(pkt(0, 1, 3, nil), nil)
	if got := e.Counts().Get(spc.DuplicateSequences); got != 2 {
		t.Fatalf("DuplicateSequences = %d, want 2", got)
	}
	if got := e.UnexpectedLen(); got != 1 {
		t.Fatalf("UnexpectedLen = %d, want 1", got)
	}
}

// TestQuickHashEquivalentToList: for random exact-coordinate workloads
// (random posts interleaved with random-permutation deliveries), the
// sharded engine produces exactly the list engine's match results.
func TestQuickHashEquivalentToList(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		list := NewEngine(1, 4, hw.Fast().Scaled(), NopMeter{}, nil)
		sharded := NewSharded(1, 4, 4, hw.Fast().Scaled(), NopMeter{}, nil)

		const nMsgs = 24
		perm := rng.Perm(nMsgs)
		type post struct{ src, tag int32 }
		var posts []post
		for i := 0; i < nMsgs; i++ {
			posts = append(posts, post{src: int32(rng.Intn(2)), tag: int32(rng.Intn(3))})
		}
		var listOut, shardedOut []string
		di, pi := 0, 0
		record := func(out *[]string, comps []Completion) {
			for _, c := range comps {
				*out = append(*out, string([]byte{byte(c.Recv.Token.(int)), ':', c.Recv.Buf[0]}))
			}
		}
		for di < nMsgs || pi < nMsgs {
			if pi < nMsgs && (di >= nMsgs || rng.Intn(2) == 0) {
				for _, e := range []struct {
					m   Matcher
					out *[]string
				}{{list, &listOut}, {sharded, &shardedOut}} {
					r := &Recv{Source: posts[pi].src, Tag: posts[pi].tag, Buf: make([]byte, 4), Token: pi}
					if c, ok := e.m.PostRecv(r); ok {
						record(e.out, []Completion{c})
					}
				}
				pi++
			} else {
				// Two senders with independent streams, handed to both
				// engines in the same random order.
				seq := perm[di]
				src, msgSeq, tag := int32(seq%2), uint32(seq/2), int32(seq%3)
				record(&listOut, list.Deliver(pkt(src, tag, msgSeq, []byte{byte(seq)}), nil))
				record(&shardedOut, sharded.Deliver(pkt(src, tag, msgSeq, []byte{byte(seq)}), nil))
				di++
			}
		}
		return slices.Equal(listOut, shardedOut) &&
			list.PostedLen() == sharded.PostedLen() &&
			list.UnexpectedLen() == sharded.UnexpectedLen() &&
			list.OOSBuffered() == sharded.OOSBuffered()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkShardedDeliverExact(b *testing.B) {
	e := newTestSharded(nil)
	b.ReportAllocs()
	var comps []Completion
	for i := 0; i < b.N; i++ {
		e.PostRecv(&Recv{Source: 0, Tag: 1})
		comps = e.Deliver(pkt(0, 1, uint32(i), nil), comps[:0])
	}
}

// BenchmarkMatchEnginesDeepQueues contrasts list vs sharded search cost with
// many distinct tags outstanding — the regime Section IV-D's queue-search
// discussion worries about.
func BenchmarkMatchEnginesDeepQueues(b *testing.B) {
	const depth = 256
	for _, eng := range []struct {
		name string
		e    Matcher
	}{
		{"list", NewEngine(1, 4, hw.Fast().Scaled(), NopMeter{}, nil)},
		{"sharded", newTestSharded(nil)},
	} {
		b.Run(eng.name, func(b *testing.B) {
			e := eng.e
			for d := 0; d < depth; d++ {
				e.PostRecv(&Recv{Source: 0, Tag: int32(1000 + d)})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.PostRecv(&Recv{Source: 0, Tag: 1})
				e.Deliver(pkt(0, 1, uint32(i), nil), nil)
			}
		})
	}
}

// Each engine keeps its own counters and reads them back with Counts; one
// built with a nil set counts nothing, and neither writes the set it was
// given. The same traffic — a receive posted first, an arrival out of
// sequence, an unexpected message claimed later — counts alike in both.
func TestEngineCounts(t *testing.T) {
	traffic := func(e Matcher) {
		e.PostRecv(&Recv{Source: 0, Tag: 1})
		e.Deliver(pkt(0, 1, 1, nil), nil) // out of sequence
		e.Deliver(pkt(0, 1, 0, nil), nil) // matches the posted receive, releases seq 1
		e.PostRecv(&Recv{Source: 0, Tag: 1})
	}
	for name, mk := range map[string]func(*spc.Set) Matcher{
		"list":    func(s *spc.Set) Matcher { return NewEngine(1, 8, hw.Fast().Scaled(), NopMeter{}, s) },
		"sharded": func(s *spc.Set) Matcher { return newTestSharded(s) },
	} {
		t.Run(name, func(t *testing.T) {
			off := mk(nil)
			traffic(off)
			if got := off.Counts(); got != (spc.Snapshot{}) {
				t.Errorf("engine built with a nil set counted:\n%v", got)
			}
			set := spc.NewSet()
			e := mk(set)
			traffic(e)
			if got := set.Snapshot(); got != (spc.Snapshot{}) {
				t.Errorf("engine wrote the set it was given:\n%v", got)
			}
			n := e.Counts()
			for c, want := range map[spc.Counter]int64{
				spc.MatchAttempts: 4, spc.MessagesReceived: 2, spc.ExpectedMessages: 1,
				spc.UnexpectedMessages: 1, spc.OutOfSequence: 1, spc.PostedQueuePeak: 1,
				spc.UnexpectedQueuePeak: 1,
			} {
				if n[c] != want {
					t.Errorf("%s = %d, want %d", c, n[c], want)
				}
			}
		})
	}
}
