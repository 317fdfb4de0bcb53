package match

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"

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
	if SelfLocking(NewHashEngine(1, 8, hw.Fast().Scaled(), NopMeter{}, nil)) {
		t.Fatal("HashEngine must not report SelfLocking")
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
	if e.PostedLen() != 0 || e.UnexpectedLen() != 1 || set.Get(spc.MatchAttempts) != 1 {
		t.Fatalf("refused wildcards changed the engine: posted %d, unexpected %d, attempts %d",
			e.PostedLen(), e.UnexpectedLen(), set.Get(spc.MatchAttempts))
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
	if set.Get(spc.OutOfSequence) != 2 {
		t.Fatalf("OutOfSequence = %d, want 2", set.Get(spc.OutOfSequence))
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
		"engine": newTestEngine(spc.NewSet()),
		"hash":   NewHashEngine(1, 8, hw.Fast().Scaled(), NopMeter{}, spc.NewSet()),
		"sharded": func() Matcher {
			e := newTestSharded(spc.NewSet())
			return e
		}(),
	}
	seed := map[string]func(src int32, v uint32){
		"engine":  engines["engine"].(*Engine).SeedNextSeq,
		"hash":    engines["hash"].(*HashEngine).SeedNextSeq,
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
	if set.Get(spc.DuplicateSequences) != 0 {
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
	if set.Get(spc.DuplicateSequences) != 1 {
		t.Fatalf("DuplicateSequences = %d, want 1", set.Get(spc.DuplicateSequences))
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
