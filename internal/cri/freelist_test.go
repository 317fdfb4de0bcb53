package cri

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/spc"
)

func testPool(t *testing.T, n int, mode Assignment) *Pool {
	t.Helper()
	instances := make([]*Instance, n)
	for i := range instances {
		instances[i] = NewInstance(i, nil, nil)
	}
	p, err := NewPool(instances, mode)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRoundRobinOverflow is the ISSUE 7 regression test: seed the circular
// counter at the signed-overflow boundaries and prove indices stay in
// [0, len). A signed implementation would go negative after MaxInt32 /
// MaxInt64 and index out of range; the unsigned counter must not.
func TestRoundRobinOverflow(t *testing.T) {
	for _, n := range []int{3, 4, 7} {
		p := testPool(t, n, RoundRobin)
		for _, seed := range []uint64{
			math.MaxInt32 - 1,  // crossing 2^31: int32 arithmetic would go negative
			math.MaxInt64 - 1,  // crossing 2^63: int64 arithmetic would go negative
			math.MaxUint64 - 1, // crossing 2^64: the counter itself wraps
		} {
			p.SeedRR(seed)
			for i := 0; i < 8; i++ {
				idx := p.NextRoundRobin()
				if idx < 0 || idx >= n {
					t.Fatalf("n=%d seed=%d: index %d out of range", n, seed, idx)
				}
			}
		}
	}
}

// TestRoundRobinOverflowCoversAll proves the rotation still visits every
// instance while the counter crosses 2^31 (no instance starves after wrap).
func TestRoundRobinOverflowCoversAll(t *testing.T) {
	const n = 5
	p := testPool(t, n, RoundRobin)
	p.SeedRR(math.MaxInt32 - 2)
	seen := map[int]bool{}
	for i := 0; i < 2*n; i++ {
		seen[p.NextRoundRobin()] = true
	}
	if len(seen) != n {
		t.Fatalf("rotation across the 2^31 boundary visited %d/%d instances", len(seen), n)
	}
}

func TestFreeListSeedAndDrain(t *testing.T) {
	const n = 4
	p := testPool(t, n, FreeList)
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		idx := p.popFree()
		if idx < 0 || idx >= n || seen[idx] {
			t.Fatalf("pop %d: bad or duplicate index %d", i, idx)
		}
		seen[idx] = true
	}
	if idx := p.popFree(); idx != -1 {
		t.Fatalf("pop on drained list = %d, want -1", idx)
	}
	p.pushFree(2)
	if idx := p.popFree(); idx != 2 {
		t.Fatalf("pop after push = %d, want 2", idx)
	}
}

// TestFreeListAcquireSendExclusive: while a free-list acquisition holds an
// instance, no other AcquireSend may receive the same instance (until the
// list drains and round-robin fallback kicks in, which this test avoids by
// holding at most n-1 instances).
func TestFreeListAcquireSendExclusive(t *testing.T) {
	const n = 4
	p := testPool(t, n, FreeList)
	p.SetSPCs(spc.NewSet())
	var ts ThreadState

	held := map[*Instance]func(){}
	for i := 0; i < n-1; i++ {
		in, release := p.AcquireSend(&ts)
		if _, dup := held[in]; dup {
			t.Fatalf("AcquireSend returned instance %d twice while held", in.Index())
		}
		held[in] = release
	}
	for _, release := range held {
		release()
	}
	// All released: n consecutive acquisitions must again be distinct.
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		in, release := p.AcquireSend(&ts)
		if seen[in.Index()] {
			t.Fatalf("instance %d handed out twice after release", in.Index())
		}
		seen[in.Index()] = true
		defer release()
	}
}

// TestFreeListFallbackWhenDrained: with every instance claimed, AcquireSend
// must still return a usable locked instance (round-robin fallback) rather
// than deadlock, and count the miss.
func TestFreeListFallbackWhenDrained(t *testing.T) {
	const n = 2
	p := testPool(t, n, FreeList)
	set := spc.NewSet()
	p.SetSPCs(set)
	var ts ThreadState

	// Drain the list directly (without holding the instance locks) so the
	// fallback acquisition can proceed deterministically.
	for i := 0; i < n; i++ {
		if p.popFree() < 0 {
			t.Fatal("list drained early")
		}
	}
	in, release := p.AcquireSend(&ts)
	if in == nil {
		t.Fatal("fallback acquisition returned nil")
	}
	release()
	if got := set.Get(spc.FreeListEmpty); got != 1 {
		t.Fatalf("FreeListEmpty = %d, want 1", got)
	}
	if got := set.Get(spc.FreeListAcquires); got != 0 {
		t.Fatalf("FreeListAcquires = %d, want 0", got)
	}
	// Return the indices; the next acquisition pops again.
	for i := 0; i < n; i++ {
		p.pushFree(i)
	}
	_, release = p.AcquireSend(&ts)
	release()
	if got := set.Get(spc.FreeListAcquires); got != 1 {
		t.Fatalf("FreeListAcquires after refill = %d, want 1", got)
	}
}

// TestFreeListChurnRace is the -race stress case from ISSUE 7: many
// goroutines acquire and release through the free-list concurrently.
// Asserts no instance is ever held by two send paths at once (the Treiber
// stack's exclusivity guarantee) across many wrap cycles of the stack.
func TestFreeListChurnRace(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	if prev < 8 {
		runtime.GOMAXPROCS(8)
		defer runtime.GOMAXPROCS(prev)
	}

	const (
		n       = 4
		workers = 16
		iters   = 10000
	)
	p := testPool(t, n, FreeList)
	p.SetSPCs(spc.NewSet())

	var holders [n]atomic.Int32
	var violations atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ts ThreadState
			for i := 0; i < iters; i++ {
				in, release := p.AcquireSend(&ts)
				// The instance lock is held here even on the fallback path,
				// so the holder count must never exceed one.
				if holders[in.Index()].Add(1) > 1 {
					violations.Add(1)
				}
				holders[in.Index()].Add(-1)
				release()
			}
		}()
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d double-held instances", v)
	}
	// Every instance must be back on the list.
	seen := 0
	for p.popFree() >= 0 {
		seen++
	}
	if seen != n {
		t.Fatalf("free-list holds %d/%d instances after churn", seen, n)
	}
}

// pinAllocs fails when f allocates more than pinned times per run and logs
// the row `make allocs` collects into its table.
func pinAllocs(t *testing.T, path string, pinned float64, f func()) {
	t.Helper()
	got := testing.AllocsPerRun(200, f)
	t.Logf("allocs-pin | %-46s | %5.2f | %5.2f", path, got, pinned)
	if got > pinned {
		t.Errorf("%s allocates %v times per op, pinned at %v", path, got, pinned)
	}
}

// TestAcquireSendAllocatesNothing: the release function AcquireSend returns
// is built when the instance (or the pool) is, under every assignment and on
// the drained-free-list fallback — and it still is the right one: the
// instance comes back unlocked and, where it was popped, back on the list.
func TestAcquireSendAllocatesNothing(t *testing.T) {
	cases := []struct {
		name string
		mode Assignment
		hold int // instances popped beforehand: 2 = drained, round-robin fallback
	}{
		{"round-robin", RoundRobin, 0},
		{"dedicated", Dedicated, 0},
		{"free-list", FreeList, 0},
		{"free-list drained", FreeList, 2},
	}
	for _, c := range cases {
		p := testPool(t, 2, c.mode)
		p.SetSPCs(spc.NewSet())
		for i := 0; i < c.hold; i++ {
			if p.popFree() < 0 {
				t.Fatalf("%s: free-list drained after %d pops", c.name, i)
			}
		}
		var ts ThreadState
		pinAllocs(t, "cri.AcquireSend+release "+c.name, 0, func() {
			in, release := p.AcquireSend(&ts)
			release()
			if !in.TryLock() {
				t.Fatalf("%s: release left instance %d locked", c.name, in.Index())
			}
			in.Unlock()
		})
		if c.mode == FreeList {
			free := 0
			for p.popFree() >= 0 {
				free++
			}
			if want := 2 - c.hold; free != want {
				t.Errorf("%s: %d instances on the free-list afterwards, want %d", c.name, free, want)
			}
		}
	}
}
