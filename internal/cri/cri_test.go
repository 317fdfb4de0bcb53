package cri

import (
	"errors"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/backends"
	"repro/internal/hw"
	"repro/internal/prof"
	"repro/internal/spc"
	"repro/internal/transport"
)

// simDevice returns rank's device on net. On hw.Fast() the simulated
// backend charges no CPU cost and has no link limit: a packet sent on an
// endpoint is immediately pollable from the remote context, so test timing
// is deterministic.
func simDevice(t testing.TB, net transport.Network, rank int) transport.Device {
	t.Helper()
	dev, err := net.NewDevice(rank, hw.Fast(), transport.DeviceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func newTestPool(t testing.TB, n int, mode Assignment) *Pool {
	t.Helper()
	return newTestPoolOn(t, simDevice(t, backends.Sim(), 0), n, mode)
}

func newTestPoolOn(t testing.TB, dev transport.Device, n int, mode Assignment) *Pool {
	t.Helper()
	insts := make([]*Instance, n)
	for i := range insts {
		ctx, err := dev.CreateContext(0)
		if err != nil {
			t.Fatal(err)
		}
		insts[i] = NewInstance(i, ctx, nil)
	}
	pool, err := NewPool(insts, mode)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// TestAssignmentString: every assignment's name round-trips through
// AssignmentByName, the short spellings resolve, an unknown name errors.
func TestAssignmentString(t *testing.T) {
	cases := []struct {
		a     Assignment
		names []string // String() first
	}{
		{RoundRobin, []string{"round-robin", "rr"}},
		{Dedicated, []string{"dedicated"}},
		{FreeList, []string{"free-list", "freelist"}},
	}
	for _, c := range cases {
		if c.a.String() != c.names[0] {
			t.Errorf("%d.String() = %q, want %q", int(c.a), c.a, c.names[0])
		}
		for _, name := range c.names {
			if got, err := AssignmentByName(name); err != nil || got != c.a {
				t.Errorf("AssignmentByName(%q) = %v, %v; want %v", name, got, err, c.a)
			}
		}
	}
	if _, err := AssignmentByName("assignment(7)"); err == nil {
		t.Error("AssignmentByName accepted an unknown name")
	}
}

func TestRoundRobinCycles(t *testing.T) {
	p := newTestPool(t, 3, RoundRobin)
	var ts ThreadState
	want := []int{0, 1, 2, 0, 1, 2}
	for i, w := range want {
		if got := p.ForThread(&ts).Index(); got != w {
			t.Fatalf("call %d: instance %d, want %d", i, got, w)
		}
	}
	if ts.Dedicated() != -1 {
		t.Fatal("round-robin assignment polluted the thread-local cache")
	}
}

func TestDedicatedSticksPerThread(t *testing.T) {
	p := newTestPool(t, 4, Dedicated)
	var ts1, ts2 ThreadState
	a := p.ForThread(&ts1)
	b := p.ForThread(&ts2)
	if a == b {
		t.Fatal("two threads got the same dedicated instance with 4 available")
	}
	for i := 0; i < 10; i++ {
		if p.ForThread(&ts1) != a {
			t.Fatal("dedicated assignment changed between calls")
		}
	}
	if ts1.Dedicated() != a.Index() {
		t.Fatalf("ThreadState.Dedicated = %d, want %d", ts1.Dedicated(), a.Index())
	}
}

func TestDedicatedSharingWhenOversubscribed(t *testing.T) {
	// More threads than instances: assignments wrap (paper: "some
	// communicating threads might share the same instance").
	p := newTestPool(t, 2, Dedicated)
	states := make([]ThreadState, 4)
	counts := map[int]int{}
	for i := range states {
		counts[p.ForThread(&states[i]).Index()]++
	}
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("oversubscribed assignment = %v, want {0:2, 1:2}", counts)
	}
}

func TestThreadStateReset(t *testing.T) {
	p := newTestPool(t, 2, Dedicated)
	var ts ThreadState
	p.ForThread(&ts)
	ts.Reset()
	if ts.Dedicated() != -1 {
		t.Fatal("Reset did not clear assignment")
	}
}

func TestConcurrentRoundRobinBalanced(t *testing.T) {
	p := newTestPool(t, 4, RoundRobin)
	const (
		goroutines = 8
		per        = 1000
	)
	var mu sync.Mutex
	counts := make(map[int]int)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make(map[int]int)
			var ts ThreadState
			for i := 0; i < per; i++ {
				local[p.ForThread(&ts).Index()]++
			}
			mu.Lock()
			for k, v := range local {
				counts[k] += v
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	total := 0
	for i := 0; i < 4; i++ {
		c := counts[i]
		total += c
		if c != goroutines*per/4 {
			t.Fatalf("instance %d acquired %d times, want exactly %d (atomic counter)", i, c, goroutines*per/4)
		}
	}
	if total != goroutines*per {
		t.Fatalf("total = %d", total)
	}
}

func TestLockContentionCounted(t *testing.T) {
	s := spc.NewSet()
	ctx, _ := simDevice(t, backends.Sim(), 0).CreateContext(0)
	in := NewInstance(0, ctx, s)
	// The contender's clock reports each instant it reads: its slow path
	// opens the lock-wait phase once its try-lock has failed.
	reads := make(chan struct{}, 4)
	clk := prof.New().NewThreadClock("contender", func() int64 {
		reads <- struct{}{}
		return 0
	})
	<-reads // the clock's start
	in.Lock()
	done := make(chan struct{})
	go func() {
		in.LockClocked(clk) // must block and count one contention
		in.Unlock()
		close(done)
	}()
	<-reads // the contender failed its try-lock
	in.Unlock()
	<-done
	if got := s.Get(spc.SendLockWaits); got != 1 {
		t.Fatalf("send_lock_waits = %d, want 1", got)
	}
}

func TestTryLock(t *testing.T) {
	p := newTestPool(t, 1, RoundRobin)
	in := p.Get(0)
	if !in.TryLock() {
		t.Fatal("TryLock failed on free lock")
	}
	if in.TryLock() {
		t.Fatal("TryLock succeeded on held lock")
	}
	in.Unlock()
	if !in.TryLock() {
		t.Fatal("TryLock failed after Unlock")
	}
	in.Unlock()
}

func TestEndpointTable(t *testing.T) {
	net := backends.Sim()
	dev := simDevice(t, net, 0)
	in := newTestPoolOn(t, dev, 1, RoundRobin).Get(0)
	simDevice(t, net, 1).CreateContext(0)
	ep, err := dev.Connect(in.Context(), 1, 0) // remote: rank 1's first context
	if err != nil {
		t.Fatal(err)
	}
	in.SetEndpoints([]transport.Endpoint{nil, ep})
	if in.Endpoint(0) != nil {
		t.Fatal("self endpoint should be nil")
	}
	if in.Endpoint(1) != ep {
		t.Fatal("Endpoint(1) lookup failed")
	}
	if in.Endpoint(5) != nil || in.Endpoint(-1) != nil {
		t.Fatal("out-of-range endpoint lookup returned non-nil")
	}
}

func TestEmptyPoolError(t *testing.T) {
	if _, err := NewPool(nil, RoundRobin); !errors.Is(err, ErrEmptyPool) {
		t.Fatalf("NewPool(nil) error = %v, want ErrEmptyPool", err)
	}
}

func TestInstancePollDispatches(t *testing.T) {
	dev := simDevice(t, backends.Sim(), 0)
	p := newTestPoolOn(t, dev, 2, RoundRobin)
	rx := p.Get(0)
	tx := p.Get(1)
	ep, err := dev.Connect(tx.Context(), 0, 0) // rx: the device's first context
	if err != nil {
		t.Fatal(err)
	}
	ep.Send(transport.NewPacket(transport.Envelope{Kind: transport.KindEager, Tag: 3}, nil, nil))

	var got []transport.CQE
	var fromInst *Instance
	rx.Lock()
	n := rx.Poll(nil, func(_ *prof.ThreadClock, in *Instance, e transport.CQE) { fromInst = in; got = append(got, e) }, 8)
	rx.Unlock()
	if n != 1 || len(got) != 1 || got[0].Kind != transport.CQERecv {
		t.Fatalf("Poll handled %d events: %+v", n, got)
	}
	if fromInst != rx {
		t.Fatal("dispatch reported wrong instance")
	}
}

func BenchmarkForThreadRoundRobin(b *testing.B) {
	p := newTestPool(b, 8, RoundRobin)
	var ts ThreadState
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.ForThread(&ts)
	}
}

func BenchmarkForThreadDedicated(b *testing.B) {
	p := newTestPool(b, 8, Dedicated)
	var ts ThreadState
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.ForThread(&ts)
	}
}

// TestInstanceLayout: an Instance is a whole number of cache lines, so the
// instances of a pool each start on a line of their own and no two share
// one — a thread sending or polling on its instance never invalidates the
// line another thread's instance lives on. (An instance grown by one word
// into the next size class used to put two instances on one line.)
func TestInstanceLayout(t *testing.T) {
	if sz := unsafe.Sizeof(Instance{}); sz%64 != 0 {
		t.Fatalf("unsafe.Sizeof(Instance{}) = %d, not a multiple of 64", sz)
	}
	pool := newTestPool(t, 4, RoundRobin)
	lines := map[uintptr]int{} // cache line → the instance on it
	for i := 0; i < pool.Len(); i++ {
		in := pool.Get(i)
		start := uintptr(unsafe.Pointer(in))
		if start%64 != 0 {
			t.Fatalf("instance %d at %#x is not 64-byte aligned", i, start)
		}
		for line := start / 64; line < (start+unsafe.Sizeof(*in)+63)/64; line++ {
			if j, taken := lines[line]; taken {
				t.Fatalf("instances %d and %d share cache line %#x", j, i, line*64)
			}
			lines[line] = i
		}
	}
}
