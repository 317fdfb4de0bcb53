package progress

import (
	"sync"
	"testing"

	"repro/internal/backends"
	"repro/internal/cri"
	"repro/internal/flight"
	"repro/internal/hw"
	"repro/internal/prof"
	"repro/internal/spc"
	"repro/internal/transport"
)

// harness builds a pool of n instances on one device plus a sender device
// wired so that test packets can be injected into any instance.
type harness struct {
	pool    *cri.Pool
	sendEps []transport.Endpoint // endpoint into each instance's context
}

func newHarness(t *testing.T, n int) *harness {
	t.Helper()
	// On hw.Fast() the simulated backend charges no CPU cost and has no link
	// limit: an injected packet is immediately pollable, so timing is
	// deterministic.
	net := backends.Sim()
	dev, err := net.NewDevice(0, hw.Fast(), transport.DeviceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sender, err := net.NewDevice(1, hw.Fast(), transport.DeviceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	insts := make([]*cri.Instance, n)
	eps := make([]transport.Endpoint, n)
	for i := range insts {
		ctx, err := dev.CreateContext(0)
		if err != nil {
			t.Fatal(err)
		}
		insts[i] = cri.NewInstance(i, ctx, nil)
		sctx, err := sender.CreateContext(0)
		if err != nil {
			t.Fatal(err)
		}
		if eps[i], err = sender.Connect(sctx, 0, i); err != nil { // ctx is the device's i-th
			t.Fatal(err)
		}
	}
	pool, err := cri.NewPool(insts, cri.Dedicated)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{pool: pool, sendEps: eps}
}

func (h *harness) inject(inst int, seq uint32) {
	h.sendEps[inst].Send(transport.NewPacket(
		transport.Envelope{Seq: seq, Kind: transport.KindEager}, nil, nil))
}

// TestModeString: every mode's name round-trips through ModeByName and an
// unknown name errors.
func TestModeString(t *testing.T) {
	for m, name := range map[Mode]string{Serial: "serial", Concurrent: "concurrent"} {
		if m.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(m), m, name)
		}
		if got, err := ModeByName(name); err != nil || got != m {
			t.Errorf("ModeByName(%q) = %v, %v; want %v", name, got, err, m)
		}
	}
	if _, err := ModeByName("mode(2)"); err == nil {
		t.Error("ModeByName accepted an unknown name")
	}
}

func TestSerialProgressPollsAllInstances(t *testing.T) {
	h := newHarness(t, 3)
	for i := 0; i < 3; i++ {
		h.inject(i, uint32(i))
	}
	var mu sync.Mutex
	seen := map[int]int{}
	e := New(Serial, h.pool, func(_ *prof.ThreadClock, in *cri.Instance, ev transport.CQE) {
		mu.Lock()
		seen[in.Index()]++
		mu.Unlock()
	}, nil)
	var ts cri.ThreadState
	n := e.Progress(&ts)
	if n != 3 {
		t.Fatalf("Progress handled %d events, want 3", n)
	}
	for i := 0; i < 3; i++ {
		if seen[i] != 1 {
			t.Fatalf("instance %d polled %d times, want 1: %v", i, seen[i], seen)
		}
	}
}

func TestSerialProgressExcludesSecondThread(t *testing.T) {
	h := newHarness(t, 1)
	s := spc.NewSet()
	block := make(chan struct{})
	entered := make(chan struct{})
	e := New(Serial, h.pool, func(*prof.ThreadClock, *cri.Instance, transport.CQE) {
		close(entered)
		<-block // hold the serial lock
	}, s)
	h.inject(0, 0)

	go func() {
		var ts cri.ThreadState
		e.Progress(&ts)
	}()
	<-entered
	// A second thread must bounce off the global try-lock with 0 events.
	var ts2 cri.ThreadState
	if n := e.Progress(&ts2); n != 0 {
		t.Fatalf("second thread extracted %d events inside serial progress", n)
	}
	if got := s.Get(spc.ProgressTryLockFail); got != 1 {
		t.Fatalf("progress_trylock_fail = %d, want 1", got)
	}
	close(block)
}

func TestConcurrentProgressPrefersDedicated(t *testing.T) {
	h := newHarness(t, 4)
	var mu sync.Mutex
	var polled []int
	e := New(Concurrent, h.pool, func(_ *prof.ThreadClock, in *cri.Instance, ev transport.CQE) {
		mu.Lock()
		polled = append(polled, in.Index())
		mu.Unlock()
	}, nil)

	// Thread with dedicated instance 0 (first ForThread call assigns 0).
	var ts cri.ThreadState
	h.pool.ForThread(&ts)
	if ts.Dedicated() != 0 {
		t.Fatalf("dedicated = %d, want 0", ts.Dedicated())
	}
	// Events on both instance 0 and instance 2: the dedicated instance
	// produces completions, so the sweep must NOT run.
	h.inject(0, 0)
	h.inject(2, 0)
	n := e.Progress(&ts)
	if n != 1 {
		t.Fatalf("Progress = %d events, want 1 (dedicated only)", n)
	}
	if len(polled) != 1 || polled[0] != 0 {
		t.Fatalf("polled instances = %v, want [0]", polled)
	}
}

func TestConcurrentProgressSweepsWhenDedicatedEmpty(t *testing.T) {
	h := newHarness(t, 4)
	var mu sync.Mutex
	var polled []int
	e := New(Concurrent, h.pool, func(_ *prof.ThreadClock, in *cri.Instance, ev transport.CQE) {
		mu.Lock()
		polled = append(polled, in.Index())
		mu.Unlock()
	}, nil)
	var ts cri.ThreadState
	h.pool.ForThread(&ts) // dedicated = 0, empty
	h.inject(2, 0)        // completion waits on instance 2
	n := e.Progress(&ts)
	if n != 1 {
		t.Fatalf("Progress = %d, want 1 from sweep", n)
	}
	if len(polled) != 1 || polled[0] != 2 {
		t.Fatalf("polled = %v, want [2] (orphaned instance progressed)", polled)
	}
}

func TestConcurrentProgressNoDedicatedStillSweeps(t *testing.T) {
	// A thread that never acquired a dedicated instance (e.g. pure
	// progress helper) must still drive the pool.
	h := newHarness(t, 2)
	count := 0
	e := New(Concurrent, h.pool, func(*prof.ThreadClock, *cri.Instance, transport.CQE) { count++ }, nil)
	h.inject(1, 0)
	var ts cri.ThreadState // unassigned
	if n := e.Progress(&ts); n != 1 || count != 1 {
		t.Fatalf("Progress = %d (dispatched %d), want 1", n, count)
	}
}

func TestConcurrentProgressSkipsLockedInstance(t *testing.T) {
	h := newHarness(t, 2)
	s := spc.NewSet()
	e := New(Concurrent, h.pool, func(*prof.ThreadClock, *cri.Instance, transport.CQE) {}, s)
	h.inject(0, 0)
	h.pool.Get(0).Lock() // another thread "is progressing" instance 0
	defer h.pool.Get(0).Unlock()
	var ts cri.ThreadState
	h.pool.ForThread(&ts) // dedicated = 0 (locked)
	if n := e.Progress(&ts); n != 0 {
		t.Fatalf("Progress = %d, want 0 (instance locked elsewhere)", n)
	}
	if s.Get(spc.ProgressTryLockFail) < 2 { // dedicated try + sweep try
		t.Fatalf("progress_trylock_fail = %d, want >= 2", s.Get(spc.ProgressTryLockFail))
	}
}

func TestDrainEmptiesEverything(t *testing.T) {
	h := newHarness(t, 3)
	total := 0
	e := New(Concurrent, h.pool, func(*prof.ThreadClock, *cri.Instance, transport.CQE) { total++ }, nil)
	for i := 0; i < 3; i++ {
		for s := 0; s < 10; s++ {
			h.inject(i, uint32(s))
		}
	}
	if n := e.Drain(); n != 30 || total != 30 {
		t.Fatalf("Drain = %d (dispatched %d), want 30", n, total)
	}
	if n := e.Drain(); n != 0 {
		t.Fatalf("second Drain = %d, want 0", n)
	}
}

func TestProgressCallsCounted(t *testing.T) {
	h := newHarness(t, 1)
	s := spc.NewSet()
	e := New(Serial, h.pool, func(*prof.ThreadClock, *cri.Instance, transport.CQE) {}, s)
	var ts cri.ThreadState
	for i := 0; i < 5; i++ {
		e.Progress(&ts)
	}
	if got := s.Get(spc.ProgressCalls); got != 5 {
		t.Fatalf("progress_calls = %d, want 5", got)
	}
}

// TestConcurrentProgressParallelStress drives many goroutines through the
// concurrent engine under race detection; each event must be dispatched
// exactly once.
func TestConcurrentProgressParallelStress(t *testing.T) {
	const (
		instances = 4
		events    = 400
		threads   = 4
	)
	h := newHarness(t, instances)
	var mu sync.Mutex
	seen := make(map[uint32]int)
	e := New(Concurrent, h.pool, func(_ *prof.ThreadClock, in *cri.Instance, ev transport.CQE) {
		if ev.Kind != transport.CQERecv {
			return
		}
		mu.Lock()
		seen[ev.Packet.Envelope().Seq]++
		mu.Unlock()
	}, nil)

	for i := 0; i < events; i++ {
		h.inject(i%instances, uint32(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ts cri.ThreadState
			h.pool.ForThread(&ts)
			for {
				mu.Lock()
				done := len(seen) == events
				mu.Unlock()
				if done {
					return
				}
				e.Progress(&ts)
			}
		}()
	}
	wg.Wait()
	for seq, n := range seen {
		if n != 1 {
			t.Fatalf("event %d dispatched %d times", seq, n)
		}
	}
}

// One productive pass writes exactly one progress event, on the row of the
// calling thread's dedicated instance; an idle pass writes none.
func TestProductivePassRecordsOneEvent(t *testing.T) {
	for _, mode := range []Mode{Serial, Concurrent} {
		h := newHarness(t, 2)
		e := New(mode, h.pool, func(*prof.ThreadClock, *cri.Instance, transport.CQE) {}, nil)
		rec := flight.NewRecorder(16)
		ts := cri.NewThreadState(1)
		ts.SetFlight(rec.NewRing("t0"))

		if n := e.Progress(&ts); n != 0 || len(rec.Merged()) != 0 {
			t.Fatalf("%v: idle pass handled %d events and recorded %v", mode, n, rec.Merged())
		}
		h.inject(1, 0)
		h.inject(1, 1)
		if n := e.Progress(&ts); n != 2 {
			t.Fatalf("%v: pass handled %d events, want 2", mode, n)
		}
		ev := rec.Merged()
		if len(ev) != 1 || ev[0].Kind != flight.KindProgress || ev[0].A0 != 2 || ev[0].CRI() != 1 {
			t.Fatalf("%v: one productive pass recorded %+v, want one progress event a0=2 cri=1", mode, ev)
		}
	}
}
