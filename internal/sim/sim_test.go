package sim

import (
	"testing"
	"time"
)

func TestSingleProcessAdvance(t *testing.T) {
	env := NewEnv()
	env.Go("a", 0, func(p *Proc) {
		p.Advance(100 * time.Nanosecond)
		p.Advance(50 * time.Nanosecond)
	})
	if got := env.Run(); got != 150*time.Nanosecond {
		t.Fatalf("makespan = %v, want 150ns", got)
	}
}

func TestProcessesRunInTimeOrder(t *testing.T) {
	env := NewEnv()
	var order []string
	// b starts earlier in virtual time despite being spawned second.
	env.Go("a", 100, func(p *Proc) {
		p.Yield()
		order = append(order, "a")
	})
	env.Go("b", 0, func(p *Proc) {
		p.Yield()
		order = append(order, "b")
	})
	env.Run()
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("order = %v, want [b a]", order)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	run := func() []string {
		env := NewEnv()
		var order []string
		for _, name := range []string{"x", "y", "z"} {
			name := name
			env.Go(name, 0, func(p *Proc) {
				p.Yield()
				order = append(order, name)
			})
		}
		env.Run()
		return order
	}
	first := run()
	for i := 0; i < 5; i++ {
		again := run()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("run %d diverged: %v vs %v", i, first, again)
			}
		}
	}
}

func TestMakespanIsMaxClock(t *testing.T) {
	env := NewEnv()
	env.Go("short", 0, func(p *Proc) { p.Advance(10 * time.Nanosecond) })
	env.Go("long", 0, func(p *Proc) { p.Advance(10 * time.Microsecond) })
	if got := env.Run(); got != 10*time.Microsecond {
		t.Fatalf("makespan = %v", got)
	}
}

func TestLockMutualExclusionSerializesVirtualTime(t *testing.T) {
	// N processes each hold the lock for 100ns: the makespan must be at
	// least N*100ns because critical sections cannot overlap.
	// Every process but the first finds the lock held and reports a wait.
	env := NewEnv()
	l := NewLock(env, "l", 0)
	const n = 10
	acquired, waited := 0, 0
	for i := 0; i < n; i++ {
		env.Go("p", 0, func(p *Proc) {
			if l.Acquire(p) > 0 {
				waited++
			}
			acquired++
			p.Advance(100 * time.Nanosecond)
			l.Release(p)
		})
	}
	got := env.Run()
	if got < n*100*time.Nanosecond {
		t.Fatalf("makespan %v < %v: critical sections overlapped", got, n*100*time.Nanosecond)
	}
	if acquired != n {
		t.Fatalf("acquisitions = %d, want %d", acquired, n)
	}
	if waited != n-1 {
		t.Fatalf("contended = %d, want %d", waited, n-1)
	}
}

func TestLockPenaltyGrowsMakespan(t *testing.T) {
	run := func(penalty time.Duration) time.Duration {
		env := NewEnv()
		l := NewLock(env, "l", penalty)
		for i := 0; i < 8; i++ {
			env.Go("p", 0, func(p *Proc) {
				for k := 0; k < 10; k++ {
					l.Acquire(p)
					p.Advance(100 * time.Nanosecond)
					l.Release(p)
				}
			})
		}
		return env.Run()
	}
	free := run(0)
	contended := run(50 * time.Nanosecond)
	if contended <= free {
		t.Fatalf("penalty did not grow makespan: %v vs %v", contended, free)
	}
}

func TestTryAcquire(t *testing.T) {
	env := NewEnv()
	l := NewLock(env, "l", 0)
	var firstGot, secondGot bool
	env.Go("holder", 0, func(p *Proc) {
		firstGot = l.TryAcquire(p)
		p.Advance(time.Microsecond)
		l.Release(p)
	})
	env.Go("prober", 100, func(p *Proc) {
		// At t=100ns the holder (acquired at 0, releasing at 1000ns) still
		// holds the lock.
		secondGot = l.TryAcquire(p)
	})
	env.Run()
	if !firstGot {
		t.Fatal("first TryAcquire failed on free lock")
	}
	if secondGot {
		t.Fatal("TryAcquire succeeded while lock held in virtual time")
	}
}

func TestLockFIFOHandoff(t *testing.T) {
	env := NewEnv()
	l := NewLock(env, "l", 0)
	l.Fair = true
	var order []int64
	env.Go("holder", 0, func(p *Proc) {
		l.Acquire(p)
		p.Advance(time.Microsecond)
		l.Release(p)
	})
	for i := 0; i < 3; i++ {
		start := int64(100 * (i + 1)) // arrival order 100, 200, 300
		env.Go("w", start, func(p *Proc) {
			l.Acquire(p)
			order = append(order, start)
			p.Advance(10 * time.Nanosecond)
			l.Release(p)
		})
	}
	env.Run()
	if len(order) != 3 || order[0] != 100 || order[1] != 200 || order[2] != 300 {
		t.Fatalf("handoff order = %v, want FIFO by arrival", order)
	}
}

func TestLockWaitTimeAccounting(t *testing.T) {
	env := NewEnv()
	l := NewLock(env, "l", 0)
	env.Go("holder", 0, func(p *Proc) {
		l.Acquire(p)
		p.Advance(time.Microsecond)
		l.Release(p)
	})
	var waited time.Duration
	env.Go("waiter", 0, func(p *Proc) {
		waited = l.Acquire(p)
		l.Release(p)
	})
	env.Run()
	// Both arrive at 0; with no penalty the hand-off lands at the holder's
	// release instant, so the returned wait is exactly the hold.
	if waited != time.Microsecond {
		t.Fatalf("waiter waited %v, want the holder's 1us hold", waited)
	}
}

// TestCurrentIsTheResumedProc: Current names the proc Run resumed at every
// point its code runs — before and after a lock hand-off parks and wakes it
// — so an adapter that cannot be handed the *Proc acts for the right one.
func TestCurrentIsTheResumedProc(t *testing.T) {
	env := NewEnv()
	if env.Current() != nil {
		t.Fatal("Current before Run is not nil")
	}
	l := NewLock(env, "l", 50*time.Nanosecond)
	check := func(p *Proc, when string) {
		if got := env.Current(); got != p {
			t.Errorf("%s %s: Current = %v, want the running proc", p.name, when, got)
		}
	}
	var bWaited time.Duration
	body := func(p *Proc) {
		check(p, "at start")
		if w := l.Acquire(p); p.name == "b" {
			bWaited = w
		}
		check(p, "holding")
		p.Advance(time.Microsecond)
		l.Release(p)
		check(p, "after release")
	}
	a := env.Go("a", 0, body)
	b := env.Go("b", 10, body) // parks on a's lock, woken by the hand-off
	env.Run()
	if bWaited <= 0 {
		t.Fatalf("b waited %v, want > 0 (b must wait for a's hand-off)", bWaited)
	}
	if cur := env.Current(); cur != a && cur != b {
		t.Fatalf("Current after Run = %v, want the last resumed proc", cur)
	}
}

func TestReleaseByNonHolderPanics(t *testing.T) {
	env := NewEnv()
	l := NewLock(env, "l", 0)
	env.Go("a", 0, func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Release without Acquire did not panic")
			}
		}()
		l.Release(p)
	})
	env.Run()
}

func TestDeadlockDetection(t *testing.T) {
	env := NewEnv()
	l := NewLock(env, "l", 0)
	env.Go("holder", 0, func(p *Proc) {
		l.Acquire(p) // never released
		// Waits forever on a second lock acquisition.
		l.Acquire(p)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("deadlocked simulation did not panic")
		}
	}()
	env.Run()
}

func TestWireSerializesAggregateRate(t *testing.T) {
	// 10 processes, 100 messages each, on a 1e9 msg/s wire (1ns per msg):
	// makespan must be >= 1000ns no matter the parallelism.
	env := NewEnv()
	w := NewWire(0, 1e9)
	for i := 0; i < 10; i++ {
		env.Go("s", 0, func(p *Proc) {
			for k := 0; k < 100; k++ {
				w.Reserve(p, 0)
			}
		})
	}
	got := env.Run()
	if got < 999*time.Nanosecond {
		t.Fatalf("makespan = %v, want >= ~1000ns (wire cap)", got)
	}
}

func TestWireBandwidthDimension(t *testing.T) {
	env := NewEnv()
	w := NewWire(8, 0) // 1 byte per ns
	env.Go("s", 0, func(p *Proc) {
		w.Reserve(p, 1000)
		w.Reserve(p, 1000) // second slot starts at cursor 1000
		if p.Now() != 1000 {
			t.Errorf("second reservation started at %d, want 1000", p.Now())
		}
	})
	env.Run()
}

func TestNilWireIsNoop(t *testing.T) {
	env := NewEnv()
	var w *Wire
	env.Go("s", 0, func(p *Proc) { w.Reserve(p, 100) })
	if env.Run() != 0 {
		t.Fatal("nil wire advanced time")
	}
}

func TestSpawnMidRun(t *testing.T) {
	env := NewEnv()
	var childRan bool
	env.Go("parent", 0, func(p *Proc) {
		p.Advance(time.Microsecond)
		env.Go("child", p.Now(), func(c *Proc) {
			if c.Now() < p.Now() {
				t.Error("child started before parent's clock")
			}
			childRan = true
		})
		p.Yield()
	})
	env.Run()
	if !childRan {
		t.Fatal("child never ran")
	}
}

func TestMeterAdvancesClock(t *testing.T) {
	env := NewEnv()
	m := Meter{Env: env}
	a := env.Go("a", 0, func(p *Proc) {
		m.Charge(42 * time.Nanosecond)
		p.Yield()
	})
	b := env.Go("b", 0, func(p *Proc) {
		m.Charge(7 * time.Nanosecond)
	})
	if got := env.Run(); got != 42*time.Nanosecond {
		t.Fatalf("makespan = %v", got)
	}
	// One meter, two threads: each charge lands on the thread that ran it.
	if a.Now() != 42 || b.Now() != 7 {
		t.Fatalf("clocks a=%d b=%d, want 42 and 7", a.Now(), b.Now())
	}
}

// TestParallelSpeedupEmerges is the sanity check that virtual time models
// parallelism on a single-core host: N independent workers doing 1ms of
// work each finish in 1ms total, not N ms.
func TestParallelSpeedupEmerges(t *testing.T) {
	env := NewEnv()
	for i := 0; i < 16; i++ {
		env.Go("w", 0, func(p *Proc) {
			for k := 0; k < 100; k++ {
				p.Advance(10 * time.Microsecond)
				p.Yield()
			}
		})
	}
	got := env.Run()
	if got != time.Millisecond {
		t.Fatalf("16 independent 1ms workers: makespan = %v, want exactly 1ms", got)
	}
}

// BenchmarkExecutiveHandoff measures the DES engine's per-event cost — the
// constant that sizes how large a virtual experiment is practical.
func BenchmarkExecutiveHandoff(b *testing.B) {
	env := NewEnv()
	env.Go("p", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Yield()
		}
	})
	b.ResetTimer()
	env.Run()
}
