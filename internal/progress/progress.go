// Package progress implements the MPI progress engine in the two designs
// the paper compares (Section III-E):
//
//   - Serial: Open MPI's original design — one thread at a time inside the
//     engine, enforced with a global try-lock (a thread that loses simply
//     returns, assuming someone else is progressing).
//   - Concurrent: the paper's redesign — the global lock is gone; threads
//     use per-instance try-locks, progressing their dedicated instance
//     first and sweeping the others round-robin only when their own
//     instance had no completions (Algorithm 2).
package progress

import (
	"fmt"

	"repro/internal/cri"
	"repro/internal/flight"
	"repro/internal/prof"
	"repro/internal/spc"
	"repro/internal/telemetry"
)

// Mode selects the progress design.
type Mode int

const (
	// Serial is the original single-threaded progress engine.
	Serial Mode = iota
	// Concurrent allows all threads into the engine simultaneously.
	Concurrent
)

func (m Mode) String() string {
	switch m {
	case Serial:
		return "serial"
	case Concurrent:
		return "concurrent"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ModeByName is the inverse of String.
func ModeByName(name string) (Mode, error) {
	switch name {
	case "serial":
		return Serial, nil
	case "concurrent":
		return Concurrent, nil
	default:
		return 0, fmt.Errorf("unknown progress mode %q", name)
	}
}

// Dispatch handles one completion event extracted by the engine. It is the
// instance Poll handler shape: the clock is the progressing thread's phase
// clock (nil when profiling is off).
type Dispatch = cri.PollHandler

// Engine drives completion extraction over a CRI pool.
type Engine struct {
	mode     Mode
	pool     *cri.Pool
	dispatch Dispatch
	spcs     *spc.Set
	// serialMu is the classic design's global progress lock. Losers never
	// block on it — they leave — so its profiled contention metric is
	// try-lock losses.
	serialMu prof.TryMutex
	// batch bounds how many events one Poll handles per instance visit.
	batch int
	// passHist, when attached, records the duration of every pass.
	passHist *telemetry.Histogram
}

// New creates a progress engine over pool. The dispatch callback routes
// events to the upper layer (request completion, matching). spcs is the
// process-level residual set; per-instance contention is charged to each
// instance's own set.
func New(mode Mode, pool *cri.Pool, dispatch Dispatch, spcs *spc.Set) *Engine {
	return &Engine{mode: mode, pool: pool, dispatch: dispatch, spcs: spcs, batch: 64}
}

// SetPassHistogram attaches the pass-duration histogram. Call during setup,
// before threads enter the engine.
func (e *Engine) SetPassHistogram(h *telemetry.Histogram) { e.passHist = h }

// BindProfSite attaches the contention profiler's statistics to the serial
// progress lock. Call during setup, before threads enter the engine.
func (e *Engine) BindProfSite(s *prof.Site) { e.serialMu.Bind(s) }

// BindVirtualLock realizes the serial progress lock as v, as
// cri.Instance.BindVirtualLock does the instance lock. Call during setup.
func (e *Engine) BindVirtualLock(v prof.VirtualLock) { e.serialMu.BindVirtual(v) }

// Progress makes one progress pass on behalf of the thread owning ts and
// returns the number of completion events handled.
func (e *Engine) Progress(ts *cri.ThreadState) int {
	e.spcs.Inc(spc.ProgressCalls)
	var count int
	if e.mode == Serial {
		// The serial try-lock is taken before the pass timer starts: a
		// thread that loses did no engine work, and recording its ~0ns
		// "pass" would drown the histogram in no-op samples under
		// contention.
		if !e.serialMu.TryLock() {
			e.spcs.Inc(spc.ProgressTryLockFail)
			return 0
		}
		clk := ts.Clock()
		clk.Begin(prof.PhaseProgressOwn)
		t0 := e.passHist.Start()
		count = e.progressSerialLocked(clk)
		e.serialMu.Unlock()
		e.passHist.ObserveSince(t0)
		clk.End()
	} else {
		t0 := e.passHist.Start()
		count = e.progressConcurrent(ts)
		e.passHist.ObserveSince(t0)
	}
	if count > 0 {
		// Productive passes only: an idle spin loop would flush the ring
		// of every interesting event within milliseconds. The event sits on
		// the row of the calling thread's dedicated instance when it has one.
		ring := ts.Flight()
		ring.RecordAt(ring.Now(), flight.KindProgress, 0, int32(count), 0, ts.Dedicated(), 0)
	}
	return count
}

// progressSerialLocked is one pass of Open MPI's classic design: the caller
// won the global serial lock and polls every instance; losers have already
// left in Progress.
func (e *Engine) progressSerialLocked(clk *prof.ThreadClock) int {
	count := 0
	for i := 0; i < e.pool.Len(); i++ {
		inst := e.pool.Get(i)
		// The send path still contends on the instance lock, so polling
		// takes it even though progress itself is serialized.
		inst.LockClocked(clk)
		count += inst.Poll(clk, e.dispatch, e.batch)
		inst.Unlock()
	}
	return count
}

// progressConcurrent is Algorithm 2: progress the dedicated instance first;
// if it produced nothing, sweep other instances round-robin with try-locks,
// stopping at the first instance that produces completions. The sweep
// guarantees every instance is eventually progressed even if its owning
// thread is gone (orphaned-CRI rule, Section III-E).
func (e *Engine) progressConcurrent(ts *cri.ThreadState) int {
	clk := ts.Clock()
	count := 0
	if k := ts.Dedicated(); k >= 0 {
		inst := e.pool.Get(k)
		if inst.TryLock() {
			clk.Begin(prof.PhaseProgressOwn)
			count = inst.Poll(clk, e.dispatch, e.batch)
			clk.End()
			inst.Unlock()
		} else {
			// Contention is charged to the contended instance's own set so
			// the hot instance is identifiable; the process roll-up merges
			// it back into the Table II total.
			e.chargeTryLockFail(inst)
		}
	}
	if count > 0 {
		return count
	}
	clk.Begin(prof.PhaseProgressSteal)
	for i := 0; i < e.pool.Len(); i++ {
		inst := e.pool.Get(e.pool.NextRoundRobin())
		if !inst.TryLock() {
			// Someone else is progressing this instance; move on
			// (the try-lock-as-helper rule of Section III-C). Losing here
			// is steal pressure, counted separately from the dedicated
			// instance's losses above.
			e.chargeTryLockFail(inst)
			chargeInstance(inst, e.spcs, spc.ProgressStealLosses)
			continue
		}
		c := inst.Poll(clk, e.dispatch, e.batch)
		inst.Unlock()
		count += c
		if count > 0 {
			break
		}
	}
	clk.End()
	return count
}

// chargeTryLockFail records a failed instance try-lock on the instance's
// own counter set when it has one, else on the engine's residual set.
func (e *Engine) chargeTryLockFail(inst *cri.Instance) {
	chargeInstance(inst, e.spcs, spc.ProgressTryLockFail)
}

// chargeInstance increments c on the instance's own counter set when it has
// one, else on the fallback set.
func chargeInstance(inst *cri.Instance, fallback *spc.Set, c spc.Counter) {
	if s := inst.SPCs(); s != nil {
		s.Inc(c)
		return
	}
	fallback.Inc(c)
}

// Drain polls every instance until no events remain, ignoring the engine's
// concurrency discipline. Only for shutdown/teardown paths.
func (e *Engine) Drain() int {
	total := 0
	for {
		n := 0
		for i := 0; i < e.pool.Len(); i++ {
			inst := e.pool.Get(i)
			inst.Lock()
			n += inst.Poll(nil, e.dispatch, e.batch)
			inst.Unlock()
		}
		total += n
		if n == 0 {
			return total
		}
	}
}
