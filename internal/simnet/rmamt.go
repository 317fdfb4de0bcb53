package simnet

import (
	"fmt"

	"repro/internal/cri"
	"repro/internal/hw"
	"repro/internal/prof"
	"repro/internal/progress"
	"repro/internal/sim"
	"repro/internal/spc"
)

// RMAMTConfig describes one RMA-MT run (Dosanjh et al. [7]): Threads
// threads on the origin process, each performing PutsPerThread MPI_Put
// operations of MsgSize bytes followed by an MPI_Win_flush, repeated Rounds
// times. InstanceMode selects the resource design under test.
type RMAMTConfig struct {
	// Machine supplies cost model, contexts, and link rate.
	Machine hw.Machine
	// Threads is the number of origin-side threads (1..32 Haswell,
	// 1..64 KNL).
	Threads int
	// MsgSize is the put payload in bytes.
	MsgSize int
	// PutsPerThread per flush round (the benchmark uses 1000).
	PutsPerThread int
	// Rounds of put-burst + flush.
	Rounds int
	// NumInstances: 1 reproduces the "single" (red) curves; the machine
	// default (one per core, 32/72) with Assignment selects
	// dedicated/round-robin.
	NumInstances int
	// Assignment is the thread-to-instance strategy.
	Assignment cri.Assignment
	// Progress selects serial or concurrent progress for completion
	// reaping during flush.
	Progress progress.Mode
}

func (c RMAMTConfig) withDefaults() RMAMTConfig {
	if c.PutsPerThread <= 0 {
		c.PutsPerThread = 1000
	}
	if c.Rounds <= 0 {
		c.Rounds = 4
	}
	if c.NumInstances <= 0 {
		c.NumInstances = c.Machine.DefaultContexts
	}
	if max := c.Machine.MaxContexts; max > 0 && c.NumInstances > max {
		c.NumInstances = max
	}
	return c
}

// RunRMAMT executes the RMA-MT put+flush workload on the model and returns
// the achieved put rate. One-sided operations have no matching stage: each
// put charges initiator CPU under the instance lock and reserves wire time;
// flush drives the progress engine until the thread's outstanding
// completions are reaped.
func RunRMAMT(rc RMAMTConfig) Result {
	rc = rc.withDefaults()
	cfg := Config{
		Machine:      rc.Machine,
		NumInstances: rc.NumInstances,
		Assignment:   rc.Assignment,
		Progress:     rc.Progress,
		MsgSize:      rc.MsgSize,
	}.withDefaults()

	env := sim.NewEnv()
	wire := sim.NewWire(rc.Machine.LinkGbps, rc.Machine.MaxInjectionRate)
	origin := newSimProc(env, cfg, wire, cfg.NumInstances)

	costs := origin.costs
	for g := 0; g < rc.Threads; g++ {
		t := newSimThread(origin)
		env.Go(fmt.Sprintf("rma-%d", g), threadSkew(g), func(sp *sim.Proc) {
			t.startClock(sp)
			for round := 0; round < rc.Rounds; round++ {
				for k := 0; k < rc.PutsPerThread; k++ {
					inst := origin.instanceFor(&t.ts)
					t.clk.Begin(prof.PhaseSend)
					t.clk.Begin(prof.PhaseLockWait)
					inst.lock.Acquire(sp)
					t.clk.End()
					sp.Advance(costs.RMAPut)
					t.clk.Begin(prof.PhaseWire)
					origin.wire.Reserve(sp, 28+rc.MsgSize)
					t.clk.End()
					inst.cq = append(inst.cq, cqe{pending: &t.pendingSends})
					inst.lock.Release(sp)
					t.clk.End()
					t.noteUsed(inst)
					t.pendingSends++
					origin.spcs.Inc(spc.PutsIssued)
				}
				t.flush(sp)
			}
			t.clk.Stop()
		})
	}
	makespan := env.Run()
	total := int64(rc.Threads) * int64(rc.PutsPerThread) * int64(rc.Rounds)
	res := newResult(total, makespan, origin)
	res.Breakdown = []prof.RankSnapshot{rankSnapshot(0, origin)}
	return res
}

// noteUsed records an instance the thread issued one-sided operations on.
func (t *simThread) noteUsed(inst *simInstance) {
	for _, u := range t.used {
		if u == inst {
			return
		}
	}
	t.used = append(t.used, inst)
}

// flush is MPI_Win_flush in the model: reap this thread's outstanding
// completions by polling the contexts it issued on. Unlike the two-sided
// path, one-sided completion reaping is per-device-context (the osc/rdma +
// ugni design), not funneled through the global progress engine, which is
// why Figures 6-7 show little difference between serial and concurrent
// progress. In Serial mode each polling round still makes one (cheap)
// serialized opal_progress check.
func (t *simThread) flush(sp *sim.Proc) {
	p := t.proc
	p.spcs.Inc(spc.FlushCalls)
	backoff := retryCost
	for t.pendingSends > 0 {
		n := 0
		for _, inst := range t.used {
			if inst.lock.TryAcquire(sp) {
				t.clk.Begin(prof.PhaseProgressOwn)
				sp.Advance(p.costs.RMAFlushPerInstance)
				n += t.poll(sp, inst, 64)
				t.clk.End()
				inst.lock.Release(sp)
			} else {
				p.spcs.Inc(spc.ProgressTryLockFail)
			}
		}
		if p.cfg.Progress == progress.Serial {
			// The serialized opal_progress tick every flush round.
			if p.progLock.TryAcquire(sp) {
				sp.Advance(p.costs.CQPollEmpty)
				p.progLock.Release(sp)
			}
		}
		if n == 0 {
			sp.Advance(backoff)
			sp.Yield()
			if backoff < maxBackoff {
				backoff *= 2
			}
		} else {
			backoff = retryCost
		}
	}
}
