package simnet

import (
	"fmt"

	"repro/internal/bench/multirate"
	"repro/internal/bench/rmamt"
	"repro/internal/cri"
	"repro/internal/prof"
	"repro/internal/progress"
	"repro/internal/sim"
	"repro/internal/spc"
	"repro/internal/transport"
)

// RunRMAMT executes the RMA-MT put+flush workload on the model and returns
// the achieved put rate. One-sided operations have no matching stage: each
// put charges initiator CPU under the instance lock and reserves wire time;
// flush drives the progress engine until the thread's outstanding
// completions are reaped.
func RunRMAMT(rc rmamt.Config, m Model) Result {
	rc = rc.WithDefaults()
	// The origin is a proc like Multirate's: of the workload, only the
	// design knobs and the put size apply to it.
	cfg := resolve(multirate.Config{Machine: rc.Machine, Opts: rc.Opts, MsgSize: rc.MsgSize}, m)

	env := sim.NewEnv()
	wire := sim.NewWire(rc.Machine.LinkGbps, rc.Machine.MaxInjectionRate)
	origin := newSimProc(env, cfg, wire)

	costs := origin.costs
	for g := 0; g < rc.Threads; g++ {
		t := newSimThread(origin)
		env.Go(fmt.Sprintf("rma-%d", g), threadSkew(g), func(sp *sim.Proc) {
			t.startClock(sp)
			for round := 0; round < rc.Rounds; round++ {
				for k := 0; k < rc.PutsPerThread; k++ {
					inst := origin.pool.ForThread(&t.ts)
					t.clk.Begin(prof.PhaseSend)
					inst.LockClocked(t.clk)
					sp.Advance(costs.RMAPut)
					t.clk.Begin(prof.PhaseWire)
					origin.wire.Reserve(sp, 28+rc.MsgSize)
					t.clk.End()
					ctx := origin.ctxs[inst.Index()]
					ctx.cq = append(ctx.cq, transport.CQE{Kind: transport.CQEPutComplete, Token: &t.pendingSends})
					inst.Unlock()
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
func (t *simThread) noteUsed(inst *cri.Instance) {
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
	dispatch := cri.PollHandler(p.dispatch) // bound once, not per poll
	backoff := retryCost
	for t.pendingSends > 0 {
		n := 0
		for _, inst := range t.used {
			if inst.TryLock() {
				t.clk.Begin(prof.PhaseProgressOwn)
				sp.Advance(p.costs.RMAFlushPerInstance)
				n += inst.Poll(t.clk, dispatch, 64)
				t.clk.End()
				inst.Unlock()
			} else {
				p.spcs.Inc(spc.ProgressTryLockFail)
			}
		}
		if p.cfg.Opts.Progress == progress.Serial {
			// The serialized opal_progress tick every flush round.
			if p.progLock.TryLock() {
				sp.Advance(p.costs.CQPollEmpty)
				p.progLock.Unlock()
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
