// Cross-engine consistency: the real runtime (internal/core, wall clock)
// and the virtual-time model (internal/simnet) implement the same message
// path; their *count* invariants must agree on identical workloads even
// though their timings differ.
package repro_test

import (
	"testing"

	benchmr "repro/internal/bench/multirate"
	"repro/internal/core"
	"repro/internal/cri"
	"repro/internal/designs"
	"repro/internal/hw"
	"repro/internal/progress"
	"repro/internal/simnet"
	"repro/internal/spc"
)

func TestEnginesAgreeOnMessageCounts(t *testing.T) {
	const (
		pairs  = 3
		window = 32
		iters  = 2
	)
	want := int64(pairs * window * iters)

	rres, err := benchmr.Run(benchmr.Config{
		Machine: hw.Fast(), Opts: core.CRIsConcurrent(pairs, cri.Dedicated),
		Pairs: pairs, Window: window, Iters: iters,
	})
	if err != nil {
		t.Fatal(err)
	}
	sres := simnet.RunMultirate(simnet.Config{
		Machine: hw.Fast(), Pairs: pairs, Window: window, Iters: iters,
		NumInstances: pairs, Assignment: cri.Dedicated, Progress: progress.Concurrent,
	})
	cases := []struct {
		name     string
		rv, simv int64
	}{
		// Both harnesses report the receiver side's counters, so
		// messages_received is the observable; sent is on the sender proc.
		{"messages", rres.Messages, sres.Messages},
		{"messages_received", rres.SPCs.Get(spc.MessagesReceived), sres.SPCs.Get(spc.MessagesReceived)},
	}
	for _, c := range cases {
		if c.rv != want || c.simv != want {
			t.Errorf("%s: real %d, sim %d, want %d", c.name, c.rv, c.simv, want)
		}
	}
}

func TestEnginesAgreeOvertakingEliminatesOOS(t *testing.T) {
	const (
		pairs  = 3
		window = 16
		iters  = 2
	)
	real, err := benchmr.Run(benchmr.Config{
		Machine: hw.Fast(), Opts: core.CRIsConcurrent(pairs, cri.Dedicated),
		Pairs: pairs, Window: window, Iters: iters,
		AnyTag: true, Overtaking: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim := simnet.RunMultirate(simnet.Config{
		Machine: hw.Fast(), Pairs: pairs, Window: window, Iters: iters,
		NumInstances: pairs, Assignment: cri.Dedicated, Progress: progress.Concurrent,
		AnyTagRecv: true, AllowOvertaking: true,
	})
	if r := real.SPCs.Get(spc.OutOfSequence); r != 0 {
		t.Errorf("real engine recorded %d OOS under overtaking", r)
	}
	if s := sim.SPCs.Get(spc.OutOfSequence); s != 0 {
		t.Errorf("sim engine recorded %d OOS under overtaking", s)
	}
}

func TestEnginesAgreeCommPerPairFIFOHasNoOOS(t *testing.T) {
	// One sender thread per communicator through a dedicated instance:
	// strictly FIFO end to end — both engines must record zero OOS.
	const (
		pairs  = 4
		window = 16
		iters  = 2
	)
	real, err := benchmr.Run(benchmr.Config{
		Machine: hw.Fast(), Opts: core.CRIsConcurrent(pairs, cri.Dedicated),
		Pairs: pairs, Window: window, Iters: iters, CommPerPair: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim := simnet.RunMultirate(simnet.Config{
		Machine: hw.Fast(), Pairs: pairs, Window: window, Iters: iters,
		NumInstances: pairs, Assignment: cri.Dedicated, Progress: progress.Concurrent,
		CommPerPair: true,
	})
	if r := real.SPCs.Get(spc.OutOfSequence); r != 0 {
		t.Errorf("real engine: comm-per-pair dedicated OOS = %d", r)
	}
	if s := sim.SPCs.Get(spc.OutOfSequence); s != 0 {
		t.Errorf("sim engine: comm-per-pair dedicated OOS = %d", s)
	}
}

// The counter contract between the runtime and its virtual-time twin, on one
// fixed Multirate workload (3 pairs x window 32 x 2 iterations, whole-job
// totals: sender rank + receiver rank). Every spc counter is in exactly one
// list; DESIGN.md section 9 carries the same table with the reasons.
var (
	// exactCounters must be equal. The first five are exercised; the rest are
	// zero on both sides because the workload is two-sided, fault-free and
	// takes instances round-robin or dedicated — the contract is that neither
	// engine ticks them unprovoked.
	exactCounters = []spc.Counter{
		spc.MessagesSent, spc.MessagesReceived, spc.MatchAttempts,
		spc.ConnsOpened, spc.ConnsReused,
		spc.PutsIssued, spc.FlushCalls, spc.LatePackets, spc.DuplicateSequences,
		spc.FaultPacketsDropped, spc.FaultPacketsDuplicated, spc.FaultPacketsDelayed,
		spc.Retransmits, spc.FreeListAcquires, spc.FreeListEmpty,
	}
	// approxCounters depend on who ran first — wall-clock scheduling on one
	// side, virtual-time order on the other — so only a relation holds; each
	// is checked on both engines by checkRelations.
	approxCounters = []spc.Counter{
		spc.UnexpectedMessages, spc.ExpectedMessages, // sum to messages_received
		spc.OutOfSequence,       // <= messages_received; 0 when every comm has one sender
		spc.UnexpectedQueuePeak, // <= unexpected_messages, and >= 1 if any
		spc.PostedQueuePeak,     // <= window x pairs sharing a comm, and >= 1 if any expected
		spc.MatchWalkElements,   // >= messages_received; equal when every match is at a queue head
		spc.ProgressCalls,       // >= 1
		spc.ProgressTryLockFail, // >= progress_steal_losses
		spc.ProgressStealLosses,
	}
	// oneSidedCounters exist on one side only; today that side is always the
	// runtime: wall-clock time, the wire, the rings, the ack protocol and
	// one-sided operations the model has no code for, plus send_lock_waits,
	// which the model knows per lock site (Result.Breakdown) but does not tick
	// (filed in ROADMAP item 2). The model must read zero.
	oneSidedCounters = []spc.Counter{
		spc.MatchTimeNanos, spc.SendLockWaits,
		spc.GetsIssued, spc.AccumulatesIssued,
		spc.RetransmitFailures, spc.DuplicatePackets, spc.AcksSent, spc.AcksReceived,
		spc.DialRetries, spc.Reconnects, spc.ShortWrites, spc.DialRacesLost,
		spc.WireFlushes, spc.WireFramesFlushed, spc.WireBackstopFlushes,
		spc.WireFlushFailures, spc.WireFramesStranded, spc.WireFramesRejected,
		spc.RingFullWaits, spc.WireReadsPolled, spc.WireReadsParked,
	}
)

func TestCounterContractClassifiesEveryCounter(t *testing.T) {
	class := map[spc.Counter]string{}
	for name, list := range map[string][]spc.Counter{
		"exact": exactCounters, "approximate": approxCounters, "one-sided": oneSidedCounters,
	} {
		for _, c := range list {
			if prev, dup := class[c]; dup {
				t.Errorf("%s is classified twice: %s and %s", c, prev, name)
			}
			class[c] = name
		}
	}
	for c := spc.Counter(0); int(c) < spc.NumCounters; c++ {
		if class[c] == "" {
			t.Errorf("%s is in none of the three lists: decide whether runtime and model must agree on it, and add the row to DESIGN.md section 9", c)
		}
	}
}

func TestEnginesAgreeOnCounterContract(t *testing.T) {
	const (
		pairs  = 3
		window = 32
		iters  = 2
	)
	for _, d := range []designs.Design{designs.OMPIThread, designs.OMPIThreadCRI, designs.OMPIThreadCRIFull} {
		t.Run(d.Slug(), func(t *testing.T) {
			rres, err := benchmr.Run(benchmr.Config{
				Machine: hw.Fast(), Opts: d.CoreOptions(pairs),
				Pairs: pairs, Window: window, Iters: iters, CommPerPair: d.UsesCommPerPair(),
			})
			if err != nil {
				t.Fatal(err)
			}
			real := spc.Merge(rres.Stats[0].Process, rres.Stats[1].Process)
			model := simnet.RunMultirate(d.SimConfig(simnet.Config{
				Machine: hw.Fast(), Pairs: pairs, Window: window, Iters: iters,
			}, pairs)).SPCs

			for _, c := range exactCounters {
				if r, m := real.Get(c), model.Get(c); r != m {
					t.Errorf("%s: runtime %d, model %d, want equal", c, r, m)
				}
			}
			if got := real.Get(spc.MessagesReceived); got != pairs*window*iters {
				t.Errorf("messages_received = %d, want %d", got, pairs*window*iters)
			}
			for _, c := range oneSidedCounters {
				if m := model.Get(c); m != 0 {
					t.Errorf("%s: model %d, want 0 (the model has no code that may tick it)", c, m)
				}
			}
			perComm := pairs
			if d.UsesCommPerPair() {
				perComm = 1
			}
			checkRelations(t, "runtime", real, int64(window*perComm), perComm == 1)
			checkRelations(t, "model", model, int64(window*perComm), perComm == 1)
		})
	}
}

// checkRelations holds one engine's snapshot to the relations stated beside
// approxCounters. postedBound is the most receives one communicator can have
// posted; fifo says every communicator has a single sender on a dedicated
// instance, so arrivals are in sequence and every match is at a queue head.
func checkRelations(t *testing.T, engine string, sn spc.Snapshot, postedBound int64, fifo bool) {
	t.Helper()
	recv, unexp, exp := sn.Get(spc.MessagesReceived), sn.Get(spc.UnexpectedMessages), sn.Get(spc.ExpectedMessages)
	if unexp+exp != recv {
		t.Errorf("%s: unexpected %d + expected %d != messages_received %d", engine, unexp, exp, recv)
	}
	if oos := sn.Get(spc.OutOfSequence); oos < 0 || oos > recv || (fifo && oos != 0) {
		t.Errorf("%s: out_of_sequence = %d of %d received (fifo=%v)", engine, oos, recv, fifo)
	}
	if peak := sn.Get(spc.UnexpectedQueuePeak); peak > unexp || (unexp > 0 && peak < 1) {
		t.Errorf("%s: unexpected_queue_peak = %d with %d unexpected messages", engine, peak, unexp)
	}
	if peak := sn.Get(spc.PostedQueuePeak); peak > postedBound || (exp > 0 && peak < 1) {
		t.Errorf("%s: posted_queue_peak = %d, bound %d, %d expected messages", engine, peak, postedBound, exp)
	}
	if walk := sn.Get(spc.MatchWalkElements); walk < recv || (fifo && walk != recv) {
		t.Errorf("%s: match_walk_elements = %d for %d matches (fifo=%v)", engine, walk, recv, fifo)
	}
	if calls := sn.Get(spc.ProgressCalls); calls < 1 {
		t.Errorf("%s: progress_calls = %d", engine, calls)
	}
	if fail, steal := sn.Get(spc.ProgressTryLockFail), sn.Get(spc.ProgressStealLosses); steal > fail {
		t.Errorf("%s: progress_steal_losses %d > progress_trylock_fail %d", engine, steal, fail)
	}
}
