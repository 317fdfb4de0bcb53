// Cross-engine consistency: the real runtime (internal/core, wall clock)
// and the virtual-time model (internal/simnet) implement the same message
// path; their *count* invariants must agree on identical workloads even
// though their timings differ.
package repro_test

import (
	"testing"

	benchmr "repro/internal/bench/multirate"
	"repro/internal/cri"
	"repro/internal/designs"
	"repro/internal/hw"
	"repro/internal/simnet"
	"repro/internal/spc"
)

// concurrentProgress is CRIs* on one communicator shared by every pair: one
// dedicated instance per pair and concurrent progress, matching serialized.
func concurrentProgress(base benchmr.Config) benchmr.Config {
	cfg := designs.OMPIThreadCRIFull.Config(base, base.Pairs)
	cfg.CommPerPair = false
	return cfg
}

func TestEnginesAgreeOnMessageCounts(t *testing.T) {
	const (
		pairs  = 3
		window = 32
		iters  = 2
	)
	want := int64(pairs * window * iters)

	cfg := concurrentProgress(benchmr.Config{Machine: hw.Fast(), Pairs: pairs, Window: window, Iters: iters})
	rres, err := benchmr.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sres := simnet.RunMultirate(cfg, simnet.Model{})
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
	cfg := concurrentProgress(benchmr.Config{
		Machine: hw.Fast(), Pairs: pairs, Window: window, Iters: iters,
		AnyTag: true, Overtaking: true,
	})
	real, err := benchmr.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim := simnet.RunMultirate(cfg, simnet.Model{})
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
	cfg := designs.OMPIThreadCRIFull.Config(benchmr.Config{Machine: hw.Fast(), Pairs: pairs, Window: window, Iters: iters}, pairs)
	real, err := benchmr.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim := simnet.RunMultirate(cfg, designs.OMPIThreadCRIFull.Model())
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
		spc.DialRetries, spc.Reconnects, spc.ShortWrites,
		spc.WireFlushes, spc.WireFramesFlushed, spc.WireBackstopFlushes,
		spc.WireFlushFailures, spc.WireFramesStranded, spc.WireFramesRejected,
		spc.RingFullWaits, spc.WireReadsPolled, spc.WireReadsParked, spc.WireReadsEmpty,
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
	for _, d := range []designs.Design{designs.OMPIThread, designs.OMPIThreadCRI, designs.OMPIThreadCRIFull, designs.OMPIThreadCRILockFree} {
		t.Run(d.Slug(), func(t *testing.T) {
			cfg := d.Config(benchmr.Config{Machine: hw.Fast(), Pairs: pairs, Window: window, Iters: iters}, pairs)
			rres, err := benchmr.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			real := spc.Merge(rres.Stats[0].Process, rres.Stats[1].Process)
			model := simnet.RunMultirate(cfg, d.Model()).SPCs

			// Under the free list conns_reused is a relation, not an equality:
			// which instance a send pops depends on which sends overlap. Both
			// stacks hand a thread back the instance it just released while
			// sends do not overlap; the runtime's overlap is scheduling.
			freeList := cfg.Opts.Assignment == cri.FreeList
			for _, c := range exactCounters {
				if c == spc.ConnsReused && freeList {
					continue
				}
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
			if cfg.CommPerPair {
				perComm = 1
			}
			shape := runShape{postedBound: int64(window * perComm), fifo: perComm == 1, sharded: cfg.NoWildcards, instances: pairs}
			checkRelations(t, "runtime", real, shape)
			checkRelations(t, "model", model, shape)
		})
	}
}

// runShape is what checkRelations needs to know of a design's run.
type runShape struct {
	postedBound int64 // the most receives one communicator can have posted
	fifo        bool  // every communicator has one sender on a dedicated instance: arrivals in sequence, every match at a queue head
	sharded     bool  // the communicator asserts no wildcards: bucketed matching walks nothing
	instances   int64 // CRIs per process
}

// checkRelations holds one engine's snapshot to the relations stated beside
// approxCounters, and to those of the exact counters a design exercises.
func checkRelations(t *testing.T, engine string, sn spc.Snapshot, shape runShape) {
	t.Helper()
	recv, unexp, exp := sn.Get(spc.MessagesReceived), sn.Get(spc.UnexpectedMessages), sn.Get(spc.ExpectedMessages)
	if unexp+exp != recv {
		t.Errorf("%s: unexpected %d + expected %d != messages_received %d", engine, unexp, exp, recv)
	}
	if oos := sn.Get(spc.OutOfSequence); oos < 0 || oos > recv || (shape.fifo && oos != 0) {
		t.Errorf("%s: out_of_sequence = %d of %d received (fifo=%v)", engine, oos, recv, shape.fifo)
	}
	if peak := sn.Get(spc.UnexpectedQueuePeak); peak > unexp || (unexp > 0 && peak < 1) {
		t.Errorf("%s: unexpected_queue_peak = %d with %d unexpected messages", engine, peak, unexp)
	}
	if peak := sn.Get(spc.PostedQueuePeak); peak > shape.postedBound || (exp > 0 && peak < 1) {
		t.Errorf("%s: posted_queue_peak = %d, bound %d, %d expected messages", engine, peak, shape.postedBound, exp)
	}
	if walk := sn.Get(spc.MatchWalkElements); shape.sharded && walk != 0 {
		t.Errorf("%s: match_walk_elements = %d on sharded matching, want 0", engine, walk)
	} else if !shape.sharded && (walk < recv || (shape.fifo && walk != recv)) {
		t.Errorf("%s: match_walk_elements = %d for %d matches (fifo=%v)", engine, walk, recv, shape.fifo)
	}
	if reused := sn.Get(spc.ConnsReused); reused > shape.instances-1 {
		t.Errorf("%s: conns_reused = %d with %d instances", engine, reused, shape.instances)
	}
	if pops := sn.Get(spc.FreeListAcquires) + sn.Get(spc.FreeListEmpty); pops != 0 && pops != sn.Get(spc.MessagesSent) {
		t.Errorf("%s: freelist_acquires + freelist_empty = %d for %d messages sent", engine, pops, sn.Get(spc.MessagesSent))
	}
	if calls := sn.Get(spc.ProgressCalls); calls < 1 {
		t.Errorf("%s: progress_calls = %d", engine, calls)
	}
	if fail, steal := sn.Get(spc.ProgressTryLockFail), sn.Get(spc.ProgressStealLosses); steal > fail {
		t.Errorf("%s: progress_steal_losses %d > progress_trylock_fail %d", engine, steal, fail)
	}
}
