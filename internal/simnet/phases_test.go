package simnet

import (
	"encoding/json"
	"testing"

	"repro/internal/bench/rmamt"
	"repro/internal/core"
	"repro/internal/cri"
	"repro/internal/hw"
	"repro/internal/prof"
	"repro/internal/progress"
	"repro/internal/spc"
)

// totals sums one rank's thread clocks: its wall time, its per-phase
// times, and the exclusive-phase total.
func totals(b prof.RankSnapshot) (wall int64, phases prof.PhaseTotals, sum int64) {
	for _, th := range b.Snap.Threads {
		wall += th.WallNs
		phases.Merge(th.Phases)
	}
	for _, v := range phases {
		sum += v
	}
	return wall, phases, sum
}

// TestBreakdownPhasesSumToWall: in virtual time the decomposition is exact —
// every simulated nanosecond of a thread's life lands in exactly one phase,
// so Σ(phases) equals the summed wall time, not merely approximates it.
func TestBreakdownPhasesSumToWall(t *testing.T) {
	for _, pm := range []progress.Mode{progress.Serial, progress.Concurrent} {
		cfg := baseCfg(8)
		cfg.Opts.Progress = pm
		res := RunMultirate(cfg, Model{})
		if len(res.Breakdown) != 2 {
			t.Fatalf("progress=%v: %d breakdowns, want 2", pm, len(res.Breakdown))
		}
		for _, b := range res.Breakdown {
			wall, _, got := totals(b)
			if wall <= 0 {
				t.Fatalf("progress=%v rank %d: wall %d, want > 0", pm, b.Rank, wall)
			}
			if got != wall {
				t.Errorf("progress=%v rank %d: phases sum %d != wall %d", pm, b.Rank, got, wall)
			}
		}
	}
}

func TestBreakdownProcessModePhasesSumToWall(t *testing.T) {
	cfg := baseCfg(4)
	cfg.ProcessMode = true
	res := RunMultirate(cfg, Model{})
	for _, b := range res.Breakdown {
		if wall, _, got := totals(b); got != wall || wall <= 0 {
			t.Errorf("rank %d: phases sum %d, wall %d", b.Rank, got, wall)
		}
	}
}

// aggLockShare is lock-wait time over wall time summed across ranks.
func aggLockShare(res Result) float64 {
	var lock, wall int64
	for _, b := range res.Breakdown {
		w, phases, _ := totals(b)
		lock += phases[prof.PhaseLockWait]
		wall += w
	}
	return float64(lock) / float64(wall)
}

// TestSerialProgressAttributesMoreLockWait is the profiler's acceptance
// property: with everything else fixed at the full design (dedicated CRIs,
// communicator per pair), serial progress funnels completion polling through
// blocking lock acquisitions and must attribute a strictly larger lock-wait
// share than concurrent progress at 8 threads, on the same seed. The
// concurrent engine turns those blocking waits into try-lock steal losses,
// which the ProgressStealLosses counter makes visible instead.
func TestSerialProgressAttributesMoreLockWait(t *testing.T) {
	run := func(pm progress.Mode) Result {
		cfg := baseCfg(8)
		cfg.Opts.NumInstances = 8
		cfg.Opts.Assignment = cri.Dedicated
		cfg.CommPerPair = true
		cfg.Opts.Progress = pm
		return RunMultirate(cfg, Model{})
	}
	serial, conc := run(progress.Serial), run(progress.Concurrent)
	ss, cs := aggLockShare(serial), aggLockShare(conc)
	if !(ss > cs) {
		t.Fatalf("serial lock-wait share %.4f not strictly above concurrent %.4f", ss, cs)
	}
	if serial.SPCs[spc.ProgressStealLosses] != 0 {
		t.Errorf("serial progress recorded %d steal losses, want 0", serial.SPCs[spc.ProgressStealLosses])
	}

	// The single-CRI variant shows the same ordering on the sender rank,
	// where the serial progress winner blocks senders on the shared
	// instance lock.
	runOne := func(pm progress.Mode) Result {
		cfg := baseCfg(8)
		cfg.Opts.Progress = pm
		return RunMultirate(cfg, Model{})
	}
	s1, c1 := runOne(progress.Serial), runOne(progress.Concurrent)
	senderShare := func(res Result) float64 {
		wall, phases, _ := totals(res.Breakdown[0])
		return float64(phases[prof.PhaseLockWait]) / float64(wall)
	}
	sShare, cShare := senderShare(s1), senderShare(c1)
	if !(sShare > cShare) {
		t.Fatalf("single-CRI sender: serial share %.4f not above concurrent %.4f", sShare, cShare)
	}
	if c1.SPCs[spc.ProgressStealLosses] == 0 {
		t.Error("concurrent progress with contention recorded no steal losses")
	}
}

// TestBreakdownDeterministic: the breakdown is part of the reproducible
// surface — identical configs must produce byte-identical reports.
func TestBreakdownDeterministic(t *testing.T) {
	run := func() []byte {
		cfg := baseCfg(6)
		cfg.Opts.Progress = progress.Concurrent
		cfg.Opts.NumInstances = 4
		res := RunMultirate(cfg, Model{})
		reports := make([]prof.Report, len(res.Breakdown))
		for i, b := range res.Breakdown {
			reports[i] = prof.BuildReport(b.Rank, "test", 6, b.Snap)
		}
		b, err := json.Marshal(reports)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatal("two identical runs produced different breakdowns")
	}
}

// TestBreakdownSitesNamed: the virtual model binds the same site names the
// real runtime does, so reports are comparable across engines.
func TestBreakdownSitesNamed(t *testing.T) {
	cfg := baseCfg(4)
	cfg.Opts.NumInstances = 2
	res := RunMultirate(cfg, Model{})
	want := map[string]bool{"cri.instance": false, "progress.serial": false, "match.comm": false}
	for _, b := range res.Breakdown {
		for _, s := range b.Snap.Sites {
			if _, ok := want[s.Name]; ok {
				want[s.Name] = true
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("site %q missing from breakdown", name)
		}
	}
}

// TestBreakdownSitesRecordThroughTheMutex: the model's sites fill through
// prof.Mutex over virtual locks, as the runtime's do, so a contended run
// shows what sim.Lock never tracked — cri.instance try failures (the
// concurrent sweep's losses) and a max wait — and, hold time being measured
// on the host alone, no hold time anywhere.
func TestBreakdownSitesRecordThroughTheMutex(t *testing.T) {
	cfg := baseCfg(8)
	cfg.Opts.NumInstances = 2
	cfg.Opts.Progress = progress.Concurrent
	res := RunMultirate(cfg, Model{})
	var tryFails, maxWait int64
	for _, b := range res.Breakdown {
		for _, s := range b.Snap.Sites {
			if s.HoldNs != 0 {
				t.Errorf("rank %d site %s[cri=%d comm=%d]: hold_ns %d, want 0 in virtual time", b.Rank, s.Name, s.CRI, s.Comm, s.HoldNs)
			}
			if s.MaxWaitNs > s.WaitNs || s.Contended > s.Acquisitions {
				t.Errorf("rank %d site %+v: max wait above total or contended above acquisitions", b.Rank, s)
			}
			if s.Name == "cri.instance" {
				tryFails += s.TryFailures
				maxWait = max(maxWait, s.MaxWaitNs)
			}
		}
	}
	if tryFails == 0 || maxWait == 0 {
		t.Fatalf("cri.instance try failures %d, max wait %d: want both > 0 in a contended run", tryFails, maxWait)
	}
}

// TestRMAMTBreakdown: the one-sided benchmark carries a breakdown too.
// (The Haswell model, not hw.Fast(): Fast's RMA costs round to zero virtual
// nanoseconds, which would make a zero wall time correct but vacuous.)
func TestRMAMTBreakdown(t *testing.T) {
	res := RunRMAMT(rmamt.Config{
		Machine: hw.AlembertHaswell(), Threads: 4, MsgSize: 8,
		PutsPerThread: 50, Rounds: 2,
		Opts: core.Options{NumInstances: hw.AlembertHaswell().DefaultContexts, Assignment: cri.Dedicated, Progress: progress.Concurrent},
	}, Model{})
	if len(res.Breakdown) != 1 {
		t.Fatalf("%d breakdowns, want 1", len(res.Breakdown))
	}
	wall, phases, got := totals(res.Breakdown[0])
	if got != wall || wall <= 0 {
		t.Fatalf("phases sum %d, wall %d", got, wall)
	}
	if phases[prof.PhaseWire] == 0 {
		t.Error("RMA put burst charged no wire time")
	}
}
