package simnet

import (
	"testing"

	"repro/internal/bench/multirate"
	"repro/internal/bench/rmamt"
	"repro/internal/core"
	"repro/internal/cri"
	"repro/internal/hw"
	"repro/internal/progress"
	"repro/internal/spc"
)

func baseCfg(pairs int) multirate.Config {
	return multirate.Config{
		Machine: hw.AlembertHaswell(),
		Pairs:   pairs,
		Window:  64,
		Iters:   4,
	}
}

func TestMultirateCompletesAndCounts(t *testing.T) {
	cfg := baseCfg(2)
	res := RunMultirate(cfg, Model{})
	want := int64(2 * 64 * 4)
	if res.Messages != want {
		t.Fatalf("Messages = %d, want %d", res.Messages, want)
	}
	if res.Makespan <= 0 || res.Rate <= 0 {
		t.Fatalf("Makespan = %v, Rate = %v", res.Makespan, res.Rate)
	}
	if got := res.SPCs.Get(spc.MessagesReceived); got != want {
		t.Fatalf("messages_received = %d, want %d", got, want)
	}
}

func TestMultirateDeterministic(t *testing.T) {
	cfg := baseCfg(4)
	a := RunMultirate(cfg, Model{})
	b := RunMultirate(cfg, Model{})
	if a.Makespan != b.Makespan {
		t.Fatalf("nondeterministic makespan: %v vs %v", a.Makespan, b.Makespan)
	}
	if a.SPCs.Get(spc.OutOfSequence) != b.SPCs.Get(spc.OutOfSequence) {
		t.Fatal("nondeterministic OOS count")
	}
}

func TestDedicatedInstancesBeatSingleInstance(t *testing.T) {
	// Fig. 3a: with serial progress, 20 dedicated instances must beat the
	// single shared instance at the paper's operating point (20 thread
	// pairs, window 128).
	single := baseCfg(20)
	single.Window = 128
	single.Opts.NumInstances = 1
	multi := baseCfg(20)
	multi.Window = 128
	multi.Opts.NumInstances = 20
	multi.Opts.Assignment = cri.Dedicated
	rs, rm := RunMultirate(single, Model{}), RunMultirate(multi, Model{})
	if rm.Rate <= rs.Rate {
		t.Fatalf("dedicated (%.0f msg/s) did not beat single instance (%.0f msg/s)", rm.Rate, rs.Rate)
	}
}

func TestConcurrentProgressHurtsOnSharedComm(t *testing.T) {
	// Fig. 3b: concurrent progress with a single communicator must NOT
	// beat serial progress — the matching lock funnels everything.
	serial := baseCfg(16)
	serial.Opts.NumInstances = 16
	serial.Opts.Assignment = cri.Dedicated
	serial.Opts.Progress = progress.Serial
	conc := serial
	conc.Opts.Progress = progress.Concurrent
	rs, rc := RunMultirate(serial, Model{}), RunMultirate(conc, Model{})
	if rc.Rate > rs.Rate*1.15 {
		t.Fatalf("concurrent progress (%.0f) substantially beat serial (%.0f) on a shared communicator", rc.Rate, rs.Rate)
	}
	// Table II: match time grows under concurrent progress.
	if rc.SPCs.MatchTime() <= rs.SPCs.MatchTime() {
		t.Fatalf("match time did not grow: serial %v, concurrent %v",
			rs.SPCs.MatchTime(), rc.SPCs.MatchTime())
	}
}

func TestCommPerPairUnlocksConcurrentMatching(t *testing.T) {
	// Fig. 3c: comm-per-pair + concurrent progress + dedicated instances
	// must clearly beat the stock configuration.
	stock := baseCfg(16)
	best := baseCfg(16)
	best.Opts.NumInstances = 16
	best.Opts.Assignment = cri.Dedicated
	best.Opts.Progress = progress.Concurrent
	best.CommPerPair = true
	r0, r1 := RunMultirate(stock, Model{}), RunMultirate(best, Model{})
	if r1.Rate < r0.Rate*2 {
		t.Fatalf("concurrent matching (%.0f) not >= 2x stock (%.0f)", r1.Rate, r0.Rate)
	}
}

func TestOOSCollapsesWithCommPerPairAndDedicated(t *testing.T) {
	// Table II: shared comm -> massive OOS; comm-per-pair with one
	// instance per pair -> zero OOS.
	shared := baseCfg(8)
	shared.Opts.NumInstances = 8
	shared.Opts.Assignment = cri.Dedicated
	shared.Opts.Progress = progress.Concurrent
	perPair := shared
	perPair.CommPerPair = true
	rs, rp := RunMultirate(shared, Model{}), RunMultirate(perPair, Model{})
	if pct := rs.SPCs.OutOfSequencePercent(); pct < 20 {
		t.Fatalf("shared-comm OOS%% = %.1f, want large", pct)
	}
	if got := rp.SPCs.Get(spc.OutOfSequence); got != 0 {
		t.Fatalf("comm-per-pair dedicated OOS = %d, want 0", got)
	}
}

func TestOvertakingEliminatesOOS(t *testing.T) {
	cfg := baseCfg(8)
	cfg.Opts.NumInstances = 8
	cfg.Opts.Assignment = cri.Dedicated
	cfg.Overtaking = true
	cfg.AnyTag = true
	res := RunMultirate(cfg, Model{})
	if got := res.SPCs.Get(spc.OutOfSequence); got != 0 {
		t.Fatalf("overtaking OOS = %d, want 0", got)
	}
	if res.Messages != 8*64*4 {
		t.Fatalf("Messages = %d", res.Messages)
	}
}

func TestProcessModeBeatsThreadMode(t *testing.T) {
	// Fig. 5's headline: process mode far outpaces stock thread mode.
	thread := baseCfg(8)
	proc := baseCfg(8)
	proc.ProcessMode = true
	rt, rp := RunMultirate(thread, Model{}), RunMultirate(proc, Model{})
	if rp.Rate <= rt.Rate {
		t.Fatalf("process mode (%.0f) did not beat thread mode (%.0f)", rp.Rate, rt.Rate)
	}
}

func TestBigLockClustersWithStock(t *testing.T) {
	// Fig. 5: the stock thread modes of all implementations — per-object
	// locks or one big lock — cluster similarly poorly, far below process
	// mode.
	stock := baseCfg(8)
	proc := baseCfg(8)
	proc.ProcessMode = true
	rs, rb, rp := RunMultirate(stock, Model{}), RunMultirate(stock, Model{BigLock: true}), RunMultirate(proc, Model{})
	if rb.Rate > rs.Rate*1.5 || rs.Rate > rb.Rate*3 {
		t.Fatalf("big-lock (%.0f) and stock (%.0f) do not cluster", rb.Rate, rs.Rate)
	}
	if rp.Rate < 2*rb.Rate {
		t.Fatalf("process mode (%.0f) not well above big-lock (%.0f)", rp.Rate, rb.Rate)
	}
}

func TestSinglePairSane(t *testing.T) {
	res := RunMultirate(baseCfg(1), Model{})
	// One pair on Haswell should land in the paper's ballpark
	// (hundreds of K to a few M msg/s).
	if res.Rate < 1e5 || res.Rate > 3e7 {
		t.Fatalf("single-pair rate = %.0f msg/s, outside sanity band", res.Rate)
	}
}

func TestRMAMTDedicatedScales(t *testing.T) {
	base := rmamt.Config{
		Machine:       hw.TrinititeHaswell(),
		Threads:       1,
		MsgSize:       1,
		PutsPerThread: 200,
		Rounds:        2,
		Opts:          core.Options{NumInstances: hw.TrinititeHaswell().DefaultContexts, Assignment: cri.Dedicated},
	}
	r1 := RunRMAMT(base, Model{})
	base.Threads = 8
	r8 := RunRMAMT(base, Model{})
	if r8.Rate < r1.Rate*4 {
		t.Fatalf("dedicated RMA did not scale: 1T %.0f vs 8T %.0f", r1.Rate, r8.Rate)
	}
}

func TestRMAMTSingleInstanceFlat(t *testing.T) {
	base := rmamt.Config{
		Machine:       hw.TrinititeHaswell(),
		Threads:       1,
		MsgSize:       1,
		PutsPerThread: 200,
		Rounds:        2,
		Opts:          core.Options{NumInstances: 1},
	}
	r1 := RunRMAMT(base, Model{})
	base.Threads = 16
	r16 := RunRMAMT(base, Model{})
	if r16.Rate > r1.Rate*2 {
		t.Fatalf("single-instance RMA scaled unexpectedly: 1T %.0f vs 16T %.0f", r1.Rate, r16.Rate)
	}
}

func TestRMAMTDedicatedBeatsRoundRobin(t *testing.T) {
	cfg := rmamt.Config{
		Machine:       hw.TrinititeHaswell(),
		Threads:       16,
		MsgSize:       128,
		PutsPerThread: 200,
		Rounds:        2,
		Opts:          core.Options{NumInstances: hw.TrinititeHaswell().DefaultContexts, Assignment: cri.Dedicated},
	}
	rd := RunRMAMT(cfg, Model{})
	cfg.Opts.Assignment = cri.RoundRobin
	rr := RunRMAMT(cfg, Model{})
	if rd.Rate <= rr.Rate {
		t.Fatalf("dedicated (%.0f) did not beat round-robin (%.0f)", rd.Rate, rr.Rate)
	}
}

func TestRMAMTLargeSizeBandwidthBound(t *testing.T) {
	m := hw.TrinititeHaswell()
	cfg := rmamt.Config{
		Machine:       m,
		Threads:       32,
		MsgSize:       16384,
		PutsPerThread: 100,
		Rounds:        2,
		Opts:          core.Options{NumInstances: m.DefaultContexts, Assignment: cri.Dedicated},
	}
	res := RunRMAMT(cfg, Model{})
	peak := m.PeakMessageRate(16384)
	if res.Rate > peak*1.05 {
		t.Fatalf("rate %.0f exceeds theoretical peak %.0f", res.Rate, peak)
	}
	if res.Rate < peak*0.5 {
		t.Fatalf("32 dedicated threads at 16 KiB reached only %.0f of peak %.0f", res.Rate, peak)
	}
}

func TestRMAMTCountsPuts(t *testing.T) {
	cfg := rmamt.Config{
		Machine:       hw.TrinititeKNL(),
		Threads:       4,
		MsgSize:       8,
		PutsPerThread: 50,
		Rounds:        3,
		Opts:          core.Options{NumInstances: hw.TrinititeKNL().DefaultContexts, Assignment: cri.Dedicated},
	}
	res := RunRMAMT(cfg, Model{})
	if res.Messages != 4*50*3 {
		t.Fatalf("Messages = %d, want %d", res.Messages, 4*50*3)
	}
	if got := res.SPCs.Get(spc.PutsIssued); got != 600 {
		t.Fatalf("puts_issued = %d, want 600", got)
	}
	if got := res.SPCs.Get(spc.FlushCalls); got != 12 {
		t.Fatalf("flush_calls = %d, want 12", got)
	}
}
