package simnet

import (
	"testing"

	"repro/internal/bench/multirate"
	"repro/internal/bench/rmamt"
	"repro/internal/core"
	"repro/internal/cri"
	"repro/internal/hw"
	"repro/internal/progress"
)

// Shape tests: each asserts one qualitative claim from the paper's
// evaluation at its operating point, so a model regression that silently
// breaks a reproduced result fails the suite.

func fig4Cfg(pairs, instances int, prog progress.Mode) multirate.Config {
	return multirate.Config{
		Machine: hw.AlembertHaswell(), Pairs: pairs, Window: 128, Iters: 6,
		Opts:       core.Options{NumInstances: instances, Assignment: cri.Dedicated, Progress: prog},
		Overtaking: true, AnyTag: true,
	}
}

// TestFig4aSingleInstanceFlattens: "the message rate flattens out ... and
// remains unchanged with an increasing number of threads" (Section IV-D).
func TestFig4aSingleInstanceFlattens(t *testing.T) {
	r10 := RunMultirate(fig4Cfg(10, 1, progress.Serial), Model{})
	r20 := RunMultirate(fig4Cfg(20, 1, progress.Serial), Model{})
	ratio := r20.Rate / r10.Rate
	if ratio < 0.6 || ratio > 1.67 {
		t.Fatalf("single-instance overtaking rate did not flatten: %0.f vs %0.f", r10.Rate, r20.Rate)
	}
}

// TestFig4aInstancesStillHelpSenderSide: multiple instances lift the
// overtaking configuration well above the single instance.
func TestFig4aInstancesStillHelpSenderSide(t *testing.T) {
	single := RunMultirate(fig4Cfg(20, 1, progress.Serial), Model{})
	multi := RunMultirate(fig4Cfg(20, 20, progress.Serial), Model{})
	if multi.Rate < 2*single.Rate {
		t.Fatalf("instances did not help under overtaking: %.0f vs %.0f", multi.Rate, single.Rate)
	}
}

// TestFig6SerialConcurrentEquivalentForRMA: "there appears to be little
// benefit from concurrent progress in this configuration" (Section IV-F).
func TestFig6SerialConcurrentEquivalentForRMA(t *testing.T) {
	base := rmamt.Config{
		Machine: hw.TrinititeHaswell(), Threads: 16, MsgSize: 128,
		Opts:          core.Options{NumInstances: hw.TrinititeHaswell().DefaultContexts, Assignment: cri.Dedicated},
		PutsPerThread: 200, Rounds: 2,
	}
	serial := RunRMAMT(base, Model{})
	base.Opts.Progress = progress.Concurrent
	conc := RunRMAMT(base, Model{})
	ratio := conc.Rate / serial.Rate
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("serial (%.0f) vs concurrent (%.0f) RMA diverged beyond 10%%", serial.Rate, conc.Rate)
	}
}

// TestFig7KNLSlowerPerThread: a single KNL thread achieves a fraction of a
// Haswell thread's put rate (slower cores), while the 64-thread aggregate
// still reaches the same order of magnitude.
func TestFig7KNLSlowerPerThread(t *testing.T) {
	has := RunRMAMT(rmamt.Config{
		Machine: hw.TrinititeHaswell(), Threads: 1, MsgSize: 8,
		Opts:          core.Options{NumInstances: hw.TrinititeHaswell().DefaultContexts, Assignment: cri.Dedicated},
		PutsPerThread: 200, Rounds: 2,
	}, Model{})
	knl := RunRMAMT(rmamt.Config{
		Machine: hw.TrinititeKNL(), Threads: 1, MsgSize: 8,
		Opts:          core.Options{NumInstances: hw.TrinititeKNL().DefaultContexts, Assignment: cri.Dedicated},
		PutsPerThread: 200, Rounds: 2,
	}, Model{})
	if knl.Rate >= has.Rate*0.75 {
		t.Fatalf("KNL single thread (%.0f) not clearly slower than Haswell (%.0f)", knl.Rate, has.Rate)
	}
	knl64 := RunRMAMT(rmamt.Config{
		Machine: hw.TrinititeKNL(), Threads: 64, MsgSize: 8,
		Opts:          core.Options{NumInstances: hw.TrinititeKNL().DefaultContexts, Assignment: cri.Dedicated},
		PutsPerThread: 100, Rounds: 1,
	}, Model{})
	if knl64.Rate < 10e6 {
		t.Fatalf("KNL 64-thread aggregate only %.0f puts/s", knl64.Rate)
	}
}

// TestHashMatchingLiftsSerialCeiling: the matching extension's headline in
// the model (EXPERIMENTS.md "Extension — matching on an asserted
// communicator"): a communicator asserting no wildcards matches on hash
// shards, which lifts the serial-progress ceiling of list matching.
func TestHashMatchingLiftsSerialCeiling(t *testing.T) {
	base := multirate.Config{
		Machine: hw.AlembertHaswell(), Pairs: 20, Window: 128, Iters: 6,
		Opts: core.Options{NumInstances: 20, Assignment: cri.Dedicated, Progress: progress.Serial},
	}
	list := RunMultirate(base, Model{})
	asserted := base
	asserted.NoWildcards = true
	hash := RunMultirate(asserted, Model{})
	if hash.Rate < list.Rate*1.3 {
		t.Fatalf("sharded matching (%.0f) did not lift the serial ceiling (list %.0f)", hash.Rate, list.Rate)
	}
}
