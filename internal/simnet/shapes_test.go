package simnet

import (
	"testing"

	"repro/internal/cri"
	"repro/internal/hw"
	"repro/internal/progress"
)

// Shape tests: each asserts one qualitative claim from the paper's
// evaluation at its operating point, so a model regression that silently
// breaks a reproduced result fails the suite.

func fig4Cfg(pairs, instances int, prog progress.Mode) Config {
	return Config{
		Machine: hw.AlembertHaswell(), Pairs: pairs, Window: 128, Iters: 6,
		NumInstances: instances, Assignment: cri.Dedicated, Progress: prog,
		AllowOvertaking: true, AnyTagRecv: true,
	}
}

// TestFig4aSingleInstanceFlattens: "the message rate flattens out ... and
// remains unchanged with an increasing number of threads" (Section IV-D).
func TestFig4aSingleInstanceFlattens(t *testing.T) {
	r10 := RunMultirate(fig4Cfg(10, 1, progress.Serial))
	r20 := RunMultirate(fig4Cfg(20, 1, progress.Serial))
	ratio := r20.Rate / r10.Rate
	if ratio < 0.6 || ratio > 1.67 {
		t.Fatalf("single-instance overtaking rate did not flatten: %0.f vs %0.f", r10.Rate, r20.Rate)
	}
}

// TestFig4aInstancesStillHelpSenderSide: multiple instances lift the
// overtaking configuration well above the single instance.
func TestFig4aInstancesStillHelpSenderSide(t *testing.T) {
	single := RunMultirate(fig4Cfg(20, 1, progress.Serial))
	multi := RunMultirate(fig4Cfg(20, 20, progress.Serial))
	if multi.Rate < 2*single.Rate {
		t.Fatalf("instances did not help under overtaking: %.0f vs %.0f", multi.Rate, single.Rate)
	}
}

// TestFig6SerialConcurrentEquivalentForRMA: "there appears to be little
// benefit from concurrent progress in this configuration" (Section IV-F).
func TestFig6SerialConcurrentEquivalentForRMA(t *testing.T) {
	base := RMAMTConfig{
		Machine: hw.TrinititeHaswell(), Threads: 16, MsgSize: 128,
		PutsPerThread: 200, Rounds: 2, Assignment: cri.Dedicated,
	}
	serial := RunRMAMT(base)
	base.Progress = progress.Concurrent
	conc := RunRMAMT(base)
	ratio := conc.Rate / serial.Rate
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("serial (%.0f) vs concurrent (%.0f) RMA diverged beyond 10%%", serial.Rate, conc.Rate)
	}
}

// TestFig7KNLSlowerPerThread: a single KNL thread achieves a fraction of a
// Haswell thread's put rate (slower cores), while the 64-thread aggregate
// still reaches the same order of magnitude.
func TestFig7KNLSlowerPerThread(t *testing.T) {
	has := RunRMAMT(RMAMTConfig{
		Machine: hw.TrinititeHaswell(), Threads: 1, MsgSize: 8,
		PutsPerThread: 200, Rounds: 2, Assignment: cri.Dedicated,
	})
	knl := RunRMAMT(RMAMTConfig{
		Machine: hw.TrinititeKNL(), Threads: 1, MsgSize: 8,
		PutsPerThread: 200, Rounds: 2, Assignment: cri.Dedicated,
	})
	if knl.Rate >= has.Rate*0.75 {
		t.Fatalf("KNL single thread (%.0f) not clearly slower than Haswell (%.0f)", knl.Rate, has.Rate)
	}
	knl64 := RunRMAMT(RMAMTConfig{
		Machine: hw.TrinititeKNL(), Threads: 64, MsgSize: 8,
		PutsPerThread: 100, Rounds: 1, Assignment: cri.Dedicated,
	})
	if knl64.Rate < 10e6 {
		t.Fatalf("KNL 64-thread aggregate only %.0f puts/s", knl64.Rate)
	}
}

// TestHashMatchingLiftsSerialCeiling: the matching extension's headline in
// the model (EXPERIMENTS.md "Extension — matching on an asserted
// communicator"): a communicator asserting no wildcards matches on hash
// shards, which lifts the serial-progress ceiling of list matching.
func TestHashMatchingLiftsSerialCeiling(t *testing.T) {
	base := Config{
		Machine: hw.AlembertHaswell(), Pairs: 20, Window: 128, Iters: 6,
		NumInstances: 20, Assignment: cri.Dedicated, Progress: progress.Serial,
	}
	list := RunMultirate(base)
	asserted := base
	asserted.NoWildcards = true
	hash := RunMultirate(asserted)
	if hash.Rate < list.Rate*1.3 {
		t.Fatalf("sharded matching (%.0f) did not lift the serial ceiling (list %.0f)", hash.Rate, list.Rate)
	}
}
