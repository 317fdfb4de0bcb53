package simnet

import (
	"testing"

	"repro/internal/bench/multirate"
	"repro/internal/cri"
	"repro/internal/progress"
	"repro/internal/spc"
)

// lockFreeCfg is the sim mirror of the lock-free hot-path design: one
// communicator asserting no wildcards (sharded matching), free-list instance
// acquisition, concurrent progress.
func lockFreeCfg(pairs int) multirate.Config {
	cfg := baseCfg(pairs)
	cfg.Opts.NumInstances = pairs
	cfg.Opts.Assignment = cri.FreeList
	cfg.Opts.Progress = progress.Concurrent
	cfg.NoWildcards = true
	return cfg
}

func TestLockFreeCompletesAndCounts(t *testing.T) {
	cfg := lockFreeCfg(4)
	res := RunMultirate(cfg, Model{})
	want := int64(4 * 64 * 4)
	if res.Messages != want {
		t.Fatalf("Messages = %d, want %d", res.Messages, want)
	}
	if got := res.SPCs.Get(spc.MessagesReceived); got != want {
		t.Fatalf("messages_received = %d, want %d", got, want)
	}
	if got := res.SPCs.Get(spc.FreeListAcquires); got == 0 {
		t.Fatal("free-list assignment never recorded an acquisition")
	}
}

func TestLockFreeDeterministic(t *testing.T) {
	cfg := lockFreeCfg(8)
	a, b := RunMultirate(cfg, Model{}), RunMultirate(cfg, Model{})
	if a.Makespan != b.Makespan {
		t.Fatalf("nondeterministic makespan: %v vs %v", a.Makespan, b.Makespan)
	}
	if a.SPCs.Get(spc.OutOfSequence) != b.SPCs.Get(spc.OutOfSequence) {
		t.Fatal("nondeterministic OOS count")
	}
	if a.SPCs.Get(spc.FreeListAcquires) != b.SPCs.Get(spc.FreeListAcquires) {
		t.Fatal("nondeterministic free-list accounting")
	}
}

// TestLockFreeBeatsLockedAtScale: at the paper's 20-pair operating point,
// with every pair on ONE shared communicator, the lock-free hot paths must
// crush the equivalent locked design — single-lock matching serializes all
// 20 pairs, while sharded matching and free-list instances let them
// proceed. It
// must also land within striking distance of the comm-per-pair CRIs*
// configuration, which is the whole point: concurrent matching without
// restructuring the application.
func TestLockFreeBeatsLockedAtScale(t *testing.T) {
	locked := baseCfg(20)
	locked.Window = 128
	locked.Opts.NumInstances = 20
	locked.Opts.Assignment = cri.Dedicated
	locked.Opts.Progress = progress.Concurrent

	free := lockFreeCfg(20)
	free.Window = 128

	commPerPair := baseCfg(20)
	commPerPair.Window = 128
	commPerPair.Opts.NumInstances = 20
	commPerPair.Opts.Assignment = cri.Dedicated
	commPerPair.Opts.Progress = progress.Concurrent
	commPerPair.CommPerPair = true

	rl, rf, rc := RunMultirate(locked, Model{}), RunMultirate(free, Model{}), RunMultirate(commPerPair, Model{})
	if rf.Rate < 4*rl.Rate {
		t.Fatalf("lock-free single-comm design did not crush the locked one: %.0f msg/s vs locked %.0f msg/s", rf.Rate, rl.Rate)
	}
	if rf.Rate < 0.9*rc.Rate {
		t.Fatalf("lock-free single-comm design (%.0f msg/s) fell below 90%% of comm-per-pair CRIs* (%.0f msg/s)", rf.Rate, rc.Rate)
	}
}
