package rmamt

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cri"
	"repro/internal/hw"
	"repro/internal/spc"
)

func TestSingleThreadCompletes(t *testing.T) {
	res, err := Run(Config{
		Machine: hw.Fast(), Opts: core.Stock(),
		Threads: 1, MsgSize: 8, PutsPerThread: 50, Rounds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Puts != 100 {
		t.Fatalf("Puts = %d, want 100", res.Puts)
	}
	if got := res.SPCs.Get(spc.PutsIssued); got != 100 {
		t.Fatalf("puts_issued = %d", got)
	}
	if got := res.SPCs.Get(spc.FlushCalls); got < 2 {
		t.Fatalf("flush_calls = %d, want >= 2", got)
	}
}

func TestMultiThreadDisjointOffsets(t *testing.T) {
	configs := []core.Options{
		core.Stock(),
		core.CRIsConcurrent(4, cri.Dedicated),
		core.CRIsConcurrent(4, cri.RoundRobin),
	}
	for i, o := range configs {
		res, err := Run(Config{
			Machine: hw.Fast(), Opts: o,
			Threads: 4, MsgSize: 32, PutsPerThread: 25, Rounds: 2,
		})
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if res.Puts != 200 {
			t.Fatalf("config %d: Puts = %d", i, res.Puts)
		}
	}
}

func TestDefaults(t *testing.T) {
	res, err := Run(Config{Machine: hw.Fast(), Opts: core.Stock(), PutsPerThread: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Puts != 10 { // 1 thread x 10 puts x 1 round
		t.Fatalf("Puts = %d", res.Puts)
	}
}

// TestSamplesCarryProfiler: with Profile on, the origin's samples carry the
// profiler's thread clocks, the phase-breakdown counter track's input.
func TestSamplesCarryProfiler(t *testing.T) {
	opts := core.Stock()
	opts.Profile = true
	res, err := Run(Config{
		Machine: hw.Fast(), Opts: opts, SampleInterval: time.Millisecond,
		Threads: 2, MsgSize: 8, PutsPerThread: 50, Rounds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Samples {
		if len(s.Prof.Threads) > 0 {
			return
		}
	}
	t.Fatalf("none of %d samples carries profiler threads", len(res.Samples))
}
