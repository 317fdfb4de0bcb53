package figures

import (
	"fmt"
	"time"

	"repro/internal/bench/multirate"
	"repro/internal/core"
	"repro/internal/cri"
	"repro/internal/hw"
	"repro/internal/progress"
	"repro/internal/simnet"
)

// Ablations isolate the model's load-bearing mechanisms — the design
// choices DESIGN.md calls out. Each sweeps one knob with everything else at
// defaults, reporting both the message rate and the out-of-sequence share
// so the mechanism's contribution to the paper's phenomena is visible.

// ablationPoint runs one multirate configuration and reports rate + OOS%.
func ablationPoint(cfg multirate.Config, m simnet.Model) (rate, oosPct float64) {
	res := simnet.RunMultirate(cfg, m)
	return res.Rate, res.SPCs.OutOfSequencePercent()
}

func ablationBase(sc Scale) multirate.Config {
	return multirate.Config{
		Machine: hw.AlembertHaswell(), Pairs: 20, Window: sc.Window, Iters: sc.Iters,
		Opts: core.Options{NumInstances: 20, Assignment: cri.Dedicated, Progress: progress.Serial},
	}
}

// AblationJitter sweeps the send-path jitter span. Finding: at realistic
// (deep) eager-credit settings, OOS stays high even with near-zero jitter —
// the dominant reordering source is batched extraction from deep per-context
// queues, not injection-time variability; jitter only adds a few points at
// the top. (At shallow credits — see AblationCredits — the balance flips.)
func AblationJitter(sc Scale) Table {
	spans := []time.Duration{0, 150 * time.Nanosecond, 600 * time.Nanosecond, 2400 * time.Nanosecond}
	t := Table{
		Title:  "Ablation — send-path jitter vs out-of-sequence rate",
		XLabel: "by jitter span (ns)",
		Notes:  "20 pairs, 20 dedicated instances, serial progress",
	}
	var rates, oos []float64
	for _, span := range spans {
		t.XS = append(t.XS, int(span.Nanoseconds()))
		m := simnet.Model{SendJitter: span}
		if span == 0 {
			m.SendJitter = time.Nanosecond // ~zero (0 selects the default)
		}
		r, o := ablationPoint(ablationBase(sc), m)
		rates = append(rates, r)
		oos = append(oos, o)
	}
	t.Rows = []Row{{Label: "msg/s", Values: rates}, {Label: "OOS %", Values: oos}}
	return t
}

// AblationCredits sweeps the eager flow-control depth. Shallow credits pace
// senders into near-order (low OOS, higher rate); deep credits let senders
// run far ahead, recreating the paper's 85%+ OOS and its buffering cost.
func AblationCredits(sc Scale) Table {
	depths := []int{64, 192, 1024, 4096, 16384}
	t := Table{
		Title:  "Ablation — eager credits vs OOS and rate",
		XLabel: "by credit depth",
		XS:     depths,
		Notes:  "20 pairs, 20 dedicated instances, serial progress",
	}
	var rates, oos []float64
	for _, d := range depths {
		cfg := ablationBase(sc)
		cfg.Opts.QueueDepth = 32768 // keep hardware back-pressure out of the sweep
		r, o := ablationPoint(cfg, simnet.Model{Credits: d})
		rates = append(rates, r)
		oos = append(oos, o)
	}
	t.Rows = []Row{{Label: "msg/s", Values: rates}, {Label: "OOS %", Values: oos}}
	return t
}

// AblationConvoy sweeps the futex-wake (convoy) penalty on the
// single-instance configuration. Without it the single shared instance
// stops collapsing and Figure 3a's base line flattens instead of degrading
// — the convoy model carries the paper's core single-instance result.
func AblationConvoy(sc Scale) Table {
	penalties := []time.Duration{time.Nanosecond, 500 * time.Nanosecond, 2 * time.Microsecond, 8 * time.Microsecond}
	t := Table{
		Title:  "Ablation — lock convoy (futex wake) penalty, single instance",
		XLabel: "by sleep penalty (ns)",
		Notes:  "20 pairs, 1 shared instance, serial progress",
	}
	var rates []float64
	for _, p := range penalties {
		t.XS = append(t.XS, int(p.Nanoseconds()))
		cfg := ablationBase(sc)
		cfg.Opts.NumInstances = 1
		r, _ := ablationPoint(cfg, simnet.Model{SleepPenalty: p})
		rates = append(rates, r)
	}
	t.Rows = []Row{{Label: "msg/s", Values: rates}}
	return t
}

// AblationInstances sweeps the CRI count at fixed thread count, the
// resource-scaling question of Section III-B: returns diminish once
// instances exceed threads.
func AblationInstances(sc Scale) Table {
	counts := []int{1, 2, 5, 10, 20, 40}
	t := Table{
		Title:  "Ablation — instance count at 20 thread pairs",
		XLabel: "by instances",
		XS:     counts,
		Notes:  "dedicated assignment, serial progress",
	}
	var rates []float64
	for _, n := range counts {
		cfg := ablationBase(sc)
		cfg.Opts.NumInstances = n
		r, _ := ablationPoint(cfg, simnet.Model{})
		rates = append(rates, r)
	}
	t.Rows = []Row{{Label: "msg/s", Values: rates}}
	return t
}

// AblationAllocSerialize sweeps the process-wide memory-management
// serialization — the modeled stand-in for the paper's "bottlenecks not yet
// identified" that cap Fig. 3c. Zeroing it lets comm-per-pair scale far
// beyond the paper's observed ceiling, supporting the attribution.
func AblationAllocSerialize(sc Scale) Table {
	costs := []time.Duration{0, 110 * time.Nanosecond, 220 * time.Nanosecond, 440 * time.Nanosecond}
	t := Table{
		Title:  "Ablation — process-shared allocator serialization (Fig. 3c ceiling)",
		XLabel: "by alloc serialize (ns)",
		Notes:  "20 pairs, comm-per-pair, concurrent progress, dedicated",
	}
	var rates []float64
	for _, c := range costs {
		t.XS = append(t.XS, int(c.Nanoseconds()))
		m := hw.AlembertHaswell()
		m.Costs.AllocSerialize = c
		cfg := multirate.Config{
			Machine: m, Pairs: 20, Window: sc.Window, Iters: sc.Iters,
			Opts:        core.Options{NumInstances: 20, Assignment: cri.Dedicated, Progress: progress.Concurrent},
			CommPerPair: true,
		}
		r, _ := ablationPoint(cfg, simnet.Model{})
		rates = append(rates, r)
	}
	t.Rows = []Row{{Label: "msg/s", Values: rates}}
	return t
}

// Ablations returns every ablation table.
func Ablations(sc Scale) []Table {
	return []Table{
		AblationJitter(sc),
		AblationCredits(sc),
		AblationConvoy(sc),
		AblationInstances(sc),
		AblationAllocSerialize(sc),
	}
}

// AblationByName resolves one ablation ("jitter", "credits", "convoy",
// "instances", "alloc").
func AblationByName(name string, sc Scale) (Table, error) {
	switch name {
	case "jitter":
		return AblationJitter(sc), nil
	case "credits":
		return AblationCredits(sc), nil
	case "convoy":
		return AblationConvoy(sc), nil
	case "instances":
		return AblationInstances(sc), nil
	case "alloc":
		return AblationAllocSerialize(sc), nil
	default:
		return Table{}, fmt.Errorf("unknown ablation %q", name)
	}
}
