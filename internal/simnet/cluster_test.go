package simnet_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/bench/multirate"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/hw"
	"repro/internal/simnet"
)

// compose lines up the series of independent 2-rank virtual runs in argument
// order: one N-rank series set, whose ranks detectSeries numbers 0, 1, 2, ….
// Every run's clock starts at zero, so the runs read as one job.
func compose(runs ...simnet.Result) [][]flight.Sample {
	var series [][]flight.Sample
	for _, res := range runs {
		series = append(series, res.Series...)
	}
	return series
}

// detectSeries shows a detector the composed ranks the way a live
// aggregator polling at the sampling period would see them and returns
// every verdict in firing order. The runs sample on one period from time
// zero, so the k-th samples of all ranks are simultaneous; a rank whose run
// has finished keeps reporting its final, drained sample.
func detectSeries(t *testing.T, cfg flight.DetectorConfig, series [][]flight.Sample) []flight.Verdict {
	t.Helper()
	det := flight.NewDetector(cfg)
	var out []flight.Verdict
	for k, live := 0, true; live; k++ {
		live = false
		var now int64
		obs := make([]flight.Sample, len(series))
		for i, samples := range series {
			last := len(samples) - 1
			if k < last {
				live = true
			}
			obs[i] = samples[min(k, last)]
			obs[i].Rank = i
			if k <= last {
				if now != 0 && now != obs[i].NowNs {
					t.Fatalf("sample %d: rank %d at %dns, an earlier rank at %dns — the runs sample on different periods",
						k, i, obs[i].NowNs, now)
				}
				now = obs[i].NowNs
			}
		}
		out = append(out, det.Observe(now, obs)...)
	}
	return out
}

// Virtual multirate runs complete in hundreds of microseconds to tens of
// milliseconds, so the sampler and the detector windows are scaled
// down with them: 100µs sampling, 1ms stall window. Multirate is
// asymmetric by design — receivers carry deep transient unexpected queues
// that senders never do — but the divergence rule's drain-stagnation gate
// (DivergeAfter, defaulting to StallAfter) keeps that benign depth quiet:
// only a receiver that stops receiving can diverge.
var testDetCfg = flight.DetectorConfig{
	StallAfter: time.Millisecond,
}

// healthyRun is a 2-rank virtual run long enough (~13ms virtual) to still
// be moving while a composed stalled run's receiver is frozen.
func healthyRun() simnet.Result {
	return simnet.RunMultirate(multirate.Config{
		Machine:        hw.AlembertHaswell(),
		Pairs:          2,
		Window:         128,
		Iters:          64,
		Opts:           core.Options{NumInstances: 2},
		SampleInterval: 100 * time.Microsecond,
	}, simnet.Model{})
}

// stalledRun is a short 2-rank virtual run whose pair-0 receiver freezes
// after its second posted window, receives outstanding, for 20ms virtual.
func stalledRun() simnet.Result {
	return simnet.RunMultirate(multirate.Config{
		Machine:        hw.AlembertHaswell(),
		Pairs:          2,
		Window:         32,
		Iters:          4,
		Opts:           core.Options{NumInstances: 2},
		SampleInterval: 100 * time.Microsecond,
		StallRecv:      20 * time.Millisecond,
		StallAfterIter: 1,
	}, simnet.Model{})
}

// TestClusterSeriesStallVerdict is the deterministic twin of the live
// -stall smoke: a healthy virtual pair set (ranks 0,1) composed with a
// stalled one (ranks 2,3; the receiver — rank 3 — freezes with posted
// receives) must produce an imbalance verdict naming rank 3 and nobody
// else.
func TestClusterSeriesStallVerdict(t *testing.T) {
	series := compose(healthyRun(), stalledRun())
	if len(series) != 4 {
		t.Fatalf("series = %d, want 4 ranks", len(series))
	}
	for i, samples := range series {
		if len(samples) == 0 {
			t.Fatalf("rank %d collected no samples", i)
		}
		if got := samples[0].Rank; got != i%2 {
			t.Fatalf("series[%d] carries rank %d, want the run's own rank %d", i, got, i%2)
		}
	}

	verdicts := detectSeries(t, testDetCfg, series)
	if len(verdicts) == 0 {
		t.Fatal("stalled virtual cluster produced no verdicts")
	}
	sawStraggler := false
	for _, v := range verdicts {
		if v.Rank != 3 {
			t.Fatalf("verdict named rank %d, want only the stalled receiver (3): %+v", v.Rank, v)
		}
		if v.Reason == "rank-straggler" {
			sawStraggler = true
		}
	}
	if !sawStraggler {
		t.Fatalf("no rank-straggler verdict: %+v", verdicts)
	}
}

// TestClusterSeriesHealthyClean: with no injected fault the composed
// 4-rank series must run verdict-free under the same scaled detector —
// the precondition for the tcp smoke's clean-run assertion.
func TestClusterSeriesHealthyClean(t *testing.T) {
	series := compose(healthyRun(), healthyRun())
	if vs := detectSeries(t, testDetCfg, series); len(vs) != 0 {
		t.Fatalf("healthy virtual cluster produced verdicts: %+v", vs)
	}
	// The production-default configuration stays clean on it too.
	if vs := detectSeries(t, flight.DetectorConfig{}, series); len(vs) != 0 {
		t.Fatalf("healthy cluster dirty under default config: %+v", vs)
	}
}

// TestClusterSeriesDeterministic: identical configurations must yield
// byte-identical series and verdicts across runs.
func TestClusterSeriesDeterministic(t *testing.T) {
	r1 := stalledRun()
	r2 := stalledRun()
	if !reflect.DeepEqual(r1.Series, r2.Series) {
		t.Fatal("cluster series differ across identical runs")
	}
	v1 := detectSeries(t, testDetCfg, r1.Series)
	v2 := detectSeries(t, testDetCfg, r2.Series)
	if !reflect.DeepEqual(v1, v2) {
		t.Fatalf("verdicts differ across identical runs:\n%+v\n%+v", v1, v2)
	}
}

// TestClusterSamplingOffChangesNothing: the same configuration with and
// without sampling must produce identical results otherwise — the
// BENCH-reproducibility guarantee.
func TestClusterSamplingOffChangesNothing(t *testing.T) {
	cfg := multirate.Config{
		Opts:    core.Options{NumInstances: 2},
		Machine: hw.AlembertHaswell(), Pairs: 2, Window: 32, Iters: 4,
	}
	base := simnet.RunMultirate(cfg, simnet.Model{})
	cfg.SampleInterval = time.Millisecond
	sampled := simnet.RunMultirate(cfg, simnet.Model{})
	if len(sampled.Series) == 0 {
		t.Fatal("sampling on but no series")
	}
	if base.Messages != sampled.Messages || base.SPCs != sampled.SPCs {
		t.Fatalf("sampling perturbed the run: %+v vs %+v", base.SPCs, sampled.SPCs)
	}
	if base.Series != nil {
		t.Fatal("sampling off but series present")
	}
}
