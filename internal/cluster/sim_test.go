package cluster

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/flight"
)

// observation is one synchronized view of the ranks: what a detector is
// shown at NowNs.
type observation struct {
	NowNs int64
	Obs   []flight.Sample
}

// mergeSeries aligns per-rank sample series (series[r] is rank r's, as in
// simnet.Result.Series) into synchronized observations:
// one per distinct sample time, each rank contributing its latest state at
// or before that time (a rank whose series ended — its run finished — keeps
// reporting its final, drained state, which no rule reads as outstanding
// work). Series from independent virtual runs compose freely because every
// run's clock starts at zero.
func mergeSeries(series [][]flight.Sample) []observation {
	var times []int64
	seen := map[int64]bool{}
	for _, samples := range series {
		for _, smp := range samples {
			if !seen[smp.NowNs] {
				seen[smp.NowNs] = true
				times = append(times, smp.NowNs)
			}
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	cursor := make([]int, len(series))
	out := make([]observation, 0, len(times))
	for _, t := range times {
		o := observation{NowNs: t}
		for r, samples := range series {
			for cursor[r]+1 < len(samples) && samples[cursor[r]+1].NowNs <= t {
				cursor[r]++
			}
			if len(samples) == 0 || samples[cursor[r]].NowNs > t {
				continue // this rank has not been observed yet
			}
			smp := samples[cursor[r]]
			smp.Rank = r
			o.Obs = append(o.Obs, smp)
		}
		out = append(out, o)
	}
	return out
}

// detectSeries replays merged series through the detector the aggregator
// uses, returning every verdict in firing order.
func detectSeries(cfg flight.DetectorConfig, series [][]flight.Sample) []flight.Verdict {
	det := flight.NewDetector(cfg)
	var out []flight.Verdict
	for _, o := range mergeSeries(series) {
		out = append(out, det.Observe(o.NowNs, o.Obs)...)
	}
	return out
}

func fsample(nowNs int64, sent, recv int64, posted int) flight.Sample {
	return flight.Sample{
		NowNs: nowNs, Ready: true, Sent: sent, Received: recv,
		Comms: queues(posted, 0),
	}
}

func TestMergeSeriesCarryForward(t *testing.T) {
	ms := int64(time.Millisecond)
	series := [][]flight.Sample{
		{fsample(1*ms, 10, 10, 0), fsample(3*ms, 30, 30, 0)},
		{fsample(2*ms, 5, 5, 2)},
	}
	merged := mergeSeries(series)
	if len(merged) != 3 {
		t.Fatalf("merged samples = %d, want 3 (distinct times): %+v", len(merged), merged)
	}
	// t=1ms: only rank 0 observed yet.
	if len(merged[0].Obs) != 1 || merged[0].Obs[0].Rank != 0 {
		t.Fatalf("t=1ms obs = %+v, want rank 0 only", merged[0].Obs)
	}
	// t=2ms: rank 0 carries forward its t=1ms state, rank 1 appears.
	if len(merged[1].Obs) != 2 {
		t.Fatalf("t=2ms obs = %+v, want both ranks", merged[1].Obs)
	}
	if merged[1].Obs[0].Sent != 10 || merged[1].Obs[1].Depths().Posted != 2 {
		t.Fatalf("t=2ms carry-forward wrong: %+v", merged[1].Obs)
	}
	// t=3ms: rank 0 advances, rank 1's series ended — final state persists.
	if merged[2].Obs[0].Sent != 30 || merged[2].Obs[1].Sent != 5 {
		t.Fatalf("t=3ms states wrong: %+v", merged[2].Obs)
	}
}

// stalledClusterSeries builds a 4-rank virtual cluster: ranks 0-2 make
// steady progress for 3 virtual seconds, rank 3 freezes at t=500ms with
// receives still posted.
func stalledClusterSeries() [][]flight.Sample {
	ms := int64(time.Millisecond)
	var series [][]flight.Sample
	for rank := 0; rank < 4; rank++ {
		var samples []flight.Sample
		for t := int64(100); t <= 3000; t += 100 {
			n := t
			if rank == 3 && t > 500 {
				samples = append(samples, fsample(t*ms, 500, 500, 6))
				continue
			}
			samples = append(samples, fsample(t*ms, n, n, 1))
		}
		series = append(series, samples)
	}
	return series
}

// TestDetectSeriesNamesStalledRank is the deterministic twin of the live
// -stall smoke: the verdict must name exactly the frozen rank.
func TestDetectSeriesNamesStalledRank(t *testing.T) {
	verdicts := detectSeries(flight.DetectorConfig{}, stalledClusterSeries())
	if len(verdicts) == 0 {
		t.Fatal("no verdicts from a cluster with a frozen rank")
	}
	sawStraggler := false
	for _, v := range verdicts {
		if v.Rank != 3 {
			t.Fatalf("verdict named rank %d, want 3: %+v", v.Rank, v)
		}
		if v.Reason == "rank-straggler" {
			sawStraggler = true
		}
	}
	if !sawStraggler {
		t.Fatalf("no rank-straggler among verdicts: %+v", verdicts)
	}
}

// TestDetectSeriesDeterministic: same series in, byte-identical verdicts
// out — the property the simnet conformance gate relies on.
func TestDetectSeriesDeterministic(t *testing.T) {
	a := detectSeries(flight.DetectorConfig{}, stalledClusterSeries())
	b := detectSeries(flight.DetectorConfig{}, stalledClusterSeries())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("verdicts differ across identical runs:\n%+v\n%+v", a, b)
	}
}

func TestDetectSeriesHealthyClusterClean(t *testing.T) {
	ms := int64(time.Millisecond)
	var series [][]flight.Sample
	for rank := 0; rank < 4; rank++ {
		var samples []flight.Sample
		for ts := int64(100); ts <= 3000; ts += 100 {
			samples = append(samples, fsample(ts*ms, ts, ts, 1))
		}
		series = append(series, samples)
	}
	if vs := detectSeries(flight.DetectorConfig{}, series); len(vs) != 0 {
		t.Fatalf("healthy cluster produced verdicts: %+v", vs)
	}
}
