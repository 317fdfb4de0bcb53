package cluster

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/flight"
)

func fsample(nowNs int64, sent, recv uint64, posted int) flight.Sample {
	return flight.Sample{
		NowNs: nowNs, Sent: sent, Received: recv,
		Comms: []flight.CommQueues{{Comm: 0, Posted: posted}},
	}
}

func TestMergeSeriesCarryForward(t *testing.T) {
	ms := int64(time.Millisecond)
	series := []flight.RankSeries{
		{Rank: 0, Samples: []flight.Sample{
			fsample(1*ms, 10, 10, 0),
			fsample(3*ms, 30, 30, 0),
		}},
		{Rank: 1, Samples: []flight.Sample{
			fsample(2*ms, 5, 5, 2),
		}},
	}
	merged := MergeSeries(series)
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
	if merged[1].Obs[0].Sent != 10 || merged[1].Obs[1].Posted != 2 {
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
func stalledClusterSeries() []flight.RankSeries {
	ms := int64(time.Millisecond)
	var series []flight.RankSeries
	for rank := 0; rank < 4; rank++ {
		var samples []flight.Sample
		for t := int64(100); t <= 3000; t += 100 {
			n := uint64(t)
			if rank == 3 && t > 500 {
				samples = append(samples, fsample(t*ms, 500, 500, 6))
				continue
			}
			samples = append(samples, fsample(t*ms, n, n, 1))
		}
		series = append(series, flight.RankSeries{Rank: rank, Samples: samples})
	}
	return series
}

// TestDetectSeriesNamesStalledRank is the deterministic twin of the live
// -stall smoke: the verdict must name exactly the frozen rank.
func TestDetectSeriesNamesStalledRank(t *testing.T) {
	verdicts := DetectSeries(DetectorConfig{}, stalledClusterSeries())
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
	a := DetectSeries(DetectorConfig{}, stalledClusterSeries())
	b := DetectSeries(DetectorConfig{}, stalledClusterSeries())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("verdicts differ across identical runs:\n%+v\n%+v", a, b)
	}
}

func TestDetectSeriesHealthyClusterClean(t *testing.T) {
	ms := int64(time.Millisecond)
	var series []flight.RankSeries
	for rank := 0; rank < 4; rank++ {
		var samples []flight.Sample
		for ts := int64(100); ts <= 3000; ts += 100 {
			samples = append(samples, fsample(ts*ms, uint64(ts), uint64(ts), 1))
		}
		series = append(series, flight.RankSeries{Rank: rank, Samples: samples})
	}
	if vs := DetectSeries(DetectorConfig{}, series); len(vs) != 0 {
		t.Fatalf("healthy cluster produced verdicts: %+v", vs)
	}
}
