package cluster

import (
	"strings"
	"testing"
	"time"

	"repro/internal/flight"
)

// latObs builds one latency-reporting rank observation with steady
// counters and a posted receive so the other rules stay quiet.
func latObs(rank int, sent int64, e2eP99 int64, stages ...flight.StageP99) flight.Sample {
	return flight.Sample{
		Rank: rank, Ready: true,
		Sent: sent, Received: sent,
		Comms:        queues(1, 0),
		LatencyValid: true,
		E2EP99Ns:     e2eP99,
		StageP99:     stages,
	}
}

// tailClusterSample: ranks 0-2 healthy at ~500µs e2e p99, rank 3 at 20ms
// with the excess in deliver_wait.
func tailClusterSample(moving int64) []flight.Sample {
	healthyStages := []flight.StageP99{
		{Stage: "transit", P99Ns: 100_000},
		{Stage: "deliver_wait", P99Ns: 200_000},
		{Stage: "match_posted", P99Ns: 150_000},
	}
	sickStages := []flight.StageP99{
		{Stage: "transit", P99Ns: 100_000},
		{Stage: "deliver_wait", P99Ns: 19_500_000},
		{Stage: "match_posted", P99Ns: 150_000},
	}
	return []flight.Sample{
		latObs(0, moving, 500_000, healthyStages...),
		latObs(1, moving, 520_000, healthyStages...),
		latObs(2, moving, 480_000, healthyStages...),
		latObs(3, moving, 20_000_000, sickStages...),
	}
}

// TestDetectorLatencyTailSkew: a sustained 40x tail on one rank fires
// exactly one latency-tail-skew verdict naming that rank and its dominant
// stage, after the configured number of consecutive observations.
func TestDetectorLatencyTailSkew(t *testing.T) {
	det := flight.NewDetector(flight.DetectorConfig{})
	ms := int64(time.Millisecond)
	var fired []flight.Verdict
	for i := int64(1); i <= 5; i++ {
		vs := det.Observe(i*100*ms, tailClusterSample(i*1000))
		for _, v := range vs {
			if v.Reason != "latency-tail-skew" {
				t.Fatalf("unexpected verdict: %+v", v)
			}
		}
		fired = append(fired, vs...)
		if i < 3 && len(fired) > 0 {
			t.Fatalf("tail-skew fired after %d observations, want %d: %+v",
				i, 3, fired)
		}
	}
	if len(fired) != 1 {
		t.Fatalf("tail-skew verdicts = %d, want exactly 1 (episode latch): %+v", len(fired), fired)
	}
	v := fired[0]
	if v.Rank != 3 {
		t.Fatalf("verdict named rank %d, want 3: %+v", v.Rank, v)
	}
	if !strings.Contains(v.Detail, "deliver_wait") {
		t.Fatalf("verdict detail does not name the dominant stage: %q", v.Detail)
	}

	// Episode over: the tail returns to normal, then skews again — the
	// detector must re-arm and fire a second episode.
	for i := int64(6); i <= 8; i++ {
		s := tailClusterSample(i * 1000)
		s[3].E2EP99Ns = 500_000
		if vs := det.Observe(i*100*ms, s); len(vs) != 0 {
			t.Fatalf("healthy tail produced verdicts: %+v", vs)
		}
	}
	var again []flight.Verdict
	for i := int64(9); i <= 12; i++ {
		again = append(again, det.Observe(i*100*ms, tailClusterSample(i*1000))...)
	}
	if len(again) != 1 || again[0].Reason != "latency-tail-skew" || again[0].Rank != 3 {
		t.Fatalf("re-armed episode verdicts = %+v, want one more tail-skew on rank 3", again)
	}
}

// TestDetectorLatencyTailSkewNeedsThreeRanks: with only two
// latency-reporting ranks "the median" is half the straggler itself, so
// the rule must stay silent however skewed the pair looks.
func TestDetectorLatencyTailSkewNeedsThreeRanks(t *testing.T) {
	det := flight.NewDetector(flight.DetectorConfig{})
	ms := int64(time.Millisecond)
	for i := int64(1); i <= 6; i++ {
		s := []flight.Sample{
			latObs(0, i*1000, 500_000),
			latObs(1, i*1000, 20_000_000),
		}
		if vs := det.Observe(i*100*ms, s); len(vs) != 0 {
			t.Fatalf("tail-skew fired with 2 valid ranks: %+v", vs)
		}
	}
}

// TestDetectorLatencyTailSkewFloor: a rank at many times a tiny median is
// measurement noise, not a tail — TailMinP99 suppresses it.
func TestDetectorLatencyTailSkewFloor(t *testing.T) {
	det := flight.NewDetector(flight.DetectorConfig{})
	ms := int64(time.Millisecond)
	for i := int64(1); i <= 6; i++ {
		s := []flight.Sample{
			latObs(0, i*1000, 2_000),
			latObs(1, i*1000, 2_100),
			latObs(2, i*1000, 1_900),
			latObs(3, i*1000, 900_000), // 450x the median but under the 1ms floor
		}
		if vs := det.Observe(i*100*ms, s); len(vs) != 0 {
			t.Fatalf("tail-skew fired under the absolute floor: %+v", vs)
		}
	}
}
