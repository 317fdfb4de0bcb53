package simnet_test

import (
	"testing"
	"time"

	"repro/internal/flight"
)

// TestDiagnosisDrill is the diagnosis plane's acceptance table: for every
// reason the detector can give, a planted condition fires exactly that
// reason, names the planted rank and — where the rule has one — a phase and
// a site; and the healthy composed virtual job fires nothing. All under the
// default configuration, observed every 250ms like a live aggregator's poll.
// DESIGN's "Verdict reasons" census points each reason at its row here.
func TestDiagnosisDrill(t *testing.T) {
	const step = 250 * time.Millisecond
	queues := func(comm uint32, posted, unexpected int) []flight.CommQueues {
		return []flight.CommQueues{{Comm: comm, Posted: posted, Unexpected: unexpected}}
	}
	// moving is a healthy rank: 100 sends and receives a round, a receive posted.
	moving := func(rank, round int) flight.Sample {
		return flight.Sample{Rank: rank, Ready: true, Sent: int64(100 * round), Received: int64(100 * round),
			Comms: queues(1, 1, 0)}
	}
	// job is ranks 0..n-1 moving, with rank sick replaced by its planted state.
	job := func(n, sick int, plant func(round int) flight.Sample) func(int) []flight.Sample {
		return func(round int) []flight.Sample {
			var obs []flight.Sample
			for r := 0; r < n; r++ {
				s := moving(r, round)
				if r == sick {
					s = plant(round)
					s.Rank = r
				}
				obs = append(obs, s)
			}
			return obs
		}
	}
	tail := func(s flight.Sample, e2e, deliverWait int64) flight.Sample {
		s.LatencyValid, s.E2EP99Ns = true, e2e
		s.StageP99 = []flight.StageP99{{Stage: "transit", P99Ns: 100_000}, {Stage: "deliver_wait", P99Ns: deliverWait}}
		return s
	}

	for _, tc := range []struct {
		reason  string
		rank    int
		located bool // the rule names a phase and a site
		rounds  func(round int) []flight.Sample
	}{
		// One rank alone, frozen with two receives posted: nobody moved.
		{flight.ReasonNoProgress, 0, true, job(1, 0, func(int) flight.Sample {
			return flight.Sample{Ready: true, Sent: 50, Received: 50, Comms: queues(1, 2, 0)}
		})},
		// The same freeze, a window's worth posted, while a peer keeps moving
		// (among three ranks or more its 0 msg/s is a rate-skew as well).
		{flight.ReasonRankStraggler, 1, true, job(2, 1, func(int) flight.Sample {
			return flight.Sample{Ready: true, Sent: 50, Received: 50, Comms: queues(1, 4, 0), Unacked: 2}
		})},
		// Crawling at 1% of the others' rate with work queued: slow, not stopped.
		{flight.ReasonRateSkew, 3, true, job(4, 3, func(round int) flight.Sample {
			return flight.Sample{Ready: true, Sent: int64(round), Received: int64(round), Comms: queues(1, 6, 0)}
		})},
		// Still receiving, but comm 3's unexpected queue deepens every sample.
		{flight.ReasonUnexpectedGrowth, 0, true, job(1, 0, func(round int) flight.Sample {
			s := moving(0, round)
			s.Comms = queues(3, 1, 10*round)
			return s
		})},
		// Sending on, receiving nothing, 300 arrivals parked unexpected.
		{flight.ReasonUnexpectedDivergence, 2, true, job(3, 2, func(round int) flight.Sample {
			return flight.Sample{Ready: true, Sent: int64(100 * round), Received: 100, Comms: queues(1, 0, 300)}
		})},
		// 200 retransmissions a second against a threshold of 100 per window.
		{flight.ReasonRetransmitStorm, 1, true, job(3, 1, func(round int) flight.Sample {
			s := moving(1, round)
			s.Retransmits = int64(50 * round)
			return s
		})},
		// Never ready, three seconds after its peer was.
		{flight.ReasonReadinessStraggler, 1, false, job(2, 1, func(int) flight.Sample {
			return flight.Sample{ReadyReason: "world not constructed"}
		})},
		// A 20ms end-to-end p99 beside three ranks at half a millisecond.
		{flight.ReasonLatencyTailSkew, 3, true, func(round int) []flight.Sample {
			obs := job(4, -1, nil)(round)
			for r := range obs {
				obs[r] = tail(obs[r], 500_000, 200_000)
			}
			obs[3] = tail(obs[3], 20_000_000, 19_500_000)
			return obs
		}},
	} {
		t.Run(tc.reason, func(t *testing.T) {
			det := flight.NewDetector(flight.DetectorConfig{})
			var fired []flight.Verdict
			for round := 1; round <= 12; round++ {
				fired = append(fired, det.Observe(int64(round)*int64(step), tc.rounds(round))...)
			}
			if len(fired) == 0 {
				t.Fatal("the planted condition fired nothing")
			}
			for _, v := range fired {
				if v.Reason != tc.reason || v.Rank != tc.rank || v.Detail == "" {
					t.Errorf("fired %+v, want only %s on rank %d", v, tc.reason, tc.rank)
				}
				if tc.located && (v.Phase == "" || v.Site == "") {
					t.Errorf("%s names no phase or site: %+v", tc.reason, v)
				}
			}
		})
	}

	t.Run("healthy", func(t *testing.T) {
		series := compose(healthyRun(), healthyRun())
		if vs := detectSeries(t, flight.DetectorConfig{}, series); len(vs) != 0 {
			t.Fatalf("the healthy virtual job fired: %+v", vs)
		}
	})
}
