package cluster

import (
	"testing"
	"time"

	"repro/internal/flight"
)

const stepNs = int64(250 * time.Millisecond)

// feed runs the detector over rounds of observations spaced stepNs apart
// and returns every verdict in firing order.
func feed(d *flight.Detector, rounds [][]flight.Sample) []flight.Verdict {
	var out []flight.Verdict
	for i, obs := range rounds {
		out = append(out, d.Observe(int64(i+1)*stepNs, obs)...)
	}
	return out
}

// queues is a rank's depths, held on one communicator.
func queues(posted, unexpected int) []flight.CommQueues {
	return []flight.CommQueues{{Posted: posted, Unexpected: unexpected}}
}

// movingObs is a healthy rank: counters advance every round, nothing queued.
func movingObs(rank, round int) flight.Sample {
	return flight.Sample{Rank: rank, Ready: true, Sent: int64(100 * round), Received: int64(100 * round)}
}

func reasons(vs []flight.Verdict) map[string][]int {
	m := map[string][]int{}
	for _, v := range vs {
		m[v.Reason] = append(m[v.Reason], v.Rank)
	}
	return m
}

func TestStragglerNamesFrozenRankOnly(t *testing.T) {
	d := flight.NewDetector(flight.DetectorConfig{})
	var rounds [][]flight.Sample
	for round := 1; round <= 8; round++ { // 2s of observations
		rounds = append(rounds, []flight.Sample{
			movingObs(0, round),
			movingObs(1, round),
			// Rank 2: counters frozen after priming, receives posted and
			// unacked sends outstanding — a stuck receiver.
			{Rank: 2, Ready: true, Sent: 50, Received: 50, Comms: queues(4, 0), Unacked: 2},
		})
	}
	got := reasons(feed(d, rounds))
	if ranks := got["rank-straggler"]; len(ranks) == 0 {
		t.Fatal("no rank-straggler verdict for a frozen rank with outstanding work")
	} else {
		for _, r := range ranks {
			if r != 2 {
				t.Fatalf("straggler verdict named rank %d, want 2 (all: %v)", r, ranks)
			}
		}
	}
}

func TestGlobalStallIsNotAStraggler(t *testing.T) {
	d := flight.NewDetector(flight.DetectorConfig{})
	frozen := []flight.Sample{
		{Rank: 0, Ready: true, Sent: 10, Received: 10, Comms: queues(1, 0)},
		{Rank: 1, Ready: true, Sent: 10, Received: 10, Comms: queues(1, 0)},
	}
	var rounds [][]flight.Sample
	for i := 0; i < 12; i++ {
		rounds = append(rounds, frozen)
	}
	// A whole-job deadlock has no rank to single out: nobody moved, so each
	// frozen rank is named no-progress, as its own watchdog would name it.
	got := reasons(feed(d, rounds))
	if len(got["rank-straggler"]) != 0 || len(got["no-progress"]) == 0 || len(got) != 1 {
		t.Fatalf("global stall verdicts = %v, want no-progress only", got)
	}
}

func TestFinishedRankIsNotAStraggler(t *testing.T) {
	d := flight.NewDetector(flight.DetectorConfig{})
	var rounds [][]flight.Sample
	for round := 1; round <= 12; round++ {
		rounds = append(rounds, []flight.Sample{
			movingObs(0, round),
			movingObs(1, round),
			// Rank 2 finished: frozen counters but fully drained queues.
			{Rank: 2, Ready: true, Sent: 500, Received: 500},
		})
	}
	if vs := feed(d, rounds); len(vs) != 0 {
		t.Fatalf("drained rank flagged: %+v", vs)
	}
}

// TestBarrierWaitIsNotAStraggler: a rank that finished its workload and
// blocks in the end barrier freezes holding an ambient collective receive
// or two while slower peers keep moving. That is waiting, not straggling —
// the MinOutstanding floor keeps it quiet.
func TestBarrierWaitIsNotAStraggler(t *testing.T) {
	d := flight.NewDetector(flight.DetectorConfig{})
	var rounds [][]flight.Sample
	for round := 1; round <= 12; round++ {
		rounds = append(rounds, []flight.Sample{
			movingObs(0, round),
			movingObs(1, round),
			{Rank: 2, Ready: true, Sent: 500, Received: 500, Comms: queues(1, 1)},
		})
	}
	if vs := feed(d, rounds); len(vs) != 0 {
		t.Fatalf("barrier-blocked rank flagged: %+v", vs)
	}
}

func TestStragglerRearmsNotFloods(t *testing.T) {
	d := flight.NewDetector(flight.DetectorConfig{})
	var rounds [][]flight.Sample
	for round := 1; round <= 16; round++ { // 4s: two full stall windows
		rounds = append(rounds, []flight.Sample{
			movingObs(0, round),
			movingObs(1, round),
			{Rank: 2, Ready: true, Sent: 50, Received: 50, Comms: queues(4, 0)},
		})
	}
	vs := feed(d, rounds)
	n := len(reasons(vs)["rank-straggler"])
	if n < 2 || n > 5 {
		// One verdict per elapsed stall window (1s), not one per poll (250ms).
		t.Fatalf("straggler fired %d times over 4s with a 1s window: %+v", n, vs)
	}
}

func TestRateSkew(t *testing.T) {
	d := flight.NewDetector(flight.DetectorConfig{})
	var rounds [][]flight.Sample
	for round := 1; round <= 10; round++ {
		rounds = append(rounds, []flight.Sample{
			movingObs(0, round),
			movingObs(1, round),
			movingObs(2, round),
			// Rank 3 crawls at 1% of the others' rate with work queued — slow,
			// not stopped, so the straggler rule stays quiet.
			{Rank: 3, Ready: true, Sent: int64(round), Received: int64(round), Comms: queues(6, 0)},
		})
	}
	got := reasons(feed(d, rounds))
	if ranks := got["rate-skew"]; len(ranks) == 0 {
		t.Fatal("no rate-skew verdict for a rank at 1 percent of the median")
	} else {
		for _, r := range ranks {
			if r != 3 {
				t.Fatalf("rate-skew named rank %d, want 3", r)
			}
		}
	}
	if len(got["rank-straggler"]) != 0 {
		t.Fatalf("crawling rank misfiled as full straggler: %v", got)
	}
}

// TestRateSkewIgnoresOneBadWindow: a single window below the fraction —
// scheduler noise on an oversubscribed host — must not fire; only
// SkewWindows consecutive qualifying windows do.
func TestRateSkewIgnoresOneBadWindow(t *testing.T) {
	d := flight.NewDetector(flight.DetectorConfig{})
	slow := func(round int) flight.Sample { // freezes at 600: ~0 msg/s for this window
		return flight.Sample{Rank: 3, Ready: true, Sent: 600, Received: 600, Comms: queues(6, 0)}
	}
	fast := func(round int) flight.Sample {
		return flight.Sample{Rank: 3, Ready: true, Sent: int64(100 * round), Received: int64(100 * round), Comms: queues(6, 0)}
	}
	var rounds [][]flight.Sample
	for round := 1; round <= 16; round++ {
		o := fast(round) // healthy except one bad window (rounds 6-9)
		if round >= 6 && round <= 9 {
			o = slow(round)
		}
		rounds = append(rounds, []flight.Sample{movingObs(0, round), movingObs(1, round), movingObs(2, round), o})
	}
	if got := reasons(feed(d, rounds)); len(got["rate-skew"]) != 0 {
		t.Fatalf("rate-skew fired on a single bad window: %v", got)
	}
}

func TestRateSkewNeedsThreeRanks(t *testing.T) {
	d := flight.NewDetector(flight.DetectorConfig{})
	var rounds [][]flight.Sample
	for round := 1; round <= 10; round++ {
		rounds = append(rounds, []flight.Sample{
			movingObs(0, round),
			{Rank: 1, Ready: true, Sent: int64(round), Received: int64(round), Comms: queues(6, 0)},
		})
	}
	if got := reasons(feed(d, rounds)); len(got["rate-skew"]) != 0 {
		t.Fatalf("rate-skew fired with only 2 ranks: %v", got)
	}
}

func TestUnexpectedDivergenceLatches(t *testing.T) {
	// One observation step of receive stagnation is enough here; the rank
	// keeps sending (so the straggler rule stays silent) while its received
	// counter freezes under a deep unexpected queue.
	d := flight.NewDetector(flight.DetectorConfig{DivergeAfter: time.Duration(stepNs)})
	diverged := func(round int) []flight.Sample {
		return []flight.Sample{
			movingObs(0, round),
			movingObs(1, round),
			{Rank: 2, Ready: true, Sent: int64(100 * round), Received: 100, Comms: queues(0, 300)},
		}
	}
	healthy := func(round int) []flight.Sample {
		return []flight.Sample{movingObs(0, round), movingObs(1, round), movingObs(2, round)}
	}
	var rounds [][]flight.Sample
	for round := 1; round <= 6; round++ {
		rounds = append(rounds, diverged(round))
	}
	rounds = append(rounds, healthy(7), healthy(8)) // episode clears
	rounds = append(rounds, diverged(9), diverged(10))
	got := reasons(feed(d, rounds))
	if ranks := got["unexpected-divergence"]; len(ranks) != 2 {
		t.Fatalf("divergence fired %d times, want once per episode (2): %v", len(ranks), got)
	} else if ranks[0] != 2 || ranks[1] != 2 {
		t.Fatalf("divergence named wrong ranks: %v", ranks)
	}
}

// TestDivergenceSparesDrainingReceivers: pairwise workloads legitimately
// hold deep unexpected queues on every receiver (senders complete locally
// and run far ahead). As long as the receiver keeps draining — its
// received counter advances — no depth may fire divergence.
func TestDivergenceSparesDrainingReceivers(t *testing.T) {
	d := flight.NewDetector(flight.DetectorConfig{})
	var rounds [][]flight.Sample
	for round := 1; round <= 12; round++ {
		rounds = append(rounds, []flight.Sample{
			movingObs(0, round), // sender: no queue
			movingObs(2, round), // sender: no queue
			// Receivers: thousands deep but receiving the whole time.
			{Rank: 1, Ready: true, Received: int64(100 * round), Comms: queues(0, 3000+100*round)},
			{Rank: 3, Ready: true, Received: int64(80 * round), Comms: queues(0, 6000+200*round)},
		})
	}
	got := reasons(feed(d, rounds))
	if ranks := got["unexpected-divergence"]; len(ranks) != 0 {
		t.Fatalf("divergence fired on draining receivers: %v", got)
	}
}

func TestRetransmitStormLocalized(t *testing.T) {
	d := flight.NewDetector(flight.DetectorConfig{})
	var rounds [][]flight.Sample
	for round := 1; round <= 8; round++ {
		o := movingObs(1, round)
		o.Retransmits = int64(50 * round) // 200/s: well past the 100/window threshold
		rounds = append(rounds, []flight.Sample{movingObs(0, round), o, movingObs(2, round)})
	}
	got := reasons(feed(d, rounds))
	if ranks := got["retransmit-storm"]; len(ranks) == 0 {
		t.Fatal("no retransmit-storm verdict")
	} else {
		for _, r := range ranks {
			if r != 1 {
				t.Fatalf("storm named rank %d, want 1", r)
			}
		}
	}
}

func TestReadinessStragglerFiresOnce(t *testing.T) {
	d := flight.NewDetector(flight.DetectorConfig{})
	var rounds [][]flight.Sample
	for round := 1; round <= 12; round++ { // 3s, threshold 2s
		rounds = append(rounds, []flight.Sample{
			{Rank: 0, Ready: true},
			{Rank: 1, Ready: false, ReadyReason: "world not constructed"},
		})
	}
	got := reasons(feed(d, rounds))
	if ranks := got["readiness-straggler"]; len(ranks) != 1 || ranks[0] != 1 {
		t.Fatalf("readiness-straggler = %v, want exactly [1]", ranks)
	}
}

func TestErroredRankExcluded(t *testing.T) {
	d := flight.NewDetector(flight.DetectorConfig{})
	var rounds [][]flight.Sample
	for round := 1; round <= 10; round++ {
		rounds = append(rounds, []flight.Sample{
			movingObs(0, round),
			movingObs(1, round),
			// Scrape failures leave stale zeros — must not read as a stall.
			{Rank: 2, Err: "connection refused", Comms: queues(5, 0)},
		})
	}
	if vs := feed(d, rounds); len(vs) != 0 {
		t.Fatalf("errored rank produced verdicts from stale state: %+v", vs)
	}
}

// TestFirstGoodScrapePrimes: at start-up the launcher polls before a rank
// listens. The failed scrape's zero observation must not become the rank's
// baseline, or the first good scrape books the rank's whole history into
// one window: a retransmit-storm for any rank with 100 cumulative
// retransmissions, and an inflated message rate.
func TestFirstGoodScrapePrimes(t *testing.T) {
	d := flight.NewDetector(flight.DetectorConfig{})
	var rounds [][]flight.Sample
	for round := 1; round <= 8; round++ {
		late := flight.Sample{Rank: 1, Err: "connection refused"}
		if round > 1 {
			late = movingObs(1, round)
			late.Sent += 1_000_000 // history from before the first good scrape
			late.Retransmits = 500
		}
		rounds = append(rounds, []flight.Sample{movingObs(0, round), late, movingObs(2, round)})
	}
	if vs := feed(d, rounds); len(vs) != 0 {
		t.Fatalf("a rank's history before its first good scrape fired: %+v", vs)
	}
	// 200 msgs per 250ms step = 800 msg/s, not the million it had already sent.
	if r, ok := d.Rate(1); !ok || r < 700 || r > 900 {
		t.Fatalf("rate = %v (valid %v), want ~800", r, ok)
	}
}

func TestRateAccessor(t *testing.T) {
	d := flight.NewDetector(flight.DetectorConfig{})
	if _, ok := d.Rate(0); ok {
		t.Fatal("rate valid before any observation")
	}
	for round := 1; round <= 6; round++ {
		d.Observe(int64(round)*stepNs, []flight.Sample{movingObs(0, round)})
	}
	r, ok := d.Rate(0)
	if !ok {
		t.Fatal("rate still invalid after 1.5s of 250ms samples")
	}
	// 200 msgs per 250ms step = 800 msg/s.
	if r < 700 || r > 900 {
		t.Fatalf("rate = %v, want ~800", r)
	}
}
