package simnet_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/hw"
	"repro/internal/latency"
	"repro/internal/simnet"
)

// latBase is a small 2-rank virtual run with attribution on.
func latBase() simnet.Config {
	return simnet.Config{
		Machine:      hw.AlembertHaswell(),
		Pairs:        2,
		Window:       32,
		Iters:        8,
		NumInstances: 2,
		Latency:      true,
	}
}

// stageP99 pulls a named stage's p99 out of a rank dump (0 when absent).
func stageP99(d latency.RankDump, stage string) int64 {
	for _, s := range d.Stages {
		if s.Stage == stage {
			return s.P99Ns
		}
	}
	return 0
}

// TestLatencyDumpsPopulated: an attribution-enabled run yields dumps for
// both ranks; the sender's dump carries the sender-local stages, the
// receiver's the receive-path stages plus end-to-end, and every exemplar's
// stage breakdown is consistent with its end-to-end latency.
func TestLatencyDumpsPopulated(t *testing.T) {
	res := simnet.RunMultirate(latBase())
	if len(res.Latency) != 2 {
		t.Fatalf("Latency dumps = %d, want 2", len(res.Latency))
	}
	sender, receiver := res.Latency[0], res.Latency[1]
	if sender.Rank != 0 || receiver.Rank != 1 {
		t.Fatalf("dump ranks = %d,%d, want 0,1", sender.Rank, receiver.Rank)
	}
	for _, want := range []string{"cri_acquire", "wire_write"} {
		found := false
		for _, s := range sender.Stages {
			if s.Stage == want && s.Count > 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("sender dump missing populated stage %q: %+v", want, sender.Stages)
		}
	}
	wantRecv := map[string]bool{"e2e": false, "transit": false, "deliver_wait": false}
	var matched int64
	for _, s := range receiver.Stages {
		if _, ok := wantRecv[s.Stage]; ok && s.Count > 0 {
			wantRecv[s.Stage] = true
		}
		if s.Stage == "match_posted" || s.Stage == "match_unexpected" {
			matched += s.Count
		}
	}
	for name, ok := range wantRecv {
		if !ok {
			t.Fatalf("receiver dump missing populated stage %q: %+v", name, receiver.Stages)
		}
	}
	total := int64(2 * 32 * 8)
	if matched != total {
		t.Fatalf("match stages count %d messages, want %d", matched, total)
	}
	if len(receiver.Exemplars) == 0 {
		t.Fatal("receiver dump has no tail exemplars")
	}
	for _, ex := range receiver.Exemplars {
		if ex.TraceID == 0 || ex.E2ENs <= 0 {
			t.Fatalf("malformed exemplar: %+v", ex)
		}
		var sum int64
		for _, sv := range ex.Stages {
			if sv.Ns > 0 {
				sum += sv.Ns
			}
		}
		if sum > ex.E2ENs {
			t.Fatalf("exemplar stages sum %dns > e2e %dns: %+v", sum, ex.E2ENs, ex)
		}
	}
}

// guiltyStage runs a baseline and a stalled variant of cfg and returns the
// receive-path stage whose p99 shifted the most, plus that shift and the
// end-to-end shift.
func guiltyStage(cfg simnet.Config, stall time.Duration) (string, int64, int64, map[string]int64) {
	base := simnet.RunMultirate(cfg)
	cfg.StallRecv = stall
	cfg.StallAfterIter = 1
	stalled := simnet.RunMultirate(cfg)
	br, sr := base.Latency[1], stalled.Latency[1]
	shifts := map[string]int64{}
	for _, name := range []string{"transit", "deliver_wait", "match_posted", "match_unexpected", "complete", "e2e"} {
		shifts[name] = stageP99(sr, name) - stageP99(br, name)
	}
	guilty, best := "", int64(0)
	for name, d := range shifts {
		if name == "e2e" {
			continue
		}
		if d > best {
			guilty, best = name, d
		}
	}
	return guilty, best, shifts["e2e"], shifts
}

// TestLatencyAttributesQuiescentReceiverToDeliverWait is the issue's
// acceptance test: a known injected delay must surface in the correct stage
// by name, not just as "the tail moved". With a single pair, the stalled
// receiver thread is the only one draining the receive queue, so arrivals
// pile up undelivered and the stall lands in deliver_wait.
func TestLatencyAttributesQuiescentReceiverToDeliverWait(t *testing.T) {
	const stall = 5 * time.Millisecond
	cfg := latBase()
	cfg.Pairs = 1
	guilty, best, e2e, shifts := guiltyStage(cfg, stall)
	if guilty != "deliver_wait" {
		t.Fatalf("p99 shift attributed to %q, want deliver_wait (shifts: %+v)", guilty, shifts)
	}
	if best < int64(stall)/2 {
		t.Fatalf("deliver_wait p99 shift %dns does not reflect the %v stall", best, stall)
	}
	if e2e < int64(stall)/2 {
		t.Fatalf("e2e p99 shift %dns does not reflect the %v stall", e2e, stall)
	}
}

// TestLatencyAttributesSlowPosterToUnexpectedQueue: the same stall with a
// second pair present tells a different — and correct — story. Pair 1's
// receiver thread keeps draining the shared receive queue, so pair 0's
// arrivals are delivered promptly but sit in the unexpected queue until the
// stalled thread wakes and posts its next window. The waterfall
// distinguishes "nobody draining" from "receiver not posting".
func TestLatencyAttributesSlowPosterToUnexpectedQueue(t *testing.T) {
	const stall = 5 * time.Millisecond
	guilty, best, e2e, shifts := guiltyStage(latBase(), stall)
	if guilty != "match_unexpected" {
		t.Fatalf("p99 shift attributed to %q, want match_unexpected (shifts: %+v)", guilty, shifts)
	}
	if best < int64(stall)/2 {
		t.Fatalf("match_unexpected p99 shift %dns does not reflect the %v stall", best, stall)
	}
	if e2e < int64(stall)/2 {
		t.Fatalf("e2e p99 shift %dns does not reflect the %v stall", e2e, stall)
	}
}

// TestLatencyOffChangesNothing: the same configuration with and without
// attribution must produce an identical result otherwise — the
// BENCH-byte-identity guarantee. Attribution only ever reads the virtual
// clock, so rate, makespan, counters, and breakdowns cannot move.
func TestLatencyOffChangesNothing(t *testing.T) {
	cfg := latBase()
	on := simnet.RunMultirate(cfg)
	cfg.Latency = false
	off := simnet.RunMultirate(cfg)
	if on.Makespan != off.Makespan || on.Rate != off.Rate || on.Messages != off.Messages {
		t.Fatalf("attribution changed the run: on=(%v %f) off=(%v %f)",
			on.Makespan, on.Rate, off.Makespan, off.Rate)
	}
	if !reflect.DeepEqual(on.SPCs, off.SPCs) {
		t.Fatal("attribution changed the counters")
	}
	if !reflect.DeepEqual(on.Breakdown, off.Breakdown) {
		t.Fatal("attribution changed the phase breakdown")
	}
	if off.Latency != nil {
		t.Fatal("latency dumps present with attribution off")
	}
}

// TestLatencyDumpsByteReproducible: identical configurations must yield
// byte-identical exemplar dumps — every field derives from the
// deterministic schedule, including the reservoir's tie-breaks.
func TestLatencyDumpsByteReproducible(t *testing.T) {
	cfg := latBase()
	cfg.FlightCapacity = 64 // exemplars carry surrounding flight events too
	r1 := simnet.RunMultirate(cfg)
	r2 := simnet.RunMultirate(cfg)
	var b1, b2 bytes.Buffer
	if err := latency.WriteDumps(&b1, r1.Latency); err != nil {
		t.Fatal(err)
	}
	if err := latency.WriteDumps(&b2, r2.Latency); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("latency dumps differ across identical runs")
	}
	if len(r1.Latency[1].Exemplars) == 0 {
		t.Fatal("no exemplars to compare")
	}
}

// TestLatencySampleFeedsDetectorFields: with both attribution and cluster
// sampling on, the virtual observation series carries the per-stage p99
// vector the tail-skew detector consumes.
func TestLatencySampleFeedsDetectorFields(t *testing.T) {
	cfg := latBase()
	cfg.SampleInterval = 100 * time.Microsecond
	res := simnet.RunMultirate(cfg)
	if len(res.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(res.Series))
	}
	last := res.Series[1][len(res.Series[1])-1]
	if !last.LatencyValid || last.E2EP99Ns <= 0 || len(last.StageP99) == 0 {
		t.Fatalf("final receiver sample lacks latency fields: %+v", last)
	}
}

// latClusterRun is a 2-rank virtual run with both attribution and sampling
// on.
func latClusterRun(stall time.Duration) simnet.Result {
	// Virtual sampling is free, so the interval is tight enough that the
	// post-stall drain — where the piled-up tail becomes visible in the
	// cumulative histograms — spans the detector's streak window.
	cfg := simnet.Config{
		Machine:        hw.AlembertHaswell(),
		Pairs:          2,
		Window:         32,
		Iters:          8,
		NumInstances:   2,
		SampleInterval: 20 * time.Microsecond,
		Latency:        true,
	}
	if stall > 0 {
		cfg.StallRecv = stall
		cfg.StallAfterIter = 1
	}
	return simnet.RunMultirate(cfg)
}

// TestClusterSeriesLatencyTailSkewVerdict is the deterministic twin of the
// live tail-skew detection: two healthy virtual pair sets composed with a
// stalled one give three latency-reporting receivers (ranks 1, 3, 5); the
// stalled receiver's tail must draw a latency-tail-skew verdict naming it
// and no other rank, with the dominant stage named in the detail.
func TestClusterSeriesLatencyTailSkewVerdict(t *testing.T) {
	a, b := latClusterRun(0), latClusterRun(0)
	series := compose(a, b, latClusterRun(20*time.Millisecond))
	verdicts := detectSeries(t, flight.DetectorConfig{StallAfter: time.Millisecond}, series)
	sawTail := false
	for _, v := range verdicts {
		if v.Reason != "latency-tail-skew" {
			continue
		}
		if v.Rank != 5 {
			t.Fatalf("tail-skew named rank %d, want the stalled receiver (5): %+v", v.Rank, v)
		}
		if !strings.Contains(v.Detail, "dominant stage") {
			t.Fatalf("tail-skew detail lacks the dominant stage: %q", v.Detail)
		}
		sawTail = true
	}
	if !sawTail {
		t.Fatalf("no latency-tail-skew verdict from the stalled composition: %+v", verdicts)
	}

	// A healthy composition must stay tail-clean under the default config.
	for _, v := range detectSeries(t, flight.DetectorConfig{}, compose(a, b)) {
		if v.Reason == "latency-tail-skew" {
			t.Fatalf("healthy composition drew a tail-skew verdict: %+v", v)
		}
	}
}
