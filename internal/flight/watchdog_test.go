package flight

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/spc"
)

const ms = int64(time.Millisecond)

func sampleAt(now int64) Sample {
	return Sample{NowNs: now}
}

// observe shows the detector one rank, the way the stall watchdog does, and
// returns the first verdict the observation fired.
func observe(d *Detector, s Sample) (Verdict, bool) {
	vs := d.Observe(s.NowNs, []Sample{s})
	if len(vs) == 0 {
		return Verdict{}, false
	}
	return vs[0], true
}

func TestDetectorNoProgress(t *testing.T) {
	d := NewDetector(DetectorConfig{StallAfter: 10 * time.Millisecond})

	s := sampleAt(0)
	s.Sent, s.Received = 5, 5
	s.Comms = []CommQueues{{Comm: 1, Posted: 2}}
	if _, fired := observe(d, s); fired {
		t.Fatal("priming sample fired")
	}

	// Counters move: no verdict, stall clock resets.
	s = sampleAt(5 * ms)
	s.Sent, s.Received = 6, 5
	s.Comms = []CommQueues{{Comm: 1, Posted: 2}}
	if _, fired := observe(d, s); fired {
		t.Fatal("fired while counters moved")
	}

	// Frozen counters but nothing outstanding: an idle rank is not stalled.
	for now := int64(10); now <= 40; now += 5 {
		s = sampleAt(now * ms)
		s.Sent, s.Received = 6, 5
		if _, fired := observe(d, s); fired {
			t.Fatalf("fired at %dms with nothing outstanding", now)
		}
	}

	// Frozen counters with a posted receive outstanding: fires after
	// StallAfter, then re-arms.
	fired := 0
	var v Verdict
	for now := int64(45); now <= 100; now += 5 {
		s = sampleAt(now * ms)
		s.Sent, s.Received = 6, 5
		s.Comms = []CommQueues{{Comm: 1, Posted: 2}}
		if got, ok := observe(d, s); ok {
			fired++
			v = got
		}
	}
	if fired == 0 {
		t.Fatal("no-progress never fired")
	}
	if v.Reason != "no-progress" || v.Phase != "progress" {
		t.Fatalf("verdict = %+v", v)
	}
	if !strings.Contains(v.Site, "comm 1") {
		t.Fatalf("verdict site %q does not name the comm", v.Site)
	}
	// Re-arm means one firing per StallAfter period, not one per sample:
	// 12 samples over 55ms with a 10ms stall must fire at most 6 times.
	if fired > 6 {
		t.Fatalf("no-progress fired %d times in 55ms with 10ms stall — re-arm broken", fired)
	}
}

// A receiver that froze after its posted receives matched holds its peer's
// further traffic in a receive ring no pass drains: every matching queue is
// empty, and the pending CRI alone is the work outstanding.
func TestDetectorNoProgressPendingCRI(t *testing.T) {
	d := NewDetector(DetectorConfig{StallAfter: 10 * time.Millisecond})
	frozen := func(now int64) Sample {
		qs := QueueSnapshot{Comms: []CommQueues{{Comm: 0}}, CRIs: []CRILevel{{Index: 0}, {Index: 1, Pending: true}}}
		var counters spc.Snapshot
		counters[spc.MessagesSent], counters[spc.MessagesReceived] = 64, 64
		s := NewSample(0, counters, []QueueSnapshot{qs}, nil, 0, false)
		s.NowNs, s.Ready = now, true
		return s
	}
	var vs []Verdict
	for now := int64(0); now <= 30; now += 5 {
		vs = append(vs, d.Observe(now*ms, []Sample{frozen(now * ms)})...)
	}
	if len(vs) == 0 {
		t.Fatal("a rank frozen with a pending CRI and empty queues fired nothing")
	}
	v := vs[0]
	if v.Reason != ReasonNoProgress || v.Site != "cri.instance 1 receive ring" || !strings.HasSuffix(v.Detail, "unacked=0 pending_cris=1)") {
		t.Fatalf("verdict = %+v, want no-progress at cri.instance 1's receive ring with one pending CRI", v)
	}

	// A queue with anything in it is the site, and the count is left out of
	// the detail while no CRI is pending.
	s := frozen(0)
	s.Comms[0].Posted = 1
	if got := (live{Sample: s, QueueDepths: s.Depths()}).stallSite(); got != "match.comm 0 posted/unexpected queues" {
		t.Fatalf("site with a posted receive beside a pending CRI = %q", got)
	}
	s.PendingCRIs = nil
	if got := (live{Sample: s, QueueDepths: s.Depths()}).outstanding(); got != "posted=1 unexpected=0 oos=0 unacked=0" {
		t.Fatalf("outstanding with no pending CRI = %q", got)
	}
}

func TestDetectorRetransmitStorm(t *testing.T) {
	d := NewDetector(DetectorConfig{StormWindow: 10 * time.Millisecond, StormRetransmits: 8})
	observe(d, sampleAt(0))

	// 4 retransmits in the first window: below threshold.
	s := sampleAt(12 * ms)
	s.Retransmits = 4
	if v, fired := observe(d, s); fired {
		t.Fatalf("fired below threshold: %+v", v)
	}

	// 20 more in the next window: storm.
	s = sampleAt(25 * ms)
	s.Retransmits = 24
	v, fired := observe(d, s)
	if !fired || v.Reason != "retransmit-storm" || v.Phase != "retransmit" {
		t.Fatalf("storm verdict = %+v fired=%v", v, fired)
	}
	if !strings.Contains(v.Detail, "20 retransmissions") {
		t.Fatalf("storm detail %q", v.Detail)
	}
}

func TestDetectorUnexpectedGrowth(t *testing.T) {
	d := NewDetector(DetectorConfig{GrowthSamples: 4})
	s := sampleAt(0)
	s.Comms = []CommQueues{{Comm: 3, Unexpected: 10}}
	observe(d, s)

	// Growth interrupted by a plateau: streak resets.
	depths := []int{11, 12, 12, 13, 14, 15, 16}
	var v Verdict
	fired := false
	for i, depth := range depths {
		s = sampleAt(int64(i+1) * ms)
		s.Comms = []CommQueues{{Comm: 3, Unexpected: depth}}
		if got, ok := observe(d, s); ok {
			if fired {
				t.Fatalf("fired twice: %+v and %+v", v, got)
			}
			v, fired = got, true
		}
	}
	if !fired {
		t.Fatal("growth never fired")
	}
	if v.Reason != "unexpected-queue-growth" || v.Phase != "match" {
		t.Fatalf("verdict = %+v", v)
	}
	if !strings.Contains(v.Site, "comm 3") {
		t.Fatalf("site %q does not name the comm", v.Site)
	}
	if !strings.Contains(v.Detail, "12 -> 16") {
		t.Fatalf("detail %q does not carry the growth range", v.Detail)
	}
}

// TestDetectorGrowthMinDelta: approximate depth counters (sharded matching,
// ring CQs) can drift upward by single elements against in-flight operations;
// a raised GrowthMinDelta keeps slow monotone creep from firing until the
// total increase is unambiguous.
func TestDetectorGrowthMinDelta(t *testing.T) {
	d := NewDetector(DetectorConfig{GrowthSamples: 3, GrowthMinDelta: 50})
	s := sampleAt(0)
	s.Comms = []CommQueues{{Comm: 1, Unexpected: 0}}
	observe(d, s)
	// +1 per sample: monotone, but far below the delta floor.
	for i := 1; i <= 10; i++ {
		s = sampleAt(int64(i) * ms)
		s.Comms = []CommQueues{{Comm: 1, Unexpected: i}}
		if v, ok := observe(d, s); ok {
			t.Fatalf("sample %d fired on +1 creep below GrowthMinDelta: %+v", i, v)
		}
	}
	// A real backlog crosses the floor and fires.
	s = sampleAt(11 * ms)
	s.Comms = []CommQueues{{Comm: 1, Unexpected: 120}}
	v, ok := observe(d, s)
	if !ok {
		t.Fatal("real growth past GrowthMinDelta never fired")
	}
	if v.Reason != "unexpected-queue-growth" {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestDetectorDeterminism(t *testing.T) {
	run := func() []Verdict {
		d := NewDetector(DetectorConfig{StallAfter: 5 * time.Millisecond, GrowthSamples: 3})
		var out []Verdict
		for i := int64(0); i < 40; i++ {
			s := sampleAt(i * ms)
			s.Sent = 10
			s.Comms = []CommQueues{{Comm: 1, Unexpected: int(i) / 2, Posted: 1}}
			if v, ok := observe(d, s); ok {
				out = append(out, v)
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("deterministic run fired nothing")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestWriteDumpAndExitDump(t *testing.T) {
	var buf bytes.Buffer
	d := Dump{
		Rank:    1,
		Verdict: Verdict{Reason: "no-progress", Phase: "progress", Site: "match.comm 0 posted/unexpected queues"},
		Queues: QueueSnapshot{
			Rank:  1,
			Comms: []CommQueues{{Comm: 0, Posted: 3, Unexpected: 9}},
			CRIs:  []CRILevel{{Index: 0, Pending: true}},
		},
	}
	if err := WriteDump(&buf, d); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"no-progress"`, `"unexpected": 9`, `"pending": true`, `"record"`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("dump JSON missing %s:\n%s", want, buf.String())
		}
	}

	buf.Reset()
	if err := WriteExitDump(&buf, ExitDump{}); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, `"queues": []`) || !strings.Contains(s, `"flight": []`) {
		t.Fatalf("empty exit dump must keep arrays: %s", s)
	}

	buf.Reset()
	if err := WriteSnapshots(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Fatalf("nil snapshots JSON = %q", buf.String())
	}
}

// TestDominantStage: ratio against the cluster median picks the stage the
// sick rank is an outlier in, even when another stage has a larger
// absolute p99 everywhere.
func TestDominantStage(t *testing.T) {
	med := map[string]float64{
		"wire_write":   1_000_000, // big everywhere
		"deliver_wait": 1_000,
	}
	stages := []StageP99{
		{Stage: "wire_write", P99Ns: 1_200_000}, // 1.2x median
		{Stage: "deliver_wait", P99Ns: 500_000}, // 500x median
	}
	stage, p99 := dominantStage(stages, med)
	if stage != "deliver_wait" || p99 != 500_000 {
		t.Fatalf("dominantStage = %q/%d, want deliver_wait/500000", stage, p99)
	}
	if s, _ := dominantStage(nil, med); s != "" {
		t.Fatalf("dominantStage(nil) = %q, want empty", s)
	}
}

// TestEveryRuleSeesEverySample: an observation that fires one rule still
// reaches the others. The growth verdict used to return from inside the
// per-communicator loop, so that sample never re-anchored the storm window
// (the next delta was then measured over two windows and read as a storm)
// and never reached the movement clock (a stall starting on it was dated one
// interval late).
func TestEveryRuleSeesEverySample(t *testing.T) {
	d := NewDetector(DetectorConfig{
		GrowthSamples: 2, GrowthMinDelta: 2,
		StormWindow: 10 * time.Millisecond, StormRetransmits: 8,
		StallAfter: 30 * time.Millisecond,
	})
	// One sample per storm window, 6 retransmissions in each — under the
	// threshold. The unexpected queue of comm 1 grows until the third sample
	// fires the growth rule; the counters move up to and including that
	// sample, then freeze with a receive posted.
	var all []Verdict
	for i := int64(0); i <= 8; i++ {
		s := sampleAt(i * 10 * ms)
		s.Sent = min(i, 2)
		s.Retransmits = 6 * i
		s.Comms = []CommQueues{{Comm: 1, Posted: 1, Unexpected: int(4 * min(i, 2))}}
		all = append(all, d.Observe(s.NowNs, []Sample{s})...)
	}
	var growth, stall []Verdict
	for _, v := range all {
		switch v.Reason {
		case ReasonUnexpectedGrowth:
			growth = append(growth, v)
		case ReasonNoProgress:
			stall = append(stall, v)
		default:
			t.Fatalf("6 retransmissions per window is no storm, yet: %+v", v)
		}
	}
	if len(growth) != 1 || growth[0].SinceNs != 20*ms {
		t.Fatalf("growth verdicts = %+v, want one at 20ms", growth)
	}
	if len(stall) == 0 || stall[0].SinceNs != 20*ms {
		t.Fatalf("no-progress verdicts = %+v, want the first dated from the last movement at 20ms", stall)
	}
}
