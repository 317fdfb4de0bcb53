package flight

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

const ms = int64(time.Millisecond)

func sampleAt(now int64) Sample {
	return Sample{NowNs: now}
}

func TestDetectorNoProgress(t *testing.T) {
	d := NewDetector(DetectorConfig{StallAfter: 10 * time.Millisecond})

	s := sampleAt(0)
	s.Sent, s.Received = 5, 5
	s.Comms = []CommQueues{{Comm: 1, Posted: 2}}
	if _, fired := d.Observe(s); fired {
		t.Fatal("priming sample fired")
	}

	// Counters move: no verdict, stall clock resets.
	s = sampleAt(5 * ms)
	s.Sent, s.Received = 6, 5
	s.Comms = []CommQueues{{Comm: 1, Posted: 2}}
	if _, fired := d.Observe(s); fired {
		t.Fatal("fired while counters moved")
	}

	// Frozen counters but nothing outstanding: an idle rank is not stalled.
	for now := int64(10); now <= 40; now += 5 {
		s = sampleAt(now * ms)
		s.Sent, s.Received = 6, 5
		if _, fired := d.Observe(s); fired {
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
		if got, ok := d.Observe(s); ok {
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

func TestDetectorRetransmitStorm(t *testing.T) {
	d := NewDetector(DetectorConfig{StormWindow: 10 * time.Millisecond, StormRetransmits: 8})
	d.Observe(sampleAt(0))

	// 4 retransmits in the first window: below threshold.
	s := sampleAt(12 * ms)
	s.Retransmits = 4
	if v, fired := d.Observe(s); fired {
		t.Fatalf("fired below threshold: %+v", v)
	}

	// 20 more in the next window: storm.
	s = sampleAt(25 * ms)
	s.Retransmits = 24
	v, fired := d.Observe(s)
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
	d.Observe(s)

	// Growth interrupted by a plateau: streak resets.
	depths := []int{11, 12, 12, 13, 14, 15, 16}
	var v Verdict
	fired := false
	for i, depth := range depths {
		s = sampleAt(int64(i+1) * ms)
		s.Comms = []CommQueues{{Comm: 3, Unexpected: depth}}
		if got, ok := d.Observe(s); ok {
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
	d.Observe(s)
	// +1 per sample: monotone, but far below the delta floor.
	for i := 1; i <= 10; i++ {
		s = sampleAt(int64(i) * ms)
		s.Comms = []CommQueues{{Comm: 1, Unexpected: i}}
		if v, ok := d.Observe(s); ok {
			t.Fatalf("sample %d fired on +1 creep below GrowthMinDelta: %+v", i, v)
		}
	}
	// A real backlog crosses the floor and fires.
	s = sampleAt(11 * ms)
	s.Comms = []CommQueues{{Comm: 1, Unexpected: 120}}
	v, ok := d.Observe(s)
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
			if v, ok := d.Observe(s); ok {
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
