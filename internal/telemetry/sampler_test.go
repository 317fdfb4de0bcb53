package telemetry

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/prof"
	"repro/internal/spc"
)

func TestSamplerCollects(t *testing.T) {
	var ticks atomic.Int64
	h := NewHistogram()
	h.ObserveNs(500)
	src := func() (spc.Snapshot, []NamedHist, prof.Snapshot) {
		var sn spc.Snapshot
		sn[spc.MessagesSent] = ticks.Add(1)
		return sn, []NamedHist{{HistMsgLatency, h.Snapshot()}}, prof.Snapshot{}
	}
	s := NewSampler(time.Millisecond, src)
	s.Start()
	time.Sleep(10 * time.Millisecond)
	s.Stop()
	samples := s.Samples()
	if len(samples) == 0 {
		t.Fatal("no samples collected")
	}
	// Stop takes a final sample, so the last one carries the last tick.
	last := samples[len(samples)-1]
	if got := last.Counters.Get(spc.MessagesSent); got != ticks.Load() {
		t.Fatalf("final sample counter = %d, want %d", got, ticks.Load())
	}
	if len(last.Hists) != 1 || last.Hists[0].Hist.Count != 1 {
		t.Fatalf("final sample histograms wrong: %+v", last.Hists)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Elapsed < samples[i-1].Elapsed {
			t.Fatal("sample elapsed times not monotonic")
		}
	}
	// Stop is idempotent.
	s.Stop()
	if got := len(s.Samples()); got != len(samples) {
		t.Fatalf("second Stop changed sample count: %d -> %d", len(samples), got)
	}
}

func TestSamplerCSV(t *testing.T) {
	var sn spc.Snapshot
	sn[spc.MessagesReceived] = 64
	h := NewHistogram()
	h.ObserveNs(2000)
	samples := []Sample{
		{Elapsed: time.Millisecond, Counters: sn, Hists: []NamedHist{{HistLockWait, h.Snapshot()}}},
		{Elapsed: 2 * time.Millisecond, Counters: sn, Hists: []NamedHist{{HistLockWait, h.Snapshot()}}},
	}
	var sb strings.Builder
	if err := WriteSamplesCSV(&sb, samples); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d CSV lines, want header + 2 rows", len(lines))
	}
	header := strings.Split(lines[0], ",")
	if header[0] != "elapsed_ns" {
		t.Fatalf("header starts with %q", header[0])
	}
	wantCols := 1 + spc.NumCounters + 4 // elapsed + counters + count/p50/p99/max
	if len(header) != wantCols {
		t.Fatalf("header has %d columns, want %d", len(header), wantCols)
	}
	if !strings.Contains(lines[0], "lock_wait_ns_count") {
		t.Fatal("histogram columns missing from header")
	}
	for _, row := range lines[1:] {
		if got := len(strings.Split(row, ",")); got != wantCols {
			t.Fatalf("row has %d columns, want %d", got, wantCols)
		}
	}
	if !strings.Contains(lines[1], ",64,") {
		t.Fatal("counter value missing from row")
	}
}

func TestSamplerNil(t *testing.T) {
	var s *Sampler
	s.Start()
	s.Stop()
	if s.Samples() != nil {
		t.Fatal("nil sampler returned samples")
	}
	// Never-started sampler: Stop must not panic or hang.
	ns := NewSampler(time.Millisecond, func() (spc.Snapshot, []NamedHist, prof.Snapshot) {
		return spc.Snapshot{}, nil, prof.Snapshot{}
	})
	ns.Stop()
	if len(ns.Samples()) != 0 {
		t.Fatal("unstarted sampler recorded samples")
	}
}
