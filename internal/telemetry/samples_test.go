package telemetry

import (
	"strings"
	"testing"
	"time"

	"repro/internal/spc"
)

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
