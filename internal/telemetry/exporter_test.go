package telemetry

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"repro/internal/flight"
	"repro/internal/prof"
	"repro/internal/spc"
)

func testStats() ProcStats {
	var cri0, cri1, comm7, residual spc.Snapshot
	cri0[spc.SendLockWaits] = 3
	cri1[spc.SendLockWaits] = 2
	comm7[spc.MessagesSent] = 40
	comm7[spc.MessagesReceived] = 40
	residual[spc.ProgressCalls] = 11
	h := NewHistogram()
	h.ObserveNs(10)
	h.ObserveNs(10)
	h.ObserveNs(3000)
	ps := ProcStats{
		Rank:     1,
		PerCRI:   []CRIStat{{Index: 1, Counters: cri1}, {Index: 0, Counters: cri0}},
		PerComm:  []CommStat{{ID: 7, Counters: comm7}},
		Residual: residual,
		Hists:    []NamedHist{{HistMatchSection, h.Snapshot()}},
	}
	ps.Process = ps.MergeChildren()
	return ps
}

func TestWritePrometheusGolden(t *testing.T) {
	var sb strings.Builder
	in := testStats()
	if err := WritePrometheus(&sb, in); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// The exposition is ordered (cri 0 before cri 1); the caller's slices are
	// not — concurrent renders of one document must not write to it.
	if in.PerCRI[0].Index != 1 || strings.Index(out, `cri="0"`) > strings.Index(out, `cri="1"`) {
		t.Fatalf("render reordered its input (%+v) or left its output unordered", in.PerCRI)
	}
	// Exact lines the exposition must contain: process totals, attributed
	// scopes, and a consistent histogram family.
	want := []string{
		`# TYPE mpi_spc_messages_sent counter`,
		`mpi_spc_messages_sent{rank="1",scope="process"} 40`,
		`mpi_spc_messages_sent{rank="1",scope="comm",comm="7"} 40`,
		`mpi_spc_send_lock_waits{rank="1",scope="process"} 5`,
		`mpi_spc_send_lock_waits{rank="1",scope="cri",cri="0"} 3`,
		`mpi_spc_send_lock_waits{rank="1",scope="cri",cri="1"} 2`,
		`mpi_spc_progress_calls{rank="1",scope="process"} 11`,
		`# TYPE mpi_match_section_ns histogram`,
		`mpi_match_section_ns_bucket{rank="1",le="+Inf"} 3`,
		`mpi_match_section_ns_sum{rank="1"} 3020`,
		`mpi_match_section_ns_count{rank="1"} 3`,
	}
	for _, w := range want {
		if !strings.Contains(out, w+"\n") {
			t.Errorf("prometheus output missing line %q\n--- got ---\n%s", w, out)
		}
	}
	// Zero-valued attributed scopes must not be emitted.
	if strings.Contains(out, `mpi_spc_messages_sent{rank="1",scope="cri"`) {
		t.Error("zero per-CRI messages_sent emitted")
	}
	// The wire-batching and ring-backpressure counters are families of their
	// own, present (at zero) even when the run never touched a socket.
	for _, fam := range []string{
		"mpi_spc_wire_flushes", "mpi_spc_wire_frames_flushed", "mpi_spc_wire_backstop_flushes",
		"mpi_spc_wire_flush_failures", "mpi_spc_wire_frames_stranded",
		"mpi_spc_wire_frames_rejected", "mpi_spc_ring_full_waits",
		"mpi_spc_wire_reads_polled", "mpi_spc_wire_reads_parked",
	} {
		if !strings.Contains(out, "# TYPE "+fam+" counter\n"+fam+`{rank="1",scope="process"} 0`+"\n") {
			t.Errorf("prometheus output missing family %s", fam)
		}
	}
}

func TestPrometheusHistogramInvariants(t *testing.T) {
	// The +Inf bucket must equal _count for every histogram series, and
	// cumulative buckets must be non-decreasing — the invariants any
	// Prometheus consumer assumes.
	var sb strings.Builder
	if err := WritePrometheus(&sb, testStats()); err != nil {
		t.Fatal(err)
	}
	inf := map[string]int64{}
	count := map[string]int64{}
	last := map[string]int64{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		val, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparseable sample line %q: %v", line, err)
		}
		switch {
		case strings.HasSuffix(name, "_bucket") && strings.Contains(line, `le="+Inf"`):
			inf[name] = val
		case strings.HasSuffix(name, "_bucket"):
			if val < last[name] {
				t.Errorf("cumulative bucket decreased in %q", line)
			}
			last[name] = val
		case strings.HasSuffix(name, "_count"):
			count[strings.TrimSuffix(name, "_count")+"_bucket"] = val
		}
	}
	if len(inf) == 0 {
		t.Fatal("no +Inf buckets found")
	}
	for name, v := range inf {
		if count[name] != v {
			t.Errorf("%s: +Inf bucket %d != _count %d", name, v, count[name])
		}
	}
}

// TestPrometheusRankLabelContract asserts the aggregation-safety contract
// the cluster plane depends on: every sample line the exporter emits —
// counters, histograms, and the contention-profiler families — carries a
// rank label, so per-rank series from different processes never collide
// when concatenated into one merged exposition.
func TestPrometheusRankLabelContract(t *testing.T) {
	ps := testStats()
	ps.Prof = prof.Snapshot{
		Sites: []prof.SiteSnapshot{{Name: "match.comm", Comm: 7, Acquisitions: 4, Contended: 1, WaitNs: 900, HoldNs: 1200}},
		Threads: []prof.ThreadSnapshot{{
			Label: "send-0", WallNs: 5000,
			PhaseNs: map[string]int64{"app": 1000, "send": 4000},
		}},
	}
	ps2 := testStats()
	ps2.Rank = 2
	var sb strings.Builder
	if err := WritePrometheus(&sb, ps, ps2); err != nil {
		t.Fatal(err)
	}
	ranks := map[string]bool{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.Index(line, `rank="`)
		if i < 0 {
			t.Errorf("sample line without rank label: %q", line)
			continue
		}
		rest := line[i+len(`rank="`):]
		ranks[rest[:strings.IndexByte(rest, '"')]] = true
	}
	if !ranks["1"] || !ranks["2"] {
		t.Fatalf("expected series for ranks 1 and 2, saw %v", ranks)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	events := []flight.Event{
		{TS: 1000, Seq: 1, Kind: flight.KindSendInject, Inst: 1, A0: 1, A1: 0},
		{TS: 2500, Seq: 2, Kind: flight.KindSendInject, Inst: 3, A0: 1, A1: 1},
		{TS: 3000, Seq: 3, Kind: flight.KindMatchComplete, A0: 0, A1: 9},
	}
	var sb strings.Builder
	if err := WriteChromeTraceRanks(&sb, []flight.RankRecord{{Rank: 4, Events: events}}, nil); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &parsed); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, sb.String())
	}
	var meta, slices int
	threadNames := map[float64]string{}
	for _, e := range parsed {
		switch e["ph"] {
		case "M":
			meta++
			if e["name"] == "thread_name" {
				threadNames[e["tid"].(float64)] = e["args"].(map[string]any)["name"].(string)
			}
		case "X":
			slices++
			if e["pid"].(float64) != 4 {
				t.Errorf("slice pid = %v, want 4", e["pid"])
			}
			args := e["args"].(map[string]any)
			cri := args["cri"].(float64)
			if cri >= 0 && e["tid"].(float64) != cri+1 {
				t.Errorf("attributed slice tid %v != cri+1 (%v)", e["tid"], cri+1)
			}
			if cri < 0 && e["tid"].(float64) != 0 {
				t.Errorf("unattributed slice tid %v, want 0", e["tid"])
			}
		default:
			t.Errorf("unexpected phase %v", e["ph"])
		}
	}
	if slices != len(events) {
		t.Fatalf("%d slices, want %d", slices, len(events))
	}
	// One process_name + rows for cri-0, cri-2, and the unattributed event.
	if meta != 4 {
		t.Fatalf("%d metadata records, want 4", meta)
	}
	if threadNames[1] != "cri-0" || threadNames[3] != "cri-2" || threadNames[0] != "unattributed" {
		t.Fatalf("thread rows misnamed: %v", threadNames)
	}
	// The second event's timestamp must be microseconds (2500 ns = 2.5 µs).
	if !strings.Contains(sb.String(), `"ts":2.500`) {
		t.Error("timestamps not converted to microseconds")
	}
}

func TestProcStatsWriteText(t *testing.T) {
	var sb strings.Builder
	if err := testStats().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, w := range []string{"rank 1 process totals:", "cri 0:", "cri 1:", "comm 7:", "residual:", "hist match_section_ns"} {
		if !strings.Contains(out, w) {
			t.Errorf("WriteText missing %q\n%s", w, out)
		}
	}
}
