package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// smokeDiv runs everything at 1/200 of its size: a few seconds in all.
const smokeDiv = 200

func metricNames(defs []metricDef) map[string]bool {
	out := make(map[string]bool, len(defs))
	for _, d := range defs {
		out[d.Name] = true
	}
	return out
}

func checkMetrics(t *testing.T, r *workloadResult, defs []metricDef) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d: %s", r.Workload, r.Correct, r.Attempted, r.Failed, r.Failure)
	}
	want := metricNames(defs)
	for _, a := range r.Absent {
		delete(want, a)
	}
	for name := range r.Metrics {
		if !want[name] {
			t.Errorf("%s: emitted %q, which the metric table does not list", r.Workload, name)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("%s: metric %q was not emitted", r.Workload, name)
	}
}

// All six workloads, untraced, with verification on: every end-to-end
// metric comes out, is positive, and no operation fails.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		res, err := runUntraced(w.scaled(smokeDiv), 7, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkMetrics(t, res, endToEnd)
		for name, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, m.Value)
			}
		}
		var out bytes.Buffer
		if err := printResult(&out, endToEnd, res); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("%s: last line is not a JSON object: %v", w.name, err)
		}
		if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
			t.Errorf("%s: result line has keys %v, want exactly correct, attempted, failed, metrics", w.name, line)
		}
	}
}

// The traced pass and the ladder: every per-layer metric by name, one span
// file per workload, and the counters wired to the right runs.
func TestSmokeTraced(t *testing.T) {
	sh, err := runShared(7, smokeDiv)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, w := range workloads {
		res, notes, err := runTraced(w.scaled(smokeDiv), 7, 0, sh, readHost(), dir)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkMetrics(t, res, perLayer)
		if !strings.Contains(notes, spanWindow.String()) {
			t.Errorf("%s: span table has no window spans:\n%s", w.name, notes)
		}
		b, err := os.ReadFile(filepath.Join(dir, "trace_"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Workload string
			Fields   []string
			Spans    [][]any
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatalf("%s: trace file: %v", w.name, err)
		}
		if doc.Workload != w.name || len(doc.Spans) == 0 || len(doc.Spans[0]) != len(doc.Fields) {
			t.Errorf("%s: trace file names %q with %d spans of %d fields", w.name, doc.Workload, len(doc.Spans), len(doc.Fields))
		}
		v := func(name string) float64 { return res.Metrics[name].Value }
		switch w.name {
		case "inproc_match_deep_0B":
			if got := v("match.walk_elems_per_msg"); got < 60 || got > 70 {
				t.Errorf("deep matching walks %v elements per message, want about 64.5", got)
			}
		case "inproc_stream_0B":
			if got := v("match.walk_elems_per_msg"); got > 2 {
				t.Errorf("head-of-list matching walks %v elements per message, want about 1", got)
			}
		case "inproc_rma_put_8B_mt":
			if v("rma.flush_calls") == 0 || v("rma.put_ns_per_op") == 0 || v("match.walk_elems_per_msg") != 0 {
				t.Errorf("rma workload: flush_calls=%v put_ns=%v walk=%v", v("rma.flush_calls"), v("rma.put_ns_per_op"), v("match.walk_elems_per_msg"))
			}
		case "tcp_stream_0B":
			if _, ok := readIO(); ok {
				if r, wr := v("tcpnet.read_syscalls_per_msg"), v("tcpnet.write_syscalls_per_msg"); r < 1 || wr < 0.5 {
					t.Errorf("tcp stream: %v read and %v write syscalls per message, want about 2 and 1", r, wr)
				}
			}
			if v("tcpnet.conns_opened") != 1 {
				t.Errorf("tcp stream opened %v connections, want one socket", v("tcpnet.conns_opened"))
			}
		}
	}
}

// A verification failure is a failed operation, never a panic.
func TestVerificationCountsFailures(t *testing.T) {
	w, _ := findWorkload("tcp_rndv_64K")
	r, _, err := newRep(w.scaled(smokeDiv), 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if _, _, err := r.phase(0, 2, [2]*spanLog{}, false); err != nil {
		t.Fatal(err)
	}
	if n := r.failed.Load(); n != 0 {
		t.Fatalf("clean run counted %d failures: %s", n, r.firstFailure())
	}
	got := r.recvBufs[1]
	if !r.payloadOK(got, 1, 1) {
		t.Fatal("the last window's payload does not verify")
	}
	got[len(got)/2] ^= 1
	if r.payloadOK(got, 1, 1) {
		t.Error("a flipped payload byte went unnoticed")
	}
	got[len(got)/2] ^= 1
	if r.payloadOK(got, 2, 1) {
		t.Error("a payload verified against the stamp of another message")
	}
	r.verifyTotals(3) // one window more than was sent
	if r.failed.Load() == 0 {
		t.Error("a counter total that disagrees with the count attempted was not a failure")
	}
}

// The names the binary emits are exactly those of BENCHMARK.json.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the binary's default is %d", spec.RunSeconds, runSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	unique := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not of the form %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		unique(w.name)
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the binary %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the binary", kind, len(got), len(want))
		}
		for i := range want {
			unique(want[i].Name)
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the binary %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || d == metricDef{Name: "setup_s", Unit: "s", Better: lower, Bound: d.Bound}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
}
