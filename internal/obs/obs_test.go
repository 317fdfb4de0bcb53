package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/latency"
	"repro/internal/spc"
	"repro/internal/telemetry"
)

func get(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestServerEndpoints(t *testing.T) {
	var residual spc.Snapshot
	residual[spc.MessagesSent] = 12
	stats := telemetry.ProcStats{Rank: 0, Residual: residual}
	stats.Process = stats.MergeChildren()
	src := Source{
		Stats: func() []telemetry.ProcStats { return []telemetry.ProcStats{stats} },
		Flight: func() []flight.RankRecord {
			return []flight.RankRecord{{Rank: 0, Events: []flight.Event{
				{TS: 100, Seq: 1, Kind: flight.KindSendInject, Inst: 1, A0: 1},
			}}}
		},
		Info: map[string]string{"transport": "sim", "design": "stock"},
	}
	s, err := Serve("127.0.0.1:0", src)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	if body, _ := get(t, base+"/healthz"); body != "ok\n" {
		t.Fatalf("healthz = %q", body)
	}

	metrics, ct := get(t, base+"/metrics")
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics content-type = %q", ct)
	}
	for _, want := range []string{
		`mpi_build_info{design="stock",transport="sim"} 1`,
		`mpi_spc_messages_sent{rank="0",scope="process"} 12`,
		"# TYPE mpi_uptime_seconds gauge",
		`mpi_uptime_seconds{rank="0"} `,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q\n%s", want, metrics)
		}
	}

	spcText, _ := get(t, base+"/spc")
	if !strings.Contains(spcText, "rank 0 process totals:") || !strings.Contains(spcText, "messages_sent") {
		t.Errorf("/spc output unexpected:\n%s", spcText)
	}

	traceJSON, ct := get(t, base+"/trace")
	if ct != "application/json" {
		t.Errorf("trace content-type = %q", ct)
	}
	var parsed []map[string]any
	if err := json.Unmarshal([]byte(traceJSON), &parsed); err != nil {
		t.Fatalf("/trace is not valid JSON: %v\n%s", err, traceJSON)
	}
	if len(parsed) == 0 {
		t.Error("/trace served no events")
	}

	if body, _ := get(t, base+"/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
}

// TestFileFormEqualsEndpoint: every document that has both an endpoint and
// an output file is the same bytes in both for the same Source — /metrics
// and -metrics-out had drifted (the file lacked mpi_uptime_seconds) while
// each was rendered by its own hand-written list. The one field that is a
// function of when it was rendered, the uptime sample's value, is masked.
func TestFileFormEqualsEndpoint(t *testing.T) {
	var residual spc.Snapshot
	residual[spc.MessagesSent] = 12
	stats := telemetry.ProcStats{Rank: 1, Residual: residual}
	stats.Process = stats.MergeChildren()
	src := Source{
		Stats:  func() []telemetry.ProcStats { return []telemetry.ProcStats{stats} },
		Queues: func() []flight.QueueSnapshot { return []flight.QueueSnapshot{{Rank: 1}} },
		Flight: func() []flight.RankRecord {
			return []flight.RankRecord{{Rank: 1, Events: []flight.Event{
				{TS: 100, Seq: 1, Kind: flight.KindSendInject, Inst: 1, A0: 1},
			}}}
		},
		Latency: func() []latency.RankDump { return []latency.RankDump{{Rank: 1}} },
		Info:    map[string]string{"rank": "1", "transport": "sim"},
	}
	s, err := Serve("127.0.0.1:0", src)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	dir := t.TempDir()
	out := &Outputs{
		MetricsPath: filepath.Join(dir, "m.prom"), TracePath: filepath.Join(dir, "t.json"),
		ShardPath: filepath.Join(dir, "shard.json"), FlightPath: filepath.Join(dir, "exit.json"),
		LatencyPath: filepath.Join(dir, "lat.json"),
	}
	out.Bind(src)
	if err := out.Flush(); err != nil {
		t.Fatal(err)
	}
	uptime := regexp.MustCompile(`(?m)^(mpi_uptime_seconds\{[^}]*\}) \S+$`)
	compared := 0
	for _, v := range views {
		if v.file == nil {
			continue
		}
		file, err := os.ReadFile(v.file(out))
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if v.path == "" {
			continue // a file with no endpoint: written, nothing to compare
		}
		served, ct := get(t, "http://"+s.Addr()+v.path)
		if ct != v.ctype {
			t.Errorf("%s: content type %q, want %q", v.name, ct, v.ctype)
		}
		if got, want := uptime.ReplaceAllString(string(file), "$1 T"), uptime.ReplaceAllString(served, "$1 T"); got != want {
			t.Errorf("%s: the file differs from %s:\n--- file\n%s\n--- endpoint\n%s", v.name, v.path, got, want)
		}
		compared++
	}
	if compared != 4 {
		t.Fatalf("compared %d documents, want 4 (prometheus, chrome trace, flight records, latency dump)", compared)
	}
	if m, _ := os.ReadFile(out.MetricsPath); !strings.Contains(string(m), `mpi_uptime_seconds{rank="1"} `) {
		t.Fatalf("-metrics-out lacks mpi_uptime_seconds:\n%s", m)
	}
}

func TestServerNilSource(t *testing.T) {
	s, err := Serve("127.0.0.1:0", Source{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()
	for _, path := range []string{"/healthz", "/metrics", "/spc", "/trace",
		"/readyz", "/debug/queues", "/debug/flight"} {
		get(t, base+path) // must not panic or error with nil callbacks
	}
}

// A holder-backed server must 503 /readyz until the world binds, then serve
// the introspection endpoints from the bound source.
func TestHolderReadinessAndDebugEndpoints(t *testing.T) {
	h := NewHolder(map[string]string{"transport": "tcp"}, "waiting for rank handshake")
	s, err := Serve("127.0.0.1:0", h.Source())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before bind: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "waiting for rank handshake") {
		t.Fatalf("/readyz reason missing: %q", body)
	}
	// Liveness and the debug endpoints must answer even while not ready.
	get(t, base+"/healthz")
	if qs, ct := get(t, base+"/debug/queues"); ct != "application/json" || strings.TrimSpace(qs) != "[]" {
		t.Fatalf("/debug/queues before bind = %q (%s)", qs, ct)
	}

	h.Bind(Source{
		Queues: func() []flight.QueueSnapshot {
			return []flight.QueueSnapshot{{Rank: 2, Comms: []flight.CommQueues{{Comm: 0, Posted: 3, Unexpected: 1}}}}
		},
		Flight: func() []flight.RankRecord {
			return []flight.RankRecord{{Rank: 2, Rings: []string{"rank2/t0"},
				Events: []flight.Event{{TS: 10, Seq: 1, Kind: flight.KindSendPost, A0: 1}}}}
		},
	})
	h.SetReady()

	if body, _ := get(t, base+"/readyz"); body != "ready\n" {
		t.Fatalf("/readyz after SetReady = %q", body)
	}
	qs, _ := get(t, base+"/debug/queues")
	if !strings.Contains(qs, `"posted": 3`) || !strings.Contains(qs, `"unexpected": 1`) {
		t.Fatalf("/debug/queues = %s", qs)
	}
	fl, _ := get(t, base+"/debug/flight")
	if !strings.Contains(fl, `"send_post"`) || !strings.Contains(fl, `"rank2/t0"`) {
		t.Fatalf("/debug/flight = %s", fl)
	}
	// Info provided at construction still labels /metrics after the bind.
	if metrics, _ := get(t, base+"/metrics"); !strings.Contains(metrics, `transport="tcp"`) {
		t.Fatalf("/metrics lost holder info:\n%s", metrics)
	}
}

// The uptime gauge carries the rank from the run metadata (the rank-label
// contract: distributed ranks set Info["rank"], single-process runs get 0).
func TestUptimeRankLabel(t *testing.T) {
	s, err := Serve("127.0.0.1:0", Source{Info: map[string]string{"rank": "3"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	metrics, _ := get(t, "http://"+s.Addr()+"/metrics")
	if !strings.Contains(metrics, `mpi_uptime_seconds{rank="3"} `) {
		t.Fatalf("/metrics uptime not rank-labeled:\n%s", metrics)
	}
}

// A finished run keeps its endpoint up until an observer has seen /readyz
// answer 200 — a 503 does not count — and gives up after the grace period
// when nobody probes.
func TestCloseAfterProbe(t *testing.T) {
	h := NewHolder(nil, "starting")
	s, err := Serve("127.0.0.1:0", h.Source())
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()
	closed := make(chan error, 1)
	go func() { closed <- s.CloseAfterProbe(time.Minute) }()

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("probe before SetReady answered %d", resp.StatusCode)
	}
	if body, _ := get(t, base+"/healthz"); body != "ok\n" {
		t.Fatalf("endpoint closed before any ready probe: healthz = %q", body)
	}
	select {
	case err := <-closed:
		t.Fatalf("closed (%v) with no ready probe served", err)
	default:
	}
	h.SetReady()
	if body, _ := get(t, base+"/readyz"); body != "ready\n" {
		t.Fatalf("readyz = %q", body)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("endpoint still serving after the probe released it")
	}

	// Nobody watching: the grace period bounds the wait.
	s2, err := Serve("127.0.0.1:0", Source{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.CloseAfterProbe(time.Millisecond); err != nil {
		t.Fatal(err)
	}
}
