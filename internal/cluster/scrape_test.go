package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/latency"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/spc"
	"repro/internal/telemetry"
)

// seededHist is 5000 exponentially distributed observations (mean 50 µs
// times scale) from a fixed seed.
func seededHist(seed int64, scale float64) telemetry.HistSnapshot {
	rng := rand.New(rand.NewSource(seed))
	h := telemetry.NewHistogram()
	for i := 0; i < 5000; i++ {
		h.ObserveNs(int64(rng.ExpFloat64() * 50_000 * scale))
	}
	return h.Snapshot()
}

// testProcStats builds a realistic exporter input: process counters with
// per-CRI and per-comm attribution, a latency histogram and a profiler
// snapshot.
func testProcStats(rank int) telemetry.ProcStats {
	proc := spc.NewSet()
	proc.Add(spc.MessagesSent, int64(100*(rank+1)))
	proc.Add(spc.MessagesReceived, int64(90*(rank+1)))
	proc.Add(spc.Retransmits, int64(rank))
	proc.Max(spc.UnexpectedQueuePeak, int64(7*(rank+1)))

	cri := spc.NewSet()
	cri.Add(spc.MessagesSent, 40)

	comm := spc.NewSet()
	comm.Add(spc.MessagesReceived, 25)

	p := prof.New()
	var mu prof.Mutex
	mu.Bind(p.NewSite("cri.instance", 0, 0))
	clk := p.NewThreadClock(fmt.Sprintf("rank%d/t0", rank), nil)
	clk.Begin(prof.PhaseSend)
	mu.LockClocked(clk)
	mu.Unlock()
	clk.End()
	clk.Stop()

	return telemetry.ProcStats{
		Rank:    rank,
		Process: proc.Snapshot(),
		PerCRI:  []telemetry.CRIStat{{Index: 0, Counters: cri.Snapshot()}},
		PerComm: []telemetry.CommStat{{ID: 1, Counters: comm.Snapshot()}},
		Hists:   []telemetry.NamedHist{{Name: telemetry.HistMsgLatency, Hist: seededHist(int64(rank), 1)}},
		Prof:    p.Snapshot(),
	}
}

// TestRoundtripRealExporter: a rank's typed document survives the wire.
// What the aggregator renders from the decoded document is byte for byte
// what the rank renders from the original — /metrics and /spc both.
func TestRoundtripRealExporter(t *testing.T) {
	doc := telemetry.RankDoc{
		UptimeSeconds: 1.5,
		Info:          map[string]string{"rank": "3", "transport": "test"},
		Stats:         []telemetry.ProcStats{testProcStats(3)},
	}
	wire, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var back telemetry.RankDoc
	if err := json.Unmarshal(wire, &back); err != nil {
		t.Fatal(err)
	}
	if back.Stats[0].Process != doc.Stats[0].Process {
		t.Fatalf("process counters:\nwant %v\ngot  %v", doc.Stats[0].Process, back.Stats[0].Process)
	}
	var want, got bytes.Buffer
	if err := telemetry.WriteExposition(&want, doc); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteExposition(&got, back); err != nil {
		t.Fatal(err)
	}
	if want.String() != got.String() {
		t.Fatalf("exposition moved across the wire:\nwant:\n%s\ngot:\n%s", want.String(), got.String())
	}
	if !strings.Contains(got.String(), "mpi_prof_phase_ns_total{") {
		t.Fatal("profiler phase series missing from the exposition")
	}
	want.Reset()
	got.Reset()
	doc.Stats[0].WriteText(&want)
	back.Stats[0].WriteText(&got)
	if want.String() != got.String() {
		t.Fatalf("/spc text moved across the wire:\nwant:\n%s\ngot:\n%s", want.String(), got.String())
	}
}

// docRank serves a fixed body at /debug/stats (and a healthy /readyz and
// /debug/queues), for ranks that answer something an obs.Server never would.
func docRank(t *testing.T, rank int, stats func(w http.ResponseWriter)) Endpoint {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/stats", func(w http.ResponseWriter, r *http.Request) { stats(w) })
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ready") })
	mux.HandleFunc("/debug/queues", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, "[]") })
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return Endpoint{Rank: rank, URL: srv.URL}
}

// TestRoundtripLabelEscaping pushes hostile label values through the typed
// document: backslashes, quotes, newlines, commas, braces arrive intact and
// the cluster view escapes them exactly as the rank's own /metrics does.
func TestRoundtripLabelEscaping(t *testing.T) {
	hostile := map[string]string{
		"design":  `odd "quoted" value`,
		"caps":    "line1\nline2",
		"path":    `C:\temp\x`,
		"cluster": `a,b={c}`,
		"rank":    "5",
	}
	srv, err := obs.Serve("127.0.0.1:0", obs.Source{Info: hostile})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rs := (&Scraper{Endpoints: []Endpoint{{Rank: 5, URL: "http://" + srv.Addr()}}}).Scrape()[0]
	if rs.Err != "" {
		t.Fatal(rs.Err)
	}
	for k, v := range hostile {
		if rs.Info[k] != v {
			t.Fatalf("label %s = %q, want %q", k, rs.Info[k], v)
		}
	}
	var cluster bytes.Buffer
	if err := WriteClusterMetrics(&cluster, ClusterState{Ranks: []RankState{rs}}); err != nil {
		t.Fatal(err)
	}
	own, _ := get(t, "http://"+srv.Addr()+"/metrics")
	line := func(exposition string) string {
		for _, l := range strings.Split(exposition, "\n") {
			if strings.HasPrefix(l, "mpi_build_info{") {
				return l
			}
		}
		t.Fatalf("no mpi_build_info sample in:\n%s", exposition)
		return ""
	}
	if got, want := line(cluster.String()), line(own); got != want || !strings.Contains(got, `caps="line1\nline2"`) {
		t.Fatalf("build info line:\ncluster %s\nrank    %s", got, want)
	}
}

// TestEnforceRankLabel: every series of the cluster view carries a rank. A
// document that does not name its rank gets the endpoint's; one that does
// keeps it.
func TestEnforceRankLabel(t *testing.T) {
	serve := func(info map[string]string) Endpoint {
		return docRank(t, 7, func(w http.ResponseWriter) {
			json.NewEncoder(w).Encode(telemetry.RankDoc{UptimeSeconds: 2, Info: info})
		})
	}
	s := &Scraper{Endpoints: []Endpoint{serve(nil), serve(map[string]string{"cmd": "x"}), serve(map[string]string{"rank": "4"})}}
	states := s.Scrape()
	for i, want := range []string{"7", "7", "4"} {
		if states[i].Err != "" || states[i].Info["rank"] != want {
			t.Fatalf("endpoint %d: rank label %q (err %q), want %q", i, states[i].Info["rank"], states[i].Err, want)
		}
	}
	var buf bytes.Buffer
	if err := WriteClusterMetrics(&buf, ClusterState{Ranks: states}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`mpi_uptime_seconds{rank="7"} 2.000`, `mpi_uptime_seconds{rank="4"} 2.000`,
		`mpi_build_info{cmd="x",rank="7"} 1`, `mpi_build_info{rank="4"} 1`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("cluster exposition missing %q:\n%s", want, buf.String())
		}
	}
}

// TestMergeFamiliesNoCollision: N ranks exporting the same families merge
// into one declaration per family and one series per rank — no sample line
// appears twice.
func TestMergeFamiliesNoCollision(t *testing.T) {
	var ranks []RankState
	for r := 0; r < 3; r++ {
		ranks = append(ranks, RankState{Sample: flight.Sample{Rank: r}, RankDoc: telemetry.RankDoc{
			Info:  map[string]string{"rank": fmt.Sprint(r)},
			Stats: []telemetry.ProcStats{testProcStats(r)},
		}})
	}
	var buf bytes.Buffer
	if err := WriteClusterMetrics(&buf, ClusterState{Ranks: ranks}); err != nil {
		t.Fatal(err)
	}
	typeNames(t, buf.String()) // fails on a family declared twice
	seen := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series := line[:strings.LastIndex(line, " ")]
		if seen[series] {
			t.Fatalf("series %s emitted twice", series)
		}
		seen[series] = true
	}
	for r := 0; r < 3; r++ {
		for _, want := range []string{
			fmt.Sprintf(`mpi_spc_messages_sent{rank="%d",scope="process"} %d`, r, 100*(r+1)),
			fmt.Sprintf(`mpi_msg_latency_ns_count{rank="%d"} 5000`, r),
			fmt.Sprintf(`mpi_prof_lock_hold_ns_total{rank="%d",site="cri.instance"`, r),
		} {
			if !strings.Contains(buf.String(), want) {
				t.Fatalf("merged exposition missing %q", want)
			}
		}
	}
}

// TestMalformedRankCostsThatRankOnly: whatever one rank answers — JSON cut
// short, a body past the read limit, a field of the wrong type — the price is
// an Err on that rank, its last good state kept; the other ranks' state is
// untouched. A counter name this binary does not know is no error at all.
func TestMalformedRankCostsThatRankOnly(t *testing.T) {
	good := startFakeRank(t, 0)
	good.sent.Store(11)

	healthy, _ := json.Marshal(telemetry.RankDoc{
		UptimeSeconds: 1,
		Stats:         []telemetry.ProcStats{{Rank: 1, Process: spc.Snapshot{spc.MessagesSent: 42}}},
	})
	body := healthy
	flaky := docRank(t, 1, func(w http.ResponseWriter) { w.Write(body) })

	agg := NewAggregator(AggregatorConfig{
		Endpoints: []Endpoint{good.endpoint(), flaky},
		// 70 MB through a race-detector build can outlast the default 2 s.
		Client: &http.Client{Timeout: time.Minute},
	})
	if cs := agg.PollOnce(); cs.Ranks[0].Err != "" || cs.Ranks[1].Err != "" || cs.Rollup.Get(spc.MessagesSent) != 53 {
		t.Fatalf("healthy poll: %+v", cs.Ranks)
	}

	huge := append([]byte(`{"uptime_seconds":1,"info":{"pad":"`), bytes.Repeat([]byte("a"), 70<<20)...)
	huge = append(huge, `"}}`...)
	for _, tc := range []struct {
		name, wantErr string
		body          []byte
	}{
		{"truncated", "unexpected end of JSON input", healthy[:len(healthy)/2]},
		{"70 MB", "unexpected end of JSON input", huge}, // well-formed, cut at maxBody
		{"wrong-typed field", "cannot unmarshal string", []byte(`{"uptime_seconds":"soon","stats":[]}`)},
		{"wrong-typed counter", "cannot unmarshal string", []byte(`{"stats":[{"rank":1,"process":{"messages_sent":"many"}}]}`)},
	} {
		body = tc.body
		cs := agg.PollOnce()
		if !strings.Contains(cs.Ranks[1].Err, tc.wantErr) {
			t.Fatalf("%s: err = %q, want %q", tc.name, cs.Ranks[1].Err, tc.wantErr)
		}
		if got := cs.Ranks[1].SPC.Get(spc.MessagesSent); got != 42 {
			t.Fatalf("%s: last good state lost: sent = %d, want 42", tc.name, got)
		}
		if cs.Ranks[0].Err != "" || cs.Ranks[0].SPC.Get(spc.MessagesSent) != 11 {
			t.Fatalf("%s: the healthy rank paid: %+v", tc.name, cs.Ranks[0])
		}
		if len(cs.History) != 0 {
			t.Fatalf("%s: a scrape failure produced verdicts: %+v", tc.name, cs.History)
		}
	}

	body = []byte(`{"stats":[{"rank":1,"process":{"messages_sent":43,"counter_from_the_future":9}}]}`)
	cs := agg.PollOnce()
	if cs.Ranks[1].Err != "" || cs.Ranks[1].SPC != (spc.Snapshot{spc.MessagesSent: 43}) {
		t.Fatalf("unknown counter name: err %q, counters %v; want it skipped", cs.Ranks[1].Err, cs.Ranks[1].SPC)
	}
}

// TestP99MatchesParentsQuantile: the p99 the typed path reads off a rank's
// histogram is the bucket bound the text path derived from the same
// histogram's exposition. 262143 is what the last commit with the text
// parser (fe64c0b) returned for this seed: its histogram quantile, at 0.99,
// over the parse of telemetry.WritePrometheus(h).
func TestP99MatchesParentsQuantile(t *testing.T) {
	if got := seededHist(21, 1).P99(); got != 262143 {
		t.Fatalf("P99 = %d, want 262143", got)
	}
}

// TestTailSkewThroughTypedPath feeds the tail-skew rule the way the live
// plane does — rank histograms, scraped as typed documents, condensed into
// the rank's Sample — and wants the verdict TestDetectorLatencyTailSkew
// wants: the sick rank, and the stage its excess sits in.
func TestTailSkewThroughTypedPath(t *testing.T) {
	var eps []Endpoint
	var ranks []*fakeRank
	for r := 0; r < 4; r++ {
		fr := startFakeRank(t, r)
		scale := 10.0 // healthy: e2e p99 ~2.6 ms
		if r == 3 {
			scale = 400 // 40x the others' tail
		}
		fr.hists = []telemetry.NamedHist{
			{Name: latency.HistE2E, Hist: seededHist(1, scale)},
			{Name: latency.StageTransit.HistName(), Hist: seededHist(2, 1)},
			{Name: latency.StageDeliverWait.HistName(), Hist: seededHist(3, scale)},
		}
		fr.posted.Store(1)
		ranks = append(ranks, fr)
		eps = append(eps, fr.endpoint())
	}
	agg := NewAggregator(AggregatorConfig{Endpoints: eps})
	var fired []flight.Verdict
	for i := 0; i < 5; i++ {
		for _, fr := range ranks {
			fr.sent.Add(1000)
			fr.recv.Add(1000)
		}
		fired = append(fired, agg.PollOnce().Current...)
		time.Sleep(time.Millisecond)
	}
	if len(fired) != 1 || fired[0].Reason != "latency-tail-skew" || fired[0].Rank != 3 ||
		!strings.Contains(fired[0].Detail, "deliver_wait") {
		t.Fatalf("verdicts = %+v, want one latency-tail-skew on rank 3 naming deliver_wait", fired)
	}
	rep := BuildReport(agg.State())
	if stage, _ := rep.Ranks[3].HotStage(); stage != "deliver_wait" || rep.Ranks[3].E2EP99Ns <= rep.Ranks[0].E2EP99Ns {
		t.Fatalf("report row of the sick rank: %+v", rep.Ranks[3])
	}
}
