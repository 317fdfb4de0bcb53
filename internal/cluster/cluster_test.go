package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/spc"
	"repro/internal/telemetry"
)

// fakeRank is a live obs endpoint whose counters the test advances.
type fakeRank struct {
	rank   int
	sent   atomic.Int64
	recv   atomic.Int64
	posted atomic.Int64
	// hists, set before the first scrape, rides along in the rank's stats.
	hists []telemetry.NamedHist
	srv   *obs.Server
}

func startFakeRank(t *testing.T, rank int) *fakeRank {
	t.Helper()
	fr := &fakeRank{rank: rank}
	src := obs.Source{
		Stats: func() []telemetry.ProcStats {
			set := spc.NewSet()
			set.Add(spc.MessagesSent, fr.sent.Load())
			set.Add(spc.MessagesReceived, fr.recv.Load())
			return []telemetry.ProcStats{{Rank: rank, Process: set.Snapshot(), Hists: fr.hists}}
		},
		Queues: func() []flight.QueueSnapshot {
			return []flight.QueueSnapshot{{
				Rank:  rank,
				Comms: []flight.CommQueues{{Comm: 0, Posted: int(fr.posted.Load())}},
			}}
		},
		Info: map[string]string{"rank": fmt.Sprint(rank), "transport": "test"},
	}
	srv, err := obs.Serve("127.0.0.1:0", src)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	fr.srv = srv
	return fr
}

func (fr *fakeRank) endpoint() Endpoint {
	return Endpoint{Rank: fr.rank, URL: "http://" + fr.srv.Addr()}
}

func TestScrapeRecoversRankState(t *testing.T) {
	fr := startFakeRank(t, 2)
	fr.sent.Store(123)
	fr.recv.Store(456)
	fr.posted.Store(7)
	time.Sleep(5 * time.Millisecond) // let the uptime gauge tick past 0.000

	s := &Scraper{Endpoints: []Endpoint{fr.endpoint()}}
	states := s.Scrape()
	if len(states) != 1 {
		t.Fatalf("states = %d", len(states))
	}
	rs := states[0]
	if rs.Err != "" {
		t.Fatalf("scrape error: %s", rs.Err)
	}
	if !rs.Ready {
		t.Fatal("nil Ready callback should scrape as ready")
	}
	if got := rs.SPC.Get(spc.MessagesSent); got != 123 {
		t.Fatalf("sent = %d, want 123", got)
	}
	if got := rs.SPC.Get(spc.MessagesReceived); got != 456 {
		t.Fatalf("received = %d, want 456", got)
	}
	if len(rs.Comms) != 1 || rs.Depths().Posted != 7 {
		t.Fatalf("queues = %+v", rs.Comms)
	}
	if rs.UptimeSeconds <= 0 {
		t.Fatalf("uptime = %v, want > 0", rs.UptimeSeconds)
	}
	if len(rs.Stats) != 1 || rs.Stats[0].Rank != 2 || rs.Info["transport"] != "test" {
		t.Fatalf("typed document = %+v", rs.RankDoc)
	}
}

func TestScrapeFailure(t *testing.T) {
	s := &Scraper{Endpoints: []Endpoint{{Rank: 0, URL: "http://127.0.0.1:1"}}}
	rs := s.Scrape()[0]
	if rs.Err == "" {
		t.Fatal("dead endpoint scraped without error")
	}
}

// typeNames returns the family names an exposition declares, failing on a
// family declared twice.
func typeNames(t *testing.T, exposition string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	for _, line := range strings.Split(exposition, "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ = strings.Cut(name, " ")
			if names[name] {
				t.Fatalf("family %s declared twice", name)
			}
			names[name] = true
		}
	}
	return names
}

func get(t *testing.T, url string) (string, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.StatusCode
}

// TestAggregatorEndToEnd drives the whole plane over live HTTP: N fake
// ranks, the polling aggregator, and every /cluster/* endpoint.
func TestAggregatorEndToEnd(t *testing.T) {
	var eps []Endpoint
	var ranks []*fakeRank
	for r := 0; r < 4; r++ {
		fr := startFakeRank(t, r)
		fr.sent.Store(int64(100 * (r + 1)))
		fr.recv.Store(int64(100 * (r + 1)))
		// Ranks need not export the same families: the view is their union.
		name := telemetry.HistMsgLatency
		if r%2 == 1 {
			name = telemetry.HistLockWait
		}
		fr.hists = []telemetry.NamedHist{{Name: name, Hist: seededHist(int64(r), 1)}}
		ranks = append(ranks, fr)
		eps = append(eps, fr.endpoint())
	}
	agg := NewAggregator(AggregatorConfig{Endpoints: eps})
	agg.PollOnce()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, agg)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	// /cluster/metrics: one process series per rank plus the cluster gauges.
	body, status := get(t, base+"/cluster/metrics")
	if status != http.StatusOK {
		t.Fatalf("/cluster/metrics status %d", status)
	}
	for r := 0; r < 4; r++ {
		want := fmt.Sprintf(`mpi_spc_messages_sent{rank="%d",scope="process"} %d`, r, 100*(r+1))
		if !strings.Contains(body, want) {
			t.Fatalf("/cluster/metrics missing %q:\n%s", want, body)
		}
	}
	for _, want := range []string{
		"mpi_cluster_ranks 4",
		"mpi_cluster_ranks_ready 4",
		"mpi_cluster_scrape_errors 0",
		"mpi_cluster_imbalance 0",
		`mpi_uptime_seconds{rank="2"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/cluster/metrics missing %q", want)
		}
	}
	// The cluster view carries exactly the families the ranks' own /metrics
	// carry, plus the eight gauges that only exist at this level.
	want := map[string]bool{}
	for _, fr := range ranks {
		rankBody, _ := get(t, "http://"+fr.srv.Addr()+"/metrics")
		for name := range typeNames(t, rankBody) {
			want[name] = true
		}
	}
	for _, g := range []string{"ranks", "ranks_ready", "scrape_errors", "polls_total",
		"msg_rate", "unexpected_depth", "verdicts_total", "imbalance"} {
		want["mpi_cluster_"+g] = true
	}
	if got := typeNames(t, body); !reflect.DeepEqual(got, want) {
		t.Fatalf("/cluster/metrics families differ from the union of the ranks' + cluster gauges:\ngot  %v\nwant %v", got, want)
	}
	// The rollup is the sum of the ranks' process totals.
	var procs []spc.Snapshot
	for _, rs := range agg.State().Ranks {
		procs = append(procs, rs.Stats[0].Process)
	}
	if got := agg.State().Rollup; got != spc.Merge(procs...) || got.Get(spc.MessagesSent) != 1000 {
		t.Fatalf("rollup = %v, want the merge of the ranks' process totals", got)
	}

	// /cluster/spc: rollup sums the four ranks' sends (100+200+300+400).
	body, _ = get(t, base+"/cluster/spc")
	if !strings.Contains(body, "cluster totals (4 ranks)") {
		t.Fatalf("/cluster/spc missing rollup header:\n%s", body)
	}
	if !strings.Contains(body, "1000") {
		t.Fatalf("/cluster/spc rollup missing summed sends:\n%s", body)
	}

	// /cluster/health: all ready.
	body, status = get(t, base+"/cluster/health")
	if status != http.StatusOK {
		t.Fatalf("/cluster/health status %d: %s", status, body)
	}

	// /cluster/imbalance: clean.
	body, _ = get(t, base+"/cluster/imbalance")
	var imb struct {
		Clean    bool             `json:"clean"`
		Verdicts []flight.Verdict `json:"verdicts"`
	}
	if err := json.Unmarshal([]byte(body), &imb); err != nil {
		t.Fatal(err)
	}
	if !imb.Clean || len(imb.Verdicts) != 0 {
		t.Fatalf("healthy cluster not clean: %s", body)
	}

	// /cluster/report: schema, one row per rank, totals.
	body, _ = get(t, base+"/cluster/report")
	var rep Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != ReportSchemaVersion || !rep.Clean || len(rep.Ranks) != 4 {
		t.Fatalf("report wrong: %s", body)
	}
	if rep.Cluster["messages_sent"] != 1000 {
		t.Fatalf("report cluster totals = %v, want messages_sent 1000", rep.Cluster)
	}
	if rep.Ranks[2].Sent != 300 {
		t.Fatalf("report rank 2 sent = %d, want 300", rep.Ranks[2].Sent)
	}
}

// TestAggregatorDetectsLiveStraggler stalls one fake rank (frozen counters,
// posted receives) while the others advance, with detector windows shrunk
// so the test runs in well under a second of wall time.
func TestAggregatorDetectsLiveStraggler(t *testing.T) {
	var eps []Endpoint
	var ranks []*fakeRank
	for r := 0; r < 3; r++ {
		fr := startFakeRank(t, r)
		ranks = append(ranks, fr)
		eps = append(eps, fr.endpoint())
	}
	ranks[2].posted.Store(4) // rank 2 wedges with receives outstanding
	agg := NewAggregator(AggregatorConfig{
		Endpoints: eps,
		Detector:  flight.DetectorConfig{StallAfter: 40 * time.Millisecond},
	})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for r, fr := range ranks {
			if r != 2 {
				fr.sent.Add(100)
				fr.recv.Add(100)
			}
		}
		if cs := agg.PollOnce(); len(cs.History) > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	cs := agg.State()
	if len(cs.History) == 0 {
		t.Fatal("no verdict for a live stalled rank")
	}
	for _, v := range cs.History {
		if v.Rank != 2 {
			t.Fatalf("verdict named rank %d, want 2: %+v", v.Rank, v)
		}
	}
	// The verdict surfaces on /cluster/imbalance and flips the gauge.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, agg)
	defer srv.Close()
	body, _ := get(t, "http://"+ln.Addr().String()+"/cluster/imbalance")
	if !strings.Contains(body, `"rank-straggler"`) {
		t.Fatalf("/cluster/imbalance missing straggler verdict: %s", body)
	}
	body, _ = get(t, "http://"+ln.Addr().String()+"/cluster/metrics")
	if !strings.Contains(body, `mpi_cluster_verdicts_total{reason="rank-straggler"}`) {
		t.Fatalf("verdict gauge missing:\n%s", body)
	}
}

// TestAggregatorKeepsLastGoodState kills a rank mid-run: its row keeps the
// last good counters with the error noted, and health goes unhealthy.
func TestAggregatorKeepsLastGoodState(t *testing.T) {
	fr0 := startFakeRank(t, 0)
	fr1 := startFakeRank(t, 1)
	fr1.sent.Store(42)
	agg := NewAggregator(AggregatorConfig{
		Endpoints: []Endpoint{fr0.endpoint(), fr1.endpoint()},
	})
	agg.PollOnce()
	fr1.srv.Close()
	cs := agg.PollOnce()
	var r1 RankState
	for _, rs := range cs.Ranks {
		if rs.Rank == 1 {
			r1 = rs
		}
	}
	if r1.Err == "" {
		t.Fatal("dead rank scraped without error")
	}
	if got := r1.SPC.Get(spc.MessagesSent); got != 42 {
		t.Fatalf("last good state lost: sent = %d, want 42", got)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, agg)
	defer srv.Close()
	body, status := get(t, "http://"+ln.Addr().String()+"/cluster/health")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("/cluster/health status %d with a dead rank: %s", status, body)
	}
	// A dead rank is a health problem, not an imbalance verdict: teardown
	// races must not dirty the run's verdict record.
	if len(cs.History) != 0 {
		t.Fatalf("scrape failure produced verdicts: %+v", cs.History)
	}
}

func TestAggregatorStartStop(t *testing.T) {
	fr := startFakeRank(t, 0)
	agg := NewAggregator(AggregatorConfig{
		Endpoints: []Endpoint{fr.endpoint()},
		Poll:      5 * time.Millisecond,
	})
	agg.Start()
	deadline := time.Now().Add(5 * time.Second)
	for agg.State().Polls == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	agg.Stop()
	if agg.State().Polls == 0 {
		t.Fatal("poll loop never polled")
	}
}
