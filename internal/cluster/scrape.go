// Package cluster is the fleet-level observability plane: it fetches every
// rank's typed stats document (/debug/stats), readiness and queue depths
// over HTTP, renders the documents as one rank-labeled cluster view with an
// SPC rollup through the exporters the ranks themselves use, and shows
// flight.Detector — the engine behind each rank's stall watchdog — every
// rank at once. The aggregator serves the view at /cluster/* (wired into
// cmd/mpirun) and produces the end-of-run cluster report consumed by
// cmd/mpitop and CI.
package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/flight"
	"repro/internal/latency"
	"repro/internal/spc"
	"repro/internal/telemetry"
)

// Endpoint names one rank's live observability endpoint.
type Endpoint struct {
	Rank int
	// URL is the base, e.g. "http://127.0.0.1:9090".
	URL string
}

// RankState is everything one scrape learned about one rank. A failed
// scrape carries Err and the zero value elsewhere; the aggregator then
// keeps serving the rank's last good state with the error noted.
type RankState struct {
	// Sample is the rank's observation — rank, scrape error, readiness,
	// movement counters, queue depths, latency p99s — as the detector, the
	// report row and the cluster gauges read it.
	flight.Sample

	// RankDoc is the rank's typed /debug/stats document: uptime, run
	// labels, and the stats of every proc the process hosts. Info always
	// carries a rank label (the scrape stamps this rank's onto a document
	// that lacks one), so it is non-nil exactly when a scrape of the rank
	// has succeeded.
	telemetry.RankDoc
	// SPC is the rank's process-scope counter snapshot — the per-rank
	// operand of the cluster rollup.
	SPC spc.Snapshot
}

// proc returns the stats of the proc whose rank this is (a thread-mode
// world serves several procs from one endpoint).
func (rs RankState) proc() telemetry.ProcStats {
	for _, ps := range rs.Stats {
		if ps.Rank == rs.Rank {
			return ps
		}
	}
	return telemetry.ProcStats{}
}

// hist returns the rank's histogram of the given export name (zero when the
// rank doesn't export it).
func (rs RankState) hist(name string) telemetry.HistSnapshot {
	for _, h := range rs.proc().Hists {
		if h.Name == name {
			return h.Hist
		}
	}
	return telemetry.HistSnapshot{}
}

// latencyP99s returns the rank's critical-path p99s: the e2e histogram's
// (0 when the rank doesn't run the attribution layer or hasn't completed a
// traced message) and the per-stage ones in stage order, zero-count stages
// skipped.
func (rs RankState) latencyP99s() (int64, []flight.StageP99) {
	e2e := rs.hist(latency.HistE2E).P99()
	if e2e == 0 {
		return 0, nil
	}
	var stages []flight.StageP99
	for s := latency.Stage(0); s < latency.NumStages; s++ {
		if p99 := rs.hist(s.HistName()).P99(); p99 > 0 {
			stages = append(stages, flight.StageP99{Stage: s.String(), P99Ns: p99})
		}
	}
	return e2e, stages
}

// Scraper polls a fixed set of rank endpoints.
type Scraper struct {
	Endpoints []Endpoint
	// Client is the HTTP client used for every request; nil uses a client
	// with a 2s timeout (a scrape must never wedge the aggregation loop).
	Client *http.Client
}

func (s *Scraper) client() *http.Client {
	if s.Client != nil {
		return s.Client
	}
	return &http.Client{Timeout: 2 * time.Second}
}

// Scrape polls every endpoint once, sequentially in rank order (N is small
// and determinism is worth more than scrape parallelism here).
func (s *Scraper) Scrape() []RankState {
	out := make([]RankState, 0, len(s.Endpoints))
	for _, ep := range s.Endpoints {
		out = append(out, s.scrapeOne(ep))
	}
	return out
}

func (s *Scraper) scrapeOne(ep Endpoint) RankState {
	rs := RankState{Sample: flight.Sample{Rank: ep.Rank}}
	failed := func(doc string, err error) RankState {
		rs.Err = fmt.Sprintf("%s: %v", doc, err)
		return rs
	}
	c := s.client()

	body, _, err := fetch(c, ep.URL+"/debug/stats")
	if err == nil {
		err = json.Unmarshal(body, &rs.RankDoc)
	}
	if err != nil {
		rs.RankDoc = telemetry.RankDoc{}
		return failed("/debug/stats", err)
	}
	// The merge-safety contract: every series of the cluster view carries a
	// rank. A document that names its own keeps it (a proxy re-exporting
	// another rank stays attributable).
	if rs.Info == nil {
		rs.Info = map[string]string{}
	}
	if rs.Info["rank"] == "" {
		rs.Info["rank"] = strconv.Itoa(ep.Rank)
	}
	rs.SPC = rs.proc().Process
	rs.Sent = rs.SPC.Get(spc.MessagesSent)
	rs.Received = rs.SPC.Get(spc.MessagesReceived)
	rs.Retransmits = rs.SPC.Get(spc.Retransmits)
	rs.E2EP99Ns, rs.StageP99 = rs.latencyP99s()
	rs.LatencyValid = rs.E2EP99Ns > 0

	// Readiness: /readyz answers 200 ("ready") or 503 with a reason body.
	// A transport error here (after the stats answered) is still a scrape
	// failure — half-scraped ranks would skew the detections.
	rbody, status, err := fetch(c, ep.URL+"/readyz")
	if err != nil && status == 0 {
		return failed("/readyz", err)
	}
	rs.Ready = status == http.StatusOK
	if !rs.Ready {
		rs.ReadyReason = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(string(rbody)), "not ready:"))
	}

	// A process can host several local procs (thread-mode worlds); the
	// distributed deployments this plane targets serve exactly one. Several
	// fold into one, so the observation covers the process.
	var snaps []flight.QueueSnapshot
	qbody, _, err := fetch(c, ep.URL+"/debug/queues")
	if err == nil {
		err = json.Unmarshal(qbody, &snaps)
	}
	if err != nil {
		return failed("/debug/queues", err)
	}
	for _, qs := range snaps {
		rs.Comms = append(rs.Comms, qs.Comms...)
		for _, w := range qs.Windows {
			rs.Unacked += w.Unacked
		}
	}
	return rs
}

// maxBody bounds what one fetch reads: a rank that answers with more is cut
// off there, and what was read fails to decode.
const maxBody = 64 << 20

// fetch GETs url and returns the body and status. err is non-nil for
// transport failures and non-2xx statuses other than 503 (which /readyz
// uses to carry the not-ready reason; callers check status).
func fetch(c *http.Client, url string) (body []byte, status int, err error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return b, resp.StatusCode, fmt.Errorf("status %d", resp.StatusCode)
	}
	return b, resp.StatusCode, nil
}
