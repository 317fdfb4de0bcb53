package cluster

import (
	"encoding/json"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/flight"
	"repro/internal/spc"
)

// AggregatorConfig configures the polling aggregator.
type AggregatorConfig struct {
	Endpoints []Endpoint
	// Poll is the scrape interval (default 250ms).
	Poll time.Duration
	// Detector tunes the detector the polled ranks are shown to.
	Detector flight.DetectorConfig
	// Client overrides the scrape HTTP client (tests).
	Client *http.Client
}

// Aggregator polls every rank endpoint on an interval, shows each round's
// samples to one flight.Detector, and serves the merged cluster view.
type Aggregator struct {
	cfg     AggregatorConfig
	scraper *Scraper
	start   time.Time

	mu       sync.Mutex
	det      *flight.Detector
	state    ClusterState
	lastGood map[int]RankState

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewAggregator builds an aggregator; call Start to begin polling, or
// PollOnce for a single synchronous round (tests, final end-of-run poll).
func NewAggregator(cfg AggregatorConfig) *Aggregator {
	if cfg.Poll <= 0 {
		cfg.Poll = 250 * time.Millisecond
	}
	return &Aggregator{
		cfg:      cfg,
		scraper:  &Scraper{Endpoints: cfg.Endpoints, Client: cfg.Client},
		start:    time.Now(),
		det:      flight.NewDetector(cfg.Detector),
		lastGood: map[int]RankState{},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the background poll loop.
func (a *Aggregator) Start() {
	go func() {
		defer close(a.done)
		t := time.NewTicker(a.cfg.Poll)
		defer t.Stop()
		for {
			select {
			case <-a.stop:
				return
			case <-t.C:
				a.PollOnce()
			}
		}
	}()
}

// Stop halts the poll loop and waits for the in-flight round to finish.
func (a *Aggregator) Stop() {
	a.stopOnce.Do(func() { close(a.stop) })
	<-a.done
}

// PollOnce runs one scrape+detect round and folds it into the state. Safe
// to call concurrently with the poll loop and the HTTP handlers.
func (a *Aggregator) PollOnce() ClusterState {
	ranks := a.scraper.Scrape()
	now := time.Since(a.start).Nanoseconds()

	a.mu.Lock()
	defer a.mu.Unlock()
	// A failed scrape keeps serving the rank's last good state, error noted,
	// so one missed poll doesn't blank the rank's row.
	for i, rs := range ranks {
		if rs.Err == "" {
			a.lastGood[rs.Rank] = rs
		} else if prev, ok := a.lastGood[rs.Rank]; ok {
			prev.Err = rs.Err
			ranks[i] = prev
		}
	}
	samples := make([]flight.Sample, 0, len(ranks))
	procs := make([]spc.Snapshot, 0, len(ranks))
	for _, rs := range ranks {
		samples = append(samples, rs.Sample)
		procs = append(procs, rs.SPC)
	}
	verdicts := a.det.Observe(now, samples)

	// A round replaces the state: every slice and map in it is new (History
	// only grows past what an earlier copy can see), so State hands out the
	// struct as it is and nobody copies it.
	a.state = ClusterState{
		CapturedNs: now,
		Polls:      a.state.Polls + 1,
		Ranks:      ranks,
		Rollup:     spc.Merge(procs...),
		Rates:      map[int]float64{},
		Current:    verdicts,
		History:    append(a.state.History, verdicts...),
	}
	for _, rs := range ranks {
		if r, ok := a.det.Rate(rs.Rank); ok {
			a.state.Rates[rs.Rank] = r
		}
	}
	return a.state
}

// State returns the latest aggregation round.
func (a *Aggregator) State() ClusterState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.state
}

// Handler returns the /cluster/* mux.
func (a *Aggregator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteClusterMetrics(w, a.State())
	})
	mux.HandleFunc("/cluster/spc", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		WriteClusterSPC(w, a.State())
	})
	mux.HandleFunc("/cluster/health", func(w http.ResponseWriter, r *http.Request) {
		cs := a.State()
		type rankHealth struct {
			Rank        int    `json:"rank"`
			Ready       bool   `json:"ready"`
			ReadyReason string `json:"ready_reason,omitempty"`
			Err         string `json:"err,omitempty"`
		}
		healthy := cs.Polls > 0
		out := struct {
			Healthy bool         `json:"healthy"`
			Polls   int64        `json:"polls"`
			Ranks   []rankHealth `json:"ranks"`
		}{Polls: cs.Polls, Ranks: []rankHealth{}}
		for _, rs := range cs.Ranks {
			out.Ranks = append(out.Ranks, rankHealth{
				Rank: rs.Rank, Ready: rs.Ready, ReadyReason: rs.ReadyReason, Err: rs.Err})
			if rs.Err != "" || !rs.Ready {
				healthy = false
			}
		}
		out.Healthy = healthy
		w.Header().Set("Content-Type", "application/json")
		if !healthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("/cluster/imbalance", func(w http.ResponseWriter, r *http.Request) {
		cs := a.State()
		out := struct {
			Clean    bool             `json:"clean"`
			Current  []flight.Verdict `json:"current"`
			Verdicts []flight.Verdict `json:"verdicts"`
		}{Clean: cs.Clean(), Current: cs.Current, Verdicts: cs.History}
		if out.Current == nil {
			out.Current = []flight.Verdict{}
		}
		if out.Verdicts == nil {
			out.Verdicts = []flight.Verdict{}
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, out)
	})
	mux.HandleFunc("/cluster/report", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, BuildReport(a.State()))
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Serve serves the aggregator's /cluster/* endpoints on ln, which the caller
// bound (the launcher binds it before it reserves any rank's port) and whose
// address it therefore has. Close the returned server to stop.
func Serve(ln net.Listener, a *Aggregator) *http.Server {
	srv := &http.Server{Handler: a.Handler()}
	go srv.Serve(ln)
	return srv
}
