// Package obs is the live observability endpoint: a small HTTP server a
// benchmark process attaches to its running world, serving the telemetry
// layer's exporters over the wire instead of only into files at exit.
// The documents are the rows of views below — /metrics, /spc, /trace and the
// /debug/{stats,queues,flight,latency} introspection set — beside /healthz
// (the process is up and serving), /readyz (the world is constructed and
// connected) and the standard /debug/pprof profiler endpoints.
//
// The server pulls through a Source of callbacks so it always serves the
// current state of a run in flight; it takes no locks of its own beyond
// what the nil-safe snapshot paths already take.
package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"time"

	"repro/internal/flight"
	"repro/internal/latency"
	"repro/internal/telemetry"
)

// EnableContentionProfiling turns on the Go runtime's own lock-contention
// instrumentation so the /debug/pprof/mutex and /debug/pprof/block profiles
// served by this endpoint actually populate: every contended mutex event is
// sampled and every blocking event of at least 1µs recorded. Returns a
// restore func that puts both rates back; profiling the runtime's own locks
// costs a few percent, so benchmarks only enable it behind an explicit flag.
func EnableContentionProfiling() (restore func()) {
	prev := runtime.SetMutexProfileFraction(1)
	runtime.SetBlockProfileRate(int(time.Microsecond))
	return func() {
		runtime.SetMutexProfileFraction(prev)
		runtime.SetBlockProfileRate(0)
	}
}

// Source supplies the live data the endpoints render. Callbacks may be nil;
// the corresponding endpoint then serves an empty document. They are called
// on every request, concurrently with the run.
type Source struct {
	// Stats returns the current observability snapshot of every local proc.
	Stats func() []telemetry.ProcStats
	// Queues returns the runtime introspection snapshot of every local proc
	// (posted/unexpected depths, reliability windows, CRI levels) — served
	// at /debug/queues.
	Queues func() []flight.QueueSnapshot
	// Flight returns the merged flight-recorder record of every local proc —
	// served at /debug/flight and, rendered as a Chrome trace, at /trace.
	Flight func() []flight.RankRecord
	// Latency returns the critical-path attribution dump of every local proc
	// (per-stage summaries + tail exemplars) — served at /debug/latency.
	Latency func() []latency.RankDump
	// Ready reports run readiness for /readyz: false with a reason while the
	// world is still being constructed (handshake, clock sync), true once
	// communication can proceed. Nil means always ready — right for
	// single-process runs with no startup negotiation.
	Ready func() (bool, string)
	// Phases returns the profiler's phase-breakdown series by rank, drawn as
	// a counter track in the Chrome trace (Outputs fills it from its sampler).
	Phases func() map[int][]telemetry.PhasePoint
	// Info labels the run (transport, caps, design, ...) — exported as the
	// mpi_build_info gauge on /metrics.
	Info map[string]string
}

// call reads one Source callback; a missing one is an empty document.
func call[T any](f func() []T) []T {
	if f == nil {
		return nil
	}
	return f()
}

// started anchors mpi_uptime_seconds. Uptime resets to zero when the process
// restarts, which is how a scraper that only ever sees the endpoint (not the
// supervisor) detects a rank restart between two polls.
var started = time.Now()

// doc is the typed document /metrics and /spc render from, and /debug/stats
// serves as it is.
func (s Source) doc() telemetry.RankDoc {
	return telemetry.RankDoc{UptimeSeconds: time.Since(started).Seconds(), Info: s.Info, Stats: call(s.Stats)}
}

// view is one document a Source renders to: served at path (when it has
// one) and written at exit to the file Outputs names for it (when it has
// one) by the same render, so the two forms of a document cannot drift.
type view struct {
	name   string
	path   string // endpoint; "" = file only
	ctype  string
	file   func(*Outputs) string // nil = endpoint only
	render func(Source, io.Writer) error
}

const (
	typeJSON = "application/json"
	typeText = "text/plain; charset=utf-8"
	typeProm = "text/plain; version=0.0.4; charset=utf-8"
)

var views = []view{
	{"prometheus", "/metrics", typeProm, func(o *Outputs) string { return o.MetricsPath },
		func(s Source, w io.Writer) error { return telemetry.WriteExposition(w, s.doc()) }},
	{"chrome trace", "/trace", typeJSON, func(o *Outputs) string { return o.TracePath },
		func(s Source, w io.Writer) error {
			var phases map[int][]telemetry.PhasePoint
			if s.Phases != nil {
				phases = s.Phases()
			}
			return telemetry.WriteChromeTraceRanks(w, call(s.Flight), phases)
		}},
	{"flight records", "/debug/flight", typeJSON, func(o *Outputs) string { return o.ShardPath },
		func(s Source, w io.Writer) error { return flight.WriteRecords(w, call(s.Flight)) }},
	{"exit dump", "", typeJSON, func(o *Outputs) string { return o.FlightPath },
		func(s Source, w io.Writer) error {
			return flight.WriteExitDump(w, flight.ExitDump{Queues: call(s.Queues), Flight: call(s.Flight)})
		}},
	{"latency dump", "/debug/latency", typeJSON, func(o *Outputs) string { return o.LatencyPath },
		func(s Source, w io.Writer) error { return latency.WriteDumps(w, call(s.Latency)) }},
	{"queues", "/debug/queues", typeJSON, nil,
		func(s Source, w io.Writer) error { return flight.WriteSnapshots(w, call(s.Queues)) }},
	{"stats", "/debug/stats", typeJSON, nil,
		func(s Source, w io.Writer) error { return json.NewEncoder(w).Encode(s.doc()) }},
	{"spc", "/spc", typeText, nil,
		func(s Source, w io.Writer) error {
			for _, ps := range call(s.Stats) {
				if err := ps.WriteText(w); err != nil {
					return err
				}
			}
			return nil
		}},
}

// A Holder late-binds a Source so the HTTP endpoint can start serving
// before the world it describes exists: the benchmark binds addr, the
// endpoint answers /healthz immediately and 503s /readyz, and once the
// world's OnWorld hook fires the holder is bound and marked ready. All
// methods are safe for concurrent use with requests in flight.
type Holder struct {
	mu     sync.RWMutex
	src    Source
	ready  bool
	reason string
}

// NewHolder returns a holder that reports not-ready with the given reason
// until SetReady. Info labels /metrics from the start (build metadata is
// known before the world is).
func NewHolder(info map[string]string, notReadyReason string) *Holder {
	if notReadyReason == "" {
		notReadyReason = "world not constructed"
	}
	return &Holder{reason: notReadyReason, src: Source{Info: info}}
}

// Bind installs the live source. Info set at construction is kept unless
// the bound source carries its own.
func (h *Holder) Bind(src Source) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if src.Info == nil {
		src.Info = h.src.Info
	}
	h.src = src
}

// SetReady flips /readyz to 200. Call once startup negotiation (rank
// handshake, clock sync) has completed and communication can proceed.
func (h *Holder) SetReady() {
	h.mu.Lock()
	h.ready = true
	h.mu.Unlock()
}

// Source returns a Source whose callbacks delegate through the holder, so
// it can be handed to Serve (or Outputs.Bind) before Bind has run.
func (h *Holder) Source() Source {
	get := func() Source {
		h.mu.RLock()
		defer h.mu.RUnlock()
		return h.src
	}
	return Source{
		Stats:   func() []telemetry.ProcStats { return call(get().Stats) },
		Queues:  func() []flight.QueueSnapshot { return call(get().Queues) },
		Flight:  func() []flight.RankRecord { return call(get().Flight) },
		Latency: func() []latency.RankDump { return call(get().Latency) },
		Ready: func() (bool, string) {
			h.mu.RLock()
			defer h.mu.RUnlock()
			return h.ready, h.reason
		},
		Info: get().Info,
	}
}

// Server is a running observability endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
	// probed is closed by the first /readyz that answers 200: an observer
	// has seen this process ready (see CloseAfterProbe).
	probed    chan struct{}
	probeOnce sync.Once
}

// Serve binds addr (e.g. "127.0.0.1:9090", or ":0" for an ephemeral port)
// and serves the observability endpoints in the background until Close.
func Serve(addr string, src Source) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	// An explicit mux: the pprof handlers are registered here rather than
	// relying on net/http's DefaultServeMux side-effect registration, so
	// nothing else a process imports can leak handlers onto this port.
	mux := http.NewServeMux()
	s := &Server{ln: ln, probed: make(chan struct{})}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", typeText)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", typeText)
		if src.Ready != nil {
			if ok, reason := src.Ready(); !ok {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintln(w, "not ready:", reason)
				return
			}
		}
		fmt.Fprintln(w, "ready")
		s.probeOnce.Do(func() { close(s.probed) })
	})
	for _, v := range views {
		if v.path == "" {
			continue
		}
		mux.HandleFunc(v.path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", v.ctype)
			_ = v.render(src, w)
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			_ = err // the listener closed under us at shutdown
		}
	}()
	return s, nil
}

// Addr returns the bound address (resolves ":0" to the chosen port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server immediately. In-flight requests are cut off —
// appropriate for benchmark teardown, where nothing downstream waits.
func (s *Server) Close() error { return s.srv.Close() }

// CloseAfterProbe is the exit path of a process that served the endpoint
// for an observer: it keeps serving until some /readyz has answered 200 —
// so a run shorter than the observer's poll interval is still seen, and
// everything the observer fetched before that probe was served live — then
// lets requests in flight finish and closes. With no probe within grace,
// nobody is watching and it closes anyway.
func (s *Server) CloseAfterProbe(grace time.Duration) error {
	select {
	case <-s.probed:
	case <-time.After(grace):
	}
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}
