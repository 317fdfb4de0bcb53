// Package cliobs factors the observability flag-and-flush wiring shared by
// the benchmark commands (cmd/multirate, cmd/rmamt): telemetry output
// files, the live HTTP endpoint, the flight recorder and watchdog, the
// contention profiler, and per-message critical-path latency attribution.
// Each command registers the shared flag set, sets its harness's Watchdog
// from Detector, starts a Session around its run, binds the world from its
// OnWorld hook, and finishes — the session owns the holder/server/
// signal-flush lifecycle so the commands only keep their engine- and
// benchmark-specific logic.
package cliobs

import (
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/latency"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/telemetry"
)

// Flags is the shared observability flag set.
type Flags struct {
	SPCDump        bool
	MetricsOut     string
	TraceOut       string
	SamplesOut     string
	SampleInterval time.Duration

	TraceWire  bool
	TraceShard string
	HTTPAddr   string

	Profile         bool
	BreakdownOut    string
	PprofContention bool

	FlightCap int
	FlightOut string
	Watchdog  bool

	Latency    bool
	LatencyOut string

	cmd string
	// simMirrors: the command's sim engine mirrors the flight recorder,
	// watchdog, and latency attribution in virtual time (multirate), so
	// those flags do not imply the real engine and their help text says
	// "either engine".
	simMirrors bool
}

// Register installs the shared flag set on fs. simMirrors selects the
// engine phrasing and telemetry implication for the flags the virtual-time
// model can mirror (flight, watchdog, latency).
func Register(fs *flag.FlagSet, cmd string, simMirrors bool) *Flags {
	f := &Flags{cmd: cmd, simMirrors: simMirrors}
	either := "real engine"
	latEngines := "real engine"
	if simMirrors {
		either = "either engine — sim records in virtual time"
		latEngines = "either engine — sim mirrors it deterministically"
	}
	fs.BoolVar(&f.SPCDump, "spc-dump", false, "dump counters with per-CRI/per-communicator attribution (real engine)")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write a Prometheus text-format metrics snapshot to this file (real engine)")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write the flight record as a Chrome trace-event JSON file (load in chrome://tracing) (real engine)")
	fs.StringVar(&f.SamplesOut, "samples-out", "", "write the sampler time series as CSV to this file (real engine)")
	fs.DurationVar(&f.SampleInterval, "sample-interval", 0, "background counter/histogram sampling interval, e.g. 10ms (real engine)")
	fs.BoolVar(&f.TraceWire, "trace-wire", false, "carry trace context on the wire and stitch cross-rank message lifecycles (real engine)")
	fs.StringVar(&f.TraceShard, "trace-shard", "", "write this process's flight record with its clock anchors to this file (the /debug/flight document; merge with tracemerge; real engine)")
	fs.StringVar(&f.HTTPAddr, "http", "", "serve live /metrics, /spc, /trace, /debug/latency, /healthz and pprof on this address during the run (real engine)")
	fs.BoolVar(&f.Profile, "profile", false, "attach the contention profiler: per-lock wait attribution and per-thread phase accounting (real engine)")
	fs.StringVar(&f.BreakdownOut, "breakdown-out", "", "write the per-rank phase/lock-wait breakdown as JSON to this file (either engine; sim gives deterministic virtual-time numbers)")
	fs.BoolVar(&f.PprofContention, "pprof-contention", false, "enable Go runtime mutex/block profiling so the -http pprof endpoints carry contention profiles (real engine)")
	fs.IntVar(&f.FlightCap, "flight", 0, "flight recorder: per-ring event capacity (0 = off; "+either+")")
	fs.StringVar(&f.FlightOut, "flight-out", "", "write the flight-record exit dump (rings + final queue snapshot + watchdog verdicts) as JSON to this file; implies -flight "+fmt.Sprint(flight.DefaultRingCapacity))
	fs.BoolVar(&f.Watchdog, "watchdog", false, "show the sampler's ticks to the stall detector; a verdict dumps the flight record and queue snapshot to stderr and into -flight-out ("+either+")")
	fs.BoolVar(&f.Latency, "latency", false, "attach per-message critical-path attribution: stage histograms and tail exemplars ("+latEngines+")")
	fs.StringVar(&f.LatencyOut, "latency-out", "", "write the per-rank attribution dump (stage summaries + tail exemplars) as JSON to this file; implies -latency")
	return f
}

// Normalize resolves flag implications (output paths imply their layers).
// Call it right after flag.Parse.
func (f *Flags) Normalize() {
	if f.FlightOut != "" && f.FlightCap <= 0 {
		f.FlightCap = flight.DefaultRingCapacity
	}
	if f.LatencyOut != "" {
		f.Latency = true
	}
}

// Detector is the harness's Watchdog configuration: the detector's
// defaults with -watchdog, nil without.
func (f *Flags) Detector() *flight.DetectorConfig {
	if !f.Watchdog {
		return nil
	}
	return &flight.DetectorConfig{}
}

// RealFlightCap is the flight-ring capacity of a real-engine run: the
// -flight value, or the default when -flight is unset but a trace output
// (-trace-out, -trace-shard, -trace-wire, the live /trace) reads the record.
func (f *Flags) RealFlightCap() int {
	if f.FlightCap <= 0 && (f.TraceOut != "" || f.TraceShard != "" || f.TraceWire || f.HTTPAddr != "") {
		return flight.DefaultRingCapacity
	}
	return f.FlightCap
}

// WantTelemetry reports whether any requested output instruments the real
// runtime. For a command whose sim engine has no flight/latency mirror
// (simMirrors false), those flags imply the real engine too.
func (f *Flags) WantTelemetry() bool {
	want := f.SPCDump || f.MetricsOut != "" || f.TraceOut != "" || f.SamplesOut != "" ||
		f.SampleInterval > 0 || f.TraceShard != "" || f.HTTPAddr != ""
	if !f.simMirrors {
		want = want || f.TraceWire || f.FlightCap > 0 || f.Watchdog || f.Latency
	}
	return want
}

// Session owns the run-scoped observability state: the output sinks, the
// live endpoint's holder, and the stop hooks a finished run must fire.
type Session struct {
	Flags   *Flags
	Outputs *obs.Outputs
	Holder  *obs.Holder

	srv         *obs.Server
	stopSignals func()
	restoreProf func()
}

// Start builds the output sinks, binds the live endpoint (which serves
// "not ready" until BindWorld), enables contention profiling when asked,
// and arms signal-triggered flushing. info labels every output.
func (f *Flags) Start(info map[string]string) (*Session, error) {
	s := &Session{Flags: f}
	if f.PprofContention {
		s.restoreProf = obs.EnableContentionProfiling()
	}
	s.Outputs = &obs.Outputs{
		MetricsPath: f.MetricsOut, TracePath: f.TraceOut,
		SamplesPath: f.SamplesOut, ShardPath: f.TraceShard,
		FlightPath: f.FlightOut, LatencyPath: f.LatencyOut,
		Info: info,
	}
	// The endpoint binds before the world exists so orchestration can probe
	// liveness during startup; /readyz serves 503 until BindWorld.
	s.Holder = obs.NewHolder(info, "waiting for world construction")
	if f.HTTPAddr != "" {
		srv, err := obs.Serve(f.HTTPAddr, s.Holder.Source())
		if err != nil {
			return nil, err
		}
		s.srv = srv
	}
	s.stopSignals = s.Outputs.FlushOnSignal()
	return s, nil
}

// Addr returns the live endpoint's bound address ("" when -http is unset).
func (s *Session) Addr() string {
	if s.srv == nil {
		return ""
	}
	return s.srv.Addr()
}

// BindWorld attaches a constructed world to the session: the outputs and
// the live endpoint start observing it and /readyz flips to 200. This is
// the commands' OnWorld hook.
func (s *Session) BindWorld(w *core.World) {
	src := WorldSource(w, s.Outputs.Info)
	s.Outputs.Bind(src)
	s.Holder.Bind(src)
	s.Holder.SetReady()
}

// probeGrace bounds how long a finished run keeps its live endpoint up
// waiting for an observer's first /readyz probe.
const probeGrace = 2 * time.Second

// Finish disarms the signal handler, flushes every configured
// output, and closes the live endpoint once an observer has probed it (or
// probeGrace has passed).
func (s *Session) Finish() error {
	s.stopSignals()
	err := s.Outputs.Flush()
	if s.srv != nil {
		_ = s.srv.CloseAfterProbe(probeGrace)
	}
	if s.restoreProf != nil {
		s.restoreProf()
	}
	return err
}

// WorldSource adapts a live world to the observability Source: every
// request snapshots the current counters, histograms, queue states, flight
// records, and latency attribution of all local ranks, or reads what the
// world's sampler has seen so far.
func WorldSource(w *core.World, info map[string]string) obs.Source {
	return obs.Source{
		Stats: func() []telemetry.ProcStats {
			var out []telemetry.ProcStats
			for _, p := range w.LocalProcs() {
				out = append(out, p.TelemetryStats())
			}
			return out
		},
		Queues: func() []flight.QueueSnapshot {
			var out []flight.QueueSnapshot
			for _, p := range w.LocalProcs() {
				out = append(out, p.QueueSnapshot())
			}
			return out
		},
		Flight: func() []flight.RankRecord {
			var out []flight.RankRecord
			for _, p := range w.LocalProcs() {
				if p.FlightRecorder() != nil {
					out = append(out, p.FlightRecord())
				}
			}
			return out
		},
		Latency: func() []latency.RankDump {
			var out []latency.RankDump
			for _, p := range w.LocalProcs() {
				if p.LatencyRecorder() != nil {
					out = append(out, p.LatencyDump())
				}
			}
			return out
		},
		Samples: func(rank int) []telemetry.Sample { return w.Sampler().Samples(rank) },
		Dumps:   func() []flight.Dump { return w.Sampler().Dumps() },
		Info:    info,
	}
}

// HeaderPath renders an optional "key=path" field for the self-describing
// benchmark header line, empty when the path is unset.
func HeaderPath(key, path string) string {
	if path == "" {
		return ""
	}
	return fmt.Sprintf(" %s=%s", key, path)
}

// WriteReports renders a run's time breakdown, one report per rank that
// has profiler data, labeled the way the paper labels its design ladder
// rungs: with -profile each as text on w, with -breakdown-out all of them
// as the engine's breakdown file.
func (f *Flags) WriteReports(w io.Writer, engine, progress, assignment string, threads int, ranks []prof.RankSnapshot) error {
	label := fmt.Sprintf("progress=%s,assignment=%s", progress, assignment)
	bf := prof.BreakdownFile{Engine: engine}
	for _, r := range ranks {
		if r.Snap.Empty() {
			continue
		}
		rep := prof.BuildReport(r.Rank, label, threads, r.Snap)
		if f.Profile {
			if err := rep.WriteText(w); err != nil {
				return err
			}
		}
		bf.Reports = append(bf.Reports, rep)
	}
	if f.BreakdownOut == "" {
		return nil
	}
	return obs.WriteFile(f.BreakdownOut, func(w io.Writer) error { return prof.WriteBreakdown(w, bf) })
}

// Ranks is the real engine's per-rank profiler data in the model's form.
func Ranks(stats []telemetry.ProcStats) []prof.RankSnapshot {
	out := make([]prof.RankSnapshot, len(stats))
	for i, ps := range stats {
		out[i] = prof.RankSnapshot{Rank: ps.Rank, Snap: ps.Prof}
	}
	return out
}

// WriteLatencyDumps writes per-rank attribution dumps (used by the sim
// engine, which returns the dumps in its result instead of holding a live
// world).
func WriteLatencyDumps(path string, dumps []latency.RankDump) error {
	return obs.WriteFile(path, func(w io.Writer) error { return latency.WriteDumps(w, dumps) })
}

// WriteFlightDump writes a flight-record exit dump.
func WriteFlightDump(path string, dump flight.ExitDump) error {
	return obs.WriteFile(path, func(w io.Writer) error { return flight.WriteExitDump(w, dump) })
}
