package obs

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"repro/internal/telemetry"
)

// Outputs owns a run's file-backed telemetry artifacts — Prometheus
// snapshot, Chrome trace, sampler CSV, raw trace shards — and guarantees
// each is written exactly once, whether the run completes normally or a
// signal cuts it short mid-flight. Paths left empty are skipped.
//
// The artifacts are the file forms of the documents the live HTTP endpoint
// serves — one table of views renders both — pulled through the same Source
// callbacks, so an interrupted run flushes whatever partial state the world
// has accumulated so far rather than nothing.
type Outputs struct {
	// MetricsPath receives a Prometheus text-format snapshot.
	MetricsPath string
	// TracePath receives the merged clock-corrected Chrome trace JSON.
	TracePath string
	// SamplesPath receives ProfRank's sampled time series as CSV.
	SamplesPath string
	// ShardPath receives the local ranks' flight records with their clock
	// anchors — the /debug/flight document, input to cmd/tracemerge.
	ShardPath string
	// FlightPath receives the flight-record exit dump: every local rank's
	// merged flight-recorder ring, the final queue-introspection snapshot
	// and the watchdog's verdict dumps, as one JSON document. Written on
	// normal exit, on SIGINT/SIGTERM via FlushOnSignal, and on panic via
	// DumpOnPanic.
	FlightPath string
	// LatencyPath receives the critical-path attribution exit dump: every
	// local rank's per-stage summaries and tail exemplars as one JSON
	// document (the file form of /debug/latency).
	LatencyPath string
	// ProfRank names the rank whose time series SamplesPath receives and
	// whose pid group receives the phase-breakdown counter track in the
	// Chrome trace, when its samples carry profiler snapshots.
	ProfRank int
	// Info labels the Prometheus snapshot (mpi_build_info).
	Info map[string]string

	mu   sync.Mutex
	src  Source
	once sync.Once
	err  error
}

// Bind points the outputs at a run's live data source. Called from the
// benchmark's OnWorld hook.
func (o *Outputs) Bind(src Source) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.src = src
}

// Flush writes every configured artifact exactly once; subsequent calls
// return the first call's result.
func (o *Outputs) Flush() error {
	o.once.Do(func() { o.err = o.flush() })
	return o.err
}

func (o *Outputs) flush() error {
	o.mu.Lock()
	src := o.src
	o.mu.Unlock()
	if src.Info == nil {
		src.Info = o.Info // flushed before any world was bound
	}
	// The series so far: a run cut short by a signal writes the samples its
	// sampler has taken.
	var series []telemetry.Sample
	if src.Samples != nil {
		series = src.Samples(o.ProfRank)
	}
	if src.Phases == nil {
		// Fold the profiler series into the trace as a counter track on the
		// sampled rank's pid group.
		src.Phases = func() map[int][]telemetry.PhasePoint {
			if pts := telemetry.PhasePointsFromSamples(series); len(pts) > 0 {
				return map[int][]telemetry.PhasePoint{o.ProfRank: pts}
			}
			return nil
		}
	}
	for _, v := range views {
		if v.file == nil || v.file(o) == "" {
			continue
		}
		err := WriteFile(v.file(o), func(w io.Writer) error { return v.render(src, w) })
		if err != nil {
			return fmt.Errorf("obs: %s: %w", v.name, err)
		}
	}
	if o.SamplesPath != "" && len(series) > 0 {
		return WriteFile(o.SamplesPath, func(w io.Writer) error { return telemetry.WriteSamplesCSV(w, series) })
	}
	return nil
}

// FlushOnSignal installs a SIGINT/SIGTERM handler that flushes the outputs
// and exits with the conventional 128+signo status. The returned stop
// function uninstalls the handler; call it once the run has completed and
// the normal-exit path owns flushing again.
func (o *Outputs) FlushOnSignal() (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig, ok := <-ch
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "obs: %v: flushing telemetry outputs\n", sig)
		if err := o.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "obs: flush:", err)
		}
		code := 130 // 128 + SIGINT
		if sig == syscall.SIGTERM {
			code = 143
		}
		os.Exit(code)
	}()
	return func() {
		signal.Stop(ch)
		close(ch)
	}
}

// DumpOnPanic flushes the outputs when the calling goroutine is unwinding
// from a panic, then re-panics so the crash still reports normally. Use as
// `defer outputs.DumpOnPanic()` in main: a crash mid-benchmark then leaves
// the flight record and queue snapshot on disk for triage instead of only
// a stack trace.
func (o *Outputs) DumpOnPanic() {
	r := recover()
	if r == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "obs: panic: %v: flushing telemetry outputs\n", r)
	if err := o.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "obs: flush:", err)
	}
	panic(r)
}

// WriteFile creates path and streams fn's output into it.
func WriteFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
