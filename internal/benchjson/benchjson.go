// Package benchjson runs the Multirate sweep over named runtime designs
// and renders the result as a machine-readable benchmark trajectory file
// (BENCH_<n>.json): message rate per thread count per design. The sweep
// executes on the deterministic virtual-time model (internal/simnet), so
// the numbers are reproducible bit-for-bit on any host — the file is a
// performance trajectory of the *design*, not of the machine CI happened
// to run on. Nothing reads a trajectory back: `make twin-exact` regenerates
// the committed files (cmd/figures -fig trajectory[-latency]) and compares
// them byte for byte.
package benchjson

import (
	"encoding/json"

	"repro/internal/designs"
	"repro/internal/hw"
	"repro/internal/latency"
	"repro/internal/simnet"
)

// SchemaVersion identifies the BENCH_*.json layout this package writes.
// Version 2 added the profiler_enabled flag; version 3 the optional
// per-stage critical-path latency quantiles (sweep.latency,
// points[].latency_stages).
const SchemaVersion = 3

// SweepConfig parameterizes one trajectory run. The zero value is the sweep
// behind the committed BENCH_4.json, and with Latency set the one behind
// BENCH_4_latency.json; tests shrink it.
type SweepConfig struct {
	// Machine is the hardware model; MachineName labels the file with the
	// model's short name (alembert | trinitite | knl | fast). Both default
	// to Alembert.
	Machine     hw.Machine
	MachineName string
	// Threads is the list of pair counts to sweep (the paper's x-axis).
	Threads []int
	// Window is the outstanding-message window per iteration.
	Window int
	// Iters is the number of window iterations per pair.
	Iters int
	// MsgSize is the payload size in bytes (0 = envelope only).
	MsgSize int
	// Instances is the CRI count the CRI designs use (paper: one per core).
	Instances int
	// Latency enables per-message critical-path attribution: every
	// thread-mode point additionally carries per-stage p50/p99. Attribution
	// reads only the virtual clock, so the rate numbers are identical either
	// way.
	Latency bool
	// Designs is the set of designs to sweep.
	Designs []designs.Design
}

// File is the root of a BENCH_*.json trajectory.
type File struct {
	SchemaVersion int    `json:"schema_version"`
	Benchmark     string `json:"benchmark"`
	Engine        string `json:"engine"`
	Unit          string `json:"unit"`
	Machine       string `json:"machine"`
	// ProfilerEnabled records whether the sweep ran with the contention
	// profiler's instrumentation active.
	ProfilerEnabled bool           `json:"profiler_enabled"`
	Sweep           Sweep          `json:"sweep"`
	Designs         []DesignResult `json:"designs"`
}

// Sweep records the parameters shared by every design's points.
type Sweep struct {
	Threads      []int `json:"threads"`
	Window       int   `json:"window"`
	Iters        int   `json:"iters"`
	MsgSizeBytes int   `json:"msg_size_bytes"`
	Instances    int   `json:"instances"`
	// Latency records whether the sweep ran with critical-path attribution,
	// i.e. whether thread-mode points carry latency_stages.
	Latency bool `json:"latency,omitempty"`
}

// DesignResult is one design's rate curve.
type DesignResult struct {
	Name        string  `json:"name"`
	Slug        string  `json:"slug"`
	ProcessMode bool    `json:"process_mode"`
	Points      []Point `json:"points"`
}

// Point is one measurement: the design's message rate at one thread count.
type Point struct {
	Threads        int     `json:"threads"`
	MessagesPerSec float64 `json:"messages_per_sec"`
	Messages       int64   `json:"messages"`
	MakespanNs     int64   `json:"makespan_ns"`
	// LatencyStages is the per-stage critical-path breakdown at this point
	// (sweep.latency runs, thread-mode designs only): one entry per populated
	// attribution stage in canonical stage order, end-to-end last.
	LatencyStages []StageLatency `json:"latency_stages,omitempty"`
}

// StageLatency is one stage's latency quantiles at one point.
type StageLatency struct {
	Stage string `json:"stage"`
	P50Ns int64  `json:"p50_ns"`
	P99Ns int64  `json:"p99_ns"`
}

func (c SweepConfig) withDefaults() SweepConfig {
	if c.MachineName == "" {
		c.Machine, c.MachineName = hw.AlembertHaswell(), "alembert"
	}
	if len(c.Threads) == 0 {
		c.Threads = []int{1, 2, 4, 8, 12, 16, 20}
	}
	if c.Window <= 0 {
		c.Window = 128
	}
	if c.Iters <= 0 {
		c.Iters = 8
	}
	if c.Instances <= 0 {
		c.Instances = 20
	}
	if len(c.Designs) == 0 {
		c.Designs = []designs.Design{
			designs.OMPIProcess, designs.OMPIThread,
			designs.OMPIThreadCRI, designs.OMPIThreadCRIFull,
			designs.OMPIThreadCRILockFree,
		}
	}
	return c
}

// Run executes the sweep and assembles the trajectory file.
func Run(cfg SweepConfig) File {
	cfg = cfg.withDefaults()
	f := File{
		SchemaVersion: SchemaVersion,
		Benchmark:     "multirate",
		Engine:        "simnet-virtual-time",
		Unit:          "msg/s",
		Machine:       cfg.MachineName,
		Sweep: Sweep{
			Threads: cfg.Threads, Window: cfg.Window, Iters: cfg.Iters,
			MsgSizeBytes: cfg.MsgSize, Instances: cfg.Instances,
			Latency: cfg.Latency,
		},
	}
	base := simnet.Config{
		Machine: cfg.Machine, Window: cfg.Window, Iters: cfg.Iters,
		MsgSize: cfg.MsgSize,
	}
	for _, d := range cfg.Designs {
		dr := DesignResult{Name: d.String(), Slug: d.Slug(), ProcessMode: d.IsProcessMode()}
		for _, threads := range cfg.Threads {
			sc := d.SimConfig(base, cfg.Instances)
			sc.Pairs = threads
			sc.Latency = cfg.Latency && !d.IsProcessMode()
			res := simnet.RunMultirate(sc)
			dr.Points = append(dr.Points, Point{
				Threads:        threads,
				MessagesPerSec: res.Rate,
				Messages:       res.Messages,
				MakespanNs:     res.Makespan.Nanoseconds(),
				LatencyStages:  stageLatencies(res.Latency),
			})
		}
		f.Designs = append(f.Designs, dr)
	}
	return f
}

// stageLatencies folds a run's rank dumps into the point's per-stage
// quantile list: populated stages in canonical enum order (the recording
// ownership rule puts each stage on exactly one rank), end-to-end last.
// Nil when the run carried no attribution.
func stageLatencies(dumps []latency.RankDump) []StageLatency {
	if len(dumps) == 0 {
		return nil
	}
	byStage := map[string]StageLatency{}
	var e2e *StageLatency
	for _, d := range dumps {
		for _, s := range d.Stages {
			if s.Stage == "e2e" {
				e2e = &StageLatency{Stage: "e2e", P50Ns: s.P50Ns, P99Ns: s.P99Ns}
				continue
			}
			if s.Count == 0 {
				continue
			}
			byStage[s.Stage] = StageLatency{Stage: s.Stage, P50Ns: s.P50Ns, P99Ns: s.P99Ns}
		}
	}
	var out []StageLatency
	for s := latency.Stage(0); s < latency.NumStages; s++ {
		if sl, ok := byStage[s.String()]; ok {
			out = append(out, sl)
		}
	}
	if e2e != nil {
		out = append(out, *e2e)
	}
	return out
}

// Marshal renders the file as indented JSON with a trailing newline.
func Marshal(f File) ([]byte, error) {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
