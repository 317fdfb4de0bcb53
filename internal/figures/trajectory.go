package figures

import (
	"encoding/json"

	"repro/internal/bench/multirate"
	"repro/internal/designs"
	"repro/internal/hw"
	"repro/internal/latency"
	"repro/internal/simnet"
)

// trajectorySchema identifies the BENCH_*.json layout. Version 2 added the
// profiler_enabled flag (always false: the model has no profiler to arm);
// version 3 the optional per-stage critical-path latency quantiles
// (sweep.latency, points[].latency_stages).
const trajectorySchema = 3

// sweep is the shape of one trajectory run. committedSweep is the one
// behind BENCH_4.json and BENCH_4_latency.json; tests shrink it.
type sweep struct {
	machine         hw.Machine
	machineName     string
	trajectorySweep // the parameters the file records
	designs         []designs.Design
}

var committedSweep = sweep{
	machine: hw.AlembertHaswell(), machineName: "alembert",
	trajectorySweep: trajectorySweep{Threads: []int{1, 2, 4, 8, 12, 16, 20}, Window: 128, Iters: 8, Instances: 20},
	designs: []designs.Design{
		designs.OMPIProcess, designs.OMPIThread,
		designs.OMPIThreadCRI, designs.OMPIThreadCRIFull,
		designs.OMPIThreadCRILockFree,
	},
}

// trajectoryFile is the root of a BENCH_*.json trajectory.
type trajectoryFile struct {
	SchemaVersion   int              `json:"schema_version"`
	Benchmark       string           `json:"benchmark"`
	Engine          string           `json:"engine"`
	Unit            string           `json:"unit"`
	Machine         string           `json:"machine"`
	ProfilerEnabled bool             `json:"profiler_enabled"`
	Sweep           trajectorySweep  `json:"sweep"`
	Designs         []trajectoryLine `json:"designs"`
}

// trajectorySweep records the parameters shared by every design's points:
// the pair counts (the paper's x-axis), the outstanding-message window, the
// window iterations per pair, the payload size (0: envelopes only) and the
// CRI count of the CRI designs (paper: one per core).
type trajectorySweep struct {
	Threads      []int `json:"threads"`
	Window       int   `json:"window"`
	Iters        int   `json:"iters"`
	MsgSizeBytes int   `json:"msg_size_bytes"`
	Instances    int   `json:"instances"`
	// Latency records whether thread-mode points carry latency_stages.
	Latency bool `json:"latency,omitempty"`
}

// trajectoryLine is one design's rate curve.
type trajectoryLine struct {
	Name        string            `json:"name"`
	Slug        string            `json:"slug"`
	ProcessMode bool              `json:"process_mode"`
	Points      []trajectoryPoint `json:"points"`
}

// trajectoryPoint is the design's message rate at one thread count.
type trajectoryPoint struct {
	Threads        int     `json:"threads"`
	MessagesPerSec float64 `json:"messages_per_sec"`
	Messages       int64   `json:"messages"`
	MakespanNs     int64   `json:"makespan_ns"`
	// LatencyStages is the per-stage critical-path breakdown (latency
	// sweeps, thread-mode designs only): one entry per populated stage in
	// canonical stage order, end-to-end last.
	LatencyStages []stageLatency `json:"latency_stages,omitempty"`
}

type stageLatency struct {
	Stage string `json:"stage"`
	P50Ns int64  `json:"p50_ns"`
	P99Ns int64  `json:"p99_ns"`
}

// Trajectory runs the Multirate sweep over the design ladder on the
// virtual-time model and renders it as the committed trajectory file:
// BENCH_4.json, or withLatency BENCH_4_latency.json, whose thread-mode
// points also carry per-stage p50/p99. Attribution reads only the virtual
// clock, so the rate numbers are identical either way. Nothing reads a
// trajectory back: `make twin-exact` regenerates the files and compares
// them byte for byte.
func Trajectory(withLatency bool) ([]byte, error) {
	b, err := json.MarshalIndent(committedSweep.run(withLatency), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func (sw sweep) run(withLatency bool) trajectoryFile {
	f := trajectoryFile{
		SchemaVersion: trajectorySchema,
		Benchmark:     "multirate",
		Engine:        "simnet-virtual-time",
		Unit:          "msg/s",
		Machine:       sw.machineName,
		Sweep:         sw.trajectorySweep,
	}
	f.Sweep.Latency = withLatency
	base := multirate.Config{Machine: sw.machine, Window: sw.Window, Iters: sw.Iters}
	for _, d := range sw.designs {
		line := trajectoryLine{Name: d.String(), Slug: d.Slug(), ProcessMode: d.IsProcessMode()}
		for _, threads := range sw.Threads {
			cfg := d.Config(base, sw.Instances)
			cfg.Pairs = threads
			cfg.Opts.Latency = withLatency && !d.IsProcessMode()
			res := simnet.RunMultirate(cfg, d.Model())
			line.Points = append(line.Points, trajectoryPoint{
				Threads:        threads,
				MessagesPerSec: res.Rate,
				Messages:       res.Messages,
				MakespanNs:     res.Makespan.Nanoseconds(),
				LatencyStages:  stageLatencies(res.Latency),
			})
		}
		f.Designs = append(f.Designs, line)
	}
	return f
}

// stageLatencies folds a run's rank dumps into the point's per-stage
// quantile list: populated stages in canonical enum order (the recording
// ownership rule puts each stage on exactly one rank), end-to-end last.
// Nil when the run carried no attribution.
func stageLatencies(dumps []latency.RankDump) []stageLatency {
	byStage := map[string]stageLatency{}
	for _, d := range dumps {
		for _, s := range d.Stages {
			if s.Count > 0 || s.Stage == "e2e" {
				byStage[s.Stage] = stageLatency{Stage: s.Stage, P50Ns: s.P50Ns, P99Ns: s.P99Ns}
			}
		}
	}
	var out []stageLatency
	for s := latency.Stage(0); s < latency.NumStages; s++ {
		if sl, ok := byStage[s.String()]; ok {
			out = append(out, sl)
		}
	}
	if e2e, ok := byStage["e2e"]; ok {
		out = append(out, e2e)
	}
	return out
}
