package figures

import (
	"fmt"
	"strings"

	"repro/internal/bench/multirate"
	"repro/internal/designs"
	"repro/internal/hw"
	"repro/internal/latency"
	"repro/internal/simnet"
)

// WaterfallFigure is the critical-path latency waterfall: for each
// thread-mode rung of the design ladder at a fixed thread count, the share
// of a message's mean end-to-end path spent in each attribution stage,
// rendered as horizontal stacked bars with the e2e p50/p99 and the
// tail-dominant stage named per design. Computed on the deterministic
// virtual-time model, so the bars reproduce bit-for-bit. Process-mode
// designs are skipped: the ladder's question is where a thread's path goes.
type WaterfallFigure struct {
	Title   string
	Threads int
	Bars    []WaterfallBar
	Notes   string
}

// WaterfallBar is one design's stacked stage bar.
type WaterfallBar struct {
	Design string
	// Shares maps stage name to its fraction of the summed per-stage mean
	// durations (sender stages from the sender's dump, receive-path stages
	// from the receiver's).
	Shares map[string]float64
	// E2EP50Ns / E2EP99Ns are the receiver's end-to-end quantiles.
	E2EP50Ns int64
	E2EP99Ns int64
	// TailStage names the stage with the largest p99 — where this design's
	// tail lives.
	TailStage string
}

var stageGlyphs = map[latency.Stage]byte{
	latency.StageCRIAcquire:      'C',
	latency.StageWireWrite:       'w',
	latency.StageTransit:         't',
	latency.StageDeliverWait:     'D',
	latency.StageMatchPosted:     'm',
	latency.StageMatchUnexpected: 'U',
	latency.StageComplete:        'c',
}

// Waterfall runs the Multirate workload once per distinct thread-mode
// design configuration with critical-path attribution on and decomposes
// where a message's latency went, one bar per legend label.
func Waterfall(sc Scale, threads int) WaterfallFigure {
	fig := WaterfallFigure{
		Title:   fmt.Sprintf("Critical-path latency waterfall across the design ladder, %d thread pairs", threads),
		Threads: threads,
		Notes: "share of summed per-stage mean latency (virtual time, Multirate pairwise); tail = largest stage p99;\n" +
			"legend: C=cri_acquire w=wire_write t=transit D=deliver_wait m=match_posted U=match_unexpected c=complete",
	}
	base := multirate.Config{
		Machine: hw.AlembertHaswell(), Pairs: threads,
		Window: sc.Window, Iters: sc.Iters,
	}
	var threadModes []designs.Design
	for _, d := range designs.All() {
		if !d.IsProcessMode() {
			threadModes = append(threadModes, d)
		}
	}
	eachDesign(threadModes, func(d designs.Design) WaterfallBar {
		cfg := d.Config(base, threads)
		cfg.Opts.Latency = true
		return waterfallBar(simnet.RunMultirate(cfg, d.Model()).Latency)
	}, func(d designs.Design, bar WaterfallBar) {
		bar.Design = d.String()
		fig.Bars = append(fig.Bars, bar)
	})
	return fig
}

// waterfallBar folds a run's rank dumps (sender first, receiver second)
// into one stacked bar: per-stage mean durations summed across ranks — the
// recording ownership rule guarantees each stage appears on exactly one
// side — normalized into shares.
func waterfallBar(dumps []latency.RankDump) WaterfallBar {
	bar := WaterfallBar{Shares: map[string]float64{}}
	means := map[string]float64{}
	var total float64
	var tailP99 int64
	for _, d := range dumps {
		for _, s := range d.Stages {
			if s.Stage == "e2e" {
				bar.E2EP50Ns = s.P50Ns
				bar.E2EP99Ns = s.P99Ns
				continue
			}
			if s.Count == 0 {
				continue
			}
			mean := float64(s.SumNs) / float64(s.Count)
			means[s.Stage] += mean
			total += mean
			if s.P99Ns > tailP99 || (s.P99Ns == tailP99 && bar.TailStage != "" && s.Stage < bar.TailStage) {
				bar.TailStage, tailP99 = s.Stage, s.P99Ns
			}
		}
	}
	if total > 0 {
		for name, m := range means {
			bar.Shares[name] = m / total
		}
	}
	return bar
}

// Render draws the stacked bars as text: one glyph per percent of the
// summed stage means, quantiles and tail stage named on the right.
func (f WaterfallFigure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", f.Title)
	if f.Notes != "" {
		fmt.Fprintf(&b, "%s\n", f.Notes)
	}
	width := 0
	for _, bar := range f.Bars {
		if len(bar.Design) > width {
			width = len(bar.Design)
		}
	}
	for _, bar := range f.Bars {
		fmt.Fprintf(&b, "%-*s |", width, bar.Design)
		drawn := 0
		for s := latency.Stage(0); s < latency.NumStages; s++ {
			n := int(bar.Shares[s.String()]*100 + 0.5)
			for i := 0; i < n && drawn < 100; i++ {
				b.WriteByte(stageGlyphs[s])
				drawn++
			}
		}
		for ; drawn < 100; drawn++ {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "| e2e p50=%dns p99=%dns tail: %s\n", bar.E2EP50Ns, bar.E2EP99Ns, bar.TailStage)
	}
	return b.String()
}

// CSV renders the shares and quantiles as comma-separated values, one row
// per design.
func (f WaterfallFigure) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", f.Title)
	b.WriteString("design")
	for s := latency.Stage(0); s < latency.NumStages; s++ {
		b.WriteString("," + s.String())
	}
	b.WriteString(",e2e_p50_ns,e2e_p99_ns,tail_stage\n")
	for _, bar := range f.Bars {
		b.WriteString(csvQuote(bar.Design))
		for s := latency.Stage(0); s < latency.NumStages; s++ {
			fmt.Fprintf(&b, ",%.4f", bar.Shares[s.String()])
		}
		fmt.Fprintf(&b, ",%d,%d,%s\n", bar.E2EP50Ns, bar.E2EP99Ns, csvQuote(bar.TailStage))
	}
	return b.String()
}
