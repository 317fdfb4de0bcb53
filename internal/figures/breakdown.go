package figures

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/designs"
	"repro/internal/hw"
	"repro/internal/prof"
	"repro/internal/simnet"
)

// BreakdownFigure is the paper-style time-breakdown chart: for each rung of
// the design ladder at a fixed thread count, the share of total thread wall
// time spent in each runtime phase, rendered as horizontal stacked bars with
// the dominant bottleneck named per design. It is the profiler's headline
// output, computed on the deterministic virtual-time model so the bars are
// reproducible bit-for-bit.
type BreakdownFigure struct {
	Title   string
	Threads int
	Bars    []BreakdownBar
	Notes   string
}

// BreakdownBar is one design's stacked bar.
type BreakdownBar struct {
	Design string
	// Shares maps phase name to its fraction of summed wall time.
	Shares map[string]float64
	// Bottleneck names the dominant non-app phase (and hottest lock site
	// when lock wait dominates), as reported by internal/prof.
	Bottleneck string
}

// breakdownPhases is the stacking order: app (useful work) first, then the
// runtime phases from most to least interesting for the paper's story.
var breakdownPhases = []prof.Phase{
	prof.PhaseApp, prof.PhaseLockWait, prof.PhaseMatch,
	prof.PhaseProgressOwn, prof.PhaseProgressSteal,
	prof.PhaseSend, prof.PhaseWire, prof.PhaseRetransmit,
}

var phaseGlyphs = map[prof.Phase]byte{
	prof.PhaseApp:           '.',
	prof.PhaseLockWait:      'L',
	prof.PhaseMatch:         'M',
	prof.PhaseProgressOwn:   'P',
	prof.PhaseProgressSteal: 'S',
	prof.PhaseSend:          's',
	prof.PhaseWire:          'w',
	prof.PhaseRetransmit:    'r',
}

// TimeBreakdown runs the Multirate workload once per distinct design
// configuration at the given thread count and decomposes where the threads'
// virtual time went, one bar per legend label.
func TimeBreakdown(sc Scale, threads int) BreakdownFigure {
	fig := BreakdownFigure{
		Title:   fmt.Sprintf("Time breakdown across the design ladder, %d thread pairs", threads),
		Threads: threads,
		Notes: "share of summed thread wall time per phase (virtual time, Multirate pairwise);\n" +
			"legend: .=app L=lock_wait M=match P=progress_own S=progress_steal s=send w=wire r=retransmit",
	}
	base := simnet.Config{
		Machine: hw.AlembertHaswell(), Pairs: threads,
		Window: sc.Window, Iters: sc.Iters,
	}
	eachDesign(designs.All(), func(d designs.Design) BreakdownBar {
		res := simnet.RunMultirate(d.SimConfig(base, threads))
		var job prof.Snapshot // both ranks, reported as one
		for _, b := range res.Breakdown {
			job.Threads = append(job.Threads, b.Snap.Threads...)
			job.Sites = append(job.Sites, b.Snap.Sites...)
		}
		rep := prof.BuildReport(0, d.String(), threads, job)
		bar := BreakdownBar{Shares: map[string]float64{}, Bottleneck: rep.Bottleneck}
		if totals := rep.Totals(); rep.WallNs > 0 {
			for _, ph := range breakdownPhases {
				if totals[ph] > 0 {
					bar.Shares[ph.String()] = float64(totals[ph]) / float64(rep.WallNs)
				}
			}
		}
		return bar
	}, func(d designs.Design, bar BreakdownBar) {
		bar.Design = d.String()
		fig.Bars = append(fig.Bars, bar)
	})
	return fig
}

// Render draws the stacked bars as text: one glyph per percent of wall
// time, bottleneck named on the right.
func (f BreakdownFigure) Render() string {
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
		for _, ph := range breakdownPhases {
			n := int(bar.Shares[ph.String()]*100 + 0.5)
			for i := 0; i < n && drawn < 100; i++ {
				b.WriteByte(phaseGlyphs[ph])
				drawn++
			}
		}
		for ; drawn < 100; drawn++ {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "| bottleneck: %s\n", bar.Bottleneck)
	}
	return b.String()
}

// CSV renders the shares as comma-separated values, one row per design.
func (f BreakdownFigure) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", f.Title)
	b.WriteString("design")
	for _, ph := range breakdownPhases {
		b.WriteString("," + ph.String())
	}
	b.WriteString(",bottleneck\n")
	for _, bar := range f.Bars {
		b.WriteString(csvQuote(bar.Design))
		for _, ph := range breakdownPhases {
			fmt.Fprintf(&b, ",%.4f", bar.Shares[ph.String()])
		}
		b.WriteString("," + csvQuote(bar.Bottleneck) + "\n")
	}
	return b.String()
}

// DominantPhases lists each design's dominant non-app phase, for tests and
// quick textual summaries.
func (f BreakdownFigure) DominantPhases() map[string]string {
	out := make(map[string]string, len(f.Bars))
	for _, bar := range f.Bars {
		best, bestShare := "", 0.0
		names := make([]string, 0, len(bar.Shares))
		for name := range bar.Shares {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if name == prof.PhaseApp.String() {
				continue
			}
			if s := bar.Shares[name]; s > bestShare {
				best, bestShare = name, s
			}
		}
		out[bar.Design] = best
	}
	return out
}
