// Package figures regenerates every table and figure of the paper's
// evaluation section from the deterministic virtual-time model
// (internal/simnet). Each Fig* function returns a Table whose rows are the
// same series the paper plots; cmd/figures renders them as text.
package figures

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cri"
	"repro/internal/designs"
	"repro/internal/hw"
	"repro/internal/progress"
	"repro/internal/simnet"
	"repro/internal/spc"
)

// Table is one regenerated figure or table: a labeled grid of values.
type Table struct {
	// Title identifies the experiment ("Figure 3a", ...).
	Title string
	// XLabel and XS describe the columns (e.g. thread pairs).
	XLabel string
	XS     []int
	// Rows are the series, in legend order.
	Rows []Row
	// Notes carries rendering context (units, workload).
	Notes string
}

// Row is one series.
type Row struct {
	Label  string
	Values []float64
}

// Render prints the table as aligned text columns.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	if t.Notes != "" {
		fmt.Fprintf(&b, "%s\n", t.Notes)
	}
	fmt.Fprintf(&b, "%-34s", t.XLabel)
	for _, x := range t.XS {
		fmt.Fprintf(&b, " %10d", x)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-34s", r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&b, " %10.0f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header row,
// suitable for plotting tools.
func (t Table) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	b.WriteString("series")
	for _, x := range t.XS {
		fmt.Fprintf(&b, ",%d", x)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(csvQuote(r.Label))
		for _, v := range r.Values {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func csvQuote(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// Scale selects the sweep density / message volume.
type Scale struct {
	// Window is the outstanding-message window (paper: 128).
	Window int
	// Iters is iterations per pair per point.
	Iters int
	// PairPoints are the thread-pair counts swept in Figs. 3-5.
	PairPoints []int
	// RMAPuts is puts per thread per flush round in Figs. 6-7.
	RMAPuts int
	// RMARounds is flush rounds per point.
	RMARounds int
}

// Quick is a fast sweep preserving every shape (seconds per figure).
func Quick() Scale {
	return Scale{
		Window:     128,
		Iters:      4,
		PairPoints: []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20},
		RMAPuts:    250,
		RMARounds:  2,
	}
}

// Paper matches the paper's message volumes (minutes per figure).
func Paper() Scale {
	return Scale{
		Window:     128,
		Iters:      40,
		PairPoints: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20},
		RMAPuts:    1000,
		RMARounds:  4,
	}
}

// fig3Line is one series of Figures 3 and 4: an instance count and an
// assignment mode.
type fig3Line struct {
	label     string
	instances int
	mode      cri.Assignment
}

func fig3Lines() []fig3Line {
	return []fig3Line{
		{"1 instance", 1, cri.RoundRobin},
		{"10 instances round-robin", 10, cri.RoundRobin},
		{"10 instances dedicated", 10, cri.Dedicated},
		{"20 instances round-robin", 20, cri.RoundRobin},
		{"20 instances dedicated", 20, cri.Dedicated},
	}
}

func fig34(title string, sc Scale, prog progress.Mode, commPerPair, overtaking, anyTag bool) Table {
	m := hw.AlembertHaswell()
	t := Table{
		Title:  title,
		XLabel: "msg/s by thread pairs",
		XS:     sc.PairPoints,
		Notes: fmt.Sprintf("Multirate pairwise, 0-byte messages, window %d, %s progress, commPerPair=%v, overtaking=%v, anyTag=%v, %s",
			sc.Window, prog, commPerPair, overtaking, anyTag, m.Name),
	}
	for _, ln := range fig3Lines() {
		row := Row{Label: ln.label}
		for _, pairs := range sc.PairPoints {
			cfg := simnet.Config{
				Machine: m, Pairs: pairs, Window: sc.Window, Iters: sc.Iters,
				NumInstances: ln.instances, Assignment: ln.mode, Progress: prog,
				CommPerPair: commPerPair, AllowOvertaking: overtaking, AnyTagRecv: anyTag,
			}
			row.Values = append(row.Values, simnet.RunMultirate(cfg).Rate)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig3a: zero-byte message rate, concurrent sends under serial progress.
func Fig3a(sc Scale) Table {
	return fig34("Figure 3a — serial progress", sc, progress.Serial, false, false, false)
}

// Fig3b: concurrent progress moves the bottleneck to matching.
func Fig3b(sc Scale) Table {
	return fig34("Figure 3b — concurrent progress", sc, progress.Concurrent, false, false, false)
}

// Fig3c: concurrent progress + concurrent matching (communicator per pair).
func Fig3c(sc Scale) Table {
	return fig34("Figure 3c — concurrent progress + concurrent matching", sc, progress.Concurrent, true, false, false)
}

// Fig4a-c repeat Fig3 with message overtaking + wildcard-tag receives.
func Fig4a(sc Scale) Table {
	return fig34("Figure 4a — serial progress, no ordering", sc, progress.Serial, false, true, true)
}

// Fig4b is Fig3b without ordering enforcement.
func Fig4b(sc Scale) Table {
	return fig34("Figure 4b — concurrent progress, no ordering", sc, progress.Concurrent, false, true, true)
}

// Fig4c is Fig3c without ordering enforcement.
func Fig4c(sc Scale) Table {
	return fig34("Figure 4c — concurrent progress + matching, no ordering", sc, progress.Concurrent, true, true, true)
}

// Fig5 compares the state-of-the-art designs (log-scale in the paper), one
// row per legend label; each distinct configuration runs once.
func Fig5(sc Scale) Table {
	m := hw.AlembertHaswell()
	t := Table{
		Title:  "Figure 5 — state of MPI threading (pairwise 0 bytes, window 128, Alembert)",
		XLabel: "msg/s by communication pairs",
		XS:     sc.PairPoints,
		Notes:  "Process rows map pairs to process pairs; thread rows to threads of one process pair.",
	}
	base := simnet.Config{Machine: m, Window: sc.Window, Iters: sc.Iters}
	eachDesign(designs.All(), func(d designs.Design) (rates []float64) {
		for _, pairs := range sc.PairPoints {
			cfg := d.SimConfig(base, 20)
			cfg.Pairs = pairs
			rates = append(rates, simnet.RunMultirate(cfg).Rate)
		}
		return rates
	}, func(d designs.Design, rates []float64) {
		t.Rows = append(t.Rows, Row{Label: d.String(), Values: rates})
	})
	return t
}

// eachDesign calls emit for each of ds in order with what run returned for
// the configuration the design runs (designs.Design.Runs), calling run once
// per distinct configuration: a legend label shares its design's result.
func eachDesign[T any](ds []designs.Design, run func(designs.Design) T, emit func(designs.Design, T)) {
	ran := map[designs.Design]T{}
	for _, d := range ds {
		r, ok := ran[d.Runs()]
		if !ok {
			r = run(d.Runs())
			ran[d.Runs()] = r
		}
		emit(d, r)
	}
}

// TableII reproduces the SPC table: out-of-sequence counts and match time
// at 20 thread pairs with dedicated assignment, for serial progress,
// concurrent progress, and concurrent progress + matching, each at 1/10/20
// instances. Row values are per configuration column, matching the paper's
// layout transposed into rows per metric.
type TableIIResult struct {
	// Configs labels the nine columns.
	Configs []string
	// TotalMessages is the per-config message count.
	TotalMessages int64
	// OutOfSequence, OutOfSequencePct, MatchTimeMs are the paper's rows.
	OutOfSequence    []int64
	OutOfSequencePct []float64
	MatchTimeMs      []float64
}

// TableII runs the nine Table II configurations. full=true uses the
// paper's exact message count (2,585,600 = 20 pairs x 128 window x 1010
// iterations); otherwise sc.Iters is used.
func TableII(sc Scale, full bool) TableIIResult {
	m := hw.AlembertHaswell()
	iters := sc.Iters
	if full {
		iters = 1010
	}
	type group struct {
		name string
		prog progress.Mode
		cpp  bool
	}
	groups := []group{
		{"serial", progress.Serial, false},
		{"concurrent", progress.Concurrent, false},
		{"concurrent+match", progress.Concurrent, true},
	}
	var res TableIIResult
	for _, g := range groups {
		for _, inst := range []int{1, 10, 20} {
			cfg := simnet.Config{
				Machine: m, Pairs: 20, Window: sc.Window, Iters: iters,
				NumInstances: inst, Assignment: cri.Dedicated,
				Progress: g.prog, CommPerPair: g.cpp,
			}
			r := simnet.RunMultirate(cfg)
			res.Configs = append(res.Configs, fmt.Sprintf("%s/%d", g.name, inst))
			res.TotalMessages = r.Messages
			res.OutOfSequence = append(res.OutOfSequence, r.SPCs.Get(spc.OutOfSequence))
			res.OutOfSequencePct = append(res.OutOfSequencePct, r.SPCs.OutOfSequencePercent())
			res.MatchTimeMs = append(res.MatchTimeMs, float64(r.SPCs.MatchTime())/float64(time.Millisecond))
		}
	}
	return res
}

// Render prints Table II in the paper's layout.
func (r TableIIResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Table II — SPCs at 20 thread pairs, dedicated assignment, total messages = %d ==\n", r.TotalMessages)
	fmt.Fprintf(&b, "%-24s", "config")
	for _, c := range r.Configs {
		fmt.Fprintf(&b, " %14s", c)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-24s", "out-of-sequence msgs")
	for _, v := range r.OutOfSequence {
		fmt.Fprintf(&b, " %14d", v)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-24s", "out-of-sequence (%)")
	for _, v := range r.OutOfSequencePct {
		fmt.Fprintf(&b, " %13.2f%%", v)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-24s", "match time (ms)")
	for _, v := range r.MatchTimeMs {
		fmt.Fprintf(&b, " %14.1f", v)
	}
	b.WriteByte('\n')
	return b.String()
}

// rmaSizes are the message sizes of Figures 6 and 7.
var rmaSizes = []int{1, 128, 1024, 4096, 16384}

// figRMA sweeps the RMA-MT workload for one machine.
func figRMA(title string, m hw.Machine, threadPoints []int, sc Scale) []Table {
	type variant struct {
		label     string
		instances int
		mode      cri.Assignment
		prog      progress.Mode
	}
	variants := []variant{
		{"single / serial", 1, cri.RoundRobin, progress.Serial},
		{"single / concurrent", 1, cri.RoundRobin, progress.Concurrent},
		{"dedicated / serial", 0, cri.Dedicated, progress.Serial},
		{"dedicated / concurrent", 0, cri.Dedicated, progress.Concurrent},
		{"round-robin / serial", 0, cri.RoundRobin, progress.Serial},
		{"round-robin / concurrent", 0, cri.RoundRobin, progress.Concurrent},
	}
	var tables []Table
	for _, size := range rmaSizes {
		t := Table{
			Title:  fmt.Sprintf("%s — %d bytes", title, size),
			XLabel: "puts/s by threads",
			XS:     threadPoints,
			Notes: fmt.Sprintf("RMA-MT MPI_Put + MPI_Win_flush, %s, theoretical peak %.0f msg/s",
				m.Name, m.PeakMessageRate(size)),
		}
		for _, v := range variants {
			row := Row{Label: v.label}
			for _, threads := range threadPoints {
				cfg := simnet.RMAMTConfig{
					Machine: m, Threads: threads, MsgSize: size,
					PutsPerThread: sc.RMAPuts, Rounds: sc.RMARounds,
					NumInstances: v.instances, Assignment: v.mode, Progress: v.prog,
				}
				row.Values = append(row.Values, simnet.RunRMAMT(cfg).Rate)
			}
			t.Rows = append(t.Rows, row)
		}
		peak := Row{Label: "theoretical peak"}
		for range threadPoints {
			peak.Values = append(peak.Values, m.PeakMessageRate(size))
		}
		t.Rows = append(t.Rows, peak)
		tables = append(tables, t)
	}
	return tables
}

// Fig6: RMA-MT on Trinitite Haswell, 1-32 threads.
func Fig6(sc Scale) []Table {
	return figRMA("Figure 6 — RMA-MT Haswell", hw.TrinititeHaswell(), []int{1, 2, 4, 8, 16, 32}, sc)
}

// Fig7: RMA-MT on Trinitite KNL, 1-64 threads.
func Fig7(sc Scale) []Table {
	return figRMA("Figure 7 — RMA-MT KNL", hw.TrinititeKNL(), []int{1, 2, 4, 8, 16, 32, 64}, sc)
}
