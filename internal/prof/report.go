package prof

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Report is the automated bottleneck report for one rank: lock sites ranked
// by contended wait, the aggregate phase breakdown across the rank's
// threads, and a one-line naming of the dominant bottleneck — the paper's
// "what is the remaining serial section" question answered from data.
type Report struct {
	Rank    int    `json:"rank"`
	Design  string `json:"design,omitempty"`
	Threads int    `json:"threads,omitempty"`
	// WallNs is the summed wall time of all profiled threads; PhaseNs the
	// summed exclusive phase times (non-zero phases only).
	WallNs  int64            `json:"wall_ns"`
	PhaseNs map[string]int64 `json:"phase_ns"`
	// LockWaitShare is lock-wait time / wall time across all threads —
	// the single number the serial-vs-concurrent comparison turns on.
	LockWaitShare float64 `json:"lock_wait_share"`
	// Sites is every lock site, ranked by contended wait descending.
	Sites []SiteSnapshot `json:"sites"`
	// Bottleneck names the dominant non-app phase and, when lock wait
	// dominates, the hottest site.
	Bottleneck string `json:"bottleneck"`
}

// Totals returns the report's phase breakdown as a PhaseTotals vector.
func (r Report) Totals() PhaseTotals {
	var t PhaseTotals
	for i := 0; i < NumPhases; i++ {
		t[i] = r.PhaseNs[Phase(i).String()]
	}
	return t
}

// BuildReport aggregates a snapshot into a rank's bottleneck report.
// design/threads are labels carried into the output (empty/zero to omit).
// Sites keep their snapshot order among equal waits, so the hottest site
// named on a tie is the first one the snapshot lists.
func BuildReport(rank int, design string, threads int, snap Snapshot) Report {
	r := Report{Rank: rank, Design: design, Threads: threads}
	var totals PhaseTotals
	for _, th := range snap.Threads {
		r.WallNs += th.WallNs
		totals.Merge(th.Phases)
	}
	r.PhaseNs = totals.Map()
	if r.WallNs > 0 {
		r.LockWaitShare = float64(totals[PhaseLockWait]) / float64(r.WallNs)
	}
	r.Sites = append([]SiteSnapshot(nil), snap.Sites...)
	sort.SliceStable(r.Sites, func(i, j int) bool { return r.Sites[i].WaitNs > r.Sites[j].WaitNs })
	r.Bottleneck = bottleneck(totals, r.WallNs, r.Sites)
	return r
}

// bottleneck names the dominant non-app phase; when that phase is lock
// wait, the hottest site is named too.
func bottleneck(totals PhaseTotals, wallNs int64, ranked []SiteSnapshot) string {
	best, bestNs := PhaseApp, int64(0)
	for i := 1; i < NumPhases; i++ { // skip app: it is the useful-work remainder
		if totals[i] > bestNs {
			best, bestNs = Phase(i), totals[i]
		}
	}
	if bestNs == 0 {
		return "none (no runtime time recorded)"
	}
	share := 0.0
	if wallNs > 0 {
		share = 100 * float64(bestNs) / float64(wallNs)
	}
	if best == PhaseLockWait && len(ranked) > 0 && ranked[0].WaitNs > 0 {
		return fmt.Sprintf("%s %.1f%% (hottest site %s)", best, share, siteLabel(ranked[0]))
	}
	return fmt.Sprintf("%s %.1f%%", best, share)
}

func siteLabel(s SiteSnapshot) string {
	switch {
	case s.CRI >= 0:
		return fmt.Sprintf("%s[cri=%d]", s.Name, s.CRI)
	case s.Comm != 0:
		return fmt.Sprintf("%s[comm=%d]", s.Name, s.Comm)
	default:
		return s.Name
	}
}

// WriteText renders the paper-style breakdown: the phase table first, then
// lock sites ranked by contended wait.
func (r Report) WriteText(w io.Writer) error {
	head := fmt.Sprintf("rank %d", r.Rank)
	if r.Design != "" {
		head += " design=" + r.Design
	}
	if r.Threads > 0 {
		head += fmt.Sprintf(" threads=%d", r.Threads)
	}
	if _, err := fmt.Fprintf(w, "== bottleneck report: %s ==\n", head); err != nil {
		return err
	}
	fmt.Fprintf(w, "dominant: %s\n", r.Bottleneck)
	fmt.Fprintf(w, "%-16s %14s %7s\n", "phase", "time", "share")
	totals := r.Totals()
	for i := 0; i < NumPhases; i++ {
		v := totals[i]
		if v == 0 {
			continue
		}
		share := 0.0
		if r.WallNs > 0 {
			share = 100 * float64(v) / float64(r.WallNs)
		}
		fmt.Fprintf(w, "%-16s %14s %6.1f%%\n", Phase(i).String(), fmtNs(v), share)
	}
	if len(r.Sites) > 0 {
		fmt.Fprintf(w, "%-24s %10s %10s %8s %12s %12s %12s\n",
			"lock site", "acquired", "contended", "tryfail", "wait", "max-wait", "hold")
		for _, s := range r.Sites {
			if s.Acquisitions == 0 && s.TryFailures == 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, "%-24s %10d %10d %8d %12s %12s %12s\n",
				siteLabel(s), s.Acquisitions, s.Contended, s.TryFailures,
				fmtNs(s.WaitNs), fmtNs(s.MaxWaitNs), fmtNs(s.HoldNs)); err != nil {
				return err
			}
		}
	}
	return nil
}

func fmtNs(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// BreakdownSchemaVersion identifies the -breakdown-out JSON layout.
const BreakdownSchemaVersion = 1

// BreakdownFile is the JSON artifact written by -breakdown-out: one report
// per rank (or per design on the virtual-time engine).
type BreakdownFile struct {
	SchemaVersion int      `json:"schema_version"`
	Engine        string   `json:"engine"` // "real" or "sim"
	Reports       []Report `json:"reports"`
}

// WriteBreakdown serializes f with a trailing newline.
func WriteBreakdown(w io.Writer, f BreakdownFile) error {
	f.SchemaVersion = BreakdownSchemaVersion
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// ReadBreakdown parses and sanity-checks a breakdown artifact.
func ReadBreakdown(r io.Reader) (BreakdownFile, error) {
	var f BreakdownFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return f, fmt.Errorf("prof: parse breakdown: %w", err)
	}
	if f.SchemaVersion != BreakdownSchemaVersion {
		return f, fmt.Errorf("prof: breakdown schema %d, want %d", f.SchemaVersion, BreakdownSchemaVersion)
	}
	return f, nil
}

// RankSnapshot pairs a rank with its profiler snapshot for multi-rank
// Prometheus export.
type RankSnapshot struct {
	Rank int
	Snap Snapshot
}

// WritePrometheusRanks renders several ranks' snapshots with one HELP/TYPE
// header per family, per the exposition-format contract. Empty snapshots are
// skipped; if every snapshot is empty nothing is written.
func WritePrometheusRanks(w io.Writer, ranks []RankSnapshot) error {
	live := ranks[:0:0]
	for _, r := range ranks {
		if !r.Snap.Empty() {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return nil
	}
	var b strings.Builder
	b.WriteString("# HELP mpi_prof_lock_wait_ns_total Contended lock-wait time per site.\n# TYPE mpi_prof_lock_wait_ns_total gauge\n")
	for _, r := range live {
		for _, s := range r.Snap.Sites {
			fmt.Fprintf(&b, "mpi_prof_lock_wait_ns_total{rank=\"%d\",site=\"%s\",cri=\"%d\",comm=\"%d\"} %d\n",
				r.Rank, s.Name, s.CRI, s.Comm, s.WaitNs)
		}
	}
	b.WriteString("# HELP mpi_prof_lock_acquisitions_total Lock acquisitions per site (contended and try-failed shown separately).\n# TYPE mpi_prof_lock_acquisitions_total gauge\n")
	for _, r := range live {
		for _, s := range r.Snap.Sites {
			fmt.Fprintf(&b, "mpi_prof_lock_acquisitions_total{rank=\"%d\",site=\"%s\",cri=\"%d\",comm=\"%d\",kind=\"acquired\"} %d\n",
				r.Rank, s.Name, s.CRI, s.Comm, s.Acquisitions)
			fmt.Fprintf(&b, "mpi_prof_lock_acquisitions_total{rank=\"%d\",site=\"%s\",cri=\"%d\",comm=\"%d\",kind=\"contended\"} %d\n",
				r.Rank, s.Name, s.CRI, s.Comm, s.Contended)
			fmt.Fprintf(&b, "mpi_prof_lock_acquisitions_total{rank=\"%d\",site=\"%s\",cri=\"%d\",comm=\"%d\",kind=\"try_failed\"} %d\n",
				r.Rank, s.Name, s.CRI, s.Comm, s.TryFailures)
		}
	}
	b.WriteString("# HELP mpi_prof_lock_hold_ns_total Lock hold time per site.\n# TYPE mpi_prof_lock_hold_ns_total gauge\n")
	for _, r := range live {
		for _, s := range r.Snap.Sites {
			fmt.Fprintf(&b, "mpi_prof_lock_hold_ns_total{rank=\"%d\",site=\"%s\",cri=\"%d\",comm=\"%d\"} %d\n",
				r.Rank, s.Name, s.CRI, s.Comm, s.HoldNs)
		}
	}
	b.WriteString("# HELP mpi_prof_phase_ns_total Exclusive per-thread phase time.\n# TYPE mpi_prof_phase_ns_total gauge\n")
	for _, r := range live {
		for _, th := range r.Snap.Threads {
			for i := 0; i < NumPhases; i++ {
				if th.Phases[i] == 0 {
					continue
				}
				fmt.Fprintf(&b, "mpi_prof_phase_ns_total{rank=\"%d\",thread=\"%s\",phase=\"%s\"} %d\n",
					r.Rank, th.Label, Phase(i).String(), th.Phases[i])
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
