package telemetry

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"repro/internal/prof"
	"repro/internal/spc"
)

// Telemetry bundles one process's latency histograms. The runtime stores
// the individual *Histogram pointers on its hot-path structures (so a
// disabled hook is a single nil check); the bundle exists for snapshotting,
// sampling, and export.
type Telemetry struct {
	// MatchSection records wall time spent inside the matching critical
	// section per entry (lock hold, not lock wait).
	MatchSection *Histogram
	// LockWait records blocking waits for a CRI instance lock on the send
	// path (the contention Table II's send_lock_waits counts).
	LockWait *Histogram
	// ProgressPass records the duration of one progress-engine pass.
	ProgressPass *Histogram
	// MsgLatency records send-inject to match-complete latency for eager
	// messages (the end-to-end tail the endpoint-contention studies chase).
	MsgLatency *Histogram
	// OneWayLatency records sender-inject to receiver-arrival latency for
	// traced messages, with the send timestamp corrected into the local
	// clock domain by the transport's NTP-style offset estimate. Only
	// meaningful on distributed runs with tracing enabled.
	OneWayLatency *Histogram
	// MatchResidency records how long a delivered packet sat in the matching
	// layer (arrival at the matching engine to match completion) — the
	// unexpected-queue residency the paper's matching-cost analysis needs.
	MatchResidency *Histogram
}

// New returns an enabled telemetry bundle with all histograms allocated.
func New() *Telemetry {
	return &Telemetry{
		MatchSection:   NewHistogram(),
		LockWait:       NewHistogram(),
		ProgressPass:   NewHistogram(),
		MsgLatency:     NewHistogram(),
		OneWayLatency:  NewHistogram(),
		MatchResidency: NewHistogram(),
	}
}

// Histogram names used in snapshots and exports.
const (
	HistMatchSection   = "match_section_ns"
	HistLockWait       = "lock_wait_ns"
	HistProgressPass   = "progress_pass_ns"
	HistMsgLatency     = "msg_latency_ns"
	HistOneWayLatency  = "one_way_latency_ns"
	HistMatchResidency = "match_residency_ns"
)

// NamedHist pairs a histogram snapshot with its export name.
type NamedHist struct {
	Name string       `json:"name"`
	Hist HistSnapshot `json:"hist"`
}

// Snapshot captures all histograms in deterministic name order. Nil-safe:
// a nil bundle yields nil.
func (t *Telemetry) Snapshot() []NamedHist {
	if t == nil {
		return nil
	}
	return []NamedHist{
		{HistLockWait, t.LockWait.Snapshot()},
		{HistMatchResidency, t.MatchResidency.Snapshot()},
		{HistMatchSection, t.MatchSection.Snapshot()},
		{HistMsgLatency, t.MsgLatency.Snapshot()},
		{HistOneWayLatency, t.OneWayLatency.Snapshot()},
		{HistProgressPass, t.ProgressPass.Snapshot()},
	}
}

// CRIStat is one instance's attributed counter snapshot.
type CRIStat struct {
	Index    int          `json:"index"`
	Counters spc.Snapshot `json:"counters"`
}

// CommStat is one communicator's attributed counter snapshot.
type CommStat struct {
	ID       uint32       `json:"id"`
	Counters spc.Snapshot `json:"counters"`
}

// ProcStats is one process's full observability snapshot: the rolled-up
// process totals, the per-CRI and per-communicator child sets the totals
// merge from, a residual set for counters with no natural owner (plus
// freed communicators), and the latency histograms.
type ProcStats struct {
	Rank    int          `json:"rank"`
	Process spc.Snapshot `json:"process"`
	PerCRI  []CRIStat    `json:"per_cri,omitempty"`
	PerComm []CommStat   `json:"per_comm,omitempty"`
	// Residual holds process-scoped counters (progress-engine entries,
	// serial-mode try-lock failures) and the retained totals of freed
	// communicators. Process == Merge(Residual, PerCRI..., PerComm...).
	Residual spc.Snapshot `json:"residual"`
	Hists    []NamedHist  `json:"hists,omitempty"`
	// Prof is the contention-profiler snapshot (lock sites and per-thread
	// phase clocks); empty unless the world ran with Options.Profile.
	Prof prof.Snapshot `json:"prof"`
}

// MergeChildren recomputes process totals from the attributed children —
// the roll-up invariant Process must equal.
func (ps ProcStats) MergeChildren() spc.Snapshot {
	snaps := []spc.Snapshot{ps.Residual}
	for _, c := range ps.PerCRI {
		snaps = append(snaps, c.Counters)
	}
	for _, c := range ps.PerComm {
		snaps = append(snaps, c.Counters)
	}
	return spc.Merge(snaps...)
}

// WriteText renders a human-readable attribution dump: process totals,
// each CRI's and communicator's share, the residual, then histogram
// summaries. Ordering is deterministic.
func (ps ProcStats) WriteText(w io.Writer) error {
	sortStats(&ps)
	if _, err := fmt.Fprintf(w, "rank %d process totals:\n%s", ps.Rank, ps.Process.Indented()); err != nil {
		return err
	}
	for _, c := range ps.PerCRI {
		fmt.Fprintf(w, "cri %d:\n%s", c.Index, c.Counters.Indented())
	}
	for _, c := range ps.PerComm {
		fmt.Fprintf(w, "comm %d:\n%s", c.ID, c.Counters.Indented())
	}
	fmt.Fprintf(w, "residual:\n%s", ps.Residual.Indented())
	for _, h := range ps.Hists {
		if h.Hist.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "hist %-18s count=%d p50=%v p90=%v p99=%v max=%v\n",
			h.Name, h.Hist.Count,
			time.Duration(h.Hist.P50()), time.Duration(h.Hist.P90()),
			time.Duration(h.Hist.P99()), time.Duration(h.Hist.Max))
	}
	if !ps.Prof.Empty() {
		rep := prof.BuildReport(ps.Rank, "", 0, ps.Prof)
		if err := rep.WriteText(w); err != nil {
			return err
		}
	}
	return nil
}

// sortStats normalizes ordering for deterministic export. It orders copies:
// the cluster aggregator renders one decoded document from concurrent
// request handlers, so a render must not reorder the slices it was handed.
func sortStats(ps *ProcStats) {
	ps.PerCRI, ps.PerComm, ps.Hists = slices.Clone(ps.PerCRI), slices.Clone(ps.PerComm), slices.Clone(ps.Hists)
	sort.Slice(ps.PerCRI, func(i, j int) bool { return ps.PerCRI[i].Index < ps.PerCRI[j].Index })
	sort.Slice(ps.PerComm, func(i, j int) bool { return ps.PerComm[i].ID < ps.PerComm[j].ID })
	sort.Slice(ps.Hists, func(i, j int) bool { return ps.Hists[i].Name < ps.Hists[j].Name })
}
