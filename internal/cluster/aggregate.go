package cluster

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/flight"
	"repro/internal/spc"
	"repro/internal/telemetry"
)

// ClusterState is one aggregation round's full output: the scraped ranks,
// the rollup of their process-scope counters (the Merge invariant the
// per-process roll-up uses across CRIs and communicators, one level up),
// per-rank rates from the detector, and the verdicts fired so far.
type ClusterState struct {
	CapturedNs int64
	Polls      int64
	Ranks      []RankState
	Rollup     spc.Snapshot
	// Rates holds the detector's per-rank trailing-window message rates
	// (msgs/s, sent+received), keyed by rank; absent until a full rate
	// window has elapsed.
	Rates map[int]float64
	// Current holds the verdicts fired by the latest observation; History
	// accumulates every verdict of the run in firing order.
	Current []flight.Verdict
	History []flight.Verdict
}

// Clean reports whether the run has produced no verdicts at all.
func (cs ClusterState) Clean() bool { return len(cs.History) == 0 }

// WriteClusterMetrics renders the aggregate exposition: every scraped
// rank's document through the exporter the ranks' own /metrics use, followed
// by the mpi_cluster_* gauges that only exist at this level (rank counts,
// readiness, scrape errors, per-rank rates and depths, verdict counts,
// imbalance flag).
func WriteClusterMetrics(w io.Writer, cs ClusterState) error {
	var docs []telemetry.RankDoc
	for _, rs := range cs.Ranks {
		if rs.Info != nil { // nil: no scrape of this rank has succeeded yet
			docs = append(docs, rs.RankDoc)
		}
	}
	if err := telemetry.WriteExposition(w, docs...); err != nil {
		return err
	}
	// gauge writes one family; each sample is a label pair ("" = none) and a value.
	type sample struct {
		key, val string
		v        float64
	}
	gauge := func(name, help string, samples ...sample) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, s := range samples {
			labels := ""
			if s.key != "" {
				labels = fmt.Sprintf("{%s=%q}", s.key, s.val)
			}
			fmt.Fprintf(w, "%s%s %s\n", name, labels, strconv.FormatFloat(s.v, 'f', -1, 64))
		}
	}
	ready, errs := 0, 0
	for _, rs := range cs.Ranks {
		if rs.Err != "" {
			errs++
		} else if rs.Ready {
			ready++
		}
	}
	gauge("mpi_cluster_ranks", "Ranks the aggregator scrapes.", sample{v: float64(len(cs.Ranks))})
	gauge("mpi_cluster_ranks_ready", "Ranks whose /readyz answered 200 on the last poll.", sample{v: float64(ready)})
	gauge("mpi_cluster_scrape_errors", "Ranks whose last scrape failed.", sample{v: float64(errs)})
	gauge("mpi_cluster_polls_total", "Aggregation rounds completed.", sample{v: float64(cs.Polls)})

	var rates, depths []sample
	for _, rs := range cs.Ranks {
		rank := strconv.Itoa(rs.Rank)
		if r, ok := cs.Rates[rs.Rank]; ok {
			rates = append(rates, sample{"rank", rank, r})
		}
		depths = append(depths, sample{"rank", rank, float64(rs.Depths().Unexpected)})
	}
	gauge("mpi_cluster_msg_rate", "Per-rank message rate (sent+received per second) over the last rate window.", rates...)
	gauge("mpi_cluster_unexpected_depth", "Per-rank unexpected-queue depth summed over communicators.", depths...)

	byReason := map[string]int{}
	for _, v := range cs.History {
		byReason[v.Reason]++
	}
	reasons := make([]string, 0, len(byReason))
	for r := range byReason {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	verdicts := make([]sample, 0, len(reasons))
	for _, r := range reasons {
		verdicts = append(verdicts, sample{"reason", r, float64(byReason[r])})
	}
	gauge("mpi_cluster_verdicts_total", "Imbalance verdicts fired this run, by reason.", verdicts...)
	imbalance := 0.0
	if len(cs.Current) > 0 {
		imbalance = 1
	}
	gauge("mpi_cluster_imbalance", "1 while the latest observation fired at least one verdict.", sample{v: imbalance})
	return nil
}

// WriteClusterSPC renders the /cluster/spc document: the cluster-level
// rollup first, then every rank's own attribution dump, as its /spc
// renders it.
func WriteClusterSPC(w io.Writer, cs ClusterState) error {
	if _, err := fmt.Fprintf(w, "cluster totals (%d ranks):\n%s", len(cs.Ranks), cs.Rollup.Indented()); err != nil {
		return err
	}
	for _, rs := range cs.Ranks {
		if rs.Err != "" {
			fmt.Fprintf(w, "--- rank %d (scrape failed: %s)\n", rs.Rank, rs.Err)
			continue
		}
		fmt.Fprintf(w, "--- rank %d\n", rs.Rank)
		for _, ps := range rs.Stats {
			if err := ps.WriteText(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// RankReport is one rank's row in the cluster report — exactly the columns
// mpitop renders.
type RankReport struct {
	Rank          int     `json:"rank"`
	Ready         bool    `json:"ready"`
	ReadyReason   string  `json:"ready_reason,omitempty"`
	Err           string  `json:"err,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	MsgRate       float64 `json:"msg_rate"`
	Sent          int64   `json:"sent"`
	Received      int64   `json:"received"`
	Retransmits   int64   `json:"retransmits"`
	Conns         int64   `json:"conns"`
	Posted        int     `json:"posted"`
	Unexpected    int     `json:"unexpected"`
	OOSBuffered   int     `json:"oos_buffered"`
	P99LatencyNs  int64   `json:"p99_latency_ns"`
	// E2EP99Ns is the rank's critical-path end-to-end p99 from the
	// attribution layer (0 when the rank doesn't export it), and StageP99Ns
	// its per-stage breakdown keyed by stage name — what the waterfall and
	// the tail-skew verdict decompose the tail into.
	E2EP99Ns   int64            `json:"e2e_p99_ns,omitempty"`
	StageP99Ns map[string]int64 `json:"stage_p99_ns,omitempty"`
	// Verdict is the most recent verdict reason naming this rank, "" when
	// the rank has stayed clean.
	Verdict string `json:"verdict,omitempty"`
}

// HotStage is the report row's dominant stage: the largest per-stage p99,
// ties broken to the lexically first name ("" without attribution data).
func (rr RankReport) HotStage() (string, int64) {
	best, bestNs := "", int64(0)
	for name, ns := range rr.StageP99Ns {
		if ns > bestNs || (ns == bestNs && best != "" && name < best) {
			best, bestNs = name, ns
		}
	}
	return best, bestNs
}

// Report is the end-of-run cluster artifact (-report-out, /cluster/report):
// one row per rank, the rollup, and the full verdict history. Schema
// changes bump ReportSchemaVersion.
type Report struct {
	SchemaVersion int              `json:"schema_version"`
	CapturedNs    int64            `json:"captured_ns"`
	Polls         int64            `json:"polls"`
	Clean         bool             `json:"clean"`
	Ranks         []RankReport     `json:"ranks"`
	Cluster       map[string]int64 `json:"cluster_totals"`
	Verdicts      []flight.Verdict `json:"verdicts"`
}

// ReportSchemaVersion identifies the cluster report layout. v2 added the
// per-rank critical-path fields (e2e_p99_ns, stage_p99_ns).
const ReportSchemaVersion = 2

// BuildReport condenses the cluster state into the report.
func BuildReport(cs ClusterState) Report {
	rep := Report{
		SchemaVersion: ReportSchemaVersion,
		CapturedNs:    cs.CapturedNs,
		Polls:         cs.Polls,
		Clean:         cs.Clean(),
		Cluster:       map[string]int64{},
		Verdicts:      append([]flight.Verdict{}, cs.History...),
		Ranks:         []RankReport{},
	}
	for c := 0; c < spc.NumCounters; c++ {
		if v := cs.Rollup.Get(spc.Counter(c)); v != 0 {
			rep.Cluster[spc.Counter(c).String()] = v
		}
	}
	lastVerdict := map[int]string{}
	for _, v := range cs.History {
		lastVerdict[v.Rank] = v.Reason
	}
	for _, rs := range cs.Ranks {
		depths := rs.Depths()
		rr := RankReport{
			Rank:          rs.Rank,
			Ready:         rs.Ready,
			ReadyReason:   rs.ReadyReason,
			Err:           rs.Err,
			UptimeSeconds: rs.UptimeSeconds,
			MsgRate:       cs.Rates[rs.Rank],
			Sent:          rs.Sent,
			Received:      rs.Received,
			Retransmits:   rs.Retransmits,
			Conns:         rs.SPC.Get(spc.ConnsOpened),
			Posted:        depths.Posted,
			Unexpected:    depths.Unexpected,
			OOSBuffered:   depths.OOSBuffered,
			P99LatencyNs:  rs.hist(telemetry.HistMsgLatency).P99(),
			E2EP99Ns:      rs.E2EP99Ns,
			Verdict:       lastVerdict[rs.Rank],
		}
		if rs.LatencyValid {
			rr.StageP99Ns = make(map[string]int64, len(rs.StageP99))
			for _, sp := range rs.StageP99 {
				rr.StageP99Ns[sp.Stage] = sp.P99Ns
			}
		}
		rep.Ranks = append(rep.Ranks, rr)
	}
	return rep
}
