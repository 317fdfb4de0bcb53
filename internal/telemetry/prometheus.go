package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/prof"
	"repro/internal/spc"
)

// WritePrometheus renders the processes' stats in the Prometheus text
// exposition format (version 0.0.4): one counter family per SPC counter,
// with scope/cri/comm labels attributing each sample to its owner, and one
// histogram family per latency histogram with cumulative le buckets, so
// p50/p99 are derivable by any Prometheus-compatible consumer.
func WritePrometheus(w io.Writer, stats ...ProcStats) error {
	bw := bufio.NewWriter(w)
	for i := range stats {
		sortStats(&stats[i])
	}

	// Counter families in deterministic order (counter index): the process
	// total is always emitted so zeroes are visible; per-CRI and per-comm
	// attributions are emitted when non-zero.
	for ci := 0; ci < spc.NumCounters; ci++ {
		c := spc.Counter(ci)
		name := "mpi_spc_" + c.String()
		fmt.Fprintf(bw, "# HELP %s Software performance counter %s.\n", name, c.String())
		fmt.Fprintf(bw, "# TYPE %s counter\n", name)
		for _, ps := range stats {
			rank := strconv.Itoa(ps.Rank)
			fmt.Fprintf(bw, "%s{rank=%q,scope=\"process\"} %d\n", name, rank, ps.Process.Get(c))
			for _, cs := range ps.PerCRI {
				if v := cs.Counters.Get(c); v != 0 {
					fmt.Fprintf(bw, "%s{rank=%q,scope=\"cri\",cri=%q} %d\n", name, rank, strconv.Itoa(cs.Index), v)
				}
			}
			for _, cs := range ps.PerComm {
				if v := cs.Counters.Get(c); v != 0 {
					fmt.Fprintf(bw, "%s{rank=%q,scope=\"comm\",comm=%q} %d\n", name, rank, strconv.FormatUint(uint64(cs.ID), 10), v)
				}
			}
		}
	}

	// Histogram families. All processes share the bucket layout, so one
	// TYPE line per name covers every rank's series. Buckets are emitted
	// sparsely (only where the cumulative count grew) plus the mandatory
	// +Inf bucket, which by the exposition-format contract equals _count.
	for _, hn := range histNames(stats) {
		name := "mpi_" + hn
		fmt.Fprintf(bw, "# HELP %s Latency histogram %s (nanoseconds).\n", name, hn)
		fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
		for _, ps := range stats {
			rank := strconv.Itoa(ps.Rank)
			for _, h := range ps.Hists {
				if h.Name != hn {
					continue
				}
				var cum int64
				for i, b := range h.Hist.Buckets {
					cum += b
					if b == 0 || i == NumBuckets-1 {
						continue
					}
					fmt.Fprintf(bw, "%s_bucket{rank=%q,le=%q} %d\n",
						name, rank, strconv.FormatInt(BucketUpper(i), 10), cum)
				}
				fmt.Fprintf(bw, "%s_bucket{rank=%q,le=\"+Inf\"} %d\n", name, rank, cum)
				fmt.Fprintf(bw, "%s_sum{rank=%q} %d\n", name, rank, h.Hist.Sum)
				fmt.Fprintf(bw, "%s_count{rank=%q} %d\n", name, rank, cum)
			}
		}
	}

	// Contention-profiler families (lock sites, phase clocks) for every rank
	// carrying a non-empty profiler snapshot.
	rs := make([]prof.RankSnapshot, 0, len(stats))
	for _, ps := range stats {
		rs = append(rs, prof.RankSnapshot{Rank: ps.Rank, Snap: ps.Prof})
	}
	if err := prof.WritePrometheusRanks(bw, rs); err != nil {
		return err
	}
	return bw.Flush()
}

// escapeLabel escapes a label value per the Prometheus text exposition
// format: backslash, double quote, and newline must be escaped; everything
// else passes through.
func escapeLabel(v string) string {
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// WritePrometheusInfo emits one info-style gauge family whose samples (value
// 1, one per label set) carry free-form build/run metadata — transport name,
// caps, design — the idiomatic Prometheus pattern for string-valued facts.
// Label keys are emitted in sorted order and values escaped per the text
// format.
func WritePrometheusInfo(w io.Writer, name string, labelSets ...map[string]string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP %s Run metadata.\n# TYPE %s gauge\n", name, name)
	for _, labels := range labelSets {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString(name + "{")
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `%s="%s"`, k, escapeLabel(labels[k]))
		}
		b.WriteString("} 1\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RankDoc is the typed document a rank's observability endpoint serves
// (/debug/stats): the values its /metrics and /spc are rendered from, so an
// aggregator decodes numbers instead of parsing the text back.
type RankDoc struct {
	// UptimeSeconds counts from the endpoint's start; a value lower than
	// the previous poll's means the rank restarted between polls.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Info labels the run (transport, caps, design, rank, ...).
	Info  map[string]string `json:"info"`
	Stats []ProcStats       `json:"stats"`
}

// WriteExposition renders rank documents as one Prometheus exposition: the
// series the endpoint itself originates (mpi_uptime_seconds, mpi_build_info),
// one sample per document, then every document's stats (WritePrometheus). A
// rank's /metrics is this over its own document and the cluster view this
// over all of them, so the two carry the same families by construction. The
// uptime series takes its rank label from Info["rank"] (the commands put
// their -rank flag there); a process that never set one is a single-process
// run, rank 0 — every series carries a rank, so merged documents never
// collide.
func WriteExposition(w io.Writer, docs ...RankDoc) error {
	fmt.Fprint(w, "# HELP mpi_uptime_seconds Seconds since this rank's observability endpoint started (resets on rank restart).\n"+
		"# TYPE mpi_uptime_seconds gauge\n")
	var infos []map[string]string
	var stats []ProcStats
	for _, d := range docs {
		rank := d.Info["rank"]
		if rank == "" {
			rank = "0"
		}
		fmt.Fprintf(w, "mpi_uptime_seconds{rank=%q} %.3f\n", rank, d.UptimeSeconds)
		if len(d.Info) > 0 {
			infos = append(infos, d.Info)
		}
		stats = append(stats, d.Stats...)
	}
	if len(infos) > 0 {
		if err := WritePrometheusInfo(w, "mpi_build_info", infos...); err != nil {
			return err
		}
	}
	return WritePrometheus(w, stats...)
}

// histNames collects the union of histogram names across stats, sorted.
func histNames(stats []ProcStats) []string {
	seen := map[string]bool{}
	var names []string
	for _, ps := range stats {
		for _, h := range ps.Hists {
			if !seen[h.Name] {
				seen[h.Name] = true
				names = append(names, h.Name)
			}
		}
	}
	sort.Strings(names)
	return names
}
