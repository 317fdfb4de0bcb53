package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"repro/internal/flight"
	"repro/internal/prof"
)

// PhasePoint is one instant of a rank's aggregate phase breakdown: the
// cumulative per-phase nanoseconds summed over the rank's profiled threads
// at Elapsed nanoseconds into the run. A series of these renders as a
// Chrome-trace counter track ("ph":"C") — the stacked time-breakdown chart
// directly on the trace timeline.
type PhasePoint struct {
	ElapsedNs int64
	PhaseNs   map[string]int64
}

// PhasePointsFromSamples converts a sampler time series carrying profiler
// snapshots into a counter-track series, dropping samples with no profiler
// data. Phase totals are aggregated across the snapshot's threads.
func PhasePointsFromSamples(samples []Sample) []PhasePoint {
	var out []PhasePoint
	for _, smp := range samples {
		if len(smp.Prof.Threads) == 0 {
			continue
		}
		var totals prof.PhaseTotals
		for _, th := range smp.Prof.Threads {
			totals.Merge(th.Phases)
		}
		out = append(out, PhasePoint{ElapsedNs: int64(smp.Elapsed), PhaseNs: totals.Map()})
	}
	return out
}

// WriteChromeTraceRanks renders the ranks' flight records into one Chrome
// trace-event JSON array loadable in chrome://tracing or Perfetto, one pid
// group per rank. Each event becomes a complete ("ph":"X") slice on the
// thread row of the CRI instance it is attributed to (tid = index + 1, named
// "cri-K"); unattributed events land on the shared row 0.
//
// When a record carries clock anchors (StartUnixNs != 0), the rank's
// timestamps are corrected onto rank 0's clock (ClockToRank0Ns) and shifted
// to a common origin, so cross-rank causality reads directly off the merged
// timeline; otherwise they stay microseconds since the recorder started.
// Events sharing a non-zero Flow id are additionally linked with Chrome flow
// arrows ("ph":"s"/"t"/"f") — the send→deliver→match arc of one traced
// message across ranks.
//
// phases, keyed by rank, adds a "phase breakdown" counter track to that
// rank's pid group: one "ph":"C" event per point with the per-phase
// cumulative nanoseconds as args (Perfetto renders it stacked).
func WriteChromeTraceRanks(w io.Writer, procs []flight.RankRecord, phases map[int][]PhasePoint) error {
	// Common origin: the earliest corrected base across anchored ranks.
	// Unanchored ranks (base 0) keep their raw relative timeline.
	var origin int64
	haveOrigin := false
	for _, pr := range procs {
		if pr.StartUnixNs == 0 {
			continue
		}
		base := pr.StartUnixNs + pr.ClockToRank0Ns
		if !haveOrigin || base < origin {
			origin, haveOrigin = base, true
		}
	}
	corrected := func(pr flight.RankRecord, e flight.Event) int64 {
		if pr.StartUnixNs == 0 {
			return e.TS
		}
		return e.TS + pr.StartUnixNs + pr.ClockToRank0Ns - origin
	}

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	first := true
	emit := func(s string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(s)
	}

	// Flow bookkeeping: every event carrying a flow id, in corrected-time
	// order, becomes one hop of a flow arrow chain.
	type flowHop struct {
		ts       int64
		seq      uint64
		pid, tid int
	}
	flows := map[uint64][]flowHop{}

	for _, pr := range procs {
		pid := pr.Rank
		emit(fmt.Sprintf(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":"rank %d"}}`, pid, pid))
		rows := map[uint16]bool{}
		unattributed := false
		for _, e := range pr.Events {
			if e.Inst == 0 {
				unattributed = true
			} else if !rows[e.Inst] {
				rows[e.Inst] = true
				emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":"cri-%d"}}`,
					pid, e.Inst, e.CRI()))
			}
		}
		if unattributed {
			emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":%d,"tid":0,"args":{"name":"unattributed"}}`, pid))
		}
		for _, e := range pr.Events {
			tid := int(e.Inst)
			ts := corrected(pr, e)
			emit(fmt.Sprintf(
				`{"name":%q,"cat":"mpi","ph":"X","ts":%.3f,"dur":1,"pid":%d,"tid":%d,"args":{"seq":%d,"arg0":%d,"arg1":%d,"cri":%d,"flow":%d}}`,
				e.Kind.String(), float64(ts)/1e3, pid, tid, e.Seq, e.A0, e.A1, e.CRI(), e.Flow))
			if e.Flow != 0 {
				flows[e.Flow] = append(flows[e.Flow], flowHop{ts: ts, seq: e.Seq, pid: pid, tid: tid})
			}
		}
		// The phase-breakdown counter track: one "ph":"C" event per sampler
		// point, args keyed by phase name in sorted order so the output is
		// deterministic. Counter timestamps are run-relative (sampler clock),
		// matching the unanchored event timeline.
		for _, pp := range phases[pid] {
			keys := make([]string, 0, len(pp.PhaseNs))
			for k := range pp.PhaseNs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var args []byte
			for i, k := range keys {
				if i > 0 {
					args = append(args, ',')
				}
				args = append(args, fmt.Sprintf("%q:%d", k, pp.PhaseNs[k])...)
			}
			emit(fmt.Sprintf(
				`{"name":"phase breakdown","cat":"mpi-prof","ph":"C","ts":%.3f,"pid":%d,"tid":0,"args":{%s}}`,
				float64(pp.ElapsedNs)/1e3, pid, args))
		}
	}

	flowIDs := make([]uint64, 0, len(flows))
	for id := range flows {
		flowIDs = append(flowIDs, id)
	}
	sort.Slice(flowIDs, func(i, j int) bool { return flowIDs[i] < flowIDs[j] })
	for _, id := range flowIDs {
		hops := flows[id]
		if len(hops) < 2 {
			continue
		}
		sort.Slice(hops, func(i, j int) bool {
			if hops[i].ts != hops[j].ts {
				return hops[i].ts < hops[j].ts
			}
			return hops[i].seq < hops[j].seq
		})
		for i, h := range hops {
			ph := "t"
			extra := ""
			switch i {
			case 0:
				ph = "s"
			case len(hops) - 1:
				ph = "f"
				extra = `,"bp":"e"`
			}
			emit(fmt.Sprintf(
				`{"name":"msg","cat":"mpi-flow","ph":%q,"id":%d,"ts":%.3f,"pid":%d,"tid":%d%s}`,
				ph, id, float64(h.ts)/1e3, h.pid, h.tid, extra))
		}
	}

	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}
