package main

import (
	"runtime"

	"repro/internal/latency"
	"repro/internal/spc"
)

// shared holds what a traced run measures once whatever the workload: the
// ladder, the observer switches, and the untraced inproc_stream_0B rate the
// ladder's residual is taken against.
type shared struct {
	ladder   map[string]float64
	obs      map[string]float64
	baseRate float64
}

func runShared(seed uint64, div int) (*shared, error) {
	ladder, err := runLadder(seed, div)
	if err != nil {
		return nil, err
	}
	obs, base, err := runObs(seed, 4*div)
	if err != nil {
		return nil, err
	}
	return &shared{ladder: ladder, obs: obs, baseRate: base}, nil
}

// tracedReps are the repetitions of one traced run, by kind: plain
// (nothing recorded), with spans, and with spans and Options.Latency.
type tracedReps struct {
	plain, spans, latency []*repResult
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics assembles every per-layer metric of one workload. A metric
// whose layer the workload does not exercise reads 0; a metric the host
// cannot supply (no /proc/self/io) is named in absent and left out.
func layerMetrics(w workload, reps tracedReps, sh *shared) (vals map[string]float64, absent map[string]bool) {
	vals = make(map[string]float64, len(perLayer))
	absent = make(map[string]bool)
	for _, d := range perLayer {
		vals[d.Name] = 0
	}
	for k, v := range sh.ladder {
		vals[k] = v
	}
	for k, v := range sh.obs {
		vals[k] = v
	}
	period := ratio(1e9, sh.baseRate)
	vals["ladder.residual_pct"] = 100 * ratio(period-max(vals["ladder.send_side_ns"], vals["ladder.recv_side_ns"]), period)

	// Counters, summed over the span repetitions: recording spans in the
	// benchmark's own files changes nothing the runtime counts.
	var c spc.Snapshot
	var totals spc.Snapshot
	var msgs, mallocB, gcCycles, gcPauseNs float64
	var io ioCounters
	ioOK := true
	var logs []*spanLog
	var mbps []float64
	for _, r := range reps.spans {
		c = spc.Merge(c, r.spcs)
		totals = r.spcTotals
		msgs += float64(r.msgs)
		mallocB += float64(r.allocB)
		gcCycles += float64(r.gcCycles)
		gcPauseNs += float64(r.gcPauseNs)
		io = ioCounters{io.syscr + r.io.syscr, io.syscw + r.io.syscw, io.wchar + r.io.wchar}
		ioOK = ioOK && r.ioOK
		logs = append(logs, r.logs...)
		mbps = append(mbps, float64(r.payloadBytes)/1e6/r.wall.Seconds())
	}
	nReps := float64(len(reps.spans))
	get := func(k spc.Counter) float64 { return float64(c[k]) }

	vals["match.walk_elems_per_msg"] = ratio(get(spc.MatchWalkElements), msgs)
	vals["match.unexpected_share"] = ratio(get(spc.UnexpectedMessages), get(spc.MessagesReceived))
	vals["match.oos_share"] = ratio(get(spc.OutOfSequence), get(spc.MessagesReceived))
	vals["cri.send_lock_waits_per_kmsg"] = 1000 * ratio(get(spc.SendLockWaits), msgs)
	vals["cri.freelist_empty_share"] = ratio(get(spc.FreeListEmpty), get(spc.FreeListEmpty)+get(spc.FreeListAcquires))
	vals["progress.calls_per_msg"] = ratio(get(spc.ProgressCalls), msgs)
	vals["progress.trylock_fail_share"] = ratio(get(spc.ProgressTryLockFail), get(spc.ProgressCalls))
	vals["progress.steal_losses"] = ratio(get(spc.ProgressStealLosses), nReps)
	vals["rma.flush_calls"] = ratio(get(spc.FlushCalls), nReps)
	if w.tcp {
		if ioOK {
			vals["tcpnet.read_syscalls_per_msg"] = ratio(float64(io.syscr), msgs)
			vals["tcpnet.write_syscalls_per_msg"] = ratio(float64(io.syscw), msgs)
			vals["tcpnet.wire_bytes_per_msg"] = ratio(float64(io.wchar), msgs)
		} else {
			for _, k := range []string{"tcpnet.read_syscalls_per_msg", "tcpnet.write_syscalls_per_msg", "tcpnet.wire_bytes_per_msg"} {
				delete(vals, k)
				absent[k] = true
			}
		}
		vals["tcpnet.conns_opened"] = float64(totals[spc.ConnsOpened])
		vals["tcpnet.reconnects"] = float64(totals[spc.Reconnects])
		vals["tcpnet.short_writes"] = float64(totals[spc.ShortWrites])
	}
	vals["runtime.alloc_bytes_per_msg"] = ratio(mallocB, msgs)
	vals["runtime.gc_cycles"] = ratio(gcCycles, nReps)
	vals["runtime.gc_pause_total_ms"] = ratio(gcPauseNs, nReps) / 1e6
	vals["runtime.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	if mb, ok := peakRSSMB(); ok {
		vals["runtime.peak_rss_mb"] = mb
	} else {
		delete(vals, "runtime.peak_rss_mb")
		absent["runtime.peak_rss_mb"] = true
	}

	// Spans: what the application thread sees of each call, per operation
	// the span covers (a window of messages, a burst of puts, one message).
	stats := spanStats(logs)
	per := func(kind spanKind, opsPerSpan int) float64 {
		return ratio(float64(stats[kind].TotalNs), float64(stats[kind].Count)*float64(opsPerSpan))
	}
	switch w.kind {
	case kindStream:
		vals["core.post_send_ns_per_msg"] = per(spanPostSends, w.window)
		vals["core.wait_send_ns_per_msg"] = per(spanWaitSends, w.window)
		vals["core.post_recv_ns_per_msg"] = per(spanPostRecvs, w.window)
		vals["core.wait_recv_ns_per_msg"] = per(spanWaitRecvs, w.window)
	case kindPingPong:
		// Blocking calls: Send is post and wait in one, and so is Recv.
		vals["core.post_send_ns_per_msg"] = per(spanSend, 1)
		vals["core.wait_recv_ns_per_msg"] = per(spanRecv, 1)
	case kindPut:
		vals["rma.put_ns_per_op"] = per(spanPutBurst, w.window)
		vals["rma.flush_ns_per_call"] = per(spanFlush, 1)
	}

	// Latency: the runtime's stage histograms from the last repetition run
	// with Options.Latency. The sender's dump holds the two send-side
	// stages, the receiver's the rest; the first rank that saw a stage wins.
	if n := len(reps.latency); n > 0 {
		stage := make(map[string]latency.StageSummary)
		for _, dump := range reps.latency[n-1].lat {
			for _, s := range dump.Stages {
				if _, seen := stage[s.Stage]; !seen {
					stage[s.Stage] = s
				}
			}
		}
		var sumP50 float64
		for s := latency.Stage(0); s < latency.NumStages; s++ {
			sum := stage[s.String()]
			vals["latency."+s.String()+"_p50_ns"] = float64(sum.P50Ns)
			vals["latency."+s.String()+"_p99_ns"] = float64(sum.P99Ns)
			sumP50 += float64(sum.P50Ns)
		}
		e2e := stage["e2e"]
		vals["latency.e2e_p50_ns"] = float64(e2e.P50Ns)
		vals["latency.e2e_p99_ns"] = float64(e2e.P99Ns)
		vals["latency.residual_pct"] = 100 * ratio(float64(e2e.P50Ns)-sumP50, float64(e2e.P50Ns))
	}

	rates := func(rs []*repResult) []float64 {
		out := make([]float64, len(rs))
		for i, r := range rs {
			out[i] = r.rate()
		}
		return out
	}
	vals["bench.trace_overhead_pct"] = 100 * (ratio(median(rates(reps.plain)), median(rates(reps.spans))) - 1)
	vals["bench.payload_MB_per_s"] = median(mbps)
	// The tail of the iteration time: p99, or the highest percentile that
	// leaves ten samples beyond it where a repetition has under 1000.
	var tails []float64
	for _, r := range reps.plain {
		tails = append(tails, r.iterTail)
	}
	vals["bench.iter_tail_us"] = median(tails)
	return vals, absent
}
