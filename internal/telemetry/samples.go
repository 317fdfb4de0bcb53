package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/prof"
	"repro/internal/spc"
)

// Sample is one point of a rank's time series, taken by the run's one
// sampler (core.Sampler).
type Sample struct {
	// Elapsed is the time since the sampler started.
	Elapsed time.Duration
	// Counters is the rolled-up counter snapshot at that instant.
	Counters spc.Snapshot
	// Hists are the histogram snapshots at that instant.
	Hists []NamedHist
	// Prof is the contention-profiler snapshot at that instant; empty when
	// the observed process runs without the profiler.
	Prof prof.Snapshot
}

// WriteSamplesCSV renders a time series as CSV: one row per sample, one
// column per counter, and count/p50/p99/max columns per histogram. The
// header derives from the first sample's histogram layout.
func WriteSamplesCSV(w io.Writer, samples []Sample) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("elapsed_ns")
	for c := 0; c < spc.NumCounters; c++ {
		bw.WriteString("," + spc.Counter(c).String())
	}
	if len(samples) > 0 {
		for _, h := range samples[0].Hists {
			fmt.Fprintf(bw, ",%s_count,%s_p50,%s_p99,%s_max", h.Name, h.Name, h.Name, h.Name)
		}
	}
	bw.WriteByte('\n')
	for _, smp := range samples {
		bw.WriteString(strconv.FormatInt(int64(smp.Elapsed), 10))
		for c := 0; c < spc.NumCounters; c++ {
			bw.WriteString("," + strconv.FormatInt(smp.Counters.Get(spc.Counter(c)), 10))
		}
		for _, h := range smp.Hists {
			fmt.Fprintf(bw, ",%d,%d,%d,%d", h.Hist.Count, h.Hist.P50(), h.Hist.P99(), h.Hist.Max)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
