package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"repro/internal/prof"
	"repro/internal/spc"
)

// Sample is one point of the sampler's time series.
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

// Source produces one observation for the sampler. Implementations snapshot
// live counter sets, histograms and the profiler (whose Snapshot is
// nil-safe); they must be safe to call concurrently with the workload
// (snapshots are).
type Source func() (spc.Snapshot, []NamedHist, prof.Snapshot)

// Sampler periodically snapshots a Source from a background goroutine into
// an in-memory time series. Start/Stop bracket the workload; Stop always
// takes one final sample so short runs still record their end state.
type Sampler struct {
	interval time.Duration
	src      Source

	mu      sync.Mutex
	samples []Sample

	start time.Time
	stop  chan struct{}
	done  chan struct{}
}

// NewSampler creates a sampler reading src every interval. Intervals below
// 1ms are clamped to 1ms to keep the sampling goroutine from competing
// with the workload it observes.
func NewSampler(interval time.Duration, src Source) *Sampler {
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	return &Sampler{interval: interval, src: src}
}

// Start launches the background sampling goroutine.
func (s *Sampler) Start() {
	if s == nil || s.stop != nil {
		return
	}
	s.start = time.Now()
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.loop()
}

func (s *Sampler) loop() {
	defer close(s.done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.take()
		}
	}
}

func (s *Sampler) take() {
	counters, hists, ps := s.src()
	smp := Sample{Elapsed: time.Since(s.start), Counters: counters, Hists: hists, Prof: ps}
	s.mu.Lock()
	s.samples = append(s.samples, smp)
	s.mu.Unlock()
}

// Stop halts sampling and records one final sample. Safe to call on a nil
// or never-started sampler; idempotent.
func (s *Sampler) Stop() {
	if s == nil || s.stop == nil {
		return
	}
	select {
	case <-s.stop: // already stopped
		return
	default:
	}
	close(s.stop)
	<-s.done
	s.take()
}

// Samples returns a copy of the collected time series.
func (s *Sampler) Samples() []Sample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Sample(nil), s.samples...)
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
