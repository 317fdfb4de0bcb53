package core

import (
	"os"
	"sync"
	"time"

	"repro/internal/flight"
	"repro/internal/telemetry"
)

// watchdogInterval is the tick of a sampler started for its detector alone
// (no sample interval): the detector's stall window is a second.
const watchdogInterval = 100 * time.Millisecond

// Sampler is the run's one sampling loop, as simnet's sampler thread is the
// model's: one goroutine and one ticker that, every interval, snapshots each
// local proc once. The snapshot's counters, histograms and profiler go onto
// that rank's time series (the samples CSV, the Chrome trace's phase track);
// with a detector configured, the same counters with the proc's queue
// snapshot and latency tails also go to that rank's own flight.Detector —
// one rank, alone, so the rank-local rules run (no-progress, retransmit
// storm, unexpected-queue growth) and the comparative ones stay silent.
//
// A verdict's dump — the verdict, the queue snapshot it was drawn from and
// the rank's merged flight record (empty with the recorder off) — goes to
// stderr as it fires and is kept for the exit dump (Dumps).
type Sampler struct {
	procs []*Proc
	dets  []*flight.Detector // by proc; nil without a detector
	start time.Time
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once

	mu     sync.Mutex
	series map[int][]telemetry.Sample // by rank
	dumps  []flight.Dump
}

// StartSampler starts the world's sampler over its local procs and records
// it as the world's (Sampler): every interval, clamped to at least 1ms so
// sampling does not compete with the workload it observes, or every 100ms
// when det alone asks for it. det, when non-nil, configures each rank's
// detector (zero fields take flight's defaults). Neither given, it starts
// nothing and returns nil, whose methods are no-ops.
func (w *World) StartSampler(interval time.Duration, det *flight.DetectorConfig) *Sampler {
	if interval <= 0 {
		if det == nil {
			return nil
		}
		interval = watchdogInterval
	}
	procs := w.LocalProcs()
	s := &Sampler{
		procs: procs, start: time.Now(),
		stop: make(chan struct{}), done: make(chan struct{}),
		series: make(map[int][]telemetry.Sample, len(procs)),
	}
	if det != nil {
		s.dets = make([]*flight.Detector, len(procs))
		for i := range s.dets {
			s.dets[i] = flight.NewDetector(*det)
		}
	}
	w.sampler.Store(s)
	go s.loop(max(interval, time.Millisecond))
	return s
}

// Sampler returns the sampler StartSampler last started on w, or nil.
func (w *World) Sampler() *Sampler { return w.sampler.Load() }

func (s *Sampler) loop(interval time.Duration) {
	defer close(s.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.tick(true)
		}
	}
}

// tick snapshots every proc once and appends its sample; detect shows the
// snapshot to the proc's detector as well. Every detector observation is
// stamped with its series sample's instant (start + Elapsed).
func (s *Sampler) tick(detect bool) {
	elapsed := time.Since(s.start)
	nowNs := s.start.UnixNano() + int64(elapsed)
	for i, p := range s.procs {
		snap := p.SPCSnapshot()
		smp := telemetry.Sample{Elapsed: elapsed, Counters: snap, Hists: p.tel.Snapshot(), Prof: p.prof.Snapshot()}
		s.mu.Lock()
		s.series[p.rank] = append(s.series[p.rank], smp)
		s.mu.Unlock()
		if !detect || s.dets == nil {
			continue
		}
		qs := p.QueueSnapshot()
		stages, e2e, ok := p.lat.StageP99s()
		fs := flight.NewSample(p.rank, snap, []flight.QueueSnapshot{qs}, stages, e2e, ok)
		fs.NowNs, fs.Ready = nowNs, true
		for _, v := range s.dets[i].Observe(nowNs, []flight.Sample{fs}) {
			d := flight.Dump{Rank: p.rank, Verdict: v, Queues: qs, Record: p.FlightRecord()}
			_ = flight.WriteDump(os.Stderr, d)
			s.mu.Lock()
			s.dumps = append(s.dumps, d)
			s.mu.Unlock()
		}
	}
}

// Stop halts sampling and takes one final sample of every proc, which the
// detector does not see: it is the drained state the series ends on, as the
// model's last sample is. Safe on a nil sampler; idempotent.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.once.Do(func() {
		close(s.stop)
		<-s.done
		s.tick(false)
	})
}

// Samples returns a copy of rank's time series so far (nil for a rank the
// sampler does not observe, or a nil sampler).
func (s *Sampler) Samples(rank int) []telemetry.Sample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]telemetry.Sample(nil), s.series[rank]...)
}

// Dumps returns the dumps of the verdicts fired so far, in firing order.
func (s *Sampler) Dumps() []flight.Dump {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]flight.Dump(nil), s.dumps...)
}

// QueueSnapshot captures the proc's live runtime introspection snapshot:
// per-communicator posted/unexpected queue depths, reliability window
// occupancy, and CRI pool levels. Safe to call at any time from any thread
// (it takes each communicator's matching lock briefly); works with the
// flight recorder off.
func (p *Proc) QueueSnapshot() flight.QueueSnapshot {
	qs := flight.QueueSnapshot{Rank: p.rank, CapturedNs: time.Now().UnixNano()}
	for _, c := range *p.comms.Load() { // indexed by id: in id order
		if c == nil {
			continue
		}
		// Self-locking engines (match.Sharded) publish approximate atomic
		// depth counters; there is no engine-wide lock to freeze them under,
		// and monitoring must not introduce one. Depths from either path are
		// monitoring-only — never a synchronization predicate.
		c.lockMatch(nil)
		qs.Comms = append(qs.Comms, flight.CommQueues{
			Comm:        c.id,
			Posted:      c.engine.PostedLen(),
			Unexpected:  c.engine.UnexpectedLen(),
			OOSBuffered: c.engine.OOSBuffered(),
		})
		c.unlockMatch()
	}
	qs.Windows = p.rel.windowSnapshot()
	for i := 0; i < p.pool.Len(); i++ {
		in := p.pool.Get(i)
		qs.CRIs = append(qs.CRIs, flight.CRILevel{Index: i, Pending: in.Context().Pending()})
	}
	return qs
}
