package core

import (
	"os"
	"sync"
	"time"

	"repro/internal/flight"
)

// WatchdogConfig configures the stall watchdog started by
// World.StartWatchdog.
type WatchdogConfig struct {
	// Interval is the sampling period (0 = 100ms).
	Interval time.Duration
	// Detector bounds the detections (zero fields take the defaults
	// documented on flight.DetectorConfig).
	Detector flight.DetectorConfig
	// OnDump receives each fired verdict's dump — the verdict, the queue
	// introspection snapshot, and the rank's merged flight record. Nil
	// writes indented JSON to stderr. Called from the watchdog goroutine.
	OnDump func(flight.Dump)
}

// StartWatchdog starts the stall watchdog: a goroutine that samples every
// local proc's movement counters and queue depths each Interval, shows each
// proc alone to its own flight.Detector — so the rank-local rules run
// (no-progress, retransmit storm, unexpected-queue growth) and the
// comparative ones, which need peers, stay silent — and on any verdict dumps
// the merged flight record plus the runtime introspection snapshot. The
// returned stop function is idempotent and waits for the goroutine to exit.
//
// The watchdog works with the flight recorder off — dumps then carry only
// the queue snapshot — but pairs with Options.FlightCapacity to answer
// "what happened just before it stalled".
func (w *World) StartWatchdog(cfg WatchdogConfig) (stop func()) {
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	onDump := cfg.OnDump
	if onDump == nil {
		onDump = func(d flight.Dump) { _ = flight.WriteDump(os.Stderr, d) }
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		procs := w.LocalProcs()
		dets := make([]*flight.Detector, len(procs))
		for i := range dets {
			dets[i] = flight.NewDetector(cfg.Detector)
		}
		ticker := time.NewTicker(cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
			}
			for i, p := range procs {
				s := p.watchdogSample()
				for _, v := range dets[i].Observe(s.NowNs, []flight.Sample{s}) {
					onDump(flight.Dump{
						Rank:    p.rank,
						Verdict: v,
						Queues:  p.QueueSnapshot(),
						Record:  p.FlightRecord(),
					})
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
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

// watchdogSample condenses the proc's state into one detector observation.
func (p *Proc) watchdogSample() flight.Sample {
	snap := p.SPCSnapshot()
	qs := p.QueueSnapshot()
	stages, e2e, ok := p.lat.StageP99s()
	s := flight.NewSample(p.rank, snap, []flight.QueueSnapshot{qs}, stages, e2e, ok)
	s.NowNs, s.Ready = qs.CapturedNs, true
	return s
}
