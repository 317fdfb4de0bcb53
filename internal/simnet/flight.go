package simnet

import (
	"sort"
	"time"

	"repro/internal/flight"
	"repro/internal/latency"
	"repro/internal/sim"
	"repro/internal/spc"
)

// DefaultSimWatchdogInterval is the virtual-time sampling period of the
// simulated stall watchdog when Config.WatchdogInterval is unset. Virtual
// sampling is free, so the model samples far more often than the real
// watchdog's 100ms would.
const DefaultSimWatchdogInterval = time.Millisecond

// enableFlight stamps the proc's world rank and, when the configuration
// asks for it, attaches a flight recorder whose clock is the virtual time
// of whichever simulated thread is currently charging — the same
// clock-holder pattern threadMeter uses for match-engine cost, so the
// engine's hook events land on the virtual timeline. Thread-mode only;
// process mode shares SPC sets across procs and is not mirrored.
func (p *simProc) enableFlight(rank int) {
	p.frank = rank
	if p.cfg.FlightCapacity <= 0 {
		return
	}
	p.flight = flight.NewRecorder(p.cfg.FlightCapacity)
	p.flight.SetClock(func() int64 {
		if p.flightSP != nil {
			return p.flightSP.Now()
		}
		return 0
	})
}

// flightRecord returns the proc's merged flight record (empty when the
// recorder is off).
func (p *simProc) flightRecord() flight.RankRecord {
	return p.flight.RankRecord(p.frank)
}

// queueSnapshot captures the proc's runtime introspection state at virtual
// time now. The DES runs simulated threads one at a time, so the engines
// can be read directly.
func (p *simProc) queueSnapshot(now int64) flight.QueueSnapshot {
	qs := flight.QueueSnapshot{Rank: p.frank, CapturedNs: now}
	ids := make([]uint32, 0, len(p.comms))
	for id := range p.comms {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		c := p.comms[id]
		qs.Comms = append(qs.Comms, flight.CommQueues{
			Comm:        id,
			Posted:      c.engine.PostedLen(),
			Unexpected:  c.engine.UnexpectedLen(),
			OOSBuffered: c.engine.OOSBuffered(),
		})
	}
	for i, in := range p.instances {
		qs.CRIs = append(qs.CRIs, flight.CRILevel{
			Index: i, Pending: in.queued() > 0, Queued: in.queued(),
		})
	}
	return qs
}

// watchdogSample condenses the proc's state into one detector observation
// at virtual time now.
func (p *simProc) watchdogSample(now int64) flight.Sample {
	snap := p.spcs.Snapshot()
	s := flight.Sample{
		NowNs:       now,
		Sent:        uint64(snap[spc.MessagesSent]),
		Received:    uint64(snap[spc.MessagesReceived]),
		Retransmits: uint64(snap[spc.Retransmits]),
	}
	s.Comms = p.queueSnapshot(now).Comms
	if stages, e2e, ok := p.lat.StageP99s(); ok {
		s.LatencyValid = true
		s.E2EP99Ns = e2e
		s.StageP99 = stages
	}
	return s
}

// latencyDump returns the proc's critical-path attribution dump (empty when
// attribution is off), with the exemplars' surrounding flight events when
// the flight recorder is also on.
func (p *simProc) latencyDump() latency.RankDump {
	return p.lat.Dump(p.frank, p.flightRecord())
}

// spawnWatchdog starts the virtual-time stall watchdog for p: a simulated
// thread that wakes every WatchdogInterval, feeds a sample through the
// same flight.Detector the real watchdog uses, and appends any verdict's
// dump to sink. It exits once every workload thread has finished, so it
// never extends a healthy run's makespan by more than one interval. The
// DES serializes simulated threads, making the dump sequence fully
// deterministic — the acceptance property the watchdog tests assert.
func (p *simProc) spawnWatchdog(env *sim.Env, name string, sink *[]flight.Dump) {
	if p.cfg.Watchdog == nil {
		return
	}
	interval := p.cfg.WatchdogInterval
	if interval <= 0 {
		interval = DefaultSimWatchdogInterval
	}
	det := flight.NewDetector(*p.cfg.Watchdog)
	env.Go(name, 0, func(sp *sim.Proc) {
		for p.finished < p.nWork {
			sp.Advance(interval)
			sp.Yield()
			if p.finished >= p.nWork {
				return
			}
			if v, ok := det.Observe(p.watchdogSample(sp.Now())); ok {
				*sink = append(*sink, flight.Dump{
					Rank:    p.frank,
					Verdict: v,
					Queues:  p.queueSnapshot(sp.Now()),
					Record:  p.flightRecord(),
				})
			}
		}
	})
}

// spawnClusterSampler starts the virtual-time cluster sampling thread for
// p: a simulated thread that wakes every ClusterInterval and appends the
// proc's watchdog-style observation to series — the per-rank feed the
// cluster imbalance detector's simnet twin (cluster.DetectSeries) replays.
// Sampling charges no virtual time; after the last workload thread
// finishes, one final drained sample is appended so a finished rank's
// carried-forward state never reads as outstanding work. The DES
// serializes simulated threads, so the series is byte-deterministic.
func (p *simProc) spawnClusterSampler(env *sim.Env, name string, series *flight.RankSeries) {
	if p.cfg.ClusterInterval <= 0 {
		return
	}
	interval := p.cfg.ClusterInterval
	series.Rank = p.frank
	env.Go(name, 0, func(sp *sim.Proc) {
		for {
			sp.Advance(interval)
			sp.Yield()
			series.Samples = append(series.Samples, p.watchdogSample(sp.Now()))
			if p.finished >= p.nWork {
				return
			}
		}
	})
}

// stallFor parks the thread in virtual time without posting receives or
// driving progress — the injected fault the watchdog acceptance tests
// detect (Config.StallRecv / StallAfterIter).
func (t *simThread) stallFor(sp *sim.Proc, d time.Duration) {
	sp.Advance(d)
	sp.Yield()
}
