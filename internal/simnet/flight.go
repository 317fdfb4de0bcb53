package simnet

import (
	"sort"
	"time"

	"repro/internal/flight"
	"repro/internal/latency"
	"repro/internal/sim"
	"repro/internal/spc"
)

// enableFlight stamps the proc's world rank and, when the configuration
// asks for it, attaches a flight recorder whose clock is the virtual time
// of the running simulated thread, so the engines' hook events land on the
// virtual timeline.
func (p *simProc) enableFlight(rank int) {
	p.frank = rank
	if p.cfg.Opts.FlightCapacity <= 0 {
		return
	}
	p.flight = flight.NewRecorder(p.cfg.Opts.FlightCapacity)
	p.flight.SetClock(func() int64 {
		if sp := p.env.Current(); sp != nil {
			return sp.Now()
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
	for i, x := range p.ctxs {
		qs.CRIs = append(qs.CRIs, flight.CRILevel{
			Index: i, Pending: x.queued() > 0, Queued: x.queued(),
		})
	}
	return qs
}

// watchdogSample condenses the proc's state into one detector observation
// at virtual time now — the twin of core.Proc.watchdogSample. Virtual ranks
// are always ready: the model has no startup negotiation to straggle on.
func (p *simProc) watchdogSample(now int64) flight.Sample {
	snap := p.snapshot()
	s := flight.Sample{
		Rank:        p.frank,
		NowNs:       now,
		Ready:       true,
		Sent:        snap[spc.MessagesSent],
		Received:    snap[spc.MessagesReceived],
		Retransmits: snap[spc.Retransmits],
		Comms:       p.queueSnapshot(now).Comms,
	}
	s.StageP99, s.E2EP99Ns, s.LatencyValid = p.lat.StageP99s()
	return s
}

// latencyDump returns the proc's critical-path attribution dump (empty when
// attribution is off), with the exemplars' surrounding flight events when
// the flight recorder is also on.
func (p *simProc) latencyDump() latency.RankDump {
	return p.lat.Dump(p.frank, p.flightRecord())
}

// spawnSampler starts p's one sampling thread when SampleInterval or
// Model.Watchdog asks for it: a simulated thread that wakes every interval,
// appends the proc's observation to series and, with a watchdog configured,
// shows it — one rank, alone — to the flight.Detector the real watchdog
// uses, appending any verdict's dump to sink. Sampling charges no virtual
// time. The thread exits on the first wake-up after the last workload thread
// finished, so it never extends a run's makespan by more than one interval,
// and that last sample is the drained state: a finished rank's
// carried-forward sample never reads as outstanding work. The DES serializes
// simulated threads, so series and dumps are byte-deterministic.
func (p *simProc) spawnSampler(env *sim.Env, name string, series *[]flight.Sample, sink *[]flight.Dump) {
	interval := p.cfg.SampleInterval
	var det *flight.Detector
	if p.cfg.Watchdog != nil {
		det = flight.NewDetector(*p.cfg.Watchdog)
		if interval <= 0 {
			interval = time.Millisecond
		}
	}
	if interval <= 0 {
		return
	}
	env.Go(name, 0, func(sp *sim.Proc) {
		for {
			sp.Advance(interval)
			sp.Yield()
			s := p.watchdogSample(sp.Now())
			*series = append(*series, s)
			if p.finished >= p.nWork {
				return
			}
			if det == nil {
				continue
			}
			for _, v := range det.Observe(s.NowNs, []flight.Sample{s}) {
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

// stallFor parks the thread in virtual time without posting receives or
// driving progress — the injected fault the watchdog acceptance tests
// detect (multirate.Config.StallRecv / StallAfterIter).
func (t *simThread) stallFor(sp *sim.Proc, d time.Duration) {
	sp.Advance(d)
	sp.Yield()
}
