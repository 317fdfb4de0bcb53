package simnet

import (
	"fmt"

	"repro/internal/flight"
	"repro/internal/latency"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/spc"
)

// RunMultirate executes the Multirate pairwise benchmark on the model
// (Patinyasakdikul et al. [6]): cfg.Pairs communication pairs between two
// nodes; each pair performs cfg.Iters iterations of a cfg.Window-message
// window (sender: window sends + wait-all; receiver: window receives +
// wait-all). Thread mode maps every sender to one process and every
// receiver to another; process mode gives each pair its own pair of
// processes (Fig. 2's binding modes).
//
// The returned rate is total messages over the virtual makespan — the
// paper's "message rate" Y axis.
func RunMultirate(cfg Config) Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	if cfg.ProcessMode {
		return runMultirateProcesses(cfg)
	}
	return runMultirateThreads(cfg)
}

// threadSkew staggers simulated thread start times the way serialized
// thread creation does on a real node.
func threadSkew(i int) int64 { return int64(i) * 2000 }

// runMultirateThreads: one sender proc (node 0) and one receiver proc
// (node 1); cfg.Pairs threads on each.
func runMultirateThreads(cfg Config) Result {
	env := sim.NewEnv()
	sendWire := sim.NewWire(cfg.Machine.LinkGbps, cfg.Machine.MaxInjectionRate)
	sender := newSimProc(env, cfg, sendWire, cfg.NumInstances)
	recvWire := sim.NewWire(cfg.Machine.LinkGbps, cfg.Machine.MaxInjectionRate)
	receiver := newSimProc(env, cfg, recvWire, cfg.NumInstances)
	// Rank stamping and (optionally) the virtual-time flight recorder must
	// precede communicator and thread creation, which bind their rings.
	sender.enableFlight(0)
	receiver.enableFlight(1)

	// Communicators: one shared, or one per pair (Fig. 3c). Both procs
	// register every communicator under the same id.
	nComms := 1
	if cfg.CommPerPair {
		nComms = cfg.Pairs
	}
	sendComms := make([]*simComm, nComms)
	recvComms := make([]*simComm, nComms)
	for i := 0; i < nComms; i++ {
		id := uint32(i + 1)
		sendComms[i] = sender.addComm(id, 2)
		recvComms[i] = receiver.addComm(id, 2)
	}
	commOf := func(pair int) int {
		if cfg.CommPerPair {
			return pair
		}
		return 0
	}

	sender.nWork = cfg.Pairs
	receiver.nWork = cfg.Pairs
	var dumps []flight.Dump
	series := make([][]flight.Sample, 2)
	sender.spawnSampler(env, "sampler-send", &series[0], &dumps)
	receiver.spawnSampler(env, "sampler-recv", &series[1], &dumps)

	for pair := 0; pair < cfg.Pairs; pair++ {
		pair := pair
		tag := int32(pair)
		st := newSimThread(sender)
		// Threads start staggered by pthread_create-style skew; a
		// simultaneous start would synchronize posting bursts in a way
		// real runs never exhibit.
		env.Go(fmt.Sprintf("send-%d", pair), threadSkew(2*pair), func(sp *sim.Proc) {
			st.startClock(sp)
			c := sendComms[commOf(pair)]
			for it := 0; it < cfg.Iters; it++ {
				for w := 0; w < cfg.Window; w++ {
					st.send(sp, c, receiver, 0, 1, tag)
				}
				st.waitFor(sp, func() bool { return st.pendingSends == 0 })
			}
			st.clk.Stop()
			sender.finished++
		})
		rt := newSimThread(receiver)
		env.Go(fmt.Sprintf("recv-%d", pair), threadSkew(2*pair+1), func(sp *sim.Proc) {
			rt.startClock(sp)
			c := recvComms[commOf(pair)]
			target := int64(0)
			for it := 0; it < cfg.Iters; it++ {
				for w := 0; w < cfg.Window; w++ {
					rt.postRecv(sp, c, 0, tag)
				}
				if cfg.StallRecv > 0 && pair == 0 && it == cfg.StallAfterIter {
					// Injected fault: the receiver leaves its freshly posted
					// window unserviced, freezing its completion counters
					// while the queues stay non-empty — exactly the signature
					// the no-progress detector must catch.
					rt.stallFor(sp, cfg.StallRecv)
				}
				target += int64(cfg.Window)
				rt.waitFor(sp, func() bool { return rt.recvsDone >= target })
			}
			rt.clk.Stop()
			receiver.finished++
		})
	}
	makespan := env.Run()
	total := int64(cfg.Pairs) * int64(cfg.Window) * int64(cfg.Iters)
	res := newResult(total, makespan, receiver.spcs, sender.spcs)
	res.Breakdown = []prof.RankSnapshot{rankSnapshot(0, sender), rankSnapshot(1, receiver)}
	res.Dumps = dumps
	if cfg.FlightCapacity > 0 {
		res.Flight = []flight.RankRecord{sender.flightRecord(), receiver.flightRecord()}
	}
	if cfg.FlightCapacity > 0 || cfg.Watchdog != nil {
		now := int64(makespan)
		res.Queues = []flight.QueueSnapshot{sender.queueSnapshot(now), receiver.queueSnapshot(now)}
	}
	if len(series[0]) > 0 {
		res.Series = series
	}
	if cfg.Latency {
		res.Latency = []latency.RankDump{sender.latencyDump(), receiver.latencyDump()}
	}
	return res
}

// runMultirateProcesses: each pair is an independent process pair with
// private instances and matching state; the node wire is shared, as all
// sender processes inject through the same NIC.
func runMultirateProcesses(cfg Config) Result {
	env := sim.NewEnv()
	sendWire := sim.NewWire(cfg.Machine.LinkGbps, cfg.Machine.MaxInjectionRate)
	recvWire := sim.NewWire(cfg.Machine.LinkGbps, cfg.Machine.MaxInjectionRate)

	pcfg := cfg
	pcfg.NumInstances = 1 // one process, one thread, one context
	pcfg.Latency = false  // attribution runs in thread mode only

	recvSPCs := spc.NewSet()
	sendSPCs := spc.NewSet()
	var senders, receivers []*simProc
	for pair := 0; pair < cfg.Pairs; pair++ {
		pair := pair
		sender := newSimProc(env, pcfg, sendWire, 1)
		sender.spcs = sendSPCs // aggregate across sender processes
		receiver := newSimProc(env, pcfg, recvWire, 1)
		receiver.spcs = recvSPCs // aggregate across receiver processes
		id := uint32(pair + 1)
		sc := sender.addComm(id, 2)
		rc := receiver.addComm(id, 2)

		st := newSimThread(sender)
		env.Go(fmt.Sprintf("psend-%d", pair), threadSkew(2*pair), func(sp *sim.Proc) {
			st.startClock(sp)
			for it := 0; it < cfg.Iters; it++ {
				for w := 0; w < cfg.Window; w++ {
					st.send(sp, sc, receiver, 0, 1, 0)
				}
				st.waitFor(sp, func() bool { return st.pendingSends == 0 })
			}
			st.clk.Stop()
		})
		rt := newSimThread(receiver)
		env.Go(fmt.Sprintf("precv-%d", pair), threadSkew(2*pair+1), func(sp *sim.Proc) {
			rt.startClock(sp)
			target := int64(0)
			for it := 0; it < cfg.Iters; it++ {
				for w := 0; w < cfg.Window; w++ {
					rt.postRecv(sp, rc, 0, 0)
				}
				target += int64(cfg.Window)
				rt.waitFor(sp, func() bool { return rt.recvsDone >= target })
			}
			rt.clk.Stop()
		})
		senders = append(senders, sender)
		receivers = append(receivers, receiver)
	}
	makespan := env.Run()
	total := int64(cfg.Pairs) * int64(cfg.Window) * int64(cfg.Iters)
	res := newResult(total, makespan, recvSPCs, sendSPCs)
	res.Breakdown = []prof.RankSnapshot{rankSnapshot(0, senders...), rankSnapshot(1, receivers...)}
	return res
}
