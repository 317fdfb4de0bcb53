package simnet

import (
	"fmt"

	"repro/internal/flight"
	"repro/internal/prof"
	"repro/internal/sim"
)

// RunMultirate executes the Multirate pairwise benchmark on the model
// (Patinyasakdikul et al. [6]): cfg.Pairs communication pairs between two
// nodes; each pair performs cfg.Iters iterations of a cfg.Window-message
// window (sender: window sends + wait-all; receiver: window receives +
// wait-all). Every run is one layout of Fig. 2's binding modes: process
// pairs (0,1), (2,3), ..., each carrying the same number of thread pairs,
// the even process on node 0 sending and the odd one on node 1 receiving.
// Thread mode is one process pair carrying every pair; process mode a
// process pair per pair, each process with one instance.
//
// The returned rate is total messages over the virtual makespan — the
// paper's "message rate" Y axis.
func RunMultirate(cfg Config) Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	procPairs, threads := 1, cfg.Pairs
	if cfg.ProcessMode {
		procPairs, threads = cfg.Pairs, 1
		cfg.NumInstances = 1 // one process, one thread, one context
	}
	env := sim.NewEnv()
	// Every process of a node injects through the node's one wire.
	wires := [2]*sim.Wire{
		sim.NewWire(cfg.Machine.LinkGbps, cfg.Machine.MaxInjectionRate),
		sim.NewWire(cfg.Machine.LinkGbps, cfg.Machine.MaxInjectionRate),
	}
	procs := make([]*simProc, 2*procPairs)
	sides := [2][]*simProc{} // senders, receivers
	for rank := range procs {
		p := newSimProc(env, cfg, wires[rank%2], cfg.NumInstances)
		// Rank stamping and (optionally) the virtual-time flight recorder
		// must precede communicator and thread creation, which bind their
		// rings.
		p.enableFlight(rank)
		p.nWork = threads
		procs[rank] = p
		sides[rank%2] = append(sides[rank%2], p)
	}
	// Communicators: one per process pair, or one per thread pair
	// (Fig. 3c); both processes of a pair register each under one id.
	nComms := 1
	if cfg.CommPerPair {
		nComms = threads
	}
	comms := make([][]*simComm, len(procs))
	for rank, p := range procs {
		for c := 0; c < nComms; c++ {
			comms[rank] = append(comms[rank], p.addComm(uint32(rank/2*nComms+c+1), 2))
		}
	}

	var dumps []flight.Dump
	series := make([][]flight.Sample, len(procs))
	for rank, p := range procs {
		p.spawnSampler(env, fmt.Sprintf("sampler-%d", rank), &series[rank], &dumps)
	}
	for pp := 0; pp < procPairs; pp++ {
		sender, receiver := procs[2*pp], procs[2*pp+1]
		for i := 0; i < threads; i++ {
			pair, tag := pp*threads+i, int32(i)
			sc, rc := comms[2*pp][i%nComms], comms[2*pp+1][i%nComms]
			st := newSimThread(sender)
			// Threads start staggered by pthread_create-style skew; a
			// simultaneous start would synchronize posting bursts in a way
			// real runs never exhibit.
			env.Go(fmt.Sprintf("send-%d", pair), threadSkew(2*pair), func(sp *sim.Proc) {
				st.startClock(sp)
				for it := 0; it < cfg.Iters; it++ {
					for w := 0; w < cfg.Window; w++ {
						st.send(sp, sc, receiver, 0, 1, tag)
					}
					st.waitFor(sp, func() bool { return st.pendingSends == 0 })
				}
				st.clk.Stop()
				sender.finished++
			})
			rt := newSimThread(receiver)
			env.Go(fmt.Sprintf("recv-%d", pair), threadSkew(2*pair+1), func(sp *sim.Proc) {
				rt.startClock(sp)
				target := int64(0)
				for it := 0; it < cfg.Iters; it++ {
					for w := 0; w < cfg.Window; w++ {
						rt.postRecv(sp, rc, 0, tag)
					}
					if cfg.StallRecv > 0 && pair == 0 && it == cfg.StallAfterIter {
						// Injected fault: the receiver leaves its freshly
						// posted window unserviced, freezing its completion
						// counters while the queues stay non-empty — exactly
						// the signature the no-progress detector must catch.
						rt.stallFor(sp, cfg.StallRecv)
					}
					target += int64(cfg.Window)
					rt.waitFor(sp, func() bool { return rt.recvsDone >= target })
				}
				rt.clk.Stop()
				receiver.finished++
			})
		}
	}
	makespan := env.Run()
	total := int64(cfg.Pairs) * int64(cfg.Window) * int64(cfg.Iters)
	res := newResult(total, makespan, procs...)
	res.Breakdown = []prof.RankSnapshot{rankSnapshot(0, sides[0]...), rankSnapshot(1, sides[1]...)}
	res.Dumps = dumps
	now := int64(makespan)
	for _, p := range procs {
		if cfg.FlightCapacity > 0 {
			res.Flight = append(res.Flight, p.flightRecord())
		}
		if cfg.FlightCapacity > 0 || cfg.Watchdog != nil {
			res.Queues = append(res.Queues, p.queueSnapshot(now))
		}
		if cfg.Latency {
			res.Latency = append(res.Latency, p.latencyDump())
		}
	}
	if len(series[0]) > 0 {
		res.Series = series
	}
	return res
}

// threadSkew staggers simulated thread start times the way serialized
// thread creation does on a real node.
func threadSkew(i int) int64 { return int64(i) * 2000 }
