// Command multirate runs the Multirate pairwise benchmark.
//
// Two engines are available:
//
//	-engine sim   deterministic virtual-time model (default; regenerates
//	              the paper's scaling shapes on any host)
//	-engine real  live goroutines over the real runtime (wall-clock)
//
// Examples:
//
//	multirate -pairs 20 -instances 20 -assignment dedicated
//	multirate -pairs 20 -progress concurrent -comm-per-pair
//	multirate -engine real -pairs 4 -window 64 -iters 8
//	multirate -process-mode -pairs 20
//	multirate -pairs 4 -latency -latency-out latency.json
//
// With -transport tcp the real engine runs distributed: launch one process
// per rank, each naming itself with -rank and every rank's address with
// -peers. Ranks pair up (0,1), (2,3), ...: even ranks send, odd ranks
// receive. The mpirun launcher wires the flags for you:
//
//	mpirun -n 4 multirate -pairs 4 -window 64 -iters 8
//
// or by hand:
//
//	multirate -transport tcp -rank 0 -peers 127.0.0.1:7100,127.0.0.1:7101 &
//	multirate -transport tcp -rank 1 -peers 127.0.0.1:7100,127.0.0.1:7101
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/backends"
	"repro/internal/bench/cliobs"
	bench "repro/internal/bench/multirate"
	"repro/internal/core"
	"repro/internal/cri"
	"repro/internal/flight"
	"repro/internal/hw"
	"repro/internal/progress"
	"repro/internal/simnet"
	"repro/internal/spc"
	"repro/internal/transport"
)

func main() {
	var (
		engine      = flag.String("engine", "sim", "sim (virtual time) or real (wall clock)")
		pairs       = flag.Int("pairs", 20, "communication pairs")
		window      = flag.Int("window", 128, "outstanding-message window")
		iters       = flag.Int("iters", 8, "window iterations per pair")
		msgSize     = flag.Int("size", 0, "payload bytes (0 = envelope only)")
		instances   = flag.Int("instances", 1, "communication resource instances per process")
		assignment  = flag.String("assignment", "round-robin", "round-robin | dedicated | freelist")
		prog        = flag.String("progress", "serial", "serial | concurrent")
		commPerPair = flag.Bool("comm-per-pair", false, "private communicator per pair (concurrent matching)")
		noWildcards = flag.Bool("no-wildcards", false, "assert mpi_assert_no_any_source and mpi_assert_no_any_tag: matching shards by (source, tag), wildcards are refused")
		overtaking  = flag.Bool("overtaking", false, "assert mpi_assert_allow_overtaking")
		anyTag      = flag.Bool("any-tag", false, "post wildcard-tag receives")
		processMode = flag.Bool("process-mode", false, "map pairs to process pairs")
		pattern     = flag.String("pattern", "pairwise", "pairwise | incast (real engine only)")
		machineName = flag.String("machine", "alembert", "alembert | trinitite | knl | fast: the testbed the model charges; the real engine takes only its context limits")
		showSPCs    = flag.Bool("spcs", false, "dump software performance counters")
		traceN      = flag.Int("trace", 0, "run the flight recorder with at least N events per ring (real engine) and dump the receiver's record as text")

		transportName = flag.String("transport", "sim", "transport backend: sim | tcp (tcp runs distributed; see -rank/-peers)")
		rank          = flag.Int("rank", 0, "this process's world rank (tcp transport)")
		listen        = flag.String("listen", "", "accept address for this rank (tcp; default peers[rank])")
		peerList      = flag.String("peers", "", "comma-separated rank addresses, e.g. 127.0.0.1:7100,127.0.0.1:7101 (tcp)")

		faultDrop  = flag.Float64("fault-drop", 0, "per-packet drop probability (enables ack/retransmit reliability)")
		faultDup   = flag.Float64("fault-dup", 0, "per-packet duplication probability")
		faultDelay = flag.Float64("fault-delay", 0, "per-packet delayed-delivery (reorder) probability")
		faultSeed  = flag.Int64("fault-seed", 1, "fault-injection RNG seed")

		stallRecv = flag.Duration("stall", 0, "freeze receivers for this long mid-run: the sim engine freezes pair 0's receiver thread in virtual time (deterministic; pair with -watchdog), the real engine every receiver thread of the -stall-rank rank in wall clock (pair with mpirun -http to watch the cluster detector localize it)")
		stallAt   = flag.Int("stall-at", 0, "window iteration at which the -stall freeze fires")
		stallRank = flag.Int("stall-rank", 0, "world rank whose receiver threads the real engine's -stall freezes (0 = the last receiver rank)")
	)
	// The sim engine mirrors the flight recorder, watchdog, and latency
	// attribution in virtual time, so those flags stay on either engine.
	ob := cliobs.Register(flag.CommandLine, "multirate", true)
	flag.Parse()
	ob.Normalize()

	// The telemetry layer observes the real runtime; the virtual-time model
	// has no CRI locks or progress passes to instrument. Asking for any of
	// its outputs implies the real engine. -trace-wire alone does not: on
	// the sim engine it models the extension's wire-byte cost instead.
	if ob.WantTelemetry() && *engine == "sim" {
		fmt.Fprintln(os.Stderr, "multirate: telemetry flags instrument the real runtime; switching to -engine real")
		*engine = "real"
	}
	// -profile and -pprof-contention instrument real locks and threads.
	// -breakdown-out alone does not switch: the virtual-time model produces
	// the same breakdown deterministically from its event clock.
	if (ob.Profile || ob.PprofContention) && *engine == "sim" {
		fmt.Fprintln(os.Stderr, "multirate: profiling flags instrument the real runtime; switching to -engine real")
		*engine = "real"
	}
	pat, err := bench.PatternByName(*pattern)
	check(err)
	// The model runs the pairwise pattern only.
	if pat == bench.Incast && *engine == "sim" {
		fmt.Fprintln(os.Stderr, "multirate: -pattern incast runs on the real runtime; switching to -engine real")
		*engine = "real"
	}
	if *transportName == "tcp" && *engine == "sim" {
		fmt.Fprintln(os.Stderr, "multirate: -transport tcp runs the real runtime; switching to -engine real")
		*engine = "real"
	}

	machine, err := hw.MachineByName(*machineName)
	check(err)
	asg, err := cri.AssignmentByName(*assignment)
	check(err)
	pm, err := progress.ModeByName(*prog)
	check(err)
	// The model records in virtual time at -flight's capacity; a real run
	// also arms the recorder for every output that reads it.
	flightCap := ob.FlightCap
	if *engine == "real" {
		flightCap = max(ob.RealFlightCap(), *traceN)
	}
	cfg := bench.Config{
		Machine: machine, Pairs: *pairs, Window: *window, Iters: *iters, MsgSize: *msgSize,
		Opts: core.Options{
			NumInstances: *instances, Assignment: asg, Progress: pm,
			Telemetry: ob.WantTelemetry() || ob.TraceWire, TraceWire: ob.TraceWire,
			// A real-engine -breakdown-out needs the profiler's wall-clock data.
			Profile:        ob.Profile || ob.BreakdownOut != "",
			Latency:        ob.Latency,
			FlightCapacity: flightCap,
		},
		CommPerPair: *commPerPair, AnyTag: *anyTag, Overtaking: *overtaking, NoWildcards: *noWildcards,
		ProcessMode: *processMode, Pattern: pat, SampleInterval: ob.SampleInterval, Watchdog: ob.Detector(),
		StallRecv: *stallRecv, StallAfterIter: *stallAt, StallRank: *stallRank,
		Faults: transport.FaultConfig{Drop: *faultDrop, Dup: *faultDup, Delay: *faultDelay, Seed: *faultSeed},
	}

	switch *engine {
	case "sim":
		check(simnet.Validate(cfg))
		res := simnet.RunMultirate(cfg, simnet.Model{})
		for _, d := range res.Dumps {
			fmt.Fprintln(os.Stderr, "multirate: watchdog verdict:")
			check(flight.WriteDump(os.Stderr, d))
		}
		// The virtual-time model has no transport underneath; say so rather
		// than leaving the field out of the self-describing header.
		fmt.Printf("engine=sim transport=virtual caps=none pairs=%d messages=%d makespan=%v rate=%.0f msg/s oos=%.2f%% steal_losses=%d%s%s\n",
			*pairs, res.Messages, res.Makespan, res.Rate, res.SPCs.OutOfSequencePercent(),
			res.SPCs[spc.ProgressStealLosses],
			cliobs.HeaderPath("flight_out", ob.FlightOut),
			cliobs.HeaderPath("latency_out", ob.LatencyOut))
		if ob.FlightOut != "" {
			check(cliobs.WriteFlightDump(ob.FlightOut, flight.ExitDump{Queues: res.Queues, Flight: res.Flight, Dumps: res.Dumps}))
		}
		if ob.LatencyOut != "" {
			check(cliobs.WriteLatencyDumps(ob.LatencyOut, res.Latency))
		}
		if *showSPCs {
			fmt.Print(res.SPCs.String())
		}
		check(ob.WriteReports(os.Stdout, "sim", *prog, *assignment, *pairs, res.Breakdown))
	case "real":
		sess, serr := ob.Start(map[string]string{
			"cmd": "multirate", "transport": *transportName,
			"progress": *prog, "assignment": *assignment,
			"pattern": *pattern, "rank": fmt.Sprint(*rank),
		})
		check(serr)
		// The samples CSV and the phase-breakdown counter track follow the
		// receiver, as Result.Samples does.
		sess.Outputs.ProfRank = 1
		defer sess.Outputs.DumpOnPanic()
		if addr := sess.Addr(); addr != "" {
			fmt.Fprintf(os.Stderr, "multirate: observability endpoint on http://%s\n", addr)
		}
		cfg.OnWorld = sess.BindWorld
		var res bench.Result
		var err error
		switch *transportName {
		case "sim", "":
			res, err = bench.Run(cfg)
		case "tcp":
			peers, perr := backends.ParsePeers(*peerList)
			check(perr)
			if len(peers) < 2 {
				check(fmt.Errorf("-transport tcp needs -peers with one address per rank"))
			}
			if *rank < 0 || *rank >= len(peers) {
				check(fmt.Errorf("-rank %d outside the %d-address peer list", *rank, len(peers)))
			}
			addr := *listen
			if addr == "" {
				addr = peers[*rank]
			}
			tnet, terr := backends.TCP(*rank, len(peers), addr, peers)
			check(terr)
			cfg.WorldSize = len(peers)
			res, err = bench.RunDistributed(cfg, *rank, tnet)
		default:
			check(fmt.Errorf("unknown transport %q", *transportName))
		}
		check(err)
		fmt.Printf("engine=real transport=%s caps=%s dial_retries=%d reconnects=%d short_writes=%d conns_opened=%d conns_reused=%d dial_races_lost=%d rank=%d pairs=%d messages=%d elapsed=%v rate=%.0f msg/s oos=%.2f%% steal_losses=%d gc_cycles=%d gc_cpu=%.1f%%%s%s\n",
			res.Transport.Name, res.Transport,
			res.SPCs[spc.DialRetries], res.SPCs[spc.Reconnects], res.SPCs[spc.ShortWrites],
			res.SPCs[spc.ConnsOpened], res.SPCs[spc.ConnsReused], res.SPCs[spc.DialRacesLost],
			*rank, *pairs, res.Messages, res.Elapsed, res.Rate, res.SPCs.OutOfSequencePercent(),
			res.SPCs[spc.ProgressStealLosses], res.GC.Cycles, 100*res.GC.CPUShare,
			cliobs.HeaderPath("flight_out", ob.FlightOut),
			cliobs.HeaderPath("latency_out", ob.LatencyOut))
		if *showSPCs {
			fmt.Print(res.SPCs.String())
		}
		if ob.SPCDump {
			for _, ps := range res.Stats {
				check(ps.WriteText(os.Stdout))
			}
		}
		if *traceN > 0 {
			fmt.Print(res.TraceDump)
		}
		check(ob.WriteReports(os.Stdout, "real", *prog, *assignment, *pairs, cliobs.Ranks(res.Stats)))
		check(sess.Finish())
	default:
		check(fmt.Errorf("unknown engine %q", *engine))
	}
}

// check exits 1 on err, its message prefixed with the command's name once:
// the harness's errors already carry it.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "multirate: "+strings.TrimPrefix(err.Error(), "multirate: "))
		os.Exit(1)
	}
}
