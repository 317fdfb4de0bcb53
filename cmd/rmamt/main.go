// Command rmamt runs the RMA-MT multithreaded one-sided benchmark
// (MPI_Put + MPI_Win_flush) on either the virtual-time model or the real
// runtime.
//
// Examples:
//
//	rmamt -threads 32 -size 1024 -assignment dedicated
//	rmamt -threads 32 -instances 1              # the "single instance" curve
//	rmamt -machine knl -threads 64
//	rmamt -engine real -threads 4 -puts 100
//	rmamt -engine real -threads 4 -stall 200ms -stall-at 1 -watchdog
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/backends"
	"repro/internal/bench/cliobs"
	bench "repro/internal/bench/rmamt"
	"repro/internal/core"
	"repro/internal/cri"
	"repro/internal/hw"
	"repro/internal/prof"
	"repro/internal/progress"
	"repro/internal/simnet"
)

func main() {
	var (
		engine        = flag.String("engine", "sim", "sim (virtual time) or real (wall clock)")
		threads       = flag.Int("threads", 32, "origin-side threads")
		transportName = flag.String("transport", "sim", "transport backend: sim | tcp (tcp is parsed but rejected: it lacks one-sided support)")
		rank          = flag.Int("rank", 0, "this process's world rank (tcp transport)")
		listen        = flag.String("listen", "", "accept address for this rank (tcp; default peers[rank])")
		peerList      = flag.String("peers", "", "comma-separated rank addresses, e.g. 127.0.0.1:7100,127.0.0.1:7101 (tcp)")
		msgSize       = flag.Int("size", 8, "put payload bytes")
		puts          = flag.Int("puts", 1000, "puts per thread per flush round")
		rounds        = flag.Int("rounds", 4, "flush rounds")
		instances     = flag.Int("instances", 0, "instances (0 = one per core, paper default)")
		assignment    = flag.String("assignment", "dedicated", "round-robin | dedicated | freelist")
		prog          = flag.String("progress", "serial", "serial | concurrent")
		machineName   = flag.String("machine", "trinitite", "alembert | trinitite | knl | fast")

		faultDrop  = flag.Float64("fault-drop", 0, "per-packet drop probability on the control path (enables ack/retransmit reliability; real engine)")
		faultDup   = flag.Float64("fault-dup", 0, "per-packet duplication probability (real engine)")
		faultDelay = flag.Float64("fault-delay", 0, "per-packet delayed-delivery (reorder) probability (real engine)")
		faultSeed  = flag.Int64("fault-seed", 1, "fault-injection RNG seed")

		stallPut  = flag.Duration("stall", 0, "freeze origin thread 0 for this long mid-run, right before its flush of round -stall-at (real engine; pair with -watchdog or -http to watch the straggler surface)")
		stallAt   = flag.Int("stall-at", 0, "flush round at which the -stall freeze fires")
		stallRank = flag.Int("stall-rank", 0, "world rank the -stall freeze applies to, for flag parity with multirate (0 = the origin; the passive target rank has no put loop, so selecting it is a no-op)")
	)
	// The RMA-MT virtual-time model has no flight/latency mirror (unlike
	// multirate), so those flags imply the real engine.
	ob := cliobs.Register(flag.CommandLine, "rmamt", false)
	flag.Parse()
	ob.Normalize()

	// Telemetry observes the real runtime; the virtual-time model has
	// nothing to instrument. Any telemetry output implies the real engine,
	// and for this command so do the flight, watchdog, trace-wire, and
	// latency flags.
	if ob.WantTelemetry() && *engine == "sim" {
		fmt.Fprintln(os.Stderr, "rmamt: telemetry flags instrument the real runtime; switching to -engine real")
		*engine = "real"
	}
	// -breakdown-out alone stays on the chosen engine: the virtual-time
	// model produces the breakdown deterministically.
	if (ob.Profile || ob.PprofContention) && *engine == "sim" {
		fmt.Fprintln(os.Stderr, "rmamt: profiling flags instrument the real runtime; switching to -engine real")
		*engine = "real"
	}
	// The stall injection freezes a live thread; the virtual model has no
	// RMA stall hook.
	if *stallPut > 0 && *engine == "sim" {
		fmt.Fprintln(os.Stderr, "rmamt: -stall freezes a live origin thread; switching to -engine real")
		*engine = "real"
	}

	// The tcp backend is two-sided only: it advertises no one-sided
	// capability, and rmamt is nothing but MPI_Put + MPI_Win_flush. Parse
	// and validate the flags anyway so a misspelled peer list fails with
	// the real error, not the capability one.
	switch *transportName {
	case "sim", "":
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
		check(fmt.Errorf("-transport tcp: the tcp backend (rank %d at %s) has no one-sided capability, and rmamt needs MPI_Put/MPI_Win_flush; use -engine sim, or the multirate benchmark for two-sided tcp runs", *rank, addr))
	default:
		check(fmt.Errorf("unknown transport %q", *transportName))
	}

	machine, err := hw.MachineByName(*machineName)
	check(err)
	asg, err := cri.AssignmentByName(*assignment)
	check(err)
	pm, err := progress.ModeByName(*prog)
	check(err)

	switch *engine {
	case "sim":
		res := simnet.RunRMAMT(simnet.RMAMTConfig{
			Machine: machine, Threads: *threads, MsgSize: *msgSize,
			PutsPerThread: *puts, Rounds: *rounds,
			NumInstances: *instances, Assignment: asg, Progress: pm,
		})
		fmt.Printf("engine=sim transport=virtual caps=none threads=%d size=%dB puts=%d makespan=%v rate=%.0f puts/s peak=%.0f\n",
			*threads, *msgSize, res.Messages, res.Makespan, res.Rate,
			machine.PeakMessageRate(*msgSize))
		if ob.BreakdownOut != "" {
			bf := prof.BreakdownFile{Engine: "sim"}
			for _, b := range res.Breakdown {
				bf.Reports = append(bf.Reports, b.Report(designLabel(*prog, *assignment), *threads))
			}
			check(cliobs.WriteBreakdown(ob.BreakdownOut, bf))
		}
	case "real":
		ni := *instances
		if ni <= 0 {
			ni = machine.DefaultContexts
		}
		wantProf := ob.Profile || ob.BreakdownOut != ""
		opts := core.Options{
			NumInstances: ni, Assignment: asg, Progress: pm,
			ThreadLevel: core.ThreadMultiple, Telemetry: ob.WantTelemetry(),
			Profile:   wantProf,
			TraceWire: ob.TraceWire,
			Latency:   ob.Latency,
			FaultDrop: *faultDrop, FaultDup: *faultDup,
			FaultDelay: *faultDelay, FaultSeed: *faultSeed,
			FlightCapacity: ob.RealFlightCap(),
		}
		sess, serr := ob.Start(map[string]string{
			"cmd": "rmamt", "progress": *prog, "assignment": *assignment,
			"rank": fmt.Sprint(*rank),
		})
		check(serr)
		defer sess.Outputs.DumpOnPanic()
		if addr := sess.Addr(); addr != "" {
			fmt.Fprintf(os.Stderr, "rmamt: observability endpoint on http://%s\n", addr)
		}
		res, err := bench.Run(bench.Config{
			Machine: machine, Opts: opts, Threads: *threads, MsgSize: *msgSize,
			PutsPerThread: *puts, Rounds: *rounds, SampleInterval: ob.SampleInterval,
			StallPut: *stallPut, StallAfterRound: *stallAt, StallRank: *stallRank,
			OnSampler: sess.Outputs.BindSampler,
			OnWorld:   sess.BindWorld,
		})
		check(err)
		fmt.Printf("engine=real transport=%s caps=%s threads=%d size=%dB puts=%d elapsed=%v rate=%.0f puts/s%s%s\n",
			res.Transport.Name, res.Transport, *threads, *msgSize, res.Puts, res.Elapsed, res.Rate,
			cliobs.HeaderPath("flight_out", ob.FlightOut),
			cliobs.HeaderPath("latency_out", ob.LatencyOut))
		if ob.SPCDump {
			for _, ps := range res.Stats {
				check(ps.WriteText(os.Stdout))
			}
		}
		if ob.Profile {
			for _, ps := range res.Stats {
				if !ps.Prof.Empty() {
					check(prof.BuildReport(ps.Rank, designLabel(*prog, *assignment), *threads, ps.Prof).WriteText(os.Stdout))
				}
			}
		}
		if ob.BreakdownOut != "" {
			bf := prof.BreakdownFile{Engine: "real"}
			for _, ps := range res.Stats {
				if ps.Prof.Empty() {
					continue
				}
				bf.Reports = append(bf.Reports, prof.BuildReport(ps.Rank, designLabel(*prog, *assignment), *threads, ps.Prof))
			}
			check(cliobs.WriteBreakdown(ob.BreakdownOut, bf))
		}
		check(sess.Finish())
	default:
		check(fmt.Errorf("unknown engine %q", *engine))
	}
}

// designLabel names the configuration under test in breakdown reports.
func designLabel(progress, assignment string) string {
	return fmt.Sprintf("progress=%s,assignment=%s", progress, assignment)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmamt:", err)
		os.Exit(1)
	}
}
