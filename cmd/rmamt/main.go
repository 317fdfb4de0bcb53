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
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/backends"
	"repro/internal/bench/cliobs"
	bench "repro/internal/bench/rmamt"
	"repro/internal/core"
	"repro/internal/cri"
	"repro/internal/hw"
	"repro/internal/progress"
	"repro/internal/simnet"
	"repro/internal/transport"
)

func main() {
	var (
		engine      = flag.String("engine", "sim", "sim (virtual time) or real (wall clock)")
		threads     = flag.Int("threads", 32, "origin-side threads")
		msgSize     = flag.Int("size", 8, "put payload bytes")
		puts        = flag.Int("puts", 1000, "puts per thread per flush round")
		rounds      = flag.Int("rounds", 4, "flush rounds")
		instances   = flag.Int("instances", 0, "instances (0 = one per core, paper default)")
		assignment  = flag.String("assignment", "dedicated", "round-robin | dedicated | freelist")
		prog        = flag.String("progress", "serial", "serial | concurrent")
		machineName = flag.String("machine", "trinitite", "alembert | trinitite | knl | fast: the testbed the model charges; the real engine takes only its context limits")

		faultDrop  = flag.Float64("fault-drop", 0, "per-packet drop probability on the control path (enables ack/retransmit reliability; real engine)")
		faultDup   = flag.Float64("fault-dup", 0, "per-packet duplication probability (real engine)")
		faultDelay = flag.Float64("fault-delay", 0, "per-packet delayed-delivery (reorder) probability (real engine)")
		faultSeed  = flag.Int64("fault-seed", 1, "fault-injection RNG seed")
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
	// The RMA-MT model has no faulty wire: the fault flags build the
	// in-process fabric's adversary, so they imply the real engine too.
	faults := transport.FaultConfig{Drop: *faultDrop, Dup: *faultDup, Delay: *faultDelay, Seed: *faultSeed}
	if faults.Enabled() && *engine == "sim" {
		fmt.Fprintln(os.Stderr, "rmamt: fault flags inject on the real runtime's wire; switching to -engine real")
		*engine = "real"
	}

	machine, err := hw.MachineByName(*machineName)
	check(err)
	asg, err := cri.AssignmentByName(*assignment)
	check(err)
	pm, err := progress.ModeByName(*prog)
	check(err)
	ni := *instances
	if ni <= 0 {
		ni = machine.DefaultContexts
	}
	cfg := bench.Config{
		Machine: machine, Threads: *threads, MsgSize: *msgSize,
		PutsPerThread: *puts, Rounds: *rounds, SampleInterval: ob.SampleInterval,
		Opts: core.Options{
			NumInstances: ni, Assignment: asg, Progress: pm,
			Telemetry: ob.WantTelemetry(),
			// A real-engine -breakdown-out needs the profiler's wall-clock data.
			Profile:        ob.Profile || ob.BreakdownOut != "",
			TraceWire:      ob.TraceWire,
			Latency:        ob.Latency,
			FlightCapacity: ob.RealFlightCap(),
		},
	}

	switch *engine {
	case "sim":
		res := simnet.RunRMAMT(cfg, simnet.Model{})
		fmt.Printf("engine=sim transport=virtual caps=none threads=%d size=%dB puts=%d makespan=%v rate=%.0f puts/s peak=%.0f\n",
			*threads, *msgSize, res.Messages, res.Makespan, res.Rate,
			machine.PeakMessageRate(*msgSize))
		check(ob.WriteReports(os.Stdout, "sim", *prog, *assignment, *threads, res.Breakdown))
	case "real":
		if faults.Enabled() {
			// A fabric serves one world; bench.Run builds one.
			cfg.Opts.Network = backends.Faulty(faults)
		}
		sess, serr := ob.Start(map[string]string{
			"cmd": "rmamt", "progress": *prog, "assignment": *assignment,
			"rank": "0",
		})
		check(serr)
		defer sess.Outputs.DumpOnPanic()
		if addr := sess.Addr(); addr != "" {
			fmt.Fprintf(os.Stderr, "rmamt: observability endpoint on http://%s\n", addr)
		}
		cfg.OnSampler = sess.Outputs.BindSampler
		cfg.OnWorld = sess.BindWorld
		res, err := bench.Run(cfg)
		check(err)
		fmt.Printf("engine=real transport=%s caps=%s threads=%d size=%dB puts=%d elapsed=%v rate=%.0f puts/s gc_cycles=%d gc_cpu=%.1f%%%s%s\n",
			res.Transport.Name, res.Transport, *threads, *msgSize, res.Puts, res.Elapsed, res.Rate,
			res.GC.Cycles, 100*res.GC.CPUShare,
			cliobs.HeaderPath("flight_out", ob.FlightOut),
			cliobs.HeaderPath("latency_out", ob.LatencyOut))
		if ob.SPCDump {
			for _, ps := range res.Stats {
				check(ps.WriteText(os.Stdout))
			}
		}
		check(ob.WriteReports(os.Stdout, "real", *prog, *assignment, *threads, cliobs.Ranks(res.Stats)))
		check(sess.Finish())
	default:
		check(fmt.Errorf("unknown engine %q", *engine))
	}
}

// check exits 1 on err, its message prefixed with the command's name once:
// the harness's errors already carry it.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmamt: "+strings.TrimPrefix(err.Error(), "rmamt: "))
		os.Exit(1)
	}
}
