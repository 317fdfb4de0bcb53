// Command figures regenerates the paper's tables and figures from the
// deterministic virtual-time model, printing the same series the paper
// plots. It writes every committed model artifact (BENCH_4*.json,
// results_*.txt); `make twin-exact` regenerates them and compares byte for
// byte.
//
// Usage:
//
//	figures -fig 3a            # one figure: 3a 3b 3c 4a 4b 4c 5 6 7
//	figures -table 2           # Table II (SPC counters)
//	figures -all               # everything in results_quick.txt
//	figures -all -scale paper  # paper-volume sweeps (slower)
//	figures -table 2 -full     # Table II at the paper's exact 2,585,600 messages
//	figures -fig trajectory    # BENCH_4.json (-fig trajectory-latency: BENCH_4_latency.json)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/figures"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it prints the selected figures and tables to stdout,
// with a timing line per artifact on stderr, and returns the exit status —
// 0 for -h, 2 for a usage error (a bad flag or value, or nothing selected),
// 1 for a trajectory it cannot build or write.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "", "figure to regenerate: 3a 3b 3c 4a 4b 4c 5 6 7 matching breakdown waterfall trajectory trajectory-latency")
	bdThreads := fs.Int("threads", 8, "thread pairs for -fig breakdown / -fig waterfall")
	table := fs.String("table", "", "table to regenerate: 2")
	all := fs.Bool("all", false, "regenerate every figure and table")
	ablation := fs.String("ablation", "", "ablation sweep: jitter credits convoy instances alloc all")
	scaleName := fs.String("scale", "quick", "sweep scale: quick | paper")
	full := fs.Bool("full", false, "Table II at the paper's exact message count")
	format := fs.String("format", "text", "output format: text | csv")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var sc figures.Scale
	switch *scaleName {
	case "quick":
		sc = figures.Quick()
	case "paper":
		sc = figures.Paper()
	default:
		fmt.Fprintf(stderr, "unknown -scale %q (want quick or paper)\n", *scaleName)
		return 2
	}

	single := map[string]func() []figures.Table{
		"3a":       func() []figures.Table { return []figures.Table{figures.Fig3a(sc)} },
		"3b":       func() []figures.Table { return []figures.Table{figures.Fig3b(sc)} },
		"3c":       func() []figures.Table { return []figures.Table{figures.Fig3c(sc)} },
		"4a":       func() []figures.Table { return []figures.Table{figures.Fig4a(sc)} },
		"4b":       func() []figures.Table { return []figures.Table{figures.Fig4b(sc)} },
		"4c":       func() []figures.Table { return []figures.Table{figures.Fig4c(sc)} },
		"5":        func() []figures.Table { return []figures.Table{figures.Fig5(sc)} },
		"6":        func() []figures.Table { return figures.Fig6(sc) },
		"7":        func() []figures.Table { return figures.Fig7(sc) },
		"matching": func() []figures.Table { return []figures.Table{figures.ExtensionMatching(sc)} },
	}

	render := func(t interface {
		Render() string
		CSV() string
	}) string {
		if *format == "csv" {
			return t.CSV()
		}
		return t.Render()
	}
	regen := func(name string) int {
		start := time.Now()
		switch name {
		case "trajectory", "trajectory-latency":
			b, err := figures.Trajectory(name == "trajectory-latency")
			if err == nil {
				_, err = stdout.Write(b)
			}
			if err != nil {
				fmt.Fprintln(stderr, "figures:", err)
				return 1
			}
		case "breakdown":
			fmt.Fprintln(stdout, render(figures.TimeBreakdown(sc, *bdThreads)))
		case "waterfall":
			fmt.Fprintln(stdout, render(figures.Waterfall(sc, *bdThreads)))
		default:
			gen, ok := single[name]
			if !ok {
				fmt.Fprintf(stderr, "unknown figure %q\n", name)
				return 2
			}
			for _, t := range gen() {
				fmt.Fprintln(stdout, render(t))
			}
		}
		fmt.Fprintf(stderr, "[fig %s regenerated in %v]\n", name, time.Since(start).Round(time.Millisecond))
		return 0
	}
	table2 := func() {
		start := time.Now()
		fmt.Fprintln(stdout, figures.TableII(sc, *full).Render())
		fmt.Fprintf(stderr, "[table 2 regenerated in %v]\n", time.Since(start).Round(time.Millisecond))
	}

	switch {
	case *all:
		for _, name := range []string{"3a", "3b", "3c", "4a", "4b", "4c", "5", "6", "7", "breakdown", "waterfall"} {
			if rc := regen(name); rc != 0 {
				return rc
			}
		}
		table2()
		return 0
	case *fig != "":
		return regen(*fig)
	case *table == "2":
		table2()
		return 0
	case *ablation == "all":
		for _, t := range figures.Ablations(sc) {
			fmt.Fprintln(stdout, render(t))
		}
		return 0
	case *ablation != "":
		t, err := figures.AblationByName(*ablation, sc)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintln(stdout, render(t))
		return 0
	default:
		fs.Usage()
		return 2
	}
}
