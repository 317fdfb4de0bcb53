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
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/figures"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 3a 3b 3c 4a 4b 4c 5 6 7 matching breakdown waterfall trajectory trajectory-latency")
	bdThreads := flag.Int("threads", 8, "thread pairs for -fig breakdown / -fig waterfall")
	table := flag.String("table", "", "table to regenerate: 2")
	all := flag.Bool("all", false, "regenerate every figure and table")
	ablation := flag.String("ablation", "", "ablation sweep: jitter credits convoy instances alloc all")
	scaleName := flag.String("scale", "quick", "sweep scale: quick | paper")
	full := flag.Bool("full", false, "Table II at the paper's exact message count")
	format := flag.String("format", "text", "output format: text | csv")
	flag.Parse()

	var sc figures.Scale
	switch *scaleName {
	case "quick":
		sc = figures.Quick()
	case "paper":
		sc = figures.Paper()
	default:
		fmt.Fprintf(os.Stderr, "unknown -scale %q (want quick or paper)\n", *scaleName)
		os.Exit(2)
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
	run := func(name string) {
		start := time.Now()
		switch name {
		case "trajectory", "trajectory-latency":
			b, err := figures.Trajectory(name == "trajectory-latency")
			if err == nil {
				_, err = os.Stdout.Write(b)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "figures:", err)
				os.Exit(1)
			}
		case "breakdown":
			fmt.Println(render(figures.TimeBreakdown(sc, *bdThreads)))
		case "waterfall":
			fmt.Println(render(figures.Waterfall(sc, *bdThreads)))
		default:
			gen, ok := single[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown figure %q\n", name)
				os.Exit(2)
			}
			for _, t := range gen() {
				fmt.Println(render(t))
			}
		}
		fmt.Fprintf(os.Stderr, "[fig %s regenerated in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}
	runTable2 := func() {
		start := time.Now()
		fmt.Println(figures.TableII(sc, *full).Render())
		fmt.Fprintf(os.Stderr, "[table 2 regenerated in %v]\n", time.Since(start).Round(time.Millisecond))
	}

	switch {
	case *all:
		for _, name := range []string{"3a", "3b", "3c", "4a", "4b", "4c", "5", "6", "7", "breakdown", "waterfall"} {
			run(name)
		}
		runTable2()
	case *fig != "":
		run(*fig)
	case *table == "2":
		runTable2()
	case *ablation == "all":
		for _, t := range figures.Ablations(sc) {
			fmt.Println(render(t))
		}
	case *ablation != "":
		t, err := figures.AblationByName(*ablation, sc)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Println(render(t))
	default:
		flag.Usage()
		os.Exit(2)
	}
}
