// Command tracemerge merges per-rank trace shards into one clock-corrected
// Chrome trace.
//
// Each process of a distributed traced run (-trace-wire -trace-shard on
// cmd/multirate) writes its flight record as a shard: the events plus two
// anchors, the recorder's wall-clock base and the handshake-estimated clock
// offset to rank 0. A shard is the /debug/flight document, so a capture of
// that endpoint merges too. tracemerge reads any number of shards, places
// every rank on rank 0's clock, and writes a single trace-event JSON with
// cross-rank flow arrows — load it in chrome://tracing or
// https://ui.perfetto.dev.
//
// Usage:
//
//	tracemerge -o merged.json shard-rank0.json shard-rank1.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/flight"
	"repro/internal/telemetry"
)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: tracemerge [-o merged.json] shard.json...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	var shards []flight.RankRecord
	seen := make(map[int]string)
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		check(err)
		recs, err := flight.ReadRecords(f)
		f.Close()
		if err != nil {
			check(fmt.Errorf("%s: %w", path, err))
		}
		for _, rec := range recs {
			if prev, dup := seen[rec.Rank]; dup {
				check(fmt.Errorf("%s: rank %d already provided by %s", path, rec.Rank, prev))
			}
			seen[rec.Rank] = path
			shards = append(shards, rec)
		}
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i].Rank < shards[j].Rank })

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		check(err)
		defer func() { check(f.Close()) }()
		w = f
	}
	check(telemetry.WriteChromeTraceRanks(w, shards, nil))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracemerge:", err)
		os.Exit(1)
	}
}
