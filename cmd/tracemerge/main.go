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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it merges the shards args name into one trace on
// stdout (or -o) and returns the exit status — 2 for a usage error, 1 for a
// shard it cannot read or a rank given twice.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracemerge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "output file (default stdout)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: tracemerge [-o merged.json] shard.json...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	if err := merge(fs.Args(), *out, stdout); err != nil {
		fmt.Fprintln(stderr, "tracemerge:", err)
		return 1
	}
	return 0
}

// merge reads the shards at paths and writes their ranks, in rank order, as
// one Chrome trace to the file out, or to stdout when out is empty.
func merge(paths []string, out string, stdout io.Writer) error {
	var shards []flight.RankRecord
	seen := make(map[int]string)
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		recs, err := flight.ReadRecords(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, rec := range recs {
			if prev, dup := seen[rec.Rank]; dup {
				return fmt.Errorf("%s: rank %d already provided by %s", path, rec.Rank, prev)
			}
			seen[rec.Rank] = path
			shards = append(shards, rec)
		}
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i].Rank < shards[j].Rank })
	if out == "" {
		return telemetry.WriteChromeTraceRanks(stdout, shards, nil)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTraceRanks(f, shards, nil); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
