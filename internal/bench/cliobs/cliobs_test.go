package cliobs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bench/multirate"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/hw"
)

// runSession runs a small real-engine multirate under a session built from
// f, with cfg's observing fields left as the caller set them, and flushes.
func runSession(t *testing.T, f *Flags, cfg multirate.Config) {
	t.Helper()
	f.Normalize()
	sess, err := f.Start(nil)
	if err != nil {
		t.Fatal(err)
	}
	sess.Outputs.ProfRank = 1
	cfg.Machine, cfg.Pairs, cfg.Window, cfg.Iters = hw.Fast(), 1, 16, 4
	cfg.Opts.FlightCapacity = f.RealFlightCap()
	cfg.OnWorld = sess.BindWorld
	if _, err := multirate.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := sess.Finish(); err != nil {
		t.Fatal(err)
	}
}

// A real-engine run's -flight-out carries the watchdog's verdicts, as the
// model's does: a frozen receiver is named in the exit dump, not only on
// stderr.
func TestExitDumpCarriesWatchdogVerdicts(t *testing.T) {
	f := &Flags{FlightOut: filepath.Join(t.TempDir(), "flight.json"), Watchdog: true}
	det := f.Detector()
	det.StallAfter = 20 * time.Millisecond // the default second, scaled to a short run
	runSession(t, f, multirate.Config{
		SampleInterval: 2 * time.Millisecond, Watchdog: det,
		StallRecv: 150 * time.Millisecond, StallAfterIter: 1,
	})
	b, err := os.ReadFile(f.FlightOut)
	if err != nil {
		t.Fatal(err)
	}
	var dump flight.ExitDump
	if err := json.Unmarshal(b, &dump); err != nil {
		t.Fatal(err)
	}
	for _, d := range dump.Dumps {
		if d.Verdict.Reason == flight.ReasonNoProgress && d.Rank == 1 {
			return
		}
	}
	t.Fatalf("exit dump's %d watchdog dumps name no no-progress on rank 1: %+v", len(dump.Dumps), dump.Dumps)
}

// The samples CSV keeps its columns: the header of a real-engine
// -sample-interval run (histograms on, as the flag turns them on) is the
// committed one byte for byte. A deliberate column change rewrites
// testdata/samples_header.csv.
func TestSamplesCSVHeaderUnchanged(t *testing.T) {
	f := &Flags{SamplesOut: filepath.Join(t.TempDir(), "samples.csv"), SampleInterval: time.Millisecond}
	runSession(t, f, multirate.Config{
		SampleInterval: f.SampleInterval,
		Opts:           core.Options{Telemetry: f.WantTelemetry()},
	})
	got, err := os.ReadFile(f.SamplesOut)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/samples_header.csv")
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := bytes.Cut(got, []byte("\n"))
	if !bytes.Equal(header, bytes.TrimRight(want, "\n")) {
		t.Fatalf("samples CSV header changed:\n got %s\nwant %s", header, want)
	}
	if bytes.Count(got, []byte("\n")) < 2 {
		t.Fatal("samples CSV has a header and no rows")
	}
}
