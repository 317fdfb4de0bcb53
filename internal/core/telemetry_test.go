package core

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/cri"
	"repro/internal/flight"
	"repro/internal/progress"
	"repro/internal/spc"
	"repro/internal/telemetry"
)

// telemetryOpts is the full-observability configuration: several dedicated
// instances, concurrent progress, histograms, and the flight recorder.
func telemetryOpts() Options {
	return Options{
		NumInstances: 4, Assignment: cri.Dedicated,
		Progress: progress.Concurrent, ThreadLevel: ThreadMultiple,
		Telemetry: true, FlightCapacity: 4096,
	}
}

// runTraffic pushes msgs messages from proc 0 to proc 1 over c0/c1 using
// nThreads sender threads with distinct tags.
func runTraffic(t *testing.T, w *World, c0, c1 *Comm, nThreads, msgs int) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < nThreads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := w.Proc(0).NewThread()
			for i := 0; i < msgs; i++ {
				if err := c0.Send(th, 1, int32(g+1), []byte{byte(g)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	var rg sync.WaitGroup
	for g := 0; g < nThreads; g++ {
		rg.Add(1)
		go func(g int) {
			defer rg.Done()
			th := w.Proc(1).NewThread()
			buf := make([]byte, 1)
			for i := 0; i < msgs; i++ {
				if _, err := c1.Recv(th, 0, int32(g+1), buf); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	rg.Wait()
}

// TestTelemetryRollupInvariant is the attribution contract: the per-CRI and
// per-communicator child sets plus the residual must merge to exactly the
// process totals, which must equal SPCSnapshot.
func TestTelemetryRollupInvariant(t *testing.T) {
	w := newTestWorld(t, 2, telemetryOpts())
	comms, err := w.NewComm([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	runTraffic(t, w, comms[0], comms[1], 4, 50)

	for rank := 0; rank < 2; rank++ {
		p := w.Proc(rank)
		stats := p.TelemetryStats()
		if got := stats.MergeChildren(); got != stats.Process {
			t.Fatalf("rank %d: MergeChildren != Process\nchildren: %vprocess: %v", rank, got, stats.Process)
		}
		if snap := p.SPCSnapshot(); snap != stats.Process {
			t.Fatalf("rank %d: SPCSnapshot != TelemetryStats.Process\nsnap: %vstats: %v", rank, snap, stats.Process)
		}
	}

	// The sender's traffic must be attributed to communicator child sets,
	// not the residual: 200 sends on comm-world plus 200 on comms[0].
	stats := w.Proc(0).TelemetryStats()
	var commSent int64
	for _, cs := range stats.PerComm {
		commSent += cs.Counters.Get(spc.MessagesSent)
	}
	if commSent != stats.Process.Get(spc.MessagesSent) || commSent != 200 {
		t.Fatalf("comm-attributed sends = %d, process total = %d, want 200",
			commSent, stats.Process.Get(spc.MessagesSent))
	}
	if r := stats.Residual.Get(spc.MessagesSent); r != 0 {
		t.Fatalf("residual holds %d sends; they belong to communicators", r)
	}
}

// TestTelemetryRetiredComms: freeing a communicator must not lose its
// counters — they move into the residual and the roll-up stays exact.
func TestTelemetryRetiredComms(t *testing.T) {
	w := newTestWorld(t, 2, telemetryOpts())
	comms, err := w.NewComm([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	runTraffic(t, w, comms[0], comms[1], 2, 25)
	before := w.Proc(0).SPCSnapshot().Get(spc.MessagesSent)
	comms[0].Free()
	comms[1].Free()
	p := w.Proc(0)
	if after := p.SPCSnapshot().Get(spc.MessagesSent); after != before {
		t.Fatalf("freeing comms changed messages_sent %d -> %d", before, after)
	}
	stats := p.TelemetryStats()
	if got := stats.Residual.Get(spc.MessagesSent); got != before {
		t.Fatalf("retired counters not in residual: %d, want %d", got, before)
	}
	if got := stats.MergeChildren(); got != stats.Process {
		t.Fatal("roll-up invariant broken after comm free")
	}
}

// TestTelemetryHistogramsRecord: with Telemetry on, a traffic run must
// populate every histogram the runtime instruments (lock-wait is
// contention-dependent and may legitimately stay empty).
func TestTelemetryHistogramsRecord(t *testing.T) {
	w := newTestWorld(t, 2, telemetryOpts())
	c0, c1 := w.Proc(0).CommWorld(), w.Proc(1).CommWorld()
	runTraffic(t, w, c0, c1, 4, 50)

	tel := w.Proc(1).Telemetry()
	if tel == nil {
		t.Fatal("Telemetry() nil despite Options.Telemetry")
	}
	if n := tel.MatchSection.Count(); n == 0 {
		t.Error("match-section histogram empty after traffic")
	}
	if n := tel.ProgressPass.Count(); n == 0 {
		t.Error("progress-pass histogram empty after traffic")
	}
	if n := tel.MsgLatency.Count(); n == 0 {
		t.Error("message-latency histogram empty after traffic")
	}
	if s := tel.MsgLatency.Snapshot(); s.Quantile(0.99) < s.Quantile(0.50) {
		t.Error("p99 below p50")
	}
	// Off by default: no histograms, nil-safe accessors.
	w2 := newTestWorld(t, 1, Stock())
	if w2.Proc(0).Telemetry() != nil {
		t.Fatal("telemetry allocated without Options.Telemetry")
	}
	if hists := w2.Proc(0).TelemetryStats().Hists; hists != nil {
		t.Fatal("disabled proc reported histograms")
	}
}

// TestTelemetryTraceAttribution: send-side inject events must carry the CRI
// index of the instance that injected them, and the progress engine must
// emit progress events for productive passes.
func TestTelemetryTraceAttribution(t *testing.T) {
	w := newTestWorld(t, 2, telemetryOpts())
	c0, c1 := w.Proc(0).CommWorld(), w.Proc(1).CommWorld()
	runTraffic(t, w, c0, c1, 4, 50)

	injects := kindEvents(w.Proc(0), flight.KindSendInject)
	if len(injects) == 0 {
		t.Fatal("no send_inject events recorded")
	}
	for _, e := range injects {
		if e.CRI() < 0 || e.CRI() >= w.Proc(0).Pool().Len() {
			t.Fatalf("inject attributed to CRI %d, pool has %d", e.CRI(), w.Proc(0).Pool().Len())
		}
	}
	if len(kindEvents(w.Proc(1), flight.KindProgress)) == 0 {
		t.Fatal("no progress events recorded for productive passes")
	}
}

// TestTelemetryPrometheusExport: a live run's stats must export as
// Prometheus text carrying attributed scopes and populated histograms.
func TestTelemetryPrometheusExport(t *testing.T) {
	w := newTestWorld(t, 2, telemetryOpts())
	c0, c1 := w.Proc(0).CommWorld(), w.Proc(1).CommWorld()
	runTraffic(t, w, c0, c1, 2, 50)

	var sb strings.Builder
	if err := telemetry.WritePrometheus(&sb, w.Proc(0).TelemetryStats(), w.Proc(1).TelemetryStats()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`mpi_spc_messages_sent{rank="0",scope="process"} 100`,
		`scope="comm"`,
		`# TYPE mpi_match_section_ns histogram`,
		`mpi_match_section_ns_bucket{rank="1",le="+Inf"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q", want)
		}
	}
}
