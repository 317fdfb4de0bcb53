package simnet

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/hw"
)

// stallConfig injects a receiver stall the watchdog must catch: one pair,
// with the receiver leaving a freshly posted window unserviced for 50ms of
// virtual time.
func stallConfig() Config {
	return Config{
		Machine: hw.Fast(), Pairs: 1, Window: 64, Iters: 4,
		FlightCapacity: 2048,
		Watchdog:       &flight.DetectorConfig{StallAfter: 5 * time.Millisecond},
		SampleInterval: time.Millisecond,
		StallRecv:      50 * time.Millisecond,
		StallAfterIter: 2,
	}
}

// An injected receiver stall must produce a watchdog dump that names the
// stalled rank, phase, and site, carrying the queue snapshot and flight
// record that explain it.
func TestSimWatchdogCatchesInjectedStall(t *testing.T) {
	res := RunMultirate(stallConfig())
	if len(res.Dumps) == 0 {
		t.Fatal("injected 50ms stall produced no watchdog dumps")
	}
	d := res.Dumps[0]
	if d.Rank != 1 {
		t.Fatalf("stall attributed to rank %d, want the receiver (1)", d.Rank)
	}
	if d.Verdict.Reason != "no-progress" {
		t.Fatalf("verdict reason = %q", d.Verdict.Reason)
	}
	if d.Verdict.Phase != "progress" {
		t.Fatalf("verdict phase = %q", d.Verdict.Phase)
	}
	if d.Verdict.Site == "" || d.Verdict.Detail == "" {
		t.Fatalf("verdict lacks site/detail: %+v", d.Verdict)
	}
	var posted int
	for _, cq := range d.Queues.Comms {
		posted += cq.Posted
	}
	if posted == 0 {
		t.Fatalf("dump snapshot shows no posted receives: %+v", d.Queues)
	}
	if len(d.Record.Events) == 0 {
		t.Fatal("dump carries no flight record")
	}
	// The record must include the receiver's posted window (recv_post from
	// the matching engine's hook, stamped in virtual time).
	var recvPosts int
	for _, e := range d.Record.Events {
		if e.Kind == flight.KindRecvPost {
			recvPosts++
		}
	}
	if recvPosts == 0 {
		t.Fatalf("flight record has no recv_post events among %d", len(d.Record.Events))
	}
	// The stall ends, so the run still completes all messages.
	if want := int64(1 * 64 * 4); res.Messages != want {
		t.Fatalf("messages = %d, want %d", res.Messages, want)
	}
	if len(res.Flight) != 2 || len(res.Queues) != 2 {
		t.Fatalf("result flight/queues = %d/%d ranks", len(res.Flight), len(res.Queues))
	}
}

// The watchdog's dumps — verdicts, snapshots, and the full flight record —
// must serialize to identical bytes on every run of the same configuration.
func TestSimWatchdogDeterminism(t *testing.T) {
	run := func() []byte {
		res := RunMultirate(stallConfig())
		var buf bytes.Buffer
		for _, d := range res.Dumps {
			if err := flight.WriteDump(&buf, d); err != nil {
				t.Fatal(err)
			}
		}
		if err := flight.WriteRecords(&buf, res.Flight); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no dump bytes produced")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("watchdog dumps differ across identical runs (%d vs %d bytes)", len(a), len(b))
	}
}

// Recording advances no virtual time: a flight-enabled run reproduces the
// flight-off makespan and counters exactly, which is why the committed
// model artifacts do not depend on whether the recorder ran.
func TestSimFlightRecordingIsTimeNeutral(t *testing.T) {
	base := Config{Machine: hw.Fast(), Pairs: 4, Window: 64, Iters: 4}
	off := RunMultirate(base)
	on := base
	on.FlightCapacity = 1024
	got := RunMultirate(on)
	if got.Makespan != off.Makespan {
		t.Fatalf("flight recording changed makespan: %v vs %v", got.Makespan, off.Makespan)
	}
	if got.SPCs != off.SPCs {
		t.Fatalf("flight recording changed counters:\n%v\nvs\n%v", got.SPCs, off.SPCs)
	}
	if len(got.Flight) != 2 || len(got.Flight[0].Events) == 0 || len(got.Flight[1].Events) == 0 {
		t.Fatalf("flight-enabled run recorded no events")
	}
}

// A healthy run must not fire the watchdog.
func TestSimWatchdogQuietOnHealthyRun(t *testing.T) {
	cfg := stallConfig()
	cfg.StallRecv = 0
	res := RunMultirate(cfg)
	if len(res.Dumps) != 0 {
		t.Fatalf("healthy run fired %d watchdog dumps; first: %+v", len(res.Dumps), res.Dumps[0].Verdict)
	}
}
