package core

import (
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/spc"
)

// stalledReceive posts on rank 1 a receive that nothing will ever match:
// its posted depth stays 1 and its counters stay frozen.
func stalledReceive(t *testing.T, w *World) {
	t.Helper()
	p1 := w.Proc(1)
	if _, err := p1.CommWorld().Irecv(p1.NewThread(), 0, 99, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
}

// awaitDump polls s until a verdict has fired.
func awaitDump(t *testing.T, s *Sampler) flight.Dump {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if d := s.Dumps(); len(d) > 0 {
			return d[0]
		}
	}
	t.Fatal("the watchdog never fired on a stalled receive")
	return flight.Dump{}
}

// The sampler keeps every local rank's series, and Stop takes one final
// sample carrying the counters as they stand once the traffic is done.
func TestSamplerCollects(t *testing.T) {
	w := newTestWorld(t, 2, Options{Telemetry: true})
	if w.Sampler() != nil {
		t.Fatal("a world has a sampler before StartSampler")
	}
	s := w.StartSampler(time.Millisecond, nil)
	if w.Sampler() != s {
		t.Fatal("Sampler does not return the started sampler")
	}
	th0, th1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	for i := 0; i < 20; i++ {
		if err := w.Proc(0).CommWorld().Send(th0, 1, 0, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Proc(1).CommWorld().Recv(th1, 0, 0, make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(500 * time.Microsecond)
	}
	s.Stop()
	for rank, c := range []spc.Counter{spc.MessagesSent, spc.MessagesReceived} {
		samples := s.Samples(rank)
		if len(samples) < 2 {
			t.Fatalf("rank %d: %d samples over ~10ms at 1ms", rank, len(samples))
		}
		last := samples[len(samples)-1]
		if got := last.Counters.Get(c); got != 20 {
			t.Fatalf("rank %d: final sample's %v = %d, want 20", rank, c, got)
		}
		if len(last.Hists) == 0 {
			t.Fatalf("rank %d: final sample carries no histograms", rank)
		}
		for i := 1; i < len(samples); i++ {
			if samples[i].Elapsed < samples[i-1].Elapsed {
				t.Fatalf("rank %d: sample elapsed times not monotonic", rank)
			}
		}
	}
	if s.Samples(7) != nil {
		t.Fatal("a series for a rank the world does not have")
	}
}

// Stop is idempotent: a second Stop takes no second final sample, and a
// sampler nothing asked for is nil and safe to stop and read.
func TestSamplerStopIdempotent(t *testing.T) {
	w := newTestWorld(t, 2, Options{})
	s := w.StartSampler(time.Millisecond, nil)
	s.Stop()
	n := len(s.Samples(0))
	if n == 0 {
		t.Fatal("Stop took no final sample")
	}
	s.Stop()
	if got := len(s.Samples(0)); got != n {
		t.Fatalf("second Stop changed the sample count: %d -> %d", n, got)
	}
	none := w.StartSampler(0, nil)
	if none != nil {
		t.Fatal("StartSampler with neither an interval nor a detector started a sampler")
	}
	none.Stop()
	if none.Samples(0) != nil || none.Dumps() != nil {
		t.Fatal("a nil sampler returned data")
	}
}

// The watchdog must fire a no-progress verdict when a receiver posts a
// receive that nothing will ever match, and the dump must name the site.
func TestWatchdogFiresOnStall(t *testing.T) {
	w := newTestWorld(t, 2, Options{NumInstances: 1, FlightCapacity: 128})
	stalledReceive(t, w)
	s := w.StartSampler(2*time.Millisecond, &flight.DetectorConfig{StallAfter: 10 * time.Millisecond})
	defer s.Stop()
	d := awaitDump(t, s)
	if d.Rank != 1 {
		t.Fatalf("dump rank = %d", d.Rank)
	}
	if d.Verdict.Reason != flight.ReasonNoProgress || d.Verdict.Phase != "progress" {
		t.Fatalf("verdict = %+v", d.Verdict)
	}
	posted := 0
	for _, cq := range d.Queues.Comms {
		posted += cq.Posted
	}
	if posted == 0 {
		t.Fatalf("dump snapshot shows no posted receive: %+v", d.Queues)
	}
	if len(d.Record.Events) == 0 {
		t.Fatal("dump carries no flight record")
	}
}

// With a sample interval and a detector, the detector sees the series'
// ticks: a verdict dates from an observation stamped with the instant of
// one of its rank's samples, which a detector on a ticker of its own would
// not hit to the nanosecond.
func TestSamplerWatchdogSharesTheSeriesTicks(t *testing.T) {
	w := newTestWorld(t, 2, Options{NumInstances: 1})
	stalledReceive(t, w)
	s := w.StartSampler(2*time.Millisecond, &flight.DetectorConfig{StallAfter: 10 * time.Millisecond})
	d := awaitDump(t, s)
	s.Stop()
	at := map[int64]bool{}
	for _, smp := range s.Samples(1) {
		at[s.start.UnixNano()+int64(smp.Elapsed)] = true
	}
	if !at[d.Verdict.SinceNs] {
		t.Fatalf("verdict since %d is no instant of rank 1's %d samples", d.Verdict.SinceNs, len(at))
	}
}
