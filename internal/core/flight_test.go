package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/progress"
)

// A run with the recorder on must capture the full message-path event
// sequence, and the queue snapshot must reflect live depths.
func TestFlightRecorderCapturesMessagePath(t *testing.T) {
	w := newTestWorld(t, 2, Options{
		NumInstances: 2, Progress: progress.Concurrent,
		FlightCapacity: 256,
	})
	p0, p1 := w.Proc(0), w.Proc(1)
	th0, th1 := p0.NewThread(), p1.NewThread()
	c0, c1 := p0.CommWorld(), p1.CommWorld()

	// An unmatched arrival first, so unexpected enq/deq both appear.
	if err := c0.Send(th0, 1, 7, []byte("early")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for c1.Proc().QueueSnapshot().Comms[0].Unexpected == 0 {
		th1.Progress()
		if time.Now().After(deadline) {
			t.Fatal("message never reached the unexpected queue")
		}
	}
	qs := p1.QueueSnapshot()
	if qs.Rank != 1 || len(qs.Comms) != 1 || qs.Comms[0].Unexpected != 1 {
		t.Fatalf("mid-run snapshot = %+v", qs)
	}
	if len(qs.CRIs) != 2 {
		t.Fatalf("snapshot CRI levels = %+v", qs.CRIs)
	}

	if _, err := c1.Recv(th1, 0, 7, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}

	rec := p1.FlightRecord()
	if rec.Rank != 1 || len(rec.Events) == 0 {
		t.Fatalf("rank 1 flight record empty: %+v", rec)
	}
	kinds := make(map[flight.Kind]int)
	for _, e := range rec.Events {
		kinds[e.Kind]++
	}
	for _, want := range []flight.Kind{flight.KindMatchMiss, flight.KindUnexpEnq, flight.KindUnexpDeq, flight.KindProgress} {
		if kinds[want] == 0 {
			t.Fatalf("rank 1 record has no %v events: %v", want, kinds)
		}
	}
	sendRec := p0.FlightRecord()
	sendKinds := make(map[flight.Kind]int)
	for _, e := range sendRec.Events {
		sendKinds[e.Kind]++
	}
	if sendKinds[flight.KindSendPost] == 0 {
		t.Fatalf("rank 0 record has no send_post events: %v", sendKinds)
	}

	// Disabled recorder: accessors must be safe and empty.
	w2 := newTestWorld(t, 1, Stock())
	if r := w2.Proc(0).FlightRecord(); len(r.Events) != 0 || r.Rank != 0 {
		t.Fatalf("disabled recorder record = %+v", r)
	}
	if q := w2.Proc(0).QueueSnapshot(); len(q.Comms) != 1 {
		t.Fatalf("snapshot without recorder = %+v", q)
	}
}

// The watchdog must fire a no-progress verdict when a receiver posts a
// receive that nothing will ever match, and the dump must name the site.
func TestWatchdogFiresOnStall(t *testing.T) {
	w := newTestWorld(t, 2, Options{
		NumInstances: 1, FlightCapacity: 128,
	})
	p1 := w.Proc(1)
	th1 := p1.NewThread()
	c1 := p1.CommWorld()

	// A receive that never matches: posted depth stays 1, counters frozen.
	if _, err := c1.Irecv(th1, 0, 99, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var dumps []flight.Dump
	stop := w.StartWatchdog(WatchdogConfig{
		Interval: 2 * time.Millisecond,
		Detector: flight.DetectorConfig{StallAfter: 10 * time.Millisecond},
		OnDump: func(d flight.Dump) {
			mu.Lock()
			dumps = append(dumps, d)
			mu.Unlock()
		},
	})
	defer stop()

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(dumps)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watchdog never fired on a stalled receive")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent

	mu.Lock()
	defer mu.Unlock()
	d := dumps[0]
	if d.Rank != 1 {
		t.Fatalf("dump rank = %d", d.Rank)
	}
	if d.Verdict.Reason != "no-progress" || d.Verdict.Phase != "progress" {
		t.Fatalf("verdict = %+v", d.Verdict)
	}
	found := false
	for _, cq := range d.Queues.Comms {
		if cq.Posted > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("dump snapshot shows no posted receive: %+v", d.Queues)
	}
	if len(d.Record.Events) == 0 {
		t.Fatal("dump carries no flight record")
	}
}
