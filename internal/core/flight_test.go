package core

import (
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
