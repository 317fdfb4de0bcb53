package core

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/spc"
)

// TestNegativeEagerLimitDisablesRendezvous: with EagerLimit < 0 every
// message ships eagerly, including large ones.
func TestNegativeEagerLimitDisablesRendezvous(t *testing.T) {
	opts := Stock()
	opts.EagerLimit = -1
	opts.FlightCapacity = 256
	w := newTestWorld(t, 2, opts)
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	msg := bytes.Repeat([]byte{9}, 64*1024) // far above any eager default
	go func() { _ = w.Proc(0).CommWorld().Send(t0, 1, 1, msg) }()
	buf := make([]byte, 64*1024)
	st, err := w.Proc(1).CommWorld().Recv(t1, 0, 1, buf)
	if err != nil || st.Count != len(msg) {
		t.Fatalf("recv: %v %+v", err, st)
	}
	// No rendezvous events must have been recorded.
	events := w.Proc(1).FlightRecord().Events
	if len(events) == 0 {
		t.Fatal("flight recorder recorded nothing")
	}
	for _, e := range events {
		if e.Kind == flight.KindRendezvousStart {
			t.Fatal("rendezvous used despite negative eager limit")
		}
	}
}

// TestZeroByteMessages: the paper's workload — pure envelopes.
func TestZeroByteMessages(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	go func() {
		for i := 0; i < 50; i++ {
			_ = w.Proc(0).CommWorld().Send(t0, 1, 1, nil)
		}
	}()
	for i := 0; i < 50; i++ {
		st, err := w.Proc(1).CommWorld().Recv(t1, 0, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.Count != 0 || st.MessageLen != 0 || st.Truncated {
			t.Fatalf("zero-byte status = %+v", st)
		}
	}
}

// TestManyWorldsSequentially: worlds are independent; creating and closing
// many in sequence leaks nothing that breaks later worlds.
func TestManyWorldsSequentially(t *testing.T) {
	for i := 0; i < 20; i++ {
		w, err := NewWorld(hwFast(), 2, Stock())
		if err != nil {
			t.Fatal(err)
		}
		th0, th1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
		go func() { _ = w.Proc(0).CommWorld().Send(th0, 1, 1, []byte{byte(i)}) }()
		buf := make([]byte, 1)
		if _, err := w.Proc(1).CommWorld().Recv(th1, 0, 1, buf); err != nil {
			t.Fatal(err)
		}
		w.Close()
	}
}

// TestLargeWorld: a wider world (16 procs) with all-to-all barrier +
// neighbor traffic.
func TestLargeWorld(t *testing.T) {
	const n = 16
	w := newTestWorld(t, n, Stock())
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			th := w.Proc(r).NewThread()
			c := w.Proc(r).CommWorld()
			right := (r + 1) % n
			left := (r - 1 + n) % n
			out := []byte{byte(r)}
			in := make([]byte, 1)
			st, err := c.Sendrecv(th, right, 1, out, left, 1, in)
			if err != nil {
				t.Error(err)
				return
			}
			if in[0] != byte(left) || st.Source != int32(left) {
				t.Errorf("rank %d: ring neighbor data wrong", r)
				return
			}
			if err := c.Barrier(th); err != nil {
				t.Error(err)
			}
		}(r)
	}
	wg.Wait()
}

// TestSmallQueueDepthBackpressure: with QueueDepth shrunk to 8 a sender
// that runs ahead of an idle receiver stalls on the receiver's full ring
// (ring_full_waits ticks there) instead of losing or reordering anything;
// once the receiver starts, all 200 messages arrive in order.
func TestSmallQueueDepthBackpressure(t *testing.T) {
	opts := Stock()
	opts.QueueDepth = 8
	w := newTestWorld(t, 2, opts)
	const msgs = 200
	sent := make(chan error, 1)
	go func() {
		th := w.Proc(0).NewThread()
		for i := 0; i < msgs; i++ {
			if err := w.Proc(0).CommWorld().Send(th, 1, 0, []byte{byte(i)}); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	for w.Proc(1).SPCSnapshot().Get(spc.RingFullWaits) == 0 {
		time.Sleep(time.Millisecond)
	}
	th := w.Proc(1).NewThread()
	buf := make([]byte, 1)
	for i := 0; i < msgs; i++ {
		if _, err := w.Proc(1).CommWorld().Recv(th, 0, 0, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i) {
			t.Fatalf("message %d carried %d: order lost under back-pressure", i, buf[0])
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}
