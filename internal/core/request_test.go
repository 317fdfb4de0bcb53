package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/cri"
)

func TestWaitAnyReturnsFirstCompleted(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	c0, c1 := w.Proc(0).CommWorld(), w.Proc(1).CommWorld()

	// Post two receives; only tag 8 will be satisfied.
	bufA := make([]byte, 4)
	bufB := make([]byte, 4)
	ra, err := c1.Irecv(t1, 0, 7, bufA)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := c1.Irecv(t1, 0, 8, bufB)
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan struct{})
	go func() { _ = c0.Send(t0, 1, 8, []byte("b")); close(sent) }()
	idx, err := WaitAny(t1, ra, rb)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("WaitAny = %d, want 1", idx)
	}
	// Satisfy the other receive so the world drains cleanly — once the first
	// sender is done with t0: a Thread belongs to one goroutine at a time.
	<-sent
	go func() { _ = c0.Send(t0, 1, 7, []byte("a")) }()
	if err := ra.Wait(t1); err != nil {
		t.Fatal(err)
	}
}

func TestWaitAnyEmptyPanics(t *testing.T) {
	w := newTestWorld(t, 1, Stock())
	th := w.Proc(0).NewThread()
	defer func() {
		if recover() == nil {
			t.Fatal("WaitAny() with no requests did not panic")
		}
	}()
	_, _ = WaitAny(th)
}

func TestTestAll(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	c0, c1 := w.Proc(0).CommWorld(), w.Proc(1).CommWorld()

	bufs := [][]byte{make([]byte, 1), make([]byte, 1)}
	r0, _ := c1.Irecv(t1, 0, 1, bufs[0])
	r1, _ := c1.Irecv(t1, 0, 2, bufs[1])
	if done, _ := TestAll(t1, r0, r1); done {
		t.Fatal("TestAll reported done with nothing sent")
	}
	go func() {
		_ = c0.Send(t0, 1, 1, []byte{1})
		_ = c0.Send(t0, 1, 2, []byte{2})
	}()
	for {
		done, err := TestAll(t1, r0, r1)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if bufs[0][0] != 1 || bufs[1][0] != 2 {
		t.Fatalf("payloads = %v %v", bufs[0], bufs[1])
	}
}

func TestRequestTest(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	buf := make([]byte, 1)
	req, err := w.Proc(1).CommWorld().Irecv(t1, 0, 1, buf)
	if err != nil {
		t.Fatal(err)
	}
	if done, _ := req.Test(t1); done {
		t.Fatal("Test true before send")
	}
	go func() { _ = w.Proc(0).CommWorld().Send(t0, 1, 1, []byte{9}) }()
	for {
		done, err := req.Test(t1)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if !req.Done() {
		t.Fatal("Done false after Test true")
	}
	if buf[0] != 9 {
		t.Fatalf("payload = %d", buf[0])
	}
}

func TestWaitCrossProcPanics(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	t1 := w.Proc(1).NewThread()
	t0 := w.Proc(0).NewThread()
	req, err := w.Proc(1).CommWorld().Irecv(t1, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cross-proc Wait did not panic")
		}
		// Unblock the pending recv to drain.
		go func() { _ = w.Proc(0).CommWorld().Send(t0, 1, 1, nil) }()
		_ = req.Wait(t1)
	}()
	_ = req.Wait(t0) // wrong proc's thread
}

// TestCrossProcThreadPanics: a Thread belongs to its proc. Isend, Irecv and
// Ssend on another proc's communicator refuse it before touching anything.
func TestCrossProcThreadPanics(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	t0 := w.Proc(0).NewThread()
	c1 := w.Proc(1).CommWorld()
	for _, op := range []struct {
		name string
		call func()
	}{
		{"Isend", func() { _, _ = c1.Isend(t0, 0, 1, nil) }},
		{"Irecv", func() { _, _ = c1.Irecv(t0, 0, 1, nil) }},
		{"Ssend", func() { _ = c1.Ssend(t0, 0, 1, nil) }},
	} {
		t.Run(op.name, func(t *testing.T) {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, op.name+" with a thread from a different proc") {
					t.Fatalf("%s with another proc's thread: recovered %q, want its panic", op.name, msg)
				}
			}()
			op.call()
		})
	}
}

// An operation's entry in its Thread's slab is never handed out again, so a
// handle outlives any amount of later traffic: after ten slabs' worth of
// further operations on the same Threads, a receive's *Request still reads
// the Status and error it completed with, and a message claimed by MProbe —
// in process, the sender's own packet, its payload carved from the sender's
// chunk — still receives its original bytes.
func TestHandlesOutliveTheirSlab(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	c0, c1 := w.Proc(0).CommWorld(), w.Proc(1).CommWorld()
	buf := make([]byte, 8)
	rreq, err := c1.Irecv(t1, 0, 1, buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := c0.Send(t0, 1, 1, []byte("received")); err != nil {
		t.Fatal(err)
	}
	if err := c0.Send(t0, 1, 2, []byte("claimed!")); err != nil {
		t.Fatal(err)
	}
	if err := rreq.Wait(t1); err != nil {
		t.Fatal(err)
	}
	want := rreq.Status()
	var msg *Message
	for ok := false; !ok; {
		msg, ok = c1.MProbe(t1, 0, 2)
	}

	in := make([]byte, 16)
	for i := 0; i < 10*slabLen[Request](); i++ {
		out := bytes.Repeat([]byte{byte(i)}, 1+i%16)
		r, err := c1.Irecv(t1, 0, 3, in)
		if err != nil {
			t.Fatal(err)
		}
		if err := c0.Send(t0, 1, 3, out); err != nil {
			t.Fatal(err)
		}
		if err := r.Wait(t1); err != nil {
			t.Fatal(err)
		}
	}

	if got := rreq.Status(); got != want || !rreq.Done() || rreq.result() != nil || want.Tag != 1 || want.Count != 8 {
		t.Fatalf("receive handle after %d more operations: status %+v (was %+v), done %v, err %v", 10*slabLen[Request](), got, want, rreq.Done(), rreq.result())
	}
	got := make([]byte, 8)
	if st, err := msg.MRecv(got); err != nil || st.Tag != 2 || string(got) != "claimed!" {
		t.Fatalf("claimed message after %d more operations: %q, status %+v, err %v", 10*slabLen[Request](), got, st, err)
	}
}

// Two Threads of one proc post at once — sends on rank 0, receives on rank 1,
// over two instances with concurrent progress — each through its own slabs
// and payload chunk, while deliveries collect into their instance's scratch:
// under the race detector none of it is shared. Above the eager limit the
// same traffic goes by rendezvous, whose receive records and sink regions two
// progress passes carve at once from the proc's and the device's slabs.
func TestThreadsPostConcurrently(t *testing.T) {
	for _, size := range []int{2, 2 * DefaultEagerLimit} {
		t.Run(fmt.Sprintf("%dB", size), func(t *testing.T) { postConcurrently(t, size) })
	}
}

func postConcurrently(t *testing.T, size int) {
	w := newTestWorld(t, 2, CRIsConcurrent(2, cri.Dedicated))
	msgs := 3 * slabLen[Request]()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			th, c := w.Proc(0).NewThread(), w.Proc(0).CommWorld()
			for i := 0; i < msgs; i++ {
				payload := make([]byte, size)
				payload[0], payload[1] = byte(g), byte(i)
				if err := c.Send(th, 1, int32(g), payload); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			th, c := w.Proc(1).NewThread(), w.Proc(1).CommWorld()
			reqs := make([]*Request, msgs)
			bufs := make([][]byte, msgs)
			for i := range reqs {
				bufs[i] = make([]byte, size)
				var err error
				if reqs[i], err = c.Irecv(th, 0, int32(g), bufs[i]); err != nil {
					t.Error(err)
					return
				}
			}
			if err := WaitAll(th, reqs...); err != nil {
				t.Error(err)
				return
			}
			for i, b := range bufs {
				if b[0] != byte(g) || b[1] != byte(i) {
					t.Errorf("thread %d receive %d: payload %v", g, i, b[:2])
					return
				}
			}
		}()
	}
	wg.Wait()
}
