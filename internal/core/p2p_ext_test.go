package core

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/backends"
	"repro/internal/cri"
	"repro/internal/spc"
	"repro/internal/transport"
)

func TestSendrecvSymmetricExchange(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	var wg sync.WaitGroup
	results := make([][]byte, 2)
	for me := 0; me < 2; me++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			th := w.Proc(me).NewThread()
			c := w.Proc(me).CommWorld()
			peer := 1 - me
			out := []byte{byte('A' + me)}
			in := make([]byte, 1)
			// Both ranks Sendrecv simultaneously: must not deadlock.
			st, err := c.Sendrecv(th, peer, 1, out, peer, 1, in)
			if err != nil {
				t.Error(err)
				return
			}
			if st.Source != int32(peer) {
				t.Errorf("rank %d: status source %d", me, st.Source)
			}
			results[me] = append([]byte(nil), in...)
		}(me)
	}
	wg.Wait()
	if results[0][0] != 'B' || results[1][0] != 'A' {
		t.Fatalf("exchange results = %q %q", results[0], results[1])
	}
}

func TestSsendCompletesOnlyAfterMatch(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	c0, c1 := w.Proc(0).CommWorld(), w.Proc(1).CommWorld()

	matched := make(chan struct{})
	sent := make(chan error, 1)
	go func() {
		sent <- c0.Ssend(t0, 1, 1, []byte("sync"))
	}()
	// The sender must not complete before the receive is posted. Drive the
	// receiver's progress a while with no posted receive.
	for i := 0; i < 100; i++ {
		t1.Progress()
		select {
		case <-sent:
			t.Fatal("Ssend completed before the receive was posted")
		default:
		}
	}
	go func() {
		buf := make([]byte, 8)
		if _, err := c1.Recv(t1, 0, 1, buf); err != nil {
			t.Error(err)
		}
		close(matched)
	}()
	<-matched
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

func TestSsendSelf(t *testing.T) {
	w := newTestWorld(t, 1, Stock())
	th := w.Proc(0).NewThread()
	c := w.Proc(0).CommWorld()
	done := make(chan error, 1)
	go func() { done <- c.Ssend(th, 0, 1, []byte("x")) }()
	buf := make([]byte, 1)
	th2 := w.Proc(0).NewThread()
	if _, err := c.Recv(th2, 0, 1, buf); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestSsendValidation(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	th := w.Proc(0).NewThread()
	c := w.Proc(0).CommWorld()
	if err := c.Ssend(th, 9, 1, nil); err == nil {
		t.Fatal("Ssend to invalid rank succeeded")
	}
	if err := c.Ssend(th, 1, -3, nil); err == nil {
		t.Fatal("Ssend with negative tag succeeded")
	}
}

func TestPersistentSendRecv(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	c0, c1 := w.Proc(0).CommWorld(), w.Proc(1).CommWorld()

	sendBuf := make([]byte, 4)
	recvBuf := make([]byte, 4)
	ps, err := c0.SendInit(1, 7, sendBuf)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := c1.RecvInit(0, 7, recvBuf)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 20
	done := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			if err := pr.Start(t1); err != nil {
				done <- err
				return
			}
			st, err := pr.Wait(t1)
			if err != nil {
				done <- err
				return
			}
			if recvBuf[0] != byte(i) || st.Count != 4 {
				done <- errOrderPersistent(i, recvBuf[0])
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < rounds; i++ {
		sendBuf[0] = byte(i)
		if err := ps.Start(t0); err != nil {
			t.Fatal(err)
		}
		if err := ps.Wait(t0); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

type errPersist struct{ want, got int }

func errOrderPersistent(want int, got byte) error { return errPersist{want, int(got)} }
func (e errPersist) Error() string                { return "persistent recv out of order" }

func TestPersistentMisuse(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	t0 := w.Proc(0).NewThread()
	c0 := w.Proc(0).CommWorld()
	ps, err := c0.SendInit(1, 1, make([]byte, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Wait(t0); err == nil {
		t.Fatal("Wait before Start succeeded")
	}
	if _, err := c0.SendInit(5, 1, nil); err == nil {
		t.Fatal("SendInit to invalid rank succeeded")
	}
	pr, err := c0.RecvInit(int(AnySource), AnyTag, make([]byte, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Wait(t0); err == nil {
		t.Fatal("recv Wait before Start succeeded")
	}
}

func TestSplitByParity(t *testing.T) {
	w := newTestWorld(t, 4, Stock())
	world := w.Proc(0).CommWorld()
	colors := []int{0, 1, 0, 1} // evens and odds
	keys := []int{0, 0, 1, 1}
	subs, err := world.Split(colors, keys)
	if err != nil {
		t.Fatal(err)
	}
	// World rank 0,2 -> color 0 comm with ranks 0,1; world 1,3 -> color 1.
	if subs[0].Size() != 2 || subs[0].Rank() != 0 {
		t.Fatalf("subs[0] = %v", subs[0])
	}
	if subs[2].Rank() != 1 {
		t.Fatalf("subs[2] rank = %d, want 1", subs[2].Rank())
	}
	if subs[1].ID() == subs[0].ID() {
		t.Fatal("different colors share a communicator id")
	}
	// Traffic within a color works with sub-ranks.
	t0 := w.Proc(0).NewThread()
	t2 := w.Proc(2).NewThread()
	go func() { _ = subs[0].Send(t0, 1, 3, []byte("even")) }()
	buf := make([]byte, 8)
	st, err := subs[2].Recv(t2, 0, 3, buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:st.Count]) != "even" {
		t.Fatalf("split traffic = %q", buf[:st.Count])
	}
}

func TestSplitKeyOrdering(t *testing.T) {
	w := newTestWorld(t, 3, Stock())
	world := w.Proc(0).CommWorld()
	// All one color; keys reverse the rank order.
	subs, err := world.Split([]int{0, 0, 0}, []int{30, 20, 10})
	if err != nil {
		t.Fatal(err)
	}
	if subs[2].Rank() != 0 || subs[1].Rank() != 1 || subs[0].Rank() != 2 {
		t.Fatalf("key ordering: ranks = %d %d %d", subs[0].Rank(), subs[1].Rank(), subs[2].Rank())
	}
}

func TestSplitUndefinedColor(t *testing.T) {
	w := newTestWorld(t, 3, Stock())
	world := w.Proc(0).CommWorld()
	subs, err := world.Split([]int{0, -1, 0}, []int{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if subs[1] != nil {
		t.Fatal("undefined color got a communicator")
	}
	if subs[0] == nil || subs[0].Size() != 2 {
		t.Fatalf("defined colors wrong: %v", subs[0])
	}
}

func TestSplitValidation(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	if _, err := w.Proc(0).CommWorld().Split([]int{0}, []int{0, 0}); err == nil {
		t.Fatal("mismatched colors length accepted")
	}
}

// TestScrambledDeliveryPreservesFIFO is the failure-injection test: with an
// adversarial packet scrambler on every device, the sequence-validation
// layer must still deliver per-sender FIFO order, exactly once. A scrambled
// wire is not lossless, so its sends complete on the reliability ack: they
// are all posted before any is waited for, or only one would be in flight
// and there would be nothing to reorder.
func TestScrambledDeliveryPreservesFIFO(t *testing.T) {
	opts := CRIsConcurrent(2, cri.Dedicated)
	opts.Network = backends.Faulty(transport.FaultConfig{ScrambleWindow: 8, Seed: 99})
	w := newTestWorld(t, 2, opts)
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	c0, c1 := w.Proc(0).CommWorld(), w.Proc(1).CommWorld()
	const msgs = 300
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		reqs := make([]*Request, 0, msgs)
		for i := 0; i < msgs; i++ {
			r, err := c0.Isend(t0, 1, 1, []byte{byte(i), byte(i >> 8)})
			if err != nil {
				t.Error(err)
				return
			}
			reqs = append(reqs, r)
		}
		if err := WaitAll(t0, reqs...); err != nil {
			t.Error(err)
		}
	}()
	buf := make([]byte, 2)
	for i := 0; i < msgs; i++ {
		if _, err := c1.Recv(t1, 0, 1, buf); err != nil {
			t.Fatal(err)
		}
		got := int(buf[0]) | int(buf[1])<<8
		if got != i {
			t.Fatalf("message %d arrived as %d under scrambling", i, got)
		}
	}
	// Keep the receiver progressing until the sender has its acks.
	t1.WaitUntil(func() bool {
		select {
		case <-sent:
			return true
		default:
			return false
		}
	})
	// The scrambler must actually have produced out-of-sequence arrivals,
	// or this test proves nothing.
	if oos := w.Proc(1).SPCSnapshot().Get(spc.OutOfSequence); oos == 0 {
		t.Fatal("scrambler produced zero out-of-sequence messages")
	}
}

// TestScrambledRendezvous: protocol control messages (RTS/ACK/FIN) also ride
// scrambled channels; large transfers must still complete intact.
func TestScrambledRendezvous(t *testing.T) {
	opts := Stock()
	opts.EagerLimit = 32
	opts.Network = backends.Faulty(transport.FaultConfig{ScrambleWindow: 4, Seed: 7})
	w := newTestWorld(t, 2, opts)
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	msg := bytes.Repeat([]byte{0xAB}, 500)
	go func() {
		if err := w.Proc(0).CommWorld().Send(t0, 1, 1, msg); err != nil {
			t.Error(err)
		}
	}()
	buf := make([]byte, 512)
	st, err := w.Proc(1).CommWorld().Recv(t1, 0, 1, buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != 500 || !bytes.Equal(buf[:500], msg) {
		t.Fatal("rendezvous payload corrupted under scrambling")
	}
}
