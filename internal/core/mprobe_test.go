package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/spc"
)

func TestMProbeMRecv(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	c0, c1 := w.Proc(0).CommWorld(), w.Proc(1).CommWorld()

	done := make(chan struct{})
	go func() {
		_ = c0.Send(t0, 1, 7, []byte("claimed"))
		close(done)
	}()
	<-done

	var msg *Message
	for {
		var ok bool
		msg, ok = c1.MProbe(t1, 0, 7)
		if ok {
			break
		}
	}
	st := msg.Status()
	if st.Source != 0 || st.Tag != 7 || st.MessageLen != 7 {
		t.Fatalf("message status = %+v", st)
	}
	// The claimed message must no longer match a posted receive.
	if _, ok := c1.Probe(t1, 0, 7); ok {
		t.Fatal("claimed message still visible to Probe")
	}
	buf := make([]byte, 16)
	st, err := msg.MRecv(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:st.Count]) != "claimed" {
		t.Fatalf("MRecv payload = %q", buf[:st.Count])
	}
}

func TestMProbeMissReturnsFalse(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	th := w.Proc(1).NewThread()
	if _, ok := w.Proc(1).CommWorld().MProbe(th, 0, 99); ok {
		t.Fatal("MProbe matched with nothing sent")
	}
}

func TestMRecvTwiceErrors(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	go func() { _ = w.Proc(0).CommWorld().Send(t0, 1, 1, []byte("x")) }()
	var msg *Message
	for {
		var ok bool
		msg, ok = w.Proc(1).CommWorld().MProbe(t1, 0, 1)
		if ok {
			break
		}
	}
	buf := make([]byte, 4)
	if _, err := msg.MRecv(buf); err != nil {
		t.Fatal(err)
	}
	received := w.Proc(1).SPCSnapshot().Get(spc.MessagesReceived)
	buf[0] = 0
	if st, err := msg.MRecv(buf); !errors.Is(err, ErrConsumed) || st != (Status{}) || buf[0] != 0 {
		t.Fatalf("second MRecv = %+v, %v, buf %q; want ErrConsumed and nothing written", st, err, buf[:1])
	}
	if got := w.Proc(1).SPCSnapshot().Get(spc.MessagesReceived); got != received {
		t.Fatalf("second MRecv counted a receive: messages_received %d -> %d", received, got)
	}
}

// TestMProbeConcurrentClaimants: the defining property of matched probe —
// N threads claiming from the same coordinates each get a distinct message.
func TestMProbeConcurrentClaimants(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	t0 := w.Proc(0).NewThread()
	c0, c1 := w.Proc(0).CommWorld(), w.Proc(1).CommWorld()
	const msgs = 40
	go func() {
		for i := 0; i < msgs; i++ {
			_ = c0.Send(t0, 1, 1, []byte{byte(i)})
		}
	}()

	const claimants = 4
	var mu sync.Mutex
	seen := map[byte]bool{}
	var wg sync.WaitGroup
	for g := 0; g < claimants; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := w.Proc(1).NewThread()
			buf := make([]byte, 1)
			for {
				mu.Lock()
				if len(seen) == msgs {
					mu.Unlock()
					return
				}
				mu.Unlock()
				msg, ok := c1.MProbe(th, 0, 1)
				if !ok {
					continue
				}
				if _, err := msg.MRecv(buf); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if seen[buf[0]] {
					mu.Unlock()
					t.Errorf("message %d claimed twice", buf[0])
					return
				}
				seen[buf[0]] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestCommFree(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	comms, err := w.NewComm([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	id := comms[0].ID()
	comms[0].Free()
	if w.Proc(0).commByID(id) != nil {
		t.Fatal("communicator still registered after Free")
	}
	// The other member's handle is independent until its own Free.
	if w.Proc(1).commByID(id) == nil {
		t.Fatal("Free on one handle removed the peer's state")
	}
	comms[1].Free()
}
