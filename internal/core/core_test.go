package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cri"
	"repro/internal/hw"
	"repro/internal/progress"
	"repro/internal/spc"
)

func newTestWorld(t testing.TB, n int, opts Options) *World {
	t.Helper()
	w, err := NewWorld(hw.Fast(), n, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

func TestWorldConstruction(t *testing.T) {
	w := newTestWorld(t, 3, Stock())
	if w.Size() != 3 {
		t.Fatalf("Size = %d", w.Size())
	}
	for r := 0; r < 3; r++ {
		p := w.Proc(r)
		if p.Rank() != r {
			t.Fatalf("proc %d reports rank %d", r, p.Rank())
		}
		cw := p.CommWorld()
		if cw == nil || cw.Size() != 3 || cw.Rank() != r {
			t.Fatalf("proc %d world comm = %v", r, cw)
		}
	}
}

func TestWorldSizeValidation(t *testing.T) {
	if _, err := NewWorld(hw.Fast(), 0, Stock()); err == nil {
		t.Fatal("NewWorld(0) succeeded")
	}
}

func TestOptionsDefaults(t *testing.T) {
	w := newTestWorld(t, 1, Options{})
	o := w.Options()
	if o.NumInstances != 1 || o.QueueDepth != 4096 || o.EagerLimit != DefaultEagerLimit {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestInstanceCapByMachineLimit(t *testing.T) {
	m := hw.Fast()
	m.MaxContexts = 2
	w, err := NewWorld(m, 1, Options{NumInstances: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := w.Proc(0).Pool().Len(); got != 2 {
		t.Fatalf("pool size = %d, want capped at 2", got)
	}
}

func TestBlockingSendRecv(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	c0, c1 := w.Proc(0).CommWorld(), w.Proc(1).CommWorld()
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := c0.Send(t0, 1, 7, []byte("payload")); err != nil {
			t.Error(err)
		}
	}()
	buf := make([]byte, 16)
	st, err := c1.Recv(t1, 0, 7, buf)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if st.Source != 0 || st.Tag != 7 || st.Count != 7 || st.Truncated {
		t.Fatalf("status = %+v", st)
	}
	if string(buf[:st.Count]) != "payload" {
		t.Fatalf("received %q", buf[:st.Count])
	}
}

func TestIsendIrecvWaitAll(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	c0, c1 := w.Proc(0).CommWorld(), w.Proc(1).CommWorld()
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()

	const n = 50
	var rreqs []*Request
	bufs := make([][]byte, n)
	for i := 0; i < n; i++ {
		bufs[i] = make([]byte, 4)
		r, err := c1.Irecv(t1, 0, int32(i), bufs[i])
		if err != nil {
			t.Fatal(err)
		}
		rreqs = append(rreqs, r)
	}
	var sreqs []*Request
	for i := 0; i < n; i++ {
		s, err := c0.Isend(t0, 1, int32(i), []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		sreqs = append(sreqs, s)
	}
	done := make(chan error, 1)
	go func() { done <- WaitAll(t1, rreqs...) }()
	if err := WaitAll(t0, sreqs...); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if bufs[i][0] != byte(i) {
			t.Fatalf("message %d delivered %d", i, bufs[i][0])
		}
		if rreqs[i].Status().Tag != int32(i) {
			t.Fatalf("message %d status tag %d", i, rreqs[i].Status().Tag)
		}
	}
}

func TestFIFOOrderingSingleThread(t *testing.T) {
	// Messages with the same tag from one thread must arrive in send order.
	w := newTestWorld(t, 2, Stock())
	c0, c1 := w.Proc(0).CommWorld(), w.Proc(1).CommWorld()
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	const n = 100

	go func() {
		for i := 0; i < n; i++ {
			if err := c0.Send(t0, 1, 1, []byte{byte(i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	buf := make([]byte, 1)
	for i := 0; i < n; i++ {
		if _, err := c1.Recv(t1, 0, 1, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i) {
			t.Fatalf("message %d arrived as %d: FIFO violated", i, buf[0])
		}
	}
}

func TestSelfSend(t *testing.T) {
	w := newTestWorld(t, 1, Stock())
	c := w.Proc(0).CommWorld()
	th := w.Proc(0).NewThread()
	req, err := c.Isend(th, 0, 3, []byte("self"))
	if err != nil {
		t.Fatal(err)
	}
	if !req.Done() {
		t.Fatal("self send not immediately complete")
	}
	buf := make([]byte, 8)
	st, err := c.Recv(th, 0, 3, buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:st.Count]) != "self" {
		t.Fatalf("self recv = %q", buf[:st.Count])
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	w := newTestWorld(t, 3, Stock())
	t1 := w.Proc(1).NewThread()
	t2 := w.Proc(2).NewThread()
	t0 := w.Proc(0).NewThread()
	go func() { _ = w.Proc(1).CommWorld().Send(t1, 0, 11, []byte("a")) }()
	go func() { _ = w.Proc(2).CommWorld().Send(t2, 0, 22, []byte("b")) }()

	c0 := w.Proc(0).CommWorld()
	seen := map[int32]bool{}
	for i := 0; i < 2; i++ {
		buf := make([]byte, 1)
		st, err := c0.Recv(t0, int(AnySource), AnyTag, buf)
		if err != nil {
			t.Fatal(err)
		}
		seen[st.Source] = true
		if (st.Source == 1 && st.Tag != 11) || (st.Source == 2 && st.Tag != 22) {
			t.Fatalf("status mismatch: %+v", st)
		}
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("sources seen = %v", seen)
	}
}

func TestTruncationError(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	go func() { _ = w.Proc(0).CommWorld().Send(t0, 1, 1, []byte("too long")) }()
	buf := make([]byte, 3)
	st, err := w.Proc(1).CommWorld().Recv(t1, 0, 1, buf)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if !st.Truncated || st.Count != 3 || st.MessageLen != 8 {
		t.Fatalf("status = %+v", st)
	}
	if string(buf) != "too" {
		t.Fatalf("buf = %q", buf)
	}
}

func TestRankAndTagValidation(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	c := w.Proc(0).CommWorld()
	th := w.Proc(0).NewThread()
	if _, err := c.Isend(th, 5, 1, nil); err == nil {
		t.Fatal("Isend to rank 5 in world of 2 succeeded")
	}
	if _, err := c.Isend(th, -1, 1, nil); err == nil {
		t.Fatal("Isend to rank -1 succeeded")
	}
	if _, err := c.Isend(th, 1, -5, nil); err == nil {
		t.Fatal("negative user tag accepted")
	}
	if _, err := c.Irecv(th, 5, 1, nil); err == nil {
		t.Fatal("Irecv from rank 5 succeeded")
	}
}

func TestNewCommValidation(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	if _, err := w.NewComm(nil); err == nil {
		t.Fatal("empty group accepted")
	}
	if _, err := w.NewComm([]int{0, 0}); err == nil {
		t.Fatal("duplicate rank accepted")
	}
	if _, err := w.NewComm([]int{0, 7}); err == nil {
		t.Fatal("out-of-world rank accepted")
	}
}

func TestSubCommunicatorRanks(t *testing.T) {
	w := newTestWorld(t, 4, Stock())
	comms, err := w.NewComm([]int{3, 1}) // comm rank 0 -> world 3, 1 -> world 1
	if err != nil {
		t.Fatal(err)
	}
	if comms[0].Rank() != 0 || comms[0].Proc().Rank() != 3 {
		t.Fatalf("comm[0] = %v on proc %d", comms[0], comms[0].Proc().Rank())
	}
	if comms[0].WorldRank(1) != 1 {
		t.Fatal("WorldRank mapping wrong")
	}
	// Traffic within the sub-communicator uses communicator ranks.
	th3 := w.Proc(3).NewThread()
	th1 := w.Proc(1).NewThread()
	go func() { _ = comms[0].Send(th3, 1, 9, []byte("sub")) }()
	buf := make([]byte, 8)
	st, err := comms[1].Recv(th1, 0, 9, buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Source != 0 || string(buf[:st.Count]) != "sub" {
		t.Fatalf("sub-comm recv: %+v %q", st, buf[:st.Count])
	}
}

func TestCommDup(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	dup, err := w.Proc(0).CommWorld().Dup()
	if err != nil {
		t.Fatal(err)
	}
	if dup[0].ID() == w.Proc(0).CommWorld().ID() {
		t.Fatal("Dup reused the communicator id")
	}
	// Same-tag traffic on world and dup must not cross.
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	go func() {
		_ = w.Proc(0).CommWorld().Send(t0, 1, 1, []byte("w"))
		_ = dup[0].Send(t0, 1, 1, []byte("d"))
	}()
	buf := make([]byte, 1)
	if _, err := dup[1].Recv(t1, 0, 1, buf); err != nil || buf[0] != 'd' {
		t.Fatalf("dup recv = %q, %v", buf, err)
	}
	if _, err := w.Proc(1).CommWorld().Recv(t1, 0, 1, buf); err != nil || buf[0] != 'w' {
		t.Fatalf("world recv = %q, %v", buf, err)
	}
}

func TestProbeFindsUnexpected(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	c1 := w.Proc(1).CommWorld()
	if _, ok := c1.Probe(t1, int(AnySource), AnyTag); ok {
		t.Fatal("Probe found a message before any send")
	}
	done := make(chan struct{})
	go func() {
		_ = w.Proc(0).CommWorld().Send(t0, 1, 33, []byte("xx"))
		close(done)
	}()
	<-done
	// Drain fabric into the unexpected queue, then probe.
	var st Status
	var ok bool
	for !ok {
		st, ok = c1.Probe(t1, 0, 33)
	}
	if st.Tag != 33 || st.MessageLen != 2 {
		t.Fatalf("probe status = %+v", st)
	}
	// The message is still there for a real receive.
	buf := make([]byte, 2)
	if _, err := c1.Recv(t1, 0, 33, buf); err != nil {
		t.Fatal(err)
	}
}

func TestBarrier(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			w := newTestWorld(t, n, Stock())
			var wg sync.WaitGroup
			var mu sync.Mutex
			arrived := 0
			minSeen := n * 2
			for r := 0; r < n; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					th := w.Proc(r).NewThread()
					c := w.Proc(r).CommWorld()
					mu.Lock()
					arrived++
					mu.Unlock()
					if err := c.Barrier(th); err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					if arrived < minSeen {
						minSeen = arrived
					}
					mu.Unlock()
				}(r)
			}
			wg.Wait()
			if minSeen != n {
				t.Fatalf("a rank left the barrier after seeing only %d/%d arrivals", minSeen, n)
			}
		})
	}
}

func TestRendezvousLargeMessage(t *testing.T) {
	opts := Stock()
	opts.EagerLimit = 64
	w := newTestWorld(t, 2, opts)
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()

	msg := bytes.Repeat([]byte("abcdefgh"), 100) // 800 B > 64 B eager limit
	go func() {
		if err := w.Proc(0).CommWorld().Send(t0, 1, 5, msg); err != nil {
			t.Error(err)
		}
	}()
	buf := make([]byte, 1024)
	st, err := w.Proc(1).CommWorld().Recv(t1, 0, 5, buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != 800 || st.MessageLen != 800 || st.Truncated {
		t.Fatalf("status = %+v", st)
	}
	if !bytes.Equal(buf[:800], msg) {
		t.Fatal("rendezvous payload corrupted")
	}
}

func TestRendezvousTruncation(t *testing.T) {
	opts := Stock()
	opts.EagerLimit = 16
	w := newTestWorld(t, 2, opts)
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	msg := bytes.Repeat([]byte{7}, 100)
	go func() { _ = w.Proc(0).CommWorld().Send(t0, 1, 5, msg) }()
	buf := make([]byte, 40)
	st, err := w.Proc(1).CommWorld().Recv(t1, 0, 5, buf)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if st.Count != 40 || st.MessageLen != 100 || !st.Truncated {
		t.Fatalf("status = %+v", st)
	}
	for i, b := range buf {
		if b != 7 {
			t.Fatalf("buf[%d] = %d", i, b)
		}
	}
}

func TestRendezvousPreservesFIFOWithEager(t *testing.T) {
	// Eager then rendezvous then eager with the same tag: arrival order
	// must equal send order even across protocol switches.
	opts := Stock()
	opts.EagerLimit = 32
	w := newTestWorld(t, 2, opts)
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	go func() {
		c := w.Proc(0).CommWorld()
		_ = c.Send(t0, 1, 1, []byte{1})
		_ = c.Send(t0, 1, 1, bytes.Repeat([]byte{2}, 100))
		_ = c.Send(t0, 1, 1, []byte{3})
	}()
	c1 := w.Proc(1).CommWorld()
	buf := make([]byte, 128)
	for i, want := range []byte{1, 2, 3} {
		st, err := c1.Recv(t1, 0, 1, buf)
		if err != nil {
			t.Fatal(err)
		}
		if buf[0] != want {
			t.Fatalf("message %d delivered payload %d, want %d", i, buf[0], want)
		}
		_ = st
	}
}

func TestMessagesSentCounter(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	go func() {
		for i := 0; i < 10; i++ {
			_ = w.Proc(0).CommWorld().Send(t0, 1, 1, nil)
		}
	}()
	buf := make([]byte, 1)
	for i := 0; i < 10; i++ {
		if _, err := w.Proc(1).CommWorld().Recv(t1, 0, 1, buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Proc(0).SPCSnapshot().Get(spc.MessagesSent); got != 10 {
		t.Fatalf("messages_sent = %d, want 10", got)
	}
	if got := w.Proc(1).SPCSnapshot().Get(spc.MessagesReceived); got != 10 {
		t.Fatalf("messages_received = %d, want 10", got)
	}
}

func TestThreadSerializedViolationPanics(t *testing.T) {
	opts := Stock()
	opts.ThreadLevel = ThreadSerialized
	w := newTestWorld(t, 1, opts)
	p := w.Proc(0)
	// Simulate a concurrent entry by holding the guard.
	p.levelGuard.enter(p.NewThread())
	defer func() {
		if recover() == nil {
			t.Fatal("concurrent entry at SERIALIZED did not panic")
		}
	}()
	p.levelGuard.enter(p.NewThread())
}

func TestThreadFunneledViolationPanics(t *testing.T) {
	opts := Stock()
	opts.ThreadLevel = ThreadFunneled
	w := newTestWorld(t, 1, opts)
	p := w.Proc(0)
	p.levelGuard.enter(p.NewThread()) // main thread claims ownership
	defer func() {
		if recover() == nil {
			t.Fatal("second thread at FUNNELED did not panic")
		}
	}()
	p.levelGuard.enter(p.NewThread())
}

func TestThreadMultipleAllowsConcurrency(t *testing.T) {
	w := newTestWorld(t, 1, Stock())
	p := w.Proc(0)
	th1, th2 := p.NewThread(), p.NewThread()
	p.levelGuard.enter(th1)
	p.levelGuard.enter(th2) // must not panic
	p.levelGuard.leave()
	p.levelGuard.leave()
}

// TestMultithreadedPairwiseStress is the core concurrency test: N sender
// threads and N receiver threads exchanging on one communicator under every
// design configuration. Run with -race.
func TestMultithreadedPairwiseStress(t *testing.T) {
	configs := []struct {
		name string
		opts Options
	}{
		{"stock", Stock()},
		{"cri-rr", CRIs(4, cri.RoundRobin)},
		{"cri-dedicated", CRIs(4, cri.Dedicated)},
		{"concurrent-rr", CRIsConcurrent(4, cri.RoundRobin)},
		{"concurrent-dedicated", CRIsConcurrent(4, cri.Dedicated)},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			const (
				pairs = 4
				msgs  = 200
			)
			w := newTestWorld(t, 2, cfg.opts)
			var wg sync.WaitGroup
			for pair := 0; pair < pairs; pair++ {
				wg.Add(2)
				go func(pair int) {
					defer wg.Done()
					th := w.Proc(0).NewThread()
					c := w.Proc(0).CommWorld()
					for i := 0; i < msgs; i++ {
						if err := c.Send(th, 1, int32(pair), []byte{byte(i)}); err != nil {
							t.Error(err)
							return
						}
					}
				}(pair)
				go func(pair int) {
					defer wg.Done()
					th := w.Proc(1).NewThread()
					c := w.Proc(1).CommWorld()
					buf := make([]byte, 1)
					for i := 0; i < msgs; i++ {
						st, err := c.Recv(th, 0, int32(pair), buf)
						if err != nil {
							t.Error(err)
							return
						}
						if buf[0] != byte(i) {
							t.Errorf("pair %d: message %d arrived as %d (per-thread FIFO)", pair, i, buf[0])
							return
						}
						_ = st
					}
				}(pair)
			}
			wg.Wait()
		})
	}
}

// TestCommPerPairConcurrentMatching mirrors the Fig. 3c setup: each pair
// has a private communicator; matching runs concurrently.
func TestCommPerPairConcurrentMatching(t *testing.T) {
	const pairs = 4
	w := newTestWorld(t, 2, CRIsConcurrent(pairs, cri.Dedicated))
	comms := make([][]*Comm, pairs)
	for i := range comms {
		var err error
		comms[i], err = w.NewComm([]int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for pair := 0; pair < pairs; pair++ {
		wg.Add(2)
		go func(pair int) {
			defer wg.Done()
			th := w.Proc(0).NewThread()
			for i := 0; i < 100; i++ {
				if err := comms[pair][0].Send(th, 1, 1, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(pair)
		go func(pair int) {
			defer wg.Done()
			th := w.Proc(1).NewThread()
			buf := make([]byte, 1)
			for i := 0; i < 100; i++ {
				if _, err := comms[pair][1].Recv(th, 0, 1, buf); err != nil {
					t.Error(err)
					return
				}
				if buf[0] != byte(i) {
					t.Errorf("pair %d FIFO violated", pair)
					return
				}
			}
		}(pair)
	}
	wg.Wait()
}

// TestAllowOvertakingDelivery: with overtaking asserted and wildcard tags,
// all messages arrive exactly once (order free).
func TestAllowOvertakingDelivery(t *testing.T) {
	w := newTestWorld(t, 2, CRIsConcurrent(4, cri.Dedicated))
	comms, err := w.NewCommWithInfo([]int{0, 1}, Info{AllowOvertaking: true})
	if err != nil {
		t.Fatal(err)
	}
	const (
		threads = 4
		msgs    = 100
	)
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := w.Proc(0).NewThread()
			for i := 0; i < msgs; i++ {
				if err := comms[0].Send(th, 1, 1, []byte{byte(g)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	counts := make([]int, threads)
	var mu sync.Mutex
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := w.Proc(1).NewThread()
			buf := make([]byte, 1)
			for i := 0; i < msgs; i++ {
				if _, err := comms[1].Recv(th, 0, AnyTag, buf); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				counts[buf[0]]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for g, n := range counts {
		if n != msgs {
			t.Fatalf("sender %d: %d messages delivered, want %d", g, n, msgs)
		}
	}
	if oos := w.Proc(1).SPCSnapshot().Get(spc.OutOfSequence); oos != 0 {
		t.Fatalf("overtaking recorded %d out-of-sequence messages", oos)
	}
}

func TestProgressModesDrainAfterChurn(t *testing.T) {
	// Threads detach mid-run (orphaned dedicated instances); remaining
	// threads must still complete all traffic via the round-robin sweep.
	w := newTestWorld(t, 2, Options{
		NumInstances: 4, Assignment: cri.Dedicated,
		Progress: progress.Concurrent, ThreadLevel: ThreadMultiple,
	})
	t0 := w.Proc(0).NewThread()
	c0 := w.Proc(0).CommWorld()
	c1 := w.Proc(1).CommWorld()

	// A short-lived thread sends then detaches.
	ephemeral := w.Proc(0).NewThread()
	if _, err := c0.Isend(ephemeral, 1, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	ephemeral.Detach()

	// A different thread (different dedicated instance) must still see the
	// message complete and the receiver drain it.
	buf := make([]byte, 1)
	t1 := w.Proc(1).NewThread()
	if _, err := c1.Recv(t1, 0, 1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 'x' {
		t.Fatalf("payload = %q", buf)
	}
	_ = t0
}

// TestIdleProgressAllocatesNothing pins the idle progress pass at zero
// allocations: a waiter spins on it, so one allocation per pass shows up as
// dozens of allocations per message in any latency-bound workload. (The
// instance's poll handler is bound once at construction for this reason.)
func TestIdleProgressAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"stock", Stock()},
		{"cris-concurrent", CRIsConcurrent(4, cri.Dedicated)},
	} {
		w := newTestWorld(t, 2, tc.opts)
		th := w.Proc(0).NewThread()
		th.Progress() // first pass assigns the thread's dedicated instance
		if n := testing.AllocsPerRun(1000, func() { th.Progress() }); n != 0 {
			t.Errorf("%s: idle Progress allocates %v objects per pass, want 0", tc.name, n)
		}
	}
}
