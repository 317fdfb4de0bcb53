package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cri"
)

// shardedComms builds the lock-free hot-path configuration under test —
// free-list CRI acquisition and the concurrent progress engine — and one
// communicator over all n ranks asserting no wildcards, which matches on
// the sharded engine with no communicator-wide matching lock.
func shardedComms(t *testing.T, n, instances int) (*World, []*Comm) {
	t.Helper()
	w := newTestWorld(t, n, CRIsConcurrent(instances, cri.FreeList))
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	comms, err := w.NewCommWithInfo(ranks, Info{NoWildcards: true})
	if err != nil {
		t.Fatal(err)
	}
	if !comms[0].selfMatch || w.Proc(0).CommWorld().selfMatch {
		t.Fatal("only the communicator asserting NoWildcards matches on the self-locking sharded engine")
	}
	return w, comms
}

func TestShardedWorldPingPong(t *testing.T) {
	w, comms := shardedComms(t, 2, 4)
	c0, c1 := comms[0], comms[1]
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := c0.Send(t0, 1, int32(i%7), []byte(fmt.Sprintf("m%d", i))); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		buf := make([]byte, 16)
		st, err := c1.Recv(t1, 0, int32(i%7), buf)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		want := fmt.Sprintf("m%d", i)
		if string(buf[:st.Count]) != want {
			t.Fatalf("recv %d = %q, want %q (FIFO violated)", i, buf[:st.Count], want)
		}
	}
	wg.Wait()
}

// TestShardedWorldMultithreaded hammers the sharded engine through the full
// runtime: many sender threads on rank 0, many receiver threads on rank 1,
// distinct tags per thread pair (the sharded engine's sweet spot). Run with
// -race.
func TestShardedWorldMultithreaded(t *testing.T) {
	const (
		nThreads = 8
		perT     = 40
	)
	w, comms := shardedComms(t, 2, 4)
	p0, p1 := w.Proc(0), w.Proc(1)
	c0, c1 := comms[0], comms[1]

	var wg sync.WaitGroup
	for i := 0; i < nThreads; i++ {
		wg.Add(2)
		go func(tag int32) {
			defer wg.Done()
			th := p0.NewThread()
			for k := 0; k < perT; k++ {
				if err := c0.Send(th, 1, tag, []byte{byte(k)}); err != nil {
					t.Errorf("send tag %d: %v", tag, err)
					return
				}
			}
		}(int32(i))
		go func(tag int32) {
			defer wg.Done()
			th := p1.NewThread()
			buf := make([]byte, 4)
			for k := 0; k < perT; k++ {
				st, err := c1.Recv(th, 0, tag, buf)
				if err != nil {
					t.Errorf("recv tag %d: %v", tag, err)
					return
				}
				if st.Count != 1 || buf[0] != byte(k) {
					t.Errorf("tag %d msg %d: got %v (per-pair FIFO violated)", tag, k, buf[:st.Count])
					return
				}
			}
		}(int32(i))
	}
	wg.Wait()

	// Queues must drain; the snapshot path must work without a matching lock.
	qs := p1.QueueSnapshot()
	for _, cq := range qs.Comms {
		if cq.Posted != 0 || cq.Unexpected != 0 || cq.OOSBuffered != 0 {
			t.Fatalf("comm %d queues not drained: %+v", cq.Comm, cq)
		}
	}
}

// TestShardedWorldProbeAndCollectives covers the self-locking gating on the
// probe, matched-probe, and collective (internal receive) paths.
func TestShardedWorldProbeAndCollectives(t *testing.T) {
	w, comms := shardedComms(t, 4, 2)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if err := comms[r].Barrier(w.Proc(r).NewThread()); err != nil {
				t.Errorf("rank %d barrier: %v", r, err)
			}
		}(r)
	}
	wg.Wait()

	c0, c1 := comms[0], comms[1]
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	if err := c0.Send(t0, 1, 5, []byte("probe-me")); err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := c1.Probe(t1, 0, 5); ok {
			break
		}
	}
	msg, ok := c1.MProbe(t1, 0, 5)
	if !ok {
		t.Fatal("MProbe missed a probed message")
	}
	buf := make([]byte, 16)
	st, err := msg.MRecv(buf)
	if err != nil || string(buf[:st.Count]) != "probe-me" {
		t.Fatalf("MRecv: %v %q", err, buf[:st.Count])
	}
}

// TestShardedWorldRefusesWildcards: on a communicator asserting NoWildcards
// a wildcard receive is refused with ErrWildcard before it posts anything,
// and a wildcard probe — which has no error to return — panics as
// documented misuse. The unasserted world communicator still takes both.
func TestShardedWorldRefusesWildcards(t *testing.T) {
	w, comms := shardedComms(t, 2, 2)
	c1, th := comms[1], w.Proc(1).NewThread()
	for _, co := range []struct {
		src int
		tag int32
	}{{int(AnySource), 3}, {0, AnyTag}, {int(AnySource), AnyTag}} {
		if req, err := c1.Irecv(th, co.src, co.tag, nil); !errors.Is(err, ErrWildcard) || req != nil {
			t.Errorf("Irecv(%d, %d) = %v, %v; want ErrWildcard", co.src, co.tag, req, err)
		}
		if pr, err := c1.RecvInit(co.src, co.tag, nil); !errors.Is(err, ErrWildcard) || pr != nil {
			t.Errorf("RecvInit(%d, %d) = %v, %v; want ErrWildcard", co.src, co.tag, pr, err)
		}
		for name, probe := range map[string]func(){
			"Probe":  func() { c1.Probe(th, co.src, co.tag) },
			"MProbe": func() { c1.MProbe(th, co.src, co.tag) },
		} {
			func() {
				defer func() {
					if err, _ := recover().(error); !errors.Is(err, ErrWildcard) {
						t.Errorf("%s(%d, %d) on an asserted communicator: recovered %v, want an ErrWildcard panic", name, co.src, co.tag, err)
					}
				}()
				probe()
			}()
		}
	}
	if n := c1.engine.PostedLen(); n != 0 {
		t.Fatalf("refused receives left %d posted", n)
	}
	if _, ok := w.Proc(1).CommWorld().Probe(th, int(AnySource), AnyTag); ok {
		t.Fatal("wildcard probe of the idle world communicator found a message")
	}
}
