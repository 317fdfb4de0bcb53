package core

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/spc"
)

// TestEagerSendsNeverFillTheQueue: an eager send on a lossless backend
// completes when the backend takes it and posts no completion, so a thread
// that posts far more sends than its instance's queue depth, and waits on
// none of them, never meets a full completion queue: every request is
// complete when Isend returns, and the sender's device counts no refusal.
// A single P as well, where the receiver runs only when the sender yields.
func TestEagerSendsNeverFillTheQueue(t *testing.T) {
	for _, procs := range []int{0, 1} {
		prev := runtime.GOMAXPROCS(procs)
		func() {
			defer runtime.GOMAXPROCS(prev)
			const depth, n = 64, 4096
			opts := Stock()
			opts.QueueDepth = depth
			w := newTestWorld(t, 2, opts)
			p0, p1 := w.Proc(0), w.Proc(1)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := p1.NewThread()
				buf := make([]byte, 8)
				for i := 0; i < n; i++ {
					if _, err := p1.CommWorld().Recv(th, 0, 5, buf); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			th := p0.NewThread()
			c := p0.CommWorld()
			for i := 0; i < n; i++ {
				req, err := c.Isend(th, 1, 5, []byte{byte(i)})
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d: isend %d: %v", runtime.GOMAXPROCS(0), i, err)
				}
				if !req.done.Load() {
					t.Fatalf("GOMAXPROCS=%d: isend %d returned incomplete on a lossless backend", runtime.GOMAXPROCS(0), i)
				}
			}
			wg.Wait()
			if got := p0.TelemetryStats().Process.Get(spc.RingFullWaits); got != 0 {
				t.Fatalf("GOMAXPROCS=%d: the sender counted %d ring-full waits", runtime.GOMAXPROCS(0), got)
			}
		}()
	}
}

// TestExchangeDeliversInOneRun: two ranks exchange windows, each sending
// before either polls. A progress pass handles at most 64 events; with no
// send completions queued ahead of the arrivals, one pass holds the whole
// window and delivers it under one matching-lock hold, so each rank's
// match.comm lock is taken once per posted receive plus once per window.
func TestExchangeDeliversInOneRun(t *testing.T) {
	const window, rounds = 48, 4
	opts := Stock()
	opts.Profile = true
	w := newTestWorld(t, 2, opts)
	// sent[round] releases both ranks once each has sent its window, and
	// done[round] once each has received the peer's, so a pass never sees
	// two rounds' arrivals.
	var sent, done [rounds]sync.WaitGroup
	for i := range sent {
		sent[i].Add(2)
		done[i].Add(2)
	}
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			p := w.Proc(r)
			th, c := p.NewThread(), p.CommWorld()
			defer th.Done()
			buf := make([]byte, 8)
			for round := 0; round < rounds; round++ {
				recvs := make([]*Request, window)
				sends := make([]*Request, window)
				var err error
				for i := range recvs {
					if recvs[i], err = c.Irecv(th, 1-r, 3, buf); err != nil {
						t.Error(err)
					}
				}
				for i := range sends {
					if sends[i], err = c.Isend(th, 1-r, 3, buf); err != nil {
						t.Error(err)
					}
				}
				// Both ranks' windows sit in the receive rings before
				// either polls.
				sent[round].Done()
				sent[round].Wait()
				if t.Failed() {
					return
				}
				if err := WaitAll(th, append(recvs, sends...)...); err != nil {
					t.Error(err)
				}
				done[round].Done()
				done[round].Wait()
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for r := 0; r < 2; r++ {
		p := w.Proc(r)
		for _, s := range p.Profiler().Snapshot().Sites {
			if s.Name != "match.comm" || s.Comm != p.CommWorld().ID() {
				continue
			}
			delivered := int64(window * rounds)
			if holds := s.Acquisitions - delivered; holds != rounds {
				t.Errorf("rank %d: %d matching-lock holds delivered %d messages, want %d (one per window)",
					r, holds, delivered, rounds)
			}
		}
	}
}
