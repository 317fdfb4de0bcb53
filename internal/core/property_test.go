package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cri"
	"repro/internal/progress"
)

// TestQuickRandomTrafficConserved: for random (seeded) traffic matrices —
// any number of procs, random sources/destinations/tags/sizes — every
// message is delivered exactly once with intact payload.
func TestQuickRandomTrafficConserved(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3) // 2-4 procs
		opts := Options{
			NumInstances: 1 + rng.Intn(3),
			Assignment:   cri.Assignment(rng.Intn(2)),
			Progress:     progress.Mode(rng.Intn(2)),
		}
		w, err := NewWorld(hwFast(), n, opts)
		if err != nil {
			t.Log(err)
			return false
		}
		defer w.Close()

		// Build a random traffic plan: each directed (src,dst) pair gets a
		// random number of messages with deterministic payloads.
		type flow struct{ src, dst, count int }
		var flows []flow
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				flows = append(flows, flow{s, d, rng.Intn(12)})
			}
		}
		// Every third message straddles the eager limit, so both protocols
		// share each (src, dst) stream.
		const nearLimit = DefaultEagerLimit - 50
		payload := func(src, dst, i int) []byte {
			ln := 1 + (src*31+dst*17+i*13)%100
			if i%3 == 0 {
				ln += nearLimit
			}
			b := make([]byte, ln)
			for k := range b {
				b[k] = byte(src ^ dst ^ i ^ k)
			}
			return b
		}

		var wg sync.WaitGroup
		okCh := make(chan bool, 2*len(flows))
		for _, f := range flows {
			f := f
			wg.Add(2)
			go func() { // sender
				defer wg.Done()
				th := w.Proc(f.src).NewThread()
				c := w.Proc(f.src).CommWorld()
				for i := 0; i < f.count; i++ {
					if err := c.Send(th, f.dst, int32(f.src*100+f.dst), payload(f.src, f.dst, i)); err != nil {
						okCh <- false
						return
					}
				}
				okCh <- true
			}()
			go func() { // receiver
				defer wg.Done()
				th := w.Proc(f.dst).NewThread()
				c := w.Proc(f.dst).CommWorld()
				buf := make([]byte, nearLimit+128)
				for i := 0; i < f.count; i++ {
					st, err := c.Recv(th, f.src, int32(f.src*100+f.dst), buf)
					if err != nil {
						okCh <- false
						return
					}
					if !bytes.Equal(buf[:st.Count], payload(f.src, f.dst, i)) {
						okCh <- false
						return
					}
				}
				okCh <- true
			}()
		}
		wg.Wait()
		close(okCh)
		for ok := range okCh {
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBarrierNeverLosesRanks: random world sizes, every rank reaches
// the barrier before any rank leaves it.
func TestQuickBarrierNeverLosesRanks(t *testing.T) {
	prop := func(sizeSeed uint8) bool {
		n := 1 + int(sizeSeed%6)
		w, err := NewWorld(hwFast(), n, Stock())
		if err != nil {
			return false
		}
		defer w.Close()
		var mu sync.Mutex
		arrived := 0
		violated := false
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				th := w.Proc(r).NewThread()
				mu.Lock()
				arrived++
				mu.Unlock()
				if err := w.Proc(r).CommWorld().Barrier(th); err != nil {
					mu.Lock()
					violated = true
					mu.Unlock()
					return
				}
				mu.Lock()
				if arrived != n {
					violated = true
				}
				mu.Unlock()
			}(r)
		}
		wg.Wait()
		return !violated
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEagerRendezvousBoundary: messages straddling the eager limit
// (limit-1, limit, limit+1, a random size above it, 2*limit) all round-trip
// intact.
func TestQuickEagerRendezvousBoundary(t *testing.T) {
	const limit = DefaultEagerLimit
	prop := func(over uint8) bool {
		w, err := NewWorld(hwFast(), 2, Stock())
		if err != nil {
			return false
		}
		defer w.Close()
		t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
		sizes := []int{limit - 1, limit, limit + 1, limit + 2 + int(over), 2 * limit, 0}
		done := make(chan bool, 1)
		go func() {
			c := w.Proc(0).CommWorld()
			for i, sz := range sizes {
				msg := bytes.Repeat([]byte{byte(i + 1)}, sz)
				if err := c.Send(t0, 1, int32(i), msg); err != nil {
					done <- false
					return
				}
			}
			done <- true
		}()
		c := w.Proc(1).CommWorld()
		buf := make([]byte, 2*limit+16)
		for i, sz := range sizes {
			st, err := c.Recv(t1, 0, int32(i), buf)
			if err != nil || st.Count != sz {
				return false
			}
			for k := 0; k < sz; k++ {
				if buf[k] != byte(i+1) {
					return false
				}
			}
		}
		return <-done
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestManyCommunicatorsIsolated: traffic on k communicators with identical
// (source, tag) coordinates never crosses.
func TestManyCommunicatorsIsolated(t *testing.T) {
	const k = 6
	w, err := NewWorld(hwFast(), 2, CRIsConcurrent(4, cri.Dedicated))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	comms := make([][]*Comm, k)
	for i := range comms {
		comms[i], err = w.NewComm([]int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			th := w.Proc(0).NewThread()
			for m := 0; m < 50; m++ {
				if err := comms[i][0].Send(th, 1, 1, []byte{byte(i), byte(m)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			th := w.Proc(1).NewThread()
			buf := make([]byte, 2)
			for m := 0; m < 50; m++ {
				if _, err := comms[i][1].Recv(th, 0, 1, buf); err != nil {
					t.Error(err)
					return
				}
				if buf[0] != byte(i) || buf[1] != byte(m) {
					t.Errorf("comm %d: message (%d,%d) crossed or reordered", i, buf[0], buf[1])
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestBidirectionalTraffic: both directions on one pair simultaneously —
// the full-duplex case the pairwise benchmark doesn't cover.
func TestBidirectionalTraffic(t *testing.T) {
	w, err := NewWorld(hwFast(), 2, CRIsConcurrent(2, cri.Dedicated))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const msgs = 200
	run := func(me, peer int) error {
		th := w.Proc(me).NewThread()
		c := w.Proc(me).CommWorld()
		var sendErr error
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			th2 := w.Proc(me).NewThread()
			for i := 0; i < msgs; i++ {
				if err := c.Send(th2, peer, 1, []byte{byte(i)}); err != nil {
					sendErr = err
					return
				}
			}
		}()
		buf := make([]byte, 1)
		for i := 0; i < msgs; i++ {
			if _, err := c.Recv(th, peer, 1, buf); err != nil {
				return err
			}
			if buf[0] != byte(i) {
				return fmt.Errorf("rank %d: got %d want %d", me, buf[0], i)
			}
		}
		wg.Wait()
		return sendErr
	}
	errCh := make(chan error, 2)
	go func() { errCh <- run(0, 1) }()
	go func() { errCh <- run(1, 0) }()
	for i := 0; i < 2; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}
