package rma

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cri"
	"repro/internal/spc"
	"repro/internal/transport"
)

// flushDeadline bounds every wait in this file: a flush that has not
// returned by then is taken to wait forever.
const flushDeadline = 5 * time.Second

// within runs f on its own goroutine and fails the test if it has not
// returned within flushDeadline.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(flushDeadline):
		t.Fatalf("%s did not return within %v", what, flushDeadline)
	}
}

// dedicatedThreads returns n threads of rank 0 holding instances 0, 1, …
// round-robin: a thread's first operation assigns its instance from the
// counter the progress sweep also advances, so each takes its assignment
// with one put before anything progresses.
func dedicatedThreads(t *testing.T, w *core.World, win *Win, n int) []*core.Thread {
	t.Helper()
	ths := make([]*core.Thread, n)
	for g := range ths {
		ths[g] = w.Proc(0).NewThread()
		if err := win.Put(ths[g], 1, 0, []byte{0}); err != nil {
			t.Fatal(err)
		}
		if got, want := ths[g].State().Dedicated(), g%w.Proc(0).Pool().Len(); got != want {
			t.Fatalf("thread %d holds instance %d, want %d", g, got, want)
		}
	}
	return ths
}

// TestPutsPastQueueDepth: one thread issues four completion queues' worth of
// puts before it flushes. A put posts no completion, so none of them finds
// the queue full; the flush covers them all with one marker, every put lands
// once, and the flush returns. (TestFlushMarkerPastQueueDepth is the full
// queue.)
func TestPutsPastQueueDepth(t *testing.T) {
	const depth, puts, size = 64, 4 * 64, 8
	opts := core.Stock()
	opts.QueueDepth = depth
	w, wins := newWinPair(t, opts, puts*size)
	win := wins[0]
	win.LockAll()
	th := w.Proc(0).NewThread()
	want := make([]byte, puts*size)
	for i := range want {
		want[i] = byte(i*7 + 1)
	}
	within(t, "puts past the queue depth and their flush", func() {
		for off := 0; off < len(want); off += size {
			if err := win.Put(th, 1, off, want[off:off+size]); err != nil {
				t.Error(err)
				return
			}
		}
		if err := win.Flush(th, 1); err != nil {
			t.Error(err)
		}
	})
	if !bytes.Equal(wins[1].Local(), want) {
		t.Fatal("target window does not hold every put after the flush")
	}
	if n := win.flows[0][1].issued.Load(); n != puts {
		t.Fatalf("issued = %d, want %d: a refused put was counted, or a put was issued twice", n, puts)
	}
	if n := win.Pending(1); n != 0 {
		t.Fatalf("Pending(1) = %d after Flush", n)
	}
}

// reaped counts the completions a progress pass hands it (core.Completer).
type reaped struct{ n int }

func (r *reaped) Complete(transport.CQE) { r.n++ }

// TestFlushMarkerPastQueueDepth: the flush's marker finds its instance's
// completion queue full — of signaled completions nobody has reaped — and the
// context refuses it (transport.ErrCQFull). Nobody else polls the instance
// while the flushing thread holds its lock, so that thread drains the
// instance itself and retries: the flush returns, the put is in the target,
// and the queued completions are reaped. Two-sided sends cannot fill the
// queue (they post no completion), so the test fills it with signaled
// zero-byte puts issued on the contexts directly.
func TestFlushMarkerPastQueueDepth(t *testing.T) {
	const depth = 64
	opts := core.Stock()
	opts.QueueDepth = depth
	w, wins := newWinPair(t, opts, 8)
	win := wins[0]
	win.LockAll()
	th := w.Proc(0).NewThread()
	refusals := func() int64 { return w.Proc(0).TelemetryStats().Process.Get(spc.RingFullWaits) }
	pool := w.Proc(0).Pool()
	var fill reaped
	for i := 0; i < pool.Len(); i++ {
		inst := pool.Get(i)
		inst.Lock()
		for range depth {
			if err := win.ctxs[i].Put(win.regions[1], 0, nil, &fill); err != nil {
				t.Fatal(err)
			}
		}
		inst.Unlock()
	}
	if n := refusals(); n != 0 {
		t.Fatalf("%d refusals while filling the queues to their depth", n)
	}
	within(t, "a flush whose marker finds the queue full", func() {
		if err := win.Put(th, 1, 0, []byte("marked!!")); err != nil {
			t.Error(err)
			return
		}
		if err := win.Flush(th, 1); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		return
	}
	if n := refusals(); n == 0 {
		t.Fatal("the marker was never refused: the queue was not full")
	}
	if got := string(wins[1].Local()); got != "marked!!" {
		t.Fatalf("target window = %q after the flush", got)
	}
	if n := win.Pending(1); n != 0 {
		t.Fatalf("Pending(1) = %d after Flush", n)
	}
	if fill.n < depth {
		t.Fatalf("the flush reaped %d of the %d queued completions of its instance", fill.n, depth)
	}
}

// TestFlushLiveness: a flush waits for what was issued before it, not for a
// moment when nothing is outstanding. A second thread keeps putting past the
// queue depth and never flushes, so there is always an operation of its
// outstanding, and the first thread's markers on its instance contend with
// its puts for the lock; the first thread's flushes still return.
func TestFlushLiveness(t *testing.T) {
	const depth, rounds, size = 64, 20, 8
	opts := core.CRIsConcurrent(2, cri.Dedicated)
	opts.QueueDepth = depth
	w, wins := newWinPair(t, opts, 2*depth*size)
	win := wins[0]
	win.LockAll()
	ths := dedicatedThreads(t, w, win, 2)

	var stop atomic.Bool
	var putterErr error
	putter := make(chan struct{})
	go func() {
		defer close(putter)
		src := []byte("putter!!")
		for i := 0; !stop.Load(); i++ {
			if err := win.Put(ths[1], 1, depth*size+i%depth*size, src); err != nil {
				putterErr = err
				return
			}
		}
	}()
	within(t, "a flush beside a thread that never stops putting", func() {
		src := []byte("flusher!")
		for r := 0; r < rounds; r++ {
			for off := 0; off < depth*size; off += size {
				if err := win.Put(ths[0], 1, off, src); err != nil {
					t.Error(err)
					return
				}
			}
			if err := win.Flush(ths[0], 1); err != nil {
				t.Error(err)
				return
			}
			if err := win.FlushAll(ths[0]); err != nil {
				t.Error(err)
				return
			}
		}
	})
	stop.Store(true)
	<-putter
	if putterErr != nil {
		t.Fatal(putterErr)
	}
	if got := wins[1].Local()[:depth*size]; !bytes.Equal(got, bytes.Repeat([]byte("flusher!"), depth)) {
		t.Fatal("the flushing thread's puts are not all in the target")
	}
}

// TestFlushSurvivesFailedIssue: an operation the context refuses is never
// counted, so it can hold no flush back. A flush waits on an instance whose
// lock the test holds — an operation is outstanding there, and no marker can
// be posted or reaped for it — after it has finished with the other
// instance; an out-of-bounds put is then issued on that other instance, the
// lock is released, and the flush returns. Then the same under load: one
// thread mixes valid and failing puts while another flushes over and over.
func TestFlushSurvivesFailedIssue(t *testing.T) {
	w, wins := newWinPair(t, core.CRIsConcurrent(2, cri.Dedicated), 64)
	win := wins[0]
	win.LockAll()
	// ths[0] and ths[2] hold instance 0, ths[1] instance 1.
	ths := dedicatedThreads(t, w, win, 3)
	held := w.Proc(0).Pool().Get(1)
	held.Lock()
	// Its put (which no marker can cover while the lock is held) went out
	// above; the flush clears row 0 and waits on row 1.
	flushed := make(chan error, 1)
	go func() { flushed <- win.Flush(ths[0], 1) }()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-flushed:
		held.Unlock()
		t.Fatalf("Flush returned (%v) while an operation it covers could not complete", err)
	default:
	}
	if err := win.Put(ths[2], 1, 60, []byte("overflows")); err == nil {
		held.Unlock()
		t.Fatal("out-of-bounds Put succeeded")
	}
	held.Unlock()
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(flushDeadline):
		t.Fatalf("Flush did not return within %v of an out-of-bounds put", flushDeadline)
	}

	var stop atomic.Bool
	mixer := make(chan struct{})
	go func() {
		defer close(mixer)
		for i := 0; !stop.Load(); i++ {
			if i%2 == 0 {
				_ = win.Put(ths[1], 1, 8, []byte("in range"))
			} else if err := win.Put(ths[1], 1, 60, []byte("overflows")); err == nil {
				t.Error("out-of-bounds Put succeeded")
				return
			}
		}
	}()
	within(t, "flushes beside failing puts", func() {
		for i := 0; i < 500; i++ {
			if err := win.Flush(ths[0], 1); err != nil {
				t.Error(err)
				return
			}
		}
	})
	stop.Store(true)
	<-mixer
	for i := range win.flows {
		if is, done := win.flows[i][1].issued.Load(), win.flows[i][1].completed.Load(); done > is {
			t.Fatalf("instance %d: completed %d passed issued %d", i, done, is)
		}
	}
	if err := win.Flush(ths[0], 1); err != nil {
		t.Fatal(err)
	}
	if n := win.Pending(1); n != 0 {
		t.Fatalf("Pending(1) = %d once every thread stopped and a flush returned", n)
	}
}

// TestFlushHappensBefore: a put another thread issued before it signalled is
// covered by this thread's flush. Thread B puts a round's bytes and tells A
// over a channel; A flushes and must find them in the target. B never
// flushes.
func TestFlushHappensBefore(t *testing.T) {
	const rounds, size = 300, 64
	w, wins := newWinPair(t, core.CRIsConcurrent(2, cri.Dedicated), size)
	win := wins[0]
	win.LockAll()
	ths := dedicatedThreads(t, w, win, 2)
	put, next, quit := make(chan []byte), make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(put)
		for r := 0; r < rounds; r++ {
			src := bytes.Repeat([]byte{byte(r + 1)}, size)
			if err := win.Put(ths[1], 1, 0, src); err != nil {
				t.Error(err)
				return
			}
			select {
			case put <- src:
			case <-quit:
				return
			}
			select {
			case <-next:
			case <-quit:
				return
			}
		}
	}()
	within(t, "the flushing side", func() {
		defer close(quit)
		for src := range put {
			if err := win.Flush(ths[0], 1); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(wins[1].Local(), src) {
				t.Errorf("round %d: the other thread's put is not in the target after this thread's flush", src[0]-1)
				return
			}
			next <- struct{}{}
		}
	})
	wg.Wait()
}
