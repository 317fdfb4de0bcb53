package rma

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/cri"
	"repro/internal/spc"
)

// TestPendingNeverNegative: with more threads than instances a flow's
// marker can be posted, and reaped, by a thread other than the ones whose
// operations it covers, while they keep issuing. Pending reads each flow's
// completed word before its issued word; read the other way round, a marker
// reaped between the two reads covers operations issued after the first,
// the term reads below zero, and it hides another thread's outstanding
// operations. Four threads share two instances round-robin; a watcher
// samples the count throughout, and every thread checks its own bytes after
// its own flush. Reading issued first fails this test in plain runs and
// under the race detector (make race-lockfree).
func TestPendingNeverNegative(t *testing.T) {
	const (
		threads = 4
		burst   = 16
		size    = 8
		rounds  = 1500
	)
	w, wins := newWinPair(t, core.CRIsConcurrent(2, cri.RoundRobin), threads*burst*size)
	win := wins[0]
	win.LockAll()

	var stop atomic.Bool
	var lowest atomic.Int64
	watcher := make(chan struct{})
	go func() {
		defer close(watcher)
		for !stop.Load() {
			if n := win.Pending(1); n < lowest.Load() {
				lowest.Store(n)
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := w.Proc(0).NewThread()
			base := g * burst * size
			src := make([]byte, burst*size)
			for r := 0; r < rounds; r++ {
				for i := range src {
					src[i] = byte(r + g)
				}
				for off := 0; off < len(src); off += size {
					if err := win.Put(th, 1, base+off, src[off:off+size]); err != nil {
						t.Error(err)
						return
					}
				}
				if err := win.Flush(th, 1); err != nil {
					t.Error(err)
					return
				}
				if n := win.Pending(1); n < 0 {
					t.Errorf("thread %d round %d: Pending(1) = %d after Flush", g, r, n)
					return
				}
				if !bytes.Equal(wins[1].Local()[base:base+len(src)], src) {
					t.Errorf("thread %d round %d: own range not in the target after own Flush", g, r)
					return
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	<-watcher
	if n := lowest.Load(); n < 0 {
		t.Fatalf("Pending(1) sampled at %d: a flow's term read below zero", n)
	}
	if n := win.Pending(1); n != 0 {
		t.Fatalf("Pending(1) = %d after every thread flushed", n)
	}
}

// TestOpCountersAttributedToCRI: a one-sided operation is charged to the
// instance that carried it, not to the communicator — two dedicated threads
// issuing n puts each show n on each instance, nothing on any communicator,
// and 2n in the process total every roll-up reads.
func TestOpCountersAttributedToCRI(t *testing.T) {
	const n = 200
	w, wins := newWinPair(t, core.CRIsConcurrent(2, cri.Dedicated), 64)
	win := wins[0]
	win.LockAll()
	ths := []*core.Thread{w.Proc(0).NewThread(), w.Proc(0).NewThread()}
	src := []byte("12345678")
	// A thread's first operation assigns its instance from the round-robin
	// counter the progress sweep also advances: take both assignments before
	// anything progresses, so the threads hold instances 0 and 1.
	for g, th := range ths {
		if err := win.Put(th, 1, g*8, src); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g, th := range ths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i < n; i++ {
				if err := win.Put(th, 1, g*8, src); err != nil {
					t.Error(err)
					return
				}
			}
			if err := win.Flush(th, 1); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	ps := w.Proc(0).TelemetryStats()
	if len(ps.PerCRI) != 2 {
		t.Fatalf("%d per-CRI entries, want 2", len(ps.PerCRI))
	}
	for _, c := range ps.PerCRI {
		if got := c.Counters.Get(spc.PutsIssued); got != n {
			t.Errorf("cri %d: puts_issued = %d, want %d", c.Index, got, n)
		}
	}
	for _, c := range ps.PerComm {
		if got := c.Counters.Get(spc.PutsIssued); got != 0 {
			t.Errorf("comm %d: puts_issued = %d, want 0 (op counts are per-CRI)", c.ID, got)
		}
	}
	if got := ps.Process.Get(spc.PutsIssued); got != 2*n {
		t.Errorf("process puts_issued = %d, want %d", got, 2*n)
	}
	if got := ps.Process.Get(spc.FlushCalls); got != 2 {
		t.Errorf("process flush_calls = %d, want 2", got)
	}
}

// TestCounterLayout: each instance's issued, completed and marker words
// share one row, no two instances' rows share a cache line, and the epoch
// words share one with neither — the property the put path's scaling rests
// on, whatever the group size and wherever the allocator puts the slab.
func TestCounterLayout(t *testing.T) {
	// disjoint fails if two rows, each a list of word addresses, have a
	// word on the same 64-byte line.
	disjoint := func(t *testing.T, rows [][]uintptr) {
		t.Helper()
		owner := map[uintptr]int{} // line → the row that has a word on it
		for i, row := range rows {
			for _, addr := range row {
				line := addr / 64
				if j, taken := owner[line]; taken && j != i {
					t.Fatalf("rows %d and %d share cache line %#x", j, i, line*64)
				}
				owner[line] = i
			}
		}
	}
	words := func(flows []flow) []uintptr {
		var out []uintptr
		for c := range flows {
			f := &flows[c]
			for _, w := range []*atomic.Int64{&f.issued, &f.completed, &f.seq} {
				out = append(out, uintptr(unsafe.Pointer(w)))
			}
		}
		return out
	}
	epoch := func(locked []atomic.Int64) []uintptr {
		var out []uintptr
		for c := range locked {
			out = append(out, uintptr(unsafe.Pointer(&locked[c])))
		}
		return out
	}
	for _, n := range []int{1, 2, 7, 8, 9, 17} {
		for _, k := range []int{1, 2, 5} {
			rows := newRows[flow](k, n)
			if len(rows) != k || len(rows[0]) != n {
				t.Fatalf("newRows(%d, %d): %d rows of %d", k, n, len(rows), len(rows[0]))
			}
			var each [][]uintptr
			for _, row := range rows {
				each = append(each, words(row))
			}
			disjoint(t, each)
			epochs := newRows[atomic.Int64](k, n)
			each = each[:0]
			for _, row := range epochs {
				each = append(each, epoch(row))
			}
			disjoint(t, each)
		}
	}
	// The window itself: per instance, the flows to every target in one
	// row; then the epoch words.
	_, wins := newWins(t, 3, core.CRIsConcurrent(2, cri.Dedicated), 8)
	win := wins[0]
	if len(win.flows) != 2 || len(win.flows[0]) != 3 || len(win.flows[1]) != 3 || len(win.locked) != 3 {
		t.Fatalf("window of 3 ranks over 2 instances: %d flow rows of %d and %d, %d epoch words",
			len(win.flows), len(win.flows[0]), len(win.flows[1]), len(win.locked))
	}
	disjoint(t, [][]uintptr{words(win.flows[0]), words(win.flows[1]), epoch(win.locked)})
}

// TestFlushAllAcrossInstances: operations outstanding on two targets, carried
// by two instances, all complete under one FlushAll — it scans every row.
func TestFlushAllAcrossInstances(t *testing.T) {
	w, wins := newWins(t, 3, core.CRIsConcurrent(2, cri.Dedicated), 16)
	win := wins[0]
	win.LockAll()
	// Nothing progresses between the puts, so the two threads are assigned
	// instances 0 and 1 and every completion stays queued.
	ths := []*core.Thread{w.Proc(0).NewThread(), w.Proc(0).NewThread()}
	const puts = 5
	for i := 0; i < puts; i++ {
		if err := win.Put(ths[0], 1, 0, []byte("to rank1")); err != nil {
			t.Fatal(err)
		}
		if err := win.Put(ths[1], 2, 8, []byte("to rank2")); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := win.flows[0][1].issued.Load(), win.flows[1][2].issued.Load(); a != puts || b != puts {
		t.Fatalf("issued: instance 0 → target 1 = %d, instance 1 → target 2 = %d, want %d each", a, b, puts)
	}
	if a, b := win.flows[0][1].completed.Load(), win.flows[1][2].completed.Load(); a != 0 || b != 0 {
		t.Fatalf("completed before any progress: %d and %d, want 0", a, b)
	}
	if win.Pending(1) != puts || win.Pending(2) != puts || win.Pending(0) != 0 {
		t.Fatalf("Pending = %d, %d, %d for targets 0, 1, 2", win.Pending(0), win.Pending(1), win.Pending(2))
	}
	if err := win.FlushAll(ths[0]); err != nil {
		t.Fatal(err)
	}
	for target := 0; target < 3; target++ {
		if n := win.Pending(target); n != 0 {
			t.Fatalf("Pending(%d) = %d after FlushAll", target, n)
		}
	}
	if a, b := win.flows[0][1].completed.Load(), win.flows[1][2].completed.Load(); a != puts || b != puts {
		t.Fatalf("completed after FlushAll: %d and %d, want %d each", a, b, puts)
	}
	if got := string(wins[1].Local()[:8]); got != "to rank1" {
		t.Fatalf("rank 1 window = %q", got)
	}
	if got := string(wins[2].Local()[8:]); got != "to rank2" {
		t.Fatalf("rank 2 window = %q", got)
	}
	if err := win.UnlockAll(ths[0]); err != nil {
		t.Fatal(err)
	}
}
