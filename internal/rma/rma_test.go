package rma

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cri"
	"repro/internal/hw"
	"repro/internal/spc"
	"repro/internal/transport"
)

func newWinPair(t testing.TB, opts core.Options, size int) (*core.World, []*Win) {
	t.Helper()
	return newWins(t, 2, opts, size)
}

// newWins builds a world of the given number of ranks and a window of size
// bytes per member over a communicator of all of them.
func newWins(t testing.TB, ranks int, opts core.Options, size int) (*core.World, []*Win) {
	t.Helper()
	w, err := core.NewWorld(hw.Fast(), ranks, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	members := make([]int, ranks)
	for r := range members {
		members[r] = r
	}
	comms, err := w.NewComm(members)
	if err != nil {
		t.Fatal(err)
	}
	wins, err := Allocate(comms, size)
	if err != nil {
		t.Fatal(err)
	}
	return w, wins
}

func TestPutFlushVisibility(t *testing.T) {
	w, wins := newWinPair(t, core.Stock(), 64)
	th := w.Proc(0).NewThread()
	if err := wins[0].Lock(1); err != nil {
		t.Fatal(err)
	}
	if err := wins[0].Put(th, 1, 8, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := wins[0].Flush(th, 1); err != nil {
		t.Fatal(err)
	}
	if got := string(wins[1].Local()[8:13]); got != "hello" {
		t.Fatalf("target window = %q", got)
	}
	if wins[0].Pending(1) != 0 {
		t.Fatalf("pending after flush = %d", wins[0].Pending(1))
	}
	if err := wins[0].Unlock(th, 1); err != nil {
		t.Fatal(err)
	}
}

func TestGetReadsRemote(t *testing.T) {
	w, wins := newWinPair(t, core.Stock(), 32)
	copy(wins[1].Local()[4:], "data")
	th := w.Proc(0).NewThread()
	wins[0].LockAll()
	dst := make([]byte, 4)
	if err := wins[0].Get(th, 1, 4, dst); err != nil {
		t.Fatal(err)
	}
	if err := wins[0].Flush(th, 1); err != nil {
		t.Fatal(err)
	}
	if string(dst) != "data" {
		t.Fatalf("Get = %q", dst)
	}
	if err := wins[0].UnlockAll(th); err != nil {
		t.Fatal(err)
	}
}

func TestAccumulateSum(t *testing.T) {
	w, wins := newWinPair(t, core.Stock(), 16)
	th := w.Proc(0).NewThread()
	wins[0].LockAll()
	for i := 0; i < 5; i++ {
		if err := wins[0].Accumulate(th, 1, 0, []int64{3}, transport.AccSum); err != nil {
			t.Fatal(err)
		}
	}
	if err := wins[0].UnlockAll(th); err != nil {
		t.Fatal(err)
	}
	var got int64
	for i := 7; i >= 0; i-- {
		got = got<<8 | int64(wins[1].Local()[i])
	}
	if got != 15 {
		t.Fatalf("accumulated = %d, want 15", got)
	}
}

func TestEpochEnforcement(t *testing.T) {
	w, wins := newWinPair(t, core.Stock(), 16)
	th := w.Proc(0).NewThread()
	if err := wins[0].Put(th, 1, 0, []byte("x")); !errors.Is(err, ErrNoEpoch) {
		t.Fatalf("Put outside epoch: err = %v, want ErrNoEpoch", err)
	}
	if err := wins[0].Unlock(th, 1); err == nil {
		t.Fatal("Unlock without Lock succeeded")
	}
	if err := wins[0].Lock(1); err != nil {
		t.Fatal(err)
	}
	if err := wins[0].Put(th, 1, 0, []byte("x")); err != nil {
		t.Fatalf("Put inside epoch failed: %v", err)
	}
	if err := wins[0].Unlock(th, 1); err != nil {
		t.Fatal(err)
	}
}

// TestRefusedUnlockAllKeepsEpochs: an UnlockAll without LockAll is refused
// and changes no epoch count — neither on a target that had no epoch open
// nor on one that had. Were a count taken below zero, a later Lock would
// bring it only back to zero, and the next operation would fail outside its
// epoch.
func TestRefusedUnlockAllKeepsEpochs(t *testing.T) {
	w, wins := newWinPair(t, core.Stock(), 16)
	win := wins[0]
	th := w.Proc(0).NewThread()
	if err := win.UnlockAll(th); err == nil {
		t.Fatal("UnlockAll without LockAll succeeded")
	}
	if err := win.Lock(0); err != nil {
		t.Fatal(err)
	}
	if err := win.Put(th, 0, 0, []byte("self")); err != nil {
		t.Fatalf("Put inside a Lock(0) epoch after a refused UnlockAll: %v", err)
	}
	// Target 0's epoch is open, target 1's is not: the refusal must leave
	// target 0's open.
	if err := win.UnlockAll(th); err == nil {
		t.Fatal("UnlockAll with target 1 not locked succeeded")
	}
	if err := win.Put(th, 0, 4, []byte("more")); err != nil {
		t.Fatalf("Put to target 0 after UnlockAll was refused on target 1: %v", err)
	}
	if err := win.Unlock(th, 0); err != nil {
		t.Fatal(err)
	}
	if err := win.Put(th, 0, 0, []byte("x")); !errors.Is(err, ErrNoEpoch) {
		t.Fatalf("Put after the epoch closed: err = %v, want ErrNoEpoch", err)
	}
	if got := string(win.Local()[:8]); got != "selfmore" {
		t.Fatalf("window = %q", got)
	}
	// Racing LockAll/UnlockAll pairs never leave a count below zero.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := w.Proc(0).NewThread()
			for i := 0; i < 200; i++ {
				win.LockAll()
				if err := win.UnlockAll(th); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := range win.locked {
		if n := win.locked[i].Load(); n != 0 {
			t.Fatalf("target %d: epoch count %d after balanced LockAll/UnlockAll pairs", i, n)
		}
	}
}

func TestTargetValidation(t *testing.T) {
	w, wins := newWinPair(t, core.Stock(), 16)
	th := w.Proc(0).NewThread()
	if err := wins[0].Put(th, 7, 0, nil); err == nil {
		t.Fatal("Put to target 7 in group of 2 succeeded")
	}
	if err := wins[0].Lock(-1); err == nil {
		t.Fatal("Lock(-1) succeeded")
	}
	if err := wins[0].Flush(th, 9); err == nil {
		t.Fatal("Flush(9) succeeded")
	}
}

func TestOutOfBoundsPutFails(t *testing.T) {
	w, wins := newWinPair(t, core.Stock(), 8)
	th := w.Proc(0).NewThread()
	wins[0].LockAll()
	err := wins[0].Put(th, 1, 4, []byte("too long for 8"))
	if err == nil {
		t.Fatal("out-of-bounds Put succeeded")
	}
	if wins[0].Pending(1) != 0 {
		t.Fatal("failed Put left a pending count")
	}
}

func TestNewValidation(t *testing.T) {
	w, err := core.NewWorld(hw.Fast(), 2, core.Stock())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	comms, _ := w.NewComm([]int{0, 1})
	if _, err := New(nil, nil); err == nil {
		t.Fatal("New with no comms succeeded")
	}
	if _, err := New(comms, []int{8}); err == nil {
		t.Fatal("New with mismatched sizes succeeded")
	}
	if _, err := New([]*core.Comm{comms[1], comms[0]}, []int{8, 8}); err == nil {
		t.Fatal("New with out-of-order handles succeeded")
	}
}

// TestNewRefusesNegativeSize: a negative window size, on any member, is an
// error from New and from Allocate, not a panic in make.
func TestNewRefusesNegativeSize(t *testing.T) {
	w, err := core.NewWorld(hw.Fast(), 2, core.Stock())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	comms, _ := w.NewComm([]int{0, 1})
	for _, sizes := range [][]int{{8, -1}, {-8, 8}} {
		if wins, err := New(comms, sizes); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("New(sizes %v) = %v, %v; want the negative-size refusal", sizes, wins, err)
		}
	}
	if wins, err := Allocate(comms, -1); err == nil {
		t.Errorf("Allocate(-1) = %v, want an error", wins)
	}
}

func TestDifferentWindowSizes(t *testing.T) {
	w, err := core.NewWorld(hw.Fast(), 3, core.Stock())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	comms, _ := w.NewComm([]int{0, 1, 2})
	wins, err := New(comms, []int{0, 100, 50})
	if err != nil {
		t.Fatal(err)
	}
	if wins[0].Size(0) != 0 || wins[0].Size(1) != 100 || wins[0].Size(2) != 50 {
		t.Fatal("per-member sizes wrong")
	}
	th := w.Proc(0).NewThread()
	wins[0].LockAll()
	if err := wins[0].Put(th, 1, 90, bytes.Repeat([]byte{1}, 10)); err != nil {
		t.Fatal(err)
	}
	if err := wins[0].Put(th, 2, 45, bytes.Repeat([]byte{1}, 10)); err == nil {
		t.Fatal("Put past target 2's 50-byte window succeeded")
	}
	if err := wins[0].UnlockAll(th); err != nil {
		t.Fatal(err)
	}
}

func TestSPCCounters(t *testing.T) {
	w, wins := newWinPair(t, core.Stock(), 64)
	th := w.Proc(0).NewThread()
	wins[0].LockAll()
	_ = wins[0].Put(th, 1, 0, []byte("a"))
	_ = wins[0].Get(th, 1, 0, make([]byte, 1))
	_ = wins[0].Accumulate(th, 1, 8, []int64{1}, transport.AccSum)
	// The two single-lane atomics are accumulates to the counters.
	if _, err := wins[0].FetchAndOp(th, 1, 16, 1, transport.AccSum); err != nil {
		t.Fatal(err)
	}
	if _, err := wins[0].CompareAndSwap(th, 1, 24, 0, 1); err != nil {
		t.Fatal(err)
	}
	// A refused operation is charged nowhere.
	if err := wins[0].Put(th, 1, 60, []byte("too long")); err == nil {
		t.Fatal("out-of-bounds Put succeeded")
	}
	_ = wins[0].UnlockAll(th)
	s := w.Proc(0).SPCSnapshot()
	if s.Get(spc.PutsIssued) != 1 || s.Get(spc.GetsIssued) != 1 || s.Get(spc.AccumulatesIssued) != 3 {
		t.Fatalf("counters: puts=%d gets=%d accs=%d, want 1, 1, 3", s.Get(spc.PutsIssued), s.Get(spc.GetsIssued), s.Get(spc.AccumulatesIssued))
	}
	if s.Get(spc.FlushCalls) == 0 {
		t.Fatal("flush_calls not counted")
	}
}

// TestMultithreadedPutFlush is the RMA-MT pattern: N threads, each putting
// into a disjoint slice of the target window, then flushing. Run under all
// instance configurations.
func TestMultithreadedPutFlush(t *testing.T) {
	configs := []struct {
		name string
		opts core.Options
	}{
		{"single", core.Stock()},
		{"rr", core.CRIsConcurrent(4, cri.RoundRobin)},
		{"dedicated", core.CRIsConcurrent(4, cri.Dedicated)},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			const (
				threads = 4
				chunk   = 32
				rounds  = 50
			)
			w, wins := newWinPair(t, cfg.opts, threads*chunk)
			wins[0].LockAll()
			var wg sync.WaitGroup
			for g := 0; g < threads; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					th := w.Proc(0).NewThread()
					src := bytes.Repeat([]byte{byte(g + 1)}, chunk)
					for r := 0; r < rounds; r++ {
						if err := wins[0].Put(th, 1, g*chunk, src); err != nil {
							t.Error(err)
							return
						}
						if err := wins[0].Flush(th, 1); err != nil {
							t.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			for g := 0; g < threads; g++ {
				for i := 0; i < chunk; i++ {
					if wins[1].Local()[g*chunk+i] != byte(g+1) {
						t.Fatalf("thread %d byte %d = %d", g, i, wins[1].Local()[g*chunk+i])
					}
				}
			}
		})
	}
}

// TestConcurrentAccumulateAtomicity: concurrent accumulates from many
// threads across procs must sum exactly.
func TestConcurrentAccumulateAtomicity(t *testing.T) {
	w, wins := newWinPair(t, core.CRIsConcurrent(4, cri.Dedicated), 8)
	const (
		threads = 4
		adds    = 200
	)
	wins[0].LockAll()
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := w.Proc(0).NewThread()
			for i := 0; i < adds; i++ {
				if err := wins[0].Accumulate(th, 1, 0, []int64{1}, transport.AccSum); err != nil {
					t.Error(err)
					return
				}
			}
			if err := wins[0].Flush(th, 1); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	var got int64
	for i := 7; i >= 0; i-- {
		got = got<<8 | int64(wins[1].Local()[i])
	}
	if got != threads*adds {
		t.Fatalf("sum = %d, want %d", got, threads*adds)
	}
}

// TestFreeDeregisters: a freed window's region is gone from its device, and
// a put through a stale handle to it is refused as an unavailable region.
func TestFreeDeregisters(t *testing.T) {
	w, wins := newWinPair(t, core.Stock(), 16)
	wins[1].Free()
	th := w.Proc(0).NewThread()
	wins[0].LockAll()
	// wins[0] still holds the freed region (a stale handle), but the device
	// let go of its buffer: the handle addresses no byte.
	if wins[0].Size(1) != 0 {
		t.Fatalf("freed region still spans %d bytes", wins[0].Size(1))
	}
	if err := wins[0].Put(th, 1, 0, []byte{1}); !errors.Is(err, transport.ErrRegionUnavailable) {
		t.Fatalf("a put into a freed window = %v, want ErrRegionUnavailable", err)
	}
}

// TestPutAllocations: a put costs nothing on the heap — it carries no
// completion token, the CRI release function is prebuilt, and the flush,
// whose marker token is a word of the window's counter slab, posts and reaps
// it allocating nothing. The options are the benchmark's
// inproc_rma_put_8B_mt ones.
func TestPutAllocations(t *testing.T) {
	w, wins := newWinPair(t, core.CRIsConcurrent(2, cri.Dedicated), 64)
	th := w.Proc(0).NewThread()
	wins[0].LockAll()
	src := []byte("12345678")
	pinAllocs(t, "rma.Put + Flush (sim, dedicated CRIs)", func() error {
		if err := wins[0].Put(th, 1, 8, src); err != nil {
			return err
		}
		return wins[0].Flush(th, 1)
	})
	if err := wins[0].UnlockAll(th); err != nil {
		t.Fatal(err)
	}
}

// TestOneSidedAllocations: the other one-sided operations are as free as a
// put — Get and Accumulate are each followed by a Flush, and the fetching
// atomics flush themselves and land their result in the thread's own word.
func TestOneSidedAllocations(t *testing.T) {
	w, wins := newWinPair(t, core.CRIsConcurrent(2, cri.Dedicated), 64)
	th := w.Proc(0).NewThread()
	win := wins[0]
	win.LockAll()
	dst := make([]byte, 8)
	operand := []int64{1}
	for _, row := range []struct {
		name string
		op   func() error
	}{
		{"rma.Get + Flush", func() error {
			if err := win.Get(th, 1, 8, dst); err != nil {
				return err
			}
			return win.Flush(th, 1)
		}},
		{"rma.Accumulate + Flush", func() error {
			if err := win.Accumulate(th, 1, 16, operand, transport.AccSum); err != nil {
				return err
			}
			return win.Flush(th, 1)
		}},
		{"rma.FetchAndOp", func() error {
			_, err := win.FetchAndOp(th, 1, 24, 1, transport.AccSum)
			return err
		}},
		{"rma.CompareAndSwap", func() error {
			_, err := win.CompareAndSwap(th, 1, 32, 0, 1)
			return err
		}},
	} {
		pinAllocs(t, row.name+" (sim, dedicated CRIs)", row.op)
	}
	if err := win.UnlockAll(th); err != nil {
		t.Fatal(err)
	}
}

// pinAllocs pins op at zero heap allocations per run and logs the row
// `make allocs` collects into its table.
func pinAllocs(t *testing.T, name string, op func() error) {
	t.Helper()
	const pinned = 0
	got := testing.AllocsPerRun(200, func() {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs-pin | %-46s | %5.2f | %5.2f", name, got, float64(pinned))
	if got > pinned {
		t.Fatalf("%s allocates %v times per run, pinned at %d", name, got, pinned)
	}
}

// BenchmarkPutFlush is the benchmark's inproc_rma_put_8B_mt traffic with the
// origin thread count as the axis — Fig. 6's shape on the real engine: each
// thread has a dedicated instance and its own half of the target window, and
// one iteration is a burst of 1000 8-byte puts to distinct offsets, then a
// flush, on every thread. puts/s at threads=2 against threads=1 is what
// initiator-side sharing costs; -benchtime 2000x is 2 M puts per thread.
func BenchmarkPutFlush(b *testing.B) {
	const (
		burst = 1000
		size  = 8
	)
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			w, wins := newWinPair(b, core.CRIsConcurrent(2, cri.Dedicated), threads*burst*size)
			win := wins[0]
			win.LockAll()
			ths := make([]*core.Thread, threads)
			for g := range ths {
				ths[g] = w.Proc(0).NewThread()
			}
			src := make([]byte, burst*size)
			var wg sync.WaitGroup
			b.ResetTimer()
			for g, th := range ths {
				wg.Add(1)
				go func() {
					defer wg.Done()
					base := g * len(src)
					for i := 0; i < b.N; i++ {
						for off := 0; off < len(src); off += size {
							if err := win.Put(th, 1, base+off, src[off:off+size]); err != nil {
								b.Error(err)
								return
							}
						}
						if err := win.Flush(th, 1); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(threads*b.N*burst)/b.Elapsed().Seconds(), "puts/s")
		})
	}
}
