package ringbuf

import (
	"runtime"
	"sync"
	"testing"
)

func TestMPSCBasicFIFO(t *testing.T) {
	q := NewMPSC[int](4)
	if q.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", q.Cap())
	}
	for i := 0; i < 4; i++ {
		if !q.Push(i) {
			t.Fatalf("Push(%d) failed on non-full ring", i)
		}
	}
	if q.Push(99) {
		t.Fatal("Push succeeded on full ring")
	}
	for i := 0; i < 4; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = (%d, %v), want (%d, true)", v, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop succeeded on empty ring")
	}
}

// TestMPSCWraparound runs many laps over a tiny ring so every slot's
// sequence stamp cycles repeatedly; FIFO order must hold across laps.
func TestMPSCWraparound(t *testing.T) {
	q := NewMPSC[int](2)
	next := 0
	for lap := 0; lap < 10000; lap++ {
		if !q.Push(2*lap) || !q.Push(2*lap+1) {
			t.Fatalf("lap %d: push failed on empty ring", lap)
		}
		for i := 0; i < 2; i++ {
			v, ok := q.Pop()
			if !ok || v != next {
				t.Fatalf("lap %d: Pop = (%d, %v), want (%d, true)", lap, v, ok, next)
			}
			next++
		}
	}
}

func TestMPSCFullBoundaryRecovers(t *testing.T) {
	q := NewMPSC[int](2)
	q.Push(1)
	q.Push(2)
	if q.Push(3) {
		t.Fatal("Push on full ring succeeded")
	}
	if v, ok := q.Pop(); !ok || v != 1 {
		t.Fatalf("Pop = (%d, %v)", v, ok)
	}
	if !q.Push(3) {
		t.Fatal("Push failed after Pop freed a slot")
	}
}

func TestMPSCPopBatchPartial(t *testing.T) {
	q := NewMPSC[int](8)
	for i := 0; i < 6; i++ {
		q.Push(i)
	}
	dst := make([]int, 4)
	if n := q.PopBatch(dst); n != 4 {
		t.Fatalf("PopBatch = %d, want 4", n)
	}
	for i, v := range dst {
		if v != i {
			t.Fatalf("dst[%d] = %d, want %d", i, v, i)
		}
	}
	if n := q.PopBatch(dst); n != 2 || dst[0] != 4 || dst[1] != 5 {
		t.Fatalf("second PopBatch = %d (%v)", n, dst[:2])
	}
	if n := q.PopBatch(dst); n != 0 {
		t.Fatalf("PopBatch on empty ring = %d", n)
	}
}

func TestMPSCLenClamped(t *testing.T) {
	q := NewMPSC[int](4)
	if q.Len() != 0 {
		t.Fatalf("empty Len = %d", q.Len())
	}
	q.Push(1)
	q.Push(2)
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	q.Pop()
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
}

// TestMPSCConcurrentStress is the -race stress case from ISSUE 7: many
// producers push tagged values through a small ring while one consumer
// drains with a mix of Pop and PopBatch. Asserts conservation (every value
// pushed arrives exactly once) and per-producer FIFO (a producer's values
// arrive in its push order), the two properties the Vyukov stamps must
// preserve across wraparound under contention.
func TestMPSCConcurrentStress(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	if prev < 8 {
		runtime.GOMAXPROCS(8)
		defer runtime.GOMAXPROCS(prev)
	}

	const (
		producers = 8
		perProd   = 20000
		capacity  = 64 // small on purpose: force many laps and full cycles
	)
	q := NewMPSC[uint64](capacity)

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := uint64(0); i < perProd; i++ {
				v := id<<32 | i
				for !q.Push(v) {
					runtime.Gosched() // full: consumer will drain
				}
			}
		}(uint64(p))
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		nextPerProd := [producers]uint64{}
		got := 0
		batch := make([]uint64, 16)
		for got < producers*perProd {
			var vals []uint64
			if got%3 == 0 {
				if v, ok := q.Pop(); ok {
					vals = append(vals, v)
				}
			} else {
				n := q.PopBatch(batch)
				vals = batch[:n]
			}
			if len(vals) == 0 {
				runtime.Gosched()
				continue
			}
			for _, v := range vals {
				id, seq := v>>32, v&0xffffffff
				if id >= producers {
					t.Errorf("corrupt value %#x", v)
					return
				}
				if seq != nextPerProd[id] {
					t.Errorf("producer %d: got seq %d, want %d (FIFO violated)", id, seq, nextPerProd[id])
					return
				}
				nextPerProd[id]++
				got++
			}
		}
	}()

	wg.Wait()
	<-done
	if q.Len() != 0 {
		t.Fatalf("ring not empty after drain: Len = %d", q.Len())
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("ring not empty after drain")
	}
}

func TestMPSCCapacityRounding(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {100, 128}, {128, 128},
	}
	for _, c := range cases {
		if got := NewMPSC[int](c.in).Cap(); got != c.want {
			t.Errorf("NewMPSC(%d).Cap() = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestMPSCBasic(t *testing.T) {
	q := NewMPSC[int](4)
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty MPSC succeeded")
	}
	for i := 0; i < 4; i++ {
		if !q.Push(i) {
			t.Fatalf("Push(%d) failed", i)
		}
	}
	if q.Push(4) {
		t.Fatal("Push succeeded on full MPSC")
	}
	if q.Len() != 4 {
		t.Fatalf("Len = %d, want 4", q.Len())
	}
	for i := 0; i < 4; i++ {
		if v, ok := q.Pop(); !ok || v != i {
			t.Fatalf("Pop = (%d, %v), want (%d, true)", v, ok, i)
		}
	}
}

func TestMPSCPopBatch(t *testing.T) {
	q := NewMPSC[int](16)
	for i := 0; i < 10; i++ {
		q.Push(i)
	}
	dst := make([]int, 4)
	if n := q.PopBatch(dst); n != 4 {
		t.Fatalf("PopBatch = %d, want 4", n)
	}
	for i, v := range dst {
		if v != i {
			t.Fatalf("dst[%d] = %d, want %d", i, v, i)
		}
	}
	if n := q.PopBatch(make([]int, 16)); n != 6 {
		t.Fatalf("second PopBatch = %d, want 6", n)
	}
	if n := q.PopBatch(dst); n != 0 {
		t.Fatalf("PopBatch on empty = %d, want 0", n)
	}
}

// TestMPSCConcurrentProducers verifies element conservation and per-producer
// FIFO order under many concurrent producers.
func TestMPSCConcurrentProducers(t *testing.T) {
	const (
		producers = 8
		perProd   = 2000
	)
	q := NewMPSC[[2]int](256)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; {
				if q.Push([2]int{p, i}) {
					i++
				} else {
					runtime.Gosched()
				}
			}
		}(p)
	}
	doneProducing := make(chan struct{})
	go func() { wg.Wait(); close(doneProducing) }()

	last := make([]int, producers)
	for i := range last {
		last[i] = -1
	}
	total := 0
	for total < producers*perProd {
		v, ok := q.Pop()
		if !ok {
			select {
			case <-doneProducing:
				if q.Len() == 0 && total < producers*perProd {
					// One more sweep to pick up late pushes.
					if v2, ok2 := q.Pop(); ok2 {
						v, ok = v2, true
					}
				}
			default:
			}
			if !ok {
				runtime.Gosched()
				continue
			}
		}
		p, i := v[0], v[1]
		if i != last[p]+1 {
			t.Fatalf("producer %d: got %d after %d (per-producer FIFO violated)", p, i, last[p])
		}
		last[p] = i
		total++
	}
}

func BenchmarkMPSCPushPop(b *testing.B) {
	q := NewMPSC[int](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(i)
		q.Pop()
	}
}
