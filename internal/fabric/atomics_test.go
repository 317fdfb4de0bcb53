package fabric

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/transport"
)

func TestFetchAndOpBasics(t *testing.T) {
	target, _, ictx := newInitiator(t)
	mem := make([]byte, 16)
	reg := target.RegisterMemory(mem)

	var old int64
	if err := ictx.FetchAndOp(reg, 0, 10, transport.AccSum, &old, "f1"); err != nil {
		t.Fatal(err)
	}
	if old != 0 {
		t.Fatalf("old = %d, want 0", old)
	}
	if err := ictx.FetchAndOp(reg, 0, 7, transport.AccReplace, &old, "f2"); err != nil {
		t.Fatal(err)
	}
	if old != 10 {
		t.Fatalf("old = %d, want 10", old)
	}
	if err := ictx.FetchAndOp(reg, 0, 100, transport.AccMax, &old, "f3"); err != nil {
		t.Fatal(err)
	}
	if old != 7 || le64(mem[:8]) != 100 {
		t.Fatalf("max: old=%d mem=%d", old, le64(mem[:8]))
	}
	if err := ictx.FetchAndOp(reg, 0, 1, transport.AccMin, &old, "f4"); err != nil {
		t.Fatal(err)
	}
	if old != 100 || le64(mem[:8]) != 1 {
		t.Fatalf("min: old=%d mem=%d", old, le64(mem[:8]))
	}
	// nil result pointer is allowed.
	if err := ictx.FetchAndOp(reg, 8, 1, transport.AccSum, nil, "f5"); err != nil {
		t.Fatal(err)
	}
	// Completions: one per signaled op.
	n := 0
	for ictx.Pending() {
		ictx.Poll(func(e transport.CQE) {
			if e.Kind != transport.CQEAccComplete {
				t.Fatalf("completion kind = %d", e.Kind)
			}
			n++
		}, 16)
	}
	if n != 5 {
		t.Fatalf("completions = %d, want 5", n)
	}
	// Unsignaled (nil token): the atomic happens and posts no completion.
	if err := ictx.FetchAndOp(reg, 8, 2, transport.AccSum, &old, nil); err != nil || old != 1 {
		t.Fatalf("unsignaled FetchAndOp = %d, %v", old, err)
	}
	if err := ictx.CompareAndSwap(reg, 8, 3, 9, &old, nil); err != nil || old != 3 || le64(mem[8:]) != 9 {
		t.Fatalf("unsignaled CompareAndSwap = %d, %v (mem %d)", old, err, le64(mem[8:]))
	}
	if ictx.Pending() {
		t.Fatal("an unsignaled atomic posted a completion")
	}
}

func TestFetchAndOpBounds(t *testing.T) {
	target, _, ictx := newInitiator(t)
	reg := target.RegisterMemory(make([]byte, 8))
	var be *boundsError
	if err := ictx.FetchAndOp(reg, 8, 1, transport.AccSum, nil, nil); !errors.As(err, &be) {
		t.Fatalf("out-of-bounds err = %v", err)
	}
	if err := ictx.FetchAndOp(reg, 4, 1, transport.AccSum, nil, nil); !errors.As(err, &be) {
		t.Fatalf("misaligned err = %v", err)
	}
	if err := ictx.CompareAndSwap(reg, 12, 0, 1, nil, nil); !errors.As(err, &be) {
		t.Fatalf("CAS out-of-bounds err = %v", err)
	}
}

func TestCompareAndSwapSemantics(t *testing.T) {
	target, _, ictx := newInitiator(t)
	mem := make([]byte, 8)
	reg := target.RegisterMemory(mem)

	var old int64
	if err := ictx.CompareAndSwap(reg, 0, 0, 42, &old, nil); err != nil || old != 0 {
		t.Fatalf("CAS = %d, %v", old, err)
	}
	if got := le64(mem); got != 42 {
		t.Fatalf("mem = %d, want 42", got)
	}
	if err := ictx.CompareAndSwap(reg, 0, 7, 99, &old, nil); err != nil || old != 42 {
		t.Fatalf("failed CAS = %d, %v", old, err)
	}
	if got := le64(mem); got != 42 {
		t.Fatalf("failed CAS mutated memory: %d", got)
	}
}

// TestFetchAndOpAtomicTickets: concurrent fetch-add issues strictly unique
// tickets across contexts.
func TestFetchAndOpAtomicTickets(t *testing.T) {
	target, initiator, _ := newInitiator(t)
	mem := make([]byte, 8)
	reg := target.RegisterMemory(mem)
	const (
		goroutines = 8
		per        = 500
	)
	tickets := make(chan int64, goroutines*per)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		ctx, err := initiator.CreateContext(0)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(ctx transport.Context) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				var old int64
				if err := ctx.FetchAndOp(reg, 0, 1, transport.AccSum, &old, nil); err != nil {
					t.Error(err)
					return
				}
				tickets <- old
			}
		}(ctx)
	}
	wg.Wait()
	close(tickets)
	seen := map[int64]bool{}
	for v := range tickets {
		if seen[v] {
			t.Fatalf("ticket %d duplicated", v)
		}
		seen[v] = true
	}
	if le64(mem) != goroutines*per {
		t.Fatalf("final counter = %d", le64(mem))
	}
}
