package progress

import (
	"sync"
	"testing"

	"repro/internal/cri"
	"repro/internal/prof"
	"repro/internal/spc"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// TestSerialPassHistExcludesTryLockLosers checks the pass-duration histogram
// invariant: a serial-mode caller that loses the global try-lock did no
// engine work and must not contribute a sample, so across any amount of
// contention hist.Count() == ProgressCalls - ProgressTryLockFail.
func TestSerialPassHistExcludesTryLockLosers(t *testing.T) {
	h := newHarness(t, 2)
	s := spc.NewSet()
	hist := telemetry.NewHistogram()
	e := New(Serial, h.pool, func(*prof.ThreadClock, *cri.Instance, transport.CQE) {}, s)
	e.SetPassHistogram(hist)

	const (
		threads = 4
		iters   = 500
	)
	// A trickle of inbound packets keeps winning passes non-trivially long,
	// which keeps the try-lock contended.
	for i := 0; i < 64; i++ {
		h.inject(i%2, uint32(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ts cri.ThreadState
			for i := 0; i < iters; i++ {
				e.Progress(&ts)
			}
		}()
	}
	wg.Wait()

	calls := s.Get(spc.ProgressCalls)
	fails := s.Get(spc.ProgressTryLockFail)
	if calls != threads*iters {
		t.Fatalf("ProgressCalls = %d, want %d", calls, threads*iters)
	}
	if got := hist.Count(); got != calls-fails {
		t.Fatalf("passHist samples = %d, want ProgressCalls - ProgressTryLockFail = %d - %d = %d",
			got, calls, fails, calls-fails)
	}
}
