package hw

import (
	"sync/atomic"
	"time"
)

// Spin busy-waits for approximately d. Unlike time.Sleep it never yields
// the OS thread, so it burns the calling core. Neither the runtime nor the
// model calls it — the model charges costs in virtual time — and its one
// caller, match.SpinMeter, is named only by the benchmark module.
//
// Durations of zero or less return immediately, so cost models with zeroed
// entries (hw.Fast) have no overhead beyond one branch.
func Spin(d time.Duration) {
	if d <= 0 {
		return
	}
	// For very short spins, use the calibrated pause loop to avoid paying a
	// time.Now call that may exceed the requested duration.
	if d < 200*time.Nanosecond {
		spinIters(int(float64(d) * itersPerNano()))
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		spinIters(32)
	}
}

//go:noinline
func spinIters(n int) {
	// The accumulator defeats dead-code elimination; the result is published
	// through a package-level sink.
	acc := spinSink.Load()
	for i := 0; i < n; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	spinSink.Store(acc)
}

var spinSink atomic.Uint64

var calibOnce atomic.Uint64 // stores iters-per-nano * 1024, 0 = uncalibrated

// itersPerNano returns the calibrated number of spinIters iterations per
// nanosecond. Calibration runs once, on first use.
func itersPerNano() float64 {
	if v := calibOnce.Load(); v != 0 {
		return float64(v) / 1024
	}
	const iters = 1 << 20
	start := time.Now()
	spinIters(iters)
	elapsed := time.Since(start)
	if elapsed <= 0 {
		elapsed = 1
	}
	ipn := float64(iters) / float64(elapsed.Nanoseconds())
	if ipn < 0.001 {
		ipn = 0.001
	}
	calibOnce.Store(uint64(ipn * 1024))
	return ipn
}
