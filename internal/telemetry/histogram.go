// Package telemetry is the runtime's observability layer: lock-free
// latency histograms, per-CRI and per-communicator counter attribution,
// a background sampler producing an in-memory time series, and exporters
// for the Prometheus text format and the Chrome trace-event JSON format.
//
// Everything follows the spc/flight discipline: a nil receiver is valid and
// every hot-path hook degrades to a single predictable branch when
// telemetry is disabled, so call sites need no guards.
package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of histogram buckets. The layout is log-linear:
// two linear sub-buckets per power of two, covering 1 ns up to ~6.4 s
// (2^32 · 1.5 ns), with larger values clamped into the last bucket. The
// relative error of any quantile estimate is therefore bounded by the
// sub-bucket width: at most 50% of the true value.
const NumBuckets = 64

// bucketIndex maps a nanosecond observation to its bucket.
func bucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	u := uint64(v)
	e := bits.Len64(u) - 1           // floor(log2(v)), >= 1
	sub := int((u >> uint(e-1)) & 1) // which half of the octave
	idx := 2*e + sub - 1
	if idx >= NumBuckets {
		return NumBuckets - 1
	}
	return idx
}

// BucketUpper returns the largest nanosecond value bucket i holds. The last
// bucket is open-ended; its nominal bound is returned (exporters render it
// as +Inf).
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 1
	}
	e := uint((i + 1) / 2)
	if (i+1)%2 == 0 { // first half of the octave: [2^e, 1.5·2^e)
		return int64(1)<<e + int64(1)<<(e-1) - 1
	}
	return int64(1)<<(e+1) - 1 // second half: [1.5·2^e, 2^(e+1))
}

// Histogram is a lock-free log-linear latency histogram. Recording is one
// atomic add per bucket plus count/sum updates; there is no lock anywhere.
// All methods are safe for concurrent use, and a nil *Histogram ignores
// every call, so hot paths need exactly one branch.
type Histogram struct {
	buckets [NumBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// ObserveNs records one observation in nanoseconds. Negative values clamp
// to zero.
func (h *Histogram) ObserveNs(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNs(int64(d)) }

// Start returns the current time, or the zero time on a nil histogram.
// Pair with ObserveSince around a timed section; the disabled path costs
// one branch and never reads the clock.
func (h *Histogram) Start() time.Time {
	if h == nil {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince records the elapsed time since start. A zero start (from a
// disabled Start) is ignored.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil || start.IsZero() {
		return
	}
	h.ObserveNs(int64(time.Since(start)))
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Snapshot copies the histogram state. The copy is not atomic across
// buckets (recording continues concurrently), but every recorded event is
// eventually visible and bucket counts never decrease, which is all the
// mergeable-snapshot contract requires.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	// Recording between the bucket loop and the count load can make Count
	// exceed the bucket sum; clamp so cumulative exports stay consistent.
	var bs int64
	for _, b := range s.Buckets {
		bs += b
	}
	if s.Count > bs {
		s.Count = bs
	}
	return s
}

// HistSnapshot is an immutable copy of a histogram.
type HistSnapshot struct {
	Buckets [NumBuckets]int64 `json:"buckets"`
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Max     int64             `json:"max"`
}

// Merge returns the element-wise sum of the snapshots (max of maxes).
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	out := s
	for i, b := range o.Buckets {
		out.Buckets[i] += b
	}
	out.Count += o.Count
	out.Sum += o.Sum
	if o.Max > out.Max {
		out.Max = o.Max
	}
	return out
}

// Mean returns the average observation in nanoseconds, or 0 when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0, 1]) in nanoseconds: the
// upper bound of the bucket holding the rank-⌈q·count⌉ observation,
// clamped to the exact recorded maximum. Returns 0 when empty.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, b := range s.Buckets {
		cum += b
		if cum >= rank {
			u := BucketUpper(i)
			if u > s.Max {
				return s.Max
			}
			return u
		}
	}
	return s.Max
}

// P50 is Quantile(0.50).
func (s HistSnapshot) P50() int64 { return s.Quantile(0.50) }

// P90 is Quantile(0.90).
func (s HistSnapshot) P90() int64 { return s.Quantile(0.90) }

// P99 is Quantile(0.99).
func (s HistSnapshot) P99() int64 { return s.Quantile(0.99) }
