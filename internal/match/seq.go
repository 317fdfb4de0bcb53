package match

import (
	"sync"
	"sync/atomic"
)

// SeqTracker issues per-(destination, communicator) send sequence numbers.
// One tracker serves one communicator on the sending side. Numbers are
// issued with a single atomic increment — the same lock-free counter real
// implementations use — so concurrent sending threads obtain *distinct*
// sequence numbers but can trivially inject them out of order, which is the
// root cause of the out-of-sequence storm Table II shows for threads.
type SeqTracker struct {
	dense  []atomic.Uint32
	sparse atomicMap
}

// NewSeqTracker creates a tracker with a dense counter table for ranks
// [0, nRanks); other ranks fall back to a map.
func NewSeqTracker(nRanks int) *SeqTracker {
	t := &SeqTracker{}
	if nRanks > 0 {
		t.dense = make([]atomic.Uint32, nRanks)
	}
	return t
}

// Next returns the next sequence number for messages to dst. Numbers are
// raw uint32s that wrap at 2^32; consumers compare them with serial
// (modular) arithmetic — int32(a-b) — never plain </>.
func (t *SeqTracker) Next(dst int32) uint32 {
	if dst >= 0 && int(dst) < len(t.dense) {
		return t.dense[dst].Add(1) - 1
	}
	return t.sparse.inc(dst)
}

// atomicMap is a mutex-protected fallback for out-of-table ranks (rare:
// only dynamic communicators hit it).
type atomicMap struct {
	mu sync.Mutex
	m  map[int32]uint32
}

func (a *atomicMap) inc(k int32) uint32 {
	a.mu.Lock()
	if a.m == nil {
		a.m = make(map[int32]uint32)
	}
	v := a.m[k]
	a.m[k] = v + 1
	a.mu.Unlock()
	return v
}
