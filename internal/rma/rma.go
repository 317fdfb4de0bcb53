// Package rma implements one-sided communication (MPI-3 RMA): windows,
// put/get/accumulate, and passive-target synchronization (lock/unlock,
// flush). As Section II-D explains, the one-sided path has no matching
// stage, so its multithreaded scalability is limited only by initiator-side
// resource contention — exactly what Figures 6 and 7 measure by sweeping
// the instance count and assignment strategy.
package rma

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/prof"
	"repro/internal/spc"
	"repro/internal/transport"
)

// ErrNoEpoch is returned by one-sided operations issued outside a
// passive-target access epoch (no Lock/LockAll held for the target).
var ErrNoEpoch = errors.New("rma: operation outside a lock epoch")

// ErrNotOneSided is returned by New when the world's transport backend does
// not advertise one-sided (RMA) support in its capability flags.
var ErrNotOneSided = errors.New("rma: transport backend lacks one-sided support")

// Win is one process's handle on a window — a registered memory region on
// every member of the creating communicator.
type Win struct {
	comm  *core.Comm
	local []byte
	// regions[commRank] is the target's registered region.
	regions []transport.MemRegion
	// pending[cri][commRank] counts the operations instance cri carried to
	// that target and has not yet completed. An operation's completion is
	// posted to the context that issued it, so a row is written only under
	// its own instance's lock; the flushes of other threads only read it.
	pending [][]atomic.Int64
	// locked[commRank] is nonzero while an access epoch (passive lock,
	// PSCW start, or fence) is open to that target. Read on every operation
	// and written only at epoch boundaries, so it keeps to lines no
	// per-operation word lives on (see newRows).
	locked []atomic.Int64

	// Active-target epoch state (single-threaded by MPI semantics — the
	// funneling constraint the paper highlights).
	fenceOpen bool
	exposure  []int // ranks posted to (exposure epoch)
	access    []int // ranks started to (access epoch)
}

// opToken completes one outstanding one-sided operation when its CQE is
// extracted by the progress engine: n is the counter the operation was
// charged to at issue, in the row of the instance that carried it.
type opToken struct {
	n *atomic.Int64
}

// Complete implements core.Completer.
func (t *opToken) Complete(transport.CQE) { t.n.Add(-1) }

// cacheLineWords is a 64-byte cache line in 8-byte counters.
const cacheLineWords = 8

// newRows returns rows rows of n counters cut from one slab, laid out so that
// no two rows — and nothing allocated beside the slab — can share a cache
// line with a row wherever the allocator puts it: a row is rounded up to
// whole lines and a line of slack follows it (and leads the first). The cost
// is rows × a few lines, not a line per counter.
func newRows(rows, n int) [][]atomic.Int64 {
	stride := (n+cacheLineWords-1)/cacheLineWords*cacheLineWords + cacheLineWords
	slab := make([]atomic.Int64, cacheLineWords+rows*stride)
	out := make([][]atomic.Int64, rows)
	for i := range out {
		out[i] = slab[cacheLineWords+i*stride:][:n:n]
	}
	return out
}

// New collectively creates a window over the communicator whose per-member
// handles are comms (as returned by World.NewComm). sizes[r] is member r's
// exposed buffer size in bytes. Returns one Win per member.
func New(comms []*core.Comm, sizes []int) ([]*Win, error) {
	if len(comms) == 0 {
		return nil, errors.New("rma: no communicator handles")
	}
	if len(sizes) != len(comms) {
		return nil, fmt.Errorf("rma: %d sizes for %d members", len(sizes), len(comms))
	}
	if caps := comms[0].Proc().TransportCaps(); !caps.OneSided {
		return nil, fmt.Errorf("%w (transport %q)", ErrNotOneSided, caps.Name)
	}
	n := len(comms)
	wins := make([]*Win, n)
	regions := make([]transport.MemRegion, n)
	for r, c := range comms {
		if c.Rank() != r {
			return nil, fmt.Errorf("rma: comms[%d] has rank %d; pass handles in rank order", r, c.Rank())
		}
		local := make([]byte, sizes[r])
		regions[r] = c.Proc().RegisterMemory(local)
		// One row per instance, then the epoch words in a row of their own.
		k := c.Proc().Pool().Len()
		rows := newRows(k+1, n)
		wins[r] = &Win{
			comm:    c,
			local:   local,
			pending: rows[:k],
			locked:  rows[k],
		}
	}
	for _, w := range wins {
		w.regions = regions
	}
	return wins, nil
}

// Allocate creates a window with the same size on every member
// (MPI_Win_allocate with identical sizes).
func Allocate(comms []*core.Comm, size int) ([]*Win, error) {
	sizes := make([]int, len(comms))
	for i := range sizes {
		sizes[i] = size
	}
	return New(comms, sizes)
}

// Local returns the caller's exposed window memory. Reading it while remote
// puts are in flight is an application-level race, as in MPI.
func (w *Win) Local() []byte { return w.local }

// Size returns the window size of member rank.
func (w *Win) Size(rank int) int { return w.regions[rank].Size() }

// Free deregisters the caller's region. Call after all members quiesce.
func (w *Win) Free() {
	me := w.comm.Rank()
	w.comm.Proc().DeregisterMemory(w.regions[me])
}

func (w *Win) checkTarget(target int) error {
	if target < 0 || target >= len(w.regions) {
		return fmt.Errorf("rma: target %d outside window group of %d", target, len(w.regions))
	}
	return nil
}

// Lock opens a passive-target access epoch on target (MPI_Win_lock with
// MPI_LOCK_SHARED semantics — concurrent epochs from multiple origins are
// allowed, as the RMA-MT workload requires).
func (w *Win) Lock(target int) error {
	if err := w.checkTarget(target); err != nil {
		return err
	}
	w.locked[target].Add(1)
	return nil
}

// Unlock closes the epoch on target, first completing all outstanding
// operations to it (MPI_Win_unlock implies a flush).
func (w *Win) Unlock(th *core.Thread, target int) error {
	if err := w.checkTarget(target); err != nil {
		return err
	}
	if w.locked[target].Load() <= 0 {
		return fmt.Errorf("rma: Unlock(%d) without Lock", target)
	}
	if err := w.Flush(th, target); err != nil {
		return err
	}
	w.locked[target].Add(-1)
	return nil
}

// LockAll opens an epoch on every target (MPI_Win_lock_all).
func (w *Win) LockAll() {
	for i := range w.locked {
		w.locked[i].Add(1)
	}
}

// UnlockAll flushes and closes every epoch (MPI_Win_unlock_all).
func (w *Win) UnlockAll(th *core.Thread) error {
	if err := w.FlushAll(th); err != nil {
		return err
	}
	for i := range w.locked {
		if w.locked[i].Add(-1) < 0 {
			return fmt.Errorf("rma: UnlockAll without LockAll (target %d)", i)
		}
	}
	return nil
}

func (w *Win) inEpoch(target int) error {
	if w.locked[target].Load() <= 0 {
		return ErrNoEpoch
	}
	return nil
}

// issue runs one one-sided operation through the thread's instance under
// the instance lock — the contention point the figures sweep. Every word it
// writes belongs to that instance: the operation is counted in the
// instance's row of pending and charged as c on the instance's counter set,
// both under its lock. The count is taken before the context sees the
// operation (a completion reaped early by a stealing thread then finds it
// there) and taken back on error, so a counter never reads below zero. It
// returns the index of the instance that carried the operation so callers
// can attribute trace events to it.
func (w *Win) issue(th *core.Thread, target int, c spc.Counter, f func(ctx transport.Context, r transport.MemRegion, tok *opToken) error) (int, error) {
	if err := w.checkTarget(target); err != nil {
		return -1, err
	}
	if err := w.inEpoch(target); err != nil {
		return -1, fmt.Errorf("%w (target %d)", err, target)
	}
	p := w.comm.Proc()
	tok := &opToken{} // allocated outside the instance lock, filled in under it
	clk := th.State().Clock()
	clk.Begin(prof.PhaseSend)
	inst, release := p.Pool().AcquireSend(th.State())
	tok.n = &w.pending[inst.Index()][target]
	tok.n.Add(1)
	clk.Begin(prof.PhaseWire)
	err := f(inst.Context(), w.regions[target], tok)
	clk.End()
	if err != nil {
		tok.n.Add(-1)
	} else {
		inst.SPCs().Inc(c)
	}
	release()
	clk.End()
	return inst.Index(), err
}

// Put writes src into target's window at offset (MPI_Put). Completion is
// local-only; use Flush to guarantee remote completion.
func (w *Win) Put(th *core.Thread, target, offset int, src []byte) error {
	cri, err := w.issue(th, target, spc.PutsIssued, func(ctx transport.Context, r transport.MemRegion, tok *opToken) error {
		return ctx.Put(r, offset, src, tok)
	})
	if err == nil {
		ring := th.State().Flight()
		ring.RecordAt(ring.Now(), flight.KindPutIssue, w.comm.ID(), int32(target), int32(len(src)), cri, 0)
	}
	return err
}

// Get reads len(dst) bytes from target's window at offset (MPI_Get).
// dst is valid only after a Flush.
func (w *Win) Get(th *core.Thread, target, offset int, dst []byte) error {
	_, err := w.issue(th, target, spc.GetsIssued, func(ctx transport.Context, r transport.MemRegion, tok *opToken) error {
		return ctx.Get(r, offset, dst, tok)
	})
	return err
}

// Accumulate applies op element-wise over int64 lanes at offset in target's
// window (MPI_Accumulate), atomically with respect to other accumulates.
func (w *Win) Accumulate(th *core.Thread, target, offset int, operand []int64, op transport.AccumulateOp) error {
	_, err := w.issue(th, target, spc.AccumulatesIssued, func(ctx transport.Context, r transport.MemRegion, tok *opToken) error {
		return ctx.Accumulate(r, offset, operand, op, tok)
	})
	return err
}

// Flush blocks until every outstanding operation this process issued to
// target has completed (MPI_Win_flush). Any thread's flush drives the
// progress engine, reaping completions for all threads.
func (w *Win) Flush(th *core.Thread, target int) error {
	if err := w.checkTarget(target); err != nil {
		return err
	}
	w.comm.SPCs().Inc(spc.FlushCalls)
	th.WaitUntil(func() bool { return w.Pending(target) == 0 })
	th.State().Flight().Record(flight.KindFlush, w.comm.ID(), int32(target), 0)
	return nil
}

// FlushAll completes outstanding operations to every target
// (MPI_Win_flush_all).
func (w *Win) FlushAll(th *core.Thread) error {
	w.comm.SPCs().Inc(spc.FlushCalls)
	th.WaitUntil(func() bool {
		for t := range w.regions {
			if w.Pending(t) > 0 {
				return false
			}
		}
		return true
	})
	return nil
}

// Pending returns the number of outstanding operations to target, summed
// over the instances that carried them. No counter is ever negative, so a
// zero sum means every operation counted before the call has completed —
// the property Flush waits on.
func (w *Win) Pending(target int) int64 {
	var n int64
	for _, row := range w.pending {
		n += row[target].Load()
	}
	return n
}
