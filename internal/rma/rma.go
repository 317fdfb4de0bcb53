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
	// issued[cri][commRank] and completed[cri][commRank] count the
	// operations instance cri carried to that target, and those of them that
	// have completed. Both only grow, and both are written only under the
	// instance's lock: an operation is counted once the context accepted it,
	// and its completion is posted to that same context, whose every Poll
	// takes the lock. So completed never passes issued, and — the context's
	// queue being FIFO — it reaches a value n only once the first n
	// operations counted have all completed. The two words of an instance
	// share its own cache-line row (see newRows); other threads' flushes
	// only read them.
	issued, completed [][]counter
	// locked[commRank] is nonzero while an access epoch (passive lock,
	// PSCW start, or fence) is open to that target. Read on every operation
	// and written only at epoch boundaries, so it keeps to lines no
	// per-operation word lives on.
	locked []counter

	// Active-target epoch state (single-threaded by MPI semantics — the
	// funneling constraint the paper highlights).
	fenceOpen bool
	exposure  []int // ranks posted to (exposure epoch)
	access    []int // ranks started to (access epoch)
}

// counter is one atomic count word. A completed count is also the
// completion token of every operation charged to it: the transport hands it
// back in the operation's CQE, and Complete adds the one. No operation
// carries an object of its own.
type counter struct{ atomic.Int64 }

// Complete implements core.Completer.
func (c *counter) Complete(transport.CQE) { c.Add(1) }

// cacheLineWords is a 64-byte cache line in 8-byte counters.
const cacheLineWords = 8

// newRows returns rows rows of n counters cut from one slab, laid out so that
// no two rows — and nothing allocated beside the slab — can share a cache
// line with a row wherever the allocator puts it: a row is rounded up to
// whole lines and a line of slack follows it (and leads the first). The cost
// is rows × a few lines, not a line per counter.
func newRows(rows, n int) [][]counter {
	stride := (n+cacheLineWords-1)/cacheLineWords*cacheLineWords + cacheLineWords
	slab := make([]counter, cacheLineWords+rows*stride)
	out := make([][]counter, rows)
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
		// One row per instance holding its issued then its completed words,
		// then the epoch words in a row of their own.
		k := c.Proc().Pool().Len()
		rows := newRows(k+1, 2*n)
		win := &Win{
			comm:      c,
			local:     local,
			issued:    make([][]counter, k),
			completed: make([][]counter, k),
			locked:    rows[k][:n:n],
		}
		for i, row := range rows[:k] {
			win.issued[i], win.completed[i] = row[:n:n], row[n:]
		}
		wins[r] = win
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
// writes belongs to that instance: the operation's completion token is the
// instance's completed word for target, and once the context has accepted
// the operation it is counted in the instance's issued word and charged as
// c on the instance's counter set, all under the lock. No thread can reap
// the completion before the lock is released, so counting after acceptance
// is not late, and an operation the context refused is never counted at
// all. A context whose completion queue is full refuses with
// transport.ErrCQFull; only a Poll of that context drains it, and the lock
// this thread holds is the one a Poll takes, so the thread polls the
// instance itself and retries. It returns the index of the instance that
// carried the operation so callers can attribute trace events to it.
func (w *Win) issue(th *core.Thread, target int, c spc.Counter, f func(ctx transport.Context, r transport.MemRegion, done *counter) error) (int, error) {
	if err := w.checkTarget(target); err != nil {
		return -1, err
	}
	if err := w.inEpoch(target); err != nil {
		return -1, fmt.Errorf("%w (target %d)", err, target)
	}
	p := w.comm.Proc()
	clk := th.State().Clock()
	clk.Begin(prof.PhaseSend)
	inst, release := p.Pool().AcquireSend(th.State())
	i := inst.Index()
	ctx, r, done := inst.Context(), w.regions[target], &w.completed[i][target]
	clk.Begin(prof.PhaseWire)
	err := f(ctx, r, done)
	for err != nil && errors.Is(err, transport.ErrCQFull) {
		th.PollHeld(inst)
		err = f(ctx, r, done)
	}
	clk.End()
	if err == nil {
		w.issued[i][target].Add(1)
		inst.SPCs().Inc(c)
	}
	release()
	clk.End()
	return i, err
}

// Put writes src into target's window at offset (MPI_Put). Completion is
// local-only; use Flush to guarantee remote completion.
func (w *Win) Put(th *core.Thread, target, offset int, src []byte) error {
	cri, err := w.issue(th, target, spc.PutsIssued, func(ctx transport.Context, r transport.MemRegion, done *counter) error {
		return ctx.Put(r, offset, src, done)
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
	_, err := w.issue(th, target, spc.GetsIssued, func(ctx transport.Context, r transport.MemRegion, done *counter) error {
		return ctx.Get(r, offset, dst, done)
	})
	return err
}

// Accumulate applies op element-wise over int64 lanes at offset in target's
// window (MPI_Accumulate), atomically with respect to other accumulates.
func (w *Win) Accumulate(th *core.Thread, target, offset int, operand []int64, op transport.AccumulateOp) error {
	_, err := w.issue(th, target, spc.AccumulatesIssued, func(ctx transport.Context, r transport.MemRegion, done *counter) error {
		return ctx.Accumulate(r, offset, operand, op, done)
	})
	return err
}

// Flush blocks until every operation this process issued to target before
// the call has completed (MPI_Win_flush). Any thread's flush drives the
// progress engine, reaping completions for all threads.
func (w *Win) Flush(th *core.Thread, target int) error {
	if err := w.checkTarget(target); err != nil {
		return err
	}
	w.comm.SPCs().Inc(spc.FlushCalls)
	w.await(th, target, target+1)
	th.State().Flight().Record(flight.KindFlush, w.comm.ID(), int32(target), 0)
	return nil
}

// FlushAll completes the operations issued to every target before the call
// (MPI_Win_flush_all).
func (w *Win) FlushAll(th *core.Thread) error {
	w.comm.SPCs().Inc(spc.FlushCalls)
	w.await(th, 0, len(w.regions))
	return nil
}

// await drives th's progress loop until, for every instance row and every
// target in [lo, hi), the completed word has caught up with the issued word
// as it read when the wait reached that pair: each pair is read once, on
// arrival, and then only its completed word is polled. What was issued
// before the call is covered, and a thread that keeps issuing cannot hold
// the wait back — it never needs a moment when nothing is outstanding. The
// snapshot lives in the closure, so any pool size costs nothing.
func (w *Win) await(th *core.Thread, lo, hi int) {
	row, t, want := 0, lo, int64(-1)
	th.WaitUntil(func() bool {
		for row < len(w.issued) {
			if want < 0 {
				want = w.issued[row][t].Load()
			}
			if w.completed[row][t].Load() < want {
				return false
			}
			if want, t = -1, t+1; t == hi {
				row, t = row+1, lo
			}
		}
		return true
	})
}

// Pending returns the number of outstanding operations to target, summed
// over the instances that carried them. Each instance's completed word is
// read before its issued word, and completed never passes issued, so no
// term is negative.
func (w *Win) Pending(target int) int64 {
	var n int64
	for i := range w.issued {
		done := w.completed[i][target].Load()
		n += w.issued[i][target].Load() - done
	}
	return n
}
