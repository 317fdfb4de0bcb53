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
	"unsafe"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/prof"
	"repro/internal/spc"
	"repro/internal/transport"
)

// ErrNoEpoch is returned by one-sided operations issued outside a
// passive-target access epoch (no Lock/LockAll held for the target).
var ErrNoEpoch = errors.New("rma: operation outside a lock epoch")

// ErrNotOneSided is returned by New when a member's transport contexts do
// not implement transport.OneSided (tcpnet's: tcp is two-sided only).
var ErrNotOneSided = errors.New("rma: transport backend lacks one-sided support")

// Win is one process's handle on a window — a registered memory region on
// every member of the creating communicator.
type Win struct {
	comm  *core.Comm
	local []byte
	// regions[commRank] is the target's registered region.
	regions []transport.MemRegion
	// ctxs[cri] is instance cri's context as a one-sided initiator,
	// resolved once by New.
	ctxs []transport.OneSided
	// flows[cri][commRank] holds the words of the operations instance cri
	// carried to that target (see flow). An instance's flows fill a
	// cache-line row of their own (see newRows); other threads' flushes
	// only read them, and take the instance's lock to post its marker.
	flows [][]flow
	// locked[commRank] is nonzero while an access epoch (passive lock,
	// PSCW start, or fence) is open to that target. Read on every operation
	// and written only at epoch boundaries, so it keeps to lines no
	// per-operation word lives on.
	locked []atomic.Int64

	// Active-target epoch state (single-threaded by MPI semantics — the
	// funneling constraint the paper highlights).
	fenceOpen bool
	exposure  []int // ranks posted to (exposure epoch)
	access    []int // ranks started to (access epoch)
}

// flow is one (instance, target) pair's count words. issued counts the
// operations the instance carried to the target; completed counts those of
// them known to be complete. An operation posts no completion of its own: a
// flush that finds completed behind posts the flow's marker — one signaled
// zero-byte put on the same context — and the marker's CQE, completions
// being in order, covers every operation issued before it. seq is the
// issued count the marker in flight covers; at most one is in flight, and
// it is in flight exactly while seq > completed.
//
// All three words only grow, and all are written under the instance's
// lock: an operation is counted once the context accepted it, a marker's
// seq is set as it is posted, and its completion is reaped by a Poll of
// that same context, which takes the lock. So completed never passes
// issued, and it reaches a value n only once the first n operations counted
// have all completed.
type flow struct {
	issued, completed, seq atomic.Int64
}

// Complete is the marker's completion (core.Completer): every operation up
// to seq has completed. It is rma's one completion token, and it is the
// flow itself, so no operation and no flush carries an object of its own.
func (f *flow) Complete(transport.CQE) { f.completed.Store(f.seq.Load()) }

// cacheLine is the line size, in bytes, rows are kept apart by.
const cacheLine = 64

// newRows returns rows rows of n Ts cut from one slab, laid out so that no
// two rows — and nothing allocated beside the slab — can share a cache line
// with a row wherever the allocator puts it: at least a line of slack
// separates consecutive rows, and leads the first and trails the last. The
// cost is rows × about a line, not a line per element.
func newRows[T any](rows, n int) [][]T {
	var zero T
	size := int(unsafe.Sizeof(zero))
	pad := (cacheLine + size - 1) / size
	stride := n + pad
	slab := make([]T, pad+rows*stride)
	out := make([][]T, rows)
	for i := range out {
		out[i] = slab[pad+i*stride:][:n:n]
	}
	return out
}

// New collectively creates a window over the communicator whose per-member
// handles are comms (as returned by World.NewComm). sizes[r] is member r's
// exposed buffer size in bytes. Returns one Win per member. Every argument
// is checked before anything is registered, so a refused window leaves no
// region behind.
func New(comms []*core.Comm, sizes []int) ([]*Win, error) {
	if len(comms) == 0 {
		return nil, errors.New("rma: no communicator handles")
	}
	if len(sizes) != len(comms) {
		return nil, fmt.Errorf("rma: %d sizes for %d members", len(sizes), len(comms))
	}
	n := len(comms)
	ctxs := make([][]transport.OneSided, n)
	for r, c := range comms {
		if c.Rank() != r {
			return nil, fmt.Errorf("rma: comms[%d] has rank %d; pass handles in rank order", r, c.Rank())
		}
		if sizes[r] < 0 {
			return nil, fmt.Errorf("rma: member %d's window size %d is negative", r, sizes[r])
		}
		ctx, err := oneSided(c.Proc())
		if err != nil {
			return nil, err
		}
		ctxs[r] = ctx
	}
	wins := make([]*Win, n)
	regions := make([]transport.MemRegion, n)
	for r, c := range comms {
		local := make([]byte, sizes[r])
		regions[r] = c.Proc().RegisterMemory(local)
		// One row of flows per instance, and the epoch words in a row of
		// their own.
		wins[r] = &Win{
			comm:   c,
			local:  local,
			ctxs:   ctxs[r],
			flows:  newRows[flow](len(ctxs[r]), n),
			locked: newRows[atomic.Int64](1, n)[0],
		}
	}
	for _, w := range wins {
		w.regions = regions
	}
	return wins, nil
}

// oneSided resolves each of p's instance contexts to a one-sided initiator,
// or fails with ErrNotOneSided.
func oneSided(p *core.Proc) ([]transport.OneSided, error) {
	ctxs := make([]transport.OneSided, p.Pool().Len())
	for i := range ctxs {
		ctx := p.Context(i)
		one, ok := ctx.(transport.OneSided)
		if !ok {
			return nil, fmt.Errorf("%w (context %T)", ErrNotOneSided, ctx)
		}
		ctxs[i] = one
	}
	return ctxs, nil
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
	if !closeEpoch(&w.locked[target]) {
		return fmt.Errorf("rma: Unlock(%d) without Lock", target)
	}
	return nil
}

// LockAll opens an epoch on every target (MPI_Win_lock_all).
func (w *Win) LockAll() {
	for i := range w.locked {
		w.locked[i].Add(1)
	}
}

// UnlockAll flushes and closes every epoch (MPI_Win_unlock_all). With some
// target's epoch not open it refuses, and every epoch count is as it found
// it: the targets already released are opened again.
func (w *Win) UnlockAll(th *core.Thread) error {
	if err := w.FlushAll(th); err != nil {
		return err
	}
	for i := range w.locked {
		if !closeEpoch(&w.locked[i]) {
			for j := range i {
				w.locked[j].Add(1)
			}
			return fmt.Errorf("rma: UnlockAll without LockAll (target %d)", i)
		}
	}
	return nil
}

// closeEpoch closes one epoch on an epoch count, and reports false —
// leaving the count alone — when none is open: a count never goes below
// zero, with any number of threads locking and unlocking.
func closeEpoch(locked *atomic.Int64) bool {
	for {
		n := locked.Load()
		if n <= 0 {
			return false
		}
		if locked.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

func (w *Win) inEpoch(target int) error {
	if w.locked[target].Load() <= 0 {
		return ErrNoEpoch
	}
	return nil
}

// issue runs one one-sided operation through the thread's instance under
// the instance lock — the contention point the figures sweep. The operation
// is unsignaled: it posts no completion, and a later flush's marker covers
// it. Every word issue writes belongs to that instance: once the context has
// accepted the operation it is counted in the instance's issued word for
// target and charged as c on the instance's counter set, both under the
// lock — no marker can be posted, or reaped, before the lock is released,
// so counting after acceptance is not late, and an operation the context
// refused is never counted at all. It returns the index of the instance that
// carried the operation so callers can attribute trace events to it.
func (w *Win) issue(th *core.Thread, target int, c spc.Counter, f func(ctx transport.OneSided, r transport.MemRegion) error) (int, error) {
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
	clk.Begin(prof.PhaseWire)
	err := f(w.ctxs[i], w.regions[target])
	clk.End()
	if err == nil {
		w.flows[i][target].issued.Add(1)
		inst.SPCs().Inc(c)
	}
	release()
	clk.End()
	return i, err
}

// Put writes src into target's window at offset (MPI_Put). Completion is
// local-only; use Flush to guarantee remote completion.
func (w *Win) Put(th *core.Thread, target, offset int, src []byte) error {
	cri, err := w.issue(th, target, spc.PutsIssued, func(ctx transport.OneSided, r transport.MemRegion) error {
		return ctx.Put(r, offset, src, nil)
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
	_, err := w.issue(th, target, spc.GetsIssued, func(ctx transport.OneSided, r transport.MemRegion) error {
		return ctx.Get(r, offset, dst)
	})
	return err
}

// Accumulate applies op element-wise over int64 lanes at offset in target's
// window (MPI_Accumulate), atomically with respect to other accumulates.
func (w *Win) Accumulate(th *core.Thread, target, offset int, operand []int64, op transport.AccumulateOp) error {
	_, err := w.issue(th, target, spc.AccumulatesIssued, func(ctx transport.OneSided, r transport.MemRegion) error {
		return ctx.Accumulate(r, offset, operand, op)
	})
	return err
}

// Flush blocks until every operation this process issued to target before
// the call has completed (MPI_Win_flush). Any thread's flush drives the
// progress engine, reaping completions for all threads. It fails only when
// a context refuses a marker for a reason other than a full queue.
func (w *Win) Flush(th *core.Thread, target int) error {
	if err := w.checkTarget(target); err != nil {
		return err
	}
	w.comm.SPCs().Inc(spc.FlushCalls)
	if err := w.await(th, target, target+1); err != nil {
		return err
	}
	th.State().Flight().Record(flight.KindFlush, w.comm.ID(), int32(target), 0)
	return nil
}

// FlushAll completes the operations issued to every target before the call
// (MPI_Win_flush_all).
func (w *Win) FlushAll(th *core.Thread) error {
	w.comm.SPCs().Inc(spc.FlushCalls)
	return w.await(th, 0, len(w.regions))
}

// await drives th's progress loop until, for every instance and every
// target in [lo, hi), the flow's completed word has caught up with its
// issued word as it read when the wait reached that flow: each flow is read
// once, on arrival, and then only its completed word is polled. A flow found
// behind with no marker in flight gets one (see mark), so a flush reaps one
// CQE per flow, not one per operation. What was issued before the call is
// covered, and a thread that keeps issuing cannot hold the wait back — it
// never needs a moment when nothing is outstanding. The snapshot lives in
// the closure, so any pool size costs nothing.
func (w *Win) await(th *core.Thread, lo, hi int) error {
	row, t, want := 0, lo, int64(-1)
	var err error
	th.WaitUntil(func() bool {
		for row < len(w.flows) {
			f := &w.flows[row][t]
			if want < 0 {
				want = f.issued.Load()
			}
			if done := f.completed.Load(); done < want {
				// seq only grows, so a seq read equal to done was equal
				// when done was read: no marker was in flight then.
				if f.seq.Load() == done {
					err = w.mark(th, row, t)
				}
				return err != nil
			}
			if want, t = -1, t+1; t == hi {
				row, t = row+1, lo
			}
		}
		return true
	})
	return err
}

// mark posts flow (i, target)'s marker: under instance i's lock, unless a
// marker is already in flight or nothing is outstanding, a zero-byte put to
// target whose token is the flow, covering every operation issued so far.
// A context whose completion queue is full refuses with transport.ErrCQFull;
// only a Poll of that context drains it, and the lock held here is the one
// a Poll takes, so the thread polls the instance itself and retries. Any
// other refusal is returned, and no marker is in flight.
func (w *Win) mark(th *core.Thread, i, target int) error {
	inst := w.comm.Proc().Pool().Get(i)
	inst.LockClocked(th.State().Clock())
	defer inst.Unlock()
	f := &w.flows[i][target]
	seq, done := f.issued.Load(), f.completed.Load()
	if f.seq.Load() != done || done == seq {
		return nil
	}
	ctx, r := w.ctxs[i], w.regions[target]
	err := ctx.Put(r, 0, nil, f)
	for errors.Is(err, transport.ErrCQFull) {
		th.PollHeld(inst)
		err = ctx.Put(r, 0, nil, f)
	}
	if err == nil {
		f.seq.Store(seq)
	}
	return err
}

// Pending returns the number of operations to target not yet known to be
// complete, summed over the instances that carried them: those issued since
// the last marker a flush posted there was reaped. Each flow's completed
// word is read before its issued word, and completed never passes issued,
// so no term is negative.
func (w *Win) Pending(target int) int64 {
	var n int64
	for i := range w.flows {
		f := &w.flows[i][target]
		done := f.completed.Load()
		n += f.issued.Load() - done
	}
	return n
}
