package rma

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/spc"
	"repro/internal/transport"
)

// Active-target synchronization (Section II-D): fence and
// post-start-complete-wait. The paper notes active target "is not well
// suited for multi-threaded applications as all synchronization needs to be
// funneled through a single thread" — these implementations exist so that
// claim can be exercised and measured (see the ablation benchmarks).

// control-message kinds on the window's communicator.
const (
	ctlPost     int32 = 1 // target -> origin: exposure epoch open
	ctlComplete int32 = 2 // origin -> target: access epoch finished
)

// Fence completes all outstanding one-sided operations and synchronizes
// every member (MPI_Win_fence). The first fence opens an access epoch to
// every target; subsequent fences separate epochs. Must be called by all
// members, by a single thread per process — the funneling constraint.
func (w *Win) Fence(th *core.Thread) error {
	if err := w.FlushAll(th); err != nil {
		return err
	}
	if err := w.comm.Barrier(th); err != nil {
		return err
	}
	if !w.fenceOpen {
		w.fenceOpen = true
		for i := range w.locked {
			w.locked[i].Add(1)
		}
	}
	return nil
}

// Post opens an exposure epoch for the given origin ranks (MPI_Win_post):
// each listed origin's Start unblocks once the post message arrives.
func (w *Win) Post(th *core.Thread, origins []int) error {
	if w.exposure != nil {
		return errors.New("rma: Post while an exposure epoch is open")
	}
	for _, o := range origins {
		if err := w.checkTarget(o); err != nil {
			return err
		}
		if err := w.comm.CtlSend(th, o, ctlPost, nil); err != nil {
			return err
		}
	}
	w.exposure = append([]int(nil), origins...)
	return nil
}

// Start opens an access epoch to the given target ranks (MPI_Win_start),
// blocking until every target has posted.
func (w *Win) Start(th *core.Thread, targets []int) error {
	if w.access != nil {
		return errors.New("rma: Start while an access epoch is open")
	}
	for _, tr := range targets {
		if err := w.checkTarget(tr); err != nil {
			return err
		}
		if _, err := w.comm.CtlRecv(th, tr, ctlPost, nil); err != nil {
			return err
		}
		w.locked[tr].Add(1)
	}
	w.access = append([]int(nil), targets...)
	return nil
}

// Complete closes the access epoch (MPI_Win_complete): all operations to
// the started targets finish locally and each target is notified.
func (w *Win) Complete(th *core.Thread) error {
	if w.access == nil {
		return errors.New("rma: Complete without Start")
	}
	for _, tr := range w.access {
		if err := w.Flush(th, tr); err != nil {
			return err
		}
		w.locked[tr].Add(-1)
		if err := w.comm.CtlSend(th, tr, ctlComplete, nil); err != nil {
			return err
		}
	}
	w.access = nil
	return nil
}

// WaitEpoch closes the exposure epoch (MPI_Win_wait): blocks until every
// posted origin has called Complete.
func (w *Win) WaitEpoch(th *core.Thread) error {
	if w.exposure == nil {
		return errors.New("rma: Wait without Post")
	}
	for _, o := range w.exposure {
		if _, err := w.comm.CtlRecv(th, o, ctlComplete, nil); err != nil {
			return err
		}
	}
	w.exposure = nil
	return nil
}

// FetchAndOp atomically applies op to the int64 at offset in target's
// window, returning the previous value after the operation completes
// remotely (MPI_Fetch_and_op; completes before returning, like a
// flush-bounded operation).
func (w *Win) FetchAndOp(th *core.Thread, target, offset int, operand int64, op transport.AccumulateOp) (int64, error) {
	result := th.FetchWord()
	_, err := w.issue(th, target, spc.AccumulatesIssued, func(ctx transport.Context, r transport.MemRegion) error {
		return ctx.FetchAndOp(r, offset, operand, op, result, nil)
	})
	if err != nil {
		return 0, err
	}
	if err := w.Flush(th, target); err != nil {
		return 0, err
	}
	return *result, nil
}

// CompareAndSwap atomically swaps the int64 at offset in target's window if
// it equals compare, returning the previous value (MPI_Compare_and_swap).
func (w *Win) CompareAndSwap(th *core.Thread, target, offset int, compare, swap int64) (int64, error) {
	result := th.FetchWord()
	_, err := w.issue(th, target, spc.AccumulatesIssued, func(ctx transport.Context, r transport.MemRegion) error {
		return ctx.CompareAndSwap(r, offset, compare, swap, result, nil)
	})
	if err != nil {
		return 0, err
	}
	if err := w.Flush(th, target); err != nil {
		return 0, err
	}
	return *result, nil
}

// String describes the window.
func (w *Win) String() string {
	return fmt.Sprintf("win(comm=%d rank=%d size=%d)", w.comm.ID(), w.comm.Rank(), len(w.local))
}
