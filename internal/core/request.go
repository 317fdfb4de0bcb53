package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/match"
	"repro/internal/transport"
)

// ErrTruncated reports a receive whose buffer was shorter than the matched
// message (MPI_ERR_TRUNCATE).
var ErrTruncated = errors.New("core: message truncated")

// Status describes a completed receive, mirroring MPI_Status.
type Status struct {
	// Source is the communicator rank of the sender.
	Source int32
	// Tag is the matched message tag.
	Tag int32
	// Count is the number of bytes delivered into the buffer.
	Count int
	// MessageLen is the full length of the matched message.
	MessageLen int
	// Truncated reports that the message was longer than the buffer.
	Truncated bool
}

// Request is a non-blocking operation handle. Wait/Test observe completion;
// the send path completes an eager send on a lossless wire, the progress
// engine (any thread's) everything else. It holds only what every
// operation uses, in six words: a completed receive's status is copied into
// it before the done store, so Status reads the handle alone for as long as
// the handle lives, and an error — rare — is boxed.
type Request struct {
	proc *Proc
	// rec is a receive's matching record, which its posting Thread reuses
	// once it has seen the receive complete (see release); nil for a send.
	// Any other Thread reads nothing of it but its immutable owner.
	rec *recvRec
	// err is the error the operation completed with, nil on success (see
	// result).
	err  *error
	done atomic.Bool
	// A receive's status (see finishRecv): source and tag of the matched
	// message, the bytes delivered and the message's full length. A send's
	// stay zero.
	src, tag    int32
	count, mlen uint32
}

// A posted operation's handle is carved from its Thread's slab (see carve)
// and never handed out twice — the collector frees a slab once every holder
// of every handle in it has let go — so a stale handle costs memory, never a
// use after free, and reads only its own result. What the message path works
// on lives apart from the handle:
//
//   - an eager send's packet is carved from the Thread's packet slab and never
//     reused either (over the in-process fabric the sender's packet IS the
//     packet in the receiver's queues, held by pointer until it is matched);
//     a send on a lossless wire is complete when Isend returns, so it shares
//     its proc's one completed handle, and only a reliability-tracked send,
//     which completes on its ack, carves a handle of its own;
//   - a receive's matching record is reused: its posting Thread puts it back
//     on its free list when one of its own Wait/Test calls sees the receive
//     complete, and post takes from that list before it carves. No engine,
//     eager run or rendezvous transfer holds a record past the completion
//     (the transfer holds the handle), so the record is idle by then.

// recvRec is a posted receive's matching-engine record with the bookkeeping
// of its reuse.
type recvRec struct {
	match.Recv
	// owner is the Thread that carved the record, the only one that posts
	// it and the only one that puts it back (release); set once at carve.
	owner *Thread
	// next links the record into its owner's free list while it is there
	// (stale once popped: only the list reads it).
	next *recvRec
}

// recvRecord returns a released record of th's, or a freshly carved one.
func (th *Thread) recvRecord() *recvRec {
	rec := th.recvFree
	if rec == nil {
		rec = carve(&th.recs)
		rec.owner = th
		return rec
	}
	th.recvFree = rec.next
	return rec
}

// release is what a Wait or Test of th's does on seeing r complete: if r is a
// receive th posted whose record is still r's, the record goes back on th's
// free list, its buffer and handle cleared, so it retains no user memory and
// names r no more. A send, a receive waited through another Thread (which
// must not touch th's list) and a handle whose record already went back
// release nothing: a completion that th never sees leaves its record to the
// collector.
func (r *Request) release(th *Thread) {
	rec := r.rec
	if rec == nil || rec.owner != th || rec.Token != any(r) {
		return
	}
	rec.Buf, rec.Token = nil, nil
	rec.next = th.recvFree
	th.recvFree = rec
}

// Done reports whether the operation has completed. It does not progress
// the runtime; use Test for the MPI_Test behavior.
func (r *Request) Done() bool { return r.done.Load() }

// Status returns the receive status, read from the handle alone: valid once
// a receive has completed, for as long as the handle lives; a send's is the
// zero Status.
func (r *Request) Status() Status {
	return Status{
		Source:     r.src,
		Tag:        r.tag,
		Count:      int(r.count),
		MessageLen: int(r.mlen),
		Truncated:  r.count < r.mlen,
	}
}

// Test progresses the runtime once and reports completion (MPI_Test).
func (r *Request) Test(th *Thread) (bool, error) {
	if !r.done.Load() {
		th.Progress()
		if !r.done.Load() {
			return false, nil
		}
	}
	r.release(th)
	return true, r.result()
}

// Wait blocks (progressing the runtime) until the operation completes —
// the mandatory-progress rule for blocking MPI calls (Section II-B).
func (r *Request) Wait(th *Thread) error {
	if th.proc != r.proc {
		panic("core: Wait with a thread from a different proc")
	}
	th.WaitUntil(r.done.Load)
	r.release(th)
	return r.result()
}

// WaitAll waits on every request (MPI_Waitall), returning the first error.
func WaitAll(th *Thread, reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if err := r.Wait(th); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// WaitAny blocks until at least one request completes and returns its
// index (MPI_Waitany); only that request counts as waited. Panics on an
// empty list.
func WaitAny(th *Thread, reqs ...*Request) (int, error) {
	if len(reqs) == 0 {
		panic("core: WaitAny with no requests")
	}
	var first int
	th.WaitUntil(func() bool {
		for i, r := range reqs {
			if r.done.Load() {
				first = i
				return true
			}
		}
		return false
	})
	reqs[first].release(th)
	return first, reqs[first].result()
}

// TestAll progresses once and reports whether every request has completed
// (MPI_Testall), returning the first error among completed requests. Only a
// true report counts as having waited on them.
func TestAll(th *Thread, reqs ...*Request) (bool, error) {
	th.Progress()
	for _, r := range reqs {
		if !r.done.Load() {
			return false, nil
		}
	}
	var first error
	for _, r := range reqs {
		r.release(th)
		if err := r.result(); err != nil && first == nil {
			first = err
		}
	}
	return true, first
}

func (r *Request) finish(err error) {
	if err != nil {
		box := new(error)
		*box = err
		r.err = box
	}
	if r.done.Swap(true) {
		panic("core: request completed twice")
	}
}

// result is the error a completed operation finished with, nil on success.
func (r *Request) result() error {
	if r.err == nil {
		return nil
	}
	return *r.err
}

// matched records the envelope of the message a receive matched in its
// handle: the source, tag and full length of its status. (By pointer: a
// 28-byte copy staged twice through the stack stalls the load that reads it
// back.)
func (r *Request) matched(env *transport.Envelope) {
	r.src, r.tag, r.mlen = env.Src, env.Tag, env.Len
}

// finishRecv completes a receive whose envelope matched recorded, n bytes of
// it delivered. The status is whole before the done store, so whoever sees
// the receive complete reads it from the handle — its record may be reused
// from then on.
func (r *Request) finishRecv(n int) {
	r.count = uint32(n)
	var err error
	if r.count < r.mlen {
		err = fmt.Errorf("%w: %d-byte message into %d-byte buffer", ErrTruncated, r.mlen, r.count)
	}
	r.finish(err)
}
