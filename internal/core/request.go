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

type reqKind uint8

const (
	reqSend reqKind = iota + 1
	reqRecv
	reqRendezvousSend
)

// Request is a non-blocking operation handle. Wait/Test observe completion;
// the progress engine (any thread's) completes it. It holds only what every
// operation uses, in four words: a receive's status is read from its matching
// record, which a send does not have, and an error — rare — is boxed.
type Request struct {
	proc *Proc
	// matched is a receive's matching-engine record, whose result fields —
	// MatchedEnv, N, Truncated — are the receive's status; nil for a send.
	matched *match.Recv
	// err is the error the operation completed with, nil on success (see
	// result).
	err *error

	kind reqKind
	// reliable marks a send tracked by the delivery-reliability layer: it
	// completes on the peer's ack (or ErrPeerUnreachable), not on the local
	// send CQE. Written before injection, so the CQE handler observes it.
	reliable bool
	done     atomic.Bool
}

// A posted operation is one slab entry: the handle the caller holds and the
// record the message path works on sit side by side, and the handle is the
// address of the first field. The two shapes are separate structs so that
// neither pays for the other's record. Each Thread carves them from its own
// slabs of opSlab entries (see carve), and no entry is ever handed out twice
// — the collector frees a slab once every holder of every entry in it has let
// go — so a holder that lingers costs memory, never a use after free (over the
// in-process fabric the sender's packet IS the packet in the receiver's
// queues).

// sendOp is an eager send: the request and the packet that carries it.
type sendOp struct {
	Request
	pkt transport.Packet
}

// recvOp is a posted receive: the request and its matching-engine record.
type recvOp struct {
	Request
	recv match.Recv
}

// Done reports whether the operation has completed. It does not progress
// the runtime; use Test for the MPI_Test behavior.
func (r *Request) Done() bool { return r.done.Load() }

// Status returns the receive status. Valid only after completion of a
// receive request; a send's is the zero Status.
func (r *Request) Status() Status {
	m := r.matched
	if m == nil {
		return Status{}
	}
	return Status{
		Source:     m.MatchedEnv.Src,
		Tag:        m.MatchedEnv.Tag,
		Count:      m.N,
		MessageLen: int(m.MatchedEnv.Len),
		Truncated:  m.Truncated,
	}
}

// Test progresses the runtime once and reports completion (MPI_Test).
func (r *Request) Test(th *Thread) (bool, error) {
	if r.done.Load() {
		return true, r.result()
	}
	th.Progress()
	if r.done.Load() {
		return true, r.result()
	}
	return false, nil
}

// Wait blocks (progressing the runtime) until the operation completes —
// the mandatory-progress rule for blocking MPI calls (Section II-B).
func (r *Request) Wait(th *Thread) error {
	if th.proc != r.proc {
		panic("core: Wait with a thread from a different proc")
	}
	th.WaitUntil(r.done.Load)
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
// index (MPI_Waitany). Panics on an empty list.
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
	return first, reqs[first].result()
}

// TestAll progresses once and reports whether every request has completed
// (MPI_Testall), returning the first error among completed requests.
func TestAll(th *Thread, reqs ...*Request) (bool, error) {
	th.Progress()
	var first error
	for _, r := range reqs {
		if !r.done.Load() {
			return false, nil
		}
		if err := r.result(); err != nil && first == nil {
			first = err
		}
	}
	return true, first
}

// Complete implements Completer for send completions extracted from a CQ.
func (r *Request) Complete(transport.CQE) {
	if r.kind == reqRendezvousSend {
		// The eager injection of the RTS does not finish a rendezvous
		// send; the put + FIN path completes it.
		return
	}
	if r.reliable {
		// Local injection is not delivery under the reliability layer; the
		// ack path (or the retransmit sweep's failure) completes this send.
		return
	}
	r.finish(nil)
}

func (r *Request) finish(err error) {
	if err != nil {
		box := new(error)
		*box = err
		r.err = box
	}
	if r.done.Swap(true) {
		panic(fmt.Sprintf("core: request completed twice (kind %d)", r.kind))
	}
}

// result is the error a completed operation finished with, nil on success.
func (r *Request) result() error {
	if r.err == nil {
		return nil
	}
	return *r.err
}

// finishRecv completes a receive whose results are in its matching record.
func (r *Request) finishRecv() {
	var err error
	if m := r.matched; m.Truncated {
		err = fmt.Errorf("%w: %d-byte message into %d-byte buffer", ErrTruncated, m.MatchedEnv.Len, m.N)
	}
	r.finish(err)
}
