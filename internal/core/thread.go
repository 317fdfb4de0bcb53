package core

import (
	"fmt"
	"runtime"
	"unsafe"

	"repro/internal/cri"
	"repro/internal/transport"
)

// Thread is a communicating thread's handle into the runtime — the explicit
// stand-in for the thread-local storage of Algorithm 1 (Go exposes no TLS).
// Each goroutine that performs communication should create one Thread and
// use it for all calls; the handle caches the dedicated instance assignment
// and is not safe for concurrent use by multiple goroutines.
//
// That single owner is also what lets a message cost no heap object of its
// own: the thread's request handles, eager packets and rendezvous sends are
// carved from its operation slabs (an eager send to another rank over a
// backend that copies reuses its one packet instead, Caps.Copies), its posted
// receives' matching records come back to its free list once it has waited on
// them, its small eager payload copies and the metadata records of its timed
// or tracked packets are carved from its transport.Slab, and a self message
// is matched through its eager run — none of it synchronized, because only
// the owning goroutine touches it. Slabs fill on first use, never in
// NewThread.
type Thread struct {
	proc *Proc
	ts   cri.ThreadState

	reqs []Request
	pkts []transport.Packet
	recs []recvRec
	// recvFree lists the receive records this thread has released (see
	// Request.release), linked through recvRec.next.
	recvFree *recvRec
	rdvs     []rdvSendOp
	// tx is the packet of every eager send to another rank when the proc
	// reuses one (Proc.reuseSend): reset per message, its Payload the
	// caller's buffer.
	tx   transport.Packet
	slab transport.Slab
	run  eagerRun
	// fetched is where a fetching one-sided atomic lands its result: such an
	// operation completes before its caller returns, so one word per thread
	// is enough (see FetchWord).
	fetched int64
}

// slabBytes is the size of one slab allocation: 8 KiB, less the 8-byte
// header the Go runtime puts in front of every pointer-holding object above
// 512 bytes, so a slab fills its size class exactly (a slab of 64 packets,
// 4 KiB plus the header, would take a 4 864-byte block). A carved entry is
// never handed out twice (see carve): a handle held for long keeps its slab
// — 170 handles, or 64 rendezvous sends (see slabLen) — alive, and so does an
// eager packet a receiver still holds (127 packets). Only a receive's record
// is reused, and only through its Thread's free list.
const slabBytes = 8<<10 - 8

// slabLen is how many entries of type T one slab holds: as many as fill
// slabBytes, but never fewer than 64, so that an entry above 127 bytes — the
// 216-byte rendezvous send — costs no more allocations per operation than
// the small ones.
func slabLen[T any]() int {
	var zero T
	return max(int(slabBytes/unsafe.Sizeof(zero)), 64)
}

// carve returns the next zero entry of *slab, refilling it with a slab of
// fresh entries when it is used up.
func carve[T any](slab *[]T) *T {
	if len(*slab) == 0 {
		*slab = make([]T, slabLen[T]())
	}
	e := &(*slab)[0]
	*slab = (*slab)[1:]
	return e
}

// NewThread attaches a communication thread to the proc. Under
// Options.Profile the thread receives a phase clock, and under
// Options.FlightCapacity its own flight-recorder ring (both labelled
// rank<r>/t<n>); the clock starts in the app phase immediately.
func (p *Proc) NewThread() *Thread {
	th := &Thread{proc: p}
	if p.prof != nil || p.flight != nil {
		n := p.profThreads.Add(1) - 1
		if p.prof != nil {
			th.ts.SetClock(p.prof.NewThreadClock(fmt.Sprintf("rank%d/t%d", p.rank, n), nil))
		}
		th.ts.SetFlight(p.flight.NewRing(fmt.Sprintf("rank%d/t%d", p.rank, n)))
	}
	return th
}

// Done marks the thread's benchmark work finished, freezing its phase
// clock so the app-phase remainder stops accumulating. Harmless without
// profiling; idempotent.
func (t *Thread) Done() { t.ts.Clock().Stop() }

// State exposes the CRI thread state (used by the one-sided layer).
func (t *Thread) State() *cri.ThreadState { return &t.ts }

// Progress makes one pass through the progress engine on behalf of this
// thread and returns the number of completion events handled.
func (t *Thread) Progress() int {
	return t.proc.progressFor(&t.ts)
}

// WaitUntil drives the progress engine until done reports true — the one
// wait loop behind every blocking call (Request.Wait, WaitAny, the one-sided
// flushes), which is how blocking calls honour MPI's mandatory-progress rule
// (Section II-B). A pass that handled nothing yields the core: single-core
// hosts depend on it so the peer can make progress. done runs once per pass
// and must not allocate.
func (t *Thread) WaitUntil(done func() bool) {
	for !done() {
		if t.Progress() == 0 {
			runtime.Gosched()
		}
	}
}

// PollHeld is what a caller holding in's lock does when the backend refused
// a signaled one-sided operation with transport.ErrCQFull — the flush marker
// of internal/rma, the one operation that can meet a full queue: poll in
// through the proc's dispatch, reaping its completions (and delivering what
// arrived on it), before the caller retries. Nobody else can drain a context
// whose instance lock the caller holds, so waiting instead would wait
// forever. A pass that found nothing yields the core.
func (t *Thread) PollHeld(in *cri.Instance) {
	if in.Poll(t.ts.Clock(), t.proc.dispatch, 64) == 0 {
		runtime.Gosched()
	}
}

// FetchWord returns the thread's landing word for a fetching one-sided
// atomic's result (rma's FetchAndOp, CompareAndSwap). The operation must
// complete before the thread issues another.
func (t *Thread) FetchWord() *int64 { return &t.fetched }

// Detach releases the thread's dedicated instance assignment. The instance
// itself remains in the pool and — per the orphaned-CRI guarantee of
// Section III-E — continues to be progressed by other threads' round-robin
// sweeps.
func (t *Thread) Detach() { t.ts.Reset() }
