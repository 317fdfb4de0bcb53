// Package cri implements Communication Resource Instances — the paper's
// central abstraction (Section III-B). A CRI bundles a network context, its
// completion queue, and the endpoints reaching each peer, protected by one
// per-instance lock. A Pool owns all of a process's instances and assigns
// them to threads with the two strategies of Algorithm 1: round-robin
// (atomic circular counter, new instance per call) and dedicated
// (thread-local cache of a permanently assigned instance).
package cri

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/flight"
	"repro/internal/prof"
	"repro/internal/spc"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Assignment selects how threads are mapped to instances.
type Assignment int

const (
	// RoundRobin hands out the next instance on every acquisition
	// (Algorithm 1, GET-INSTANCE-ID–ROUND-ROBIN).
	RoundRobin Assignment = iota
	// Dedicated permanently assigns an instance per thread via the
	// thread-local cache (Algorithm 1, GET-INSTANCE-ID–DEDICATED).
	Dedicated
	// FreeList hands each sender an exclusively owned instance popped from
	// an atomic Treiber-stack free-list, so the send-path instance lock is
	// uncontended between senders (progress threads may still try-lock it).
	// When every instance is claimed (threads > instances) acquisition falls
	// back to round-robin, which keeps liveness at the cost of contention.
	FreeList
)

func (a Assignment) String() string {
	switch a {
	case RoundRobin:
		return "round-robin"
	case Dedicated:
		return "dedicated"
	case FreeList:
		return "free-list"
	default:
		return fmt.Sprintf("assignment(%d)", int(a))
	}
}

// AssignmentByName is the inverse of String; it also takes the spellings
// "rr" and "freelist".
func AssignmentByName(name string) (Assignment, error) {
	switch name {
	case "round-robin", "rr":
		return RoundRobin, nil
	case "dedicated":
		return Dedicated, nil
	case "free-list", "freelist":
		return FreeList, nil
	default:
		return 0, fmt.Errorf("unknown assignment %q", name)
	}
}

// Instance is one Communication Resource Instance. Its size is a whole
// number of cache lines: allocated one by one, instances then start on a
// line and never share one, so one thread's sends and polls on its instance
// do not slow another's on the next (TestInstanceLayout). A field added to
// instance moves the pad, not the alignment. (The pad leads: a zero-length
// array closing a struct would itself cost a word.)
type Instance struct {
	_ [(64 - unsafe.Sizeof(instance{})%64) % 64]byte
	instance
}

// instance is what an Instance holds.
type instance struct {
	mu    prof.Mutex
	index int
	ctx   transport.Context
	eps   []transport.Endpoint // indexed by remote rank; nil for self
	// spcs is this instance's own attributed counter set (a child of the
	// process totals), so contention localizes to an instance.
	spcs *spc.Set
	// lockWait records blocking instance-lock acquisitions; nil when
	// latency telemetry is disabled.
	lockWait *telemetry.Histogram
	// flightRing receives a lock-wait event when a contended acquisition
	// blocks for at least flight.LockWaitThreshold; nil when the flight
	// recorder is off.
	flightRing *flight.Ring
	// pollFn is the handler handed to the transport context, bound once at
	// construction so a progress pass allocates nothing; pollClk/pollHandler
	// are the current pass's arguments, valid only under the instance lock.
	pollFn      func(transport.CQE)
	pollClk     *prof.ThreadClock
	pollHandler PollHandler
	// unlockFn is in.Unlock bound once, for the same reason: the release
	// function AcquireSend returns on every send is this value, not a fresh
	// method value.
	unlockFn func()
}

// NewInstance wraps a transport context as instance index within its pool.
// spcs is the instance's OWN counter set (not the process set): callers
// that want per-instance attribution pass a fresh set per instance and
// roll the children up with spc.Merge.
func NewInstance(index int, ctx transport.Context, spcs *spc.Set) *Instance {
	in := &Instance{instance: instance{index: index, ctx: ctx, spcs: spcs}}
	in.pollFn = func(e transport.CQE) { in.pollHandler(in.pollClk, in, e) }
	in.unlockFn = in.Unlock
	return in
}

// SetLockWaitHistogram attaches a histogram recording blocking lock waits.
// Call during setup, before the instance is shared between threads.
func (in *Instance) SetLockWaitHistogram(h *telemetry.Histogram) { in.lockWait = h }

// BindFlight attaches the flight-recorder ring that receives lock-wait
// events. Call during setup; a nil ring leaves the hook at one branch.
func (in *Instance) BindFlight(r *flight.Ring) { in.flightRing = r }

// BindProfSite attaches the contention profiler's per-site statistics to
// the instance lock. Call during setup only; a nil site leaves the lock
// unprofiled (single-branch overhead).
func (in *Instance) BindProfSite(s *prof.Site) { in.mu.Bind(s) }

// BindVirtualLock realizes the instance lock as v: the virtual-time model
// (internal/simnet) runs the pool and the progress engine over instances
// bound so. Call during setup only.
func (in *Instance) BindVirtualLock(v prof.VirtualLock) { in.mu.BindVirtual(v) }

// SPCs returns the instance's attributed counter set (nil when disabled).
func (in *Instance) SPCs() *spc.Set { return in.spcs }

// Index returns the instance's position in its pool.
func (in *Instance) Index() int { return in.index }

// Context returns the underlying network context.
func (in *Instance) Context() transport.Context { return in.ctx }

// SetEndpoints installs the per-rank endpoint table.
func (in *Instance) SetEndpoints(eps []transport.Endpoint) { in.eps = eps }

// Endpoint returns the endpoint to rank, or nil (self or unwired).
func (in *Instance) Endpoint(rank int) transport.Endpoint {
	if rank < 0 || rank >= len(in.eps) {
		return nil
	}
	return in.eps[rank]
}

// Lock acquires the instance lock, recording a contended acquisition in the
// instance's SPC set (send_lock_waits), the lock-wait histogram, the flight
// record and the profiler site. All records are nil-safe single branches
// when disabled.
func (in *Instance) Lock() { in.LockClocked(nil) }

// LockClocked is Lock, additionally charging any contended wait to a
// lock-wait phase section on the calling thread's clock (nil-safe). The
// wait the lock measured is the one every record reads.
func (in *Instance) LockClocked(clk *prof.ThreadClock) {
	w := in.mu.LockClocked(clk)
	if w == 0 {
		return
	}
	in.spcs.Inc(spc.SendLockWaits)
	in.lockWait.Observe(w)
	if w >= flight.LockWaitThreshold {
		in.flightRing.Record(flight.KindLockWait, 0, int32(in.index), int32(w/time.Microsecond))
	}
}

// TryLock attempts the instance lock without blocking, recording the loss
// on the profiler site when one is bound.
func (in *Instance) TryLock() bool { return in.mu.TryLock() }

// Unlock releases the instance lock.
func (in *Instance) Unlock() { in.mu.Unlock() }

// PollHandler routes one completion event extracted under the instance
// lock. The clock is the polling thread's phase clock (nil when profiling
// is off) so downstream work — matching, request completion — can charge
// its phases without a per-event lookup.
type PollHandler func(clk *prof.ThreadClock, in *Instance, e transport.CQE)

// Poll drains up to max completion events under the caller-held instance
// lock. The caller MUST hold the lock (progress-engine discipline).
func (in *Instance) Poll(clk *prof.ThreadClock, handler PollHandler, max int) int {
	in.pollClk, in.pollHandler = clk, handler
	return in.ctx.Poll(in.pollFn, max)
}

// ThreadState is the per-thread assignment cache — the TLS slot of
// Algorithm 1. Go has no thread-local storage, so the runtime hands each
// communicating goroutine an explicit handle holding this state; the lookup
// cost is identical (one pointer dereference).
type ThreadState struct {
	dedicated int
	assigned  bool
	// clock is the thread's phase clock (nil when profiling is off). It
	// rides in the TLS stand-in so every layer the thread enters — send
	// path, progress engine, matching — can attribute its time without
	// extra plumbing.
	clock *prof.ThreadClock
	// flight is the thread's flight-recorder ring (nil when the recorder
	// is off), riding in the TLS stand-in for the same reason.
	flight *flight.Ring
}

// SetClock attaches the thread's phase clock. Call at thread creation.
func (ts *ThreadState) SetClock(c *prof.ThreadClock) { ts.clock = c }

// Clock returns the thread's phase clock, nil when profiling is off.
func (ts *ThreadState) Clock() *prof.ThreadClock { return ts.clock }

// SetFlight attaches the thread's flight ring. Call at thread creation.
func (ts *ThreadState) SetFlight(r *flight.Ring) { ts.flight = r }

// Flight returns the thread's flight ring, nil when the recorder is off.
func (ts *ThreadState) Flight() *flight.Ring { return ts.flight }

// NewThreadState returns a state with a pre-assigned dedicated instance;
// a negative index means unassigned, as in the zero state.
func NewThreadState(dedicated int) ThreadState {
	if dedicated < 0 {
		return ThreadState{}
	}
	return ThreadState{dedicated: dedicated, assigned: true}
}

// Reset clears the cached dedicated assignment (used when a thread detaches
// and its instance may be recycled).
func (ts *ThreadState) Reset() { ts.assigned = false }

// Dedicated returns the cached instance index, or -1 if unassigned.
func (ts *ThreadState) Dedicated() int {
	if !ts.assigned {
		return -1
	}
	return ts.dedicated
}

// Pool owns a process's instances and implements the assignment strategies.
type Pool struct {
	instances []*Instance
	mode      Assignment
	rr        atomic.Uint64
	// spcs is the process counter set free-list acquisitions attribute to
	// (nil until SetSPCs; a nil set records nothing).
	spcs *spc.Set

	// The free-list is a Treiber stack over instance indices. freeHead packs
	// {version:32 | index+1:32}: the low half is the top-of-stack index plus
	// one (0 = empty), the high half a version bumped on every successful
	// CAS, which defeats ABA (a stale head from before a pop/push pair can
	// never CAS successfully, because the version moved even if the index
	// half came back around). freeNext[i] holds the index+1 of the element
	// below i, with the same +1/0 encoding. Indices fit easily in 32 bits:
	// pools are at most a few dozen instances.
	freeHead atomic.Uint64
	freeNext []atomic.Int32
	// giveBack[i] unlocks instance i and returns it to the free-list: the
	// release function of a free-list acquisition, built once per instance.
	giveBack []func()
}

// ErrEmptyPool reports a pool construction with no instances — a
// misconfiguration a real launcher surfaces as an init error, not a crash.
var ErrEmptyPool = errors.New("cri: empty instance pool")

// NewPool builds a pool over instances with the given assignment strategy.
func NewPool(instances []*Instance, mode Assignment) (*Pool, error) {
	if len(instances) == 0 {
		return nil, ErrEmptyPool
	}
	p := &Pool{instances: instances, mode: mode}
	if mode == FreeList {
		p.freeNext = make([]atomic.Int32, len(instances))
		p.giveBack = make([]func(), len(instances))
		for i, in := range instances {
			p.giveBack[i] = func() {
				in.Unlock()
				p.pushFree(i)
			}
		}
		// Seed the stack with every index, 0 on top, so low indices are
		// preferred and pool occupancy reads naturally in snapshots.
		for i := len(instances) - 1; i >= 0; i-- {
			p.pushFree(i)
		}
	}
	return p, nil
}

// SetSPCs attaches the process counter set that free-list acquisitions
// attribute to. Call during setup.
func (p *Pool) SetSPCs(s *spc.Set) { p.spcs = s }

// Len returns the number of instances.
func (p *Pool) Len() int { return len(p.instances) }

// Get returns instance i.
func (p *Pool) Get(i int) *Instance { return p.instances[i] }

// NextRoundRobin returns the next instance index first-come first-served.
// The counter is an unsigned 64-bit atomic on purpose: taking the modulo of
// a SIGNED counter after overflow would yield a negative index and panic,
// so the index math stays in uint64 until after the modulo. (At the 2^64
// wrap the sequence jumps by at most one position for non-power-of-two pool
// sizes — a one-off fairness skip, never an out-of-range index.)
func (p *Pool) NextRoundRobin() int {
	return int((p.rr.Add(1) - 1) % uint64(len(p.instances)))
}

// SeedRR sets the round-robin counter, for tests exercising the overflow
// boundaries (MaxInt32, MaxUint64). Not for concurrent use.
func (p *Pool) SeedRR(v uint64) { p.rr.Store(v) }

// pushFree returns index i to the free-list.
func (p *Pool) pushFree(i int) {
	for {
		h := p.freeHead.Load()
		p.freeNext[i].Store(int32(uint32(h)))
		nh := (h>>32+1)<<32 | uint64(uint32(i+1))
		if p.freeHead.CompareAndSwap(h, nh) {
			return
		}
	}
}

// popFree removes and returns the top free index, or -1 when drained.
func (p *Pool) popFree() int {
	for {
		h := p.freeHead.Load()
		idx := int32(uint32(h))
		if idx == 0 {
			return -1
		}
		// Reading freeNext[idx-1] is safe even if idx was popped and
		// re-pushed between our Load and CAS: the CAS below fails on the
		// version half and we retry with a fresh head.
		next := p.freeNext[idx-1].Load()
		nh := (h>>32+1)<<32 | uint64(uint32(next))
		if p.freeHead.CompareAndSwap(h, nh) {
			return int(idx - 1)
		}
	}
}

// AcquireSend returns a locked instance for one send operation plus its
// release function. Under FreeList the instance is popped from the atomic
// free-list, so it is exclusively owned against other senders and the lock
// acquisition is uncontended (only progress-engine try-locks can overlap);
// when the list is drained it falls back to a contended round-robin pick.
// Under RoundRobin/Dedicated it is ForThread + LockClocked, unchanged. The
// release function unlocks and, for free-list acquisitions, returns the
// instance to the list; it was built when the instance (or the pool) was, so
// acquiring allocates nothing.
func (p *Pool) AcquireSend(ts *ThreadState) (*Instance, func()) {
	if p.mode == FreeList {
		if i := p.popFree(); i >= 0 {
			p.spcs.Inc(spc.FreeListAcquires)
			in := p.instances[i]
			in.LockClocked(ts.Clock())
			return in, p.giveBack[i]
		}
		p.spcs.Inc(spc.FreeListEmpty)
		in := p.instances[p.NextRoundRobin()]
		in.LockClocked(ts.Clock())
		return in, in.unlockFn
	}
	in := p.ForThread(ts)
	in.LockClocked(ts.Clock())
	return in, in.unlockFn
}

// ForThread returns the instance for ts under the pool's strategy. With
// Dedicated the first call assigns via round-robin and caches the result in
// the thread state (Algorithm 1 line 19); with RoundRobin every call
// advances the circular counter.
func (p *Pool) ForThread(ts *ThreadState) *Instance {
	switch p.mode {
	case Dedicated:
		if !ts.assigned {
			ts.dedicated = p.NextRoundRobin()
			ts.assigned = true
		}
		return p.instances[ts.dedicated]
	default:
		return p.instances[p.NextRoundRobin()]
	}
}
