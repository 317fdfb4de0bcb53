package match

import (
	"repro/internal/hw"
	"repro/internal/spc"
	"repro/internal/transport"
)

// HashEngine is a hash-based matching engine: posted receives and
// unexpected messages with exact (source, tag) coordinates live in O(1)
// buckets, while wildcard receives stay on ordered side lists. This is the
// "optimized matching" direction the paper's Section III-F explicitly
// leaves out of scope ("a study of optimized or parallel matching is not
// within the scope of this paper") — implemented here so the remaining
// serialization can be quantified with the search cost removed.
//
// It is the shared parts and nothing else: one sequence gate, one hash
// store, one wildcard set. MPI's matching order is preserved exactly: every
// posted receive carries a monotone ticket; an incoming message matches the
// oldest candidate among its exact bucket head and the wildcard list heads.
// Like Engine, all methods require external synchronization.
type HashEngine struct {
	common
	gate  seqGate
	store hashStore
	wild  wildSet

	allowOvertaking bool
	nextTicket      uint64
	posted          int
}

// NewHashEngine creates a hash matching engine for communicator comm.
func NewHashEngine(comm uint32, nRanks int, costs hw.CostModel, meter Meter, spcs *spc.Set) *HashEngine {
	e := &HashEngine{common: newCommon(comm, costs, meter, spcs), store: newHashStore(), wild: newWildSet()}
	e.gate = newSeqGate(&e.common, nRanks)
	return e
}

var _ Matcher = (*HashEngine)(nil)

// SetAllowOvertaking implements Matcher.
func (e *HashEngine) SetAllowOvertaking(on bool) { e.allowOvertaking = on }

// SeedNextSeq sets the expected inbound sequence for src, for wraparound
// regression tests. Requires the caller's external synchronization.
func (e *HashEngine) SeedNextSeq(src int32, v uint32) { e.gate.peer(src).nextSeq = v }

// PostedLen implements Matcher.
func (e *HashEngine) PostedLen() int { return e.posted }

// UnexpectedLen implements Matcher.
func (e *HashEngine) UnexpectedLen() int { return e.store.arrivals.n }

// OOSBuffered implements Matcher.
func (e *HashEngine) OOSBuffered() int { return e.gate.held }

// PostRecv implements Matcher. Exact receives look up their unexpected
// bucket in O(1); wildcard receives scan the global unexpected FIFO.
func (e *HashEngine) PostRecv(r *Recv) (Completion, bool) {
	if r.queued {
		panic("match: Recv posted twice")
	}
	e.spcs.Inc(spc.MatchAttempts)
	m, walked := e.store.oldestUnexpected(r.Source, r.Tag)
	if exact(r.Source, r.Tag) {
		e.charge(e.costs.MatchBase)
	} else {
		e.walked(walked)
	}
	if m != nil {
		env, pkt := e.store.takeUnexpected(m)
		return e.claim(r, env, pkt, e.store.arrivals.n), true
	}
	e.nextTicket++
	r.ticket = e.nextTicket
	e.bucketFor(r).push(r)
	e.posted++
	e.queued(r, e.posted)
	return Completion{}, false
}

func (e *HashEngine) bucketFor(r *Recv) *bucket {
	if exact(r.Source, r.Tag) {
		return e.store.postedBucket(r.Source, r.Tag)
	}
	return e.wild.bucketFor(r)
}

// CancelRecv implements Matcher.
func (e *HashEngine) CancelRecv(r *Recv) bool {
	if !r.queued {
		return false
	}
	e.bucketFor(r).remove(r)
	e.posted--
	return true
}

// Deliver implements Matcher: identical sequence validation to Engine, with
// the bucketed search in place of the linear one.
func (e *HashEngine) Deliver(pkt *transport.Packet, out []Completion) []Completion {
	env := pkt.Envelope()
	if env.Comm != e.comm {
		e.wrongComm(env.Comm)
	}
	if e.allowOvertaking {
		return e.matchIn(env, pkt, out)
	}
	p := e.gate.peer(env.Src)
	if !e.gate.admit(p, env.Seq, pkt) {
		return out
	}
	for {
		out = e.matchIn(env, pkt, out)
		if pkt = e.gate.next(p); pkt == nil {
			return out
		}
		env = pkt.Envelope()
	}
}

// matchIn picks the oldest candidate among the four bucket heads that can
// accept the message — constant-time regardless of queue depth.
func (e *HashEngine) matchIn(env transport.Envelope, pkt *transport.Packet, out []Completion) []Completion {
	e.spcs.Inc(spc.MatchAttempts)
	e.charge(e.costs.MatchBase)
	best, in := older(e.store.posted[mkKey(env.Src, env.Tag)], nil, nil)
	best, in = e.wild.oldest(env.Src, env.Tag, best, in)
	if best != nil {
		in.remove(best)
		e.posted--
		return e.matched(best, env, pkt, e.posted, out)
	}
	e.store.addUnexpected(env, pkt, 0)
	e.unexpected(env, e.store.arrivals.n)
	return out
}

// Probe implements Matcher.
func (e *HashEngine) Probe(source, tag int32) (transport.Envelope, bool) {
	if m, _ := e.store.oldestUnexpected(source, tag); m != nil {
		return m.env, true
	}
	return transport.Envelope{}, false
}

// MProbe implements Matcher.
func (e *HashEngine) MProbe(source, tag int32) (*transport.Packet, bool) {
	m, _ := e.store.oldestUnexpected(source, tag)
	if m == nil {
		return nil, false
	}
	env, pkt := e.store.takeUnexpected(m)
	e.dequeued(env.Src, e.store.arrivals.n)
	return pkt, true
}
