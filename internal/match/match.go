// Package match implements the MPI message-matching engine: per-peer
// sequence-number validation, out-of-sequence buffering, the posted-receive
// queue, the unexpected-message queue, and wildcard (ANY_SOURCE / ANY_TAG)
// matching — the OB1-style per-communicator matching state the paper builds
// its concurrent-matching experiment on (Section III-F).
//
// The engine is deliberately lock-free *internally*: the caller provides
// mutual exclusion (a real sync.Mutex in the runtime, a virtual-time lock in
// the simulator). CPU costs are charged through a Meter so the same code
// serves both wall-clock and virtual-time execution, and the SPC match-time
// counter is advanced by the *modeled* cost, making Table II deterministic.
package match

import (
	"fmt"
	"time"

	"repro/internal/flight"
	"repro/internal/hw"
	"repro/internal/spc"
	"repro/internal/transport"
)

// Wildcard values for Recv.Source and Recv.Tag, mirroring MPI_ANY_SOURCE
// and MPI_ANY_TAG.
const (
	AnySource int32 = -1
	AnyTag    int32 = -101
)

// Meter charges modeled CPU time to the executing thread. The runtime's
// meter busy-spins (hw.Spin); the simulator's meter advances virtual time.
type Meter interface {
	Charge(d time.Duration)
}

// SpinMeter charges cost by actually spinning the calling core.
type SpinMeter struct{}

// Charge implements Meter.
func (SpinMeter) Charge(d time.Duration) { hw.Spin(d) }

// NopMeter discards charges; unit tests use it.
type NopMeter struct{}

// Charge implements Meter.
func (NopMeter) Charge(time.Duration) {}

// Matcher is the matching-engine contract shared by the list-based Engine
// (OB1-style, the paper's subject) and the hash-based HashEngine (the
// "optimized matching" direction Section III-F leaves out of scope). All
// implementations require external synchronization per communicator.
type Matcher interface {
	// PostRecv posts a receive, completing immediately against a queued
	// unexpected message when possible.
	PostRecv(r *Recv) (Completion, bool)
	// CancelRecv removes an unmatched posted receive.
	CancelRecv(r *Recv) bool
	// Deliver runs one inbound packet through sequence validation and
	// matching, appending completions to out.
	Deliver(pkt *transport.Packet, out []Completion) []Completion
	// Probe reports a queued unexpected message matching (source, tag).
	Probe(source, tag int32) (transport.Envelope, bool)
	// MProbe removes and returns the oldest queued unexpected message
	// matching (source, tag) — MPI_Mprobe semantics: the message is
	// claimed and can no longer match other receives.
	MProbe(source, tag int32) (*transport.Packet, bool)
	// SetAllowOvertaking toggles the overtaking assertion.
	SetAllowOvertaking(on bool)
	// ChargeWait accounts externally measured matching-lock wait time.
	ChargeWait(d time.Duration)
	// PostedLen and UnexpectedLen report queue lengths; OOSBuffered the
	// number of sequence-buffered packets.
	PostedLen() int
	UnexpectedLen() int
	OOSBuffered() int
	// BindFlight attaches a flight-recorder ring receiving match events
	// (recv posted, match hit/miss, unexpected enqueue/dequeue). Call
	// during setup, under the same synchronization as the other methods;
	// nil (the default) leaves recording off at one branch per event.
	BindFlight(r *flight.Ring)
}

// Recv is one posted receive. The engine links it into the posted queue;
// when a message matches, the engine fills the result fields and reports it
// in a Completion. The caller owns completion signaling to the user.
type Recv struct {
	Source int32 // sender rank or AnySource
	Tag    int32 // tag or AnyTag
	Buf    []byte

	// Results, valid after the Recv appears in a Completion.
	MatchedEnv transport.Envelope
	Truncated  bool // payload longer than Buf
	N          int  // bytes copied into Buf

	// Token is opaque caller state (the user-level request).
	Token any

	// prev/next link the recv into the one bucket it waits on.
	prev, next *Recv
	queued     bool
	// ticket orders posted receives across HashEngine's buckets.
	ticket uint64
}

// Completion reports one matched message: the receive and its packet.
type Completion struct {
	Recv   *Recv
	Packet *transport.Packet
}

// common is what a matching engine is apart from how it searches: its
// identity, where modeled cost and counters go, the flight ring, and the
// hooks all three engines fire at the same points of a message's life — so
// their order and values, which the virtual-time twin replays, exist once.
type common struct {
	comm   uint32
	costs  hw.CostModel
	meter  Meter
	spcs   *spc.Set
	flight *flight.Ring
}

func newCommon(comm uint32, costs hw.CostModel, meter Meter, spcs *spc.Set) common {
	if meter == nil {
		meter = NopMeter{}
	}
	return common{comm: comm, costs: costs, meter: meter, spcs: spcs}
}

// Comm returns the communicator id this engine serves.
func (c *common) Comm() uint32 { return c.comm }

// BindFlight implements Matcher.
func (c *common) BindFlight(r *flight.Ring) { c.flight = r }

// ChargeWait adds externally measured lock-wait time to the match-time
// counter; the runtime and simulator report matching-lock contention here
// so Table II's "match time" includes waiting, as Open MPI's SPC does.
func (c *common) ChargeWait(d time.Duration) {
	c.spcs.Add(spc.MatchTimeNanos, int64(d))
}

func (c *common) charge(d time.Duration) {
	c.meter.Charge(d)
	c.ChargeWait(d)
}

// wrongComm refuses another communicator's traffic.
func (c *common) wrongComm(got uint32) {
	panic(fmt.Sprintf("match: packet for comm %d delivered to engine %d", got, c.comm))
}

// walked accounts a linear search that visited n queue elements.
func (c *common) walked(n int) {
	c.spcs.Add(spc.MatchWalkElements, int64(n))
	c.charge(c.costs.MatchBase + time.Duration(n)*c.costs.MatchPerElement)
}

// queued records that r found no message and now waits in a posted queue
// holding depth receives.
func (c *common) queued(r *Recv, depth int) {
	c.spcs.Max(spc.PostedQueuePeak, int64(depth))
	c.flight.Record(flight.KindRecvPost, c.comm, r.Source, int32(depth))
}

// matched completes posted receive r, already unlinked, with an arriving
// message; depth is the posted-queue length left behind.
func (c *common) matched(r *Recv, env transport.Envelope, pkt *transport.Packet, depth int, out []Completion) []Completion {
	c.flight.Record(flight.KindMatchHit, c.comm, env.Src, int32(depth))
	fill(r, env, pkt)
	c.spcs.Inc(spc.ExpectedMessages)
	c.spcs.Inc(spc.MessagesReceived)
	return append(out, Completion{Recv: r, Packet: pkt})
}

// unexpected records that a message matched no posted receive and was
// queued; depth is the unexpected-queue length including it.
func (c *common) unexpected(env transport.Envelope, depth int) {
	c.flight.Record(flight.KindMatchMiss, c.comm, env.Src, env.Tag)
	c.flight.Record(flight.KindUnexpEnq, c.comm, env.Src, int32(depth))
	c.spcs.Inc(spc.UnexpectedMessages)
	c.spcs.Max(spc.UnexpectedQueuePeak, int64(depth))
}

// dequeued records that a message from src left the unexpected queue, depth
// messages remaining: claimed by a matched probe, or by a receive (see claim).
func (c *common) dequeued(src int32, depth int) {
	c.flight.Record(flight.KindUnexpDeq, c.comm, src, int32(depth))
}

// claim completes a receive being posted with the unexpected message env and
// pkt, already taken off the queue.
func (c *common) claim(r *Recv, env transport.Envelope, pkt *transport.Packet, depth int) Completion {
	c.dequeued(env.Src, depth)
	fill(r, env, pkt)
	c.spcs.Inc(spc.MessagesReceived)
	return Completion{Recv: r, Packet: pkt}
}

// fill copies payload into the receive and records results.
func fill(r *Recv, env transport.Envelope, pkt *transport.Packet) {
	r.MatchedEnv = env
	n := copy(r.Buf, pkt.Payload)
	r.N = n
	r.Truncated = n < len(pkt.Payload)
}

// Engine is the list-based matching state of one communicator: one posted
// queue and one unexpected queue, each searched linearly — the OB1 design
// whose search cost and serial section the paper measures. All methods
// require external synchronization (the communicator's matching lock).
type Engine struct {
	common
	gate seqGate

	// AllowOvertaking skips sequence validation entirely — the
	// mpi_assert_allow_overtaking info key (Section IV-D).
	AllowOvertaking bool

	posted bucket
	unexp  msgList
	free   msgFree
}

// NewEngine creates the matching engine for communicator id comm with
// the given cost model. nRanks sizes the dense per-peer table; senders
// outside [0, nRanks) fall back to a map. spcs may be nil.
func NewEngine(comm uint32, nRanks int, costs hw.CostModel, meter Meter, spcs *spc.Set) *Engine {
	e := &Engine{common: newCommon(comm, costs, meter, spcs)}
	e.gate = newSeqGate(&e.common, nRanks)
	return e
}

// SetAllowOvertaking implements Matcher.
func (e *Engine) SetAllowOvertaking(on bool) { e.AllowOvertaking = on }

// SeedNextSeq sets the expected inbound sequence for src, for wraparound
// regression tests. Requires the caller's external synchronization, like
// every other method.
func (e *Engine) SeedNextSeq(src int32, v uint32) { e.gate.peer(src).nextSeq = v }

// static interface check
var _ Matcher = (*Engine)(nil)

// PostedLen returns the posted-receive queue length.
func (e *Engine) PostedLen() int { return e.posted.n }

// UnexpectedLen returns the unexpected-message queue length.
func (e *Engine) UnexpectedLen() int { return e.unexp.n }

// OOSBuffered returns the number of currently buffered out-of-sequence
// packets, for tests and diagnostics.
func (e *Engine) OOSBuffered() int { return e.gate.held }

// PostRecv posts a receive. If an unexpected message already matches, the
// engine completes it immediately and returns the completion with ok=true;
// otherwise the receive is queued and ok=false.
func (e *Engine) PostRecv(r *Recv) (Completion, bool) {
	if r.queued {
		panic("match: Recv posted twice")
	}
	e.spcs.Inc(spc.MatchAttempts)
	m, walked := e.unexp.first(r.Source, r.Tag)
	e.walked(walked)
	if m != nil {
		e.unexp.remove(m)
		env, pkt := e.free.release(m)
		return e.claim(r, env, pkt, e.unexp.n), true
	}
	e.posted.push(r)
	e.queued(r, e.posted.n)
	return Completion{}, false
}

// CancelRecv removes a posted receive that has not matched, reporting
// whether it was found (false means it already matched or was never posted).
func (e *Engine) CancelRecv(r *Recv) bool {
	if !r.queued {
		return false
	}
	e.posted.remove(r)
	return true
}

// Deliver processes one inbound packet through sequence validation and
// matching, appending any completions to out (several can complete at once
// when an in-order arrival unblocks buffered out-of-sequence messages).
// The returned slice is out with appends.
func (e *Engine) Deliver(pkt *transport.Packet, out []Completion) []Completion {
	env := pkt.Envelope()
	if env.Comm != e.comm {
		e.wrongComm(env.Comm)
	}
	if e.AllowOvertaking {
		// Overtaking asserted: no ordering requirement, match immediately.
		return e.matchIn(env, pkt, out)
	}
	p := e.gate.peer(env.Src)
	if !e.gate.admit(p, env.Seq, pkt) {
		return out
	}
	// In order: match it, then drain any consecutive buffered successors.
	for {
		out = e.matchIn(env, pkt, out)
		if pkt = e.gate.next(p); pkt == nil {
			return out
		}
		env = pkt.Envelope()
	}
}

// matchIn matches one sequence-valid (or overtaking) message against the
// posted-receive queue, or stores it as unexpected.
func (e *Engine) matchIn(env transport.Envelope, pkt *transport.Packet, out []Completion) []Completion {
	e.spcs.Inc(spc.MatchAttempts)
	walked := 0
	r := e.posted.head
	for ; r != nil; r = r.next {
		walked++
		if matches(r.Source, r.Tag, env.Src, env.Tag) {
			break
		}
	}
	e.walked(walked)
	if r != nil {
		e.posted.remove(r)
		return e.matched(r, env, pkt, e.posted.n, out)
	}
	e.unexp.push(e.free.get(env, pkt))
	e.unexpected(env, e.unexp.n)
	return out
}

// Probe reports whether an unexpected message matching (source, tag) is
// queued, returning its envelope — MPI_Iprobe semantics over the
// unexpected queue.
func (e *Engine) Probe(source, tag int32) (transport.Envelope, bool) {
	if m, _ := e.unexp.first(source, tag); m != nil {
		return m.env, true
	}
	return transport.Envelope{}, false
}

// MProbe implements Matcher: claim the oldest matching unexpected message.
func (e *Engine) MProbe(source, tag int32) (*transport.Packet, bool) {
	m, _ := e.unexp.first(source, tag)
	if m == nil {
		return nil, false
	}
	e.unexp.remove(m)
	env, pkt := e.free.release(m)
	e.dequeued(env.Src, e.unexp.n)
	return pkt, true
}
