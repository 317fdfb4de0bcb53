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
// The engine's counters are plain words kept under the same lock as the
// state they describe (see tally); Counts reads them.
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
// (OB1-style, the paper's subject) and Sharded, the engine behind a
// communicator that asserts no wildcards. Engine requires external
// synchronization per communicator; Sharded synchronizes internally
// (SelfLocking).
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
	// Counts returns the engine's counters: matching attempts, walked
	// elements, match time, expected, unexpected and received messages,
	// both queue peaks, out-of-sequence and duplicate arrivals. All zero
	// for an engine built with a nil counter set.
	Counts() spc.Snapshot
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
	// queued is set while the recv waits in a posted queue; it shares
	// Truncated's word.
	queued bool
	N      int // bytes copied into Buf

	// Token is opaque caller state (the user-level request).
	Token any

	// prev/next link the recv into the one bucket it waits on.
	prev, next *Recv
}

// Completion reports one matched message: the receive and its packet.
type Completion struct {
	Recv   *Recv
	Packet *transport.Packet
}

// common is what a matching engine is apart from how it searches: its
// identity, where modeled cost goes, the flight ring, and the hooks both
// engines fire at the same points of a message's life — so their order and
// values, which the virtual-time twin replays, exist once. The hooks record
// events; counting is the tally's, under the lock of the state it counts.
type common struct {
	comm     uint32
	costs    hw.CostModel
	meter    Meter
	counting bool
	flight   *flight.Ring
}

func newCommon(comm uint32, costs hw.CostModel, meter Meter, spcs *spc.Set) common {
	if meter == nil {
		meter = NopMeter{}
	}
	return common{comm: comm, costs: costs, meter: meter, counting: spcs != nil}
}

// Comm returns the communicator id this engine serves.
func (c *common) Comm() uint32 { return c.comm }

// BindFlight implements Matcher.
func (c *common) BindFlight(r *flight.Ring) { c.flight = r }

// spin runs the meter for a modeled cost; a zero cost does nothing.
func (c *common) spin(d time.Duration) {
	if d != 0 {
		c.meter.Charge(d)
	}
}

// charge runs the meter for a modeled cost and counts it as match time in t,
// whose lock the caller holds.
func (c *common) charge(t *tally, d time.Duration) {
	c.spin(d)
	t.wait(d)
}

// wrongComm refuses another communicator's traffic.
func (c *common) wrongComm(got uint32) {
	panic(fmt.Sprintf("match: packet for comm %d delivered to engine %d", got, c.comm))
}

// walked accounts, in t, a linear search that visited n queue elements.
func (c *common) walked(t *tally, n int) {
	t.add(spc.MatchWalkElements, int64(n))
	c.charge(t, c.costs.MatchBase+time.Duration(n)*c.costs.MatchPerElement)
}

// queued records that r found no message and now waits in a posted queue
// holding depth receives.
func (c *common) queued(r *Recv, depth int) {
	c.flight.Record(flight.KindRecvPost, c.comm, r.Source, int32(depth))
}

// matched completes posted receive r, already unlinked, with an arriving
// message; depth is the posted-queue length left behind.
func (c *common) matched(r *Recv, env transport.Envelope, pkt *transport.Packet, depth int, out []Completion) []Completion {
	c.flight.Record(flight.KindMatchHit, c.comm, env.Src, int32(depth))
	fill(r, env, pkt)
	return append(out, Completion{Recv: r, Packet: pkt})
}

// unexpected records that a message matched no posted receive and was
// queued; depth is the unexpected-queue length including it.
func (c *common) unexpected(env transport.Envelope, depth int) {
	c.flight.Record(flight.KindMatchMiss, c.comm, env.Src, env.Tag)
	c.flight.Record(flight.KindUnexpEnq, c.comm, env.Src, int32(depth))
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
	return Completion{Recv: r, Packet: pkt}
}

// tally is one block of an engine's counters as plain words. Every word is
// written only by the holder of the lock that guards the block — the
// communicator's matching lock for Engine's one block, a shard or stripe
// lock for Sharded's — and read by Counts under the same lock, so counting a
// message costs no locked instruction. The methods name the points of a
// message's life that count. A block of an engine built without a counter
// set stays zero.
type tally struct {
	on bool
	v  spc.Snapshot
}

func (t *tally) add(c spc.Counter, d int64) {
	if t.on {
		t.v[c] += d
	}
}

func (t *tally) max(c spc.Counter, v int64) {
	if t.on && v > t.v[c] {
		t.v[c] = v
	}
}

// wait counts d as match time; zero counts nothing.
func (t *tally) wait(d time.Duration) {
	if d != 0 {
		t.add(spc.MatchTimeNanos, int64(d))
	}
}

// attempt counts one entry into matching: a posted receive or an arrival.
func (t *tally) attempt() { t.add(spc.MatchAttempts, 1) }

// posted counts a receive left waiting in a posted queue of depth receives.
func (t *tally) posted(depth int) { t.max(spc.PostedQueuePeak, int64(depth)) }

// expected counts an arrival that matched a posted receive.
func (t *tally) expected() {
	t.add(spc.ExpectedMessages, 1)
	t.add(spc.MessagesReceived, 1)
}

// unexpected counts an arrival queued as unexpected, depth messages queued.
func (t *tally) unexpected(depth int) {
	t.add(spc.UnexpectedMessages, 1)
	t.max(spc.UnexpectedQueuePeak, int64(depth))
}

// claimed counts a receive that took a queued unexpected message.
func (t *tally) claimed() { t.add(spc.MessagesReceived, 1) }

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

	// n is the engine's one counter block, under the matching lock.
	n tally
}

// NewEngine creates the matching engine for communicator id comm with
// the given cost model. nRanks sizes the dense per-peer table; senders
// outside [0, nRanks) fall back to a map. The engine keeps its own counters
// (see Counts) and never writes spcs: a nil spcs builds an engine that
// counts nothing.
func NewEngine(comm uint32, nRanks int, costs hw.CostModel, meter Meter, spcs *spc.Set) *Engine {
	e := &Engine{common: newCommon(comm, costs, meter, spcs)}
	e.n.on = e.counting
	e.gate = newSeqGate(&e.common, &e.n, nRanks)
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

// ChargeWait implements Matcher: externally measured lock-wait time counts
// toward match time, so Table II's "match time" includes the time threads
// spend fighting over the matching critical section, as Open MPI's SPC
// does. The caller holds the matching lock it waited for.
func (e *Engine) ChargeWait(d time.Duration) { e.n.wait(d) }

// Counts implements Matcher, under the matching lock like every method.
func (e *Engine) Counts() spc.Snapshot { return e.n.v }

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
	e.n.attempt()
	m, walked := e.unexp.first(r.Source, r.Tag)
	e.walked(&e.n, walked)
	if m != nil {
		e.unexp.remove(m)
		env, pkt := e.free.release(m)
		e.n.claimed()
		return e.claim(r, env, pkt, e.unexp.n), true
	}
	e.posted.push(r)
	e.n.posted(e.posted.n)
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
	e.n.attempt()
	walked := 0
	r := e.posted.head
	for ; r != nil; r = r.next {
		walked++
		if matches(r.Source, r.Tag, env.Src, env.Tag) {
			break
		}
	}
	e.walked(&e.n, walked)
	if r != nil {
		e.posted.remove(r)
		e.n.expected()
		return e.matched(r, env, pkt, e.posted.n, out)
	}
	e.unexp.push(e.free.get(env, pkt))
	e.n.unexpected(e.unexp.n)
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
