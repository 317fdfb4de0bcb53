package match

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/hw"
	"repro/internal/prof"
	"repro/internal/spc"
	"repro/internal/transport"
)

// DefaultShards is the shard count of the engine behind every communicator
// that asserts no wildcards, in the runtime and in the model alike.
const DefaultShards = 32

// ErrWildcard refuses a wildcard receive or probe on a communicator that
// asserts mpi_assert_no_any_source and mpi_assert_no_any_tag.
var ErrWildcard = errors.New("match: wildcard on a communicator asserting no wildcards (mpi_assert_no_any_source, mpi_assert_no_any_tag)")

// RefuseWildcard is the one check of that assertion: it returns ErrWildcard,
// naming the coordinates, when source or tag is a wildcard, and nil when
// (source, tag) names one channel.
func RefuseWildcard(source, tag int32) error {
	if exact(source, tag) {
		return nil
	}
	return fmt.Errorf("%w: source %d, tag %d", ErrWildcard, source, tag)
}

// Sharded is a concurrently accessible matching engine for a communicator
// that asserts no wildcards: posted receives and unexpected messages are
// partitioned into hash shards by (source, tag), so traffic on different
// shards matches in parallel — taking the paper's "concurrent matching"
// (communicator-per-pair, Section III-F) one step further, inside a single
// communicator. Unlike Engine and HashEngine it synchronizes INTERNALLY
// (SelfLocking reports true); callers must NOT wrap it in a
// communicator-wide matching lock, or the sharding buys nothing.
//
// Every receive and probe names one (source, tag), so it touches exactly one
// shard, and MPI's matching order is the FIFO order of that shard's buckets:
// no two candidates for one message ever sit on different shards. A wildcard
// names no shard; one that reaches the engine panics with RefuseWildcard's
// error, and the runtime refuses it before that.
//
// Correctness rests on two ordered lock classes, always acquired in this
// order:
//
//  1. stripe (per-source): serializes sequence validation and
//     out-of-sequence buffering for one sender, and is HELD ACROSS the
//     shard insertion so two in-order messages from the same sender can
//     never race into their buckets in the wrong order.
//  2. shard (per source/tag hash): guards that shard's posted and
//     unexpected buckets.
//
// Each shard is a lock over the same hashStore HashEngine uses, each stripe
// a lock over the same seqGate.
//
// PostedLen/UnexpectedLen are approximate by design: they read atomic
// counters without stopping the world, the same monitoring-only contract as
// ringbuf.MPSC.Len. OOSBuffered sums the gates one stripe lock at a time.
type Sharded struct {
	common

	// allowOvertaking is set during setup, before the engine is shared.
	allowOvertaking bool

	shards    []matchShard
	shardMask uint64
	stripes   []seqStripe

	postedCount atomic.Int64
	unexpCount  atomic.Int64
}

// matchShard is one hash partition of the matching state.
type matchShard struct {
	mu prof.Mutex
	hashStore
}

// seqStripe serializes per-sender sequence state. Sources hash onto
// stripes, so distinct senders usually validate concurrently.
type seqStripe struct {
	mu   prof.Mutex
	gate seqGate
}

// NewSharded creates a sharded matching engine for communicator comm with
// nShards hash partitions (rounded up to a power of two, minimum 2).
// nRanks is accepted for signature parity with the other engines; peer
// state is allocated lazily per stripe. spcs may be nil.
func NewSharded(comm uint32, nRanks, nShards int, costs hw.CostModel, meter Meter, spcs *spc.Set) *Sharded {
	n := 2
	for n < nShards {
		n <<= 1
	}
	e := &Sharded{
		common:    newCommon(comm, costs, meter, spcs),
		shards:    make([]matchShard, n),
		shardMask: uint64(n - 1),
		stripes:   make([]seqStripe, n),
	}
	for i := range e.shards {
		e.shards[i].hashStore = newHashStore()
		e.stripes[i].gate = newSeqGate(&e.common, 0)
	}
	return e
}

var _ Matcher = (*Sharded)(nil)

// selfLocking marks the engine as internally synchronized (see SelfLocking).
func (e *Sharded) selfLocking() {}

// SelfLocking reports whether m synchronizes internally, in which case the
// caller must not (and must not need to) wrap it in an external matching
// lock. Engine and HashEngine return false; Sharded returns true.
func SelfLocking(m Matcher) bool {
	type sl interface{ selfLocking() }
	_, ok := m.(sl)
	return ok
}

// NumShards returns the number of hash partitions.
func (e *Sharded) NumShards() int { return len(e.shards) }

// SetAllowOvertaking implements Matcher. Call during setup only.
func (e *Sharded) SetAllowOvertaking(on bool) { e.allowOvertaking = on }

// BindProfSites attaches contention-profiler sites: one per shard lock (a
// short slice binds only the covered prefix) and one shared by all stripe
// locks. Sites are all-atomic, so sharing one across stripes is safe. Call
// during setup only.
func (e *Sharded) BindProfSites(shards []*prof.Site, stripe *prof.Site) {
	for i := range e.shards {
		if i < len(shards) {
			e.shards[i].mu.Bind(shards[i])
		}
		e.stripes[i].mu.Bind(stripe)
	}
}

// hash64 finalizes a (src, tag) key into a well-mixed shard index
// (splitmix64 finalizer).
func hash64(k key64) uint64 {
	x := uint64(k)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ShardOf returns the shard index for exact coordinates (src, tag) —
// exported so tests and the simulator mirror can partition the same way.
func (e *Sharded) ShardOf(src, tag int32) int {
	return int(hash64(mkKey(src, tag)) & e.shardMask)
}

func (e *Sharded) shardFor(src, tag int32) *matchShard {
	return &e.shards[e.ShardOf(src, tag)]
}

// recvShard is shardFor for a receive or probe, whose coordinates may be a
// wildcard: that names no shard, and is refused (see the type comment).
func (e *Sharded) recvShard(source, tag int32) *matchShard {
	if err := RefuseWildcard(source, tag); err != nil {
		panic(err)
	}
	return e.shardFor(source, tag)
}

func (e *Sharded) stripeFor(src int32) *seqStripe {
	return &e.stripes[hash64(key64(uint32(src)))&e.shardMask]
}

// PostedLen implements Matcher. Approximate: see the type comment.
func (e *Sharded) PostedLen() int { return int(e.postedCount.Load()) }

// UnexpectedLen implements Matcher. Approximate: see the type comment.
func (e *Sharded) UnexpectedLen() int { return int(e.unexpCount.Load()) }

// OOSBuffered implements Matcher.
func (e *Sharded) OOSBuffered() int {
	n := 0
	for i := range e.stripes {
		st := &e.stripes[i]
		st.mu.Lock()
		n += st.gate.held
		st.mu.Unlock()
	}
	return n
}

// PostRecv implements Matcher: the receive's shard only.
func (e *Sharded) PostRecv(r *Recv) (Completion, bool) {
	if r.queued {
		panic("match: Recv posted twice")
	}
	sh := e.recvShard(r.Source, r.Tag)
	e.spcs.Inc(spc.MatchAttempts)
	sh.mu.Lock()
	e.charge(e.costs.MatchBase)
	if m := sh.unexpectedHead(r.Source, r.Tag); m != nil {
		env, pkt := sh.takeUnexpected(m)
		un := e.unexpCount.Add(-1)
		sh.mu.Unlock()
		return e.claim(r, env, pkt, int(un)), true
	}
	sh.postedBucket(r.Source, r.Tag).push(r)
	posted := e.postedCount.Add(1)
	sh.mu.Unlock()
	e.queued(r, int(posted))
	return Completion{}, false
}

// CancelRecv implements Matcher.
func (e *Sharded) CancelRecv(r *Recv) bool {
	sh := e.recvShard(r.Source, r.Tag)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !r.queued {
		return false
	}
	sh.postedBucket(r.Source, r.Tag).remove(r)
	e.postedCount.Add(-1)
	return true
}

// Deliver implements Matcher: sequence validation under the sender's
// stripe lock (held across matching so same-sender arrivals can never
// reorder), then shard-local matching.
func (e *Sharded) Deliver(pkt *transport.Packet, out []Completion) []Completion {
	env := pkt.Envelope()
	if env.Comm != e.comm {
		e.wrongComm(env.Comm)
	}
	if e.allowOvertaking {
		return e.matchIn(env, pkt, out)
	}
	st := e.stripeFor(env.Src)
	st.mu.Lock()
	p := st.gate.peer(env.Src)
	if st.gate.admit(p, env.Seq, pkt) {
		for {
			out = e.matchIn(env, pkt, out)
			if pkt = st.gate.next(p); pkt == nil {
				break
			}
			env = pkt.Envelope()
		}
	}
	st.mu.Unlock()
	return out
}

// matchIn matches one sequence-valid (or overtaking) message against the
// head of its (source, tag) bucket, under its shard lock alone.
func (e *Sharded) matchIn(env transport.Envelope, pkt *transport.Packet, out []Completion) []Completion {
	e.spcs.Inc(spc.MatchAttempts)
	e.charge(e.costs.MatchBase)
	sh := e.shardFor(env.Src, env.Tag)
	sh.mu.Lock()
	if b := sh.posted[mkKey(env.Src, env.Tag)]; b != nil && b.head != nil {
		r := b.head
		b.remove(r)
		posted := e.postedCount.Add(-1)
		sh.mu.Unlock()
		return e.matched(r, env, pkt, int(posted), out)
	}
	sh.addUnexpected(env, pkt)
	un := e.unexpCount.Add(1)
	sh.mu.Unlock()
	e.unexpected(env, int(un))
	return out
}

// Probe implements Matcher.
func (e *Sharded) Probe(source, tag int32) (transport.Envelope, bool) {
	sh := e.recvShard(source, tag)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if m := sh.unexpectedHead(source, tag); m != nil {
		return m.env, true
	}
	return transport.Envelope{}, false
}

// MProbe implements Matcher.
func (e *Sharded) MProbe(source, tag int32) (*transport.Packet, bool) {
	sh := e.recvShard(source, tag)
	sh.mu.Lock()
	m := sh.unexpectedHead(source, tag)
	if m == nil {
		sh.mu.Unlock()
		return nil, false
	}
	env, pkt := sh.takeUnexpected(m)
	un := e.unexpCount.Add(-1)
	sh.mu.Unlock()
	e.dequeued(env.Src, int(un))
	return pkt, true
}

// SeedNextSeq sets the expected inbound sequence for src, for wraparound
// regression tests. Safe concurrently (takes the stripe lock).
func (e *Sharded) SeedNextSeq(src int32, v uint32) {
	st := e.stripeFor(src)
	st.mu.Lock()
	st.gate.peer(src).nextSeq = v
	st.mu.Unlock()
}
