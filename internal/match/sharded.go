package match

import (
	"sync/atomic"

	"repro/internal/hw"
	"repro/internal/prof"
	"repro/internal/spc"
	"repro/internal/transport"
)

// Sharded is a concurrently accessible matching engine: posted receives and
// unexpected messages are partitioned into hash shards by (source, tag), so
// exact-coordinate traffic on different shards matches in parallel — taking
// the paper's "concurrent matching" (communicator-per-pair, Section III-F)
// one step further, inside a single communicator. Unlike Engine and
// HashEngine it synchronizes INTERNALLY (SelfLocking reports true); callers
// must NOT wrap it in a communicator-wide matching lock, or the sharding
// buys nothing.
//
// Correctness rests on three ordered lock classes, always acquired in this
// order (each op takes at most one pass through them, so the hierarchy is
// acyclic and deadlock-free):
//
//  1. stripe (per-source): serializes sequence validation and
//     out-of-sequence buffering for one sender, and is HELD ACROSS the
//     shard insertion so two in-order messages from the same sender can
//     never race into their buckets in the wrong order.
//  2. shard (per source/tag hash): guards that shard's posted and
//     unexpected buckets. Wildcard operations lock all shards in ascending
//     index order.
//  3. wild: guards the wildcard posted lists (ANY_SOURCE / ANY_TAG), taken
//     last. A wildcard receive is inserted under the wild lock while all
//     shard locks are still held, so a concurrent Deliver can never enqueue
//     a matching message as unexpected without either seeing the receive or
//     forcing the receive's scan to see the message.
//
// MPI matching order is preserved: posted receives carry a global atomic
// ticket (lowest ticket wins among the exact-bucket head and the wildcard
// heads), and unexpected messages carry a global atomic arrival stamp
// (wildcard receives and probes claim the lowest stamp across shards).
//
// Each shard is a lock over the same hashStore HashEngine uses, each stripe
// a lock over the same seqGate; what Sharded adds is the three lock classes,
// the global ticket and stamp that keep MPI order across shards, and the
// wildCount fast path that keeps exact traffic off the wild lock.
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

	wildMu    prof.Mutex
	wild      wildSet
	wildCount atomic.Int64

	nextTicket atomic.Uint64
	nextStamp  atomic.Uint64

	postedCount atomic.Int64
	unexpCount  atomic.Int64
}

// matchShard is one hash partition of the matching state; its arrival list
// is stamp-ordered, walked by wildcard receives and probes.
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
		wild:      newWildSet(),
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
// short slice binds only the covered prefix), one shared by all stripe
// locks, one for the wildcard lock. Sites are all-atomic, so sharing one
// across stripes is safe. Call during setup only.
func (e *Sharded) BindProfSites(shards []*prof.Site, stripe, wild *prof.Site) {
	for i := range e.shards {
		if i < len(shards) {
			e.shards[i].mu.Bind(shards[i])
		}
		e.stripes[i].mu.Bind(stripe)
	}
	e.wildMu.Bind(wild)
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

func (e *Sharded) lockAllShards() {
	for i := range e.shards {
		e.shards[i].mu.Lock()
	}
}

func (e *Sharded) unlockAllShards() {
	for i := range e.shards {
		e.shards[i].mu.Unlock()
	}
}

// PostRecv implements Matcher. Exact receives touch only their shard;
// wildcard receives lock every shard (ascending) to scan arrivals in stamp
// order and, on a miss, publish themselves under the wild lock before any
// shard is released.
func (e *Sharded) PostRecv(r *Recv) (Completion, bool) {
	if r.queued {
		panic("match: Recv posted twice")
	}
	e.spcs.Inc(spc.MatchAttempts)
	if exact(r.Source, r.Tag) {
		sh := e.shardFor(r.Source, r.Tag)
		sh.mu.Lock()
		e.charge(e.costs.MatchBase)
		if m := sh.unexpectedHead(r.Source, r.Tag); m != nil {
			env, pkt := sh.takeUnexpected(m)
			un := e.unexpCount.Add(-1)
			sh.mu.Unlock()
			return e.claim(r, env, pkt, int(un)), true
		}
		r.ticket = e.nextTicket.Add(1)
		sh.postedBucket(r.Source, r.Tag).push(r)
		posted := e.postedCount.Add(1)
		sh.mu.Unlock()
		e.queued(r, int(posted))
		return Completion{}, false
	}

	// Wildcard: scan all shards for the oldest matching arrival.
	e.lockAllShards()
	m, sh, walked := e.oldestUnexpected(r.Source, r.Tag)
	e.walked(walked)
	if m != nil {
		env, pkt := sh.takeUnexpected(m)
		un := e.unexpCount.Add(-1)
		e.unlockAllShards()
		return e.claim(r, env, pkt, int(un)), true
	}
	// Publish the wildcard receive before releasing the shards, so no
	// in-flight Deliver can miss it.
	e.wildMu.Lock()
	r.ticket = e.nextTicket.Add(1)
	e.wild.bucketFor(r).push(r)
	e.wildCount.Add(1)
	posted := e.postedCount.Add(1)
	e.wildMu.Unlock()
	e.unlockAllShards()
	e.queued(r, int(posted))
	return Completion{}, false
}

// oldestUnexpected scans every shard's arrival FIFO (all shard locks held)
// for the stamp-oldest message (source, tag) accepts, returning it, its
// shard, and the total elements walked. Each shard contributes at most its
// first match: FIFO per shard makes that the shard's oldest.
func (e *Sharded) oldestUnexpected(source, tag int32) (*pendingMsg, *matchShard, int) {
	var best *pendingMsg
	var bestShard *matchShard
	walked := 0
	for i := range e.shards {
		sh := &e.shards[i]
		m, w := sh.arrivals.first(source, tag)
		walked += w
		if m != nil && (best == nil || m.stamp < best.stamp) {
			best, bestShard = m, sh
		}
	}
	return best, bestShard, walked
}

// CancelRecv implements Matcher.
func (e *Sharded) CancelRecv(r *Recv) bool {
	if exact(r.Source, r.Tag) {
		sh := e.shardFor(r.Source, r.Tag)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if !r.queued {
			return false
		}
		sh.postedBucket(r.Source, r.Tag).remove(r)
	} else {
		e.wildMu.Lock()
		defer e.wildMu.Unlock()
		if !r.queued {
			return false
		}
		e.wild.bucketFor(r).remove(r)
		e.wildCount.Add(-1)
	}
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

// matchIn matches one sequence-valid (or overtaking) message: shard lock,
// then — only when a wildcard receive might exist — the wild lock. The
// wildCount fast path is sound because wildcard receives are inserted while
// holding every shard lock, including ours.
func (e *Sharded) matchIn(env transport.Envelope, pkt *transport.Packet, out []Completion) []Completion {
	e.spcs.Inc(spc.MatchAttempts)
	e.charge(e.costs.MatchBase)
	sh := e.shardFor(env.Src, env.Tag)
	sh.mu.Lock()
	best, in := older(sh.posted[mkKey(env.Src, env.Tag)], nil, nil)
	if e.wildCount.Load() > 0 {
		e.wildMu.Lock()
		exactIn := in
		if best, in = e.wild.oldest(env.Src, env.Tag, best, in); best != nil {
			in.remove(best)
			if in != exactIn {
				e.wildCount.Add(-1)
			}
		}
		e.wildMu.Unlock()
	} else if best != nil {
		in.remove(best)
	}
	if best != nil {
		posted := e.postedCount.Add(-1)
		sh.mu.Unlock()
		return e.matched(best, env, pkt, int(posted), out)
	}
	sh.addUnexpected(env, pkt, e.nextStamp.Add(1))
	un := e.unexpCount.Add(1)
	sh.mu.Unlock()
	e.unexpected(env, int(un))
	return out
}

// Probe implements Matcher.
func (e *Sharded) Probe(source, tag int32) (transport.Envelope, bool) {
	var m *pendingMsg
	if exact(source, tag) {
		sh := e.shardFor(source, tag)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		m = sh.unexpectedHead(source, tag)
	} else {
		e.lockAllShards()
		defer e.unlockAllShards()
		m, _, _ = e.oldestUnexpected(source, tag)
	}
	if m == nil {
		return transport.Envelope{}, false
	}
	return m.env, true
}

// MProbe implements Matcher.
func (e *Sharded) MProbe(source, tag int32) (*transport.Packet, bool) {
	var env transport.Envelope
	var pkt *transport.Packet
	var un int64
	if exact(source, tag) {
		sh := e.shardFor(source, tag)
		sh.mu.Lock()
		if m := sh.unexpectedHead(source, tag); m != nil {
			env, pkt = sh.takeUnexpected(m)
			un = e.unexpCount.Add(-1)
		}
		sh.mu.Unlock()
	} else {
		e.lockAllShards()
		if m, sh, _ := e.oldestUnexpected(source, tag); m != nil {
			env, pkt = sh.takeUnexpected(m)
			un = e.unexpCount.Add(-1)
		}
		e.unlockAllShards()
	}
	if pkt == nil {
		return nil, false
	}
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
