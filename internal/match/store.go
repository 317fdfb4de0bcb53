package match

import "repro/internal/transport"

// key64 packs (source, tag) into one map key.
type key64 uint64

func mkKey(src, tag int32) key64 { return key64(uint32(src))<<32 | key64(uint32(tag)) }

// exact reports whether (source, tag) names one sender and one tag, so the
// coordinates select a single hash bucket.
func exact(source, tag int32) bool { return source != AnySource && tag != AnyTag }

// matches reports whether receive coordinates (source, tag), wildcards
// included, accept a message from msgSrc carrying msgTag. (Scalars, not the
// envelope: the list engine's walk inlines this once per queue element.)
func matches(source, tag, msgSrc, msgTag int32) bool {
	return (source == AnySource || source == msgSrc) && (tag == AnyTag || tag == msgTag)
}

// bucket is a FIFO of posted receives: the list engine's whole posted queue,
// or the receives sharing one (source, tag) or one wildcard shape.
type bucket struct {
	head, tail *Recv
	n          int
}

func (b *bucket) push(r *Recv) {
	r.queued = true
	r.prev, r.next = b.tail, nil
	if b.tail != nil {
		b.tail.next = r
	} else {
		b.head = r
	}
	b.tail = r
	b.n++
}

func (b *bucket) remove(r *Recv) {
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		b.head = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		b.tail = r.prev
	}
	r.prev, r.next = nil, nil
	r.queued = false
	b.n--
}

// older returns b's head and b when that receive was posted before best (or
// best is nil), else best and in unchanged: folding it over the candidate
// buckets picks the receive MPI's matching order owes the message.
func older(b *bucket, best *Recv, in *bucket) (*Recv, *bucket) {
	if b != nil && b.head != nil && (best == nil || b.head.ticket < best.ticket) {
		return b.head, b
	}
	return best, in
}

// pendingMsg is an arrived-but-unmatched message. It sits on up to two lists
// at once, each through its own pair of links.
type pendingMsg struct {
	env   transport.Envelope
	pkt   *transport.Packet
	links [2]struct{ prev, next *pendingMsg }
}

// msgFree recycles the pendingMsg records of one engine or shard, under the
// lock that already guards its unexpected queue. A record never leaves its
// engine — a claim hands the receive the envelope and the packet, not the
// record — so once off every list it goes back here and the next message that
// misses reuses it. The list never holds more records than the queue once did.
type msgFree struct{ head *pendingMsg }

// get returns a record for an unexpected message, reusing a freed one.
func (f *msgFree) get(env transport.Envelope, pkt *transport.Packet) *pendingMsg {
	m := f.head
	if m == nil {
		m = new(pendingMsg)
	} else {
		f.head = m.links[byArrival].next
	}
	*m = pendingMsg{env: env, pkt: pkt}
	return m
}

// release frees m, already off every list, and returns what it carried. The
// freed record keeps no packet alive.
func (f *msgFree) release(m *pendingMsg) (transport.Envelope, *transport.Packet) {
	env, pkt := m.env, m.pkt
	*m = pendingMsg{}
	m.links[byArrival].next = f.head
	f.head = m
	return env, pkt
}

const (
	byArrival = iota // every unexpected message of an engine or shard, oldest first
	byKey            // the messages sharing one exact (source, tag)
)

// msgList is a FIFO of unexpected messages threaded through links[by].
type msgList struct {
	head, tail *pendingMsg
	n          int
	by         uint8
}

func (l *msgList) push(m *pendingMsg) {
	m.links[l.by].prev = l.tail
	if l.tail != nil {
		l.tail.links[l.by].next = m
	} else {
		l.head = m
	}
	l.tail = m
	l.n++
}

func (l *msgList) remove(m *pendingMsg) {
	lk := &m.links[l.by]
	if lk.prev != nil {
		lk.prev.links[l.by].next = lk.next
	} else {
		l.head = lk.next
	}
	if lk.next != nil {
		lk.next.links[l.by].prev = lk.prev
	} else {
		l.tail = lk.prev
	}
	lk.prev, lk.next = nil, nil
	l.n--
}

// first walks an arrival-ordered list for the oldest message (source, tag)
// accepts, returning it (nil if none) and the number of elements visited.
func (l *msgList) first(source, tag int32) (*pendingMsg, int) {
	walked := 0
	for m := l.head; m != nil; m = m.links[byArrival].next {
		walked++
		if matches(source, tag, m.env.Src, m.env.Tag) {
			return m, walked
		}
	}
	return nil, walked
}

// hashStore is the O(1) matching state HashEngine owns once and Sharded owns
// once per shard: posted receives with exact coordinates bucketed by
// (source, tag), and unexpected messages both bucketed the same way and kept
// in arrival order for wildcard receives and probes. Unsynchronised.
type hashStore struct {
	posted   map[key64]*bucket
	unexp    map[key64]*msgList
	arrivals msgList
	free     msgFree
}

func newHashStore() hashStore {
	return hashStore{posted: make(map[key64]*bucket), unexp: make(map[key64]*msgList)}
}

// postedBucket returns the bucket for exact coordinates, creating it.
func (s *hashStore) postedBucket(source, tag int32) *bucket {
	k := mkKey(source, tag)
	b := s.posted[k]
	if b == nil {
		b = &bucket{}
		s.posted[k] = b
	}
	return b
}

// unexpectedHead returns the oldest unexpected message with exactly these
// coordinates, or nil.
func (s *hashStore) unexpectedHead(source, tag int32) *pendingMsg {
	if l := s.unexp[mkKey(source, tag)]; l != nil {
		return l.head
	}
	return nil
}

// oldestUnexpected finds the message a receive or probe at (source, tag) is
// owed: the exact bucket's head in O(1) (walked is 0), or for wildcards the
// first match in arrival order.
func (s *hashStore) oldestUnexpected(source, tag int32) (m *pendingMsg, walked int) {
	if exact(source, tag) {
		return s.unexpectedHead(source, tag), 0
	}
	return s.arrivals.first(source, tag)
}

// addUnexpected queues a message no posted receive matched.
func (s *hashStore) addUnexpected(env transport.Envelope, pkt *transport.Packet) {
	m := s.free.get(env, pkt)
	s.arrivals.push(m)
	k := mkKey(m.env.Src, m.env.Tag)
	l := s.unexp[k]
	if l == nil {
		l = &msgList{by: byKey}
		s.unexp[k] = l
	}
	l.push(m)
}

// takeUnexpected removes m from the store and returns what it carried.
func (s *hashStore) takeUnexpected(m *pendingMsg) (transport.Envelope, *transport.Packet) {
	s.arrivals.remove(m)
	s.unexp[mkKey(m.env.Src, m.env.Tag)].remove(m)
	return s.free.release(m)
}

// wildSet holds the posted receives with a wildcard coordinate, one FIFO per
// wildcard shape; their heads compete with the exact bucket's head for each
// arriving message (see older).
type wildSet struct {
	anyTag map[int32]*bucket // by Source, Tag == AnyTag
	anySrc map[int32]*bucket // by Tag, Source == AnySource
	both   bucket
}

func newWildSet() wildSet {
	return wildSet{anyTag: make(map[int32]*bucket), anySrc: make(map[int32]*bucket)}
}

// bucketFor returns the list a wildcard receive queues on, creating it.
func (w *wildSet) bucketFor(r *Recv) *bucket {
	m, k := w.anyTag, r.Source
	switch {
	case r.Source == AnySource && r.Tag == AnyTag:
		return &w.both
	case r.Source == AnySource:
		m, k = w.anySrc, r.Tag
	}
	b := m[k]
	if b == nil {
		b = &bucket{}
		m[k] = b
	}
	return b
}

// oldest folds older over the wildcard lists that accept a message from
// msgSrc carrying msgTag.
func (w *wildSet) oldest(msgSrc, msgTag int32, best *Recv, in *bucket) (*Recv, *bucket) {
	best, in = older(w.anyTag[msgSrc], best, in)
	best, in = older(w.anySrc[msgTag], best, in)
	return older(&w.both, best, in)
}
