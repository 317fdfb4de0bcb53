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
// or the receives sharing one (source, tag) in a shard.
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

// pendingMsg is an arrived-but-unmatched message, on exactly one list: the
// list engine's unexpected queue, or its (source, tag) list in a shard.
type pendingMsg struct {
	env        transport.Envelope
	pkt        *transport.Packet
	prev, next *pendingMsg
}

// msgFree recycles the pendingMsg records of one engine or shard, under the
// lock that already guards its unexpected queue. A record never leaves its
// engine — a claim hands the receive the envelope and the packet, not the
// record — so once off its list it goes back here and the next message that
// misses reuses it. The list never holds more records than the queue once did.
type msgFree struct{ head *pendingMsg }

// get returns a record for an unexpected message, reusing a freed one.
func (f *msgFree) get(env transport.Envelope, pkt *transport.Packet) *pendingMsg {
	m := f.head
	if m == nil {
		m = new(pendingMsg)
	} else {
		f.head = m.next
	}
	*m = pendingMsg{env: env, pkt: pkt}
	return m
}

// release frees m, already off its list, and returns what it carried. The
// freed record keeps no packet alive.
func (f *msgFree) release(m *pendingMsg) (transport.Envelope, *transport.Packet) {
	env, pkt := m.env, m.pkt
	*m = pendingMsg{next: f.head}
	f.head = m
	return env, pkt
}

// msgList is a FIFO of unexpected messages in arrival order.
type msgList struct {
	head, tail *pendingMsg
	n          int
}

func (l *msgList) push(m *pendingMsg) {
	m.prev = l.tail
	if l.tail != nil {
		l.tail.next = m
	} else {
		l.head = m
	}
	l.tail = m
	l.n++
}

func (l *msgList) remove(m *pendingMsg) {
	if m.prev != nil {
		m.prev.next = m.next
	} else {
		l.head = m.next
	}
	if m.next != nil {
		m.next.prev = m.prev
	} else {
		l.tail = m.prev
	}
	m.prev, m.next = nil, nil
	l.n--
}

// first walks the list for the oldest message (source, tag) accepts,
// returning it (nil if none) and the number of elements visited.
func (l *msgList) first(source, tag int32) (*pendingMsg, int) {
	walked := 0
	for m := l.head; m != nil; m = m.next {
		walked++
		if matches(source, tag, m.env.Src, m.env.Tag) {
			return m, walked
		}
	}
	return nil, walked
}

// hashStore is the O(1) matching state of one Sharded shard: posted
// receives and unexpected messages, each bucketed by exact (source, tag).
// Unsynchronised; the shard lock guards it.
type hashStore struct {
	posted map[key64]*bucket
	unexp  map[key64]*msgList
	free   msgFree
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

// addUnexpected queues a message no posted receive matched.
func (s *hashStore) addUnexpected(env transport.Envelope, pkt *transport.Packet) {
	k := mkKey(env.Src, env.Tag)
	l := s.unexp[k]
	if l == nil {
		l = &msgList{}
		s.unexp[k] = l
	}
	l.push(s.free.get(env, pkt))
}

// takeUnexpected removes m from the store and returns what it carried.
func (s *hashStore) takeUnexpected(m *pendingMsg) (transport.Envelope, *transport.Packet) {
	s.unexp[mkKey(m.env.Src, m.env.Tag)].remove(m)
	return s.free.release(m)
}
