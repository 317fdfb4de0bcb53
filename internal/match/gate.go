package match

import (
	"repro/internal/spc"
	"repro/internal/transport"
)

// peerState tracks the inbound sequence stream from one sender.
type peerState struct {
	nextSeq uint32
	// oos buffers out-of-sequence packets keyed by sequence number. The
	// map models the allocation cost the paper highlights: arrival out of
	// order forces the library to stash the message mid-critical-path.
	oos map[uint32]*transport.Packet
}

// seqGate is the sequence validation every engine runs before matching:
// per-sender next-expected sequence, the out-of-sequence buffer, and the
// stale/duplicate classification. It is unsynchronised — Engine owns one
// under the caller's matching lock, Sharded owns one per stripe under the
// stripe lock. Sequence numbers are compared with serial (modular)
// arithmetic, so a stream stays ordered across the uint32 wrap.
type seqGate struct {
	c      *common
	n      *tally      // the counter block under the same lock as the gate
	dense  []peerState // senders [0, len)
	sparse map[int32]*peerState
	held   int // packets buffered right now
}

func newSeqGate(c *common, n *tally, nRanks int) seqGate {
	g := seqGate{c: c, n: n, sparse: make(map[int32]*peerState)}
	if nRanks > 0 {
		g.dense = make([]peerState, nRanks)
	}
	return g
}

func (g *seqGate) peer(src int32) *peerState {
	if src >= 0 && int(src) < len(g.dense) {
		return &g.dense[src]
	}
	p := g.sparse[src]
	if p == nil {
		p = &peerState{}
		g.sparse[src] = p
	}
	return p
}

// admit reports whether pkt is the next in p's stream and, if so, advances
// the stream: the caller matches pkt and then everything next releases.
// Otherwise the gate has counted and kept or dropped the packet.
func (g *seqGate) admit(p *peerState, seq uint32, pkt *transport.Packet) bool {
	if seq == p.nextSeq {
		p.nextSeq++
		return true
	}
	g.hold(p, seq, pkt)
	return false
}

func (g *seqGate) hold(p *peerState, seq uint32, pkt *transport.Packet) {
	if int32(seq-p.nextSeq) < 0 {
		// Stale sequence: this message was already delivered, so the packet
		// is a duplicate (fabric duplication or a retransmission that lost
		// the race with its original). Discard and count — re-matching it
		// would violate exactly-once delivery.
		g.n.add(spc.DuplicateSequences, 1)
		return
	}
	// Out of sequence: buffer for later. This is the costly mid-path
	// allocation the paper measures; SPC out_of_sequence counts it.
	g.n.add(spc.OutOfSequence, 1)
	g.c.charge(g.n, g.c.costs.OOSBuffer)
	if p.oos == nil {
		p.oos = make(map[uint32]*transport.Packet)
	}
	if _, dup := p.oos[seq]; dup {
		// Same future sequence already buffered: duplicate copy.
		g.n.add(spc.DuplicateSequences, 1)
		return
	}
	p.oos[seq] = pkt
	g.held++
}

// next releases the buffered packet an in-order arrival has unblocked, or
// returns nil when p's stream has a gap again.
func (g *seqGate) next(p *peerState) *transport.Packet {
	pkt, ok := p.oos[p.nextSeq]
	if !ok {
		return nil
	}
	delete(p.oos, p.nextSeq)
	g.held--
	p.nextSeq++
	return pkt
}
