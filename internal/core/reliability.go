package core

import (
	"encoding/binary"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/flight"
	"repro/internal/prof"
	"repro/internal/spc"
	"repro/internal/transport"
)

// ErrPeerUnreachable reports a tracked packet abandoned after the
// retransmit budget was exhausted: the runtime stops retrying and surfaces
// the failure to the caller instead of hanging.
var ErrPeerUnreachable = errors.New("core: peer unreachable (retransmit budget exhausted)")

// DefaultRetransmitTimeout is the base retransmission timeout. Each retry
// doubles it (capped at relMaxRTO).
const DefaultRetransmitTimeout = time.Millisecond

// DefaultRetryBudget is the number of retransmissions attempted before a
// packet is abandoned with ErrPeerUnreachable.
const DefaultRetryBudget = 10

// relSweepTick bounds how often any one thread scans for expired
// retransmit timers; between ticks maybeSweep is one atomic load.
const relSweepTick = 200 * time.Microsecond

// relMaxRTO caps the exponential backoff.
const relMaxRTO = 100 * time.Millisecond

// Delivery-reliability protocol (runs when the backend is not lossless —
// Caps.Lossless false, e.g. a fabric built by backends.Faulty; a lossless
// wire gets no reliability state at all):
//
//   - Every tracked outbound packet carries a transport-level sequence
//     number per (sender, destination) pair in its driver metadata
//     (Meta.RelSeq/RelSrc) — separate from the matching layer's
//     per-communicator sequence, exactly as a BTL-level reliability window
//     is separate from PML matching in Open MPI.
//   - The receiver acks every tracked packet with a KindAck control packet
//     carrying {cumulative ack, selective ack}; duplicates (already under
//     the cumulative mark or already buffered) are counted, re-acked (the
//     original ack may have been lost), and dropped before matching.
//   - The sender keeps unacked packets in a per-peer window and, on a
//     coarse tick driven by the progress engine, retransmits entries whose
//     exponentially backed-off timeout expired. After the retry budget
//     retransmissions the entry is abandoned: its request (or fail hook)
//     completes with ErrPeerUnreachable.
//
// The ack claim — removing an entry from the unacked map under the mutex —
// is exclusive, so a late ack racing the failure sweep can never complete
// a request twice.

// relEntry is one unacked tracked packet.
type relEntry struct {
	pkt      *transport.Packet
	dstWorld int
	// req, when non-nil, completes with nil on ack and ErrPeerUnreachable
	// on abandonment (eager sends).
	req *Request
	// fail, when non-nil, runs instead of req completion on abandonment —
	// control packets (rendezvous RTS/ACK) clean their protocol state here.
	fail    func(error)
	sentAt  time.Time
	retries int
}

// relSendPeer is the send-side window toward one peer, guarded by its own
// stripe lock: two threads sending to different peers never serialize on
// reliability state (the "reliability.window" slice in the breakdown used
// to be one process-wide lock).
type relSendPeer struct {
	mu      prof.Mutex
	nextSeq uint64
	unacked map[uint64]*relEntry
}

// relRecvPeer is the receive-side dedup state for one peer: the cumulative
// in-order mark plus the set of out-of-order sequences already seen. Also
// stripe-locked per peer.
type relRecvPeer struct {
	mu  prof.Mutex
	cum uint64
	ooo map[uint64]struct{}
}

// relNextSeq advances a reliability sequence, skipping 0: RelSeq 0 is the
// wire sentinel for "untracked packet", so after the uint64 counter wraps
// the stream continues at 1. Sender (track) and receiver (acceptData) both
// step with this function, keeping the two sides in lockstep across the
// wrap.
func relNextSeq(s uint64) uint64 {
	s++
	if s == 0 {
		s = 1
	}
	return s
}

// relSeqBefore reports whether a precedes-or-equals b in serial (modular)
// order — the uint64 analogue of the matching layer's int32(a-b) test.
// Plain <= would misclassify every post-wrap sequence as ancient.
func relSeqBeforeOrEq(a, b uint64) bool { return int64(a-b) <= 0 }

// reliability is one proc's delivery-reliability state. All methods are
// safe for concurrent use; a nil *reliability ignores every call, so hot
// paths need no enabled checks.
type reliability struct {
	proc   *Proc
	rto    time.Duration
	budget int

	// send/recv are the per-peer stripes; each carries its own lock, all
	// profiled under the one "reliability.window" site so the breakdown
	// still reports reliability contention as a single line.
	send []relSendPeer // indexed by destination world rank
	recv []relRecvPeer // indexed by source world rank
	site *prof.Site

	lastSweep atomic.Int64
}

func newReliability(p *Proc) *reliability {
	return &reliability{proc: p, rto: DefaultRetransmitTimeout, budget: DefaultRetryBudget}
}

// bindProfSite attaches the profiler site shared by every stripe lock.
func (r *reliability) bindProfSite(s *prof.Site) {
	if r == nil {
		return
	}
	r.site = s
	for i := range r.send {
		r.send[i].mu.Bind(s)
	}
	for i := range r.recv {
		r.recv[i].mu.Bind(s)
	}
}

// initPeers sizes the per-peer tables once the world size is known.
func (r *reliability) initPeers(n int) {
	if r == nil {
		return
	}
	r.send = make([]relSendPeer, n)
	r.recv = make([]relRecvPeer, n)
	for i := range r.send {
		r.send[i].mu.Bind(r.site)
	}
	for i := range r.recv {
		r.recv[i].mu.Bind(r.site)
	}
}

// track registers an outbound packet for ack/retransmit, assigning its
// transport sequence number in the packet's Meta record, carved from slab if
// it has none (a nil slab: a record of its own). Must be called before the
// packet is injected. req (if non-nil) completes on the peer's ack.
func (r *reliability) track(pkt *transport.Packet, dstWorld int, req *Request, fail func(error), slab *transport.Slab) {
	if r == nil {
		return
	}
	now := time.Now()
	m := pkt.MetaFrom(slab)
	sp := &r.send[dstWorld]
	sp.mu.Lock()
	sp.nextSeq = relNextSeq(sp.nextSeq)
	m.RelSeq = sp.nextSeq
	m.RelSrc = int32(r.proc.rank)
	if sp.unacked == nil {
		sp.unacked = make(map[uint64]*relEntry)
	}
	sp.unacked[sp.nextSeq] = &relEntry{
		pkt: pkt, dstWorld: dstWorld, req: req, fail: fail, sentAt: now,
	}
	sp.mu.Unlock()
}

// acceptData runs receive-side dedup on a tracked inbound packet and acks
// it. It reports whether the packet is fresh (deliver it) or a duplicate
// (counted and dropped; the ack is re-sent because the original may have
// been lost on the wire).
func (r *reliability) acceptData(pkt *transport.Packet) bool {
	src := int(pkt.Meta.RelSrc)
	seq := pkt.Meta.RelSeq
	rp := &r.recv[src]
	rp.mu.Lock()
	fresh := false
	// Serial (modular) comparison: a sequence "after" cum is fresh even
	// when the uint64 counter has wrapped past cum numerically.
	if !relSeqBeforeOrEq(seq, rp.cum) {
		if _, seen := rp.ooo[seq]; !seen {
			fresh = true
			if seq == relNextSeq(rp.cum) {
				rp.cum = seq
				for {
					next := relNextSeq(rp.cum)
					if _, ok := rp.ooo[next]; !ok {
						break
					}
					delete(rp.ooo, next)
					rp.cum = next
				}
			} else {
				if rp.ooo == nil {
					rp.ooo = make(map[uint64]struct{})
				}
				rp.ooo[seq] = struct{}{}
			}
		}
	}
	cum := rp.cum
	rp.mu.Unlock()
	if !fresh {
		r.proc.spcs.Inc(spc.DuplicatePackets)
	}
	r.sendAck(src, cum, seq)
	return fresh
}

// sendAck injects a {cumulative, selective} acknowledgement toward
// dstWorld. Acks are not themselves tracked (no acks of acks): a lost ack
// is repaired by the peer's retransmission, which re-triggers this path.
func (r *reliability) sendAck(dstWorld int, cum, sel uint64) {
	p := r.proc
	var payload [16]byte
	binary.LittleEndian.PutUint64(payload[0:], cum)
	binary.LittleEndian.PutUint64(payload[8:], sel)
	env := transport.Envelope{
		Src: int32(p.rank), Dst: int32(dstWorld), Kind: transport.KindAck,
	}
	// An unsendable ack is repaired by the peer's retransmission, which
	// re-triggers this path — same recovery as a lost ack on the wire.
	_ = p.sendControl(dstWorld, transport.NewPacketRaw(env, payload[:]))
	p.spcs.Inc(spc.AcksSent)
	p.flightRing.Record(flight.KindAckSent, 0, int32(dstWorld), int32(uint32(cum)))
}

// handleAck retires every unacked entry covered by the ack's cumulative
// mark, plus the selectively acked sequence, completing their requests.
func (r *reliability) handleAck(pkt *transport.Packet) {
	if r == nil || len(pkt.Payload) < 16 {
		return
	}
	src := int(pkt.Envelope().Src) // acking peer's world rank
	if src < 0 || src >= len(r.send) {
		return
	}
	cum := binary.LittleEndian.Uint64(pkt.Payload[0:])
	sel := binary.LittleEndian.Uint64(pkt.Payload[8:])
	var done []*relEntry
	sp := &r.send[src]
	sp.mu.Lock()
	for seq, e := range sp.unacked {
		if relSeqBeforeOrEq(seq, cum) || seq == sel {
			delete(sp.unacked, seq)
			done = append(done, e)
		}
	}
	sp.mu.Unlock()
	r.proc.spcs.Inc(spc.AcksReceived)
	r.proc.flightRing.Record(flight.KindAckRecv, 0, int32(src), int32(len(done)))
	for _, e := range done {
		if e.req != nil {
			e.req.finish(nil)
		}
	}
}

// maybeSweep runs the retransmit sweep if a tick has elapsed since the last
// one; the CAS ensures exactly one of the threads racing a tick boundary
// pays for the scan. Nil-safe: disabled reliability costs one pointer test.
// The elected sweeper's scan is charged to its retransmit phase.
func (r *reliability) maybeSweep(clk *prof.ThreadClock) {
	if r == nil {
		return
	}
	now := time.Now()
	last := r.lastSweep.Load()
	if now.UnixNano()-last < int64(relSweepTick) || !r.lastSweep.CompareAndSwap(last, now.UnixNano()) {
		return
	}
	clk.Begin(prof.PhaseRetransmit)
	r.sweep(now)
	clk.End()
}

// sweep retransmits every entry whose backed-off timeout expired and
// abandons entries that exhausted the retry budget. Injection and failure
// callbacks run outside the mutex.
func (r *reliability) sweep(now time.Time) {
	p := r.proc
	type redo struct {
		pkt     *transport.Packet
		dst     int
		retries int
	}
	var (
		again  []redo
		failed []*relEntry
	)
	// One stripe at a time: the sweep no longer freezes every send path
	// behind a process-wide window lock while it scans.
	for i := range r.send {
		sp := &r.send[i]
		sp.mu.Lock()
		for seq, e := range sp.unacked {
			timeout := r.rto << uint(e.retries)
			if timeout > relMaxRTO || timeout <= 0 {
				timeout = relMaxRTO
			}
			if now.Sub(e.sentAt) < timeout {
				continue
			}
			if e.retries >= r.budget {
				delete(sp.unacked, seq)
				failed = append(failed, e)
				continue
			}
			e.retries++
			e.sentAt = now
			again = append(again, redo{pkt: e.pkt, dst: e.dstWorld, retries: e.retries})
		}
		sp.mu.Unlock()
	}
	for _, rd := range again {
		p.spcs.Inc(spc.Retransmits)
		p.flightRing.Record(flight.KindRetransmit, 0, int32(rd.dst), int32(rd.retries))
		p.resend(rd.dst, rd.pkt)
	}
	for _, e := range failed {
		p.spcs.Inc(spc.RetransmitFailures)
		switch {
		case e.fail != nil:
			e.fail(ErrPeerUnreachable)
		case e.req != nil:
			e.req.finish(ErrPeerUnreachable)
		}
	}
}

// windowSnapshot reports the per-peer window occupancy for the runtime
// introspection snapshot, skipping peers with no reliability traffic at
// all. Nil-safe: disabled reliability contributes nothing.
func (r *reliability) windowSnapshot() []flight.PeerWindow {
	if r == nil {
		return nil
	}
	var out []flight.PeerWindow
	for i := range r.send {
		sp := &r.send[i]
		rp := &r.recv[i]
		sp.mu.Lock()
		nextSeq, unacked := sp.nextSeq, len(sp.unacked)
		sp.mu.Unlock()
		rp.mu.Lock()
		cum, ooo := rp.cum, len(rp.ooo)
		rp.mu.Unlock()
		if nextSeq == 0 && unacked == 0 && cum == 0 && ooo == 0 {
			continue
		}
		out = append(out, flight.PeerWindow{
			Peer:    i,
			Unacked: unacked,
			NextSeq: nextSeq,
			RecvCum: cum,
			RecvOOO: ooo,
		})
	}
	return out
}

// resend re-injects a packet toward dstWorld on a round-robin instance's
// endpoint. A failed resend is indistinguishable from a lost packet; the
// retry budget governs, so the error is deliberately dropped.
func (p *Proc) resend(dstWorld int, pkt *transport.Packet) {
	_ = p.controlSend(dstWorld, func(ep transport.Endpoint) error { return ep.Send(pkt) })
}
