package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/flight"
	"repro/internal/match"
	"repro/internal/spc"
	"repro/internal/transport"
)

// Rendezvous protocol for payloads above the eager limit:
//
//	sender                         receiver
//	  RTS (envelope, matched) ───────▶ match against posted receives
//	                                   register sink region
//	  PutNotify ◀───────────────────── ACK {rdv id, region, sink len}
//	    data ═══════════════════════▶ lands in the sink region
//	    FIN {rdv id} ───────────────▶ complete receive, deregister
//
// The RTS is an ordinary matched envelope, so rendezvous and eager traffic
// share one sequence stream and FIFO semantics. ACK and FIN are control
// packets that bypass matching, delivered through the same progress engine.
//
// Data and FIN are one transport operation on every backend
// (Endpoint.PutNotify: an RDMA write then the FIN in process, one frame that
// streams out of the send buffer and lands in the sink over tcp), and the FIN
// is never delivered without the data: a transfer the wire loses leaves the
// receive pending, never completed over bytes that did not arrive. Nothing
// here copies the payload.
//
// Control payloads come off the wire: a handler checks lengths, the sink the
// ACK permits and the source rank before it indexes anything, counts what it
// refuses as late_packets, and fails a request that can then never complete
// with ErrProtocol.

// ErrProtocol reports a rendezvous control packet that contradicts the
// transfer it names; the request it would have advanced fails with it.
var ErrProtocol = errors.New("core: malformed rendezvous control packet")

// A rendezvous costs no heap object of its own. Each side's transfer state
// is one record with its control packets and their few payload bytes inline:
// the send is carved from the sending Thread's slab, as an eager send is, and
// the receive from the proc's slab under rdvMu, because the RTS matches
// inside a progress pass, which has no Thread. Records are carved, never
// recycled (see carve): in process the peer reads the embedded ACK and FIN by
// pointer, and the reliability layer may resend them after the transfer is
// over. A record drops its references to user memory when its transfer ends,
// so a slab pins no user buffer.

// rdvSendOp is a rendezvous send: the request the caller holds, the RTS that
// carries its envelope, and what the ACK handler needs — the user's buffer and
// the FIN that follows the data. The ACK is handled inside dispatch, which has
// no Thread, so the FIN is carved with the send, before the ACK can arrive.
type rdvSendOp struct {
	Request
	rts transport.Packet
	fin transport.Packet
	// id is the transfer id, the payload of both RTS and FIN.
	id       [8]byte
	buf      []byte
	dstWorld int
}

// settle ends the transfer: the record lets go of the user's buffer and the
// request completes with err. The caller took the record from rdvSends, so
// no other path settles it.
func (op *rdvSendOp) settle(err error) {
	op.buf = nil
	op.finish(err)
}

type rdvKey struct {
	srcWorld int
	id       uint64
}

// rdvRecv is a receive whose RTS matched, from the match to its FIN: its
// envelope — source, tag, the message's full length — is in the request's
// matching record, where the FIN writes how much of it landed. The ACK that
// answers the RTS, payload included, lives here too.
type rdvRecv struct {
	req     *Request
	region  transport.MemRegion
	sink    int
	ack     transport.Packet
	ackBody [24]byte
}

// initControl makes pkt a control packet whose payload is body itself, not a
// copy: body sits in the record that holds pkt and is never written again.
func initControl(pkt *transport.Packet, env transport.Envelope, body []byte) {
	pkt.Init(env, nil, nil)
	pkt.Payload = body
}

func (c *Comm) isendRendezvous(th *Thread, dst int, tag int32, buf []byte) (*Request, error) {
	p := c.proc
	op := carve(&th.rdvs)
	op.proc = p
	op.buf, op.dstWorld = buf, c.group[dst]
	id := p.rdvNext.Add(1)
	binary.LittleEndian.PutUint64(op.id[:], id)
	env := c.newEnvelope(dst, tag, transport.KindRendezvousRTS)
	env.Len = uint32(len(buf))
	initControl(&op.rts, env, op.id[:])
	p.rdvMu.Lock()
	p.rdvSends[id] = op
	p.rdvMu.Unlock()

	// The RTS completes the rendezvous via put+FIN, never on transport ack,
	// so it is tracked with a failure hook only: an unreachable peer tears
	// down the pending-send entry and fails the request — if the entry is
	// still there: an RTS abandoned after its transfer completed (its ack
	// lost, then the peer gone) finds nothing to fail.
	var fail func(error)
	if p.rel != nil {
		fail = func(err error) { p.abandonRdvSend(id, err) }
	}
	if err := c.inject(th, env, &op.rts, nil, fail); err != nil {
		p.abandonRdvSend(id, err)
		return nil, err
	}
	return &op.Request, nil
}

// takeRdvSend removes and returns the pending rendezvous send id, nil if it
// is already gone (completed, or torn down by the other path).
func (p *Proc) takeRdvSend(id uint64) *rdvSendOp {
	p.rdvMu.Lock()
	op := p.rdvSends[id]
	delete(p.rdvSends, id)
	p.rdvMu.Unlock()
	return op
}

// abandonRdvSend fails the pending rendezvous send id with err, if it is
// still pending.
func (p *Proc) abandonRdvSend(id uint64, err error) {
	if op := p.takeRdvSend(id); op != nil {
		op.settle(err)
	}
}

// takeRdvRecv is takeRdvSend for the receive side's pending transfers.
func (p *Proc) takeRdvRecv(key rdvKey) *rdvRecv {
	p.rdvMu.Lock()
	rr := p.rdvRecvs[key]
	delete(p.rdvRecvs, key)
	p.rdvMu.Unlock()
	return rr
}

// endRdvRecv ends the receive side of a transfer the caller took from
// rdvRecvs: the sink goes, the record lets go of it and of the request, and
// the request is returned for the caller to complete.
func (p *Proc) endRdvRecv(rr *rdvRecv) *Request {
	p.dev.DeregisterMemory(rr.region)
	req := rr.req
	rr.req, rr.region = nil, nil
	return req
}

// abandonRdvRecv fails the pending rendezvous receive key with err, if it is
// still pending.
func (p *Proc) abandonRdvRecv(key rdvKey, err error) {
	if rr := p.takeRdvRecv(key); rr != nil {
		p.endRdvRecv(rr).finish(err)
	}
}

// startRendezvousRecv runs on the receiver when an RTS matches a posted
// receive: register the sink and answer with an ACK.
func (c *Comm) startRendezvousRecv(req *Request, comp match.Completion) {
	p := c.proc
	env := comp.Recv.MatchedEnv
	if len(comp.Packet.Payload) < 8 || env.Src < 0 || int(env.Src) >= len(c.group) {
		// The RTS consumed the posted receive and names no transfer (or no
		// rank to answer): nothing will ever complete it.
		p.spcs.Inc(spc.LatePackets)
		req.finish(fmt.Errorf("%w: RTS from rank %d with %d payload bytes", ErrProtocol, env.Src, len(comp.Packet.Payload)))
		return
	}
	id := binary.LittleEndian.Uint64(comp.Packet.Payload)
	total := int(env.Len)
	sink := len(comp.Recv.Buf)
	if sink > total {
		sink = total
	}
	var region transport.MemRegion
	if sink > 0 {
		region = p.dev.RegisterMemory(comp.Recv.Buf[:sink])
	} else {
		region = p.dev.RegisterMemory(nil)
	}
	key := rdvKey{srcWorld: c.group[env.Src], id: id}
	p.rdvMu.Lock()
	if _, dup := p.rdvRecvs[key]; dup {
		// A duplicate RTS slipped past transport dedup (e.g. duplication
		// without the reliability layer). The original transfer is already
		// in progress; count the copy and drop it.
		p.rdvMu.Unlock()
		p.dev.DeregisterMemory(region)
		p.spcs.Inc(spc.LatePackets)
		return
	}
	rr := carve(&p.rdvRecvSlab)
	rr.req, rr.region, rr.sink = req, region, sink
	// ACK: rdv id, region id, permitted sink length.
	binary.LittleEndian.PutUint64(rr.ackBody[0:], id)
	binary.LittleEndian.PutUint64(rr.ackBody[8:], region.ID())
	binary.LittleEndian.PutUint64(rr.ackBody[16:], uint64(sink))
	initControl(&rr.ack, transport.Envelope{
		Src: int32(c.myRank), Dst: env.Src, Comm: c.id, Kind: transport.KindRendezvousACK,
	}, rr.ackBody[:])
	p.rdvRecvs[key] = rr
	p.rdvMu.Unlock()
	p.flightRing.Record(flight.KindRendezvousStart, c.id, env.Src, int32(total))

	dstWorld := c.group[env.Src]
	// If the ACK can never reach the sender, the posted receive would wait
	// forever for a put that is not coming: tear down and surface the error.
	var fail func(error)
	if p.rel != nil {
		fail = func(err error) { p.abandonRdvRecv(key, err) }
	}
	p.rel.track(&rr.ack, dstWorld, nil, fail, nil)
	if err := p.sendControl(dstWorld, &rr.ack); err != nil {
		p.abandonRdvRecv(key, err)
	}
}

// handleRendezvousACK runs on the sender: land the data in the receiver's
// sink and send the FIN behind it, one PutNotify. No instance lock is needed:
// the data path is the backend's (packet queues are inherently thread-safe).
func (c *Comm) handleRendezvousACK(pkt *transport.Packet) {
	p := c.proc
	if len(pkt.Payload) < 24 {
		p.spcs.Inc(spc.LatePackets)
		return
	}
	id := binary.LittleEndian.Uint64(pkt.Payload[0:])
	regionID := binary.LittleEndian.Uint64(pkt.Payload[8:])
	sink := binary.LittleEndian.Uint64(pkt.Payload[16:])

	op := p.takeRdvSend(id)
	if op == nil {
		// Duplicate or orphaned ACK (the transfer already ran, or the RTS
		// was abandoned by the retransmit sweep). Count and drop.
		p.spcs.Inc(spc.LatePackets)
		return
	}
	if sink > uint64(len(op.buf)) {
		p.spcs.Inc(spc.LatePackets)
		op.settle(fmt.Errorf("%w: ACK permits %d bytes of a %d-byte send", ErrProtocol, sink, len(op.buf)))
		return
	}
	env := pkt.Envelope()
	initControl(&op.fin, transport.Envelope{
		Src: env.Dst, Dst: env.Src, Comm: c.id, Kind: transport.KindRendezvousData,
	}, op.id[:])
	p.rel.track(&op.fin, op.dstWorld, nil, nil, nil)
	err := p.controlSend(op.dstWorld, func(ep transport.Endpoint) error {
		return ep.PutNotify(regionID, op.buf[:sink], &op.fin)
	})
	switch {
	case errors.Is(err, ErrPeerUnreachable):
	case errors.Is(err, transport.ErrRegionUnavailable):
		// The receiver tore the sink region down (e.g. its side of the
		// transfer failed): the data cannot land, so fail the send.
		p.spcs.Inc(spc.LatePackets)
		err = fmt.Errorf("core: rendezvous put: %w", err)
	case err != nil:
		err = fmt.Errorf("core: rendezvous data from rank %d to %d: %v: %w",
			p.rank, op.dstWorld, err, ErrPeerUnreachable)
	}
	op.settle(err)
}

// handleRendezvousFIN runs on the receiver: the data has landed in the sink;
// finish the receive.
func (c *Comm) handleRendezvousFIN(pkt *transport.Packet) {
	p := c.proc
	env := pkt.Envelope()
	if len(pkt.Payload) < 8 || env.Src < 0 || int(env.Src) >= len(c.group) {
		p.spcs.Inc(spc.LatePackets)
		return
	}
	key := rdvKey{srcWorld: c.group[env.Src], id: binary.LittleEndian.Uint64(pkt.Payload)}
	rr := p.takeRdvRecv(key)
	if rr == nil {
		// Duplicate or orphaned FIN — the receive already completed (or was
		// torn down). Count and drop.
		p.spcs.Inc(spc.LatePackets)
		return
	}
	req := p.endRdvRecv(rr)
	m := req.matched
	p.flightRing.Record(flight.KindRendezvousDone, c.id, m.MatchedEnv.Src, int32(rr.sink))
	m.N, m.Truncated = rr.sink, rr.sink < int(m.MatchedEnv.Len)
	req.finishRecv()
}

// sendControl injects a control packet outside the matched send path. It
// takes no instance lock: control packets ride the thread-safe hardware
// queues directly, like real implementations' internal control channels.
// A missing endpoint — on a real network, an unreachable address — is a
// typed error the caller surfaces through the request.
func (p *Proc) sendControl(dstWorld int, pkt *transport.Packet) error {
	err := p.controlSend(dstWorld, func(ep transport.Endpoint) error { return ep.Send(pkt) })
	if err != nil && !errors.Is(err, ErrPeerUnreachable) {
		return fmt.Errorf("core: control send from rank %d to %d: %v: %w",
			p.rank, dstWorld, err, ErrPeerUnreachable)
	}
	return err
}

// controlSend runs send on a round-robin instance's endpoint toward dstWorld.
// Control traffic holds no instance lock, and a two-sided operation posts no
// completion, so there is no full queue to wait out. A missing endpoint comes
// back wrapping ErrPeerUnreachable.
func (p *Proc) controlSend(dstWorld int, send func(transport.Endpoint) error) error {
	ep, err := p.controlEndpoint(dstWorld)
	if err != nil {
		return err
	}
	return send(ep)
}

// controlEndpoint picks the next round-robin instance's endpoint toward
// dstWorld for traffic that takes no instance lock.
func (p *Proc) controlEndpoint(dstWorld int) (transport.Endpoint, error) {
	if ep := p.pool.Get(p.pool.NextRoundRobin()).Endpoint(dstWorld); ep != nil {
		return ep, nil
	}
	return nil, fmt.Errorf("core: no endpoint from rank %d to %d: %w", p.rank, dstWorld, ErrPeerUnreachable)
}
