package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"

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

type rdvSend struct {
	req      *Request
	buf      []byte
	dstWorld int
}

type rdvKey struct {
	srcWorld int
	id       uint64
}

// rdvRecv is a receive whose RTS matched: its envelope — source, tag, the
// message's full length — is in the request's matching record, where the FIN
// writes how much of it landed.
type rdvRecv struct {
	req    *Request
	region transport.MemRegion
	sink   int
}

func (c *Comm) isendRendezvous(th *Thread, dst int, tag int32, buf []byte) (*Request, error) {
	p := c.proc
	req := &Request{proc: p, kind: reqRendezvousSend}
	id := p.rdvNext.Add(1)
	p.rdvMu.Lock()
	p.rdvSends[id] = &rdvSend{req: req, buf: buf, dstWorld: c.group[dst]}
	p.rdvMu.Unlock()

	env := c.newEnvelope(dst, tag, transport.KindRendezvousRTS)
	env.Len = uint32(len(buf))
	var idb [8]byte
	binary.LittleEndian.PutUint64(idb[:], id)
	pkt := transport.NewPacketRaw(env, idb[:], req)

	// The RTS completes the rendezvous via put+FIN, never on transport ack,
	// so it is tracked with a failure hook only: an unreachable peer tears
	// down the pending-send entry and fails the request.
	err := c.inject(th, env, pkt, nil, func(err error) {
		p.takeRdvSend(id)
		req.finish(err)
	})
	if err != nil {
		p.takeRdvSend(id)
		return nil, err
	}
	return req, nil
}

// takeRdvSend removes and returns the pending rendezvous send id, nil if it
// is already gone (completed, or torn down by the other path).
func (p *Proc) takeRdvSend(id uint64) *rdvSend {
	p.rdvMu.Lock()
	rs := p.rdvSends[id]
	delete(p.rdvSends, id)
	p.rdvMu.Unlock()
	return rs
}

// takeRdvRecv is takeRdvSend for the receive side's pending transfers.
func (p *Proc) takeRdvRecv(key rdvKey) *rdvRecv {
	p.rdvMu.Lock()
	rr := p.rdvRecvs[key]
	delete(p.rdvRecvs, key)
	p.rdvMu.Unlock()
	return rr
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
	p.rdvRecvs[key] = &rdvRecv{req: req, region: region, sink: sink}
	p.rdvMu.Unlock()
	p.flightRing.Record(flight.KindRendezvousStart, c.id, env.Src, int32(total))

	// ACK: rdv id, region id, permitted sink length.
	var payload [24]byte
	binary.LittleEndian.PutUint64(payload[0:], id)
	binary.LittleEndian.PutUint64(payload[8:], region.ID())
	binary.LittleEndian.PutUint64(payload[16:], uint64(sink))
	ackEnv := transport.Envelope{
		Src: int32(c.myRank), Dst: env.Src, Comm: c.id, Kind: transport.KindRendezvousACK,
	}
	ackPkt := transport.NewPacketRaw(ackEnv, payload[:], nil)
	dstWorld := c.group[env.Src]
	// If the ACK can never reach the sender, the posted receive would wait
	// forever for a put that is not coming: tear down and surface the error.
	teardown := func(err error) {
		if rr := p.takeRdvRecv(key); rr != nil {
			p.dev.DeregisterMemory(rr.region)
			rr.req.finish(err)
		}
	}
	p.rel.track(ackPkt, dstWorld, nil, teardown, nil)
	if err := p.sendControl(dstWorld, ackPkt); err != nil {
		teardown(err)
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

	rs := p.takeRdvSend(id)
	if rs == nil {
		// Duplicate or orphaned ACK (the transfer already ran, or the RTS
		// was abandoned by the retransmit sweep). Count and drop.
		p.spcs.Inc(spc.LatePackets)
		return
	}
	if sink > uint64(len(rs.buf)) {
		p.spcs.Inc(spc.LatePackets)
		rs.req.finish(fmt.Errorf("%w: ACK permits %d bytes of a %d-byte send", ErrProtocol, sink, len(rs.buf)))
		return
	}
	env := pkt.Envelope()
	finEnv := transport.Envelope{
		Src: env.Dst, Dst: env.Src, Comm: c.id, Kind: transport.KindRendezvousData,
	}
	finPkt := transport.NewPacketRaw(finEnv, pkt.Payload[:8], nil)
	p.rel.track(finPkt, rs.dstWorld, nil, nil, nil)
	err := p.controlSend(rs.dstWorld, func(ep transport.Endpoint) error {
		return ep.PutNotify(regionID, rs.buf[:sink], finPkt)
	})
	switch {
	case errors.Is(err, ErrPeerUnreachable):
		rs.req.finish(err)
	case errors.Is(err, transport.ErrRegionUnavailable):
		// The receiver tore the sink region down (e.g. its side of the
		// transfer failed): the data cannot land, so fail the send.
		p.spcs.Inc(spc.LatePackets)
		rs.req.finish(fmt.Errorf("core: rendezvous put: %w", err))
	case err != nil:
		rs.req.finish(fmt.Errorf("core: rendezvous data from rank %d to %d: %v: %w",
			p.rank, rs.dstWorld, err, ErrPeerUnreachable))
	default:
		rs.req.finish(nil)
	}
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
	p.dev.DeregisterMemory(rr.region)
	m := rr.req.matched
	p.flightRing.Record(flight.KindRendezvousDone, c.id, m.MatchedEnv.Src, int32(rr.sink))
	m.N, m.Truncated = rr.sink, rr.sink < int(m.MatchedEnv.Len)
	rr.req.finishRecv()
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

// controlSend runs send on a round-robin instance's endpoint toward dstWorld
// until the backend accepts it. Control traffic holds no instance lock, so a
// full completion queue (transport.ErrCQFull) is drained by whoever
// progresses that instance: the retry yields, then moves to the next
// instance. A missing endpoint comes back wrapping ErrPeerUnreachable.
func (p *Proc) controlSend(dstWorld int, send func(transport.Endpoint) error) error {
	for {
		ep, err := p.controlEndpoint(dstWorld)
		if err != nil {
			return err
		}
		if err = send(ep); !errors.Is(err, transport.ErrCQFull) {
			return err
		}
		runtime.Gosched()
	}
}

// controlEndpoint picks the next round-robin instance's endpoint toward
// dstWorld for traffic that takes no instance lock.
func (p *Proc) controlEndpoint(dstWorld int) (transport.Endpoint, error) {
	if ep := p.pool.Get(p.pool.NextRoundRobin()).Endpoint(dstWorld); ep != nil {
		return ep, nil
	}
	return nil, fmt.Errorf("core: no endpoint from rank %d to %d: %w", p.rank, dstWorld, ErrPeerUnreachable)
}
