package core

import (
	"encoding/binary"
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
//	  put data ◀────────────────────── ACK {rdv id, region, sink len}
//	  (RDMA write into sink)
//	  FIN {rdv id} ──────────────────▶ complete receive, deregister
//
// The RTS is an ordinary matched envelope, so rendezvous and eager traffic
// share one sequence stream and FIFO semantics. ACK and FIN are control
// packets that bypass matching, delivered through the same progress engine.
//
// On a backend without one-sided support there is no RDMA write: the FIN
// carries the bulk data itself ({rdv id, data}), and the receiver copies it
// into the registered sink on arrival — the copy-in/copy-out rendezvous of
// send/recv-only transports.

type rdvSend struct {
	req      *Request
	buf      []byte
	dstWorld int
}

type rdvKey struct {
	srcWorld int
	id       uint64
}

type rdvRecv struct {
	req    *Request
	region transport.MemRegion
	total  int
	sink   int
	src    int32 // sender's communicator rank
	tag    int32
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
	p.rdvRecvs[key] = &rdvRecv{req: req, region: region, total: total, sink: sink, src: env.Src, tag: env.Tag}
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
	p.rel.track(ackPkt, dstWorld, nil, teardown)
	if err := p.sendControl(dstWorld, ackPkt); err != nil {
		teardown(err)
	}
}

// handleRendezvousACK runs on the sender: move the data into the receiver's
// sink and send the FIN. On a one-sided backend the data travels as an RDMA
// write and the FIN carries only the transfer id; otherwise the FIN carries
// the data.
func (c *Comm) handleRendezvousACK(pkt *transport.Packet) {
	p := c.proc
	id := binary.LittleEndian.Uint64(pkt.Payload[0:])
	regionID := binary.LittleEndian.Uint64(pkt.Payload[8:])
	sink := int(binary.LittleEndian.Uint64(pkt.Payload[16:]))

	rs := p.takeRdvSend(id)
	if rs == nil {
		// Duplicate or orphaned ACK (the transfer already ran, or the RTS
		// was abandoned by the retransmit sweep). Count and drop.
		p.spcs.Inc(spc.LatePackets)
		return
	}

	// carried is how much of the data rides the FIN itself: all of it on a
	// send/recv-only backend, none where an RDMA write moves it.
	carried := sink
	if sink > 0 && p.world.caps.OneSided {
		// The bulk transfer is a hardware put addressed by region id: the
		// backend charges initiator CPU plus wire time; no instance lock is
		// needed because the data path is offloaded (packet queues are
		// inherently thread-safe).
		ep, err := p.controlEndpoint(rs.dstWorld)
		if err != nil {
			rs.req.finish(err)
			return
		}
		if err := ep.PutRegion(regionID, 0, rs.buf[:sink], nil); err != nil {
			// The receiver tore the sink region down (e.g. its side of the
			// transfer failed): the data cannot land, so fail the send.
			p.spcs.Inc(spc.LatePackets)
			rs.req.finish(fmt.Errorf("core: rendezvous put: %w", err))
			return
		}
		carried = 0
	}

	// {rdv id, data}: built here for this packet alone, so the packet takes it
	// without the second copy of all the data a copying constructor would make.
	fin := make([]byte, 8+carried)
	binary.LittleEndian.PutUint64(fin, id)
	copy(fin[8:], rs.buf[:carried])
	env := pkt.Envelope()
	finEnv := transport.Envelope{
		Src: env.Dst, Dst: env.Src, Comm: c.id, Kind: transport.KindRendezvousData,
	}
	finPkt := transport.NewPacketOwned(finEnv, fin, nil)
	p.rel.track(finPkt, rs.dstWorld, nil, nil)
	if err := p.sendControl(rs.dstWorld, finPkt); err != nil {
		rs.req.finish(err)
		return
	}
	rs.req.finish(nil)
}

// handleRendezvousFIN runs on the receiver: the data has landed (or rides
// the FIN itself); finish the receive.
func (c *Comm) handleRendezvousFIN(pkt *transport.Packet) {
	p := c.proc
	id := binary.LittleEndian.Uint64(pkt.Payload)
	env := pkt.Envelope()
	key := rdvKey{srcWorld: c.group[env.Src], id: id}
	rr := p.takeRdvRecv(key)
	if rr == nil {
		// Duplicate or orphaned FIN — the receive already completed (or was
		// torn down). Count and drop.
		p.spcs.Inc(spc.LatePackets)
		return
	}
	if data := pkt.Payload[8:]; len(data) > 0 && rr.sink > 0 {
		// Data-in-FIN path of non-one-sided backends.
		copy(rr.region.Bytes(), data[:rr.sink])
	}
	p.dev.DeregisterMemory(rr.region)
	p.flightRing.Record(flight.KindRendezvousDone, c.id, rr.src, int32(rr.sink))
	rr.req.finishRecv(Status{
		Source:     rr.src,
		Tag:        rr.tag,
		Count:      rr.sink,
		MessageLen: rr.total,
		Truncated:  rr.sink < rr.total,
	})
}

// sendControl injects a control packet outside the matched send path. It
// takes no instance lock: control packets ride the thread-safe hardware
// queues directly, like real implementations' internal control channels.
// A missing endpoint — on a real network, an unreachable address — is a
// typed error the caller surfaces through the request.
func (p *Proc) sendControl(dstWorld int, pkt *transport.Packet) error {
	ep, err := p.controlEndpoint(dstWorld)
	if err != nil {
		return err
	}
	if err := ep.Send(pkt); err != nil {
		return fmt.Errorf("core: control send from rank %d to %d: %v: %w",
			p.rank, dstWorld, err, ErrPeerUnreachable)
	}
	return nil
}

// controlEndpoint picks the next round-robin instance's endpoint toward
// dstWorld for traffic that takes no instance lock.
func (p *Proc) controlEndpoint(dstWorld int) (transport.Endpoint, error) {
	if ep := p.pool.Get(p.pool.NextRoundRobin()).Endpoint(dstWorld); ep != nil {
		return ep, nil
	}
	return nil, fmt.Errorf("core: no endpoint from rank %d to %d: %w", p.rank, dstWorld, ErrPeerUnreachable)
}
