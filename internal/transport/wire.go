// Package transport is the seam between the runtime and its wire: the wire
// contracts every backend speaks (Envelope, Packet, CQE, the length-prefixed
// codec) and the five types a backend implements — Network, Device, Context,
// Endpoint, MemRegion, 13 methods in all. Two interfaces are optional: a
// Context that addresses peers' regions directly implements OneSided (the
// in-process fabric's does), and a Device that estimates peer clock offsets
// implements ClockSync (tcpnet's does).
//
// The CRI design the paper builds on — one network context, one completion
// queue, one endpoint table per instance, protected by one per-instance
// lock — is backend-independent: the same locking discipline maps onto any
// provider (Zambre et al.'s scalable-endpoints line of work), and the
// software endpoint is a thin handle on the resource a thread drives. So the
// seam holds exactly what the message path above calls — inject (and inject
// again, the reliability layer's resend), poll/drain a CQ, register a
// region — and nothing a caller already has in hand (the machine model, the
// backend's Caps) or that nothing branches on. An endpoint is a lazily resolved path on every
// backend: Connect records where it leads, the first Send establishes it.
//
// internal/fabric (in process, the default) and internal/transport/tcpnet
// (real TCP between OS processes) implement the seam; seam_test.go holds both
// to one table, and only internal/backends names either.
package transport

import (
	"encoding/binary"
	"fmt"
)

// EnvelopeSize is the wire footprint of the matching header. The paper
// notes Open MPI's matching header is ~28 bytes; zero-byte "messages" in the
// Multirate benchmark are pure envelopes.
const EnvelopeSize = 28

// Envelope is the matching header carried by every two-sided message.
type Envelope struct {
	Src  int32  // sender rank
	Dst  int32  // destination rank
	Tag  int32  // message tag
	Comm uint32 // communicator context id
	Seq  uint32 // per-(sender, communicator) sequence number
	Len  uint32 // payload length in bytes
	Kind Kind   // packet kind (low byte) and flags
}

// Kind discriminates packet types on the wire. The low byte is the packet
// kind; the bits above it are per-packet wire flags. In-memory envelopes
// (Envelope.Kind) carry only the base kind — flags are applied when a
// packet is framed for a real wire (AppendWire) and stripped when it is
// decoded (DecodePacket), so the layers above the transport never see them.
type Kind uint32

// KindMask selects the base packet kind from a wire Kind word.
const KindMask Kind = 0xff

// FlagTraced marks a packet carrying the optional trace-context extension
// header: trace id, origin rank, and send timestamp ride the wire after the
// canonical 28-byte envelope. When tracing is off the flag is never set and
// the wire format is byte-identical to the paper-faithful framing.
const FlagTraced Kind = 1 << 8

// FlagLanded marks a landed frame (AppendLandedFrame): the landing extension
// rides the wire after the envelope, and behind the packet comes a body the
// receiving backend writes into a registered region before it delivers the
// packet. Only a KindRendezvousData packet is framed so.
const FlagLanded Kind = 1 << 9

// Base strips the wire flags, returning the packet kind alone.
func (k Kind) Base() Kind { return k & KindMask }

// Traced reports whether the trace-context extension flag is set.
func (k Kind) Traced() bool { return k&FlagTraced != 0 }

const (
	// KindEager is a two-sided eager message: envelope plus full payload.
	KindEager Kind = iota + 1
	// KindRendezvousRTS is the ready-to-send control message of the
	// rendezvous protocol for large payloads.
	KindRendezvousRTS
	// KindRendezvousACK is the receiver's clear-to-send response carrying
	// the registered sink region.
	KindRendezvousACK
	// KindRendezvousData is the FIN of a rendezvous transfer. It carries the
	// transfer id alone and arrives behind the data (Endpoint.PutNotify): an
	// RDMA write in process, the body of its own landed frame over tcp.
	KindRendezvousData
	// KindAck is a delivery-reliability acknowledgement: a cumulative ack
	// plus a selective-ack bitmap for one sender→receiver transport stream.
	KindAck
)

// Marshal encodes the envelope into its 28-byte wire form. The encode cost
// is real work the injecting core performs, exactly like a driver building
// a packet header.
func (e *Envelope) Marshal(b *[EnvelopeSize]byte) {
	binary.LittleEndian.PutUint32(b[0:], uint32(e.Src))
	binary.LittleEndian.PutUint32(b[4:], uint32(e.Dst))
	binary.LittleEndian.PutUint32(b[8:], uint32(e.Tag))
	binary.LittleEndian.PutUint32(b[12:], e.Comm)
	binary.LittleEndian.PutUint32(b[16:], e.Seq)
	binary.LittleEndian.PutUint32(b[20:], e.Len)
	binary.LittleEndian.PutUint32(b[24:], uint32(e.Kind))
}

// Unmarshal decodes a 28-byte wire header.
func (e *Envelope) Unmarshal(b *[EnvelopeSize]byte) {
	e.Src = int32(binary.LittleEndian.Uint32(b[0:]))
	e.Dst = int32(binary.LittleEndian.Uint32(b[4:]))
	e.Tag = int32(binary.LittleEndian.Uint32(b[8:]))
	e.Comm = binary.LittleEndian.Uint32(b[12:])
	e.Seq = binary.LittleEndian.Uint32(b[16:])
	e.Len = binary.LittleEndian.Uint32(b[20:])
	e.Kind = Kind(binary.LittleEndian.Uint32(b[24:]))
}

func (e Envelope) String() string {
	return fmt.Sprintf("env{src=%d dst=%d tag=%d comm=%d seq=%d len=%d kind=%d}",
		e.Src, e.Dst, e.Tag, e.Comm, e.Seq, e.Len, e.Kind)
}

// Packet is one message on the wire: a marshaled envelope plus an owned
// copy of the payload (eager protocol semantics — the sender's buffer is
// free as soon as injection returns). It holds only what every message uses;
// the fields a timed, traced or reliability-tracked message also needs sit in
// its Meta record, which an untimed message never has.
type Packet struct {
	header  [EnvelopeSize]byte
	Payload []byte
	// Meta is the packet's driver metadata, nil unless the sending proc is
	// timed, the packet is traced, or the reliability layer tracks it.
	Meta *Meta
}

// Meta is a packet's driver-private metadata — what a real driver keeps
// beside a send WQE: the telemetry stamps, the trace context and the
// reliability layer's sequence. A zero field is unset. Its owner carves it
// (Slab.Meta) only when one of those layers writes a field, so a message
// that none of them touches costs no bytes for it.
type Meta struct {
	// Stamp is the injection timestamp (UnixNano) set by the telemetry layer
	// to measure inject-to-match latency; 0 = unstamped.
	Stamp int64
	// TraceID is the message-lifecycle trace id (0 = untraced). A non-zero
	// id marks the packet for cross-rank lifecycle stitching: real wires
	// frame it in the trace-context extension header (FlagTraced), and the
	// receiver's trace events carry it as their flow id.
	TraceID uint64
	// RelSeq is the transport-level sequence number assigned by the
	// delivery-reliability layer when it is enabled; 0 = untracked.
	RelSeq uint64
	// RecvStamp is the receiver-local arrival timestamp (UnixNano) set by
	// the delivery path to measure match-queue residency; 0 = unstamped.
	// Receiver-private — it never crosses the wire.
	RecvStamp int64
	// SendAcqNs and SendWireNs are the sender's critical-path stage
	// durations (send post to CRI acquired; CRI acquired to injection
	// complete), set by the latency-attribution layer BEFORE injection so
	// in-process receivers read them race-free; 0 = unobserved. They never
	// cross a real wire — a remote receiver sees 0 and marks the stages
	// unknown in its exemplars.
	SendAcqNs  int64
	SendWireNs int64
	// ArriveNs is the receiver-local transport-arrival timestamp (UnixNano,
	// or virtual ns under the simulator), stamped when the packet enters the
	// receive path (socket decode, or simulated receive-queue entry); 0 =
	// unstamped. The gap to RecvStamp is the delivery-wait stage: how long
	// the packet sat before a progress pass extracted it. Receiver-private.
	ArriveNs int64
	// Origin is the sender's world rank for trace attribution when
	// TraceID != 0 (the envelope's Src is communicator-relative).
	Origin int32
	// RelSrc is the sender's world rank for reliability tracking when
	// RelSeq != 0.
	RelSrc int32
}

// TraceID returns the packet's trace id, 0 for an untraced packet.
func (p *Packet) TraceID() uint64 {
	if p.Meta == nil {
		return 0
	}
	return p.Meta.TraceID
}

// Slab carves small payload copies and metadata records out of shared
// chunks — one allocation per chunk instead of one per packet — for an owner
// that already serializes its calls (a core Thread, a tcp connection's
// reader). A carved copy or record is never handed out twice: the collector
// frees a chunk once the last packet carved from it is dropped, so a
// long-held packet pins its chunk, never another packet's bytes in use. A
// payload above slabMaxPayload gets an allocation of its own, so a chunk never
// keeps a large body alive. The zero value is ready; a nil *Slab allocates
// every copy and record.
type Slab struct {
	rest  []byte
	metas []Meta
}

const (
	// slabMaxPayload is the largest payload carved from a chunk: tcpnet's
	// largest slab frame, where a payload stops being small next to its packet.
	slabMaxPayload = 512
	// slabChunk is a chunk's size: at least 16 payloads of the largest carved
	// size, and what one long-held payload pins at most.
	slabChunk = 8 << 10
	// slabMetas is how many metadata records share one allocation (4 KiB).
	slabMetas = 64
)

// Copy returns a copy of b, nil for an empty b. The copy's capacity is its
// length, so an append to it never reaches its chunk-mates.
func (s *Slab) Copy(b []byte) []byte {
	n := len(b)
	switch {
	case n == 0:
		return nil
	case s == nil || n > slabMaxPayload:
		return append([]byte(nil), b...)
	}
	if len(s.rest) < n {
		s.rest = make([]byte, slabChunk)
	}
	c := s.rest[:n:n]
	s.rest = s.rest[n:]
	copy(c, b)
	return c
}

// Meta returns a zero metadata record.
func (s *Slab) Meta() *Meta {
	if s == nil {
		return new(Meta)
	}
	if len(s.metas) == 0 {
		s.metas = make([]Meta, slabMetas)
	}
	m := &s.metas[0]
	s.metas = s.metas[1:]
	return m
}

// MetaFrom returns p's metadata record, carving one from s first if p has
// none.
func (p *Packet) MetaFrom(s *Slab) *Meta {
	if p.Meta == nil {
		p.Meta = s.Meta()
	}
	return p.Meta
}

// NewPacket marshals env and copies payload into a fresh packet, setting
// the envelope's Len to the payload length. The third argument is ignored:
// a packet carries no sender state (a send completion names its packet),
// and the parameter stays because the benchmark module, which builds against
// this package, calls the three-argument form.
func NewPacket(env Envelope, payload []byte, _ any) *Packet {
	env.Len = uint32(len(payload))
	return NewPacketRaw(env, payload)
}

// NewPacketRaw is NewPacket without overwriting env.Len — control packets
// (e.g. a rendezvous RTS) advertise a length different from their carried
// payload.
func NewPacketRaw(env Envelope, payload []byte) *Packet {
	p := new(Packet)
	p.Init(env, payload, nil)
	return p
}

// Init makes the zero packet p what NewPacketRaw returns, in place, so a
// caller can embed the packet in a larger object of its own (a send request
// and its packet are one allocation), with the payload copy carved from slab
// (nil: a copy of its own). env.Len is marshaled as given.
func (p *Packet) Init(env Envelope, payload []byte, slab *Slab) {
	env.Marshal(&p.header)
	p.Payload = slab.Copy(payload)
}

// Reset makes p a packet of env whose Payload is payload itself, uncopied,
// with no Meta, for a sender reusing one packet across sends to a backend
// that keeps neither (Caps.Copies). env.Len is marshaled as given.
func (p *Packet) Reset(env Envelope, payload []byte) {
	env.Marshal(&p.header)
	p.Payload, p.Meta = payload, nil
}

// Envelope decodes and returns the packet's header.
func (p *Packet) Envelope() Envelope {
	var e Envelope
	e.Unmarshal(&p.header)
	return e
}

// wireMetaSize is the framed size of the driver metadata a real backend
// carries alongside the envelope: RelSeq (8) + RelSrc (4) + Stamp (8).
const wireMetaSize = 8 + 4 + 8

// TraceExtSize is the framed size of the optional trace-context extension
// header: TraceID (8) + Origin (4) + send Stamp (8). It rides the wire
// directly after the 28-byte envelope, only when FlagTraced is set.
const TraceExtSize = 8 + 4 + 8

// LandExtSize is the framed size of the landing extension: region id (8) +
// body length (4), directly after the envelope, only when FlagLanded is set.
const LandExtSize = 8 + 4

// LandedPeek is how much of a frame, length prefix included, PeekLanded reads.
const LandedPeek = 4 + MuxHeaderSize + EnvelopeSize + LandExtSize

// kindOffset is the byte offset of the envelope's Kind word in the header.
const kindOffset = 24

// WireSize returns the number of bytes AppendWire emits for p.
func (p *Packet) WireSize() int {
	n := EnvelopeSize + wireMetaSize + len(p.Payload)
	if p.TraceID() != 0 {
		n += TraceExtSize
	}
	return n
}

// AppendWire appends the packet's full wire form — envelope, the optional
// trace-context extension (traced packets only), driver metadata (RelSeq,
// RelSrc, Stamp), payload — to b and returns the extended slice. A traced
// packet's envelope carries FlagTraced in its Kind word on the wire; an
// untraced packet's framing is byte-identical to the canonical format.
func (p *Packet) AppendWire(b []byte) []byte { return p.appendWire(b, false, 0, 0) }

// appendWire is AppendWire, with the landing extension when landed is set.
func (p *Packet) appendWire(b []byte, landed bool, region uint64, bodyLen int) []byte {
	flags := len(b) + kindOffset + 1 // the Kind word's second byte holds the wire flags
	b = append(b, p.header[:]...)
	if landed {
		b[flags] |= byte(FlagLanded >> 8)
		b = binary.LittleEndian.AppendUint64(b, region)
		b = binary.LittleEndian.AppendUint32(b, uint32(bodyLen))
	}
	var meta [wireMetaSize]byte
	if m := p.Meta; m != nil {
		if m.TraceID != 0 {
			b[flags] |= byte(FlagTraced >> 8)
			var ext [TraceExtSize]byte
			binary.LittleEndian.PutUint64(ext[0:], m.TraceID)
			binary.LittleEndian.PutUint32(ext[8:], uint32(m.Origin))
			binary.LittleEndian.PutUint64(ext[12:], uint64(m.Stamp))
			b = append(b, ext[:]...)
		}
		binary.LittleEndian.PutUint64(meta[0:], m.RelSeq)
		binary.LittleEndian.PutUint32(meta[8:], uint32(m.RelSrc))
		binary.LittleEndian.PutUint64(meta[12:], uint64(m.Stamp))
	}
	b = append(b, meta[:]...)
	return append(b, p.Payload...)
}

// DecodePacket parses one packet from its AppendWire form, copying the
// payload out of b. The FlagTraced wire flag is consumed here: the decoded
// envelope carries only the base kind, and the extension fields land in
// Meta.TraceID/Origin (the ext's send stamp wins over the driver-metadata
// copy). The packet has a Meta record only when the frame was traced or its
// driver metadata is not all zero.
func DecodePacket(b []byte) (*Packet, error) {
	p := new(Packet)
	if err := DecodePacketInto(p, b); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodePacketInto is DecodePacket into storage the caller provides: p must be
// a zero packet (a tcp reader carves them from a slab). A frame it rejects —
// a landed one included: that is DecodeLandedHeadInto's — leaves p untouched,
// so a refused slot is still a zero packet.
func DecodePacketInto(p *Packet, b []byte) error { return decodeInto(p, b, 0, nil) }

// decodeInto is DecodePacketInto over a frame that carries ext bytes of
// landing extension behind its envelope (LandExtSize if flagged, else none),
// copying the payload out through slab and carving a Meta record from it
// when the frame carries one.
func decodeInto(p *Packet, b []byte, ext int, slab *Slab) error {
	if len(b) < EnvelopeSize+ext+wireMetaSize {
		return fmt.Errorf("transport: short packet frame (%d bytes)", len(b))
	}
	rest := b[EnvelopeSize+ext:]
	kind := Kind(binary.LittleEndian.Uint32(b[kindOffset:]))
	// Every check comes before the first write to p.
	if (kind&FlagLanded != 0) != (ext != 0) {
		return fmt.Errorf("transport: landed flag on a plain frame, or none on a landed one")
	}
	if kind.Traced() {
		if len(rest) < TraceExtSize+wireMetaSize {
			return fmt.Errorf("transport: short traced packet frame (%d bytes)", len(b))
		}
		if binary.LittleEndian.Uint64(rest) == 0 {
			// AppendWire frames the extension only around a non-zero id; a
			// flagged frame without one is not something a sender produces.
			return fmt.Errorf("transport: traced packet frame without a trace id")
		}
	}
	copy(p.header[:], b[:EnvelopeSize])
	binary.LittleEndian.PutUint32(p.header[kindOffset:], uint32(kind&^(FlagTraced|FlagLanded)))
	if kind.Traced() {
		m := p.MetaFrom(slab)
		m.TraceID = binary.LittleEndian.Uint64(rest[0:])
		m.Origin = int32(binary.LittleEndian.Uint32(rest[8:]))
		m.Stamp = int64(binary.LittleEndian.Uint64(rest[12:]))
		rest = rest[TraceExtSize:]
	}
	relSeq := binary.LittleEndian.Uint64(rest[0:])
	relSrc := int32(binary.LittleEndian.Uint32(rest[8:]))
	stamp := int64(binary.LittleEndian.Uint64(rest[12:]))
	if relSeq != 0 || relSrc != 0 || stamp != 0 {
		m := p.MetaFrom(slab)
		m.RelSeq, m.RelSrc = relSeq, relSrc
		if m.Stamp == 0 {
			m.Stamp = stamp
		}
	}
	p.Payload = slab.Copy(rest[wireMetaSize:])
	return nil
}

// MuxHeaderSize is the framed size of the per-frame multiplexing prefix a
// multiplexed wire carries ahead of the packet: the destination context
// index (the "mux ID") that routes the frame to one of the peer pair's
// shared-connection contexts. It is connection-private framing, not part of
// the packet (WireSize/AppendWire are unchanged), so non-multiplexed
// framings stay byte-identical.
const MuxHeaderSize = 4

// AppendMuxFrame appends a multiplexed wire frame to b: a u32 total-length
// prefix covering [mux header + packet], the u32 mux ID (destination
// context index), then the packet's AppendWire form.
func (p *Packet) AppendMuxFrame(b []byte, mux uint32) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(MuxHeaderSize+p.WireSize()))
	b = binary.LittleEndian.AppendUint32(b, mux)
	return p.AppendWire(b)
}

// DecodeMuxFrame parses the body of a multiplexed frame (everything after
// the length prefix): the mux ID and the packet.
func DecodeMuxFrame(b []byte) (mux uint32, p *Packet, err error) {
	p = new(Packet)
	if mux, err = DecodeMuxFrameInto(p, b, nil); err != nil {
		return mux, nil, err
	}
	return mux, p, nil
}

// DecodeMuxFrameInto is DecodeMuxFrame into the zero packet p (see
// DecodePacketInto), with the payload copy carved from slab (nil: a copy of
// its own).
func DecodeMuxFrameInto(p *Packet, b []byte, slab *Slab) (mux uint32, err error) {
	if len(b) < MuxHeaderSize {
		return 0, fmt.Errorf("transport: short mux frame (%d bytes)", len(b))
	}
	return binary.LittleEndian.Uint32(b), decodeInto(p, b[MuxHeaderSize:], 0, slab)
}

// LandedFrameSize is the length a landed frame declares for p and a body of
// bodyLen bytes: mux header, p's wire form, landing extension, body.
func (p *Packet) LandedFrameSize(bodyLen int) int {
	return MuxHeaderSize + p.WireSize() + LandExtSize + bodyLen
}

// AppendLandedFrame appends the head of a landed frame: length prefix, mux ID
// and p's wire form with FlagLanded and the landing extension. The body —
// bodyLen bytes for the receiver's region — follows on the wire from wherever
// the caller keeps it.
func (p *Packet) AppendLandedFrame(b []byte, mux uint32, region uint64, bodyLen int) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(p.LandedFrameSize(bodyLen)))
	b = binary.LittleEndian.AppendUint32(b, mux)
	return p.appendWire(b, true, region, bodyLen)
}

// PeekLanded reads the landing extension off the first LandedPeek bytes of a
// frame, length prefix included; landed is false for a plain frame.
func PeekLanded(frame []byte) (region uint64, bodyLen int, landed bool) {
	ext := frame[LandedPeek-LandExtSize:]
	landed = Kind(binary.LittleEndian.Uint32(frame[4+MuxHeaderSize+kindOffset:]))&FlagLanded != 0
	return binary.LittleEndian.Uint64(ext), int(binary.LittleEndian.Uint32(ext[8:])), landed
}

// DecodeLandedHeadInto parses the head of a landed frame, less its length
// prefix, into the zero packet p, with the payload copy carved from slab (nil:
// a copy of its own). Only a rendezvous data packet lands.
func DecodeLandedHeadInto(p *Packet, head []byte, slab *Slab) (mux uint32, err error) {
	if len(head) < MuxHeaderSize+EnvelopeSize ||
		Kind(binary.LittleEndian.Uint32(head[MuxHeaderSize+kindOffset:]))&^FlagTraced != KindRendezvousData|FlagLanded {
		return 0, fmt.Errorf("transport: no rendezvous data packet heads the landed frame")
	}
	return binary.LittleEndian.Uint32(head), decodeInto(p, head[MuxHeaderSize:], LandExtSize, slab)
}

// CQEKind discriminates completion-queue entries.
type CQEKind uint8

const (
	// CQERecv reports arrival of a two-sided packet.
	CQERecv CQEKind = iota + 1
	// CQEPutComplete reports local completion of a signaled one-sided put
	// and of every one-sided operation issued before it on its context.
	CQEPutComplete
	// CQESendComplete reports local completion of a two-sided packet on a
	// signaled in-process fabric device (DeviceConfig.Unsignaled unset).
	// The runtime's devices never post one.
	CQESendComplete
)

// CQE is one completion-queue entry.
type CQE struct {
	Kind   CQEKind
	Packet *Packet // for CQERecv and CQESendComplete
	Token  any     // for CQEPutComplete: the signaled put's token
}
