package transport

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"testing/quick"
)

func testEnvelope() Envelope {
	return Envelope{Src: 0, Dst: 1, Tag: 7, Comm: 3, Seq: 42, Kind: KindEager}
}

// An untraced packet's framing must be byte-identical to the canonical
// format: 28-byte envelope, 20-byte driver metadata, payload — no trace
// extension, no flag bit.
func TestWireUntracedByteIdentical(t *testing.T) {
	p := NewPacket(testEnvelope(), []byte("abc"), nil)
	p.Meta = &Meta{RelSeq: 9, RelSrc: 2, Stamp: 1234}
	got := p.AppendWire(nil)

	var want []byte
	var hdr [EnvelopeSize]byte
	env := testEnvelope()
	env.Len = 3
	env.Marshal(&hdr)
	want = append(want, hdr[:]...)
	var meta [wireMetaSize]byte
	binary.LittleEndian.PutUint64(meta[0:], 9)
	binary.LittleEndian.PutUint32(meta[8:], 2)
	binary.LittleEndian.PutUint64(meta[12:], 1234)
	want = append(want, meta[:]...)
	want = append(want, "abc"...)

	if !bytes.Equal(got, want) {
		t.Fatalf("untraced frame differs from canonical format:\ngot  %x\nwant %x", got, want)
	}
	if got := len(got); got != p.WireSize() {
		t.Fatalf("WireSize=%d, frame is %d bytes", p.WireSize(), got)
	}
	if kind := Kind(binary.LittleEndian.Uint32(got[kindOffset:])); kind.Traced() {
		t.Fatal("untraced frame carries FlagTraced")
	}
}

func TestWireTracedRoundTrip(t *testing.T) {
	p := NewPacket(testEnvelope(), []byte("payload"), nil)
	p.Meta = &Meta{RelSeq: 5, Stamp: 777, TraceID: 0xdeadbeefcafe, Origin: 3}
	frame := p.AppendWire(nil)

	if got := len(frame); got != p.WireSize() {
		t.Fatalf("WireSize=%d, frame is %d bytes", p.WireSize(), got)
	}
	if got, want := p.WireSize(), EnvelopeSize+TraceExtSize+wireMetaSize+len("payload"); got != want {
		t.Fatalf("traced WireSize=%d, want %d", got, want)
	}
	if kind := Kind(binary.LittleEndian.Uint32(frame[kindOffset:])); !kind.Traced() {
		t.Fatal("traced frame missing FlagTraced on the wire")
	}

	q, err := DecodePacket(frame)
	if err != nil {
		t.Fatal(err)
	}
	env := q.Envelope()
	if env.Kind != KindEager {
		t.Fatalf("decoded Kind=%v carries flags; want bare KindEager", env.Kind)
	}
	if env.Kind.Traced() {
		t.Fatal("decoded envelope still carries FlagTraced")
	}
	if m := q.Meta; m == nil || m.TraceID != p.Meta.TraceID || m.Origin != 3 || m.Stamp != 777 {
		t.Fatalf("trace context lost: %+v", m)
	}
	if string(q.Payload) != "payload" || q.Meta.RelSeq != 5 {
		t.Fatalf("payload/meta lost: %q relseq=%d", q.Payload, q.Meta.RelSeq)
	}

	// A re-framed decoded packet must reproduce the original bytes (a
	// retransmission re-encodes from the struct).
	if again := q.AppendWire(nil); !bytes.Equal(again, frame) {
		t.Fatalf("re-encode differs:\ngot  %x\nwant %x", again, frame)
	}
}

func TestWireShortTracedFrame(t *testing.T) {
	p := NewPacket(testEnvelope(), nil, nil)
	p.Meta = &Meta{TraceID: 1}
	frame := p.AppendWire(nil)
	if _, err := DecodePacket(frame[:EnvelopeSize+4]); err == nil {
		t.Fatal("short traced frame decoded without error")
	}
}

// A frame DecodePacketInto refuses leaves the packet it was given untouched:
// a tcp reader decodes into slab entries, and a half-written entry would be a
// partially decoded packet someone could later be handed.
func TestDecodePacketIntoRejectsWithoutWriting(t *testing.T) {
	traced := NewPacket(testEnvelope(), []byte("payload"), nil)
	traced.Meta = &Meta{TraceID: 7, Origin: 1, RelSeq: 9}
	noID := traced.AppendWire(nil)
	clear(noID[EnvelopeSize:][:8])
	plain := NewPacket(testEnvelope(), []byte("payload"), nil).AppendWire(nil)
	for name, frame := range map[string][]byte{
		"shorter than an envelope":  plain[:EnvelopeSize-1],
		"short driver metadata":     plain[:EnvelopeSize+wireMetaSize-1],
		"short traced extension":    traced.AppendWire(nil)[:EnvelopeSize+TraceExtSize+wireMetaSize-1],
		"traced flag without an id": noID,
		"landed frame":              NewPacket(testEnvelope(), []byte("payload"), nil).AppendLandedFrame(nil, 0, 1, 0)[4+MuxHeaderSize:],
	} {
		var p Packet
		if err := DecodePacketInto(&p, frame); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if !reflect.DeepEqual(p, Packet{}) {
			t.Errorf("%s: refused frame left %+v in the packet", name, p)
		}
	}
	// The same storage then takes a good frame exactly as DecodePacket would.
	var p Packet
	want, err := DecodePacket(plain)
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodePacketInto(&p, plain); err != nil || !reflect.DeepEqual(&p, want) {
		t.Fatalf("DecodePacketInto = %+v, %v; DecodePacket = %+v", p, err, want)
	}
}

// Init fills an embedded packet exactly as NewPacketRaw builds a fresh one.
func TestPacketInit(t *testing.T) {
	env := testEnvelope()
	env.Len = 99 // raw: the advertised length is not the carried one
	payload := []byte("carried")
	want := NewPacketRaw(env, payload)

	var in Packet
	in.Init(env, payload, nil)
	if !reflect.DeepEqual(&in, want) || &in.Payload[0] == &payload[0] {
		t.Fatalf("Init = %+v (payload aliased: %v), NewPacketRaw = %+v", in, &in.Payload[0] == &payload[0], want)
	}
}

// A landed frame's head carries the packet whole — flags stripped on the way
// in, trace extension and metadata intact — with the region and body length
// where PeekLanded reads them, and declares a length that counts the body.
func TestWireLandedRoundTrip(t *testing.T) {
	for _, traced := range []bool{false, true} {
		env := testEnvelope()
		env.Kind = KindRendezvousData
		p := NewPacketRaw(env, []byte("transfer"))
		p.Meta = &Meta{RelSeq: 9, RelSrc: 3, Stamp: 1234}
		if traced {
			p.Meta.TraceID, p.Meta.Origin = 0xfeed, 3
		}
		const mux, region, body = 5, 0xABCDEF0123, 70000
		head := p.AppendLandedFrame(nil, mux, region, body)
		if got := int(binary.LittleEndian.Uint32(head)); got != len(head)-4+body || got != p.LandedFrameSize(body) {
			t.Fatalf("traced=%v: declared length %d, head %d bytes + body %d, LandedFrameSize %d", traced, got, len(head), body, p.LandedFrameSize(body))
		}
		if r, n, landed := PeekLanded(head); !landed || r != region || n != body {
			t.Fatalf("traced=%v: PeekLanded = %#x, %d, %v", traced, r, n, landed)
		}
		if _, _, landed := PeekLanded(append(p.AppendMuxFrame(nil, mux), make([]byte, LandedPeek)...)); landed {
			t.Fatalf("traced=%v: PeekLanded takes a plain frame for a landed one", traced)
		}
		var q Packet
		gotMux, err := DecodeLandedHeadInto(&q, head[4:], nil)
		if err != nil || gotMux != mux || !reflect.DeepEqual(&q, p) {
			t.Fatalf("traced=%v: head decodes to mux %d, %+v, %v; want mux %d, %+v", traced, gotMux, q, err, mux, p)
		}
		// Only the rendezvous data packet lands, and only from a whole head.
		other := append([]byte(nil), head[4:]...)
		other[MuxHeaderSize+kindOffset] = byte(KindEager)
		for name, bad := range map[string][]byte{"flag on an eager packet": other, "short head": head[4 : len(head)-len(p.Payload)-1], "plain frame": p.AppendMuxFrame(nil, mux)[4:]} {
			var q Packet
			if _, err := DecodeLandedHeadInto(&q, bad, nil); err == nil || !reflect.DeepEqual(q, Packet{}) {
				t.Errorf("traced=%v, %s: err %v, packet left as %+v", traced, name, err, q)
			}
		}
	}
}

func TestKindFlagHelpers(t *testing.T) {
	k := KindRendezvousRTS | FlagTraced
	if k.Base() != KindRendezvousRTS {
		t.Fatalf("Base()=%v", k.Base())
	}
	if !k.Traced() {
		t.Fatal("Traced()=false on flagged kind")
	}
	if KindEager.Traced() {
		t.Fatal("bare kind reports Traced")
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	e := Envelope{Src: 3, Dst: 7, Tag: -42, Comm: 9, Seq: 123456, Len: 28, Kind: KindEager}
	var b [EnvelopeSize]byte
	e.Marshal(&b)
	var got Envelope
	got.Unmarshal(&b)
	if got != e {
		t.Fatalf("round trip = %+v, want %+v", got, e)
	}
}

func TestEnvelopeQuickRoundTrip(t *testing.T) {
	prop := func(src, dst, tag int32, comm, seq, ln uint32) bool {
		e := Envelope{Src: src, Dst: dst, Tag: tag, Comm: comm, Seq: seq, Len: ln, Kind: KindEager}
		var b [EnvelopeSize]byte
		e.Marshal(&b)
		var got Envelope
		got.Unmarshal(&b)
		return got == e
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPacketCopiesPayload(t *testing.T) {
	payload := []byte{1, 2, 3}
	p := NewPacket(Envelope{Kind: KindEager}, payload, nil)
	payload[0] = 99 // sender reuses its buffer immediately
	if p.Payload[0] != 1 {
		t.Fatal("packet aliases the sender's buffer; eager semantics require a copy")
	}
	if env := p.Envelope(); env.Len != 3 {
		t.Fatalf("packet Len = %d, want 3", env.Len)
	}
}

// A Slab's payload copy is the caller's bytes in a chunk shared with other
// copies and nothing else: capped at its length, so an append to it cannot
// reach the copy carved after it; one allocation per chunk; a payload above
// slabMaxPayload, or any payload through a nil slab, gets its own.
func TestPayloadSlabCopy(t *testing.T) {
	var s Slab
	if s.Copy(nil) != nil || (*Slab)(nil).Copy([]byte{}) != nil {
		t.Fatal("an empty payload copied to a non-nil slice")
	}
	src := []byte("first")
	a := s.Copy(src)
	b := s.Copy([]byte("second"))
	src[0] = 'X'
	if string(a) != "first" || cap(a) != len(a) || string(b) != "second" {
		t.Fatalf("copies %q (cap %d) and %q after the source changed", a, cap(a), b)
	}
	_ = append(a, "!!!"...)
	if string(b) != "second" {
		t.Fatalf("an append to one copy reached the next: %q", b)
	}
	eight := []byte("12345678")
	if n := testing.AllocsPerRun(10, func() {
		for range slabChunk / len(eight) {
			s.Copy(eight)
		}
	}); n > 1 {
		t.Fatalf("8-byte copies filling one chunk cost %v allocations, want at most 1", n)
	}
	big := make([]byte, slabMaxPayload+1)
	if n := testing.AllocsPerRun(10, func() { s.Copy(big) }); n != 1 {
		t.Fatalf("a %d-byte copy cost %v allocations, want its own one", len(big), n)
	}
	if n := testing.AllocsPerRun(10, func() { (*Slab)(nil).Copy(src) }); n != 1 {
		t.Fatalf("a copy through a nil slab cost %v allocations, want its own one", n)
	}
}

// A frame carries a Meta record to its decoded packet only when there is
// something in it: an untraced frame with zero driver metadata — every
// message no observer or reliability layer touched — decodes without one,
// and a traced or tracked frame's record comes from the decoder's slab, 64
// records to an allocation.
func TestDecodeCarvesMetaOnlyWhenCarried(t *testing.T) {
	var s Slab
	plain := NewPacket(testEnvelope(), []byte("x"), nil).AppendMuxFrame(nil, 0)[4:]
	var p Packet
	if _, err := DecodeMuxFrameInto(&p, plain, &s); err != nil || p.Meta != nil {
		t.Fatalf("untraced frame: err %v, Meta %+v, want none", err, p.Meta)
	}
	tracked := NewPacket(testEnvelope(), nil, nil)
	tracked.Meta = &Meta{RelSeq: 3, RelSrc: 1}
	frame := tracked.AppendMuxFrame(nil, 0)[4:]
	var a, b Packet
	if _, err := DecodeMuxFrameInto(&a, frame, &s); err != nil || a.Meta == nil || *a.Meta != *tracked.Meta {
		t.Fatalf("tracked frame: err %v, Meta %+v, want %+v", err, a.Meta, tracked.Meta)
	}
	if _, err := DecodeMuxFrameInto(&b, frame, &s); err != nil || b.Meta == a.Meta {
		t.Fatalf("two decodes share one Meta record (err %v)", err)
	}
	if n := testing.AllocsPerRun(10, func() {
		for range slabMetas {
			s.Meta()
		}
	}); n > 1 {
		t.Fatalf("%d records cost %v allocations, want at most 1", slabMetas, n)
	}
	if (*Slab)(nil).Meta() == nil {
		t.Fatal("a nil slab gave no record")
	}
}
