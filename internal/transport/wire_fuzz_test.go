package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzPacket builds a packet from fuzzer-chosen fields. traceID 0 leaves it
// untraced, anything else frames the trace-context extension.
func fuzzPacket(src, dst, tag int32, comm, seq, length uint32, kind uint8, relSeq uint64, stamp int64, traceID uint64, origin int32, payload []byte) *Packet {
	env := Envelope{Src: src, Dst: dst, Tag: tag, Comm: comm, Seq: seq, Len: length, Kind: Kind(kind%uint8(KindAck)) + KindEager}
	p := NewPacketRaw(env, payload)
	m := &Meta{RelSeq: relSeq, RelSrc: src, Stamp: stamp}
	if traceID != 0 {
		m.TraceID, m.Origin = traceID, origin
	}
	if *m != (Meta{}) {
		p.Meta = m
	}
	return p
}

// samePacket reports whether two packets agree in everything that crosses
// the wire; a missing Meta record reads as a zero one.
func samePacket(a, b *Packet) bool {
	return a.header == b.header && bytes.Equal(a.Payload, b.Payload) &&
		wireMeta(a) == wireMeta(b)
}

// wireMeta is the part of p's Meta record that crosses the wire.
func wireMeta(p *Packet) Meta {
	if p.Meta == nil {
		return Meta{}
	}
	m := p.Meta
	return Meta{RelSeq: m.RelSeq, RelSrc: m.RelSrc, Stamp: m.Stamp, TraceID: m.TraceID, Origin: m.Origin}
}

// checkDecoded holds a packet the decoder accepted from frame to the
// negative-space contract: whatever the bytes were, the result is a packet
// the runtime could have sent — no wire flag left in the envelope, the
// payload exactly the frame's tail, and encoding it again yields a frame of
// the same size that decodes to the same packet.
func checkDecoded(t *testing.T, frame []byte, p *Packet) {
	t.Helper()
	if p.Envelope().Kind&(FlagTraced|FlagLanded) != 0 {
		t.Fatalf("decoded envelope keeps a wire flag: %v", p.Envelope())
	}
	if !bytes.HasSuffix(frame, p.Payload) {
		t.Fatalf("payload %x is not the tail of frame %x", p.Payload, frame)
	}
	again := p.AppendWire(nil)
	if len(again) != len(frame) || len(again) != p.WireSize() {
		t.Fatalf("accepted a %d-byte frame, re-encodes to %d bytes, WireSize %d", len(frame), len(again), p.WireSize())
	}
	q, err := DecodePacket(again)
	if err != nil || !samePacket(p, q) {
		t.Fatalf("re-encoded packet decodes to %+v, %v; want %+v", q, err, p)
	}
}

// corrupt flips one bit of frame (chosen by flip) and cuts it to cut%(len+1)
// bytes; flip 0 and cut len leave it whole.
func corrupt(frame []byte, flip, cut uint16) []byte {
	out := append([]byte(nil), frame...)
	if flip != 0 && len(out) > 0 {
		out[int(flip>>3)%len(out)] ^= 1 << (flip & 7)
	}
	return out[:int(cut)%(len(out)+1)]
}

func FuzzDecodePacket(f *testing.F) {
	f.Add(int32(0), int32(1), int32(7), uint32(3), uint32(42), uint32(3), uint8(0), uint64(9), int64(1234), uint64(0), int32(0), []byte("abc"), uint16(0), uint16(0xffff))
	f.Add(int32(2), int32(0), int32(-1000), uint32(1), uint32(0), uint32(0), uint8(0), uint64(0), int64(777), uint64(0xdeadbeefcafe), int32(2), []byte(nil), uint16(0), uint16(0xffff))
	f.Add(int32(1), int32(0), int32(5), uint32(1), uint32(8), uint32(1<<20), uint8(1), uint64(0), int64(0), uint64(1), int32(1), []byte("12345678"), uint16(24*8+0), uint16(0xffff)) // flips a kind bit
	f.Add(int32(1), int32(0), int32(5), uint32(1), uint32(8), uint32(8), uint8(0), uint64(0), int64(5), uint64(1), int32(1), []byte("12345678"), uint16(24*8+8), uint16(0xffff))     // clears FlagTraced
	f.Add(int32(1), int32(0), int32(5), uint32(1), uint32(8), uint32(8), uint8(0), uint64(0), int64(5), uint64(1), int32(1), []byte("12345678"), uint16(28*8), uint16(0xffff))       // zeroes the trace id
	f.Add(int32(0), int32(1), int32(7), uint32(3), uint32(42), uint32(0), uint8(4), uint64(1), int64(2), uint64(0), int32(0), []byte(nil), uint16(24*8+8), uint16(0xffff))           // sets FlagTraced on an untraced frame
	f.Add(int32(0), int32(1), int32(7), uint32(3), uint32(42), uint32(3), uint8(0), uint64(9), int64(1234), uint64(7), int32(0), []byte("abc"), uint16(0), uint16(EnvelopeSize+TraceExtSize))
	f.Add(int32(0), int32(1), int32(7), uint32(3), uint32(42), uint32(3), uint8(0), uint64(9), int64(1234), uint64(0), int32(0), []byte("abc"), uint16(0), uint16(EnvelopeSize+3))
	f.Add(int32(0), int32(1), int32(7), uint32(3), uint32(42), uint32(12), uint8(3), uint64(9), int64(1234), uint64(0), int32(0), []byte("123456789012"), uint16(24*8+9), uint16(0xffff)) // sets FlagLanded on a plain frame
	f.Fuzz(func(t *testing.T, src, dst, tag int32, comm, seq, length uint32, kind uint8, relSeq uint64, stamp int64, traceID uint64, origin int32, payload []byte, flip, cut uint16) {
		p := fuzzPacket(src, dst, tag, comm, seq, length, kind, relSeq, stamp, traceID, origin, payload)
		frame := p.AppendWire(nil)
		if len(frame) != p.WireSize() {
			t.Fatalf("WireSize %d, frame is %d bytes", p.WireSize(), len(frame))
		}
		q, err := DecodePacket(frame)
		if err != nil || !samePacket(p, q) {
			t.Fatalf("round trip: got %+v, %v; want %+v", q, err, p)
		}
		if again := q.AppendWire(nil); !bytes.Equal(again, frame) {
			t.Fatalf("re-encode differs:\ngot  %x\nwant %x", again, frame)
		}
		bad := corrupt(frame, flip, cut)
		if q, err := DecodePacket(bad); err == nil {
			checkDecoded(t, bad, q)
		} else if len(bad) == len(frame) && flip == 0 {
			t.Fatalf("rejected an intact frame: %v", err)
		}
	})
}

func FuzzDecodeMuxFrame(f *testing.F) {
	f.Add(uint32(0), int32(7), uint32(42), uint64(0), []byte("abc"), uint16(0), uint16(0xffff))
	f.Add(uint32(1023), int32(0), uint32(0), uint64(0xabcdef), []byte(nil), uint16(0), uint16(0xffff))
	f.Add(uint32(3), int32(1), uint32(1), uint64(1), []byte("x"), uint16(0), uint16(2))               // cut inside the mux id
	f.Add(uint32(3), int32(1), uint32(1), uint64(1), []byte("x"), uint16(0), uint16(MuxHeaderSize))   // mux id, no packet
	f.Add(uint32(3), int32(1), uint32(1), uint64(1), []byte("x"), uint16(1), uint16(0xffff))          // flips a mux bit
	f.Add(uint32(3), int32(1), uint32(1), uint64(1), []byte("x"), uint16((4+28)*8+1), uint16(0xffff)) // flips a trace-id bit
	f.Fuzz(func(t *testing.T, mux uint32, tag int32, seq uint32, traceID uint64, payload []byte, flip, cut uint16) {
		p := fuzzPacket(1, 2, tag, 4, seq, uint32(len(payload)), 0, 9, 77, traceID, 1, payload)
		frame := p.AppendMuxFrame(nil, mux)
		body := frame[4:]
		if got := binary.LittleEndian.Uint32(frame); int(got) != len(body) || len(body) != MuxHeaderSize+p.WireSize() {
			t.Fatalf("length prefix %d, body %d bytes, packet WireSize %d", got, len(body), p.WireSize())
		}
		gotMux, q, err := DecodeMuxFrame(body)
		if err != nil || gotMux != mux || !samePacket(p, q) {
			t.Fatalf("round trip: mux %d packet %+v, %v; want mux %d packet %+v", gotMux, q, err, mux, p)
		}
		bad := corrupt(body, flip, cut)
		gotMux, q, err = DecodeMuxFrame(bad)
		if err != nil {
			if len(bad) == len(body) && flip == 0 {
				t.Fatalf("rejected an intact frame: %v", err)
			}
			return
		}
		if gotMux != binary.LittleEndian.Uint32(bad) {
			t.Fatalf("mux %d decoded from a frame addressed to %d", gotMux, binary.LittleEndian.Uint32(bad))
		}
		checkDecoded(t, bad[MuxHeaderSize:], q)
	})
}
