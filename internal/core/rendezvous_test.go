package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/backends"
	"repro/internal/hw"
	"repro/internal/spc"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
)

// control builds a rendezvous control packet as a peer's wire would deliver
// it: kind from communicator rank src of the world communicator, payload made
// of the given little-endian words cut to size bytes.
func control(kind transport.Kind, src int32, size int, words ...uint64) *transport.Packet {
	var payload []byte
	for _, w := range words {
		payload = binary.LittleEndian.AppendUint64(payload, w)
	}
	env := transport.Envelope{Src: src, Dst: 0, Tag: 5, Comm: 1, Len: 1 << 10, Kind: kind}
	return transport.NewPacketRaw(env, payload[:size], nil)
}

// TestHostileRendezvousControl: the rendezvous handlers take lengths, a sink
// size and a source rank off the wire. A packet that is short, permits more
// than was offered or names a rank outside the communicator is counted in
// late_packets and dropped without a panic, and a request it leaves with no
// way to complete fails with ErrProtocol instead of spinning in Wait.
func TestHostileRendezvousControl(t *testing.T) {
	opts := Stock()
	opts.EagerLimit = 16
	msg := bytes.Repeat([]byte{7}, 100)
	for _, tc := range []struct {
		name string
		// pkt builds the hostile packet for rank 0; id is the transfer id of
		// the rendezvous send rank 0 has pending.
		pkt func(id uint64) *transport.Packet
		// recv posts a receive on rank 0, from any source, for the packet to
		// match.
		recv bool
		// failsSend / failsRecv: the pending request ends with ErrProtocol;
		// otherwise it must still be pending.
		failsSend, failsRecv bool
	}{
		{name: "ACK shorter than its three words",
			pkt: func(id uint64) *transport.Packet { return control(transport.KindRendezvousACK, 1, 23, id, 1, 40) }},
		{name: "ACK permitting more than the send holds", failsSend: true,
			pkt: func(id uint64) *transport.Packet { return control(transport.KindRendezvousACK, 1, 24, id, 1, 101) }},
		{name: "ACK permitting a length of all ones", failsSend: true,
			pkt: func(id uint64) *transport.Packet {
				return control(transport.KindRendezvousACK, 1, 24, id, 1, ^uint64(0))
			}},
		{name: "FIN shorter than a transfer id",
			pkt: func(id uint64) *transport.Packet { return control(transport.KindRendezvousData, 1, 7, id) }},
		{name: "FIN from a rank outside the communicator",
			pkt: func(id uint64) *transport.Packet { return control(transport.KindRendezvousData, 99, 8, id) }},
		{name: "FIN from a negative rank",
			pkt: func(id uint64) *transport.Packet { return control(transport.KindRendezvousData, -3, 8, id) }},
		{name: "RTS shorter than a transfer id", recv: true, failsRecv: true,
			pkt: func(id uint64) *transport.Packet { return control(transport.KindRendezvousRTS, 1, 4, id) }},
		{name: "RTS from a rank outside the communicator", recv: true, failsRecv: true,
			pkt: func(id uint64) *transport.Packet { return control(transport.KindRendezvousRTS, 99, 8, id) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newTestWorld(t, 2, opts)
			p := w.Proc(0)
			th, c := p.NewThread(), p.CommWorld()
			// A rendezvous send nobody answers: the hostile packet is all that
			// ever arrives for it.
			sreq, err := c.Isend(th, 1, 5, msg)
			if err != nil {
				t.Fatal(err)
			}
			var rreq *Request
			if tc.recv {
				if rreq, err = c.Irecv(th, int(AnySource), 5, make([]byte, 40)); err != nil {
					t.Fatal(err)
				}
			}
			before := p.spcs.Get(spc.LatePackets)
			p.deliver(nil, nil, tc.pkt(p.rdvNext.Load()), &th.run)
			if got := p.spcs.Get(spc.LatePackets) - before; got != 1 {
				t.Errorf("late_packets rose by %d, want 1", got)
			}
			check := func(what string, req *Request, fails bool) {
				switch {
				case req == nil:
				case fails && (!req.Done() || !errors.Is(req.result(), ErrProtocol)):
					t.Errorf("%s: done=%v err=%v, want failed with ErrProtocol", what, req.Done(), req.result())
				case !fails && req.Done():
					t.Errorf("%s completed (err %v) by a packet that should have been dropped", what, req.result())
				}
			}
			check("send", sreq, tc.failsSend)
			check("receive", rreq, tc.failsRecv)
		})
	}
}

// rdvPair is a two-rank world over the in-process fabric or loopback tcp: a
// Thread and the world communicator on each rank.
func rdvPair(t *testing.T, tcp bool) (th [2]*Thread, c [2]*Comm) {
	t.Helper()
	if !tcp {
		w := newTestWorld(t, 2, Stock())
		for rank := range th {
			th[rank], c[rank] = w.Proc(rank).NewThread(), w.Proc(rank).CommWorld()
		}
		return th, c
	}
	nets, err := tcpnet.NewLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	for rank := range th {
		w, err := NewDistributedWorld(hw.Fast(), rank, 2, nets[rank], Stock())
		if err != nil {
			t.Fatalf("rank %d world: %v", rank, err)
		}
		t.Cleanup(w.Close)
		th[rank], c[rank] = w.LocalProc().NewThread(), w.LocalProc().CommWorld()
	}
	return th, c
}

// rdvOnce moves payload from rank 0 into buf on rank 1 — a rendezvous when
// payload is above the eager limit — progressing both ranks until both ends
// complete, and checks that it arrived intact.
func rdvOnce(t *testing.T, th [2]*Thread, c [2]*Comm, payload, buf []byte) (sreq, rreq *Request) {
	clear(buf)
	rreq, err := c[1].Irecv(th[1], 0, 7, buf)
	if err != nil {
		t.Fatal(err)
	}
	sreq, err = c[0].Isend(th[0], 1, 7, payload)
	if err != nil {
		t.Fatal(err)
	}
	for !sreq.Done() || !rreq.Done() {
		th[0].Progress()
		th[1].Progress()
	}
	if sreq.result() != nil || rreq.result() != nil || !bytes.Equal(buf, payload) {
		t.Fatalf("send %v, receive %v, payload intact: %v", sreq.result(), rreq.result(), bytes.Equal(buf, payload))
	}
	return sreq, rreq
}

// seededPayload is a 64 KiB rendezvous payload and a receive buffer for it.
func seededPayload() (payload, buf []byte) {
	payload, buf = make([]byte, 64<<10), make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	return payload, buf
}

// A 64 KiB rendezvous costs no heap object of its own, over either backend:
// the payload never touches the heap — the FIN streams out of the send buffer
// and lands in the posted receive — and the rest is carved. The send (request,
// RTS, FIN, the transfer id and the user's buffer) is one entry of the sending
// Thread's slab; the receive's matching record one of its Thread's; the
// receive's transfer state (request, sink, the ACK and its 24 payload bytes)
// one of the proc's slab, carved under rdvMu; the sink's registration one of
// the device's region slab; tcp's decoded packets come from the reader's
// slabs. So the run averages one allocation per slab refill — a few per 64
// messages, which AllocsPerRun's whole-number average reads as 0 (12 objects
// when each of these had one of its own, 17 when the payload still rode the
// FIN) — and well under 4 KiB of heap (148 880 B then): a payload-sized make
// anywhere on the path fails the byte bound at once.
func TestTCPRendezvousAllocations(t *testing.T) {
	th, c := rdvPair(t, true)
	payload, buf := seededPayload()
	one := func() { rdvOnce(t, th, c, payload, buf) }
	one() // dial and handshake outside the measurement
	pinAllocs(t, "core 64 KiB rendezvous, per message (tcp)", 0.1, 4<<10-1, 1, one)
}

// TestSimRendezvousAllocations is TestTCPRendezvousAllocations over the
// in-process fabric, where the receiver reads the sender's RTS and FIN, and
// the sender the receiver's ACK, by pointer.
func TestSimRendezvousAllocations(t *testing.T) {
	th, c := rdvPair(t, false)
	payload, buf := seededPayload()
	one := func() { rdvOnce(t, th, c, payload, buf) }
	one()
	pinAllocs(t, "core 64 KiB rendezvous, per message (sim)", 0.1, 4<<10-1, 1, one)
}

// TestFinishedRendezvousHoldsNoUserMemory: records are carved, never recycled,
// so a record that outlived its transfer would pin the user's buffer for as
// long as anything holds its slab. When a transfer ends, its send record has
// let go of the send buffer, its receive record of the request and the sink,
// and a deregistered region of its buffer, on either backend.
func TestFinishedRendezvousHoldsNoUserMemory(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(map[bool]string{false: "sim", true: "tcp"}[tcp], func(t *testing.T) {
			th, c := rdvPair(t, tcp)
			payload, buf := seededPayload()
			rdvOnce(t, th, c, payload, buf) // fills the slabs: the next records are known
			p1 := c[1].proc
			send := &th[0].rdvs[0]
			p1.rdvMu.Lock()
			recv := &p1.rdvRecvSlab[0]
			p1.rdvMu.Unlock()
			sreq, _ := rdvOnce(t, th, c, payload, buf)
			if sreq != &send.Request || recv.ack.Envelope().Kind != transport.KindRendezvousACK {
				t.Fatal("the transfer did not use the next record of each slab")
			}
			if send.buf != nil {
				t.Error("the finished send's record still holds the send buffer")
			}
			if recv.req != nil || recv.region != nil {
				t.Errorf("the finished receive's record still holds request %p, region %v", recv.req, recv.region)
			}
			region := p1.RegisterMemory(buf)
			p1.DeregisterMemory(region)
			if region.Bytes() != nil {
				t.Error("a deregistered region still holds its buffer")
			}
		})
	}
}

// TestReliableRendezvousAbandonedAfterCompletion: the RTS's failure hook can
// fire after its transfer completed — its reliability ack lost, say, and then
// the peer gone. It finds no pending send to fail: no request completes twice
// and the send's result stays nil.
func TestReliableRendezvousAbandonedAfterCompletion(t *testing.T) {
	opts := Stock()
	opts.Network = backends.Faulty(transport.FaultConfig{})
	w := newTestWorld(t, 2, opts)
	p0 := w.Proc(0)
	th := [2]*Thread{p0.NewThread(), w.Proc(1).NewThread()}
	c := [2]*Comm{p0.CommWorld(), w.Proc(1).CommWorld()}
	payload, buf := seededPayload()
	rreq, err := c[1].Irecv(th[1], 0, 7, buf)
	if err != nil {
		t.Fatal(err)
	}
	sreq, err := c[0].Isend(th[0], 1, 7, payload)
	if err != nil {
		t.Fatal(err)
	}
	// The RTS's reliability entry, before any progress pass can retire it.
	var hook func(error)
	sp := &p0.rel.send[1]
	sp.mu.Lock()
	for _, e := range sp.unacked {
		if e.pkt.Envelope().Kind == transport.KindRendezvousRTS {
			hook = e.fail
		}
	}
	sp.mu.Unlock()
	if hook == nil {
		t.Fatal("the RTS is not tracked with a failure hook")
	}
	for !sreq.Done() || !rreq.Done() {
		th[0].Progress()
		th[1].Progress()
	}
	if sreq.result() != nil || rreq.result() != nil || !bytes.Equal(buf, payload) {
		t.Fatalf("send %v, receive %v, payload intact: %v", sreq.result(), rreq.result(), bytes.Equal(buf, payload))
	}
	hook(ErrPeerUnreachable)
	if err := sreq.result(); err != nil {
		t.Fatalf("the completed send's result became %v", err)
	}
}

// handDial connects to a tcp rank's listener as rank 0 and completes the
// handshake (tcpnet package comment: hello, echo, offset), returning the raw
// connection for hand-written frames.
func handDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	hello := binary.LittleEndian.AppendUint32(nil, 0x43524933) // "CRI3"
	hello = append(hello, make([]byte, 4+4+8)...)              // rank 0, reserved, t1
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, make([]byte, 16)); err != nil { // echo: t2, t3
		t.Fatal(err)
	}
	if _, err := conn.Write(make([]byte, 16)); err != nil { // offset: θ, δ
		t.Fatal(err)
	}
	return conn
}

// TestRendezvousDataAndFINAreOneFrame: over tcp the body and its FIN share a
// frame, so a link that dies between the frame's head and its last body byte
// takes both. The receive stays pending — it is never completed over bytes
// that did not arrive — and completes, intact, when the whole frame is
// replayed on a new connection. Rank 1 is a real world; the test plays rank 0
// on raw sockets.
func TestRendezvousDataAndFINAreOneFrame(t *testing.T) {
	const size, id = 64 << 10, 0x51
	nets, err := tcpnet.NewLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if d, err := nets[0].NewDevice(0, hw.Fast(), transport.DeviceConfig{}); err == nil {
			d.Close() // rank 0 was played by hand: only its listener needs closing
		}
	})
	w, err := NewDistributedWorld(hw.Fast(), 1, 2, nets[1], Stock())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	th, c := w.LocalProc().NewThread(), w.LocalProc().CommWorld()
	got := make([]byte, size)
	rreq, err := c.Irecv(th, 0, 7, got)
	if err != nil {
		t.Fatal(err)
	}

	conn := handDial(t, nets[1].Addr())
	idb := binary.LittleEndian.AppendUint64(nil, id)
	rts := transport.NewPacketRaw(transport.Envelope{Src: 0, Dst: 1, Tag: 7, Comm: 1, Len: size, Kind: transport.KindRendezvousRTS}, idb, nil)
	if _, err := conn.Write(rts.AppendMuxFrame(nil, 0)); err != nil {
		t.Fatal(err)
	}
	// Rank 1 matches the RTS and answers on the connection it came in on.
	ackc := make(chan *transport.Packet, 1)
	go func() {
		var n [4]byte
		if _, err := io.ReadFull(conn, n[:]); err != nil {
			t.Error(err)
			close(ackc)
			return
		}
		frame := make([]byte, binary.LittleEndian.Uint32(n[:]))
		if _, err := io.ReadFull(conn, frame); err != nil {
			t.Error(err)
			close(ackc)
			return
		}
		_, ack, err := transport.DecodeMuxFrame(frame)
		if err != nil {
			t.Error(err)
		}
		ackc <- ack
	}()
	var ack *transport.Packet
	for deadline := time.Now().Add(10 * time.Second); ack == nil; {
		th.Progress()
		select {
		case ack = <-ackc:
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("no ACK for the hand-written RTS")
		}
	}
	if ack == nil || ack.Envelope().Kind != transport.KindRendezvousACK || len(ack.Payload) != 24 ||
		binary.LittleEndian.Uint64(ack.Payload) != id || binary.LittleEndian.Uint64(ack.Payload[16:]) != size {
		t.Fatalf("rank 1 answered the RTS with %+v", ack)
	}
	region := binary.LittleEndian.Uint64(ack.Payload[8:])

	body := make([]byte, size)
	for i := range body {
		body[i] = byte(i*11 + 3)
	}
	fin := transport.NewPacketRaw(transport.Envelope{Src: 0, Dst: 1, Comm: 1, Kind: transport.KindRendezvousData}, idb, nil)
	frame := append(fin.AppendLandedFrame(nil, 0, region, size), body...)
	if _, err := conn.Write(frame[:len(frame)-size/2]); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// Long enough for rank 1 to read all that was sent and meet the end of
	// the stream.
	for stop := time.Now().Add(50 * time.Millisecond); time.Now().Before(stop); {
		th.Progress()
	}
	if rreq.Done() {
		t.Fatalf("the receive completed (err %v) over a body whose second half never arrived", rreq.result())
	}

	// The sender's reconnect path: a new connection, the frame from its start.
	again := handDial(t, nets[1].Addr())
	if _, err := again.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := rreq.Wait(th); err != nil {
		t.Fatal(err)
	}
	if st := rreq.Status(); st.Count != size || st.Truncated || !bytes.Equal(got, body) {
		t.Fatalf("replayed transfer: status %+v, payload intact: %v", st, bytes.Equal(got, body))
	}
}
