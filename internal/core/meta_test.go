package core

import (
	"testing"

	"repro/internal/backends"
	"repro/internal/hw"
	"repro/internal/latency"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
)

// metaPair builds two ranks over the named backend — "sim", the in-process
// fabric, or "tcp", two distributed worlds over loopback — and returns each
// rank's thread and world communicator.
func metaPair(t *testing.T, backend string, opts Options) (th [2]*Thread, c [2]*Comm) {
	t.Helper()
	if backend == "sim" {
		w := newTestWorld(t, 2, opts)
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
		w, err := NewDistributedWorld(hw.Fast(), rank, 2, nets[rank], opts)
		if err != nil {
			t.Fatalf("rank %d world: %v", rank, err)
		}
		t.Cleanup(w.Close)
		th[rank], c[rank] = w.LocalProc().NewThread(), w.LocalProc().CommWorld()
	}
	return th, c
}

// sendUnexpected builds a metaPair, sends one 4-byte eager message from rank
// 0 to rank 1 and claims it there with MProbe, returning the packet the
// sender built and the one the receiver holds. Over the fabric the sender
// carves its packet from its Thread's slab and the receiver holds that very
// packet; a first message fills the slab, so the entry the measured send is
// carved from can be named before Isend. tcp copies each packet into its wire
// buffer (Caps.Copies), so there the sender carves none: it reuses its
// Thread's one packet, read as Isend left it, and the receiver holds a decoded
// copy.
func sendUnexpected(t *testing.T, backend string, opts Options) (sent, got *transport.Packet) {
	t.Helper()
	th, c := metaPair(t, backend, opts)
	for range 2 {
		op := carveNext(th[0])
		req, err := c[0].Isend(th[0], 1, 5, []byte("meta"))
		if err != nil {
			t.Fatal(err)
		}
		if backend == "tcp" {
			if len(th[0].pkts) != 0 {
				t.Fatal("an eager send over tcp carved a packet")
			}
			op = &th[0].tx
		}
		if op != nil && string(op.Payload) != "meta" {
			t.Fatal("the send was not built in the packet named for it")
		}
		var msg *Message
		for msg == nil || !req.Done() {
			th[0].Progress()
			if msg == nil {
				msg, _ = c[1].MProbe(th[1], 0, 5)
			}
		}
		if op != nil {
			return op, msg.pkt
		}
	}
	panic("unreachable")
}

// carveNext is the packet th's next eager send will be carved, nil when its
// slab is used up.
func carveNext(th *Thread) *transport.Packet {
	if len(th.pkts) == 0 {
		return nil
	}
	return &th.pkts[0]
}

// An untimed, untracked message carries no metadata record anywhere: not on
// the sender's packet (carved over the fabric, the Thread's reused one over
// tcp), not through fabric delivery (the receiver holds that very packet),
// not out of the tcp decoder. The reliability layer gives one to every packet
// it tracks; it tracks none on tcp, a lossless wire.
func TestUntimedMessageCarriesNoMeta(t *testing.T) {
	for _, backend := range []string{"sim", "tcp"} {
		t.Run(backend, func(t *testing.T) {
			sent, got := sendUnexpected(t, backend, Stock())
			if sent.Meta != nil || got.Meta != nil {
				t.Fatalf("untimed message: sender's Meta %+v, receiver's %+v, want none", sent.Meta, got.Meta)
			}
			if backend == "sim" && sent != got {
				t.Fatal("the fabric delivered another packet than the sender's")
			}
		})
	}
	opts := Stock()
	opts.Network = backends.Faulty(transport.FaultConfig{})
	sent, _ := sendUnexpected(t, "sim", opts)
	if m := sent.Meta; m == nil || m.RelSeq == 0 || m.RelSrc != 0 || m.TraceID != 0 || m.Stamp != 0 {
		t.Fatalf("tracked untimed message: Meta %+v, want a sequence and no trace context", m)
	}
}

// Under TraceWire + Latency the trace id, origin and send stamp cross tcp in
// the FlagTraced extension, the decoder stamps arrival, and the sender's
// stage durations stay behind (they never cross a real wire).
func TestTracedMetaCrossesTCP(t *testing.T) {
	opts := Stock()
	opts.TraceWire, opts.Latency = true, true
	sent, got := sendUnexpected(t, "tcp", opts)
	s, g := sent.Meta, got.Meta
	if s == nil || g == nil || s.TraceID == 0 {
		t.Fatalf("traced message: sender's Meta %+v, receiver's %+v", s, g)
	}
	if g.TraceID != s.TraceID || g.Origin != 0 || g.Stamp != s.Stamp || s.Stamp == 0 {
		t.Fatalf("trace context lost on the wire: sent %+v, decoded %+v", s, g)
	}
	if g.ArriveNs == 0 || g.SendAcqNs != 0 || g.SendWireNs != 0 {
		t.Fatalf("decoded Meta %+v: want an arrival stamp and no sender stages", g)
	}
}

// In process the receiver reads the sender's record itself: a traced matched
// receive gets its exemplar with the trace id, the origin and the
// receive-side stages the fabric's and the matching engine's stamps measure.
func TestTracedStagesInProcess(t *testing.T) {
	opts := Stock()
	opts.Latency = true
	w := newTestWorld(t, 2, opts)
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	c0, c1 := w.Proc(0).CommWorld(), w.Proc(1).CommWorld()
	rreq, err := c1.Irecv(t1, 0, 4, make([]byte, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := c0.Send(t0, 1, 4, []byte("staged")); err != nil {
		t.Fatal(err)
	}
	if err := rreq.Wait(t1); err != nil {
		t.Fatal(err)
	}
	ex := w.Proc(1).LatencyRecorder().Exemplars()
	if len(ex) != 1 {
		t.Fatalf("%d exemplars, want 1", len(ex))
	}
	m := ex[0]
	if m.TraceID != TraceID(0, c0.ID(), 0) || m.Origin != 0 {
		t.Fatalf("exemplar %+v: want trace id %#x from rank 0", m, TraceID(0, c0.ID(), 0))
	}
	for _, s := range []latency.Stage{latency.StageTransit, latency.StageDeliverWait, latency.StageMatchPosted} {
		if m.StageNs[s] == latency.Unknown {
			t.Errorf("stage %v unobserved in process: %v", s, m.StageNs)
		}
	}
}
