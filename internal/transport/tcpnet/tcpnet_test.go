package tcpnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/spc"
	"repro/internal/transport"
)

func newPair(t *testing.T) (d0, d1 transport.Device, c0, c1 transport.Context) {
	t.Helper()
	nets, err := NewLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	d0, err = nets[0].NewDevice(0, hw.Fast(), transport.DeviceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d1, err = nets[1].NewDevice(1, hw.Fast(), transport.DeviceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d0.Close(); d1.Close() })
	c0, err = d0.CreateContext(0)
	if err != nil {
		t.Fatal(err)
	}
	c1, err = d1.CreateContext(0)
	if err != nil {
		t.Fatal(err)
	}
	return d0, d1, c0, c1
}

func poll1(t *testing.T, c transport.Context) transport.CQE {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; ; i++ {
		var got *transport.CQE
		if c.Poll(func(e transport.CQE) { got = &e }, 1) > 0 {
			return *got
		}
		// Check the clock only occasionally: the poll itself must stay hot.
		if i%4096 == 0 && time.Now().After(deadline) {
			break
		}
	}
	t.Fatal("no completion arrived")
	return transport.CQE{}
}

func TestSendAcrossProcessesBoundary(t *testing.T) {
	d0, _, c0, c1 := newPair(t)
	ep, err := d0.Connect(c0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	env := transport.Envelope{Src: 0, Dst: 1, Tag: 7, Kind: transport.KindEager}
	pkt := transport.NewPacket(env, []byte("over the wire"), nil)
	pkt.Meta = &transport.Meta{RelSeq: 42}
	if err := ep.Send(pkt); err != nil {
		t.Fatal(err)
	}
	// The sender's poll finds no completion (Send returning was it) and
	// puts the frame on the wire.
	if n := c0.Poll(func(e transport.CQE) { t.Errorf("sender polled %+v", e) }, 16); n != 0 {
		t.Fatalf("sender polled %d events, want none", n)
	}
	e := poll1(t, c1)
	if e.Kind != transport.CQERecv {
		t.Fatalf("remote completion kind = %v", e.Kind)
	}
	got := e.Packet.Envelope()
	if got.Tag != 7 || string(e.Packet.Payload) != "over the wire" {
		t.Fatalf("packet corrupted: tag=%d payload=%q", got.Tag, e.Packet.Payload)
	}
	if m := e.Packet.Meta; m == nil || m.RelSeq != 42 {
		t.Fatalf("driver metadata lost: %+v", m)
	}
}

// TestLoopbackEndpointSameRank: tcpnet has no same-rank endpoint — the
// runtime delivers a self send itself and never connects a rank to itself —
// so Connect toward the device's own rank is refused with ErrNoEndpoint.
func TestLoopbackEndpointSameRank(t *testing.T) {
	d0, _, c0, _ := newPair(t)
	if ep, err := d0.Connect(c0, 0, 0); !errors.Is(err, transport.ErrNoEndpoint) || ep != nil {
		t.Fatalf("Connect to the own rank = %v, %v; want no endpoint and ErrNoEndpoint", ep, err)
	}
}

func TestManyPacketsFIFO(t *testing.T) {
	d0, _, c0, c1 := newPair(t)
	ep, err := d0.Connect(c0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	const total = 5000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			env := transport.Envelope{Src: 0, Dst: 1, Seq: uint32(i), Kind: transport.KindEager}
			ep.Send(transport.NewPacket(env, nil, nil))
			// Drain local send completions so the CQ ring never fills.
			c0.Poll(func(transport.CQE) {}, 64)
		}
	}()
	next := uint32(0)
	for next < total {
		e := poll1(t, c1)
		if e.Kind != transport.CQERecv {
			continue
		}
		if got := e.Packet.Envelope().Seq; got != next {
			t.Fatalf("out of order: got seq %d, want %d (TCP must preserve FIFO)", got, next)
		}
		next++
	}
	wg.Wait()
}

func TestCapsAndUnsupportedOps(t *testing.T) {
	_, _, c0, _ := newPair(t)
	caps := Caps()
	if caps.Name != "tcp" || !caps.Lossless || !caps.Copies {
		t.Fatalf("caps = %+v", caps)
	}
	if got := caps.String(); got != "lossless" {
		t.Fatalf("caps string = %q", got)
	}
	if _, ok := c0.(transport.OneSided); ok {
		t.Fatal("a tcp context implements the one-sided initiators")
	}
}

// TestPutNotifyRefusesBeforeWriting: a landed frame is held to the frame limit
// with its body counted, and its head to maxLandedHead, before anything is
// dialed, buffered or written.
func TestPutNotifyRefusesBeforeWriting(t *testing.T) {
	nets, d0, _, ctr := newCountedPair(t)
	ep := mustConnect(t, d0, mustContext(t, d0), 1, 0)
	fin := transport.NewPacketRaw(transport.Envelope{Kind: transport.KindRendezvousData}, make([]byte, 8))
	body := make([]byte, maxFrame-fin.LandedFrameSize(0)+1) // never touched: no page of it becomes resident
	if err := ep.PutNotify(1, body, fin); err == nil || !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("PutNotify of a frame one byte above maxFrame = %v, want the frame-limit refusal", err)
	}
	fat := transport.NewPacketRaw(transport.Envelope{Kind: transport.KindRendezvousData}, make([]byte, maxLandedHead))
	if err := ep.PutNotify(1, nil, fat); err == nil {
		t.Fatal("PutNotify accepted a head above maxLandedHead: the peer would close the link over it")
	}
	s := &nets[0].slots[1]
	s.pmu.Lock()
	pending := len(s.pend)
	s.pmu.Unlock()
	if pending != 0 || ctr.Get(spc.ConnsOpened) != 0 || ctr.Get(spc.WireFlushes) != 0 {
		t.Fatalf("a refused PutNotify left %d bytes pending, %d connections, %d flushes", pending, ctr.Get(spc.ConnsOpened), ctr.Get(spc.WireFlushes))
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Size: 0}); err == nil {
		t.Fatal("Size 0 accepted")
	}
	if _, err := New(Config{Rank: 2, Size: 2, Listen: "127.0.0.1:0", Peers: []string{"a", "b"}}); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if _, err := New(Config{Rank: 0, Size: 2, Listen: "127.0.0.1:0", Peers: []string{"a"}}); err == nil {
		t.Fatal("short peer list accepted")
	}
	n, err := New(Config{Rank: 0, Size: 1})
	if err != nil {
		t.Fatalf("single-process world: %v", err)
	}
	d, err := n.NewDevice(0, hw.Fast(), transport.DeviceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.NewDevice(0, hw.Fast(), transport.DeviceConfig{}); err == nil {
		t.Fatal("duplicate device accepted")
	}
	d.Close()
}

func TestClockSyncHandshake(t *testing.T) {
	d0, d1, c0, _ := newPair(t)
	ep, err := d0.Connect(c0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Establishment is lazy: the handshake (and its clock sample) happens on
	// the first send, not at Connect.
	if err := ep.Send(transport.NewPacket(transport.Envelope{Kind: transport.KindEager}, nil, nil)); err != nil {
		t.Fatal(err)
	}
	cs0, ok := d0.(transport.ClockSync)
	if !ok {
		t.Fatal("tcpnet device does not implement transport.ClockSync")
	}
	// The dialer has its sample as soon as the first send returns.
	off01, ok := cs0.PeerClockOffsetNs(1)
	if !ok {
		t.Fatal("dialer has no clock estimate for its peer")
	}
	if self, ok := cs0.PeerClockOffsetNs(0); !ok || self != 0 {
		t.Fatalf("self offset = %d, %v; want 0, true", self, ok)
	}
	if _, ok := cs0.PeerClockOffsetNs(7); ok {
		t.Fatal("estimate reported for a rank never contacted")
	}
	// The server side learns the offset from the third handshake frame;
	// wait out the reader goroutine.
	cs1 := d1.(transport.ClockSync)
	var off10 int64
	deadline := time.Now().Add(2 * time.Second)
	for {
		var ok bool
		if off10, ok = cs1.PeerClockOffsetNs(0); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never recorded the dialer's clock sample")
		}
		time.Sleep(time.Millisecond)
	}
	// Both processes share one physical clock here, so the estimates must be
	// near zero and antisymmetric: offset(0→1) ≈ −offset(1→0), both within
	// the loopback round trip of the true value (0).
	const tol = int64(50 * time.Millisecond)
	if off01 > tol || off01 < -tol {
		t.Fatalf("loopback offset 0→1 = %dns, want ≈0", off01)
	}
	if sum := off01 + off10; sum > tol || sum < -tol {
		t.Fatalf("offsets not antisymmetric: %d + %d = %d", off01, off10, sum)
	}
}

func TestReconnectAfterPeerConnDrop(t *testing.T) {
	nets, err := NewLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	ctr := spc.NewSet()
	d0, err := nets[0].NewDevice(0, hw.Fast(), transport.DeviceConfig{Counters: ctr})
	if err != nil {
		t.Fatal(err)
	}
	d1, err := nets[1].NewDevice(1, hw.Fast(), transport.DeviceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d0.Close(); d1.Close() })
	c0, err := d0.CreateContext(0)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := d1.CreateContext(0)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := d0.Connect(c0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	send := func(tag int32, payload string) {
		env := transport.Envelope{Src: 0, Dst: 1, Tag: tag, Kind: transport.KindEager}
		ep.Send(transport.NewPacket(env, []byte(payload), nil))
		c0.Poll(func(transport.CQE) {}, 8)
	}
	recv := func(wantTag int32, wantPayload string) {
		deadline := time.Now().Add(5 * time.Second)
		for {
			var got *transport.Packet
			c1.Poll(func(e transport.CQE) {
				if e.Kind == transport.CQERecv {
					got = e.Packet
				}
			}, 8)
			if got != nil {
				env := got.Envelope()
				if env.Tag != wantTag || string(got.Payload) != wantPayload {
					t.Fatalf("got tag=%d payload=%q, want tag=%d payload=%q",
						env.Tag, got.Payload, wantTag, wantPayload)
				}
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("packet tag=%d never arrived", wantTag)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	send(1, "before")
	recv(1, "before")
	// Kill the established shared link out from under the endpoint. The next
	// write fails, triggering the one-shot reconnect path.
	sever(t, nets[0], 1)
	// The failed write may be silently accepted by the kernel buffer once
	// before the RST surfaces; keep sending until the reconnect happens.
	deadline := time.Now().Add(5 * time.Second)
	for ctr.Get(spc.Reconnects) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("reconnect never happened")
		}
		send(2, "after")
		time.Sleep(time.Millisecond)
	}
	recv(2, "after")
	if got := ctr.Get(spc.Reconnects); got < 1 {
		t.Fatalf("reconnects = %d, want >= 1", got)
	}
}

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers(" 127.0.0.1:7100 ,127.0.0.1:7101,	127.0.0.1:7102")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"127.0.0.1:7100", "127.0.0.1:7101", "127.0.0.1:7102"}
	if len(peers) != len(want) {
		t.Fatalf("got %d peers, want %d", len(peers), len(want))
	}
	for i := range want {
		if peers[i] != want[i] {
			t.Fatalf("peers[%d] = %q, want %q (whitespace must be trimmed)", i, peers[i], want[i])
		}
	}
	if _, err := ParsePeers("a:1,b:2,a:1"); err == nil {
		t.Fatal("duplicate address accepted")
	} else if !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate error not descriptive: %v", err)
	}
	if _, err := ParsePeers("a:1,,b:2"); err == nil {
		t.Fatal("empty address accepted")
	}
}

// sever kills n's link toward peer under the runtime the way a failing network
// does: both directions are shut down, so the next write fails and the next
// read ends, but the descriptor stays open — only link.close may release one,
// because pollers read it raw. A link the end of its read stream already
// closed is dead enough.
func sever(t *testing.T, n *Network, peer int) {
	t.Helper()
	tc := n.slots[peer].link.Load().conn.(*net.TCPConn)
	if err := errors.Join(tc.CloseRead(), tc.CloseWrite()); err != nil && !errors.Is(err, net.ErrClosed) {
		t.Fatal(err)
	}
}

// TestMultiplexedContextsShareOneConn: every context of a rank sending to one
// peer shares the rank's path there, demultiplexed by the frame's mux ID.
func TestMultiplexedContextsShareOneConn(t *testing.T) {
	nets, err := NewLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	ctr := spc.NewSet()
	d0, err := nets[0].NewDevice(0, hw.Fast(), transport.DeviceConfig{Counters: ctr})
	if err != nil {
		t.Fatal(err)
	}
	d1, err := nets[1].NewDevice(1, hw.Fast(), transport.DeviceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d0.Close(); d1.Close() })
	c0a, _ := d0.CreateContext(0)
	c0b, _ := d0.CreateContext(0)
	r0, _ := d1.CreateContext(0)
	r1, _ := d1.CreateContext(0)
	epA, err := d0.Connect(c0a, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	epB, err := d0.Connect(c0b, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	send := func(ep transport.Endpoint, tag int32) {
		env := transport.Envelope{Src: 0, Dst: 1, Tag: tag, Kind: transport.KindEager}
		if err := ep.Send(transport.NewPacket(env, nil, nil)); err != nil {
			t.Fatal(err)
		}
	}
	send(epA, 10)
	send(epB, 11)
	// Demux: each frame lands in the context its mux ID names.
	if e := poll1(t, r0); e.Packet.Envelope().Tag != 10 {
		t.Fatalf("context 0 got tag %d, want 10", e.Packet.Envelope().Tag)
	}
	if e := poll1(t, r1); e.Packet.Envelope().Tag != 11 {
		t.Fatalf("context 1 got tag %d, want 11", e.Packet.Envelope().Tag)
	}
	// One physical dial, one reuse.
	if got := ctr.Get(spc.ConnsOpened); got != 1 {
		t.Fatalf("conns_opened = %d, want 1 (contexts must share the connection)", got)
	}
	if got := ctr.Get(spc.ConnsReused); got != 1 {
		t.Fatalf("conns_reused = %d, want 1", got)
	}
	// The dialing side registered exactly one outbound connection.
	nets[0].mu.Lock()
	dialed := len(nets[0].conns)
	nets[0].mu.Unlock()
	if dialed != 1 {
		t.Fatalf("rank 0 holds %d connections, want 1", dialed)
	}
}

// TestReplyRidesTheRequestsConnection: a rank whose first send to a peer
// answers one the peer dialed takes that connection up as its path instead
// of dialing — one socket for the pair, so the reply carries TCP's
// acknowledgment of the request — and each side counts one path opened.
func TestReplyRidesTheRequestsConnection(t *testing.T) {
	nets, err := NewLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	var ctrs [2]*spc.Set
	var ctxs [2]transport.Context
	var eps [2]transport.Endpoint
	for r := range nets {
		ctrs[r] = spc.NewSet()
		d, err := nets[r].NewDevice(r, hw.Fast(), transport.DeviceConfig{Counters: ctrs[r]})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		ctxs[r] = mustContext(t, d)
		eps[r] = mustConnect(t, d, ctxs[r], 1-r, 0)
	}
	establish(t, eps[0], ctxs[0], ctxs[1])
	establish(t, eps[1], ctxs[1], ctxs[0])
	for r, n := range nets {
		n.mu.Lock()
		conns := len(n.conns)
		n.mu.Unlock()
		if o, d := ctrs[r].Get(spc.ConnsOpened), ctrs[r].Get(spc.DialRetries); conns != 1 || o != 1 || d != 0 {
			t.Errorf("rank %d: %d sockets, conns_opened %d, dial_retries %d; want one socket and one path", r, conns, o, d)
		}
	}
	if nets[1].slots[0].link.Load() != nets[1].slots[0].inbound.Load() {
		t.Error("rank 1 dialed a connection of its own for its reply")
	}
}

// newCountedPair is newPair with an SPC set on rank 0 and access to the
// networks, for the white-box write-path tests.
func newCountedPair(t *testing.T) (nets []*Network, d0, d1 transport.Device, ctr *spc.Set) {
	t.Helper()
	nets, err := NewLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	ctr = spc.NewSet()
	if d0, err = nets[0].NewDevice(0, hw.Fast(), transport.DeviceConfig{Counters: ctr}); err != nil {
		t.Fatal(err)
	}
	if d1, err = nets[1].NewDevice(1, hw.Fast(), transport.DeviceConfig{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d0.Close(); d1.Close() })
	return nets, d0, d1, ctr
}

func mustContext(t *testing.T, d transport.Device) transport.Context {
	t.Helper()
	c, err := d.CreateContext(0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustConnect(t *testing.T, d transport.Device, c transport.Context, peer, remote int) transport.Endpoint {
	t.Helper()
	ep, err := d.Connect(c, peer, remote)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// establish sends one frame from ep, polls the sender once (which finds no
// completion and flushes the frame) and the receiver until it arrived, so the
// link exists and nothing is pending when the test proper starts.
func establish(t *testing.T, ep transport.Endpoint, local, remote transport.Context) {
	t.Helper()
	if err := ep.Send(transport.NewPacket(transport.Envelope{Kind: transport.KindEager}, nil, nil)); err != nil {
		t.Fatal(err)
	}
	if n := local.Poll(func(transport.CQE) {}, 64); n != 0 {
		t.Fatalf("the sender polled %d events after a send, want no completion", n)
	}
	poll1(t, remote)
}

// TestConcurrentSendersCoalesce is the write path under contention: eight
// goroutines on eight contexts share the rank's one socket to the peer, each
// posting windows of sends and then progressing. Every frame must arrive
// exactly once and in per-context order, and the socket must see far fewer
// writes (one per flush) than frames — the syscall is paid per batch.
func TestConcurrentSendersCoalesce(t *testing.T) {
	const (
		senders = 8
		perCtx  = 2000
		window  = 32
	)
	_, d0, d1, ctr := newCountedPair(t)
	var local, remote [senders]transport.Context
	var eps [senders]transport.Endpoint
	for i := range eps {
		local[i], remote[i] = mustContext(t, d0), mustContext(t, d1)
		eps[i] = mustConnect(t, d0, local[i], 1, i)
	}
	establish(t, eps[0], local[0], remote[0])
	before := ctr.Get(spc.WireFlushes)

	var wg sync.WaitGroup
	for i := range eps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for seq := 0; seq < perCtx; seq++ {
				env := transport.Envelope{Src: 0, Dst: 1, Tag: int32(i), Seq: uint32(seq), Kind: transport.KindEager}
				if err := eps[i].Send(transport.NewPacket(env, nil, nil)); err != nil {
					t.Error(err)
					return
				}
				if seq%window == window-1 {
					local[i].Poll(func(transport.CQE) {}, window)
				}
			}
		}(i)
	}
	var next [senders]uint32
	recv := func(i int) int {
		return remote[i].Poll(func(e transport.CQE) {
			env := e.Packet.Envelope()
			if env.Tag != int32(i) || env.Seq != next[i] {
				t.Errorf("context %d got tag %d seq %d, want seq %d", i, env.Tag, env.Seq, next[i])
			}
			next[i]++
		}, 64)
	}
	deadline := time.Now().Add(30 * time.Second)
	for got := 0; got < senders*perCtx && !t.Failed(); {
		n := 0
		for i := range remote {
			n += recv(i)
		}
		if got += n; n == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("received %d of %d frames", got, senders*perCtx)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	wg.Wait()
	// Exactly once: nothing further shows up after everything was received.
	time.Sleep(4 * backstopDelay)
	for i := range remote {
		if extra := recv(i); extra != 0 {
			t.Errorf("context %d received %d frames beyond the %d sent", i, extra, perCtx)
		}
	}
	if w, max := ctr.Get(spc.WireFlushes)-before, int64(senders*perCtx/8); w > max {
		t.Errorf("%d socket writes for %d frames, want at most %d", w, senders*perCtx, max)
	}
}

// TestBackstopDeliversWithoutProgress: a sender that posts one frame and
// never re-enters the runtime still reaches its peer, by the backstop timer.
func TestBackstopDeliversWithoutProgress(t *testing.T) {
	_, d0, d1, ctr := newCountedPair(t)
	c0, c1 := mustContext(t, d0), mustContext(t, d1)
	ep := mustConnect(t, d0, c0, 1, 0)
	establish(t, ep, c0, c1)

	env := transport.Envelope{Src: 0, Dst: 1, Tag: 5, Kind: transport.KindEager}
	if err := ep.Send(transport.NewPacket(env, nil, nil)); err != nil {
		t.Fatal(err)
	}
	sent := time.Now()
	// No further call on the sending side.
	for {
		var got *transport.Packet
		c1.Poll(func(e transport.CQE) { got = e.Packet }, 1)
		if got != nil {
			if tag := got.Envelope().Tag; tag != 5 {
				t.Fatalf("got tag %d, want 5", tag)
			}
			break
		}
		if time.Since(sent) > 10*backstopDelay {
			t.Fatalf("frame not delivered within %v of a send with no progress", 10*backstopDelay)
		}
		time.Sleep(20 * time.Microsecond)
	}
	// The flush counts itself after the write returns, which the peer can
	// beat; give the timer goroutine a moment.
	for deadline := time.Now().Add(time.Second); ctr.Get(spc.WireBackstopFlushes) == 0 && time.Now().Before(deadline); {
		time.Sleep(20 * time.Microsecond)
	}
	if got := ctr.Get(spc.WireBackstopFlushes); got != 1 {
		t.Fatalf("wire_backstop_flushes = %d, want 1", got)
	}
	if flushes, frames := ctr.Get(spc.WireFlushes), ctr.Get(spc.WireFramesFlushed); flushes != 2 || frames != 2 {
		t.Fatalf("wire_flushes = %d, wire_frames_flushed = %d, want 2 and 2", flushes, frames)
	}
}

// TestReconnectReplaysPendingBuffer kills the connection between append and
// flush: the flush must fail over to a fresh link and replay every buffered
// frame there, once and in order.
func TestReconnectReplaysPendingBuffer(t *testing.T) {
	const frames = 10
	nets, d0, d1, ctr := newCountedPair(t)
	c0, c1 := mustContext(t, d0), mustContext(t, d1)
	ep := mustConnect(t, d0, c0, 1, 0)
	establish(t, ep, c0, c1)

	// Holding the write-order lock keeps every flusher (the backstop
	// included) out while the frames are buffered and the link dies.
	s := &nets[0].slots[1]
	s.wmu.Lock()
	for i := 0; i < frames; i++ {
		env := transport.Envelope{Src: 0, Dst: 1, Seq: uint32(i), Kind: transport.KindEager}
		if err := ep.Send(transport.NewPacket(env, []byte{byte(i)}, nil)); err != nil {
			t.Fatal(err)
		}
	}
	sever(t, nets[0], 1)
	s.wmu.Unlock()
	c0.Poll(func(transport.CQE) {}, 64)

	for want := uint32(0); want < frames; want++ {
		e := poll1(t, c1)
		if seq := e.Packet.Envelope().Seq; seq != want || e.Packet.Payload[0] != byte(want) {
			t.Fatalf("got seq %d payload %v, want seq %d", seq, e.Packet.Payload, want)
		}
	}
	time.Sleep(4 * backstopDelay)
	if extra := c1.Poll(func(transport.CQE) {}, 64); extra != 0 {
		t.Fatalf("%d frames delivered twice after the replay", extra)
	}
	if got := ctr.Get(spc.Reconnects); got != 1 {
		t.Fatalf("reconnects = %d, want 1", got)
	}
}

// TestFlushFailureIsReported loses the peer after a Send completed locally:
// the flush cannot deliver and cannot reconnect, so the loss must show in the
// counters and come back from the next Send; once the peer is reachable again
// the Send after that takes the stranded frame along, in order.
func TestFlushFailureIsReported(t *testing.T) {
	nets, d0, d1, ctr := newCountedPair(t)
	nets[0].cfg.DialTimeout = 50 * time.Millisecond
	c0, c1 := mustContext(t, d0), mustContext(t, d1)
	ep := mustConnect(t, d0, c0, 1, 0)
	establish(t, ep, c0, c1)

	send := func(seq uint32) error {
		env := transport.Envelope{Src: 0, Dst: 1, Seq: seq, Kind: transport.KindEager}
		return ep.Send(transport.NewPacket(env, nil, nil))
	}
	// Holding the write-order lock keeps every flusher (the backstop
	// included) out while the frame is buffered and the peer goes away: a
	// Send that finds the link already closed re-dials, and fails, at once.
	s := &nets[0].slots[1]
	s.wmu.Lock()
	if err := send(1); err != nil {
		t.Fatalf("send into the pending buffer: %v", err)
	}
	d1.Close()
	sever(t, nets[0], 1) // a write to a half-closed socket could still succeed
	s.wmu.Unlock()
	c0.Poll(func(transport.CQE) {}, 64) // completes the send; the flush fails
	// The backstop may have claimed the flush first and still sit in its dial.
	for deadline := time.Now().Add(2 * time.Second); ctr.Get(spc.WireFlushFailures) == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if fails, frames := ctr.Get(spc.WireFlushFailures), ctr.Get(spc.WireFramesStranded); fails != 1 || frames != 1 {
		t.Fatalf("wire_flush_failures = %d, wire_frames_stranded = %d, want 1 and 1", fails, frames)
	}
	if nets[0].dirty.Load() != 0 {
		t.Fatal("a failed flush left the slot dirty: every progress pass would sit in a dial")
	}
	if err := send(2); !errors.Is(err, transport.ErrConnEstablish) {
		t.Fatalf("send after a failed flush returned %v, want the flush's error", err)
	}

	// The peer comes back on the same address.
	ln, err := net.Listen("tcp", nets[1].cfg.Listen)
	if err != nil {
		t.Skipf("cannot re-listen on the peer's address: %v", err)
	}
	n1 := newNetwork(nets[1].cfg, ln)
	n1.wg.Add(1)
	go n1.acceptLoop(ln)
	d1b, err := n1.NewDevice(1, hw.Fast(), transport.DeviceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d1b.Close()
	c1b := mustContext(t, d1b)
	if err := send(3); err != nil {
		t.Fatalf("send after the peer returned: %v", err)
	}
	c0.Poll(func(transport.CQE) {}, 64)
	for _, want := range []uint32{1, 3} {
		if seq := poll1(t, c1b).Packet.Envelope().Seq; seq != want {
			t.Fatalf("got seq %d, want %d", seq, want)
		}
	}
}

// TestOversizeFrameThenSmallFrames: a plain frame must fit the reader's
// window. Send takes a frame of exactly the window, refuses one byte more
// before it queues or dials anything, and the small frames sent behind both
// arrive in order. A peer that declares a larger plain frame anyway has its
// link closed — whether a poller or the goroutine meets it — with
// wire_frames_rejected ticked once and nothing behind it delivered.
func TestOversizeFrameThenSmallFrames(t *testing.T) {
	t.Run("send", func(t *testing.T) {
		nets, d0, d1, ctr := newCountedPair(t)
		c0, c1 := mustContext(t, d0), mustContext(t, d1)
		ep := mustConnect(t, d0, c0, 1, 0)
		packet := func(seq uint32, payload []byte) *transport.Packet {
			return transport.NewPacket(transport.Envelope{Src: 0, Dst: 1, Seq: seq, Kind: transport.KindEager}, payload, nil)
		}
		head := 4 + transport.MuxHeaderSize + packet(0, nil).WireSize()
		over := make([]byte, readBufSize-head+1)
		if err := ep.Send(packet(0, over)); err == nil {
			t.Fatalf("Send took a %d-byte frame through a %d-byte window", head+len(over), readBufSize)
		}
		s := &nets[0].slots[1]
		s.pmu.Lock()
		pending := len(s.pend)
		s.pmu.Unlock()
		if pending != 0 || s.dirty.Load() || ctr.Get(spc.ConnsOpened) != 0 {
			t.Fatalf("the refused frame left %d bytes pending (dirty %v) and opened %d connections",
				pending, s.dirty.Load(), ctr.Get(spc.ConnsOpened))
		}
		fit := seeded(readBufSize - head)
		if err := ep.Send(packet(0, fit)); err != nil {
			t.Fatalf("a frame of exactly the window: %v", err)
		}
		for i := 1; i <= 100; i++ {
			if err := ep.Send(packet(uint32(i), []byte{byte(i)})); err != nil {
				t.Fatal(err)
			}
		}
		c0.Poll(func(transport.CQE) {}, 128)
		if e := poll1(t, c1); e.Packet.Envelope().Seq != 0 || !bytes.Equal(e.Packet.Payload, fit) {
			t.Fatalf("window-sized frame corrupted: seq %d, %d bytes", e.Packet.Envelope().Seq, len(e.Packet.Payload))
		}
		for i := 1; i <= 100; i++ {
			e := poll1(t, c1)
			if seq := e.Packet.Envelope().Seq; seq != uint32(i) || len(e.Packet.Payload) != 1 || e.Packet.Payload[0] != byte(i) {
				t.Fatalf("small frame %d corrupted: seq %d payload %v", i, seq, e.Packet.Payload)
			}
		}
	})
	// A plain frame one byte above the window, its first maxLandedHead bytes
	// there (enough to tell it is not a landed frame), between two valid
	// frames.
	valid := transport.NewPacket(transport.Envelope{Kind: transport.KindEager}, []byte("ok"), nil)
	stream := valid.AppendMuxFrame(nil, 0)
	stream = binary.LittleEndian.AppendUint32(stream, readBufSize-3)
	stream = append(stream, make([]byte, maxLandedHead)...)
	stream = valid.AppendMuxFrame(stream, 0)
	t.Run("goroutine reads", func(t *testing.T) { hostileStream(t, stream, false) })
	t.Run("pollers read", func(t *testing.T) { hostileStream(t, stream, true) })
}

// TestFrameReaderSpillIsPaidByBytesReceived: a stream that declares a huge
// frame and then stops costs the reader no more than what actually arrived.
// No plain frame spills past the window, so the largest length a landed frame
// may declare, on a plain frame, is refused at once and the window stays the
// reader's only buffer.
func TestFrameReaderSpillIsPaidByBytesReceived(t *testing.T) {
	const window = 64
	stream := binary.LittleEndian.AppendUint32(nil, maxFrame)
	stream = append(stream, make([]byte, 100)...)
	frames, fr, err := readAll(window, 7, stream)
	if err != errBadFrame || len(frames) != 0 {
		t.Fatalf("err = %v, %d frames; want errBadFrame and none", err, len(frames))
	}
	if c := cap(fr.buf); c != window {
		t.Fatalf("the reader's buffer grew to %d bytes for a %d-byte window", c, window)
	}
}

// TestIdleRankArmsNoTimer: the backstop arms on a clean→dirty transition and
// disarms once nothing is dirty, so a rank that sends nothing wakes nothing.
func TestIdleRankArmsNoTimer(t *testing.T) {
	nets, d0, d1, _ := newCountedPair(t)
	c0, c1 := mustContext(t, d0), mustContext(t, d1)
	if nets[0].backstopArmed.Load() {
		t.Fatal("backstop armed before any send")
	}
	establish(t, mustConnect(t, d0, c0, 1, 0), c0, c1)
	deadline := time.Now().Add(time.Second)
	for nets[0].backstopArmed.Load() {
		if time.Now().After(deadline) {
			t.Fatal("backstop still armed long after the last flush")
		}
		time.Sleep(backstopDelay)
	}
	if nets[1].backstopArmed.Load() {
		t.Fatal("receive-only rank armed its backstop")
	}
}

// rawDial connects to n's listener claiming to be asRank and completes the
// handshake, returning the raw connection for hand-written frames.
func rawDial(t *testing.T, n *Network, asRank int) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	var hs [helloSize]byte
	binary.LittleEndian.PutUint32(hs[0:], handshakeMagic)
	binary.LittleEndian.PutUint32(hs[4:], uint32(asRank))
	if _, err := conn.Write(hs[:]); err != nil {
		t.Fatal(err)
	}
	var echo [echoSize]byte
	if _, err := io.ReadFull(conn, echo[:]); err != nil {
		t.Fatal(err)
	}
	var off [offsetSize]byte
	if _, err := conn.Write(off[:]); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestHostileFramesCloseTheLink feeds a rank frames that fail validation, once
// with the connection's goroutine reading them (nobody polls until the stream
// has been read) and once with only pollers reading (the goroutine starts
// after they met the bad frame): either way the connection is closed,
// wire_frames_rejected ticks exactly once, and nothing from the bad frame on
// is delivered.
func TestHostileFramesCloseTheLink(t *testing.T) {
	valid := transport.NewPacket(transport.Envelope{Kind: transport.KindEager}, []byte("ok"), nil)
	le := binary.LittleEndian
	// Landed frames for region 1, which hostileStream registers with 16 bytes.
	const kindAt, bodyLenAt = 4 + transport.MuxHeaderSize + 24, transport.LandedPeek - 4
	eagerLanded := landedFrame(0, 1, 1, 1, make([]byte, 16))
	eagerLanded[kindAt] = byte(transport.KindEager)
	pastFrame := landedFrame(0, 1, 1, 1, make([]byte, 16))
	le.PutUint32(pastFrame[bodyLenAt:], le.Uint32(pastFrame)+1)
	fat := transport.NewPacketRaw(transport.Envelope{Kind: transport.KindRendezvousData}, make([]byte, maxLandedHead))
	for _, tc := range []struct {
		name   string
		stream []byte
	}{
		{"length above maxFrame", le.AppendUint32(nil, maxFrame+1)},
		{"length of all ones", le.AppendUint32(nil, 0xFFFFFFFF)},
		{"length below the mux header", le.AppendUint32(nil, transport.MuxHeaderSize-1)},
		{"mux above the cap", valid.AppendMuxFrame(nil, maxMux)},
		{"packet shorter than an envelope", append(le.AppendUint32(le.AppendUint32(nil, 4+8), 0), make([]byte, 8)...)},
		{"landed body longer than its region", landedFrame(0, 1, 1, 1, make([]byte, 17))},
		{"landed body longer than its frame", pastFrame},
		{"landed flag on an eager packet", eagerLanded},
		{"landed head above its limit", fat.AppendLandedFrame(nil, 0, 1, 0)},
	} {
		// A valid frame first: the stream is good until the bad bytes. One
		// more behind them: it must never arrive.
		stream := append(valid.AppendMuxFrame(nil, 0), tc.stream...)
		stream = valid.AppendMuxFrame(stream, 0)
		t.Run(tc.name, func(t *testing.T) {
			t.Run("goroutine reads", func(t *testing.T) { hostileStream(t, stream, false) })
			t.Run("pollers read", func(t *testing.T) { hostileStream(t, stream, true) })
		})
	}
}

// hostileStream is one case of TestHostileFramesCloseTheLink.
func hostileStream(t *testing.T, stream []byte, pollersRead bool) {
	n, d, ctr, ctxs := newRank(t, 0)
	c1 := ctxs[0]
	sink := make([]byte, 16)
	if id := d.RegisterMemory(sink).ID(); id != 1 {
		t.Fatalf("the rank's first region got id %d, the landed frames name 1", id)
	}
	defer func() {
		if !bytes.Equal(sink, make([]byte, 16)) {
			t.Errorf("a rejected landed frame wrote %x into its region", sink)
		}
	}()
	var conn net.Conn
	if pollersRead {
		var lk *link
		conn, lk = pollOnly(t, n)
		if _, err := conn.Write(stream); err != nil {
			t.Fatal(err)
		}
		if e := poll1(t, c1); string(e.Packet.Payload) != "ok" {
			t.Fatalf("valid frame ahead of the bad one corrupted: %q", e.Packet.Payload)
		}
		for i := 0; i < 100; i++ {
			if got := c1.Poll(func(transport.CQE) {}, 8); got != 0 {
				t.Fatalf("%d frames delivered from behind the bad one", got)
			}
		}
		attendLater(n, lk)
	} else {
		conn = rawDial(t, n, 0)
		if _, err := conn.Write(stream); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); !c1.Pending(); {
			if time.Now().After(deadline) {
				t.Fatal("the goroutine never read the stream")
			}
			time.Sleep(100 * time.Microsecond)
		}
		if e := poll1(t, c1); string(e.Packet.Payload) != "ok" {
			t.Fatalf("valid frame ahead of the bad one corrupted: %q", e.Packet.Payload)
		}
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after hostile frame = %v, want EOF (link closed)", err)
	}
	if got := ctr.Get(spc.WireFramesRejected); got != 1 {
		t.Fatalf("wire_frames_rejected = %d, want 1", got)
	}
	other, name := spc.WireReadsPolled, "goroutine was"
	if pollersRead {
		other, name = spc.WireReadsParked, "pollers were"
	}
	if got := ctr.Get(other); got != 0 {
		t.Fatalf("%v = %d: the %s to read this stream alone", other, got, name)
	}
	if c1.Pending() || c1.Poll(func(transport.CQE) {}, 8) != 0 {
		t.Fatal("a rejected frame was delivered")
	}
}

// rxRegion is the size of newRx's region 1: larger than a window of
// maxLandedHead bytes, so a body that fills it spans several reads.
const rxRegion = 1 << 10

// newRx returns a receive half with no socket under it: run reads r through a
// window-byte window (at least maxLandedHead, if landed frames are to fit)
// with blocking reads — the path of a connection without a raw descriptor —
// and hands every frame step accepts to deliver.
func newRx(r net.Conn, window int, deliver func(mux uint32, p *transport.Packet)) *rxConn {
	// A device with one rxRegion-byte region, id 1, for landed frames to fill.
	dev := &Device{regions: map[uint64]*MemRegion{1: {id: 1, buf: make([]byte, rxRegion)}}}
	return &rxConn{net: &Network{dev: dev}, src: r, buf: make([]byte, window), deliver: func(mux uint32, p *transport.Packet) rxState {
		deliver(mux, p)
		return rxMore
	}}
}

// readAll runs a receive half with the given window over stream, delivered in
// chunk-sized writes through a net.Pipe, and returns the accepted frames
// re-encoded plus the record for inspection.
func readAll(window, chunk int, stream []byte) (frames [][]byte, fr *rxConn, err error) {
	client, server := net.Pipe()
	go func() {
		defer client.Close()
		for len(stream) > 0 {
			n := min(chunk, len(stream))
			if _, err := client.Write(stream[:n]); err != nil {
				return
			}
			stream = stream[n:]
		}
	}()
	fr = newRx(server, window, func(mux uint32, p *transport.Packet) {
		frames = append(frames, p.AppendMuxFrame(nil, mux))
	})
	err = fr.run()
	server.Close()
	return frames, fr, err
}

// TestLandedBodiesSkipTheWindow: landed frames come in runs, so after one the
// reader asks the socket for no more than a landed head. One plain frame and
// then four back-to-back landed frames arrive as one write, through a window
// smaller than a body: the first body may cross the window in bulk, but of
// each one after it the window carries at most maxLandedHead bytes — the rest
// is read from the socket straight into the region.
func TestLandedBodiesSkipTheWindow(t *testing.T) {
	const window, landed = 4 * maxLandedHead, 4
	stream := numbered(0, 0, []byte("ahead"))
	var last []byte
	for i := range landed {
		last = seeded(rxRegion - i) // no two bodies alike
		stream = append(stream, landedFrame(0, 1+i, uint64(i), 1, last)...)
	}
	frames, fr, err := readAll(window, len(stream), stream)
	if err != io.EOF || len(frames) != 1+landed {
		t.Fatalf("read %d frames, then %v; want %d and EOF", len(frames), err, 1+landed)
	}
	if got := fr.net.dev.regions[1].buf[:len(last)]; !bytes.Equal(got, last) {
		t.Fatal("region 1 does not hold the last body")
	}
	if bound := window + (landed-1)*maxLandedHead; fr.windowed > bound {
		t.Fatalf("the window carried %d body bytes, want at most %d: a %d-byte window for the first body, %d for each after it",
			fr.windowed, bound, window, maxLandedHead)
	}
}

// FuzzReadFrames feeds the frame reader arbitrary bytes in arbitrary write
// sizes, through a window of maxLandedHead bytes and one of 4096. It must
// never panic. Frames that fit both windows are accepted identically and land
// the same bytes; the small window ends its stream with errBadFrame at the
// first plain frame above it. Every frame accepted must round-trip
// AppendMuxFrame. A landed frame is delivered as the plain packet behind its
// body, or not at all when its region (anything but newRx's region 1) is
// unknown.
func FuzzReadFrames(f *testing.F) {
	pkt := func(payload int, traced bool) *transport.Packet {
		p := transport.NewPacket(transport.Envelope{Src: 1, Dst: 2, Tag: 3, Comm: 4, Seq: 5, Kind: transport.KindEager}, make([]byte, payload), nil)
		p.Meta = &transport.Meta{RelSeq: 9, RelSrc: 1, Stamp: 77}
		if traced {
			p.Meta.TraceID, p.Meta.Origin = 0xABCDEF, 1
		}
		return p
	}
	var valid []byte
	valid = pkt(0, false).AppendMuxFrame(valid, 0)
	valid = pkt(300, true).AppendMuxFrame(valid, 7) // above a 128-byte window
	valid = pkt(9, false).AppendMuxFrame(valid, maxMux-1)
	le := binary.LittleEndian
	f.Add(valid, uint8(255))
	f.Add(valid, uint8(0))
	f.Add(valid[:len(valid)-5], uint8(13))                                 // truncated mid-frame
	f.Add(valid[:2], uint8(1))                                             // truncated mid-length
	f.Add(append(le.AppendUint32(nil, 0xFFFFFFFF), valid...), uint8(64))   // length of all ones
	f.Add(append(le.AppendUint32(nil, maxFrame+1), valid...), uint8(64))   // just above the cap
	f.Add(append(le.AppendUint32(nil, 2), valid...), uint8(64))            // below the mux header
	f.Add(append(valid[:60:60], le.AppendUint32(nil, 1<<20)...), uint8(3)) // good frame, then a length that never arrives
	f.Add(pkt(0, false).AppendMuxFrame(nil, maxMux), uint8(8))             // mux above the cap
	between := func(frame []byte) []byte {                                 // a landed frame with plain frames around it
		return append(append(valid[:56:56], frame...), valid...)
	}
	f.Add(between(landedFrame(3, 0, 7, 1, seeded(rxRegion))), uint8(5))    // lands in region 1, to the last byte
	f.Add(between(landedFrame(3, 0, 7, 1, seeded(rxRegion+1))), uint8(70)) // one byte more than the region holds
	f.Add(between(landedFrame(3, 0, 7, 2, seeded(500))), uint8(9))         // a region nobody registered: drained and dropped
	flagged := landedFrame(3, 0, 7, 1, seeded(8))
	flagged[4+transport.MuxHeaderSize+24] = byte(transport.KindRendezvousACK)
	f.Add(between(flagged), uint8(200)) // the landed flag on another kind
	// Back-to-back landed frames, then a landed frame followed by plain frames.
	run := landedFrame(3, 0, 7, 1, seeded(300))
	run = append(run, landedFrame(3, 1, 8, 1, seeded(rxRegion))...)
	run = append(run, landedFrame(3, 2, 9, 1, seeded(5))...)
	f.Add(run, uint8(255))
	f.Add(append(landedFrame(3, 0, 7, 1, seeded(200)), valid...), uint8(99))
	f.Fuzz(func(t *testing.T, stream []byte, chunk uint8) {
		small, fr, errSmall := readAll(maxLandedHead, int(chunk)+1, stream)
		large, frLarge, errLarge := readAll(4096, int(chunk)+1, stream)
		if len(small) > len(large) {
			t.Fatalf("window %d accepted %d frames, window 4096 only %d", maxLandedHead, len(small), len(large))
		}
		// skip steps over the landed frames for an unknown region at
		// stream[at:], which both readers consume undelivered.
		skip := func(at int) int {
			for {
				rest := stream[at:]
				if len(rest) < transport.LandedPeek {
					return at
				}
				region, _, landed := transport.PeekLanded(rest)
				if end := at + 4 + int(le.Uint32(rest)); landed && region != 1 && end <= len(stream) {
					at = end
					continue
				}
				return at
			}
		}
		// consumed walks the stream frame by frame alongside the large
		// window's deliveries; cutAt is where the small window stopped.
		consumed, cutAt := 0, -1
		for i, frame := range large {
			consumed = skip(consumed)
			if i >= len(small) {
				if i == len(small) {
					cutAt = consumed
				}
			} else if !bytes.Equal(frame, small[i]) {
				t.Fatalf("frame %d differs between window sizes", i)
			}
			// The re-encoded frame is canonical: reading it back and encoding
			// again reproduces it byte for byte.
			again, _, _ := readAll(4096, len(frame), frame)
			if len(again) != 1 || !bytes.Equal(again[0], frame) {
				t.Fatalf("frame %d does not round-trip AppendMuxFrame", i)
			}
			if !bytes.Equal(frame[4:8], stream[consumed+4:consumed+8]) {
				t.Fatalf("frame %d delivered to mux %d, sent to %d", i, le.Uint32(frame[4:]), le.Uint32(stream[consumed+4:]))
			}
			if consumed += 4 + int(le.Uint32(stream[consumed:])); consumed > len(stream) {
				t.Fatalf("accepted %d bytes of frames from a %d-byte stream", consumed, len(stream))
			}
		}
		if cutAt < 0 {
			cutAt = skip(consumed)
		}
		// The small window stops at a plain frame it cannot hold once it has
		// maxLandedHead bytes of it: enough to tell it is not landed.
		above := false
		if rest := stream[cutAt:]; len(rest) >= maxLandedHead {
			flen := int(le.Uint32(rest))
			_, _, landed := transport.PeekLanded(rest)
			above = !landed && flen >= transport.MuxHeaderSize && flen <= maxFrame && 4+flen > maxLandedHead
		}
		if above {
			if errSmall != errBadFrame {
				t.Fatalf("window %d met a frame above it after %d frames and ended with %v, want errBadFrame", maxLandedHead, len(small), errSmall)
			}
			return
		}
		if len(small) != len(large) || (errSmall == errBadFrame) != (errLarge == errBadFrame) {
			t.Fatalf("window %d: %d frames, %v; window 4096: %d frames, %v", maxLandedHead, len(small), errSmall, len(large), errLarge)
		}
		if a, b := fr.net.dev.regions[1].buf, frLarge.net.dev.regions[1].buf; !bytes.Equal(a, b) {
			t.Fatalf("region 1 holds %x behind a %d-byte window, %x behind 4096 bytes", a, maxLandedHead, b)
		}
	})
}

// TestFrameReaderSlabPacketsStayDistinct: small frames decode into packets
// carved from shared slabs, larger ones into packets of their own. Holding
// every delivered pointer while the reader moves three slabs on, each packet
// must still be its own — right envelope, right payload, no two the same —
// and no frame above slabMaxFrame may have taken a slab entry.
func TestFrameReaderSlabPacketsStayDistinct(t *testing.T) {
	const small = 200 // > 3 slabs
	bigAt := map[int]int{10: slabMaxFrame + 1, 70: 5000, 130: 8 << 10, 199: 600}
	payload := func(i, n int) []byte {
		b := make([]byte, n)
		for k := range b {
			b[k] = byte(i + k)
		}
		return b
	}
	var stream []byte
	var want [][]byte // payload per delivered frame, in order
	frame := func(seq, n int) {
		env := transport.Envelope{Src: 1, Dst: 0, Tag: int32(seq % 7), Comm: 4, Seq: uint32(seq), Kind: transport.KindEager}
		p := transport.NewPacket(env, payload(seq, n), nil)
		stream = p.AppendMuxFrame(stream, uint32(seq%3))
		want = append(want, p.Payload)
	}
	for i := 0; i < small; i++ {
		frame(i, i%40)
		if n, ok := bigAt[i]; ok {
			frame(1000+i, n)
		}
	}

	client, server := net.Pipe()
	go func() {
		defer client.Close()
		client.Write(stream)
	}()
	var fr *rxConn
	var kept []*transport.Packet
	var slabLeft []int // len(fr.slab) after each delivery's packet was taken
	fr = newRx(server, 16<<10, func(mux uint32, p *transport.Packet) {
		if want := p.Envelope().Seq % 3; mux != want {
			t.Errorf("frame %d delivered to mux %d, sent to %d", len(kept), mux, want)
		}
		kept = append(kept, p)
		slabLeft = append(slabLeft, len(fr.slab))
	})
	err := fr.run()
	server.Close()
	if err != io.EOF || len(kept) != len(want) {
		t.Fatalf("run = %v with %d frames delivered, want EOF and %d", err, len(kept), len(want))
	}

	seen := make(map[*transport.Packet]int, len(kept))
	smallSeen, left := 0, 0
	for i, p := range kept {
		if j, dup := seen[p]; dup {
			t.Fatalf("frames %d and %d were delivered in the same packet", j, i)
		}
		seen[p] = i
		env := p.Envelope()
		big := env.Seq >= 1000
		if !big {
			if int(env.Seq) != smallSeen {
				t.Fatalf("frame %d carries seq %d, want %d", i, env.Seq, smallSeen)
			}
			smallSeen++
			// A small frame takes the next entry of the current slab.
			if left--; left < 0 {
				left = slabPackets - 1
			}
		}
		if env.Tag != int32(env.Seq%7) || int(env.Len) != len(want[i]) || !bytes.Equal(p.Payload, want[i]) {
			t.Fatalf("frame %d (seq %d, %d bytes) damaged while later frames decoded: env %v, %d payload bytes", i, env.Seq, len(want[i]), env, len(p.Payload))
		}
		if slabLeft[i] != left {
			t.Fatalf("frame %d (big=%v, %d bytes): %d slab entries left after it, want %d", i, big, len(want[i]), slabLeft[i], left)
		}
	}
	if smallSeen != small {
		t.Fatalf("%d small frames delivered, want %d", smallSeen, small)
	}
}

// TestRejectedFrameDeliversNothing: a frame the packet decoder refuses ends
// the stream with errBadFrame. The good frames ahead of it in the same burst
// arrive whole; the refused one and everything after it are never delivered.
func TestRejectedFrameDeliversNothing(t *testing.T) {
	le := binary.LittleEndian
	good := func(seq int) []byte {
		env := transport.Envelope{Src: 1, Tag: 5, Seq: uint32(seq), Kind: transport.KindEager}
		return transport.NewPacket(env, []byte{byte(seq), 0xEE}, nil).AppendMuxFrame(nil, 0)
	}
	traced := transport.NewPacket(transport.Envelope{Kind: transport.KindEager}, []byte("x"), nil)
	traced.Meta = &transport.Meta{TraceID: 0xABCDEF, Origin: 1}
	noID := traced.AppendMuxFrame(nil, 0)
	// The trace id is the first 8 bytes of the extension, right after the
	// length prefix, the mux header and the envelope.
	clear(noID[4+transport.MuxHeaderSize+transport.EnvelopeSize:][:8])
	// An envelope followed by 10 bytes where 20 bytes of metadata belong.
	shortMeta := le.AppendUint32(nil, uint32(transport.MuxHeaderSize+transport.EnvelopeSize+10))
	shortMeta = append(shortMeta, good(0)[4:][:transport.MuxHeaderSize+transport.EnvelopeSize+10]...)

	for _, tc := range []struct {
		name string
		bad  []byte
	}{
		{"traced flag without a trace id", noID},
		{"short driver metadata", shortMeta},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stream []byte
			for seq := 0; seq < 3; seq++ {
				stream = append(stream, good(seq)...)
			}
			stream = append(stream, tc.bad...)
			stream = append(stream, good(3)...)
			client, server := net.Pipe()
			go func() {
				defer client.Close()
				client.Write(stream) // one burst: every frame is in the window at once
			}()
			var got []*transport.Packet
			err := newRx(server, 4096, func(_ uint32, p *transport.Packet) {
				got = append(got, p)
			}).run()
			server.Close()
			if err != errBadFrame {
				t.Fatalf("run = %v, want errBadFrame", err)
			}
			if len(got) != 3 {
				t.Fatalf("%d frames delivered, want the 3 good ones ahead of the bad frame", len(got))
			}
			for seq, p := range got {
				if env := p.Envelope(); int(env.Seq) != seq || env.Tag != 5 || !bytes.Equal(p.Payload, []byte{byte(seq), 0xEE}) {
					t.Fatalf("good frame %d damaged: env %v payload %x", seq, env, p.Payload)
				}
			}
		})
	}
}

// pinAllocs fails when f allocates more than pinned times per run and logs
// the row `make allocs` collects into its table.
func pinAllocs(t *testing.T, path string, pinned float64, f func()) {
	t.Helper()
	got := testing.AllocsPerRun(200, f)
	t.Logf("allocs-pin | %-46s | %5.2f | %5.2f", path, got, pinned)
	if got > pinned {
		t.Errorf("%s allocates %v times per op, pinned at %v", path, got, pinned)
	}
}

// TestSuccessfulFlushAllocatesNothing: buffering a frame and the flush that
// the sender's next Poll makes allocate nothing once the pending buffers have
// grown (the write error used to escape on every flush).
func TestSuccessfulFlushAllocatesNothing(t *testing.T) {
	_, d0, d1, ctr := newCountedPair(t)
	c0, c1 := mustContext(t, d0), mustContext(t, d1)
	ep := mustConnect(t, d0, c0, 1, 0)
	establish(t, ep, c0, c1)
	pkt := transport.NewPacket(transport.Envelope{Src: 0, Dst: 1, Kind: transport.KindEager}, nil, nil)
	nop := func(transport.CQE) {}
	before := ctr.Get(spc.WireFlushes)
	pinAllocs(t, "tcpnet Send + Poll (successful flush)", 0, func() {
		if err := ep.Send(pkt); err != nil {
			t.Fatal(err)
		}
		c0.Poll(nop, 0)
		// Keep the receive ring drained. Whatever the reader goroutine decodes
		// meanwhile costs one slab per slabPackets of these empty frames.
		c1.Poll(nop, 0)
	})
	if flushed := ctr.Get(spc.WireFlushes) - before; flushed < 200 {
		t.Fatalf("%d flushes over 201 sends: the measured path did not flush", flushed)
	}
	if n := ctr.Get(spc.WireFlushFailures); n != 0 {
		t.Fatalf("%d flushes failed", n)
	}
}
