package tcpnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/spc"
	"repro/internal/transport"
)

// Tests of the read side's two callers: the progress engine reading the
// socket inside Context.Poll, and the connection's goroutine behind it.

// newRank returns rank 1 of a two-rank loopback world with its counters and
// one context per depth given; rank 0 is left to the test to play by hand.
func newRank(t *testing.T, depths ...int) (*Network, transport.Device, *spc.Set, []transport.Context) {
	t.Helper()
	nets, err := NewLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	ctr := spc.NewSet()
	d, err := nets[1].NewDevice(1, hw.Fast(), transport.DeviceConfig{Counters: ctr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close(); nets[0].close() })
	ctxs := make([]transport.Context, len(depths))
	for i, depth := range depths {
		if ctxs[i], err = d.CreateContext(depth); err != nil {
			t.Fatal(err)
		}
	}
	return nets[1], d, ctr, ctxs
}

// pollOnly gives n an armed inbound connection from rank 0 with no reader
// goroutine behind it, so only Context.Poll reads it — the state of a
// connection whose goroutine the scheduler has not run yet, held for as long
// as the test likes. It returns the peer's end and the link.
func pollOnly(t *testing.T, n *Network) (net.Conn, *link) {
	t.Helper()
	if !rawReads {
		t.Skip("no raw non-blocking read on this platform: the goroutine reads alone")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peer, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	lk := n.register(conn)
	if lk == nil {
		t.Fatal("network already closed")
	}
	n.arm(lk, 0)
	return peer, lk
}

// attendLater starts the goroutine pollOnly held back.
func attendLater(n *Network, lk *link) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.attend(lk)
	}()
}

// numbered is frame seq of a stream toward context mux.
func numbered(mux uint32, seq int, payload []byte) []byte {
	env := transport.Envelope{Src: 0, Dst: 1, Tag: int32(mux), Seq: uint32(seq), Kind: transport.KindEager}
	return transport.NewPacket(env, payload, nil).AppendMuxFrame(nil, mux)
}

// TestPollersAndGoroutineDeliverOnceInOrder: four threads hammer Poll on two
// contexts (one at a time per context, as under the CRI lock) while a peer
// streams numbered frames across both mux IDs and the connection's goroutine
// races the pollers for the socket. Every frame arrives exactly once, in
// order per context, whoever read it.
func TestPollersAndGoroutineDeliverOnceInOrder(t *testing.T) {
	const total = 50000
	n, _, ctr, ctxs := newRank(t, 0, 0)
	conn := rawDial(t, n, 0)
	go func() {
		var batch []byte
		for seq := 0; seq < total; seq++ {
			batch = append(batch, numbered(uint32(seq%2), seq/2, nil)...)
			if seq%97 == 96 || seq == total-1 { // bursts of uneven size
				if _, err := conn.Write(batch); err != nil {
					t.Error(err)
					return
				}
				batch = batch[:0]
			}
		}
	}()

	var criLock [2]sync.Mutex
	var next [2]uint32 // guarded by criLock
	var got atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(60 * time.Second)
	for th := 0; th < 4; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := th; got.Load() < total && !t.Failed(); i++ {
				k := i % 2
				if !criLock[k].TryLock() {
					continue
				}
				ctxs[k].Poll(func(e transport.CQE) {
					env := e.Packet.Envelope()
					if env.Tag != int32(k) || env.Seq != next[k] {
						t.Errorf("context %d got tag %d seq %d, want seq %d", k, env.Tag, env.Seq, next[k])
					}
					next[k]++
					got.Add(1)
				}, 16)
				criLock[k].Unlock()
				if i%1024 == 0 && time.Now().After(deadline) {
					t.Errorf("received %d of %d frames", got.Load(), total)
					return
				}
			}
		}(th)
	}
	wg.Wait()
	time.Sleep(2 * time.Millisecond)
	for k, c := range ctxs {
		if extra := c.Poll(func(transport.CQE) {}, 64); extra != 0 {
			t.Errorf("context %d received %d frames beyond the %d sent", k, extra, total/2)
		}
	}
	t.Logf("reads that returned bytes: %d polled, %d parked", ctr.Get(spc.WireReadsPolled), ctr.Get(spc.WireReadsParked))
	if ctr.Get(spc.WireReadsPolled)+ctr.Get(spc.WireReadsParked) == 0 {
		t.Error("neither read counter ticked")
	}
}

// TestFullRingStopsThePoller: a depth-8 ring fed 1 000 frames through pollers
// alone. A poller that finds the ring full keeps the frame in the record and
// returns — it never sleeps the way the goroutine does — and the next step
// delivers the kept frame first: nothing lost, order kept, every Poll short.
func TestFullRingStopsThePoller(t *testing.T) {
	const total = 1000
	n, _, ctr, ctxs := newRank(t, 8)
	peer, _ := pollOnly(t, n)
	var stream []byte
	for seq := 0; seq < total; seq++ {
		stream = append(stream, numbered(0, seq, []byte{byte(seq)})...)
	}
	if _, err := peer.Write(stream); err != nil {
		t.Fatal(err)
	}
	var slowest time.Duration
	next, deadline := 0, time.Now().Add(30*time.Second)
	for next < total {
		t0 := time.Now()
		ctxs[0].Poll(func(e transport.CQE) {
			if seq := int(e.Packet.Envelope().Seq); seq != next || e.Packet.Payload[0] != byte(seq) {
				t.Fatalf("got seq %d payload %v, want seq %d", seq, e.Packet.Payload, next)
			}
			next++
		}, 3) // slower than the wire: the ring stays full
		if d := time.Since(t0); d > slowest {
			slowest = d
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d frames", next, total)
		}
	}
	if slowest > time.Second {
		t.Errorf("a Poll took %v: the poller waited for ring room", slowest)
	}
	if waits := ctr.Get(spc.RingFullWaits); waits != 0 {
		t.Errorf("ring_full_waits = %d with no goroutine running: a poller slept", waits)
	}
	if parked := ctr.Get(spc.WireReadsParked); parked != 0 {
		t.Errorf("wire_reads_parked = %d with no goroutine running", parked)
	}
}

// TestClosedLinkDeliversWhatItRead: a link closed under the runtime (a
// dial-race handover, a failed write) while its record still holds frames it
// had read — one kept for a full ring, more behind it in the window — loses
// none of them: closing stops the reads, not the delivery.
func TestClosedLinkDeliversWhatItRead(t *testing.T) {
	const total = 40
	for _, who := range []string{"pollers", "goroutine"} {
		t.Run(who, func(t *testing.T) {
			n, _, _, ctxs := newRank(t, 8)
			peer, lk := pollOnly(t, n)
			var stream []byte
			for seq := 0; seq < total; seq++ {
				stream = append(stream, numbered(0, seq, nil)...)
			}
			if _, err := peer.Write(stream); err != nil {
				t.Fatal(err)
			}
			next := 0
			handler := func(e transport.CQE) {
				if seq := int(e.Packet.Envelope().Seq); seq != next {
					t.Fatalf("got seq %d, want %d", seq, next)
				}
				next++
			}
			for next == 0 { // the first read fills the ring and keeps a frame
				ctxs[0].Poll(handler, 1)
			}
			lk.rx.mu.Lock()
			kept := lk.rx.held != nil
			lk.rx.mu.Unlock()
			if !kept {
				t.Fatal("the record keeps no frame: the ring did not fill")
			}
			lk.close()
			if who == "goroutine" {
				attendLater(n, lk)
			}
			for deadline := time.Now().Add(10 * time.Second); next < total; {
				if who == "pollers" || ctxs[0].Pending() {
					ctxs[0].Poll(handler, 4)
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d frames arrived after the link was closed", next, total)
				}
			}
		})
	}
}

// TestOneContextPollsAConnection: a connection is read by one context's
// passes only (peer index modulo the context count), so an idle sweep over k
// contexts costs one read per connection, not k — and a frame for any context
// arrives through that one.
func TestOneContextPollsAConnection(t *testing.T) {
	n, _, ctr, ctxs := newRank(t, 0, 0, 0, 0)
	peer, _ := pollOnly(t, n) // from rank 0: context 0 owns it
	if _, err := peer.Write(numbered(2, 0, []byte("for two"))); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond) // the bytes are in the socket
	for i := 0; i < 100; i++ {
		for k, c := range ctxs[1:] {
			if got := c.Poll(func(transport.CQE) {}, 8); got != 0 {
				t.Fatalf("context %d received a frame through a connection it does not poll", k+1)
			}
		}
	}
	if reads := ctr.Get(spc.WireReadsPolled); reads != 0 {
		t.Fatalf("wire_reads_polled = %d after passes of contexts 1-3 only", reads)
	}
	for deadline := time.Now().Add(5 * time.Second); !ctxs[2].Pending(); {
		if got := ctxs[0].Poll(func(transport.CQE) {}, 8); got != 0 {
			t.Fatalf("context 0 handled %d events: the frame was for context 2", got)
		}
		if time.Now().After(deadline) {
			t.Fatal("context 0's passes never read the connection")
		}
	}
	if e := poll1(t, ctxs[2]); string(e.Packet.Payload) != "for two" {
		t.Fatalf("context 2 got %q", e.Packet.Payload)
	}
	if reads := ctr.Get(spc.WireReadsPolled); reads != 1 {
		t.Fatalf("wire_reads_polled = %d, want the one read context 0 made", reads)
	}
}

// TestPollerNeverWaitsForAContext: the peer's first frame names a context
// that does not exist yet. A poller keeps the frame and returns at once, pass
// after pass — waiting out that startup race is the goroutine's job — and the
// frame, with the one behind it, arrives once the context exists.
func TestPollerNeverWaitsForAContext(t *testing.T) {
	n, d, _, ctxs := newRank(t, 0)
	peer, lk := pollOnly(t, n)
	if _, err := peer.Write(append(numbered(1, 0, []byte("early")), numbered(0, 0, []byte("behind"))...)); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	for held := false; !held; {
		if got := ctxs[0].Poll(func(transport.CQE) {}, 8); got != 0 {
			t.Fatalf("context 0 received %d frames from behind one that is still kept", got)
		}
		lk.rx.mu.Lock()
		held = lk.rx.held != nil
		lk.rx.mu.Unlock()
		if time.Since(t0) > 5*time.Second {
			t.Fatal("the early frame never reached the record")
		}
	}
	for i := 0; i < 1000; i++ {
		ctxs[0].Poll(func(transport.CQE) {}, 8)
	}
	if d := time.Since(t0); d > n.cfg.DialTimeout/2 {
		t.Fatalf("1000 passes over a kept frame took %v: a poller waited for the context", d)
	}
	late := mustContext(t, d)
	if e := poll1(t, ctxs[0]); string(e.Packet.Payload) != "behind" {
		t.Fatalf("context 0 got %q", e.Packet.Payload)
	}
	if e := poll1(t, late); string(e.Packet.Payload) != "early" {
		t.Fatalf("the late context got %q", e.Packet.Payload)
	}
}

// TestGoroutineWaitsForAContext is the other half: with only the goroutine
// reading (nobody polls until the frame is there), the early frame waits in
// waitContext and arrives once the context exists.
func TestGoroutineWaitsForAContext(t *testing.T) {
	n, d, _, _ := newRank(t, 0)
	conn := rawDial(t, n, 0)
	if _, err := conn.Write(numbered(1, 0, []byte("early"))); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // the goroutine is in waitContext by now, or will be
	late := mustContext(t, d)
	for deadline := time.Now().Add(5 * time.Second); !late.Pending(); {
		if time.Now().After(deadline) {
			t.Fatal("the goroutine never delivered the early frame")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if e := poll1(t, late); string(e.Packet.Payload) != "early" {
		t.Fatalf("the late context got %q", e.Packet.Payload)
	}
}

// fdOf returns conn's descriptor number, or false once conn is closed.
func fdOf(conn net.Conn) (uintptr, bool) {
	raw, err := conn.(syscall.Conn).SyscallConn()
	if err != nil {
		return 0, false
	}
	var fd uintptr
	err = raw.Control(func(f uintptr) { fd = f })
	return fd, err == nil
}

// canaryWorld is two ranks with one context each, rank 0 streaming numbered
// frames at rank 1, polled by threads that never stop.
type canaryWorld struct {
	nets []*Network
	devs [2]transport.Device
	ctrs [2]*spc.Set
	ctx  [2]transport.Context
	ep   transport.Endpoint // rank 0 → rank 1
	mu   [2]sync.Mutex      // the CRI lock: one Poll at a time per context
	next uint32             // next seq expected at rank 1, guarded by mu[1]
	sent uint32
}

func openCanaryWorld(t *testing.T) *canaryWorld {
	t.Helper()
	w := &canaryWorld{}
	var err error
	if w.nets, err = NewLoopback(2); err != nil {
		t.Fatal(err)
	}
	for r := range w.devs {
		w.ctrs[r] = spc.NewSet()
		if w.devs[r], err = w.nets[r].NewDevice(r, hw.Fast(), transport.DeviceConfig{Counters: w.ctrs[r]}); err != nil {
			t.Fatal(err)
		}
		w.ctx[r] = mustContext(t, w.devs[r])
	}
	w.ep = mustConnect(t, w.devs[0], w.ctx[0], 1, 0)
	return w
}

// poll is one pass on rank r's context, from any thread.
func (w *canaryWorld) poll(t *testing.T, r int) {
	if !w.mu[r].TryLock() {
		return
	}
	defer w.mu[r].Unlock()
	w.ctx[r].Poll(func(e transport.CQE) {
		switch {
		case e.Kind != transport.CQERecv:
		case r == 0:
			t.Errorf("rank 0 received a frame nobody sent: %+v", e.Packet.Envelope())
		case e.Packet.Envelope().Seq != w.next:
			t.Errorf("rank 1 got seq %d, want %d", e.Packet.Envelope().Seq, w.next)
		default:
			w.next++
		}
	}, 64)
}

// stream sends a burst from rank 0 and waits until rank 1 has all of it.
func (w *canaryWorld) stream(t *testing.T) {
	t.Helper()
	for i := 0; i < 20; i++ {
		env := transport.Envelope{Src: 0, Dst: 1, Seq: w.sent, Kind: transport.KindEager}
		if err := w.ep.Send(transport.NewPacket(env, nil, nil)); err != nil {
			t.Fatal(err)
		}
		w.sent++
	}
	for deadline := time.Now().Add(10 * time.Second); !t.Failed(); {
		w.mu[1].Lock()
		got := w.next
		w.mu[1].Unlock()
		if got == w.sent {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank 1 has %d of %d frames", got, w.sent)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// link returns rank r's current link toward the other rank.
func (w *canaryWorld) link(r int) *link {
	s := &w.nets[r].slots[1-r]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.link
}

func (w *canaryWorld) shut() (rejected int64) {
	w.devs[0].Close()
	w.devs[1].Close()
	return w.ctrs[0].Get(spc.WireFramesRejected) + w.ctrs[1].Get(spc.WireFramesRejected)
}

// TestNoReadOnARecycledDescriptor is the canary for the descriptor lifetime
// rule. Pollers read raw descriptor numbers, and the kernel hands a closed
// number to the next socket opened. 500 times over a link carries a stream and
// is then closed while pollers spin on both ranks — by a failed write
// (writeOut) and the handover that follows it (adopt), by a handover alone, by
// shutdown (Network.close) — and the test opens sockets until one gets a
// closed link's number and has its peer write a marker to it. A poller still
// reading through the dead record would take marker bytes: every one must
// still be there, the stream must arrive exactly once and in order on the
// links that replace the closed ones (which recycle numbers too), and no
// decoder may have seen bytes that were no frame.
func TestNoReadOnARecycledDescriptor(t *testing.T) {
	if !rawReads {
		t.Skip("no raw non-blocking read on this platform")
	}
	const cycles = 500
	marker := bytes.Repeat([]byte{0xA5}, 512) // read as a frame length: far above maxFrame
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var cur atomic.Pointer[canaryWorld]
	w := openCanaryWorld(t)
	cur.Store(w)
	stop := make(chan struct{})
	var spinners sync.WaitGroup
	for r := 0; r < 2; r++ {
		spinners.Add(1)
		go func(r int) {
			defer spinners.Done()
			for {
				select {
				case <-stop:
					return
				default:
					cur.Load().poll(t, r)
					runtime.Gosched() // as Wait does between passes
				}
			}
		}(r)
	}
	var rejected int64
	defer func() {
		close(stop)
		spinners.Wait()
		if rejected += cur.Load().shut(); rejected != 0 {
			t.Errorf("wire_frames_rejected = %d: bytes that were no frame reached a decoder", rejected)
		}
	}()

	hits := 0
	for cycle := 0; cycle < cycles && !t.Failed(); cycle++ {
		w.stream(t)
		closing := []*link{w.link(0), w.link(1)}
		switch cycle % 3 {
		case 0:
			// The wire fails under rank 0: its next flush closes the link in
			// writeOut and re-dials, and rank 1 closes its end when it adopts
			// the new connection.
			sever(t, w.nets[0], 1)
			w.stream(t)
		case 1:
			// Rank 0 gives its link up without closing it and dials again (a
			// lost dial race): only rank 1 closes, in adopt.
			closing[0].broken.Store(true)
			closing = closing[1:]
			w.stream(t)
		case 2:
			rejected += w.shut()
			w = openCanaryWorld(t)
			cur.Store(w)
		}
		freed := make(map[uintptr]bool)
		for _, lk := range closing {
			fd := lk.rx.fd // stable since arm; the stream above ran through it
			for deadline := time.Now().Add(5 * time.Second); ; {
				if _, open := fdOf(lk.rx.src); !open {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("cycle %d: link on descriptor %d was never closed", cycle, fd)
				}
				time.Sleep(20 * time.Microsecond)
			}
			freed[fd] = true
		}
		// The spinners pass over the closed records a few more times; a read
		// through one now fails with EBADF, or finds another socket's bytes.
		time.Sleep(50 * time.Microsecond)
		for _, lk := range closing {
			lk.rx.mu.Lock()
			err := lk.rx.err
			lk.rx.mu.Unlock()
			if errors.Is(err, syscall.EBADF) {
				t.Fatalf("cycle %d: a poller read descriptor %d after it was closed", cycle, lk.rx.fd)
			}
		}
		// Take a freed number back and put marker bytes behind it.
		var opened []net.Conn
		for try := 0; try < 8; try++ {
			a, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			b, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			opened = append(opened, a, b)
			fa, _ := fdOf(a)
			fb, _ := fdOf(b)
			victim, writer := a, b
			if !freed[fa] {
				if victim, writer = b, a; !freed[fb] {
					continue
				}
			}
			hits++
			if _, err := writer.Write(marker); err != nil {
				t.Fatal(err)
			}
			time.Sleep(100 * time.Microsecond) // the pollers make hundreds of passes
			got := make([]byte, len(marker))
			victim.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := io.ReadFull(victim, got); err != nil || !bytes.Equal(got, marker) {
				t.Fatalf("cycle %d: marker bytes behind a recycled descriptor were taken (read: %v)", cycle, err)
			}
			break
		}
		for _, c := range opened {
			c.Close()
		}
	}
	t.Logf("%d of %d cycles got a closed link's descriptor number back under the pollers", hits, cycles)
	if hits < cycles/4 {
		t.Errorf("only %d of %d cycles recycled a descriptor number: the canary is not testing", hits, cycles)
	}
}

// TestIdleRankStillDrains: a rank that never calls into the runtime — busy
// computing — still empties its socket, through the connection's goroutine.
// Its peer flushes 8 MiB of eager frames at it, more than the kernel buffers
// between them, and every flush returns inside a deadline.
func TestIdleRankStillDrains(t *testing.T) {
	const frames, size = 1024, 8 << 10
	_, d0, d1, _ := newCountedPair(t)
	c0 := mustContext(t, d0)
	c1, err := d1.CreateContext(2 * frames) // the ring holds everything: nobody polls
	if err != nil {
		t.Fatal(err)
	}
	ep := mustConnect(t, d0, c0, 1, 0)
	payload := make([]byte, size)
	for seq := 0; seq < frames; seq++ {
		env := transport.Envelope{Src: 0, Dst: 1, Seq: uint32(seq), Kind: transport.KindEager}
		t0 := time.Now()
		if err := ep.Send(transport.NewPacket(env, payload, nil)); err != nil { // crosses flushBytes: written inline
			t.Fatal(err)
		}
		if d := time.Since(t0); d > 10*time.Second {
			t.Fatalf("flush %d took %v against a peer that never progresses", seq, d)
		}
		c0.Poll(func(transport.CQE) {}, 8)
	}
	for seq := 0; seq < frames; seq++ {
		if e := poll1(t, c1); int(e.Packet.Envelope().Seq) != seq || len(e.Packet.Payload) != size {
			t.Fatalf("frame %d: got seq %d with %d bytes", seq, e.Packet.Envelope().Seq, len(e.Packet.Payload))
		}
	}
}

// TestFlushAgainstFlushCompletes: two ranks each push 4 MiB of 8 KiB frames at
// the other inline, neither progressing until its own sends have returned.
// Writes block when the kernel buffers fill, so only the goroutines can drain
// the sockets; both ranks must get through.
func TestFlushAgainstFlushCompletes(t *testing.T) {
	const frames, size = 512, 8 << 10
	_, d0, d1, _ := newCountedPair(t)
	devs := [2]transport.Device{d0, d1}
	var ctxs [2]transport.Context
	var eps [2]transport.Endpoint
	for r := range devs {
		c, err := devs[r].CreateContext(2 * frames)
		if err != nil {
			t.Fatal(err)
		}
		ctxs[r] = c
	}
	for r := range devs {
		eps[r] = mustConnect(t, devs[r], ctxs[r], 1-r, 0)
	}
	// One connection before the two-way traffic: racing first dials may split
	// a stream across the losing and the winning connection.
	establish(t, eps[0], ctxs[0], ctxs[1])
	done := make(chan int, 2)
	for r := range devs {
		go func(r int) {
			payload := make([]byte, size)
			for seq := 0; seq < frames; seq++ {
				env := transport.Envelope{Src: int32(r), Dst: int32(1 - r), Seq: uint32(seq), Kind: transport.KindEager}
				if err := eps[r].Send(transport.NewPacket(env, payload, nil)); err != nil {
					t.Error(err)
					break
				}
			}
			done <- r
		}(r)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("two ranks flushing at each other deadlocked")
		}
	}
	for r, c := range ctxs {
		for seq := 0; seq < frames; {
			e := poll1(t, c)
			if e.Kind != transport.CQERecv {
				continue
			}
			if int(e.Packet.Envelope().Seq) != seq || len(e.Packet.Payload) != size {
				t.Fatalf("rank %d frame %d: got seq %d with %d bytes", r, seq, e.Packet.Envelope().Seq, len(e.Packet.Payload))
			}
			seq++
		}
	}
}

// TestIdlePollAllocatesNothing: a pass that finds its rings empty and the
// socket of a live connection empty (EAGAIN) allocates nothing.
func TestIdlePollAllocatesNothing(t *testing.T) {
	if !rawReads {
		t.Skip("no raw non-blocking read on this platform")
	}
	_, d0, d1, _ := newCountedPair(t)
	c0, c1 := mustContext(t, d0), mustContext(t, d1)
	establish(t, mustConnect(t, d0, c0, 1, 0), c0, c1)
	nop := func(transport.CQE) {}
	pinAllocs(t, "tcpnet idle Poll, live connection", 0, func() {
		c0.Poll(nop, 0)
		c1.Poll(nop, 0)
	})
}

// landedFrame is the wire form of a landed frame toward context mux: the FIN
// of transfer id (seq numbers it within its stream) and, behind it, body for
// the receiver's region.
func landedFrame(mux uint32, seq int, id, region uint64, body []byte) []byte {
	env := transport.Envelope{Src: 0, Dst: 1, Tag: int32(mux), Seq: uint32(seq), Kind: transport.KindRendezvousData}
	fin := transport.NewPacketRaw(env, binary.LittleEndian.AppendUint64(nil, id))
	return append(fin.AppendLandedFrame(nil, mux, region, len(body)), body...)
}

// seeded is n bytes no two offsets of which look alike for long.
func seeded(n int) []byte {
	b := make([]byte, n)
	x := uint32(n)*2654435761 + 1
	for i := range b {
		x = x*1664525 + 1013904223
		b[i] = byte(x >> 24)
	}
	return b
}

// TestLandedBody lands a seeded body in a registered region under each reader
// alone — the pollers (no goroutine behind the connection) and the goroutine
// (nobody polls until something is queued) — however the stream is cut up:
// the body is in the region, whole, when its FIN is delivered, the FIN keeps
// its place between the plain frames around it, and a frame whose link dies
// between the head and the last body byte delivers nothing.
func TestLandedBody(t *testing.T) {
	const id = 0x1D
	for _, tc := range []struct {
		name  string
		size  int  // body bytes
		chunk int  // the peer writes this many bytes at a time (0: all at once)
		ahead int  // plain frames ahead of the landed one
		depth int  // ring depth (0: the default)
		cut   bool // the link dies half-way through the body
	}{
		{name: "inside one window read", size: 4 << 10, ahead: 2},
		{name: "one byte at a time", size: 300, chunk: 1, ahead: 1},
		{name: "1 MiB, above the window", size: 1 << 20},
		{name: "empty body", size: 0, ahead: 1},
		{name: "ring full when the last byte lands", size: 4 << 10, ahead: 8, depth: 8},
		{name: "link closed mid-body", size: 64 << 10, ahead: 1, cut: true},
	} {
		for _, reader := range []string{"pollers", "goroutine"} {
			t.Run(tc.name+"/"+reader, func(t *testing.T) {
				n, d, _, ctxs := newRank(t, tc.depth)
				c := ctxs[0]
				sink := make([]byte, tc.size+16) // the region may be larger than the body
				region := d.RegisterMemory(sink)
				peer, lk := pollOnly(t, n)
				rx := &lk.rx
				body := seeded(tc.size)
				var stream []byte
				for seq := 0; seq < tc.ahead; seq++ {
					stream = append(stream, numbered(0, seq, nil)...)
				}
				stream = append(stream, landedFrame(0, tc.ahead, id, region.ID(), body)...)
				whole := len(stream)
				stream = append(stream, numbered(0, tc.ahead+1, []byte("behind"))...)
				if tc.cut {
					stream = stream[:whole-tc.size/2]
				}
				wrote := make(chan struct{})
				go func() {
					defer close(wrote)
					for rest := stream; len(rest) > 0; {
						m := len(rest)
						if tc.chunk > 0 {
							m = min(tc.chunk, m)
						}
						if _, err := peer.Write(rest[:m]); err != nil {
							t.Error(err)
							return
						}
						rest = rest[m:]
					}
					if tc.cut {
						peer.Close()
					}
				}()
				if tc.depth > 0 {
					<-wrote
					time.Sleep(2 * time.Millisecond) // one read takes it all: the ring fills under the FIN
				}
				if reader == "goroutine" {
					attendLater(n, lk)
				}
				// next waits for the next delivery. With the goroutine reading,
				// a pass is made only once something is queued and handles one
				// event, so it never reaches the socket itself.
				deadline := time.Now().Add(20 * time.Second)
				next := func() (*transport.Packet, bool) {
					for time.Now().Before(deadline) {
						var got *transport.Packet
						if reader == "pollers" || c.Pending() {
							c.Poll(func(e transport.CQE) { got = e.Packet }, 1)
						}
						rx.mu.Lock()
						ended := rx.err != nil && rx.held == nil
						rx.mu.Unlock()
						if got != nil {
							return got, true
						}
						if ended && !c.Pending() {
							return nil, false
						}
					}
					t.Fatal("the stream neither delivered nor ended")
					return nil, false
				}
				if tc.depth > 0 {
					// Nothing is popped yet: the frames ahead fill the ring and
					// the FIN, its body landed, is what the record keeps.
					var held *transport.Packet
					for held == nil && time.Now().Before(deadline) {
						if reader == "pollers" {
							n.sweep(c.(*Context))
						}
						rx.mu.Lock()
						held = rx.held
						rx.mu.Unlock()
					}
					if held == nil || held.Envelope().Kind != transport.KindRendezvousData || !bytes.Equal(sink[:tc.size], body) {
						t.Fatalf("ring full under the landed frame: the record keeps %v, body landed: %v", held, bytes.Equal(sink[:tc.size], body))
					}
				}
				for seq := 0; seq < tc.ahead; seq++ {
					if p, ok := next(); !ok || p.Envelope().Seq != uint32(seq) || p.Envelope().Kind != transport.KindEager {
						t.Fatalf("plain frame %d ahead of the landed one: got %v, %v", seq, p, ok)
					}
				}
				fin, ok := next()
				if tc.cut {
					if ok {
						t.Fatalf("a frame whose link died mid-body delivered %v", fin.Envelope())
					}
					rx.mu.Lock()
					midair, left := rx.body.pkt != nil, rx.body.left
					rx.mu.Unlock()
					if !midair || left != tc.size/2 {
						t.Fatalf("the record holds a packet in mid-air: %v, owed %d body bytes; want true and %d", midair, left, tc.size/2)
					}
					if !bytes.Equal(sink[:tc.size-left], body[:tc.size-left]) || !bytes.Equal(sink[tc.size-left:], make([]byte, left+16)) {
						t.Fatal("the bytes that did arrive are not the head of the body, or something wrote past them")
					}
					return
				}
				if !ok {
					t.Fatal("the stream ended before the landed frame's packet")
				}
				if env := fin.Envelope(); env.Kind != transport.KindRendezvousData || env.Seq != uint32(tc.ahead) ||
					len(fin.Payload) != 8 || binary.LittleEndian.Uint64(fin.Payload) != id {
					t.Fatalf("packet behind the body: %v with payload %x, want the FIN of transfer %#x with no flag left", env, fin.Payload, id)
				}
				if !bytes.Equal(sink[:tc.size], body) || !bytes.Equal(sink[tc.size:], make([]byte, 16)) {
					t.Fatal("the region does not hold exactly the body when its FIN is delivered")
				}
				if p, ok := next(); !ok || string(p.Payload) != "behind" {
					t.Fatalf("plain frame behind the landed one: got %v, %v", p, ok)
				}
			})
		}
	}
}

// TestLandedFrameForAGoneRegion: the receive was torn down while its data was
// on the way. The body is read off the stream and dropped with its packet,
// late_packets ticks once, and the connection carries on.
func TestLandedFrameForAGoneRegion(t *testing.T) {
	n, d, ctr, ctxs := newRank(t, 0)
	gone := d.RegisterMemory(make([]byte, 1<<20))
	d.DeregisterMemory(gone)
	peer, _ := pollOnly(t, n)
	stream := landedFrame(0, 0, 1, gone.ID(), seeded(1<<20)) // read through the window four times over
	stream = append(stream, numbered(0, 1, []byte("behind"))...)
	go peer.Write(stream)
	if e := poll1(t, ctxs[0]); string(e.Packet.Payload) != "behind" {
		t.Fatalf("first delivery is %v %q, want the plain frame behind the dropped one", e.Packet.Envelope(), e.Packet.Payload)
	}
	if late, bad := ctr.Get(spc.LatePackets), ctr.Get(spc.WireFramesRejected); late != 1 || bad != 0 {
		t.Fatalf("late_packets = %d, wire_frames_rejected = %d; want 1 and 0", late, bad)
	}
}
