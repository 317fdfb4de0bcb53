package transport_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/backends"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/rma"
	"repro/internal/spc"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
)

// The seam's contract, one table over every backend: what the runtime relies
// on from Device.Connect, Endpoint.Send/PutNotify and Context.Poll/Pending
// must read the same on the in-process fabric and on loopback tcp. Devices
// are opened Unsignaled, as the runtime opens them.

// cluster hands out the devices of one two-rank world; device(r, ctr) may be
// called once per rank.
type cluster struct {
	name   string
	caps   transport.Caps
	device func(t *testing.T, rank int, ctr *spc.Set) transport.Device
}

func simCluster(t *testing.T) cluster {
	net := backends.Sim()
	return cluster{"sim", net.Caps(), func(t *testing.T, rank int, ctr *spc.Set) transport.Device {
		return mustDevice(t, net, rank, ctr)
	}}
}

func tcpCluster(t *testing.T) cluster {
	nets, err := tcpnet.NewLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	return cluster{"tcp", nets[0].Caps(), func(t *testing.T, rank int, ctr *spc.Set) transport.Device {
		return mustDevice(t, nets[rank], rank, ctr)
	}}
}

var clusters = []func(*testing.T) cluster{simCluster, tcpCluster}

func mustDevice(t *testing.T, net transport.Network, rank int, ctr *spc.Set) transport.Device {
	t.Helper()
	d, err := net.NewDevice(rank, hw.Fast(), transport.DeviceConfig{Counters: ctr, Unsignaled: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func mustContext(t *testing.T, d transport.Device) transport.Context {
	t.Helper()
	c, err := d.CreateContext(0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustConnect(t *testing.T, d transport.Device, local transport.Context, peer, idx int) transport.Endpoint {
	t.Helper()
	ep, err := d.Connect(local, peer, idx)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

func eager(seq uint32) *transport.Packet {
	return transport.NewPacket(transport.Envelope{Src: 0, Dst: 1, Seq: seq, Kind: transport.KindEager}, nil, nil)
}

// tally counts what a context's Poll surfaces.
type tally struct {
	others   int                  // events that are not arrivals: a two-sided operation posts none
	seqs     []uint32             // CQERecv sequence numbers, in delivery order
	payloads [][]byte             // CQERecv payloads, likewise
	envs     []transport.Envelope // CQERecv envelopes, likewise
	pkts     []*transport.Packet  // CQERecv packets, likewise
}

func (y *tally) handle(e transport.CQE) {
	if e.Kind != transport.CQERecv {
		y.others++
		return
	}
	env := e.Packet.Envelope()
	y.seqs = append(y.seqs, env.Seq)
	y.payloads = append(y.payloads, e.Packet.Payload)
	y.envs = append(y.envs, env)
	y.pkts = append(y.pkts, e.Packet)
}

// pump polls both ends (a batching backend writes and reads its wire there)
// until the receiver has seen want packets.
func pump(t *testing.T, tx, rx transport.Context, sender, receiver *tally, want int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); len(receiver.seqs) < want; {
		tx.Poll(sender.handle, 64)
		rx.Poll(receiver.handle, 64)
		if time.Now().After(deadline) {
			t.Fatalf("receiver saw %d of %d packets", len(receiver.seqs), want)
		}
	}
	for tx.Pending() {
		tx.Poll(sender.handle, 64)
	}
}

func TestSeamContract(t *testing.T) {
	for i, mk := range clusters {
		cl := mk(t)
		foreign := clusters[1-i]
		t.Run(cl.name, func(t *testing.T) {
			ctr := spc.NewSet()
			d0, d1 := cl.device(t, 0, ctr), cl.device(t, 1, spc.NewSet())
			tx, tx2, rx := mustContext(t, d0), mustContext(t, d0), mustContext(t, d1)
			ep := mustConnect(t, d0, tx, 1, 0)
			var sender, receiver tally

			if got := ctr.Get(spc.ConnsOpened) + ctr.Get(spc.ConnsReused); got != 0 {
				t.Fatalf("Connect established %d connections; nothing may resolve before the first send", got)
			}

			// A Send posts no completion: returning nil was the local
			// completion, and the sender's context has nothing queued.
			if err := ep.Send(eager(0)); err != nil {
				t.Fatal(err)
			}
			if tx.Pending() {
				t.Fatal("sender context Pending after a send: a completion was posted")
			}
			if opened, reused := ctr.Get(spc.ConnsOpened), ctr.Get(spc.ConnsReused); opened != 1 || reused != 0 {
				t.Fatalf("first send toward the peer: conns_opened = %d, conns_reused = %d, want 1 and 0", opened, reused)
			}

			// Per-sender FIFO through Poll.
			const n = 100
			for seq := uint32(1); seq < n; seq++ {
				if err := ep.Send(eager(seq)); err != nil {
					t.Fatal(err)
				}
				if seq%32 == 0 { // keep the rings from filling on one thread
					tx.Poll(sender.handle, 64)
					rx.Poll(receiver.handle, 64)
				}
			}
			pump(t, tx, rx, &sender, &receiver, n)
			for i, seq := range receiver.seqs {
				if seq != uint32(i) {
					t.Fatalf("delivery %d carries seq %d: per-sender FIFO broken", i, seq)
				}
			}
			if sender.others != 0 || tx.Pending() {
				t.Fatalf("%d completions for %d sends (pending %v), want none", sender.others, n, tx.Pending())
			}

			// Sending a packet again — the reliability layer's retransmission
			// — delivers it again, behind everything sent before it.
			again := eager(n)
			for range 2 {
				if err := ep.Send(again); err != nil {
					t.Fatal(err)
				}
			}
			pump(t, tx, rx, &sender, &receiver, n+2)
			if receiver.seqs[n] != n || receiver.seqs[n+1] != n || sender.others != 0 {
				t.Fatalf("a packet sent twice arrived as %v, sender saw %d completions", receiver.seqs[n:], sender.others)
			}

			// A second endpoint onto the same peer reuses the pair's path.
			var sender2 tally
			if err := mustConnect(t, d0, tx2, 1, 0).Send(eager(n + 1)); err != nil {
				t.Fatal(err)
			}
			pump(t, tx2, rx, &sender2, &receiver, n+3)
			if opened, reused := ctr.Get(spc.ConnsOpened), ctr.Get(spc.ConnsReused); opened != 1 || reused != 1 {
				t.Fatalf("second endpoint to the same peer: conns_opened = %d, conns_reused = %d, want 1 and 1", opened, reused)
			}
			if sender2.others != 0 {
				t.Fatalf("second endpoint's context saw %d completions, want none", sender2.others)
			}

			// A context of another backend is not a local context.
			other := foreign(t)
			fc := mustContext(t, other.device(t, 0, nil))
			other.device(t, 1, nil) // created so that its Close releases the listener
			if ep, err := d0.Connect(fc, 1, 0); err == nil || ep != nil {
				t.Fatalf("Connect with another backend's context = %v, %v; want nil and an error", ep, err)
			}
		})
	}
}

// TestSeamPutNotify is the contract of the rendezvous bulk step, the same on
// both backends: src is in the peer's region when p is delivered, the call
// posts no completion, src is the caller's again when the call returns, and p is
// never delivered without src — toward a region the peer no longer holds the
// transfer vanishes whole and the path stays usable.
func TestSeamPutNotify(t *testing.T) {
	for _, mk := range clusters {
		cl := mk(t)
		t.Run(cl.name, func(t *testing.T) {
			d0, d1 := cl.device(t, 0, spc.NewSet()), cl.device(t, 1, spc.NewSet())
			tx, rx := mustContext(t, d0), mustContext(t, d1)
			ep := mustConnect(t, d0, tx, 1, 0)
			fin := func(seq uint32) *transport.Packet {
				env := transport.Envelope{Src: 0, Dst: 1, Seq: seq, Kind: transport.KindRendezvousData}
				return transport.NewPacketRaw(env, []byte("transfer"))
			}
			sink := make([]byte, 96<<10)
			region := d1.RegisterMemory(sink)
			var sender tally
			// landed is what the region held at the moment each packet surfaced.
			var landed [][]byte
			var receiver tally
			onRecv := func(e transport.CQE) {
				if e.Kind == transport.CQERecv {
					landed = append(landed, append([]byte(nil), sink...))
					if e.Packet.Envelope().Kind != transport.KindRendezvousData && e.Packet.Envelope().Kind != transport.KindEager {
						t.Errorf("delivered kind %v: a wire flag reached the receiver", e.Packet.Envelope().Kind)
					}
				}
				receiver.handle(e)
			}
			wait := func(want int) {
				t.Helper()
				for deadline := time.Now().Add(10 * time.Second); len(receiver.seqs) < want; {
					tx.Poll(sender.handle, 64)
					rx.Poll(onRecv, 64)
					if time.Now().After(deadline) {
						t.Fatalf("receiver saw %d of %d packets", len(receiver.seqs), want)
					}
				}
				for tx.Pending() {
					tx.Poll(sender.handle, 64)
				}
			}

			// A body shorter than the region (a truncating receive registers
			// what it can take; a sender may offer less), overwritten by the
			// caller the moment the call returns.
			src := make([]byte, 64<<10)
			for i := range src {
				src[i] = byte(i*7 + 1)
			}
			want := append([]byte(nil), src...)
			if err := ep.PutNotify(region.ID(), src, fin(0)); err != nil {
				t.Fatal(err)
			}
			clear(src)
			// An empty body: the packet goes alone.
			if err := ep.PutNotify(region.ID(), nil, fin(1)); err != nil {
				t.Fatal(err)
			}
			wait(2)
			if !bytes.Equal(landed[0][:len(want)], want) || !bytes.Equal(landed[0][len(want):], make([]byte, len(sink)-len(want))) {
				t.Fatal("the region did not hold exactly the body when its packet was delivered")
			}
			if string(receiver.payloads[0]) != "transfer" || receiver.seqs[0] != 0 || receiver.seqs[1] != 1 {
				t.Fatalf("delivered %v with payload %q, want packets 0 and 1 carrying their own payload", receiver.seqs, receiver.payloads[0])
			}
			if sender.others != 0 || tx.Pending() {
				t.Fatalf("%d completions for 2 PutNotify calls (pending %v), want none", sender.others, tx.Pending())
			}

			// A region that is gone: nothing is delivered, whether the backend
			// can tell the caller (in process) or only the receiver finds out
			// (tcp), and the packet sent next arrives.
			d1.DeregisterMemory(region)
			if err := ep.PutNotify(region.ID(), want, fin(2)); err != nil && !errors.Is(err, transport.ErrRegionUnavailable) {
				t.Fatalf("PutNotify toward a deregistered region = %v, want nil or ErrRegionUnavailable", err)
			}
			if err := ep.Send(eager(3)); err != nil {
				t.Fatal(err)
			}
			wait(3)
			if receiver.seqs[2] != 3 {
				t.Fatalf("packet %d was delivered without its body", receiver.seqs[2])
			}
			if !bytes.Equal(sink, landed[0]) {
				t.Fatal("a transfer toward a deregistered region wrote into its old buffer")
			}
		})
	}
}

// TestSeamCopies holds Caps.Copies to its word. A backend that declares it is
// done with a packet and its payload, and with PutNotify's body, when the call
// returns: the caller overwrites all of them at once, as core's Thread reuses
// its one send packet, and the peer still receives the original envelopes and
// bytes. The in-process fabric hands the packet itself to the receiver, so it
// must not declare it.
func TestSeamCopies(t *testing.T) {
	for _, mk := range clusters {
		cl := mk(t)
		t.Run(cl.name, func(t *testing.T) {
			d0, d1 := cl.device(t, 0, spc.NewSet()), cl.device(t, 1, spc.NewSet())
			tx, rx := mustContext(t, d0), mustContext(t, d1)
			ep := mustConnect(t, d0, tx, 1, 0)
			var sender, receiver tally
			var p transport.Packet
			if !cl.caps.Copies {
				// What the fabric delivers is the sender's packet.
				p.Reset(transport.Envelope{Src: 0, Dst: 1, Kind: transport.KindEager}, nil)
				if err := ep.Send(&p); err != nil {
					t.Fatal(err)
				}
				pump(t, tx, rx, &sender, &receiver, 1)
				if cl.name == "sim" && receiver.pkts[0] != &p {
					t.Fatal("the fabric delivered a copy; it could declare Caps.Copies")
				}
				return
			}
			if cl.name == "sim" {
				t.Fatal("the fabric declares Caps.Copies, but its receiver holds the sender's packet")
			}
			sink := make([]byte, 4<<10)
			region := d1.RegisterMemory(sink)
			sent := transport.Envelope{Src: 0, Dst: 1, Tag: 7, Comm: 3, Seq: 0, Len: 8, Kind: transport.KindEager}
			fin := transport.Envelope{Src: 0, Dst: 1, Tag: 7, Comm: 3, Seq: 1, Len: 3, Kind: transport.KindRendezvousData}
			payload := []byte("original")
			body := bytes.Repeat([]byte{0xab}, 1<<10)
			overwrite := func() {
				p.Reset(transport.Envelope{Src: 5, Dst: 9, Tag: 99, Comm: 8, Seq: 42, Len: 1, Kind: transport.KindRendezvousRTS}, payload)
				copy(payload, "CLOBBERS")
			}

			p.Reset(sent, payload)
			if err := ep.Send(&p); err != nil {
				t.Fatal(err)
			}
			overwrite()
			copy(payload, "fin")
			p.Reset(fin, payload[:3])
			if err := ep.PutNotify(region.ID(), body, &p); err != nil {
				t.Fatal(err)
			}
			overwrite()
			clear(body)
			pump(t, tx, rx, &sender, &receiver, 2)
			if receiver.envs[0] != sent || string(receiver.payloads[0]) != "original" {
				t.Fatalf("Send delivered %v carrying %q, want %v carrying \"original\"", receiver.envs[0], receiver.payloads[0], sent)
			}
			if receiver.envs[1] != fin || string(receiver.payloads[1]) != "fin" {
				t.Fatalf("PutNotify delivered %v carrying %q, want %v carrying \"fin\"", receiver.envs[1], receiver.payloads[1], fin)
			}
			if !bytes.Equal(sink[:len(body)], bytes.Repeat([]byte{0xab}, len(body))) {
				t.Fatal("PutNotify landed the body as the caller overwrote it, not as it was sent")
			}
		})
	}
}

// TestSeamUnresolvablePeer: an endpoint toward a rank that has no device fails
// the send that tries to use it, injects nothing, and looks again next time.
// In-process only — tcpnet's own TestFlushFailureIsReported holds the tcp
// side, where the dial timeout is not reachable from outside the package.
func TestSeamUnresolvablePeer(t *testing.T) {
	net := backends.Sim()
	ctr := spc.NewSet()
	d0 := mustDevice(t, net, 0, ctr)
	tx := mustContext(t, d0)
	ep := mustConnect(t, d0, tx, 1, 0)
	if err := ep.Send(eager(0)); !errors.Is(err, transport.ErrConnEstablish) {
		t.Fatalf("send toward a rank with no device = %v, want ErrConnEstablish", err)
	}
	if tx.Pending() {
		t.Fatal("a failed send posted a completion")
	}
	if got := ctr.Get(spc.ConnsOpened); got != 0 {
		t.Fatalf("conns_opened = %d after failed resolutions", got)
	}

	d1 := mustDevice(t, net, 1, nil)
	if err := ep.Send(eager(0)); !errors.Is(err, transport.ErrConnEstablish) {
		t.Fatalf("send toward a device with no context = %v, want ErrConnEstablish", err)
	}
	rx := mustContext(t, d1)
	if err := ep.Send(eager(1)); err != nil {
		t.Fatalf("send once the peer context exists: %v", err)
	}
	var sender, receiver tally
	pump(t, tx, rx, &sender, &receiver, 1)
	if sender.others != 0 || receiver.seqs[0] != 1 || ctr.Get(spc.ConnsOpened) != 1 {
		t.Fatalf("after the peer appeared: %d completions, seqs %v, conns_opened %d; want 0, [1], 1",
			sender.others, receiver.seqs, ctr.Get(spc.ConnsOpened))
	}
}

// TestSeamSize pins what a backend must write: five types, 13 methods, each
// one the runtime calls. One-sided operations are not among them: they are
// transport.OneSided, which the in-process fabric's contexts implement and
// tcp's do not, and a window over a backend without it is refused before
// anything is registered.
func TestSeamSize(t *testing.T) {
	for _, c := range []struct {
		iface any
		want  int
	}{
		{(*transport.Network)(nil), 2},
		{(*transport.Device)(nil), 5},
		{(*transport.Context)(nil), 2},
		{(*transport.Endpoint)(nil), 2},
		{(*transport.MemRegion)(nil), 2},
	} {
		typ := reflect.TypeOf(c.iface).Elem()
		if got := typ.NumMethod(); got != c.want {
			t.Errorf("transport.%s has %d methods, want %d", typ.Name(), got, c.want)
		}
	}

	if sim := mustContext(t, mustDevice(t, backends.Sim(), 0, nil)); !isOneSided(sim) {
		t.Errorf("the in-process fabric's context (%T) is not transport.OneSided", sim)
	}
	nets, err := tcpnet.NewLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	comms := make([]*core.Comm, 2)
	for rank := range comms {
		w, err := core.NewDistributedWorld(hw.Fast(), rank, 2, nets[rank], core.Stock())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		comms[rank] = w.LocalProc().CommWorld()
	}
	if tcp := comms[0].Proc().Context(0); isOneSided(tcp) {
		t.Errorf("tcp's context (%T) is transport.OneSided", tcp)
	}
	if wins, err := rma.Allocate(comms, 8); !errors.Is(err, rma.ErrNotOneSided) || wins != nil {
		t.Fatalf("rma.Allocate over tcp = %v, %v; want ErrNotOneSided", wins, err)
	}
}

func isOneSided(c transport.Context) bool {
	_, ok := c.(transport.OneSided)
	return ok
}
