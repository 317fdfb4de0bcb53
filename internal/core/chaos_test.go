package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backends"
	"repro/internal/progress"
	"repro/internal/spc"
	"repro/internal/transport"
)

// TestFreeCommLatePacketsCounted sends into a communicator the receiver has
// already freed: every packet arrives for an unknown communicator and must be
// counted (spc.LatePackets) and dropped, never panicked on.
func TestFreeCommLatePacketsCounted(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	comms, err := w.Proc(0).CommWorld().Dup()
	if err != nil {
		t.Fatal(err)
	}
	d0, d1 := comms[0], comms[1]
	d1.Free() // receiver gives up its handle before anything is sent

	t0 := w.Proc(0).NewThread()
	const n = 8
	var reqs []*Request
	for i := 0; i < n; i++ {
		r, err := d0.Isend(t0, 1, int32(i), []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	if err := WaitAll(t0, reqs...); err != nil {
		t.Fatal(err)
	}
	w.Proc(1).DrainProgress()
	if got := w.Proc(1).SPCs().Get(spc.LatePackets); got != n {
		t.Fatalf("LatePackets = %d, want %d", got, n)
	}
}

// TestFreeCommWhilePacketsInFlight frees the receive-side communicator while
// the sender is mid-burst and the receiver is actively progressing — the
// chaos scenario the old panic-on-unknown-communicator path could not
// survive. Run under -race.
func TestFreeCommWhilePacketsInFlight(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	comms, err := w.Proc(0).CommWorld().Dup()
	if err != nil {
		t.Fatal(err)
	}
	d0, d1 := comms[0], comms[1]

	const n = 200
	var senderDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		t0 := w.Proc(0).NewThread()
		var reqs []*Request
		for i := 0; i < n; i++ {
			r, err := d0.Isend(t0, 1, int32(i), []byte{byte(i)})
			if err != nil {
				t.Error(err)
				break
			}
			reqs = append(reqs, r)
		}
		if err := WaitAll(t0, reqs...); err != nil {
			t.Error(err)
		}
		senderDone.Store(true)
	}()
	go func() {
		defer wg.Done()
		// The receiver pumps events while the communicator disappears
		// beneath it.
		for !senderDone.Load() {
			w.Proc(1).DrainProgress()
		}
		w.Proc(1).DrainProgress()
	}()
	time.Sleep(100 * time.Microsecond)
	d1.Free()
	wg.Wait()
}

// TestFaultStressAllTrafficCompletes runs a multithreaded workload over a
// lossy, duplicating, reordering wire and requires every Isend and Irecv to
// complete successfully: the ack/retransmit layer must repair all loss, and
// the dedup layers must absorb all duplication. Payload sizes straddle the
// eager limit so both the eager and rendezvous protocols face faults. Run
// under -race.
//
// Two rules keep it deterministic. Every thread keeps progressing its rank
// until all of them are done: repair is driven by progress, so a rank whose
// threads have all returned can neither retransmit a dropped FIN nor re-ack
// a retransmitted packet, and its peer would wait forever. And the repair
// path is required to have run, not assumed to: which packets the injector
// eats depends on thread interleaving, a round that loses only acks needs no
// retransmission at all, so rounds repeat until one has lost tracked data.
func TestFaultStressAllTrafficCompletes(t *testing.T) {
	w := newTestWorld(t, 2, Options{
		NumInstances: 2, Progress: progress.Serial, ThreadLevel: ThreadMultiple,
		Network: backends.Faulty(transport.FaultConfig{
			Drop: 0.02, Dup: 0.02, Delay: 0.05,
			DelayDur: 50 * time.Microsecond, Seed: 42,
		}),
	})
	const (
		groups    = 2
		msgs      = 24
		big       = DefaultEagerLimit + 4096 // forces rendezvous
		maxRounds = 20                       // P(no tracked drop in a round) ≈ 0.2
	)
	size := func(i int) int {
		if i%3 == 2 {
			return big
		}
		return 16
	}
	totals := func() spc.Snapshot {
		return spc.Merge(w.Proc(0).SPCSnapshot(), w.Proc(1).SPCSnapshot())
	}
	runRound := func(round int) {
		var busy atomic.Int32
		busy.Store(2 * groups)
		// finish is every thread's epilogue: keep the rank progressing until
		// the last thread of the round has completed its requests.
		finish := func(th *Thread) {
			busy.Add(-1)
			th.WaitUntil(func() bool { return busy.Load() == 0 })
		}
		tag := func(g, i int) int32 { return int32(round*10000 + g*1000 + i) }
		var wg sync.WaitGroup
		for g := 0; g < groups; g++ {
			wg.Add(2)
			go func(g int) {
				defer wg.Done()
				th := w.Proc(0).NewThread()
				defer finish(th)
				c := w.Proc(0).CommWorld()
				var reqs []*Request
				for i := 0; i < msgs; i++ {
					buf := make([]byte, size(i))
					buf[0] = byte(g)
					r, err := c.Isend(th, 1, tag(g, i), buf)
					if err != nil {
						t.Error(err)
						return
					}
					reqs = append(reqs, r)
				}
				if err := WaitAll(th, reqs...); err != nil {
					t.Errorf("sender group %d: %v", g, err)
				}
			}(g)
			go func(g int) {
				defer wg.Done()
				th := w.Proc(1).NewThread()
				defer finish(th)
				c := w.Proc(1).CommWorld()
				var reqs []*Request
				bufs := make([][]byte, msgs)
				for i := 0; i < msgs; i++ {
					bufs[i] = make([]byte, size(i))
					r, err := c.Irecv(th, 0, tag(g, i), bufs[i])
					if err != nil {
						t.Error(err)
						return
					}
					reqs = append(reqs, r)
				}
				if err := WaitAll(th, reqs...); err != nil {
					t.Errorf("receiver group %d: %v", g, err)
					return
				}
				for i, b := range bufs {
					if b[0] != byte(g) {
						t.Errorf("group %d msg %d corrupted: first byte %d", g, i, b[0])
					}
				}
			}(g)
		}
		wg.Wait()
	}
	for r := 0; r < maxRounds && !t.Failed(); r++ {
		runRound(r)
		if totals()[spc.Retransmits] > 0 {
			break
		}
	}

	// Faults were injected and repaired, not just absent.
	total := totals()
	if total[spc.FaultPacketsDropped] == 0 {
		t.Error("stress run injected no drops; fault path untested")
	}
	if total[spc.Retransmits] == 0 {
		t.Errorf("no round in %d lost a tracked packet; repair path untested", maxRounds)
	}
	if total[spc.AcksSent] == 0 || total[spc.AcksReceived] == 0 {
		t.Error("reliability layer exchanged no acks")
	}
}

// TestPeerUnreachable drives the retry budget to exhaustion on a wire that
// drops everything: the send must fail with ErrPeerUnreachable instead of
// hanging, on both the eager and rendezvous paths.
func TestPeerUnreachable(t *testing.T) {
	w := newTestWorld(t, 2, Options{
		NumInstances: 1, Progress: progress.Serial, ThreadLevel: ThreadMultiple,
		Network: backends.Faulty(transport.FaultConfig{Drop: 1, Seed: 5}),
	})
	// Short timeouts and three tries, so a dead peer surfaces in
	// milliseconds; set before any traffic.
	for r := range 2 {
		w.Proc(r).rel.rto, w.Proc(r).rel.budget = 200*time.Microsecond, 3
	}
	t0 := w.Proc(0).NewThread()
	c := w.Proc(0).CommWorld()

	for _, tc := range []struct {
		name string
		size int
	}{
		{"eager", 16},
		{"rendezvous", DefaultEagerLimit + 1},
	} {
		r, err := c.Isend(t0, 1, 7, make([]byte, tc.size))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Wait(t0); !errors.Is(err, ErrPeerUnreachable) {
			t.Fatalf("%s Wait = %v, want ErrPeerUnreachable", tc.name, err)
		}
	}
	if got := w.Proc(0).SPCSnapshot()[spc.RetransmitFailures]; got < 2 {
		t.Fatalf("RetransmitFailures = %d, want >= 2", got)
	}
}

// TestReliableZeroFaultDelivery runs the ack/retransmit layer over a faulty
// network whose adversary injects nothing: traffic must flow normally (sends
// complete on ack), with no spurious retransmissions.
func TestReliableZeroFaultDelivery(t *testing.T) {
	w := newTestWorld(t, 2, Options{
		NumInstances: 1, Progress: progress.Serial, ThreadLevel: ThreadMultiple,
		Network: backends.Faulty(transport.FaultConfig{}),
	})
	c0, c1 := w.Proc(0).CommWorld(), w.Proc(1).CommWorld()
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()

	const n = 32
	done := make(chan error, 1)
	go func() {
		var reqs []*Request
		for i := 0; i < n; i++ {
			r, err := c0.Isend(t0, 1, int32(i), []byte(fmt.Sprintf("m%d", i)))
			if err != nil {
				done <- err
				return
			}
			reqs = append(reqs, r)
		}
		done <- WaitAll(t0, reqs...)
	}()
	for i := 0; i < n; i++ {
		buf := make([]byte, 8)
		st, err := c1.Recv(t1, 0, int32(i), buf)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("m%d", i); string(buf[:st.Count]) != want {
			t.Fatalf("msg %d = %q, want %q", i, buf[:st.Count], want)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	total := spc.Merge(w.Proc(0).SPCSnapshot(), w.Proc(1).SPCSnapshot())
	if total[spc.AcksSent] == 0 {
		t.Error("reliable mode sent no acks")
	}
	if total[spc.RetransmitFailures] != 0 {
		t.Errorf("perfect wire produced %d retransmit failures", total[spc.RetransmitFailures])
	}
}

// TestReliabilityFollowsLossless: the ack/retransmit layer exists exactly
// when the backend does not advertise Lossless. A faulty network is not
// lossless even when its adversary injects nothing or only reorders; the
// clean fabric and tcp are.
func TestReliabilityFollowsLossless(t *testing.T) {
	for _, tc := range []struct {
		name, backend string
		net           transport.Network
		caps          string
	}{
		{"sim", "sim", backends.Sim(), "lossless,one-sided"},
		{"faulty-zero", "sim", backends.Faulty(transport.FaultConfig{}), "one-sided"},
		{"faulty-scramble", "sim", backends.Faulty(transport.FaultConfig{ScrambleWindow: 4}), "one-sided"},
		{"tcp", "tcp", nil, "lossless"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			th, _ := metaPair(t, tc.backend, Options{Network: tc.net})
			for _, x := range th {
				p, caps := x.proc, x.proc.TransportCaps()
				if got := caps.String(); got != tc.caps {
					t.Errorf("rank %d caps = %q, want %q", p.Rank(), got, tc.caps)
				}
				if (p.rel != nil) != !caps.Lossless {
					t.Errorf("rank %d: reliability layer present = %v on a backend with Lossless = %v", p.Rank(), p.rel != nil, caps.Lossless)
				}
			}
		})
	}
}
