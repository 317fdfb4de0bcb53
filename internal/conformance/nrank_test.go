package conformance

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/spc"
	"repro/internal/transport/tcpnet"
)

// nHarness is an N-rank world under test: all ranks in one address space
// over the simulated fabric, or one distributed world per rank joined by
// loopback TCP. Connections are established lazily on first send in both
// cases, so every case below also exercises the on-demand connect path.
type nHarness struct {
	name  string
	n     int
	procs []*core.Proc
	comms []*core.Comm // world communicators, indexed by rank
	close func()
}

func newSimNHarness(t *testing.T, n int) *nHarness {
	t.Helper()
	w, err := core.NewWorld(hw.Fast(), n, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	h := &nHarness{name: "sim", n: n, close: w.Close}
	for r := 0; r < n; r++ {
		h.procs = append(h.procs, w.Proc(r))
		h.comms = append(h.comms, w.Proc(r).CommWorld())
	}
	return h
}

func newTCPNHarness(t *testing.T, n int) *nHarness {
	t.Helper()
	nets, err := tcpnet.NewLoopback(n)
	if err != nil {
		t.Fatal(err)
	}
	h := &nHarness{name: "tcp", n: n}
	worlds := make([]*core.World, n)
	for r := 0; r < n; r++ {
		w, err := core.NewDistributedWorld(hw.Fast(), r, n, nets[r], testOptions())
		if err != nil {
			t.Fatalf("rank %d world: %v", r, err)
		}
		worlds[r] = w
		h.procs = append(h.procs, w.LocalProc())
		h.comms = append(h.comms, w.LocalProc().CommWorld())
	}
	h.close = func() {
		for _, w := range worlds {
			w.Close()
		}
	}
	return h
}

// runN drives every rank concurrently, each on its own thread, and fails
// the test on any rank's error.
func runN(t *testing.T, h *nHarness, f func(rank int, th *core.Thread) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, h.n)
	for r := 0; r < h.n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = f(r, h.procs[r].NewThread())
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestConformanceNRank runs the N-rank semantic table — collectives,
// wildcard matching, and the lazy-connect counters — over every backend at
// N in {2, 4, 8}.
func TestConformanceNRank(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, h *nHarness)
	}{
		{"Barrier", conformNBarrier},
		{"Bcast", conformNBcast},
		{"ReduceAllreduce", conformNReduce},
		{"GatherScatter", conformNGatherScatter},
		{"Allgather", conformNAllgather},
		{"Alltoall", conformNAlltoall},
		{"AboveEagerLimit", conformNAboveEagerLimit},
		{"WildcardAnySource", conformNWildcard},
		{"SentEqualsReceived", conformNSentEqualsReceived},
		// Last on purpose: it audits the connection counters the cases
		// above populated.
		{"LazyConnect", conformNLazyConnect},
	}
	backends := map[string]func(*testing.T, int) *nHarness{
		"sim": newSimNHarness,
		"tcp": newTCPNHarness,
	}
	for name, mk := range backends {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{2, 4, 8} {
				t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
					h := mk(t, n)
					defer h.close()
					for _, tc := range cases {
						t.Run(tc.name, func(t *testing.T) { tc.run(t, h) })
					}
				})
			}
		})
	}
}

// conformNBarrier: no rank leaves barrier k before every rank has entered
// it — observed through a shared counter that must read at least n*k at
// every exit.
func conformNBarrier(t *testing.T, h *nHarness) {
	const rounds = 3
	var entered int64
	runN(t, h, func(rank int, th *core.Thread) error {
		for k := 1; k <= rounds; k++ {
			atomic.AddInt64(&entered, 1)
			if err := h.comms[rank].Barrier(th); err != nil {
				return err
			}
			if got := atomic.LoadInt64(&entered); got < int64(h.n*k) {
				return fmt.Errorf("left barrier %d with only %d/%d ranks entered", k, got, h.n*k)
			}
		}
		return nil
	})
}

// conformNBcast: the root's payload reaches every rank, for a first-rank
// and a last-rank root (the binomial tree's two extreme shapes).
func conformNBcast(t *testing.T, h *nHarness) {
	for _, root := range []int{0, h.n - 1} {
		want := []byte(fmt.Sprintf("bcast-root-%d", root))
		runN(t, h, func(rank int, th *core.Thread) error {
			buf := make([]byte, len(want))
			if rank == root {
				copy(buf, want)
			}
			if err := h.comms[rank].Bcast(th, root, buf); err != nil {
				return err
			}
			if !bytes.Equal(buf, want) {
				return fmt.Errorf("root %d: got %q, want %q", root, buf, want)
			}
			return nil
		})
	}
}

// conformNReduce: summing each rank's contribution lands n(n+1)/2 on the
// root, and Allreduce lands it everywhere.
func conformNReduce(t *testing.T, h *nHarness) {
	want := int64(h.n * (h.n + 1) / 2)
	runN(t, h, func(rank int, th *core.Thread) error {
		in := binary.LittleEndian.AppendUint64(nil, uint64(rank+1))
		out := make([]byte, 8)
		if err := h.comms[rank].Reduce(th, 0, in, out, core.OpSumInt64); err != nil {
			return err
		}
		if got := int64(binary.LittleEndian.Uint64(out)); rank == 0 && got != want {
			return fmt.Errorf("reduce: got %d, want %d", got, want)
		}
		all := make([]byte, 8)
		if err := h.comms[rank].Allreduce(th, in, all, core.OpSumInt64); err != nil {
			return err
		}
		if got := int64(binary.LittleEndian.Uint64(all)); got != want {
			return fmt.Errorf("allreduce: got %d, want %d", got, want)
		}
		return nil
	})
}

// conformNGatherScatter: Gather assembles the rank-identity vector on the
// root; Scatter hands each rank back its own slot.
func conformNGatherScatter(t *testing.T, h *nHarness) {
	runN(t, h, func(rank int, th *core.Thread) error {
		c := h.comms[rank]
		var gathered []byte
		if rank == 0 {
			gathered = make([]byte, h.n)
		}
		if err := c.Gather(th, 0, []byte{byte(rank)}, gathered); err != nil {
			return err
		}
		if rank == 0 {
			for r := 0; r < h.n; r++ {
				if gathered[r] != byte(r) {
					return fmt.Errorf("gather slot %d = %d", r, gathered[r])
				}
			}
		}
		var scattered []byte
		if rank == 0 {
			scattered = make([]byte, h.n)
			for r := range scattered {
				scattered[r] = byte(100 + r)
			}
		}
		got := make([]byte, 1)
		if err := c.Scatter(th, 0, scattered, got); err != nil {
			return err
		}
		if got[0] != byte(100+rank) {
			return fmt.Errorf("scatter: got %d, want %d", got[0], 100+rank)
		}
		return nil
	})
}

// conformNAllgather: every rank ends with the full rank-identity vector.
func conformNAllgather(t *testing.T, h *nHarness) {
	runN(t, h, func(rank int, th *core.Thread) error {
		recv := make([]byte, h.n)
		if err := h.comms[rank].Allgather(th, []byte{byte(rank)}, recv); err != nil {
			return err
		}
		for r := 0; r < h.n; r++ {
			if recv[r] != byte(r) {
				return fmt.Errorf("slot %d = %d", r, recv[r])
			}
		}
		return nil
	})
}

// conformNAlltoall: the personalized exchange transposes the (rank, slot)
// matrix.
func conformNAlltoall(t *testing.T, h *nHarness) {
	runN(t, h, func(rank int, th *core.Thread) error {
		send := make([]byte, h.n)
		for j := range send {
			send[j] = byte(rank*16 + j)
		}
		recv := make([]byte, h.n)
		if err := h.comms[rank].Alltoall(th, send, recv); err != nil {
			return err
		}
		for j := range recv {
			if want := byte(j*16 + rank); recv[j] != want {
				return fmt.Errorf("slot %d = %d, want %d", j, recv[j], want)
			}
		}
		return nil
	})
}

// conformNAboveEagerLimit: with every chunk above the eager limit each
// collective's sends are rendezvous, which complete only once the peer has
// posted its receive. The binomial trees (Bcast from the last rank, Allreduce)
// and the pairwise exchanges (Allgather, Alltoall) still finish with the
// right bytes at every world size.
func conformNAboveEagerLimit(t *testing.T, h *nHarness) {
	const chunk = core.DefaultEagerLimit + 8
	slot := func(owner, j int) []byte { return bytes.Repeat([]byte{byte(owner*16 + j)}, chunk) }
	runN(t, h, func(rank int, th *core.Thread) error {
		c, root := h.comms[rank], h.n-1
		buf := make([]byte, chunk)
		if rank == root {
			buf = slot(root, 0)
		}
		if err := c.Bcast(th, root, buf); err != nil {
			return err
		}
		if !bytes.Equal(buf, slot(root, 0)) {
			return fmt.Errorf("bcast from rank %d: payload differs", root)
		}
		in := make([]byte, chunk)
		binary.LittleEndian.PutUint64(in[chunk-8:], uint64(rank+1))
		sum := make([]byte, chunk)
		if err := c.Allreduce(th, in, sum, core.OpSumInt64); err != nil {
			return err
		}
		if got := binary.LittleEndian.Uint64(sum[chunk-8:]); got != uint64(h.n*(h.n+1)/2) {
			return fmt.Errorf("allreduce: got %d, want %d", got, h.n*(h.n+1)/2)
		}
		all := make([]byte, h.n*chunk)
		if err := c.Allgather(th, slot(rank, 0), all); err != nil {
			return err
		}
		send, recv := make([]byte, 0, h.n*chunk), make([]byte, h.n*chunk)
		for j := 0; j < h.n; j++ {
			if !bytes.Equal(all[j*chunk:(j+1)*chunk], slot(j, 0)) {
				return fmt.Errorf("allgather: slot %d differs", j)
			}
			send = append(send, slot(rank, j)...)
		}
		if err := c.Alltoall(th, send, recv); err != nil {
			return err
		}
		for j := 0; j < h.n; j++ {
			if !bytes.Equal(recv[j*chunk:(j+1)*chunk], slot(j, rank)) {
				return fmt.Errorf("alltoall: slot %d differs", j)
			}
		}
		return nil
	})
}

// conformNWildcard: an MPI_ANY_SOURCE receive loop on rank 0 delivers every
// other rank's message exactly once, with statuses naming the true source.
func conformNWildcard(t *testing.T, h *nHarness) {
	runN(t, h, func(rank int, th *core.Thread) error {
		c := h.comms[rank]
		if rank != 0 {
			return c.Send(th, 0, 77, []byte{byte(rank)})
		}
		seen := make(map[int32]bool)
		for i := 0; i < h.n-1; i++ {
			buf := make([]byte, 1)
			st, err := c.Recv(th, int(core.AnySource), 77, buf)
			if err != nil {
				return err
			}
			if seen[st.Source] {
				return fmt.Errorf("source %d delivered twice", st.Source)
			}
			if int32(buf[0]) != st.Source {
				return fmt.Errorf("payload %d does not match source %d", buf[0], st.Source)
			}
			seen[st.Source] = true
		}
		for r := 1; r < h.n; r++ {
			if !seen[int32(r)] {
				return fmt.Errorf("no message from rank %d", r)
			}
		}
		return nil
	})
}

// conformNSentEqualsReceived: every way a matched envelope can leave a rank
// — eager, rendezvous RTS, self-addressed, the internal-tag traffic of
// Barrier and Bcast, a message claimed by MProbe — is counted once as sent
// and once as received, so the two counters agree when summed over the
// ranks of a quiescent world (this case's traffic and all the cases before
// it). Control packets (rendezvous ACK/FIN) are on neither side.
func conformNSentEqualsReceived(t *testing.T, h *nHarness) {
	big := make([]byte, 64<<10) // above the eager limit
	runN(t, h, func(rank int, th *core.Thread) error {
		c := h.comms[rank]
		next, prev := (rank+1)%h.n, (rank-1+h.n)%h.n
		exchange := func(dst, src int, tag int32, payload []byte) error {
			sreq, err := c.Isend(th, dst, tag, payload)
			if err != nil {
				return err
			}
			if _, err := c.Recv(th, src, tag, make([]byte, len(payload))); err != nil {
				return err
			}
			return sreq.Wait(th)
		}
		if err := exchange(next, prev, 5, []byte("eager")); err != nil {
			return err
		}
		if err := exchange(next, prev, 6, big); err != nil {
			return err
		}
		if err := exchange(rank, rank, 7, []byte("self")); err != nil {
			return err
		}
		if err := c.Barrier(th); err != nil {
			return err
		}
		if err := c.Bcast(th, 0, make([]byte, 8)); err != nil {
			return err
		}
		sreq, err := c.Isend(th, next, 8, []byte("probed"))
		if err != nil {
			return err
		}
		msg, ok := c.MProbe(th, prev, 8)
		for !ok {
			msg, ok = c.MProbe(th, prev, 8)
		}
		if _, err := msg.MRecv(make([]byte, 8)); err != nil {
			return err
		}
		if err := sreq.Wait(th); err != nil {
			return err
		}
		return c.Barrier(th)
	})
	var sent, received int64
	for _, p := range h.procs {
		snap := p.SPCSnapshot()
		sent += snap[spc.MessagesSent]
		received += snap[spc.MessagesReceived]
	}
	if sent != received || sent == 0 {
		t.Errorf("messages_sent summed over %d ranks = %d, messages_received = %d; want equal and non-zero",
			h.n, sent, received)
	}
}

// conformNLazyConnect: after the traffic above, the connection counters
// obey the on-demand topology bounds on every backend. A connection carries
// one direction, so a rank opens one per peer it sent to — no more than n−1
// and at least one — with no reconnect, and later endpoints reuse them.
func conformNLazyConnect(t *testing.T, h *nHarness) {
	var reused int64
	for rank, p := range h.procs {
		snap := p.SPCSnapshot()
		o, u, re := snap[spc.ConnsOpened], snap[spc.ConnsReused], snap[spc.Reconnects]
		if o == 0 || o > int64(h.n-1) || re != 0 {
			t.Errorf("rank %d: opened %d connections with %d reconnects, want 1..%d and none", rank, o, re, h.n-1)
		}
		reused += u
	}
	// Round-robin CRI assignment lands repeat sends on second instances,
	// whose endpoints must attach to the existing link, not a new one.
	if reused == 0 {
		t.Errorf("no endpoint reused an established connection across %d ranks", h.n)
	}
}
