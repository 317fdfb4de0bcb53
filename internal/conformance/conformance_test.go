package conformance

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cri"
	"repro/internal/flight"
	"repro/internal/hw"
	"repro/internal/spc"
	"repro/internal/transport/tcpnet"
)

// harness is one two-rank world under test, abstracting over whether both
// ranks share an address space (sim) or live in separate worlds joined by a
// real wire (tcp loopback).
type harness struct {
	name  string
	procs [2]*core.Proc
	comms [2]*core.Comm // world-communicator handles, indexed by rank
	// newComm collectively creates a fresh communicator over both ranks and
	// returns the per-rank handles. Each backend preserves the collective
	// creation-order contract its topology requires.
	newComm func(info core.Info) ([2]*core.Comm, error)
	close   func()
}

func testOptions() core.Options {
	// Two instances, round-robin assignment, concurrent progress: the
	// configuration that exercises the CRI plumbing hardest. Telemetry is
	// on so the SPC roll-up invariant is checked with full per-CRI and
	// per-communicator attribution in play on every backend, and the
	// flight recorder flies through every case so its hooks are exercised
	// on both the simulated fabric and the real TCP message path.
	opts := core.CRIsConcurrent(2, cri.RoundRobin)
	opts.Telemetry = true
	opts.FlightCapacity = 1024
	return opts
}

// newSimHarness builds both ranks in one world over the simulated fabric.
func newSimHarness(t *testing.T) *harness { return newSimHarnessWith(t, testOptions()) }

// newSimHarnessWith is newSimHarness under the given options.
func newSimHarnessWith(t *testing.T, opts core.Options) *harness {
	t.Helper()
	w, err := core.NewWorld(hw.Fast(), 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{
		name:  "sim",
		procs: [2]*core.Proc{w.Proc(0), w.Proc(1)},
		comms: [2]*core.Comm{w.Proc(0).CommWorld(), w.Proc(1).CommWorld()},
		newComm: func(info core.Info) ([2]*core.Comm, error) {
			cs, err := w.NewCommWithInfo([]int{0, 1}, info)
			if err != nil {
				return [2]*core.Comm{}, err
			}
			return [2]*core.Comm{cs[0], cs[1]}, nil
		},
		close: w.Close,
	}
}

// newTCPHarness builds one distributed world per rank, joined over loopback
// TCP — the same code path as two OS processes, minus the fork.
func newTCPHarness(t *testing.T) *harness { return newTCPHarnessWith(t, testOptions()) }

// newTCPHarnessWith is newTCPHarness under the given options.
func newTCPHarnessWith(t *testing.T, opts core.Options) *harness {
	t.Helper()
	nets, err := tcpnet.NewLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	var worlds [2]*core.World
	for r := 0; r < 2; r++ {
		w, err := core.NewDistributedWorld(hw.Fast(), r, 2, nets[r], opts)
		if err != nil {
			t.Fatalf("rank %d world: %v", r, err)
		}
		worlds[r] = w
	}
	return &harness{
		name:  "tcp",
		procs: [2]*core.Proc{worlds[0].LocalProc(), worlds[1].LocalProc()},
		comms: [2]*core.Comm{worlds[0].LocalProc().CommWorld(), worlds[1].LocalProc().CommWorld()},
		newComm: func(info core.Info) ([2]*core.Comm, error) {
			// Both worlds run the creation collectively in the same order, so
			// the deterministic id allocation agrees across processes.
			var out [2]*core.Comm
			for r := 0; r < 2; r++ {
				cs, err := worlds[r].NewCommWithInfo([]int{0, 1}, info)
				if err != nil {
					return out, err
				}
				out[r] = cs[r]
			}
			return out, nil
		},
		close: func() { worlds[0].Close(); worlds[1].Close() },
	}
}

// run2 drives rank 0 and rank 1 concurrently, each on its own thread, and
// fails the test on either side's error.
func run2(t *testing.T, h *harness, f func(rank int, th *core.Thread) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
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

func backends(t *testing.T) map[string]func(*testing.T) *harness {
	return map[string]func(*testing.T) *harness{
		"sim": newSimHarness,
		"tcp": newTCPHarness,
	}
}

// TestConformance runs the semantic table over every backend.
func TestConformance(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, h *harness)
	}{
		{"Eager", conformEager},
		{"Rendezvous", conformRendezvous},
		{"RendezvousShapes", conformRendezvousShapes},
		{"BufferOwnership", conformBufferOwnership},
		{"AnyTagOvertaking", conformAnyTagOvertaking},
		{"PersistentRequests", conformPersistent},
		{"WaitAny", conformWaitAny},
		{"SPCRollup", conformSPCRollup},
		{"FlightRecord", conformFlightRecord},
		{"NoWildcards", conformNoWildcards},
		{"IsendPastQueueDepth", conformIsendPastQueueDepth},
	}
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			h := mk(t)
			defer h.close()
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) { tc.run(t, h) })
			}
		})
	}
}

// TestConformanceMixedProtocolOrder: one source interleaves eager and
// rendezvous sends on one tag into AnySource/AnyTag receives, half posted
// before the traffic and half after it started, and receive k gets message
// k — under serial and concurrent progress, on every backend. A progress
// pass matches its eager arrivals at the end of the pass but answers a
// rendezvous RTS when it polls it, delivering the eager run before it: the
// order of matching is the order of arrival.
func TestConformanceMixedProtocolOrder(t *testing.T) {
	for _, opts := range []core.Options{core.CRIs(2, cri.RoundRobin), core.CRIsConcurrent(2, cri.Dedicated)} {
		for name, mk := range map[string]func(*testing.T, core.Options) *harness{
			"sim": newSimHarnessWith,
			"tcp": newTCPHarnessWith,
		} {
			t.Run(name+"/"+opts.Progress.String(), func(t *testing.T) {
				h := mk(t, opts)
				defer h.close()
				conformMixedProtocolOrder(t, h)
			})
		}
	}
}

func conformMixedProtocolOrder(t *testing.T, h *harness) {
	const n, big = 96, 3 * core.DefaultEagerLimit
	size := func(i int) int {
		if i%4 == 3 {
			return big
		}
		return 8
	}
	run2(t, h, func(rank int, th *core.Thread) error {
		c := h.comms[rank]
		if rank == 0 {
			reqs := make([]*core.Request, n)
			for i := range reqs {
				buf := make([]byte, size(i))
				binary.LittleEndian.PutUint32(buf, uint32(i))
				var err error
				if reqs[i], err = c.Isend(th, 1, 5, buf); err != nil {
					return err
				}
			}
			return core.WaitAll(th, reqs...)
		}
		reqs := make([]*core.Request, n)
		bufs := make([][]byte, n)
		post := func(i int) (err error) {
			bufs[i] = make([]byte, big)
			reqs[i], err = c.Irecv(th, int(core.AnySource), core.AnyTag, bufs[i])
			return err
		}
		for i := 0; i < n/2; i++ {
			if err := post(i); err != nil {
				return err
			}
		}
		if err := reqs[0].Wait(th); err != nil {
			return err
		}
		for i := n / 2; i < n; i++ {
			if err := post(i); err != nil {
				return err
			}
		}
		if err := core.WaitAll(th, reqs...); err != nil {
			return err
		}
		for i, r := range reqs {
			st := r.Status()
			if got := binary.LittleEndian.Uint32(bufs[i]); got != uint32(i) || st.Count != size(i) {
				return fmt.Errorf("receive %d got message %d (%d bytes), want message %d (%d bytes)", i, got, st.Count, i, size(i))
			}
		}
		return nil
	})
}

// conformEager: a burst of small messages arrives in FIFO order with intact
// payloads and statuses.
func conformEager(t *testing.T, h *harness) {
	const n = 32
	run2(t, h, func(rank int, th *core.Thread) error {
		c := h.comms[rank]
		if rank == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(th, 1, 7, []byte(fmt.Sprintf("msg-%03d", i))); err != nil {
					return err
				}
			}
			return nil
		}
		buf := make([]byte, 16)
		for i := 0; i < n; i++ {
			st, err := c.Recv(th, 0, 7, buf)
			if err != nil {
				return err
			}
			want := fmt.Sprintf("msg-%03d", i)
			if string(buf[:st.Count]) != want {
				return fmt.Errorf("message %d: got %q, want %q", i, buf[:st.Count], want)
			}
			if st.Source != 0 || st.Tag != 7 {
				return fmt.Errorf("message %d status: %+v", i, st)
			}
		}
		return nil
	})
}

// conformRendezvous: a payload above the eager limit travels through the
// RTS/ACK/FIN protocol — an RDMA put in process, a landed frame over tcp —
// and lands intact.
func conformRendezvous(t *testing.T, h *harness) {
	big := make([]byte, 64<<10) // 64 KiB > the 8 KiB eager limit
	for i := range big {
		big[i] = byte(i * 31)
	}
	run2(t, h, func(rank int, th *core.Thread) error {
		c := h.comms[rank]
		if rank == 0 {
			return c.Send(th, 1, 9, big)
		}
		got := make([]byte, len(big))
		st, err := c.Recv(th, 0, 9, got)
		if err != nil {
			return err
		}
		if st.Count != len(big) || st.Truncated {
			return fmt.Errorf("status = %+v, want full %d bytes", st, len(big))
		}
		if !bytes.Equal(got, big) {
			return fmt.Errorf("rendezvous payload corrupted")
		}
		return nil
	})
}

// conformRendezvousShapes: the corners of the bulk step. A receive smaller
// than the message takes its prefix and reports truncation, the bytes behind
// its buffer untouched; a receive with no room at all still completes the
// handshake (the sender's Wait returns) with nothing moved; and a message
// above the eager limit to the sending rank itself never meets the wire.
func conformRendezvousShapes(t *testing.T, h *harness) {
	const total, room, tag = 64 << 10, 10 << 10, 71
	big := make([]byte, total)
	for i := range big {
		big[i] = byte(i*13 + 5)
	}
	run2(t, h, func(rank int, th *core.Thread) error {
		c := h.comms[rank]
		if rank == 0 {
			for i := 0; i < 2; i++ {
				if err := c.Send(th, 1, tag, big); err != nil {
					return fmt.Errorf("send %d: %w", i, err)
				}
			}
			sreq, err := c.Isend(th, 0, tag, big)
			if err != nil {
				return err
			}
			got := make([]byte, total)
			if st, err := c.Recv(th, 0, tag, got); err != nil || st.Count != total || !bytes.Equal(got, big) {
				return fmt.Errorf("self-send above the eager limit: status %+v, %v, payload intact: %v", st, err, bytes.Equal(got, big))
			}
			return sreq.Wait(th)
		}
		backing := make([]byte, room+64)
		st, err := c.Recv(th, 0, tag, backing[:room])
		if !errors.Is(err, core.ErrTruncated) || st.Count != room || st.MessageLen != total || !st.Truncated {
			return fmt.Errorf("truncating receive: status %+v, err %v", st, err)
		}
		if !bytes.Equal(backing[:room], big[:room]) || !bytes.Equal(backing[room:], make([]byte, 64)) {
			return fmt.Errorf("truncating receive: the buffer is not the message's first %d bytes, or bytes behind it were written", room)
		}
		st, err = c.Recv(th, 0, tag, nil)
		if !errors.Is(err, core.ErrTruncated) || st.Count != 0 || st.MessageLen != total {
			return fmt.Errorf("receive with no room: status %+v, err %v", st, err)
		}
		return nil
	})
}

// conformBufferOwnership: the send buffer is the caller's again the moment
// Isend returns for an eager message and the moment Wait returns for a
// rendezvous — whatever the runtime still needs by then it has copied. The
// sender overwrites the buffer at exactly those instants. An eager receive is
// posted only after a second message says the overwrite happened, so the
// payload has sat in a packet queue, a pending wire buffer or the unexpected
// queue across it; a rendezvous receive is posted up front (the send cannot
// complete without it) and checked once it completes. The receiver must see
// the original bytes every time.
func conformBufferOwnership(t *testing.T, h *harness) {
	const (
		rounds  = 4
		dataTag = 61
		goTag   = 62
	)
	sizes := []int{0, 8, 4 << 10, 64 << 10}
	eagerLimit := h.procs[0].World().Options().EagerLimit
	if eagerLimit < sizes[2] || eagerLimit >= sizes[3] {
		t.Fatalf("eager limit %d: the sizes no longer straddle it", eagerLimit)
	}
	pattern := func(size, round int) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(i*7 + size + round)
		}
		return b
	}
	run2(t, h, func(rank int, th *core.Thread) error {
		c := h.comms[rank]
		// A damaged payload is reported at the end: the sender is blocked on
		// this side's receives, so bailing out mid-protocol would hang it.
		var damaged error
		for _, size := range sizes {
			eager := size <= eagerLimit
			for round := 0; round < rounds; round++ {
				want := pattern(size, round)
				if rank == 0 {
					buf := append([]byte(nil), want...)
					req, err := c.Isend(th, 1, dataTag, buf)
					if err != nil {
						return err
					}
					if !eager {
						if err := req.Wait(th); err != nil {
							return err
						}
					}
					for i := range buf {
						buf[i] = ^buf[i]
					}
					if err := c.Send(th, 1, goTag, nil); err != nil {
						return err
					}
					if err := req.Wait(th); err != nil {
						return err
					}
					continue
				}
				got := make([]byte, size)
				var rreq *core.Request
				var err error
				if !eager {
					if rreq, err = c.Irecv(th, 0, dataTag, got); err != nil {
						return err
					}
				}
				if _, err := c.Recv(th, 0, goTag, nil); err != nil {
					return err
				}
				if eager {
					if rreq, err = c.Irecv(th, 0, dataTag, got); err != nil {
						return err
					}
				}
				if err := rreq.Wait(th); err != nil {
					return err
				}
				if st := rreq.Status(); damaged == nil && (st.Count != size || st.Truncated) {
					damaged = fmt.Errorf("%d bytes round %d: status %+v", size, round, st)
				}
				if damaged == nil && !bytes.Equal(got, want) {
					damaged = fmt.Errorf("%d bytes round %d: receiver saw the sender's later overwrite of its buffer", size, round)
				}
			}
		}
		return damaged
	})
}

// conformAnyTagOvertaking: with mpi_assert_allow_overtaking, ANY_TAG
// receives complete in whatever order messages arrive; every payload is
// delivered exactly once.
func conformAnyTagOvertaking(t *testing.T, h *harness) {
	comms, err := h.newComm(core.Info{AllowOvertaking: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	run2(t, h, func(rank int, th *core.Thread) error {
		c := comms[rank]
		if rank == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(th, 1, int32(100+i), []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		seen := make(map[int32]byte)
		for i := 0; i < n; i++ {
			buf := make([]byte, 1)
			st, err := c.Recv(th, 0, core.AnyTag, buf)
			if err != nil {
				return err
			}
			if _, dup := seen[st.Tag]; dup {
				return fmt.Errorf("tag %d delivered twice", st.Tag)
			}
			seen[st.Tag] = buf[0]
		}
		for i := 0; i < n; i++ {
			tag := int32(100 + i)
			if got, ok := seen[tag]; !ok || got != byte(i) {
				return fmt.Errorf("tag %d: got payload %d (present=%v), want %d", tag, got, ok, i)
			}
		}
		return nil
	})
}

// conformNoWildcards: a communicator asserting NoWildcards matches on the
// sharded engine with the semantics of the list engine — FIFO per channel,
// the rendezvous protocol, exactly-once delivery under overtaking — and Fig.
// 4's ANY_TAG receive is refused with ErrWildcard before anything is posted,
// so nothing waits on it.
func conformNoWildcards(t *testing.T, h *harness) {
	asserted := func(t *testing.T, info core.Info) *harness {
		t.Helper()
		info.NoWildcards = true
		comms, err := h.newComm(info)
		if err != nil {
			t.Fatal(err)
		}
		a := *h
		a.comms = comms
		return &a
	}
	t.Run("FIFO", func(t *testing.T) { conformEager(t, asserted(t, core.Info{})) })
	t.Run("Rendezvous", func(t *testing.T) { conformRendezvous(t, asserted(t, core.Info{})) })
	t.Run("Overtaking", func(t *testing.T) {
		a := asserted(t, core.Info{AllowOvertaking: true})
		const n = 8
		run2(t, a, func(rank int, th *core.Thread) error {
			c := a.comms[rank]
			if rank == 0 {
				for i := 0; i < n; i++ {
					if err := c.Send(th, 1, int32(100+i), []byte{byte(i)}); err != nil {
						return err
					}
				}
				return nil
			}
			// Posted against the send order: each message still finds the one
			// receive of its channel.
			bufs := make([][]byte, n)
			reqs := make([]*core.Request, n)
			for i := n - 1; i >= 0; i-- {
				bufs[i] = make([]byte, 1)
				req, err := c.Irecv(th, 0, int32(100+i), bufs[i])
				if err != nil {
					return err
				}
				reqs[i] = req
			}
			if err := core.WaitAll(th, reqs...); err != nil {
				return err
			}
			for i, b := range bufs {
				if st := reqs[i].Status(); st.Tag != int32(100+i) || b[0] != byte(i) {
					return fmt.Errorf("tag %d: status %+v payload %d", 100+i, st, b[0])
				}
			}
			return nil
		})
	})
	t.Run("AnyTagRefused", func(t *testing.T) {
		a := asserted(t, core.Info{AllowOvertaking: true})
		th := a.procs[1].NewThread()
		if req, err := a.comms[1].Irecv(th, 0, core.AnyTag, make([]byte, 1)); !errors.Is(err, core.ErrWildcard) || req != nil {
			t.Fatalf("ANY_TAG receive on an asserted communicator = %v, %v; want ErrWildcard", req, err)
		}
		if pr, err := a.comms[1].RecvInit(int(core.AnySource), 0, nil); !errors.Is(err, core.ErrWildcard) || pr != nil {
			t.Fatalf("ANY_SOURCE persistent receive on an asserted communicator = %v, %v; want ErrWildcard", pr, err)
		}
	})
}

// conformPersistent: Start/Wait cycles of persistent requests deliver the
// buffer's current contents each incarnation.
func conformPersistent(t *testing.T, h *harness) {
	const rounds = 16
	run2(t, h, func(rank int, th *core.Thread) error {
		c := h.comms[rank]
		if rank == 0 {
			buf := make([]byte, 4)
			ps, err := c.SendInit(1, 21, buf)
			if err != nil {
				return err
			}
			for i := 0; i < rounds; i++ {
				buf[0], buf[1], buf[2], buf[3] = byte(i), byte(i+1), byte(i+2), byte(i+3)
				if err := ps.Start(th); err != nil {
					return err
				}
				if err := ps.Wait(th); err != nil {
					return err
				}
			}
			return nil
		}
		buf := make([]byte, 4)
		pr, err := c.RecvInit(0, 21, buf)
		if err != nil {
			return err
		}
		for i := 0; i < rounds; i++ {
			if err := pr.Start(th); err != nil {
				return err
			}
			st, err := pr.Wait(th)
			if err != nil {
				return err
			}
			if st.Count != 4 || buf[0] != byte(i) || buf[3] != byte(i+3) {
				return fmt.Errorf("round %d: count=%d buf=%v", i, st.Count, buf)
			}
		}
		return nil
	})
}

// conformWaitAny: WaitAny returns an index whose request is done; waiting
// out the rest completes every posted receive.
func conformWaitAny(t *testing.T, h *harness) {
	run2(t, h, func(rank int, th *core.Thread) error {
		c := h.comms[rank]
		if rank == 0 {
			// Send in reverse tag order so the matching order is not simply
			// the posting order.
			for _, tag := range []int32{33, 32, 31} {
				if err := c.Send(th, 1, tag, []byte{byte(tag)}); err != nil {
					return err
				}
			}
			return nil
		}
		bufs := [3][]byte{make([]byte, 1), make([]byte, 1), make([]byte, 1)}
		reqs := make([]*core.Request, 3)
		for i, tag := range []int32{31, 32, 33} {
			r, err := c.Irecv(th, 0, tag, bufs[i])
			if err != nil {
				return err
			}
			reqs[i] = r
		}
		// Wait the set dry one completion at a time, mapping each live slot
		// back to its original index to validate status and payload.
		live := append([]*core.Request(nil), reqs...)
		origIdx := []int{0, 1, 2}
		for len(live) > 0 {
			idx, err := core.WaitAny(th, live...)
			if err != nil {
				return err
			}
			orig := origIdx[idx]
			wantTag := int32(31 + orig)
			if st := live[idx].Status(); st.Tag != wantTag || bufs[orig][0] != byte(wantTag) {
				return fmt.Errorf("request %d: status=%+v payload=%d", orig, st, bufs[orig][0])
			}
			live = append(live[:idx], live[idx+1:]...)
			origIdx = append(origIdx[:idx], origIdx[idx+1:]...)
		}
		return nil
	})
}

// conformIsendPastQueueDepth: one thread posts four completion queues'
// worth of sends before it waits on any. Nobody else polls an instance the
// sender holds, so the backend refuses the send that finds its completion
// queue full instead of waiting for room (transport.ErrCQFull), and the
// sender drains its own instance and retries: every message arrives once, in
// order, and WaitAll returns.
func conformIsendPastQueueDepth(t *testing.T, h *harness) {
	const n = 4 * 4096 // four times the default Options.QueueDepth
	run2(t, h, func(rank int, th *core.Thread) error {
		c := h.comms[rank]
		if rank == 0 {
			reqs := make([]*core.Request, n)
			for i := range reqs {
				var buf [8]byte
				binary.LittleEndian.PutUint64(buf[:], uint64(i))
				r, err := c.Isend(th, 1, 9, buf[:])
				if err != nil {
					return fmt.Errorf("isend %d: %w", i, err)
				}
				reqs[i] = r
			}
			return core.WaitAll(th, reqs...)
		}
		buf := make([]byte, 8)
		for i := 0; i < n; i++ {
			st, err := c.Recv(th, 0, 9, buf)
			if err != nil {
				return err
			}
			if got := binary.LittleEndian.Uint64(buf); st.Count != 8 || got != uint64(i) {
				return fmt.Errorf("message %d: got %d (%d bytes)", i, got, st.Count)
			}
		}
		return nil
	})
}

// conformSPCRollup: the two independent counter roll-up paths — the
// benchmark-facing SPCSnapshot and the observability-facing TelemetryStats
// attribution (residual + per-CRI + per-communicator) — must agree exactly
// at quiescence, with the attributed children accounting for the traffic
// just driven. Backends must not differ: the same invariant holds whether
// the counters were fed by the simulated fabric or the TCP wire.
func conformSPCRollup(t *testing.T, h *harness) {
	const n = 24
	before := h.procs[0].SPCSnapshot()[spc.MessagesSent]
	run2(t, h, func(rank int, th *core.Thread) error {
		c := h.comms[rank]
		if rank == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(th, 1, 91, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		buf := make([]byte, 1)
		for i := 0; i < n; i++ {
			if _, err := c.Recv(th, 0, 91, buf); err != nil {
				return err
			}
		}
		return nil
	})
	for rank, p := range h.procs {
		ps := p.TelemetryStats()
		merged := ps.MergeChildren()
		if ps.Process != merged {
			t.Errorf("rank %d: Process roll-up diverges from Merge(Residual, PerCRI..., PerComm...)", rank)
		}
		if snap := p.SPCSnapshot(); snap != merged {
			t.Errorf("rank %d: SPCSnapshot disagrees with attributed roll-up:\nsnapshot: %v\nattributed: %v",
				rank, snap, merged)
		}
		if len(ps.PerCRI) == 0 {
			t.Errorf("rank %d: no per-CRI attribution with telemetry on", rank)
		}
	}
	if sent := h.procs[0].SPCSnapshot()[spc.MessagesSent]; sent < before+n {
		t.Errorf("sender messages_sent=%d, want >= %d", sent, before+n)
	}
}

// conformFlightRecord: with the recorder flying, a round of traffic leaves
// both ranks with a coherent flight record — send posts on the sender,
// matching activity on the receiver, events in publication order — and a
// sane introspection snapshot, identically over the simulated fabric and
// the TCP wire.
func conformFlightRecord(t *testing.T, h *harness) {
	const n = 16
	run2(t, h, func(rank int, th *core.Thread) error {
		c := h.comms[rank]
		if rank == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(th, 1, 55, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		buf := make([]byte, 1)
		for i := 0; i < n; i++ {
			if _, err := c.Recv(th, 0, 55, buf); err != nil {
				return err
			}
		}
		return nil
	})
	for rank, p := range h.procs {
		rec := p.FlightRecord()
		if rec.Rank != rank {
			t.Errorf("record rank = %d, want %d", rec.Rank, rank)
		}
		if len(rec.Events) == 0 {
			t.Fatalf("rank %d: empty flight record with recorder on", rank)
		}
		kinds := make(map[flight.Kind]int)
		for i, e := range rec.Events {
			kinds[e.Kind]++
			if i > 0 && e.Seq <= rec.Events[i-1].Seq {
				t.Fatalf("rank %d: merged record out of publication order at %d", rank, i)
			}
		}
		if rank == 0 && kinds[flight.KindSendPost] < n {
			t.Errorf("sender record has %d send_post events, want >= %d", kinds[flight.KindSendPost], n)
		}
		if rank == 1 && kinds[flight.KindMatchHit]+kinds[flight.KindUnexpDeq] == 0 {
			t.Errorf("receiver record has no matching activity: %v", kinds)
		}
		qs := p.QueueSnapshot()
		if qs.Rank != rank || len(qs.Comms) == 0 || len(qs.CRIs) == 0 {
			t.Errorf("rank %d: snapshot incomplete: %+v", rank, qs)
		}
	}
}
