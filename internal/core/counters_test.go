package core

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/spc"
	"repro/internal/transport"
)

// engineInfos are the communicator assertions that select each matching
// engine: the list engine, and the sharded one behind NoWildcards.
var engineInfos = map[string]Info{"list": {}, "sharded": {NoWildcards: true}}

// The matching engines count in plain words under their own locks, and the
// counters are read under the same locks: a goroutine taking SPCSnapshot and
// TelemetryStats in a loop while eager, unexpected and out-of-sequence
// traffic streams through one instance's eager runs races with nothing (the
// race detector watches), and the totals come out exact.
func TestCountersExactUnderSnapshots(t *testing.T) {
	for name, info := range engineInfos {
		t.Run(name, func(t *testing.T) { countersExact(t, info) })
	}
}

func countersExact(t *testing.T, info Info) {
	const blocks = 64
	w := newTestWorld(t, 2, Stock())
	comms, err := w.NewCommWithInfo([]int{0, 1}, info)
	if err != nil {
		t.Fatal(err)
	}
	p, c := w.Proc(1), comms[1]
	th := p.NewThread()
	in, run := p.pool.Get(0), p.runs[0]

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = p.SPCSnapshot()
			_ = p.TelemetryStats()
			runtime.Gosched()
		}
	}()

	post := func() []*Request {
		reqs := make([]*Request, 4)
		for i := range reqs {
			var err error
			if reqs[i], err = c.Irecv(th, 0, 3, nil); err != nil {
				t.Fatal(err)
			}
		}
		return reqs
	}
	// Each block of four arrives as s+1, s, s+3, s+2 in one pass: two of the
	// four are out of sequence. Even blocks find their receives posted, odd
	// blocks are claimed from the unexpected queue afterwards.
	arrive := func(s uint32) {
		in.Lock()
		for _, seq := range []uint32{s + 1, s, s + 3, s + 2} {
			env := transport.Envelope{Src: 0, Dst: 1, Tag: 3, Comm: c.id, Seq: seq, Kind: transport.KindEager}
			p.deliver(nil, in, transport.NewPacket(env, nil, nil), run)
		}
		p.flush(run)
		in.Unlock()
	}
	for b := uint32(0); b < blocks; b++ {
		var reqs []*Request
		if b%2 == 0 {
			reqs = post()
			arrive(4 * b)
		} else {
			arrive(4 * b)
			reqs = post()
		}
		for i, r := range reqs {
			if !r.Done() {
				t.Fatalf("block %d receive %d not complete", b, i)
			}
		}
	}
	close(stop)
	wg.Wait()

	const msgs = 4 * blocks
	snap := p.SPCSnapshot()
	if ps := p.TelemetryStats(); ps.Process != snap {
		t.Errorf("TelemetryStats().Process disagrees with SPCSnapshot:\n%v\n%v", ps.Process, snap)
	}
	for _, tc := range []struct {
		what      string
		got, want int64
	}{
		{"messages_received", snap[spc.MessagesReceived], msgs},
		{"expected_messages", snap[spc.ExpectedMessages], msgs / 2},
		{"expected + unexpected", snap[spc.ExpectedMessages] + snap[spc.UnexpectedMessages], msgs},
		{"match_attempts", snap[spc.MatchAttempts], 2 * msgs},
		{"out_of_sequence", snap[spc.OutOfSequence], msgs / 2},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %d, want %d", tc.what, tc.got, tc.want)
		}
	}
}

// Freeing a communicator keeps what its matching engine counted in the
// process totals: the retired snapshot is the communicator's merged one,
// not its own set alone, which holds no received message.
func TestFreeKeepsEngineCounts(t *testing.T) {
	for name, info := range engineInfos {
		t.Run(name, func(t *testing.T) {
			const n = 16
			w := newTestWorld(t, 2, Stock())
			comms, err := w.NewCommWithInfo([]int{0, 1}, info)
			if err != nil {
				t.Fatal(err)
			}
			t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
			for i := 0; i < n; i++ {
				rreq, err := comms[1].Irecv(t1, 0, 4, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := comms[0].Send(t0, 1, 4, nil); err != nil {
					t.Fatal(err)
				}
				if err := rreq.Wait(t1); err != nil {
					t.Fatal(err)
				}
			}
			p := w.Proc(1)
			before := p.SPCSnapshot()
			if got := before[spc.MessagesReceived]; got != n {
				t.Fatalf("messages_received = %d before Free, want %d", got, n)
			}
			comms[1].Free()
			after := p.SPCSnapshot()
			for _, k := range []spc.Counter{spc.MessagesReceived, spc.MatchAttempts, spc.ExpectedMessages, spc.UnexpectedMessages} {
				if after[k] != before[k] {
					t.Errorf("%s = %d after Free, %d before", k, after[k], before[k])
				}
			}
		})
	}
}

// A progress pass that finds 64 eager arrivals for posted receives matches
// them as one run and allocates nothing: the run's packet and completion
// slices are the instance's, reused pass after pass.
func TestEagerRunAllocations(t *testing.T) {
	const batch, runs = 64, 50
	w := newTestWorld(t, 2, Stock())
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	c0, c1 := w.Proc(0).CommWorld(), w.Proc(1).CommWorld()
	sreqs, rreqs := make([]*Request, batch), make([]*Request, batch)
	var mallocs uint64
	for r := 0; r <= runs; r++ {
		var err error
		for i := range rreqs {
			if rreqs[i], err = c1.Irecv(t1, 0, 2, nil); err != nil {
				t.Fatal(err)
			}
		}
		for i := range sreqs {
			if sreqs[i], err = c0.Isend(t0, 1, 2, nil); err != nil {
				t.Fatal(err)
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		n := t1.Progress()
		runtime.ReadMemStats(&m1)
		if n != batch {
			t.Fatalf("pass handled %d events, want %d", n, batch)
		}
		if r > 0 { // the first pass sizes the run's slices
			mallocs += m1.Mallocs - m0.Mallocs
		}
		for i, rr := range rreqs {
			if !rr.Done() {
				t.Fatalf("receive %d not complete after the pass", i)
			}
		}
		if err := WaitAll(t0, sreqs...); err != nil {
			t.Fatal(err)
		}
	}
	// A whole-number average, as testing.AllocsPerRun takes it: a stray
	// allocation of another goroutine during one pass does not count.
	got := float64(mallocs / runs)
	t.Logf("allocs-pin | %-46s | %5.2f | %5.2f", "core progress pass of 64 eager arrivals (sim)", got, 0.0)
	if got > 0 {
		t.Errorf("a pass of %d eager arrivals allocates %v times, pinned at 0", batch, got)
	}
}
