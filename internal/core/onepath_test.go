package core

import (
	"sync"
	"testing"

	"repro/internal/prof"
)

// phasesOf returns the per-phase nanoseconds of the thread clock labelled
// label in p's profile.
func phasesOf(t *testing.T, p *Proc, label string) [prof.NumPhases]int64 {
	t.Helper()
	for _, th := range p.Profiler().Snapshot().Threads {
		if th.Label == label {
			return th.Phases
		}
	}
	t.Fatalf("no thread clock %q in rank %d's profile", label, p.Rank())
	return [prof.NumPhases]int64{}
}

// TestInternalReceivePostsLikeAUserReceive pins that an internal-tag receive
// enters the engine through the same post path as Irecv: a PhaseMatch
// section on the posting thread, the matching lock taken through the quiet
// try (an acquisition on the comm's lock site, never a try-lock loss).
func TestInternalReceivePostsLikeAUserReceive(t *testing.T) {
	opts := Stock()
	opts.Profile = true
	w := newTestWorld(t, 2, opts)
	p := w.Proc(0)
	c := p.CommWorld()

	user, internal := p.NewThread(), p.NewThread() // rank0/t0, rank0/t1
	if _, err := c.Irecv(user, 1, 3, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	c.post(internal, 1, barrierTagBase, make([]byte, 1))
	user.Done()
	internal.Done()

	for _, label := range []string{"rank0/t0", "rank0/t1"} {
		if ns := phasesOf(t, p, label)[prof.PhaseMatch]; ns <= 0 {
			t.Errorf("%s: match phase = %d ns after posting a receive, want > 0", label, ns)
		}
	}
	for _, s := range p.Profiler().Snapshot().Sites {
		if s.Name == "match.comm" && s.Comm == c.ID() {
			if s.Acquisitions != 2 || s.TryFailures != 0 {
				t.Errorf("match.comm site: %d acquisitions, %d try-lock losses; want 2 and 0", s.Acquisitions, s.TryFailures)
			}
			return
		}
	}
	t.Fatal("no match.comm site for the world communicator")
}

// TestRendezvousRTSInjectsInsideWirePhase pins that the RTS goes through
// inject: a thread whose only wire activity is a rendezvous send shows time
// in the wire phase (its FIN is a control packet, outside any phase).
func TestRendezvousRTSInjectsInsideWirePhase(t *testing.T) {
	opts := Stock()
	opts.Profile = true
	w := newTestWorld(t, 2, opts)
	p0, p1 := w.Proc(0), w.Proc(1)
	big := make([]byte, 4*DefaultEagerLimit)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := p1.NewThread()
		if _, err := p1.CommWorld().Recv(th, 0, 9, make([]byte, len(big))); err != nil {
			t.Error(err)
		}
	}()
	th := p0.NewThread()
	if err := p0.CommWorld().Ssend(th, 1, 9, big); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	th.Done()
	if ns := phasesOf(t, p0, "rank0/t0")[prof.PhaseWire]; ns <= 0 {
		t.Fatalf("sender's wire phase = %d ns after a rendezvous send, want > 0", ns)
	}
}
