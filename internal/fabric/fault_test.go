package fabric

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/spc"
	"repro/internal/transport"
)

// faultPair builds two devices of a network faulty by cfg (faults act on
// the sending side) and returns a sender->receiver endpoint, both contexts and the
// counter set the injector records into.
func faultPair(t *testing.T, cfg transport.FaultConfig) (ep transport.Endpoint, src, dst transport.Context, s *spc.Set) {
	t.Helper()
	s = spc.NewSet()
	ep, src, dst = newPair(t, NewFaultyNetwork(cfg), transport.DeviceConfig{Counters: s})
	return ep, src, dst, s
}

// drain polls dst a fixed number of rounds and returns how many inbound
// packets arrived.
func drain(dst transport.Context, rounds int) int {
	got := 0
	for i := 0; i < rounds; i++ {
		dst.Poll(func(e transport.CQE) {
			if e.Kind == transport.CQERecv {
				got++
			}
		}, 64)
	}
	return got
}

func TestFaultInjectorDisabledIsNil(t *testing.T) {
	if f := newFaultInjector(transport.FaultConfig{}, spc.NewSet()); f != nil {
		t.Fatal("zero FaultConfig must yield a nil injector")
	}
	if f := newFaultInjector(transport.FaultConfig{Drop: 0.5}, nil); f == nil {
		t.Fatal("non-zero drop probability must yield an injector (nil spcs is allowed)")
	}
}

func TestFaultDropAll(t *testing.T) {
	ep, src, dst, s := faultPair(t, transport.FaultConfig{Drop: 1})
	const n = 16
	for i := 0; i < n; i++ {
		ep.Send(eager(uint32(i)))
	}
	if got := drain(dst, 4); got != 0 {
		t.Fatalf("Drop=1 delivered %d packets, want 0", got)
	}
	if c := s.Get(spc.FaultPacketsDropped); c != n {
		t.Fatalf("FaultPacketsDropped = %d, want %d", c, n)
	}
	// The sender still sees local send completions, like real hardware.
	sends := 0
	src.Poll(func(e transport.CQE) {
		if e.Kind == transport.CQESendComplete {
			sends++
		}
	}, 64)
	if sends != n {
		t.Fatalf("sender saw %d send completions, want %d", sends, n)
	}
}

func TestFaultDupAll(t *testing.T) {
	ep, _, dst, s := faultPair(t, transport.FaultConfig{Dup: 1})
	const n = 8
	for i := 0; i < n; i++ {
		ep.Send(eager(uint32(i)))
	}
	if got := drain(dst, 4); got != 2*n {
		t.Fatalf("Dup=1 delivered %d packets, want %d", got, 2*n)
	}
	if c := s.Get(spc.FaultPacketsDuplicated); c != n {
		t.Fatalf("FaultPacketsDuplicated = %d, want %d", c, n)
	}
}

func TestFaultDelayReleasedByPoll(t *testing.T) {
	ep, _, dst, s := faultPair(t, transport.FaultConfig{Delay: 1, DelayDur: time.Millisecond})
	ep.Send(eager(0))
	if !dst.Pending() {
		t.Fatal("a delayed packet must keep the context Pending")
	}
	if got := drain(dst, 1); got != 0 {
		t.Fatal("packet delivered before its hold time elapsed")
	}
	time.Sleep(2 * time.Millisecond)
	if got := drain(dst, 2); got != 1 {
		t.Fatalf("delayed packet not released after hold time: got %d", got)
	}
	if c := s.Get(spc.FaultPacketsDelayed); c != 1 {
		t.Fatalf("FaultPacketsDelayed = %d, want 1", c)
	}
	if dst.Pending() {
		t.Fatal("context still Pending after the delayed packet drained")
	}
}

// TestFaultDeterministicSeed checks that two injectors with the same seed
// make identical per-packet decisions, and a different seed diverges.
func TestFaultDeterministicSeed(t *testing.T) {
	roll := func(seed int64) []bool {
		f := newFaultInjector(transport.FaultConfig{Drop: 0.5, Seed: seed}, nil)
		out := make([]bool, 256)
		for i := range out {
			out[i] = f.judge().drop
		}
		return out
	}
	a, b, c := roll(42), roll(42), roll(43)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at packet %d", i)
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical fault sequences")
	}
}

// TestFaultyNetworkSeedsPerRank: a faulty network gives rank r's injector
// and scrambler the seed Seed+r (Seed 0 counting as 1), so every rank draws
// its own stream and a run replays from the one seed. The clean network
// builds neither and advertises Lossless; the faulty one does not, even
// with every probability zero.
func TestFaultyNetworkSeedsPerRank(t *testing.T) {
	if caps := NewNetwork().Caps(); !caps.Lossless {
		t.Fatalf("clean fabric caps = %v, want lossless", caps)
	}
	if caps := NewFaultyNetwork(transport.FaultConfig{}).Caps(); caps.Lossless {
		t.Fatalf("faulty fabric caps = %v, want not lossless", caps)
	}
	clean := newDevice(t, NewNetwork(), 0, hw.Fast(), transport.DeviceConfig{}).(*Device)
	if clean.faults != nil || clean.scrambler != nil {
		t.Fatal("the clean fabric built an adversary")
	}
	for _, seed := range []int64{0, 42} {
		n := NewFaultyNetwork(transport.FaultConfig{Drop: 0.5, ScrambleWindow: 4, Seed: seed})
		for rank := range 3 {
			d := newDevice(t, n, rank, hw.Fast(), transport.DeviceConfig{}).(*Device)
			want := max(seed, 1) + int64(rank)
			ref := rand.New(rand.NewSource(want))
			if got, exp := d.faults.rng.Int63(), ref.Int63(); got != exp {
				t.Errorf("seed %d rank %d: injector draws %d, want the stream of seed %d (%d)", seed, rank, got, want, exp)
			}
			ref = rand.New(rand.NewSource(want))
			if got, exp := d.scrambler.rng.Int63(), ref.Int63(); got != exp {
				t.Errorf("seed %d rank %d: scrambler draws %d, want the stream of seed %d (%d)", seed, rank, got, want, exp)
			}
		}
	}
}
