package hw

import (
	"strings"
	"testing"
	"time"
)

func TestMachinePresets(t *testing.T) {
	cases := []struct {
		m        Machine
		cores    int
		contexts int
	}{
		{AlembertHaswell(), 20, 20},
		{TrinititeHaswell(), 32, 32},
		{TrinititeKNL(), 64, 72},
	}
	for _, c := range cases {
		if c.m.Cores != c.cores {
			t.Errorf("%s: Cores = %d, want %d", c.m.Name, c.m.Cores, c.cores)
		}
		if c.m.DefaultContexts != c.contexts {
			t.Errorf("%s: DefaultContexts = %d, want %d", c.m.Name, c.m.DefaultContexts, c.contexts)
		}
		if c.m.Costs.SendInject <= 0 {
			t.Errorf("%s: zero SendInject cost", c.m.Name)
		}
	}
}

// TestMachineByName: every testbed resolves from its command-line name and
// from its own Name, and an unknown name errors.
func TestMachineByName(t *testing.T) {
	for short, want := range map[string]Machine{
		"alembert": AlembertHaswell(), "trinitite": TrinititeHaswell(),
		"knl": TrinititeKNL(), "fast": Fast(),
	} {
		for _, name := range []string{short, want.Name} {
			if got, err := MachineByName(name); err != nil || got != want {
				t.Errorf("MachineByName(%q) = %v, %v; want %v", name, got, err, want)
			}
		}
	}
	if _, err := MachineByName("cray-1"); err == nil {
		t.Error("MachineByName accepted an unknown name")
	}
}

func TestKNLSlowerThanHaswell(t *testing.T) {
	knl := TrinititeKNL().Scaled()
	has := TrinititeHaswell().Scaled()
	if knl.SendInject <= has.SendInject {
		t.Fatalf("KNL SendInject %v not slower than Haswell %v", knl.SendInject, has.SendInject)
	}
	if knl.MatchPerElement <= has.MatchPerElement {
		t.Fatal("KNL MatchPerElement not slower than Haswell")
	}
}

func TestScaledAppliesFactor(t *testing.T) {
	m := AlembertHaswell()
	m.SpeedFactor = 2.0
	sc := m.Scaled()
	if sc.SendInject != 2*m.Costs.SendInject {
		t.Fatalf("Scaled SendInject = %v, want %v", sc.SendInject, 2*m.Costs.SendInject)
	}
	if sc.RMAFlushPerInstance != 2*m.Costs.RMAFlushPerInstance {
		t.Fatal("Scaled did not scale RMAFlushPerInstance")
	}
}

func TestPeakMessageRate(t *testing.T) {
	m := AlembertHaswell()
	// Zero-byte messages: capped by the injection-rate limit, not bandwidth.
	if got := m.PeakMessageRate(0); got != 13e6 {
		t.Fatalf("PeakMessageRate(0) = %g, want EDR injection cap 13e6", got)
	}
	if got := TrinititeHaswell().PeakMessageRate(0); got != 30e6 {
		t.Fatalf("Aries PeakMessageRate(0) = %g, want 30e6", got)
	}
	// 16 KiB messages: bandwidth-bound. 12.5 GB/s / (16384+28) B.
	want := 12.5e9 / 16412
	if got := m.PeakMessageRate(16384); got < want*0.99 || got > want*1.01 {
		t.Fatalf("PeakMessageRate(16384) = %g, want ~%g", got, want)
	}
	// Monotone non-increasing in size.
	prev := m.PeakMessageRate(1)
	for _, s := range []int{128, 1024, 4096, 16384} {
		cur := m.PeakMessageRate(s)
		if cur > prev {
			t.Fatalf("peak rate increased from %g to %g at size %d", prev, cur, s)
		}
		prev = cur
	}
}

func TestByteNanos(t *testing.T) {
	m := AlembertHaswell()
	if got := m.ByteNanos(); got != 0.08 {
		t.Fatalf("ByteNanos = %v, want 0.08 (100 Gbps)", got)
	}
	if Fast().ByteNanos() != 0 {
		t.Fatal("Fast machine should have zero wire cost")
	}
}

func TestFastMachineZeroCosts(t *testing.T) {
	c := Fast().Scaled()
	if c.SendInject != 0 || c.MatchBase != 0 || c.RMAPut != 0 {
		t.Fatalf("Fast() has non-zero costs: %+v", c)
	}
}

func TestMachineString(t *testing.T) {
	s := TrinititeKNL().String()
	for _, want := range []string{"trinitite-knl", "64 cores", "72 contexts"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestSpinZeroIsFree(t *testing.T) {
	start := time.Now()
	for i := 0; i < 1_000_000; i++ {
		Spin(0)
	}
	if e := time.Since(start); e > 100*time.Millisecond {
		t.Fatalf("1M Spin(0) calls took %v; should be branch-only", e)
	}
}

func TestSpinApproximatesDuration(t *testing.T) {
	for _, d := range []time.Duration{time.Microsecond, 50 * time.Microsecond} {
		start := time.Now()
		Spin(d)
		elapsed := time.Since(start)
		if elapsed < d/2 {
			t.Errorf("Spin(%v) returned after only %v", d, elapsed)
		}
		if elapsed > 100*d+time.Millisecond {
			t.Errorf("Spin(%v) took %v, far over target", d, elapsed)
		}
	}
}

func TestSpinShortPath(t *testing.T) {
	// Sub-200ns spins use the calibrated loop; just verify they terminate
	// promptly and do not panic.
	start := time.Now()
	for i := 0; i < 10000; i++ {
		Spin(100 * time.Nanosecond)
	}
	if e := time.Since(start); e > time.Second {
		t.Fatalf("10k short spins took %v", e)
	}
}

func BenchmarkSpin350ns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Spin(350 * time.Nanosecond)
	}
}
