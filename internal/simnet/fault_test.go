package simnet

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/bench/multirate"
	"repro/internal/match"
	"repro/internal/spc"
	"repro/internal/transport"
)

func faultCfg(pairs int) multirate.Config {
	cfg := baseCfg(pairs)
	cfg.Faults = transport.FaultConfig{Drop: 0.05, Dup: 0.05, Delay: 0.05, Seed: 9}
	return cfg
}

func TestMultirateWithFaultsCompletes(t *testing.T) {
	cfg := faultCfg(4)
	res := RunMultirate(cfg, Model{})
	want := int64(4 * 64 * 4)
	if res.Messages != want {
		t.Fatalf("Messages = %d, want %d (every message must complete despite faults)", res.Messages, want)
	}
	if got := res.SPCs.Get(spc.FaultPacketsDropped); got == 0 {
		t.Error("no drops injected at Faults.Drop=0.05")
	}
	if got := res.SPCs.Get(spc.FaultPacketsDuplicated); got == 0 {
		t.Error("no duplications injected at Faults.Dup=0.05")
	}
	if got := res.SPCs.Get(spc.FaultPacketsDelayed); got == 0 {
		t.Error("no delays injected at Faults.Delay=0.05")
	}
	if got := res.SPCs.Get(spc.Retransmits); got == 0 {
		t.Error("drops occurred but no retransmissions were modeled")
	}
	// Duplicate deliveries must be absorbed by matching-layer dedup.
	if got := res.SPCs.Get(spc.DuplicateSequences); got == 0 {
		t.Error("duplicated packets were not discarded by sequence dedup")
	}
}

func TestMultirateWithFaultsDeterministic(t *testing.T) {
	cfg := faultCfg(4)
	a, b := RunMultirate(cfg, Model{}), RunMultirate(cfg, Model{})
	if a.Makespan != b.Makespan {
		t.Fatalf("nondeterministic faulty makespan: %v vs %v", a.Makespan, b.Makespan)
	}
	if a.SPCs.Get(spc.FaultPacketsDropped) != b.SPCs.Get(spc.FaultPacketsDropped) {
		t.Fatal("nondeterministic drop count for identical seeds")
	}
	c := cfg
	c.Faults.Seed = 10
	if d := RunMultirate(c, Model{}); d.SPCs.Get(spc.FaultPacketsDropped) == a.SPCs.Get(spc.FaultPacketsDropped) &&
		d.Makespan == a.Makespan {
		t.Fatal("different fault seed reproduced the identical run")
	}
}

func TestMultirateFaultsCostTime(t *testing.T) {
	clean := baseCfg(4)
	faulty := faultCfg(4)
	rc, rf := RunMultirate(clean, Model{}), RunMultirate(faulty, Model{})
	if rf.Makespan <= rc.Makespan {
		t.Fatalf("faulty wire makespan %v not above clean %v (retransmit RTOs cost virtual time)",
			rf.Makespan, rc.Makespan)
	}
}

// TestValidateRefusesScramble: the model has no scrambler, so a scrambled
// wire is refused up front rather than run as a FIFO one.
func TestValidateRefusesScramble(t *testing.T) {
	cfg := faultCfg(1)
	if err := Validate(cfg); err != nil {
		t.Fatalf("faulty config refused: %v", err)
	}
	cfg.Faults.ScrambleWindow = 8
	if err := Validate(cfg); err == nil {
		t.Fatal("a scramble window was accepted by a model that cannot scramble")
	}
}

// TestValidateRefusesWhatTheModelDoesNotModel: each configuration the
// runtime's harness runs but the model does not is refused, naming the
// field, rather than run as something else (the scrambler has its own test
// above).
func TestValidateRefusesWhatTheModelDoesNotModel(t *testing.T) {
	for _, tc := range []struct {
		field string
		edit  func(*multirate.Config)
	}{
		{"Pattern", func(c *multirate.Config) { c.Pattern = multirate.Incast }},
		{"WorldSize", func(c *multirate.Config) { c.WorldSize = 4 }},
		{"StallRank", func(c *multirate.Config) { c.StallRank = 1 }},
	} {
		cfg := baseCfg(2)
		if err := Validate(cfg); err != nil {
			t.Fatalf("pairwise config refused: %v", err)
		}
		tc.edit(&cfg)
		if err := Validate(cfg); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Validate = %v, want a refusal naming the field", tc.field, err)
		}
	}
	cfg := baseCfg(2)
	cfg.NoWildcards, cfg.AnyTag = true, true
	if err := Validate(cfg); !errors.Is(err, match.ErrWildcard) {
		t.Errorf("wildcard receives on an asserted communicator: Validate = %v, want the runtime's wildcard error", err)
	}
}
