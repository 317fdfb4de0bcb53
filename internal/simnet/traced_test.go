package simnet

import (
	"testing"

	"repro/internal/bench/multirate"
	"repro/internal/hw"
)

// The trace-context extension must cost wire time on the virtual fabric
// exactly like it does on the real one: a traced sweep is deterministically
// reproducible and never faster than the untraced twin.
func TestTracedWireCost(t *testing.T) {
	base := multirate.Config{Machine: hw.Fast(), Pairs: 4, Window: 32, Iters: 4, MsgSize: 64}

	plain := RunMultirate(base, Model{})
	traced := base
	traced.Opts.TraceWire = true
	on := RunMultirate(traced, Model{})
	on2 := RunMultirate(traced, Model{})

	if on.Makespan != on2.Makespan || on.Messages != on2.Messages {
		t.Fatalf("traced run not deterministic: %v/%d vs %v/%d",
			on.Makespan, on.Messages, on2.Makespan, on2.Messages)
	}
	if on.Messages != plain.Messages {
		t.Fatalf("traced run moved %d messages, untraced %d", on.Messages, plain.Messages)
	}
	if on.Makespan < plain.Makespan {
		t.Fatalf("traced makespan %v beat untraced %v despite extra header bytes",
			on.Makespan, plain.Makespan)
	}
}
