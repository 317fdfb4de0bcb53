// Package core implements the message-passing runtime whose internal design
// the paper studies: an MPI-like API (communicators, two-sided send/receive
// with tag matching and FIFO ordering, threading levels) built over
// Communication Resource Instances, a pluggable progress engine, and the
// per-communicator matching engine. Every design knob from the paper —
// instance count, assignment strategy, serial vs. concurrent progress,
// message overtaking — is an Option, so one binary can realize every
// configuration in Figures 3–7.
package core

import (
	"fmt"

	"repro/internal/cri"
	"repro/internal/hw"
	"repro/internal/progress"
	"repro/internal/transport"
)

// ThreadLevel mirrors the MPI threading levels negotiated at init
// (Section II-A). Only Multiple allows true thread concurrency.
type ThreadLevel int

const (
	// ThreadSingle: only one thread exists in the process.
	ThreadSingle ThreadLevel = iota
	// ThreadFunneled: only the thread that initialized may call.
	ThreadFunneled
	// ThreadSerialized: any thread may call, but never concurrently.
	ThreadSerialized
	// ThreadMultiple: full concurrency, the subject of this study.
	ThreadMultiple
)

func (l ThreadLevel) String() string {
	switch l {
	case ThreadSingle:
		return "MPI_THREAD_SINGLE"
	case ThreadFunneled:
		return "MPI_THREAD_FUNNELED"
	case ThreadSerialized:
		return "MPI_THREAD_SERIALIZED"
	case ThreadMultiple:
		return "MPI_THREAD_MULTIPLE"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Options configures one World. The zero value plus Defaults() reproduces
// stock Open MPI's threading design: a single shared instance and a serial
// progress engine.
type Options struct {
	// Network selects the transport backend. Nil picks the default
	// simulated fabric (see internal/backends). The backend's capability
	// flags adjust the stack at world construction: the reliability layer
	// runs exactly when the backend is not Lossless. A faulty wire is a
	// backend of its own (backends.Faulty), not a setting here.
	Network transport.Network
	// NumInstances is the number of Communication Resource Instances per
	// process (the MCA-parameter hint of Section III-B). 0 means 1.
	// Capped by the machine's hardware context limit.
	NumInstances int
	// Assignment is the thread-to-instance strategy (Algorithm 1).
	Assignment cri.Assignment
	// Progress selects serial (stock) or concurrent (Algorithm 2).
	Progress progress.Mode
	// ThreadLevel is the negotiated threading level; calls are checked
	// against it. Defaults to ThreadMultiple.
	ThreadLevel ThreadLevel
	// QueueDepth sizes transport queues (0 = default 4096).
	QueueDepth int
	// Telemetry attaches the latency-histogram layer (internal/telemetry):
	// match-section time, instance-lock wait, progress-pass duration, and
	// eager inject-to-match message latency, exportable in Prometheus text
	// format. Off by default; every hook is a single branch when off.
	Telemetry bool
	// TraceWire enables cross-process message-lifecycle tracing: every
	// eager send carries a deterministic trace id, origin rank, and send
	// timestamp (the transport.FlagTraced wire extension), receivers stitch
	// the lifecycle into flow-linked trace events, and the one-way-latency
	// and match-residency histograms fill (clock-corrected when the backend
	// implements transport.ClockSync). Off by default: the wire format stays
	// byte-identical to the paper-faithful framing. Pair with FlightCapacity
	// and/or Telemetry to retain what the tracing produces.
	TraceWire bool
	// Latency attaches the per-message critical-path attribution layer
	// (internal/latency): every traced message's end-to-end latency is
	// decomposed into lifecycle stages (CRI acquire, wire write, transit,
	// delivery wait, match, completion) recorded as per-stage histograms plus
	// a bounded tail-exemplar reservoir per rank, served at /debug/latency
	// and exported as mpi_latency_stage_* families. Implies TraceWire (the
	// stages are anchored on the trace extension's send stamp). Off by
	// default; every hook is a single branch when off.
	Latency bool
	// Profile attaches the contention-and-phase profiler (internal/prof):
	// every serialization point — instance locks, the serial progress lock,
	// per-communicator matching locks, the reliability window — records
	// acquisitions, contended waits, and hold time, and every Thread
	// carries a phase clock decomposing its wall time into the
	// paper's breakdown categories. Off by default; when off every hook is
	// a single branch (see prof package docs).
	Profile bool
	// EagerLimit is the maximum payload carried eagerly; larger messages
	// use the rendezvous protocol. 0 selects the default (8 KiB).
	// Negative disables rendezvous entirely (everything eager).
	EagerLimit int
	// FlightCapacity, when positive, attaches the flight recorder
	// (internal/flight), the runtime's one message-lifecycle event record:
	// every thread, every communicator's matching engine, the delivery and
	// completion path, the reliability layer, and each CRI's lock-wait path
	// record their last ~FlightCapacity events into lock-free rings for
	// watchdog/crash dumps, /debug/flight, latency exemplars and the Chrome
	// trace (/trace, -trace-out, trace shards). Off (0) by default; every
	// hook is a single branch when off.
	FlightCapacity int
}

// DefaultEagerLimit is the eager/rendezvous switchover when unspecified.
const DefaultEagerLimit = 8192

// withDefaults normalizes zero values.
func (o Options) withDefaults(m hw.Machine) Options {
	if o.NumInstances <= 0 {
		o.NumInstances = 1
	}
	if max := m.MaxContexts; max > 0 && o.NumInstances > max {
		o.NumInstances = max
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4096
	}
	if o.EagerLimit == 0 {
		o.EagerLimit = DefaultEagerLimit
	}
	if o.Latency {
		// Stage attribution is anchored on the trace extension's send stamp,
		// so traced wires are a prerequisite, not an independent choice.
		o.TraceWire = true
	}
	return o
}

// Stock returns the configuration of unmodified Open MPI threading:
// one instance, serial progress.
func Stock() Options {
	return Options{NumInstances: 1, Progress: progress.Serial, ThreadLevel: ThreadMultiple}
}

// CRIs returns the paper's concurrent-sends configuration: n instances with
// the given assignment, serial progress (Fig. 3a).
func CRIs(n int, a cri.Assignment) Options {
	return Options{NumInstances: n, Assignment: a, Progress: progress.Serial, ThreadLevel: ThreadMultiple}
}

// CRIsConcurrent adds the concurrent progress engine (Fig. 3b/3c).
func CRIsConcurrent(n int, a cri.Assignment) Options {
	return Options{NumInstances: n, Assignment: a, Progress: progress.Concurrent, ThreadLevel: ThreadMultiple}
}
