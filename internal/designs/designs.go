// Package designs names the runtime designs compared in Figure 5 — Open
// MPI's stock threading, the paper's CRI variants, and simulated stand-ins
// for the closed/other implementations (Intel MPI, MPICH), modeled by their
// locking architecture. Each design resolves to both a virtual-time model
// configuration (internal/simnet) and a real-runtime option set
// (internal/core), so the same named design can be simulated
// deterministically or executed on live goroutines.
package designs

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cri"
	"repro/internal/progress"
	"repro/internal/simnet"
)

// Design identifies one line in Figure 5.
type Design int

const (
	// OMPIProcess is Open MPI in process-per-core mode — the baseline all
	// threading designs are measured against.
	OMPIProcess Design = iota
	// OMPIThread is stock Open MPI MPI_THREAD_MULTIPLE: one instance,
	// serial progress.
	OMPIThread
	// OMPIThreadCRI adds multiple dedicated CRIs on the send path
	// (the paper's "OMPI Thread + CRIs", ~2x the base).
	OMPIThreadCRI
	// OMPIThreadCRIFull is CRIs + concurrent progress + concurrent
	// matching via a communicator per pair (the paper's "OMPI Thread +
	// CRIs*", up to ~10x the base).
	OMPIThreadCRIFull
	// OMPIThreadCRILockFree replaces CRIs*'s communicator-per-pair trick
	// with lock-free hot paths on ONE communicator: that communicator
	// asserts no wildcards, so its matching shards by (source, tag)
	// channel; instances come off a free list, and completions go through
	// lock-free MPSC rings. Concurrent matching from an MPI 4.0 assertion
	// instead of a restructured application — the step past Section III-F.
	OMPIThreadCRILockFree
	// IMPIProcess models Intel MPI process mode; the model gives the three
	// process-mode designs one configuration.
	IMPIProcess
	// IMPIThread models Intel MPI thread mode: a global-lock runtime.
	IMPIThread
	// MPICHProcess models MPICH process mode.
	MPICHProcess
	// MPICHThread models MPICH thread mode: per-object locks with a
	// global-queue matching path (stock-like serialization).
	MPICHThread

	numDesigns
)

// All returns every design in Figure 5's legend order.
func All() []Design {
	ds := make([]Design, numDesigns)
	for i := range ds {
		ds[i] = Design(i)
	}
	return ds
}

var names = [...]string{
	OMPIProcess:           "OMPI Process",
	OMPIThread:            "OMPI Thread",
	OMPIThreadCRI:         "OMPI Thread + CRIs",
	OMPIThreadCRIFull:     "OMPI Thread + CRIs*",
	OMPIThreadCRILockFree: "OMPI Thread + CRIs* + LF",
	IMPIProcess:           "IMPI Process",
	IMPIThread:            "IMPI Thread",
	MPICHProcess:          "MPICH Process",
	MPICHThread:           "MPICH Thread",
}

func (d Design) String() string {
	if d < 0 || int(d) >= len(names) {
		return fmt.Sprintf("design(%d)", int(d))
	}
	return names[d]
}

var slugs = [...]string{
	OMPIProcess:           "ompi-process",
	OMPIThread:            "ompi-thread",
	OMPIThreadCRI:         "ompi-thread-cri",
	OMPIThreadCRIFull:     "ompi-thread-cri-full",
	OMPIThreadCRILockFree: "ompi-thread-cri-lf",
	IMPIProcess:           "impi-process",
	IMPIThread:            "impi-thread",
	MPICHProcess:          "mpich-process",
	MPICHThread:           "mpich-thread",
}

// Slug returns the design's machine-readable identifier, stable across
// releases — the form used in BENCH_*.json files.
func (d Design) Slug() string {
	if d < 0 || int(d) >= len(slugs) {
		return fmt.Sprintf("design-%d", int(d))
	}
	return slugs[d]
}

// IsProcessMode reports whether the design maps pairs to processes.
func (d Design) IsProcessMode() bool {
	return d == OMPIProcess || d == IMPIProcess || d == MPICHProcess
}

// SimConfig resolves the design to a virtual-time model configuration over
// base (which carries machine, pairs, window, iterations). instances is the
// CRI count used by the CRI variants (the paper uses one per core).
func (d Design) SimConfig(base simnet.Config, instances int) simnet.Config {
	cfg := base
	switch d {
	case OMPIProcess, IMPIProcess, MPICHProcess:
		cfg.ProcessMode = true
	case OMPIThread:
		cfg.NumInstances = 1
		cfg.Progress = progress.Serial
	case OMPIThreadCRI:
		cfg.NumInstances = instances
		cfg.Assignment = cri.Dedicated
		cfg.Progress = progress.Serial
	case OMPIThreadCRIFull:
		cfg.NumInstances = instances
		cfg.Assignment = cri.Dedicated
		cfg.Progress = progress.Concurrent
		cfg.CommPerPair = true
	case OMPIThreadCRILockFree:
		cfg.NumInstances = instances
		cfg.Assignment = cri.FreeList
		cfg.Progress = progress.Concurrent
		cfg.NoWildcards = true
		cfg.LockFreeCQ = true
	case IMPIThread:
		// Global-lock runtime: one big lock across send/progress/match.
		cfg.NumInstances = 1
		cfg.BigLock = true
	case MPICHThread:
		// Per-object locks, one device context, serialized progress.
		cfg.NumInstances = 1
		cfg.Progress = progress.Serial
	}
	return cfg
}

// CoreOptions resolves the design to real-runtime options. Process-mode
// designs still return options (single instance, no sharing); the harness
// maps pairs to separate Procs instead of threads. The IMPI and MPICH
// stand-ins are modelled only (SimConfig): the real runtime has no global
// lock to select, so they run as Stock.
func (d Design) CoreOptions(instances int) core.Options {
	switch d {
	case OMPIThreadCRI:
		return core.CRIs(instances, cri.Dedicated)
	case OMPIThreadCRIFull:
		return core.CRIsConcurrent(instances, cri.Dedicated)
	case OMPIThreadCRILockFree:
		return core.CRIsConcurrent(instances, cri.FreeList)
	default:
		return core.Stock()
	}
}

// UsesCommPerPair reports whether the design's harness should create a
// private communicator per pair. The lock-free design deliberately does
// not: its sharded matching keeps all pairs on one communicator.
func (d Design) UsesCommPerPair() bool {
	return d == OMPIThreadCRIFull
}

// NoWildcards reports whether the design's harness asserts no wildcards on
// its communicators (core.Info.NoWildcards), which is what shards the
// lock-free design's matching.
func (d Design) NoWildcards() bool {
	return d == OMPIThreadCRILockFree
}
