// Package designs names the runtime designs compared in Figure 5 — Open
// MPI's stock threading, the paper's CRI variants, and simulated stand-ins
// for the closed/other implementations (Intel MPI, MPICH), modeled by their
// locking architecture. Each design resolves once, to the configuration the
// Multirate harness takes (Config), so the same named design can be
// simulated deterministically (internal/simnet) or executed on live
// goroutines (internal/bench/multirate).
package designs

import (
	"fmt"

	"repro/internal/bench/multirate"
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
	// with ONE communicator that asserts no wildcards, so its matching
	// shards by (source, tag) channel; instances come off a free list.
	// Concurrent matching from an MPI 4.0 assertion instead of a
	// restructured application — the step past Section III-F.
	OMPIThreadCRILockFree
	// IMPIProcess labels Intel MPI process mode (see Runs).
	IMPIProcess
	// IMPIThread models Intel MPI thread mode: a global-lock runtime.
	IMPIThread
	// MPICHProcess labels MPICH process mode.
	MPICHProcess
	// MPICHThread labels MPICH thread mode: per-object locks, one device
	// context, serialized progress — OMPIThread's configuration.
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

// Runs returns the design whose configuration d runs: OMPIProcess for the
// IMPI and MPICH process modes, OMPIThread for MPICH Thread, else d. Figures
// run each configuration once and print it under every label.
func (d Design) Runs() Design {
	switch d {
	case IMPIProcess, MPICHProcess:
		return OMPIProcess
	case MPICHThread:
		return OMPIThread
	}
	return d
}

// IsProcessMode reports whether the design maps pairs to processes.
func (d Design) IsProcessMode() bool { return d.Runs() == OMPIProcess }

// Config resolves the design over base, which carries the machine and the
// workload, for either engine: the real runtime's harness runs it as it
// is, and the model runs it with Model. instances is the CRI count of the
// CRI variants (the paper uses one per core). IMPI Thread runs as stock
// here: its global lock is the model's (Model).
func (d Design) Config(base multirate.Config, instances int) multirate.Config {
	cfg := base
	o := &cfg.Opts
	o.NumInstances, o.Assignment, o.Progress = 1, cri.RoundRobin, progress.Serial
	switch d.Runs() {
	case OMPIProcess:
		cfg.ProcessMode = true
	case OMPIThreadCRI:
		o.NumInstances, o.Assignment = instances, cri.Dedicated
	case OMPIThreadCRIFull:
		o.NumInstances, o.Assignment, o.Progress = instances, cri.Dedicated, progress.Concurrent
		cfg.CommPerPair = true
	case OMPIThreadCRILockFree:
		// One communicator asserting no wildcards shards the matching.
		o.NumInstances, o.Assignment, o.Progress = instances, cri.FreeList, progress.Concurrent
		cfg.NoWildcards = true
	}
	return cfg
}

// Model is what the design needs of the model beyond Config: IMPI Thread's
// global lock, the one mechanism the runtime does not have.
func (d Design) Model() simnet.Model {
	return simnet.Model{BigLock: d.Runs() == IMPIThread}
}
