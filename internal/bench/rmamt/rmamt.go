// Package rmamt implements the RMA-MT benchmark (Dosanjh et al. [7]) over
// the real runtime: N origin-side threads each performing bursts of MPI_Put
// into a remote window followed by MPI_Win_flush, sweeping message sizes
// and thread counts. The virtual-time twin in internal/simnet regenerates
// Figures 6 and 7; this harness validates the one-sided stack functionally
// and provides wall-clock testing.B integration.
package rmamt

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/hw"
	"repro/internal/rma"
	"repro/internal/spc"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Config parameterizes one run.
type Config struct {
	// Machine is the hardware model (hw.Fast for functional runs).
	Machine hw.Machine
	// Opts configures the runtime design under test.
	Opts core.Options
	// Threads is the number of origin-side threads.
	Threads int
	// MsgSize is the put payload in bytes.
	MsgSize int
	// PutsPerThread is the burst length before each flush (paper: 1000).
	PutsPerThread int
	// Rounds repeats the burst+flush cycle.
	Rounds int
	// SampleInterval, when positive, runs the world's one sampler over the
	// measured section, snapshotting counters, histograms and the profiler;
	// the origin's time series lands in Result.Samples.
	SampleInterval time.Duration
	// Watchdog, when non-nil, shows each rank's samples to a stall
	// detector with this configuration (every 100ms when SampleInterval is
	// unset), as multirate.Config.Watchdog does.
	Watchdog *flight.DetectorConfig
	// OnWorld, when set, is called with the world right after construction
	// and before the measured section — the hook a command uses to attach
	// live observability to a run in flight.
	OnWorld func(*core.World)
}

// WithDefaults normalizes the workload's zero values; core normalizes Opts.
func (c Config) WithDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.MsgSize <= 0 {
		c.MsgSize = 1
	}
	if c.PutsPerThread <= 0 {
		c.PutsPerThread = 1000
	}
	if c.Rounds <= 0 {
		c.Rounds = 1
	}
	return c
}

// Result reports one run's outcome.
type Result struct {
	// Puts is the total put count.
	Puts int64
	// Elapsed is the measured wall time.
	Elapsed time.Duration
	// Rate is Puts/Elapsed in ops/s.
	Rate float64
	// SPCs is the origin-side counter roll-up (residual + per-CRI +
	// per-communicator child sets).
	SPCs spc.Snapshot
	// Stats holds both processes' attributed counter/histogram breakdowns
	// in rank order (origin is rank 0, target rank 1).
	Stats []telemetry.ProcStats
	// Samples is the origin's sampled time series (Config.SampleInterval or
	// Config.Watchdog).
	Samples []telemetry.Sample
	// Transport names the backend the run used and its capability flags.
	Transport transport.Caps
	// GC is what the Go collector cost over the measured section.
	GC telemetry.GCCost
}

// Run executes the benchmark: two processes, a window on each, all threads
// putting from rank 0 into rank 1's window at disjoint offsets.
func Run(cfg Config) (Result, error) {
	cfg = cfg.WithDefaults()
	w, err := core.NewWorld(cfg.Machine, 2, cfg.Opts)
	if err != nil {
		return Result{}, err
	}
	defer w.Close()
	if cfg.OnWorld != nil {
		cfg.OnWorld(w)
	}
	comms, err := w.NewComm([]int{0, 1})
	if err != nil {
		return Result{}, err
	}
	wins, err := rma.Allocate(comms, cfg.Threads*cfg.MsgSize)
	if err != nil {
		return Result{}, err
	}
	origin := wins[0]
	origin.LockAll()

	smp := w.StartSampler(cfg.SampleInterval, cfg.Watchdog)
	defer smp.Stop()
	errs := make(chan error, cfg.Threads)
	var wg sync.WaitGroup
	gc := telemetry.ReadGC()
	start := time.Now()
	for g := 0; g < cfg.Threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := w.Proc(0).NewThread()
			src := make([]byte, cfg.MsgSize)
			for i := range src {
				src[i] = byte(g + 1)
			}
			offset := g * cfg.MsgSize
			for round := 0; round < cfg.Rounds; round++ {
				for k := 0; k < cfg.PutsPerThread; k++ {
					if err := origin.Put(th, 1, offset, src); err != nil {
						errs <- fmt.Errorf("rmamt put: %w", err)
						return
					}
				}
				if err := origin.Flush(th, 1); err != nil {
					errs <- fmt.Errorf("rmamt flush: %w", err)
					return
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	gcCost := gc.Since()
	smp.Stop()
	close(errs)
	for err := range errs {
		if err != nil {
			return Result{}, err
		}
	}
	mainTh := w.Proc(0).NewThread()
	if err := origin.UnlockAll(mainTh); err != nil {
		return Result{}, err
	}

	total := int64(cfg.Threads) * int64(cfg.PutsPerThread) * int64(cfg.Rounds)
	res := Result{Puts: total, Elapsed: elapsed, Transport: w.TransportCaps(), GC: gcCost}
	if elapsed > 0 {
		res.Rate = float64(total) / elapsed.Seconds()
	}
	res.SPCs = w.Proc(0).SPCSnapshot()
	for rank := 0; rank < w.Size(); rank++ {
		res.Stats = append(res.Stats, w.Proc(rank).TelemetryStats())
	}
	res.Samples = smp.Samples(0)
	// Verify delivery: every byte of the target window must carry its
	// thread's fill value (puts to disjoint offsets).
	target := wins[1].Local()
	for g := 0; g < cfg.Threads; g++ {
		for i := 0; i < cfg.MsgSize; i++ {
			if target[g*cfg.MsgSize+i] != byte(g+1) {
				return Result{}, fmt.Errorf("rmamt: target byte %d corrupt (thread %d)", g*cfg.MsgSize+i, g)
			}
		}
	}
	return res, nil
}
