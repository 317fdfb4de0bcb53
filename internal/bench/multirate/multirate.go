// Package multirate implements the Multirate pairwise benchmark
// (Patinyasakdikul et al. [6]) over the real runtime (internal/core): N
// communication pairs, each iterating window-sized bursts of non-blocking
// sends/receives with wait-all. Every run is one layout: a world of 2k ranks
// paired (0,1), (2,3), ..., each process pair carrying t thread pairs, its
// even rank hosting the senders and its odd rank the receivers. Thread mode
// is k = 1, t = Pairs; process mode k = Pairs, t = 1; a distributed run
// k = WorldSize/2, t = Pairs; incast is thread mode with one receiver.
//
// This harness measures wall-clock rates on live goroutines. On the
// two-core reproduction host (`nproc`) the paper's 20-pair scaling shapes
// cannot materialize here; the deterministic virtual-time twin of this harness
// (internal/simnet) regenerates the figures. Both exist so the design can
// be validated functionally (here) and quantitatively (there).
package multirate

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/backends"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/hw"
	"repro/internal/spc"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Pattern selects the communication shape.
type Pattern int

const (
	// Pairwise: N sender threads paired with N receiver threads (the
	// paper's configuration, Fig. 2).
	Pairwise Pattern = iota
	// Incast: N sender threads all target a single receiver thread that
	// posts wildcard receives — maximal pressure on one matching stream.
	Incast
)

func (p Pattern) String() string {
	switch p {
	case Pairwise:
		return "pairwise"
	case Incast:
		return "incast"
	default:
		return "pattern(?)"
	}
}

// PatternByName is the inverse of String.
func PatternByName(name string) (Pattern, error) {
	switch name {
	case "pairwise":
		return Pairwise, nil
	case "incast":
		return Incast, nil
	default:
		return 0, fmt.Errorf("unknown pattern %q (want pairwise | incast)", name)
	}
}

// Config parameterizes one run.
type Config struct {
	// Machine is the hardware model (use hw.Fast for functional runs).
	Machine hw.Machine
	// Opts configures the runtime design under test.
	Opts core.Options
	// Pairs is the number of communication pairs.
	Pairs int
	// Window is the outstanding-message window (paper: 128).
	Window int
	// Iters is the number of window iterations.
	Iters int
	// MsgSize is the payload size (0 = envelope only).
	MsgSize int
	// CommPerPair gives each pair a private communicator (Fig. 3c mode).
	CommPerPair bool
	// AnyTag posts wildcard-tag receives (Fig. 4 mode).
	AnyTag bool
	// Overtaking asserts mpi_assert_allow_overtaking (Fig. 4 mode).
	Overtaking bool
	// NoWildcards asserts mpi_assert_no_any_source and
	// mpi_assert_no_any_tag (core.Info.NoWildcards): the run's
	// communicators match on the sharded engine, and AnyTag or the incast
	// pattern's wildcard receives fail with core.ErrWildcard.
	NoWildcards bool
	// ProcessMode maps each pair to its own process pair (k = Pairs, t = 1).
	ProcessMode bool
	// WorldSize is the number of OS processes in a distributed run
	// (RunDistributed only; 0 = 2). Must be even: ranks pair up as
	// (0,1), (2,3), ... with the even rank hosting the sender threads and
	// the odd rank the receivers of each process pair.
	WorldSize int
	// Pattern selects pairwise (default) or incast.
	Pattern Pattern
	// SampleInterval, when positive, runs the world's one sampler at this
	// interval over the measured section, snapshotting every local rank's
	// counters, histograms and profiler; the first local receiver rank's
	// time series lands in Result.Samples.
	SampleInterval time.Duration
	// Watchdog, when non-nil, shows each rank's samples to a stall
	// detector with this configuration (every 100ms when SampleInterval is
	// unset; every millisecond of virtual time on the model). A verdict's
	// dump goes to stderr as it fires and into the exit dump.
	Watchdog *flight.DetectorConfig
	// OnWorld, when set, is called with the world right after construction
	// and before the measured section — the hook a command uses to attach
	// live observability (HTTP endpoint, signal-triggered flushing) to a
	// run in flight.
	OnWorld func(*core.World)
	// StallRecv, when positive, freezes every receiver thread on the
	// stall rank (StallRank) for this wall-clock duration right after it
	// posts window iteration StallAfterIter — the real-engine sibling of
	// simnet's deterministic virtual stall injection, used to surface a
	// live straggler to the cluster imbalance detector: the whole rank's
	// receive side goes quiet while its peer keeps sending. Every layout
	// picks the rank by the same rule, so process mode freezes one
	// receiver process, not all of them. The run still completes with
	// full totals once the freeze ends.
	StallRecv      time.Duration
	StallAfterIter int
	// StallRank is the world rank whose receivers freeze (0 = the last,
	// highest-numbered receiver rank).
	StallRank int
	// Faults, when enabled, runs Run on the in-process fabric's faulty wire
	// (backends.Faulty): the reliability layer repairs the drops,
	// duplicates and delays it injects. RunDistributed refuses it.
	Faults transport.FaultConfig
}

// info is the assertions every communicator of the run carries.
func (c Config) info() core.Info {
	return core.Info{AllowOvertaking: c.Overtaking, NoWildcards: c.NoWildcards}
}

// WithDefaults normalizes the workload's zero values; core normalizes Opts.
func (c Config) WithDefaults() Config {
	if c.Pairs <= 0 {
		c.Pairs = 1
	}
	if c.Window <= 0 {
		c.Window = 128
	}
	if c.Iters <= 0 {
		c.Iters = 4
	}
	return c
}

// Result reports one run's outcome.
type Result struct {
	// Messages is the total message count.
	Messages int64
	// Elapsed is the wall-clock duration of the measured section.
	Elapsed time.Duration
	// Rate is Messages/Elapsed in msg/s.
	Rate float64
	// SPCs rolls up the local receiver ranks' counters, each the full
	// per-process roll-up (residual + per-CRI + per-communicator child
	// sets); a process hosting no receiver (the even rank of a distributed
	// run) reports its sender rank instead.
	SPCs spc.Snapshot
	// Transport names the backend the run used and its capability flags.
	Transport transport.Caps
	// GC is what the Go collector cost this process over the measured
	// section.
	GC telemetry.GCCost
	// Stats holds every local rank's attributed counter/histogram
	// breakdown in rank order (even ranks send, odd ranks receive).
	Stats []telemetry.ProcStats
	// Samples is the first local receiver rank's sampled time series
	// (Config.SampleInterval or Config.Watchdog).
	Samples []telemetry.Sample
	// TraceDump holds the first local receiver rank's flight record
	// rendered as text (empty unless Options.FlightCapacity > 0).
	TraceDump string
}

// Run executes the benchmark in one OS process. Thread mode is one process
// pair carrying every thread pair; process mode gives each pair a process
// pair of its own.
func Run(cfg Config) (Result, error) {
	cfg = cfg.WithDefaults()
	procPairs, threads := 1, cfg.Pairs
	if cfg.ProcessMode {
		if cfg.Pattern == Incast {
			return Result{}, fmt.Errorf("multirate: incast has no process mode")
		}
		procPairs, threads = cfg.Pairs, 1
	}
	if cfg.Faults.Enabled() {
		if cfg.Opts.Network != nil {
			return Result{}, fmt.Errorf("multirate: Faults builds the network; leave Opts.Network unset")
		}
		// A fabric serves one world; this run builds one.
		cfg.Opts.Network = backends.Faulty(cfg.Faults)
	}
	w, err := core.NewWorld(cfg.Machine, 2*procPairs, cfg.Opts)
	if err != nil {
		return Result{}, err
	}
	defer w.Close()
	return run(cfg, w, threads)
}

// RunDistributed executes this process's share of a multi-process pairwise
// run over a distributed transport backend (e.g. tcpnet): a world of
// cfg.WorldSize ranks (default 2), each process pair carrying cfg.Pairs
// thread pairs. All processes must call it with identical cfg so the
// collective communicator-creation order agrees. The returned Result is
// local: an odd rank's SPCs are the receiver-side roll-up the single-process
// harness reports; an even rank sees the sender side. Messages/Rate count
// this process pair's traffic only.
func RunDistributed(cfg Config, rank int, net transport.Network) (Result, error) {
	cfg = cfg.WithDefaults()
	if cfg.Pattern != Pairwise {
		return Result{}, fmt.Errorf("multirate: distributed mode supports only the pairwise pattern")
	}
	if cfg.ProcessMode {
		return Result{}, fmt.Errorf("multirate: distributed mode already maps ranks to processes")
	}
	if cfg.Faults.Enabled() {
		return Result{}, fmt.Errorf("multirate: fault injection runs on the in-process fabric only, not a distributed network")
	}
	size := cfg.WorldSize
	if size == 0 {
		size = 2
	}
	if size < 2 || size%2 != 0 {
		return Result{}, fmt.Errorf("multirate: world size %d is not an even count >= 2", size)
	}
	if rank < 0 || rank >= size {
		return Result{}, fmt.Errorf("multirate: rank %d out of range for world size %d", rank, size)
	}
	w, err := core.NewDistributedWorld(cfg.Machine, rank, size, net, cfg.Opts)
	if err != nil {
		return Result{}, err
	}
	defer w.Close()
	return run(cfg, w, cfg.Pairs)
}

// run is Multirate on every rank of w this process hosts. The world's ranks
// pair up as (0,1), (2,3), ...; each process pair carries threads thread
// pairs, the even rank hosting the senders and the odd rank the receivers
// (one AnyTag receiver under the incast pattern).
func run(cfg Config, w *core.World, threads int) (Result, error) {
	if cfg.OnWorld != nil {
		cfg.OnWorld(w)
	}
	// Every rank creates every process pair's communicators in the same
	// order, which keeps the deterministic communicator ids in agreement
	// across processes (the MPI_Comm_create contract); a remote rank's
	// handle is nil. Incast's one receiver drains a single communicator.
	size := w.Size()
	comms := make([][]*core.Comm, size)
	for even := 0; even < size; even += 2 {
		comms[even], comms[even+1] = make([]*core.Comm, threads), make([]*core.Comm, threads)
		for i := 0; i < threads; i++ {
			if i > 0 && (!cfg.CommPerPair || cfg.Pattern == Incast) {
				comms[even][i], comms[even+1][i] = comms[even][0], comms[even+1][0]
				continue
			}
			cs, err := w.NewCommWithInfo([]int{even, even + 1}, cfg.info())
			if err != nil {
				return Result{}, err
			}
			comms[even][i], comms[even+1][i] = cs[0], cs[1]
		}
	}

	local := w.LocalProcs()
	var senders, receivers []*core.Proc
	for _, p := range local {
		if p.Rank()%2 == 0 {
			senders = append(senders, p)
		} else {
			receivers = append(receivers, p)
		}
	}
	// Peers in other processes start with their own skew: bracket the timed
	// section with barriers so every process measures the same volume. The
	// start fences twice. A rank leaves a barrier once its peers' messages
	// have arrived, while its own may still wait on a dial retry; after a
	// second barrier both directions of every link have carried a message,
	// and the ranks leave it within one message latency of each other.
	fence := func() error { return nil }
	if len(local) < size {
		th := local[0].NewThread()
		fence = func() error { return local[0].CommWorld().Barrier(th) }
	}
	for range 2 {
		if err := fence(); err != nil {
			return Result{}, fmt.Errorf("multirate: start barrier: %w", err)
		}
	}
	smp := w.StartSampler(cfg.SampleInterval, cfg.Watchdog)
	defer smp.Stop()
	errs := make(chan error, len(local)*threads)
	var wg sync.WaitGroup
	spawn := func(loop func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- loop()
		}()
	}
	gc := telemetry.ReadGC()
	start := time.Now()
	for _, p := range senders {
		for i, c := range comms[p.Rank()] {
			spawn(func() error { return senderLoop(p.NewThread(), c, cfg, int32(i)) })
		}
	}
	for _, p := range receivers {
		cs, stall := comms[p.Rank()], cfg.stallsHere(p.Rank(), size)
		if cfg.Pattern == Incast {
			spawn(func() error { return incastLoop(p.NewThread(), cs[0], cfg, threads) })
			continue
		}
		for i, c := range cs {
			spawn(func() error { return receiverLoop(p.NewThread(), c, cfg, int32(i), stall) })
		}
	}
	wg.Wait()
	if err := fence(); err != nil {
		return Result{}, fmt.Errorf("multirate: end barrier: %w", err)
	}
	elapsed := time.Since(start)
	gcCost := gc.Since()
	close(errs)
	for err := range errs {
		if err != nil {
			return Result{}, err
		}
	}

	total := int64(cfg.Pairs) * int64(cfg.Window) * int64(cfg.Iters)
	res := Result{Messages: total, Elapsed: elapsed, Transport: w.TransportCaps(), GC: gcCost}
	if elapsed > 0 {
		res.Rate = float64(total) / elapsed.Seconds()
	}
	for _, p := range local {
		res.Stats = append(res.Stats, p.TelemetryStats())
	}
	smp.Stop()
	rollup := receivers
	if len(rollup) == 0 {
		rollup = senders
	} else {
		res.TraceDump = traceDump(receivers[0])
		res.Samples = smp.Samples(receivers[0].Rank())
	}
	snaps := make([]spc.Snapshot, len(rollup))
	for i, p := range rollup {
		snaps[i] = p.SPCSnapshot()
	}
	res.SPCs = spc.Merge(snaps...)
	return res, nil
}

// traceDump renders the proc's flight record one event per line, or ""
// with the recorder off.
func traceDump(p *core.Proc) string {
	var sb strings.Builder
	for _, e := range p.FlightRecord().Events {
		fmt.Fprintln(&sb, e)
	}
	return sb.String()
}

func senderLoop(th *core.Thread, c *core.Comm, cfg Config, tag int32) error {
	defer th.Done()
	buf := make([]byte, cfg.MsgSize)
	reqs := make([]*core.Request, 0, cfg.Window)
	for it := 0; it < cfg.Iters; it++ {
		reqs = reqs[:0]
		for i := 0; i < cfg.Window; i++ {
			req, err := c.Isend(th, 1, tag, buf)
			if err != nil {
				return fmt.Errorf("multirate sender: %w", err)
			}
			reqs = append(reqs, req)
		}
		if err := core.WaitAll(th, reqs...); err != nil {
			return fmt.Errorf("multirate sender waitall: %w", err)
		}
	}
	return nil
}

func receiverLoop(th *core.Thread, c *core.Comm, cfg Config, tag int32, stall bool) error {
	defer th.Done()
	bufs := make([][]byte, cfg.Window)
	for i := range bufs {
		bufs[i] = make([]byte, cfg.MsgSize)
	}
	reqs := make([]*core.Request, 0, cfg.Window)
	recvTag := tag
	if cfg.AnyTag {
		recvTag = core.AnyTag
	}
	for it := 0; it < cfg.Iters; it++ {
		reqs = reqs[:0]
		for i := 0; i < cfg.Window; i++ {
			req, err := c.Irecv(th, 0, recvTag, bufs[i])
			if err != nil {
				return fmt.Errorf("multirate receiver: %w", err)
			}
			reqs = append(reqs, req)
		}
		if stall && it == cfg.StallAfterIter {
			// Injected fault: leave the freshly posted window unserviced.
			// Arrivals drain the posted receives at match time, then this
			// rank's received counter freezes with the peer's further
			// traffic piling into the unexpected queue — the straggler
			// signature the cluster detector must localize.
			time.Sleep(cfg.StallRecv)
		}
		if err := core.WaitAll(th, reqs...); err != nil {
			return fmt.Errorf("multirate receiver waitall: %w", err)
		}
	}
	return nil
}

// incastLoop is incast's one receiver: a blocking AnyTag receive at a time
// for every message of the process pair's threads senders.
func incastLoop(th *core.Thread, c *core.Comm, cfg Config, threads int) error {
	defer th.Done()
	buf := make([]byte, cfg.MsgSize)
	for i := 0; i < threads*cfg.Window*cfg.Iters; i++ {
		if _, err := c.Recv(th, 0, core.AnyTag, buf); err != nil {
			return fmt.Errorf("incast receiver: %w", err)
		}
	}
	return nil
}

// stallsHere reports whether rank's receiver threads take the injected
// freeze: only the configured stall rank's do (default: the last receiver
// rank), so every other rank keeps moving and the cluster detector has the
// cross-rank contrast it needs.
func (c Config) stallsHere(rank, size int) bool {
	if c.StallRecv <= 0 {
		return false
	}
	target := c.StallRank
	if target == 0 {
		target = size - 1
	}
	return rank == target
}
