// Package multirate implements the Multirate pairwise benchmark
// (Patinyasakdikul et al. [6]) over the real runtime (internal/core): N
// communication pairs, each iterating window-sized bursts of non-blocking
// sends/receives with wait-all, in either thread mode (pairs are threads of
// two processes) or process mode (each pair is its own process pair).
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

	"repro/internal/core"
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
	// ProcessMode maps each pair to its own process pair.
	ProcessMode bool
	// WorldSize is the number of OS processes in a distributed run
	// (RunDistributed only; 0 = 2). Must be even: ranks pair up as
	// (0,1), (2,3), ... with the even rank hosting the sender threads and
	// the odd rank the receivers of each process pair.
	WorldSize int
	// Pattern selects pairwise (default) or incast.
	Pattern Pattern
	// SampleInterval, when positive, runs a background sampler on the
	// receiver process snapshotting counters and histograms at this
	// interval; the time series lands in Result.Samples.
	SampleInterval time.Duration
	// OnWorld, when set, is called with the world right after construction
	// and before the measured section — the hook a command uses to attach
	// live observability (HTTP endpoint, signal-triggered flushing) to a
	// run in flight.
	OnWorld func(*core.World)
	// OnSampler, when set, is called with the background sampler right
	// after it starts (only when SampleInterval > 0), so an interrupted
	// run can stop it and flush the partial time series.
	OnSampler func(*telemetry.Sampler)
	// StallRecv, when positive, freezes every receiver thread on the
	// stalled rank for this wall-clock duration right after it posts
	// window iteration StallAfterIter — the real-engine sibling of
	// simnet's deterministic virtual stall injection, used to surface a
	// live straggler to the cluster imbalance detector: the whole rank's
	// receive side goes quiet while its peer keeps sending. The run still
	// completes with full totals once the freeze ends.
	StallRecv      time.Duration
	StallAfterIter int
	// StallRank restricts a distributed run's freeze to one world rank
	// (0 = the last, highest-numbered receiver rank). Single-process runs
	// ignore it: their only receiver process takes the freeze.
	StallRank int
}

// info is the assertions every communicator of the run carries.
func (c Config) info() core.Info {
	return core.Info{AllowOvertaking: c.Overtaking, NoWildcards: c.NoWildcards}
}

func (c Config) withDefaults() Config {
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
	// SPCs is the receiver-side counter snapshot: the full per-process
	// roll-up (residual + per-CRI + per-communicator child sets).
	SPCs spc.Snapshot
	// Transport names the backend the run used and its capability flags.
	Transport transport.Caps
	// Stats holds every process's attributed counter/histogram breakdown
	// in rank order (sender is rank 0, receiver rank 1 in thread mode).
	Stats []telemetry.ProcStats
	// Samples is the sampler time series when Config.SampleInterval > 0.
	Samples []telemetry.Sample
	// TraceDump holds the receiver-side flight record rendered as text
	// (empty unless Options.FlightCapacity > 0).
	TraceDump string
}

// Run executes the benchmark.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Pattern == Incast {
		if cfg.ProcessMode {
			return Result{}, fmt.Errorf("multirate: incast has no process mode")
		}
		return runIncast(cfg)
	}
	if cfg.ProcessMode {
		return runProcesses(cfg)
	}
	return runThreads(cfg)
}

// runIncast: cfg.Pairs sender threads on proc 0, one receiver thread on
// proc 1 posting wildcard receives for the whole volume.
func runIncast(cfg Config) (Result, error) {
	w, err := core.NewWorld(cfg.Machine, 2, cfg.Opts)
	if err != nil {
		return Result{}, err
	}
	defer w.Close()
	if cfg.OnWorld != nil {
		cfg.OnWorld(w)
	}
	comms, err := w.NewCommWithInfo([]int{0, 1}, cfg.info())
	if err != nil {
		return Result{}, err
	}
	smp := startSampler(cfg, w.Proc(1))
	errs := make(chan error, cfg.Pairs+1)
	var wg sync.WaitGroup
	start := time.Now()
	for pair := 0; pair < cfg.Pairs; pair++ {
		wg.Add(1)
		go func(pair int) {
			defer wg.Done()
			errs <- senderLoop(w.Proc(0).NewThread(), comms[0], cfg, int32(pair))
		}(pair)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := w.Proc(1).NewThread()
		defer th.Done()
		buf := make([]byte, cfg.MsgSize)
		total := cfg.Pairs * cfg.Window * cfg.Iters
		for i := 0; i < total; i++ {
			if _, err := comms[1].Recv(th, 0, core.AnyTag, buf); err != nil {
				errs <- fmt.Errorf("incast receiver: %w", err)
				return
			}
		}
		errs <- nil
	}()
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		if err != nil {
			smp.Stop()
			return Result{}, err
		}
	}
	return result(cfg, elapsed, w, smp), nil
}

// startSampler attaches a background counter/histogram sampler observing p,
// or returns nil when Config.SampleInterval is unset.
func startSampler(cfg Config, p *core.Proc) *telemetry.Sampler {
	if cfg.SampleInterval <= 0 {
		return nil
	}
	s := telemetry.NewSampler(cfg.SampleInterval, func() (spc.Snapshot, []telemetry.NamedHist) {
		return p.SPCSnapshot(), p.Telemetry().Snapshot()
	})
	if p.Profiler().Enabled() {
		s.BindProf(p.Profiler().Snapshot)
	}
	s.Start()
	if cfg.OnSampler != nil {
		cfg.OnSampler(s)
	}
	return s
}

func runThreads(cfg Config) (Result, error) {
	w, err := core.NewWorld(cfg.Machine, 2, cfg.Opts)
	if err != nil {
		return Result{}, err
	}
	defer w.Close()
	if cfg.OnWorld != nil {
		cfg.OnWorld(w)
	}

	sendComms := make([]*core.Comm, cfg.Pairs)
	recvComms := make([]*core.Comm, cfg.Pairs)
	for pair := 0; pair < cfg.Pairs; pair++ {
		if cfg.CommPerPair || pair == 0 {
			comms, err := w.NewCommWithInfo([]int{0, 1}, cfg.info())
			if err != nil {
				return Result{}, err
			}
			sendComms[pair], recvComms[pair] = comms[0], comms[1]
		} else {
			sendComms[pair], recvComms[pair] = sendComms[0], recvComms[0]
		}
	}

	smp := startSampler(cfg, w.Proc(1))
	errs := make(chan error, 2*cfg.Pairs)
	var wg sync.WaitGroup
	start := time.Now()
	for pair := 0; pair < cfg.Pairs; pair++ {
		wg.Add(2)
		go func(pair int) {
			defer wg.Done()
			errs <- senderLoop(w.Proc(0).NewThread(), sendComms[pair], cfg, int32(pair))
		}(pair)
		go func(pair int) {
			defer wg.Done()
			errs <- receiverLoop(w.Proc(1).NewThread(), recvComms[pair], cfg, int32(pair), cfg.stallsHere(1, 0))
		}(pair)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		if err != nil {
			smp.Stop()
			return Result{}, err
		}
	}
	res := result(cfg, elapsed, w, smp)
	res.TraceDump = traceDump(w.Proc(1))
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

func runProcesses(cfg Config) (Result, error) {
	w, err := core.NewWorld(cfg.Machine, 2*cfg.Pairs, cfg.Opts)
	if err != nil {
		return Result{}, err
	}
	defer w.Close()
	if cfg.OnWorld != nil {
		cfg.OnWorld(w)
	}

	type pairComms struct{ s, r *core.Comm }
	pcs := make([]pairComms, cfg.Pairs)
	for pair := 0; pair < cfg.Pairs; pair++ {
		comms, err := w.NewCommWithInfo([]int{2 * pair, 2*pair + 1}, cfg.info())
		if err != nil {
			return Result{}, err
		}
		pcs[pair] = pairComms{comms[0], comms[1]}
	}
	errs := make(chan error, 2*cfg.Pairs)
	var wg sync.WaitGroup
	start := time.Now()
	for pair := 0; pair < cfg.Pairs; pair++ {
		wg.Add(2)
		go func(pair int) {
			defer wg.Done()
			errs <- senderLoop(pcs[pair].s.Proc().NewThread(), pcs[pair].s, cfg, 0)
		}(pair)
		go func(pair int) {
			defer wg.Done()
			errs <- receiverLoop(pcs[pair].r.Proc().NewThread(), pcs[pair].r, cfg, 0, cfg.stallsHere(1, 0))
		}(pair)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		if err != nil {
			return Result{}, err
		}
	}
	// Aggregate receiver-side SPC roll-ups across all receiver procs.
	snaps := make([]spc.Snapshot, 0, cfg.Pairs)
	for pair := 0; pair < cfg.Pairs; pair++ {
		snaps = append(snaps, pcs[pair].r.Proc().SPCSnapshot())
	}
	res := result(cfg, elapsed, w, nil)
	res.SPCs = spc.Merge(snaps...)
	return res, nil
}

// result assembles the common fields: rates, the receiver roll-up (rank 1,
// the convention every caller of Result.SPCs relies on), and per-process
// attributed stats for all ranks.
func result(cfg Config, elapsed time.Duration, w *core.World, smp *telemetry.Sampler) Result {
	total := int64(cfg.Pairs) * int64(cfg.Window) * int64(cfg.Iters)
	r := Result{Messages: total, Elapsed: elapsed}
	if elapsed > 0 {
		r.Rate = float64(total) / elapsed.Seconds()
	}
	if w != nil {
		r.Transport = w.TransportCaps()
		r.SPCs = w.Proc(1).SPCSnapshot()
		for rank := 0; rank < w.Size(); rank++ {
			r.Stats = append(r.Stats, w.Proc(rank).TelemetryStats())
		}
	}
	if smp != nil {
		smp.Stop()
		r.Samples = smp.Samples()
	}
	return r
}

// RunDistributed executes this process's share of a multi-process pairwise
// run over a distributed transport backend (e.g. tcpnet). The world holds
// cfg.WorldSize ranks (default 2) paired as (0,1), (2,3), ...: the even rank
// of each process pair hosts the sender threads, the odd rank the receivers.
// All processes must call it with identical cfg so the collective
// communicator-creation order agrees. The returned Result is local: an odd
// rank's SPCs are the receiver-side roll-up the single-process harness
// reports; an even rank sees the sender side. Messages/Rate count this
// process pair's traffic only.
func RunDistributed(cfg Config, rank int, net transport.Network) (Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Pattern != Pairwise {
		return Result{}, fmt.Errorf("multirate: distributed mode supports only the pairwise pattern")
	}
	if cfg.ProcessMode {
		return Result{}, fmt.Errorf("multirate: distributed mode already maps ranks to processes")
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
	if cfg.OnWorld != nil {
		cfg.OnWorld(w)
	}
	p := w.LocalProc()

	// Identical collective creation order on every rank keeps the
	// deterministic communicator ids in agreement (the MPI_Comm_create
	// contract), so each rank creates every process pair's communicators and
	// keeps only its own pair's.
	pairBase := rank - rank%2 // even rank of this process pair
	comms := make([]*core.Comm, cfg.Pairs)
	for pp := 0; pp < size/2; pp++ {
		group := []int{2 * pp, 2*pp + 1}
		for pair := 0; pair < cfg.Pairs; pair++ {
			if cfg.CommPerPair || pair == 0 {
				cs, err := w.NewCommWithInfo(group, cfg.info())
				if err != nil {
					return Result{}, err
				}
				if group[0] == pairBase {
					comms[pair] = cs[rank%2]
				}
			} else if group[0] == pairBase {
				comms[pair] = comms[0]
			}
		}
	}

	// Bracket the timed section with barriers so both processes measure the
	// same message volume, not each other's startup skew.
	th := p.NewThread()
	if err := p.CommWorld().Barrier(th); err != nil {
		return Result{}, fmt.Errorf("multirate: start barrier: %w", err)
	}
	var smp *telemetry.Sampler
	if rank%2 == 1 {
		smp = startSampler(cfg, p)
	}
	errs := make(chan error, cfg.Pairs)
	var wg sync.WaitGroup
	start := time.Now()
	for pair := 0; pair < cfg.Pairs; pair++ {
		wg.Add(1)
		go func(pair int) {
			defer wg.Done()
			if rank%2 == 0 {
				errs <- senderLoop(p.NewThread(), comms[pair], cfg, int32(pair))
			} else {
				errs <- receiverLoop(p.NewThread(), comms[pair], cfg, int32(pair), cfg.stallsHere(rank, size))
			}
		}(pair)
	}
	wg.Wait()
	if err := p.CommWorld().Barrier(th); err != nil {
		return Result{}, fmt.Errorf("multirate: end barrier: %w", err)
	}
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		if err != nil {
			smp.Stop()
			return Result{}, err
		}
	}

	total := int64(cfg.Pairs) * int64(cfg.Window) * int64(cfg.Iters)
	res := Result{Messages: total, Elapsed: elapsed, Transport: w.TransportCaps()}
	if elapsed > 0 {
		res.Rate = float64(total) / elapsed.Seconds()
	}
	res.SPCs = p.SPCSnapshot()
	res.Stats = []telemetry.ProcStats{p.TelemetryStats()}
	if rank%2 == 1 {
		res.TraceDump = traceDump(p)
	}
	if smp != nil {
		smp.Stop()
		res.Samples = smp.Samples()
	}
	return res, nil
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

// stallsHere reports whether this receiver thread takes the injected
// freeze: in a distributed world only the configured stall rank's threads
// do (default: the last receiver rank), so every other rank keeps moving
// and the cluster detector has the cross-rank contrast it needs.
func (c Config) stallsHere(rank, size int) bool {
	if c.StallRecv <= 0 {
		return false
	}
	if size == 0 { // single-process harness: the one receiver proc
		return true
	}
	target := c.StallRank
	if target == 0 {
		target = size - 1
	}
	return rank == target
}
