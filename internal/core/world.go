package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backends"
	"repro/internal/cri"
	"repro/internal/flight"
	"repro/internal/hw"
	"repro/internal/latency"
	"repro/internal/match"
	"repro/internal/prof"
	"repro/internal/progress"
	"repro/internal/spc"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// World is a job: a set of Procs (the analog of MPI processes) connected by
// a transport backend, plus the communicator registry. With the default
// simulated backend all Procs live in one address space; with a distributed
// backend (see NewDistributedWorld) each OS process hosts exactly one local
// Proc and the slice holds nil for remote ranks.
type World struct {
	opts  Options
	net   transport.Network
	caps  transport.Caps
	procs []*Proc

	commMu   sync.Mutex
	nextComm uint32

	sampler atomic.Pointer[Sampler]
}

// NewWorld creates n Procs with identical options and wires instance k of
// every proc to context (k mod remote instances) of every other proc.
func NewWorld(machine hw.Machine, n int, opts Options) (*World, error) {
	w, err := newWorld(machine, n, opts)
	if err != nil {
		return nil, err
	}
	for rank := 0; rank < n; rank++ {
		p, err := newProc(w, rank, machine, w.opts)
		if err != nil {
			return nil, fmt.Errorf("core: proc %d: %w", rank, err)
		}
		w.procs = append(w.procs, p)
	}
	// Wire endpoints now that every device exists.
	for _, p := range w.procs {
		if err := p.wire(); err != nil {
			return nil, err
		}
	}
	// The world communicator spans all ranks.
	if _, err := w.NewComm(allRanks(n)); err != nil {
		return nil, err
	}
	return w, nil
}

// NewDistributedWorld creates the World of one OS process in a multi-process
// job: rank's Proc is local, the other size-1 slots stay nil, and every
// endpoint reaches its peer through net (which must be a distributed
// backend, e.g. tcpnet). Communicator creation must follow the identical
// collective order in every process so the deterministic id allocation
// agrees — the same contract MPI imposes on MPI_Comm_create.
func NewDistributedWorld(machine hw.Machine, rank, size int, net transport.Network, opts Options) (*World, error) {
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("core: rank %d outside world of %d", rank, size)
	}
	if net == nil {
		return nil, fmt.Errorf("core: distributed world requires an explicit transport network")
	}
	opts.Network = net
	w, err := newWorld(machine, size, opts)
	if err != nil {
		return nil, err
	}
	w.procs = make([]*Proc, size)
	p, err := newProc(w, rank, machine, w.opts)
	if err != nil {
		return nil, fmt.Errorf("core: proc %d: %w", rank, err)
	}
	w.procs[rank] = p
	if err := p.wire(); err != nil {
		return nil, err
	}
	if _, err := w.NewComm(allRanks(size)); err != nil {
		return nil, err
	}
	return w, nil
}

// newWorld normalizes options, picks the default backend when none is given
// and builds the empty world shell.
func newWorld(machine hw.Machine, n int, opts Options) (*World, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: world size %d < 1", n)
	}
	opts = opts.WithDefaults(machine)
	net := opts.Network
	if net == nil {
		net = backends.Sim()
		opts.Network = net
	}
	return &World{opts: opts, net: net, caps: net.Caps()}, nil
}

func allRanks(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	return r
}

// Size returns the number of Procs.
func (w *World) Size() int { return len(w.procs) }

// Options returns the world's normalized options.
func (w *World) Options() Options { return w.opts }

// Proc returns the Proc with the given world rank (nil for a remote rank
// of a distributed world).
func (w *World) Proc(rank int) *Proc { return w.procs[rank] }

// LocalProc returns this process's Proc: in an in-process world the rank-0
// proc, in a distributed world the single non-nil one.
func (w *World) LocalProc() *Proc {
	for _, p := range w.procs {
		if p != nil {
			return p
		}
	}
	return nil
}

// LocalProcs returns every Proc hosted by this OS process in rank order:
// all of them for an in-process world, the single local one for a
// distributed world. Live observability endpoints iterate this.
func (w *World) LocalProcs() []*Proc {
	out := make([]*Proc, 0, len(w.procs))
	for _, p := range w.procs {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// TransportCaps returns the capability flags of the world's backend.
func (w *World) TransportCaps() transport.Caps { return w.caps }

// Info carries communicator assertions, mirroring MPI info keys.
type Info struct {
	// AllowOvertaking is mpi_assert_allow_overtaking: the application
	// does not rely on FIFO matching order, so sequence validation is
	// skipped (Section IV-D).
	AllowOvertaking bool
	// NoWildcards is mpi_assert_no_any_source and mpi_assert_no_any_tag
	// asserted together: every receive and probe names one source and one
	// tag. The communicator then matches on the sharded engine
	// (match.Sharded), where distinct (source, tag) channels match in
	// parallel with no communicator-wide lock. A wildcard is refused:
	// Irecv and RecvInit return ErrWildcard, Probe and MProbe panic.
	NoWildcards bool
}

// NewComm collectively creates a communicator over the given world ranks
// and returns one handle per member, indexed by communicator rank.
func (w *World) NewComm(worldRanks []int) ([]*Comm, error) {
	return w.NewCommWithInfo(worldRanks, Info{})
}

// NewCommWithInfo is NewComm with communicator assertions.
func (w *World) NewCommWithInfo(worldRanks []int, info Info) ([]*Comm, error) {
	if len(worldRanks) == 0 {
		return nil, fmt.Errorf("core: empty communicator group")
	}
	seen := make(map[int]bool, len(worldRanks))
	for _, r := range worldRanks {
		if r < 0 || r >= len(w.procs) {
			return nil, fmt.Errorf("core: rank %d outside world of %d", r, len(w.procs))
		}
		if seen[r] {
			return nil, fmt.Errorf("core: rank %d appears twice in group", r)
		}
		seen[r] = true
	}
	w.commMu.Lock()
	w.nextComm++
	id := w.nextComm
	w.commMu.Unlock()

	group := append([]int(nil), worldRanks...)
	comms := make([]*Comm, len(group))
	for commRank, worldRank := range group {
		if w.procs[worldRank] == nil {
			continue // remote rank of a distributed world
		}
		comms[commRank] = newComm(w.procs[worldRank], id, group, commRank, info)
	}
	return comms, nil
}

// Close shuts down every proc's device.
func (w *World) Close() {
	for _, p := range w.procs {
		if p != nil {
			p.dev.Close()
		}
	}
}

// Proc is one MPI process: a transport device, a pool of Communication
// Resource Instances, a progress engine, and the communicator registry for
// inbound dispatch.
type Proc struct {
	world *World
	rank  int
	dev   transport.Device
	pool  *cri.Pool
	prog  *progress.Engine
	spcs  *spc.Set

	// tel bundles the latency histograms (Options.Telemetry); the
	// histograms the proc's own hot paths record into are cached as direct
	// pointers so a disabled hook is one nil check.
	tel           *telemetry.Telemetry
	histMatch     *telemetry.Histogram
	histLatency   *telemetry.Histogram
	histOneWay    *telemetry.Histogram
	histResidency *telemetry.Histogram

	// lat is the per-message critical-path attribution recorder
	// (Options.Latency; nil-safe, every hot-path hook is one nil check).
	lat *latency.Recorder

	// traceWire marks eager sends with the trace-context wire extension
	// (Options.TraceWire); clock holds the backend's peer clock-offset
	// estimator when it implements transport.ClockSync (nil otherwise).
	traceWire bool
	clock     transport.ClockSync

	// comms is the communicator table delivery reads without a lock: an
	// immutable slice indexed by communicator id (nil where none lives),
	// replaced whole under commMu on register and free. retiredSPCs retains
	// the counter totals of freed communicators so the process roll-up never
	// loses history; it changes with the table, under commMu, so a reader
	// holding commMu sees the two agree.
	commMu      sync.RWMutex
	comms       atomic.Pointer[[]*Comm]
	retiredSPCs spc.Snapshot

	// prof is the contention-and-phase profiler (nil unless
	// Options.Profile; all its hand-outs are nil-safe). profThreads
	// numbers the thread clocks NewThread hands out.
	prof        *prof.Profiler
	profThreads atomic.Int32

	// rel is the delivery-reliability layer (nil on a lossless backend;
	// all its methods are nil-safe).
	rel *reliability

	// flight is the flight recorder (nil unless Options.FlightCapacity;
	// nil-safe). flightRing is the proc-shared ring for paths with no
	// thread identity — delivery and completion inside a progress pass, the
	// reliability sweep, ack handling — so their events land in the same
	// merged record. flightBase is the recorder's wall-clock anchor: a
	// step's clock read minus it is the event timestamp.
	flight     *flight.Recorder
	flightRing *flight.Ring
	flightBase int64

	// A message-path step reads the wall clock at most once, and only when
	// one of its consumers is attached; every consumer is fed that value.
	// timed covers the send post, whose stamp every consumer starts from
	// (Telemetry, TraceWire, Latency, FlightCapacity); timedRecv covers
	// delivery and completion, which TraceWire alone does not time. The
	// instance-held read in inject serves the recorder and Latency only.
	timed     bool
	timedRecv bool

	// rendezvous bookkeeping (see rendezvous.go). rdvRecvSlab is what the
	// receive records are carved from, under rdvMu.
	rdvMu       sync.Mutex
	rdvSends    map[uint64]*rdvSendOp
	rdvRecvs    map[rdvKey]*rdvRecv
	rdvRecvSlab []rdvRecv
	rdvNext     atomic.Uint64

	// runs[k] is the eager run instance k's passes collect (see eagerRun):
	// delivery from a CQ runs under that instance's lock, which makes the
	// instance its single owner (a self message uses its Thread's instead).
	runs []*eagerRun

	// sent is the handle every untracked eager send returns: such a send is
	// complete when Isend returns, so one completed handle serves them all.
	sent Request
	// reuseSend says an eager send to another rank reuses its Thread's one
	// packet: the backend is done with a packet when Send returns
	// (Caps.Copies), and no reliability window keeps it (Caps.Lossless).
	reuseSend bool
}

func newProc(w *World, rank int, machine hw.Machine, opts Options) (*Proc, error) {
	p := &Proc{
		world:    w,
		rank:     rank,
		rdvSends: make(map[uint64]*rdvSendOp),
		rdvRecvs: make(map[rdvKey]*rdvRecv),
	}
	p.comms.Store(new([]*Comm))
	p.reuseSend = w.caps.Copies && w.caps.Lossless
	p.sent.proc = p
	p.sent.done.Store(true)
	p.spcs = spc.NewSet()
	if opts.Profile {
		p.prof = prof.New()
	}
	if opts.FlightCapacity > 0 {
		p.flight = flight.NewRecorder(opts.FlightCapacity)
		p.flightRing = p.flight.NewRing(fmt.Sprintf("rank%d/proc", rank))
		p.flightBase = p.flight.StartUnixNano()
	}
	dev, err := w.net.NewDevice(rank, machine, transport.DeviceConfig{Counters: p.spcs, Unsignaled: true})
	if err != nil {
		return nil, err
	}
	p.dev = dev
	if !w.caps.Lossless {
		// A wire that may drop, duplicate or reorder gets the ack/retransmit
		// layer; on a lossless one its bookkeeping would be pure overhead.
		p.rel = newReliability(p)
		p.rel.bindProfSite(p.prof.NewSite("reliability.window", -1, 0))
	}
	if opts.Telemetry {
		p.tel = telemetry.New()
		p.histMatch = p.tel.MatchSection
		p.histLatency = p.tel.MsgLatency
		p.histOneWay = p.tel.OneWayLatency
		p.histResidency = p.tel.MatchResidency
	}
	if opts.Latency {
		p.lat = latency.NewRecorder(latency.DefaultExemplars)
	}
	p.traceWire = opts.TraceWire
	p.timedRecv = p.flight != nil || p.tel != nil || p.lat != nil
	p.timed = p.timedRecv || p.traceWire
	if cs, ok := dev.(transport.ClockSync); ok {
		p.clock = cs
	} else if cs, ok := w.net.(transport.ClockSync); ok {
		p.clock = cs
	}
	insts := make([]*cri.Instance, opts.NumInstances)
	for i := range insts {
		ctx, err := p.dev.CreateContext(opts.QueueDepth)
		if err != nil {
			return nil, err
		}
		// Each instance owns a child counter set; Proc.SPCSnapshot merges
		// the children back into the process totals.
		pc := &pollCtx{Context: ctx, p: p}
		p.runs = append(p.runs, &pc.run)
		insts[i] = cri.NewInstance(i, pc, spc.NewSet())
		if p.tel != nil {
			insts[i].SetLockWaitHistogram(p.tel.LockWait)
		}
		insts[i].BindProfSite(p.prof.NewSite("cri.instance", i, 0))
		insts[i].BindFlight(p.flightRing)
	}
	p.pool, err = cri.NewPool(insts, opts.Assignment)
	if err != nil {
		return nil, err
	}
	p.pool.SetSPCs(p.spcs)
	p.prog = progress.New(opts.Progress, p.pool, p.dispatch, p.spcs)
	p.prog.BindProfSite(p.prof.NewSite("progress.serial", -1, 0))
	if p.tel != nil {
		p.prog.SetPassHistogram(p.tel.ProgressPass)
	}
	return p, nil
}

// wire acquires an endpoint from every local instance to one context of
// every peer: instance k reaches context (k mod peer instances) of each
// remote rank. Every rank runs the same normalized options, so the peer's
// instance count is known without inspecting its (possibly remote) process.
// Endpoints are lazily connectable — acquisition is bookkeeping, nothing is
// dialed here; the first send toward a peer establishes (or reuses) the
// pair's shared physical connection, and an establishment failure surfaces
// from the send path as a typed error.
func (p *Proc) wire() error {
	size := len(p.world.procs)
	p.rel.initPeers(size)
	for k := 0; k < p.pool.Len(); k++ {
		inst := p.pool.Get(k)
		eps := make([]transport.Endpoint, size)
		for j := 0; j < size; j++ {
			if j == p.rank {
				continue // self messages short-circuit elsewhere
			}
			peerInstances := p.world.opts.NumInstances
			if q := p.world.procs[j]; q != nil {
				peerInstances = q.pool.Len()
			}
			ep, err := p.dev.Connect(inst.Context().(*pollCtx).Context, j, k%peerInstances)
			if err != nil {
				return fmt.Errorf("core: wiring rank %d instance %d to rank %d: %w", p.rank, k, j, err)
			}
			eps[j] = ep
		}
		inst.SetEndpoints(eps)
	}
	return nil
}

// Rank returns the proc's world rank.
func (p *Proc) Rank() int { return p.rank }

// World returns the owning world.
func (p *Proc) World() *World { return p.world }

// SPCs returns the proc's residual counter set. It holds only counters with
// no per-CRI or per-communicator owner; use SPCSnapshot for the rolled-up
// process totals.
func (p *Proc) SPCs() *spc.Set { return p.spcs }

// SPCSnapshot returns the process counter totals: the residual set merged
// with every instance's set and every live communicator's counters (see
// Comm.SPCSnapshot), plus the retained totals of freed communicators. It
// takes each communicator's matching lock in turn: never call it holding a
// matching or instance lock.
func (p *Proc) SPCSnapshot() spc.Snapshot {
	snaps := make([]spc.Snapshot, 0, 2+p.pool.Len())
	snaps = append(snaps, p.spcs.Snapshot())
	for i := 0; i < p.pool.Len(); i++ {
		snaps = append(snaps, p.pool.Get(i).SPCs().Snapshot())
	}
	p.commMu.RLock()
	snaps = append(snaps, p.retiredSPCs)
	for _, c := range *p.comms.Load() {
		if c != nil {
			snaps = append(snaps, c.SPCSnapshot())
		}
	}
	p.commMu.RUnlock()
	return spc.Merge(snaps...)
}

// Telemetry returns the proc's latency-histogram bundle (nil unless
// Options.Telemetry was set).
func (p *Proc) Telemetry() *telemetry.Telemetry { return p.tel }

// TelemetryStats assembles the proc's full observability snapshot: rolled
// up process totals, the per-CRI and per-communicator attributions they
// merge from, the residual set, and the latency histograms. Like
// SPCSnapshot it takes the matching locks.
func (p *Proc) TelemetryStats() telemetry.ProcStats {
	ps := telemetry.ProcStats{Rank: p.rank, Hists: append(p.tel.Snapshot(), p.lat.Snapshot()...)}
	for i := 0; i < p.pool.Len(); i++ {
		ps.PerCRI = append(ps.PerCRI, telemetry.CRIStat{Index: i, Counters: p.pool.Get(i).SPCs().Snapshot()})
	}
	p.commMu.RLock()
	ps.Residual = spc.Merge(p.spcs.Snapshot(), p.retiredSPCs)
	for _, c := range *p.comms.Load() {
		if c != nil {
			ps.PerComm = append(ps.PerComm, telemetry.CommStat{ID: c.id, Counters: c.SPCSnapshot()})
		}
	}
	p.commMu.RUnlock()
	ps.Process = ps.MergeChildren()
	ps.Prof = p.prof.Snapshot()
	return ps
}

// Profiler returns the proc's contention-and-phase profiler (nil unless
// Options.Profile was set; nil is safe to use everywhere).
func (p *Proc) Profiler() *prof.Profiler { return p.prof }

// ClockOffsetToRank0Ns returns the correction mapping this proc's clock
// onto rank 0's (rank0_time = local_time + offset), from the transport's
// NTP-style handshake estimate. Zero for rank 0, for in-process worlds
// (one shared clock), and when no estimate exists.
func (p *Proc) ClockOffsetToRank0Ns() int64 {
	if p.rank == 0 || p.clock == nil {
		return 0
	}
	if off, ok := p.clock.PeerClockOffsetNs(0); ok {
		// off is local − rank0, so mapping local onto rank 0 subtracts it.
		return -off
	}
	return 0
}

// FlightRecorder returns the proc's flight recorder (nil unless
// Options.FlightCapacity was set; nil is safe to use everywhere).
func (p *Proc) FlightRecorder() *flight.Recorder { return p.flight }

// FlightRecord assembles the proc's merged, time-ordered flight record in
// dump form, with the clock anchors a cross-rank merger needs (recorder
// start instant, offset to rank 0) — one rank's trace shard. Empty (rank
// only) when the recorder is off.
func (p *Proc) FlightRecord() flight.RankRecord {
	rec := p.flight.RankRecord(p.rank)
	rec.ClockToRank0Ns = p.ClockOffsetToRank0Ns()
	return rec
}

// LatencyRecorder returns the proc's critical-path attribution recorder
// (nil unless Options.Latency was set; nil is safe to use everywhere).
func (p *Proc) LatencyRecorder() *latency.Recorder { return p.lat }

// LatencyDump assembles the proc's attribution dump: per-stage summaries
// plus the tail exemplars with their surrounding flight events. Empty
// (rank only) when attribution is off.
func (p *Proc) LatencyDump() latency.RankDump { return p.lat.Dump(p.rank, p.FlightRecord()) }

// Pool exposes the instance pool (used by the one-sided layer).
func (p *Proc) Pool() *cri.Pool { return p.pool }

// RegisterMemory registers buf with the proc's device for one-sided access
// (the window/rendezvous sink path of the one-sided layer).
func (p *Proc) RegisterMemory(buf []byte) transport.MemRegion {
	return p.dev.RegisterMemory(buf)
}

// DeregisterMemory removes a region registered with RegisterMemory.
func (p *Proc) DeregisterMemory(r transport.MemRegion) { p.dev.DeregisterMemory(r) }

// Region looks up a registered region by id.
func (p *Proc) Region(id uint64) (transport.MemRegion, bool) { return p.dev.Region(id) }

// TransportCaps returns the capability flags of the proc's backend.
func (p *Proc) TransportCaps() transport.Caps { return p.world.caps }

// CommWorld returns this proc's handle on the world communicator.
func (p *Proc) CommWorld() *Comm {
	return p.commByID(1) // id 1 is created by NewWorld
}

// setComm publishes a copy of the communicator table with slot id set to c.
// The caller holds commMu.
func (p *Proc) setComm(id uint32, c *Comm) {
	old := *p.comms.Load()
	t := make([]*Comm, max(len(old), int(id)+1))
	copy(t, old)
	t[id] = c
	p.comms.Store(&t)
}

func (p *Proc) registerComm(c *Comm) {
	p.commMu.Lock()
	p.setComm(c.id, c)
	p.commMu.Unlock()
}

func (p *Proc) unregisterComm(id uint32) {
	p.commMu.Lock()
	if c := p.commByID(id); c != nil {
		// Retain the freed communicator's totals so process roll-ups are
		// monotone across communicator lifetimes.
		p.retiredSPCs = spc.Merge(p.retiredSPCs, c.SPCSnapshot())
		p.setComm(id, nil)
	}
	p.commMu.Unlock()
}

// commByID looks a communicator up without a lock: one atomic load of the
// table, nil for an id no live communicator has.
func (p *Proc) commByID(id uint32) *Comm {
	if t := *p.comms.Load(); uint64(id) < uint64(len(t)) {
		return t[id]
	}
	return nil
}

// Completer is implemented by CQE tokens that know how to complete
// themselves: the one-sided operations' counters. A two-sided packet posts
// no completion.
type Completer interface {
	Complete(transport.CQE)
}

// dispatch routes one extracted completion event. It runs inside the
// progress engine, under the instance lock of the polled instance; clk is
// the progressing thread's phase clock (nil when profiling is off). An eager
// arrival joins the instance's run, which the end of the pass delivers (see
// pollCtx); any other event first delivers the run, so events take effect in
// the order they were polled.
func (p *Proc) dispatch(clk *prof.ThreadClock, in *cri.Instance, e transport.CQE) {
	run := p.runs[in.Index()]
	if e.Kind != transport.CQERecv {
		p.flush(run)
	}
	if e.Kind == transport.CQERecv {
		p.deliver(clk, in, e.Packet, run)
	} else if c, ok := e.Token.(Completer); ok && c != nil {
		c.Complete(e) // a one-sided completion
	}
}

// eagerRun collects the matched arrivals of one progress pass on one
// instance: consecutive packets for one communicator, delivered under one
// matching-lock hold by flush. Its owner is the instance's lock holder (or,
// for self messages, the sending Thread).
type eagerRun struct {
	c     *Comm
	clk   *prof.ThreadClock
	pkts  []*transport.Packet
	comps []match.Completion
}

// pollCtx is an instance's transport context as the proc hands it to cri:
// the backend's own, whose Poll is followed by delivering the eager run the
// pass collected — still under the instance lock, before the pass returns.
// The run sits a cache line away from the backend context the senders read.
type pollCtx struct {
	transport.Context
	p   *Proc
	_   [64 - 24]byte // Context and p fill the first line
	run eagerRun
}

// Poll implements transport.Context.
func (x *pollCtx) Poll(handler func(transport.CQE), max int) int {
	n := x.Context.Poll(handler, max)
	x.p.flush(&x.run)
	return n
}

// deliver takes an inbound two-sided packet to the owning communicator's
// matching engine. in is the CRI instance whose context the packet arrived
// on (nil for self messages, which bypass the fabric); clk the delivering
// thread's phase clock; run the eager run of deliver's single owner there —
// the instance, or the sending thread of a self message. Everything but the
// matching happens here, once per packet; an eager packet from a context
// then waits in run for the end of the pass, anything else is matched at
// once (flush).
func (p *Proc) deliver(clk *prof.ThreadClock, in *cri.Instance, pkt *transport.Packet, run *eagerRun) {
	env := pkt.Envelope()
	if env.Kind != transport.KindEager {
		p.flush(run)
	}
	if env.Kind == transport.KindAck {
		p.rel.handleAck(pkt)
		return
	}
	m := pkt.Meta
	if m != nil && m.RelSeq != 0 && p.rel != nil && !p.rel.acceptData(pkt) {
		// Transport-level duplicate: already delivered (or buffered); the
		// dedup counted it and re-acked the sender. Drop before matching.
		return
	}
	c := p.commByID(env.Comm)
	if c == nil {
		// The communicator was freed (or never existed here) while this
		// packet was in flight — with real networks and MPI_Comm_free that
		// is a legal race, not a fatal protocol violation. Count and drop.
		p.spcs.Inc(spc.LatePackets)
		return
	}
	switch env.Kind {
	case transport.KindRendezvousACK:
		c.handleRendezvousACK(pkt)
		return
	case transport.KindRendezvousData:
		c.handleRendezvousFIN(pkt)
		return
	}
	criIdx := -1
	if in != nil {
		criIdx = in.Index()
	}
	// Arrival at the matching engine: one instant for the recv_deliver
	// event and, on a traced packet, the one-way latency sample and the stamp
	// the match-residency histogram and the receive-side stages are measured
	// from.
	var now int64
	traced := m != nil && m.TraceID != 0
	if p.flight != nil || traced && p.timedRecv {
		now = time.Now().UnixNano()
	}
	if traced && now != 0 {
		m.RecvStamp = now
		if m.Stamp != 0 {
			p.histOneWay.ObserveNs(now - p.sendStampLocal(pkt))
		}
	}
	p.flightRing.RecordAt(now-p.flightBase, flight.KindRecvDeliver, env.Comm, env.Src, int32(env.Seq), criIdx, pkt.TraceID())
	if run.c != c {
		p.flush(run)
		run.c = c
	}
	run.clk = clk
	run.pkts = append(run.pkts, pkt)
	if in == nil || env.Kind != transport.KindEager {
		// A self message completes its send at once, and a rendezvous RTS
		// is answered within the pass that polled it.
		p.flush(run)
	}
}

// flush matches run's packets under one hold of their communicator's
// matching lock, then completes the receives they matched — after the
// unlock, as every completion is.
func (p *Proc) flush(run *eagerRun) {
	if len(run.pkts) == 0 {
		return
	}
	c, clk := run.c, run.clk
	comps := run.comps[:0]
	c.lockMatch(clk)
	clk.Begin(prof.PhaseMatch)
	for _, pkt := range run.pkts {
		h0 := p.histMatch.Start()
		comps = c.engine.Deliver(pkt, comps)
		p.histMatch.ObserveSince(h0)
	}
	clk.End()
	c.unlockMatch()
	// Cleared, so the run pins no packet or receive past this delivery: each
	// completion leaves the run before it is finished, for a finished
	// receive's record may be reused at once (see Request.release).
	clear(run.pkts)
	run.pkts, run.c, run.clk = run.pkts[:0], nil, nil
	for i, comp := range comps {
		// A completion produced at delivery matched a posted receive.
		comps[i] = match.Completion{}
		c.completeRecv(comp, false)
	}
	run.comps = comps[:0]
}

// sendStampLocal maps a traced pkt's send stamp, taken on its origin's
// clock, onto this proc's clock with the transport's NTP-style estimate
// (local = peer + offset); unchanged when there is no estimate (in-process
// worlds) or no origin to look up (untraced packets carry none). pkt has a
// Meta record: only a stamped packet is mapped.
func (p *Proc) sendStampLocal(pkt *transport.Packet) int64 {
	m := pkt.Meta
	if p.clock != nil && m.TraceID != 0 {
		if off, ok := p.clock.PeerClockOffsetNs(int(m.Origin)); ok {
			return m.Stamp + off
		}
	}
	return m.Stamp
}

// progressFor drives the progress engine once for the calling thread.
func (p *Proc) progressFor(ts *cri.ThreadState) int {
	p.rel.maybeSweep(ts.Clock())
	return p.prog.Progress(ts)
}

// DrainProgress drains all pending transport events (teardown only).
func (p *Proc) DrainProgress() int { return p.prog.Drain() }
