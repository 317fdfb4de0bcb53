// Package simnet models the paper's message path on the deterministic
// virtual-time engine (internal/sim): Communication Resource Instances with
// per-instance locks, the serial and concurrent progress engines
// (Algorithm 2), per-communicator matching via the shared match.Engine, the
// NIC wire cap, and both benchmark workloads (Multirate pairwise and
// RMA-MT). All Figures 3-7 and Table II are regenerated from this model.
// It runs the configuration the runtime's harnesses take (multirate.Config,
// rmamt.Config, core.Options under their Opts), normalized with their own
// defaults; Model holds only what the runtime has no mechanism for.
//
// The model and the real runtime (internal/core) share the matching engine,
// the cost model, the SPC counters and the observers — the phase clock, the
// latency stage derivation and the flight recorder, fed virtual instants
// here; they differ only in how time and mutual exclusion are realized
// (virtual vs. wall-clock).
package simnet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bench/multirate"
	"repro/internal/core"
	"repro/internal/cri"
	"repro/internal/flight"
	"repro/internal/hw"
	"repro/internal/latency"
	"repro/internal/match"
	"repro/internal/prof"
	"repro/internal/progress"
	"repro/internal/sim"
	"repro/internal/spc"
	"repro/internal/transport"
)

// lockPenalty is the base cost of one contended lock handoff at Haswell
// speed, scaled by the machine's speed factor. The effective handoff cost
// grows with the number of waiters (sim.Lock), reaching the microseconds a
// futex wakeup costs under a heavy convoy — the regime a single shared
// instance lives in.
const lockPenalty = 120 * time.Nanosecond

// ackBatch is the credit-return granularity: receivers acknowledge consumed
// fragments in batches of this many (piggybacked ACKs), or of Credits when
// that is smaller.
const ackBatch = 64

// Model holds what the model simulates that the runtime has no mechanism
// for. Everything else it reads from the configuration the runtime's
// harness takes (multirate.Config, rmamt.Config): the design knobs from
// Opts, the workload and its assertions from the configuration itself, all
// on virtual time. Opts.TraceWire charges the trace extension's header
// bytes on the virtual wire; Opts.FlightCapacity and Opts.Latency observe
// without charging time, so the makespan does not move with them;
// NoWildcards gives each match shard its own virtual lock; Faults costs a
// dropped packet one backed-off retransmission timeout per attempt.
type Model struct {
	// BigLock wraps every runtime entry (send, progress, match) in one
	// process-wide lock — the worst-case comparator design.
	BigLock bool
	// Credits bounds a sender thread's unmatched eager messages to its
	// peer (0 = 4096), modeling the per-peer flow control every eager BTL
	// implements. Without it a sender could run arbitrarily far ahead of
	// the receiver's matching, growing the unexpected queue without bound.
	Credits int
	// SleepPenalty is the futex-wake cost paid per lock handoff once a
	// lock is convoyed (>= 4 sleeping waiters); 0 = 2us at Haswell speed.
	// This is what makes a single instance shared by 20 pounding threads
	// an order of magnitude slower than dedicated instances.
	SleepPenalty time.Duration
	// SendJitter is the span of the deterministic per-message variation in
	// the time between sequence-number assignment and hardware injection
	// (0 = 600ns at Haswell speed). Real send paths vary here with cache
	// and allocator state; the variation is what lets concurrently sending
	// threads inject out of sequence order — the paper's out-of-sequence
	// storm. Deterministic per-thread LCG keeps runs reproducible.
	SendJitter time.Duration
	// Watchdog, when non-nil, runs the virtual-time stall watchdog with
	// this detector configuration on every proc; verdict dumps land in
	// Result.Dumps in deterministic order.
	Watchdog *flight.DetectorConfig
}

// Validate reports a configuration the model refuses to run: a pattern, a
// world size or a stall rank it does not model, wildcard-tag receives on
// communicators asserting no wildcards — the error the runtime's Irecv
// returns for the same receive — or a scrambled wire, which the model does
// not implement.
func Validate(cfg multirate.Config) error {
	switch {
	case cfg.Pattern != multirate.Pairwise:
		return fmt.Errorf("simnet: the model runs the pairwise pattern only (Pattern %v)", cfg.Pattern)
	case cfg.WorldSize != 0:
		return errors.New("simnet: the model runs in one process (WorldSize must be 0)")
	case cfg.StallRank != 0:
		return errors.New("simnet: the model stalls pair 0's receiver (StallRank must be 0)")
	case cfg.NoWildcards && cfg.AnyTag:
		return match.RefuseWildcard(0, match.AnyTag)
	case cfg.Faults.ScrambleWindow != 0:
		return errors.New("simnet: the model has no scrambler (Faults.ScrambleWindow must be 0)")
	}
	return nil
}

// params is one run's normalized configuration: the harness's, with the
// runtime's own defaults applied, beside the model's.
type params struct {
	multirate.Config
	Model
}

// resolve normalizes cfg with the harness's and core's defaults and m with
// the model's.
func resolve(cfg multirate.Config, m Model) params {
	cfg = cfg.WithDefaults()
	// Core's Latency implies TraceWire; the model's adds no wire bytes.
	traced := cfg.Opts.TraceWire
	cfg.Opts = cfg.Opts.WithDefaults(cfg.Machine)
	cfg.Opts.TraceWire = traced
	cfg.Faults = cfg.Faults.WithDefaults()
	if m.Credits <= 0 {
		m.Credits = 4096
	}
	if m.SendJitter <= 0 {
		m.SendJitter = time.Duration(600 * cfg.Machine.SpeedFactor * float64(time.Nanosecond))
	}
	if m.SleepPenalty <= 0 {
		m.SleepPenalty = time.Duration(2000 * cfg.Machine.SpeedFactor * float64(time.Nanosecond))
	}
	return params{cfg, m}
}

// newLock builds a virtual-time lock with the configuration's contention
// model applied.
func (c params) newLock(env *sim.Env, name string) *sim.Lock {
	l := sim.NewLock(env, name, time.Duration(float64(lockPenalty)*c.Machine.SpeedFactor))
	l.SleepPenalty = c.SleepPenalty
	return l
}

// Result is the outcome of one simulated run.
type Result struct {
	// Messages is the total number of two-sided messages (or one-sided
	// operations) completed.
	Messages int64
	// Makespan is the virtual time from start to the last completion.
	Makespan time.Duration
	// Rate is Messages divided by Makespan, in operations per second.
	Rate float64
	// SPCs aggregates the software performance counters of every listed
	// side: the receive-side matching counters plus, when fault injection
	// is on, the send-side fault and retransmission counters.
	SPCs spc.Snapshot
	// Breakdown holds each rank's deterministic time breakdown — its
	// threads' virtual-time phase clocks plus lock-site contention stats —
	// in rank order, sender first: prof.BuildReport turns an entry into the
	// report every real-engine breakdown output renders.
	Breakdown []prof.RankSnapshot
	// Flight holds each rank's merged flight record when
	// Opts.FlightCapacity is set, in rank order.
	Flight []flight.RankRecord
	// Queues holds each rank's final queue-introspection snapshot when the
	// recorder or watchdog is on, in rank order.
	Queues []flight.QueueSnapshot
	// Dumps holds the watchdog's verdict dumps in firing order — the same
	// bytes on every run of the same configuration.
	Dumps []flight.Dump
	// Series holds what each rank's sampler saw — one slice of samples per
	// rank, in rank order — when SampleInterval or Model.Watchdog
	// turned it on: deterministic input for a flight.Detector shown several
	// ranks at once, which lets cross-rank verdicts be asserted without a
	// live cluster.
	Series [][]flight.Sample
	// Latency holds each rank's critical-path attribution dump when
	// Opts.Latency is set, in rank order — byte-reproducible across runs
	// of the same configuration.
	Latency []latency.RankDump
}

func newResult(messages int64, makespan time.Duration, procs ...*simProc) Result {
	r := Result{Messages: messages, Makespan: makespan}
	if makespan > 0 {
		r.Rate = float64(messages) / makespan.Seconds()
	}
	snaps := make([]spc.Snapshot, len(procs))
	for i, p := range procs {
		snaps[i] = p.snapshot()
	}
	r.SPCs = spc.Merge(snaps...)
	return r
}

// retryCost is the virtual time charged when a progress attempt yields no
// events and the caller immediately retries (spin-wait cost). Without it a
// polling loop would livelock at a fixed virtual instant.
const retryCost = 150 * time.Nanosecond

// maxBackoff caps the adaptive retry backoff in idle wait loops (a real
// thread would be descheduled at this point; the cap bounds the wake-up
// latency it pays).
const maxBackoff = 2 * time.Microsecond

// cqe is one completion-queue entry in the model.
type cqe struct {
	// pending, when non-nil, is decremented on extraction (send or
	// one-sided completion attributed to the issuing thread).
	pending *int64
	// pkt, when non-nil, is an inbound two-sided packet to match.
	pkt *transport.Packet
	// flow is the sending thread's eager flow control: each extraction of
	// pkt, a duplicate copy's included, returns it a credit.
	flow *flowState
}

// simInstance is one CRI in the model.
type simInstance struct {
	index int
	lock  *sim.Lock
	cq    []cqe // local completions (send/put), FIFO
	rxQ   []cqe // inbound packets, FIFO
}

func (in *simInstance) queued() int { return len(in.cq) + len(in.rxQ) }

// threadMeter routes match.Engine cost charges to whichever simulated
// thread currently holds the matching lock.
type threadMeter struct{ p *sim.Proc }

func (m *threadMeter) Charge(d time.Duration) {
	if m.p != nil {
		m.p.Advance(d)
	}
}

// simComm is one communicator's matching state in the model.
type simComm struct {
	id    uint32
	lock  *sim.Lock
	meter threadMeter
	// sharded is set (aliasing engine) under NoWildcards; matching
	// then synchronizes on shardLocks — one virtual lock per partition —
	// instead of lock.
	sharded    *match.Sharded
	shardLocks []*sim.Lock
	engine     match.Matcher
	seq        *match.SeqTracker
	anyTag     bool
	postedOut  int64 // diagnostic: total completions
}

// simProc is one simulated MPI process.
type simProc struct {
	// finished counts workload threads that completed; the sampler stops
	// once all nWork have.
	finished int
	nWork    int

	cfg       params
	costs     hw.CostModel
	env       *sim.Env
	instances []*simInstance
	rr        uint64
	// freeList mirrors cri.Pool's free-list: a stack (top at the end)
	// seeded with index 0 on top, which senders pop an exclusively owned
	// instance from and push it back onto after injection; empty falls
	// back to round-robin.
	freeList []int
	nThreads int
	comms    map[uint32]*simComm
	spcs     *spc.Set
	// connSeen mirrors the lazy-connect counters of the distributed
	// backends on virtual time: the first message to a peer proc counts a
	// conns_opened, the first from each further local instance to that
	// peer a conns_reused. Lookups cost zero virtual time, and the totals
	// are order-independent, so deterministic replay is preserved. The
	// real mutex guards the map, not the virtual clock.
	connMu   sync.Mutex
	connSeen map[connKey]bool
	// frank is the proc's world rank for flight/introspection labelling.
	frank int
	// flight is the real runtime's flight recorder on virtual time;
	// flightSP holds the sim thread currently charging, whose clock the
	// recorder reads (the threadMeter pattern).
	flight   *flight.Recorder
	flightSP *sim.Proc
	// lat is the real runtime's critical-path attribution recorder, fed
	// virtual-time stamps (Opts.Latency; nil-safe). Observation only:
	// recording never advances the clock.
	lat *latency.Recorder
	// prof holds the workload threads' phase clocks, which read their
	// simulated thread's virtual clock (the lock sites are sim.Locks, which
	// keep their own statistics; see siteSnapshots).
	prof     *prof.Profiler
	progLock *sim.Lock // serial progress global lock
	bigLock  *sim.Lock // BigLock design, nil unless enabled
	wire     *sim.Wire // owning node's wire (shared)
	// memSerial is the process-wide memory-management serializer (see
	// hw.CostModel.AllocSerialize): threads of one process share it,
	// separate processes each get their own.
	memSerial *sim.Wire
}

func newSimProc(env *sim.Env, cfg params, wire *sim.Wire) *simProc {
	p := &simProc{
		cfg:      cfg,
		costs:    cfg.Machine.Scaled(),
		env:      env,
		comms:    make(map[uint32]*simComm),
		spcs:     spc.NewSet(),
		connSeen: make(map[connKey]bool),
		prof:     prof.New(),
		wire:     wire,
	}
	p.progLock = cfg.newLock(env, "progress")
	if cfg.BigLock {
		p.bigLock = cfg.newLock(env, "biglock")
	}
	if cfg.Opts.Latency {
		p.lat = latency.NewRecorder(latency.DefaultExemplars)
	}
	if alloc := p.costs.AllocSerialize; alloc > 0 {
		p.memSerial = sim.NewWire(0, 1e9/float64(alloc.Nanoseconds()))
	}
	instances := cfg.Opts.NumInstances
	for i := 0; i < instances; i++ {
		p.instances = append(p.instances, &simInstance{
			index: i,
			lock:  cfg.newLock(env, "instance"),
		})
	}
	if cfg.Opts.Assignment == cri.FreeList {
		for i := instances - 1; i >= 0; i-- {
			p.freeList = append(p.freeList, i)
		}
	}
	return p
}

// connKey identifies one lazy-connect edge: a peer proc, plus the local
// instance using it (inst == -1 marks the peer-level "any instance" entry).
type connKey struct {
	dst  *simProc
	inst int
}

// noteConn mirrors the distributed backends' lazy-connect accounting: the
// first message to a peer counts conns_opened, the first from each further
// local instance to that peer conns_reused. No virtual time is charged —
// establishment cost is a wall-clock property the model does not carry —
// and the totals are first-come order-independent, so the deterministic
// virtual-time results are unchanged.
func (p *simProc) noteConn(dst *simProc, inst int) {
	if dst == p {
		return
	}
	p.connMu.Lock()
	defer p.connMu.Unlock()
	peerKey := connKey{dst, -1}
	instKey := connKey{dst, inst}
	switch {
	case !p.connSeen[peerKey]:
		p.connSeen[peerKey] = true
		p.connSeen[instKey] = true
		p.spcs.Inc(spc.ConnsOpened)
	case !p.connSeen[instKey]:
		p.connSeen[instKey] = true
		p.spcs.Inc(spc.ConnsReused)
	}
}

// acquireSendInstance mirrors cri.Pool.AcquireSend: under FreeList, pop an
// exclusive instance (push back on release) and fall back to round-robin
// when drained, with the same SPC accounting; other assignments delegate to
// instanceFor with a no-op release. The caller then takes the instance's
// lock, as AcquireSend does.
func (p *simProc) acquireSendInstance(ts *cri.ThreadState) (*simInstance, func()) {
	if p.cfg.Opts.Assignment == cri.FreeList {
		if n := len(p.freeList); n > 0 {
			i := p.freeList[n-1]
			p.freeList = p.freeList[:n-1]
			p.spcs.Inc(spc.FreeListAcquires)
			return p.instances[i], func() { p.freeList = append(p.freeList, i) }
		}
		p.spcs.Inc(spc.FreeListEmpty)
		return p.instances[p.nextRR()], func() {}
	}
	return p.instanceFor(ts), func() {}
}

// snapshot returns the proc's counter totals: its own set merged with every
// communicator's matching-engine counts, which the engines keep themselves.
func (p *simProc) snapshot() spc.Snapshot {
	snaps := []spc.Snapshot{p.spcs.Snapshot()}
	for _, c := range p.comms {
		snaps = append(snaps, c.engine.Counts())
	}
	return spc.Merge(snaps...)
}

// addComm registers a communicator with nRanks members on this proc.
func (p *simProc) addComm(id uint32, nRanks int) *simComm {
	c := &simComm{
		id:     id,
		lock:   p.cfg.newLock(p.env, "match"),
		seq:    match.NewSeqTracker(nRanks),
		anyTag: p.cfg.AnyTag,
	}
	if p.cfg.NoWildcards {
		sh := match.NewSharded(id, nRanks, match.DefaultShards, p.costs, &c.meter, p.spcs)
		c.sharded = sh
		c.engine = sh
		c.shardLocks = make([]*sim.Lock, sh.NumShards())
		for i := range c.shardLocks {
			c.shardLocks[i] = p.cfg.newLock(p.env, "match.shard")
		}
	} else {
		c.engine = match.NewEngine(id, nRanks, p.costs, &c.meter, p.spcs)
	}
	c.engine.SetAllowOvertaking(p.cfg.Overtaking)
	// The matching lock serializes the engine, so one ring per comm; the
	// recorder's clock-holder gives the events virtual timestamps.
	c.engine.BindFlight(p.flight.NewRing(fmt.Sprintf("rank%d/comm%d", p.frank, id)))
	p.comms[id] = c
	return c
}

// acquireMatch takes the virtual lock covering matching at (src, tag): the
// single communicator lock normally, or — sharded — the one partition lock
// of that channel. Returns the contended wait and the release closure.
func (c *simComm) acquireMatch(sp *sim.Proc, src, tag int32) (time.Duration, func()) {
	l := c.lock
	if c.sharded != nil {
		l = c.shardLocks[c.sharded.ShardOf(src, tag)]
	}
	w := l.Acquire(sp)
	return w, func() { l.Release(sp) }
}

// nextRR advances the deterministic round-robin instance counter.
func (p *simProc) nextRR() int {
	i := int(p.rr % uint64(len(p.instances)))
	p.rr++
	return i
}

// instanceFor applies the assignment strategy (Algorithm 1).
func (p *simProc) instanceFor(ts *cri.ThreadState) *simInstance {
	if p.cfg.Opts.Assignment == cri.Dedicated {
		if ts.Dedicated() < 0 {
			// First use: assign round-robin and cache (the TLS write).
			*ts = cri.NewThreadState(p.nextRR())
		}
		return p.instances[ts.Dedicated()]
	}
	return p.instances[p.nextRR()]
}

// flowState is the per-pair eager flow control: sent counts injections,
// consumed counts fragments the receiver has extracted, and matched is the
// credit count actually returned to the sender — advanced in ackBatch
// chunks, as piggybacked BTL ACKs are. Batched returns make blocked
// senders wake to credit *bursts*; many threads bursting at once is what
// interleaves sequence numbers so heavily in real runs (Table II's 83-94%
// out-of-sequence rates).
type flowState struct {
	sent     int64
	consumed int64
	matched  int64
	ackBatch int64
}

// consume records one extracted fragment, returning credits in batches.
func (fs *flowState) consume() {
	fs.consumed++
	if fs.consumed-fs.matched >= fs.ackBatch {
		fs.matched = fs.consumed
	}
}

// simThread is one communicating thread in the model.
type simThread struct {
	proc *simProc
	ts   cri.ThreadState

	pendingSends int64 // outstanding send completions
	recvsDone    int64 // matched receives attributed to this thread
	flow         flowState

	// rng drives the deterministic send-path jitter (LCG).
	rng uint64
	// frng drives the deterministic fault rolls (separate stream so fault
	// flags do not perturb the jitter sequence of fault-free runs).
	frng uint64

	// used tracks the instances this thread has issued one-sided
	// operations on; flush reaps completions from exactly these.
	used []*simInstance

	// scratch receives Deliver completions. It must be per-thread, not
	// per-comm: under sharded matching two delivering threads interleave at
	// virtual-time yields (the meter advances the clock mid-match), and a
	// shared buffer would let one thread's completions clobber the other's.
	scratch []match.Completion

	// clk decomposes this thread's virtual time into exclusive phases. It
	// is nil — recording nothing — until the workload calls startClock.
	clk   *prof.ThreadClock
	label string

	// fring is this thread's flight-recorder ring (nil when the recorder
	// is off); events carry explicit virtual timestamps via RecordAt.
	fring *flight.Ring
}

func newSimThread(p *simProc) *simThread {
	t := &simThread{proc: p, ts: cri.NewThreadState(-1)}
	t.flow.ackBatch = int64(min(ackBatch, p.cfg.Credits))
	p.nThreads++
	t.label = fmt.Sprintf("rank%d/t%d", p.frank, p.nThreads-1)
	t.fring = p.flight.NewRing(t.label)
	t.rng = uint64(p.nThreads) * 0x9E3779B97F4A7C15
	t.frng = uint64(p.cfg.Faults.Seed)*0xD1B54A32D192ED03 ^ uint64(p.nThreads)*0x9E3779B97F4A7C15
	return t
}

// startClock gives the thread its phase clock, on its simulated thread's
// virtual time, starting now in the app phase.
func (t *simThread) startClock(sp *sim.Proc) {
	t.clk = t.proc.prof.NewThreadClock(t.label, sp.Now)
}

// faultRoll returns the next deterministic uniform draw in [0, 1).
func (t *simThread) faultRoll() float64 {
	t.frng = t.frng*6364136223846793005 + 1442695040888963407
	return float64(t.frng>>11) / float64(1<<53)
}

// faultFate rolls one packet's fault verdicts, mirroring the in-process
// backend's fault injector on virtual time: each drop costs the sender one
// backed-off retransmission timeout (the ack never comes, the reliability
// sweep resends) until a copy survives or the retry budget runs out; a
// delayed packet is held before reaching the remote queue; a duplicated
// packet is delivered twice and discarded by matching-layer dedup. Fault
// counters land on the sending proc's set, as the real injector's do.
func (t *simThread) faultFate(sp *sim.Proc) (delay time.Duration, copies int) {
	p := t.proc
	cfg := &p.cfg.Faults
	copies = 1
	rto := core.DefaultRetransmitTimeout
	for attempt := 0; attempt <= core.DefaultRetryBudget; attempt++ {
		if t.faultRoll() >= cfg.Drop {
			break
		}
		p.spcs.Inc(spc.FaultPacketsDropped)
		p.spcs.Inc(spc.Retransmits)
		t.fring.RecordAt(sp.Now(), flight.KindRetransmit, 0, int32(attempt+1), int32(rto/time.Microsecond), -1, 0)
		delay += rto
		rto *= 2
	}
	if cfg.Dup > 0 && t.faultRoll() < cfg.Dup {
		p.spcs.Inc(spc.FaultPacketsDuplicated)
		copies = 2
	}
	if cfg.Delay > 0 && t.faultRoll() < cfg.Delay {
		p.spcs.Inc(spc.FaultPacketsDelayed)
		delay += cfg.DelayDur
	}
	return delay, copies
}

// jitter returns the next deterministic send-path delay in [0, SendJitter).
func (t *simThread) jitter() time.Duration {
	t.rng = t.rng*6364136223846793005 + 1442695040888963407
	span := int64(t.proc.cfg.SendJitter)
	if span <= 0 {
		return 0
	}
	return time.Duration(int64(t.rng>>33) % span)
}

// backoffWait spins in virtual time until pred holds, without driving
// progress (for conditions another process resolves).
func (t *simThread) backoffWait(sp *sim.Proc, pred func() bool) {
	backoff := retryCost
	for !pred() {
		sp.Advance(backoff)
		sp.Yield()
		if backoff < maxBackoff {
			backoff *= 2
		}
	}
}

// send injects one message: instance acquisition per strategy, instance
// lock, injection CPU cost, wire reservation, delivery to the remote
// instance's queue (with back-pressure), and a local send-completion CQE.
// The runtime's backends post no completion for a two-sided send; the model
// keeps charging one (EXPERIMENTS.md, Known divergence 7).
func (t *simThread) send(sp *sim.Proc, c *simComm, dst *simProc, srcRank, dstRank, tag int32) {
	p := t.proc
	t.clk.Begin(prof.PhaseSend)
	defer t.clk.End()
	// Send-post instant for critical-path attribution: the CRI-acquire stage
	// starts here, so credit backoff is attributed like any other wait for a
	// communication resource.
	var latPost int64
	if p.lat != nil {
		latPost = sp.Now()
	}
	// Eager flow control: stall until the receiver's matching engine has
	// consumed enough of our earlier messages.
	credits := int64(p.cfg.Credits)
	t.backoffWait(sp, func() bool { return t.flow.sent-t.flow.matched < credits })

	// Request allocation serializes on process-wide memory management.
	p.memSerial.Reserve(sp, 0)
	seq := c.seq.Next(dstRank)
	t.fring.RecordAt(sp.Now(), flight.KindSendPost, c.id, dstRank, int32(seq), -1, 0)
	// Between sequence assignment and the doorbell lies the descriptor
	// build, whose latency varies with cache/allocator state. This window
	// is where concurrent threads overtake each other and inject out of
	// sequence order (Section II-C).
	sp.Advance(t.jitter())
	copies := 1
	if p.cfg.Faults.Enabled() {
		var faultDelay time.Duration
		faultDelay, copies = t.faultFate(sp)
		if faultDelay > 0 {
			// Retransmission timeouts and held-back deliveries push this
			// packet's arrival past traffic injected meanwhile — the same
			// reordering the wall-clock injector's delay queue produces.
			t.clk.Begin(prof.PhaseRetransmit)
			sp.Advance(faultDelay)
			t.clk.End()
		}
	}
	env := transport.Envelope{
		Src: srcRank, Dst: dstRank, Tag: tag, Comm: c.id,
		Seq: seq, Len: uint32(p.cfg.MsgSize), Kind: transport.KindEager,
	}
	pkt := transport.NewPacketRaw(env, nil)
	var meta *transport.Meta
	if p.lat != nil {
		// Same deterministic id scheme as core's traceID, on world ranks, and
		// no wire-byte cost: attribution marks the in-memory packet only, so
		// (unlike Traced) the makespan is byte-identical with the layer off.
		meta = &transport.Meta{
			TraceID: uint64(p.frank+1)<<48 | uint64(c.id&0xffff)<<32 | uint64(seq),
			Origin:  int32(p.frank),
			Stamp:   latPost,
		}
		pkt.Meta = meta
	}

	if p.bigLock != nil {
		t.clk.Begin(prof.PhaseLockWait)
		p.bigLock.Acquire(sp)
		t.clk.End()
	}
	inst, putBack := p.acquireSendInstance(&t.ts)
	p.noteConn(dst, inst.index)
	t.clk.Begin(prof.PhaseLockWait)
	instWait := inst.lock.Acquire(sp)
	t.clk.End()
	if instWait >= flight.LockWaitThreshold {
		t.fring.RecordAt(sp.Now(), flight.KindLockWait, 0, int32(inst.index), int32(instWait/time.Microsecond), -1, 0)
	}
	if p.lat != nil {
		// CRI acquired (send post to instance held, including credit backoff
		// and any lock convoy above).
		meta.SendAcqNs = sp.Now() - latPost
	}
	sp.Advance(p.costs.SendInject)
	header := transport.EnvelopeSize
	if p.cfg.Opts.TraceWire {
		header += transport.TraceExtSize
	}
	t.clk.Begin(prof.PhaseWire)
	p.wire.Reserve(sp, header+p.cfg.MsgSize)

	remote := dst.instances[inst.index%len(dst.instances)]
	// Hardware back-pressure: stall while the remote receive queue is full.
	for len(remote.rxQ) >= p.cfg.Opts.QueueDepth {
		sp.Advance(retryCost)
		sp.Yield()
	}
	if p.lat != nil {
		// Injection complete: wire-write stage ends and the packet arrives at
		// the receiver's transport in the same virtual instant (transit is 0
		// by construction on the model's wire). Fields are final before the
		// append publishes the pointer; the sender-local stages also land in
		// the sender's histograms here.
		now := sp.Now()
		meta.SendWireNs = now - latPost - meta.SendAcqNs
		meta.ArriveNs = now
		p.lat.ObserveStage(latency.StageCRIAcquire, meta.SendAcqNs)
		p.lat.ObserveStage(latency.StageWireWrite, meta.SendWireNs)
	}
	remote.rxQ = append(remote.rxQ, cqe{pkt: pkt, flow: &t.flow})
	if copies > 1 {
		// The duplicate copy consumes wire time too; matching-layer dedup
		// discards it on the far side.
		p.wire.Reserve(sp, header+p.cfg.MsgSize)
		remote.rxQ = append(remote.rxQ, cqe{pkt: pkt, flow: &t.flow})
	}
	t.clk.End()
	inst.cq = append(inst.cq, cqe{pending: &t.pendingSends})
	inst.lock.Release(sp)
	putBack()
	if p.bigLock != nil {
		p.bigLock.Release(sp)
	}
	t.pendingSends++
	t.flow.sent++
	p.spcs.Inc(spc.MessagesSent)
}

// postRecv posts one receive into the communicator's matching engine.
func (t *simThread) postRecv(sp *sim.Proc, c *simComm, srcRank, tag int32) {
	p := t.proc
	t.clk.Begin(prof.PhaseMatch)
	defer t.clk.End()
	if p.bigLock != nil {
		t.clk.Begin(prof.PhaseLockWait)
		p.bigLock.Acquire(sp)
		t.clk.End()
		defer p.bigLock.Release(sp)
	}
	if c.anyTag {
		tag = match.AnyTag
	}
	// Receive-request construction happens outside the matching lock.
	sp.Advance(p.costs.RecvPost)
	p.memSerial.Reserve(sp, 0)
	r := &match.Recv{Source: srcRank, Tag: tag, Token: t}
	t.clk.Begin(prof.PhaseLockWait)
	waited, release := c.acquireMatch(sp, srcRank, tag)
	t.clk.End()
	c.engine.ChargeWait(waited)
	c.meter.p = sp
	p.flightSP = sp
	comp, ok := c.engine.PostRecv(r)
	release()
	if ok {
		// The posted receive matched immediately: the message was sitting in
		// the unexpected queue since its delivery stamp.
		tt := comp.Recv.Token.(*simThread)
		tt.recvsDone++
		p.recordLatency(comp, true, sp.Now())
	}
}

// progress is the virtual-time progress engine: Serial takes the global
// try-lock and polls every instance; Concurrent runs Algorithm 2.
// Productive passes mirror onto the flight ring, as the real engine's do.
func (t *simThread) progress(sp *sim.Proc) int {
	count := t.progressPass(sp)
	if count > 0 {
		t.fring.RecordAt(sp.Now(), flight.KindProgress, 0, int32(count), 0, -1, 0)
	}
	return count
}

func (t *simThread) progressPass(sp *sim.Proc) int {
	p := t.proc
	p.spcs.Inc(spc.ProgressCalls)
	if p.bigLock != nil {
		t.clk.Begin(prof.PhaseLockWait)
		p.bigLock.Acquire(sp)
		t.clk.End()
		defer p.bigLock.Release(sp)
	}
	if p.cfg.Opts.Progress == progress.Serial {
		if !p.progLock.TryAcquire(sp) {
			p.spcs.Inc(spc.ProgressTryLockFail)
			return 0
		}
		t.clk.Begin(prof.PhaseProgressOwn)
		count := 0
		for _, inst := range p.instances {
			t.clk.Begin(prof.PhaseLockWait)
			inst.lock.Acquire(sp)
			t.clk.End()
			count += t.poll(sp, inst, 64)
			inst.lock.Release(sp)
		}
		p.progLock.Release(sp)
		t.clk.End()
		return count
	}
	// Concurrent (Algorithm 2): dedicated instance first.
	count := 0
	if k := t.ts.Dedicated(); k >= 0 {
		inst := p.instances[k]
		if inst.lock.TryAcquire(sp) {
			t.clk.Begin(prof.PhaseProgressOwn)
			count = t.poll(sp, inst, 64)
			t.clk.End()
			inst.lock.Release(sp)
		} else {
			p.spcs.Inc(spc.ProgressTryLockFail)
		}
	}
	if count > 0 {
		return count
	}
	t.clk.Begin(prof.PhaseProgressSteal)
	defer t.clk.End()
	for range p.instances {
		inst := p.instances[p.nextRR()]
		if !inst.lock.TryAcquire(sp) {
			p.spcs.Inc(spc.ProgressTryLockFail)
			p.spcs.Inc(spc.ProgressStealLosses)
			continue
		}
		c := t.poll(sp, inst, 64)
		inst.lock.Release(sp)
		count += c
		if count > 0 {
			return count
		}
	}
	return count
}

// poll drains up to max events from one instance under its (held) lock.
func (t *simThread) poll(sp *sim.Proc, inst *simInstance, max int) int {
	p := t.proc
	n := 0
	for n < max && len(inst.cq) > 0 {
		e := inst.cq[0]
		inst.cq = inst.cq[1:]
		sp.Advance(p.costs.RecvExtract)
		*e.pending--
		n++
	}
	for n < max && len(inst.rxQ) > 0 {
		e := inst.rxQ[0]
		inst.rxQ = inst.rxQ[1:]
		sp.Advance(p.costs.RecvExtract)
		t.deliver(sp, e.pkt, e.flow)
		n++
	}
	if n == 0 {
		sp.Advance(p.costs.CQPollEmpty)
	}
	return n
}

// deliver pushes one inbound packet through its communicator's matching
// engine, accounting lock wait as match time (as Open MPI's SPC does), and
// returns a credit to its sender's flow.
func (t *simThread) deliver(sp *sim.Proc, pkt *transport.Packet, flow *flowState) {
	p := t.proc
	env := pkt.Envelope()
	c := p.comms[env.Comm]
	if c == nil {
		// Same graceful degradation as the real runtime: a packet for a
		// torn-down communicator is counted and dropped, never fatal.
		p.spcs.Inc(spc.LatePackets)
		return
	}
	if p.lat != nil && pkt.Meta.RecvStamp == 0 {
		// Matching-engine delivery stamp: the gap from the arrival stamp is
		// the receive-side progress lag (deliver_wait). Write-once so a
		// duplicate copy cannot restamp a message sitting unexpected.
		pkt.Meta.RecvStamp = sp.Now()
	}
	// Inbound fragment handling allocates/recycles through process-wide
	// memory management before matching.
	p.memSerial.Reserve(sp, 0)
	// Eager credit returns at fragment consumption (BTL semantics), not at
	// match time — an out-of-sequence message that sits buffered must not
	// stall its sender forever.
	flow.consume()
	t.clk.Begin(prof.PhaseLockWait)
	waited, release := c.acquireMatch(sp, env.Src, env.Tag)
	t.clk.End()
	t.clk.Begin(prof.PhaseMatch)
	c.engine.ChargeWait(waited)
	c.meter.p = sp
	p.flightSP = sp
	t.scratch = c.engine.Deliver(pkt, t.scratch[:0])
	comps := t.scratch
	t.clk.End()
	release()
	for _, comp := range comps {
		tt := comp.Recv.Token.(*simThread)
		tt.recvsDone++
		c.postedOut++
		p.recordLatency(comp, false, sp.Now())
	}
}

// recordLatency hands a matched message to the latency recorder, if any:
// under attribution every packet carries its Meta record.
func (p *simProc) recordLatency(comp match.Completion, unexpected bool, now int64) {
	if p.lat != nil {
		p.lat.RecordPacket(comp.Packet, comp.Recv.MatchedEnv.Tag, unexpected, comp.Packet.Meta.Stamp, now, 0)
	}
}

// waitFor spins (in virtual time) until pred holds, driving progress with
// adaptive backoff on idle passes.
func (t *simThread) waitFor(sp *sim.Proc, pred func() bool) {
	backoff := retryCost
	for !pred() {
		if t.progress(sp) == 0 {
			sp.Advance(backoff)
			sp.Yield()
			if backoff < maxBackoff {
				backoff *= 2
			}
		} else {
			backoff = retryCost
		}
	}
}
