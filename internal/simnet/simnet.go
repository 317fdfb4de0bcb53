// Package simnet models the paper's message path on the deterministic
// virtual-time engine (internal/sim): the runtime's own CRI pool
// (Algorithm 1) and progress engine (Algorithm 2) over virtual-time
// contexts and locks, per-communicator matching via the shared match.Engine,
// the NIC wire cap, and both benchmark workloads (Multirate pairwise and
// RMA-MT). All Figures 3-7 and Table II are regenerated from this model.
// It runs the configuration the runtime's harnesses take (multirate.Config,
// rmamt.Config, core.Options under their Opts), normalized with their own
// defaults; Model holds only what the runtime has no mechanism for.
//
// The model and the real runtime (internal/core) share instance assignment,
// the progress passes, the matching engine, the cost model, the SPC counters
// and the observers — the phase clock, the latency stage derivation and the
// flight recorder, fed virtual instants here; they differ only in how time
// and mutual exclusion are realized (virtual vs. wall-clock).
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
	// rank, in rank order — when SampleInterval or Watchdog
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

// vlock is a virtual-time lock behind the runtime's lock seam
// (prof.VirtualLock): bound to a prof.Mutex or TryMutex — an instance's, the
// progress engine's serial lock, a matching lock, the big lock — it acquires
// and releases for the simulated thread the executive is running, and the
// Mutex records its waits on the proc's profiler site. It is the one place
// the model takes a lock the breakdown reports.
type vlock struct {
	l   *sim.Lock
	env *sim.Env
	// waited is the last Lock's wait, for its holder to read.
	waited time.Duration
}

func (v *vlock) Lock(c *prof.ThreadClock) time.Duration {
	c.Begin(prof.PhaseLockWait)
	v.waited = v.l.Acquire(v.env.Current())
	c.End()
	return v.waited
}

func (v *vlock) TryLock() bool { return v.l.TryAcquire(v.env.Current()) }

func (v *vlock) Unlock() { v.l.Release(v.env.Current()) }

// simContext is one model CRI's network context, polled in virtual time. A
// local completion (send or put) carries the issuing thread's count of
// outstanding operations as its Token; an inbound packet carries its
// sender's flow, to which each extraction, a duplicate copy's included,
// returns a credit.
//
// It is a transport.Context and nothing more: the model issues its
// one-sided operations itself (RunRMAMT).
type simContext struct {
	proc *simProc
	// lock is the virtual lock of the instance over this context.
	lock *vlock
	cq   []transport.CQE // local completions, FIFO
	rxQ  []transport.CQE // inbound packets, FIFO
	// scratch receives Deliver completions. Every poll runs under the
	// instance lock, so no two delivering threads share it — they interleave
	// at virtual-time yields (the meter advances the clock mid-match), and a
	// shared buffer would let one's completions clobber the other's.
	scratch []match.Completion
}

func (x *simContext) queued() int { return len(x.cq) + len(x.rxQ) }

// Pending reports whether a completion or an inbound packet is queued.
func (x *simContext) Pending() bool { return x.queued() > 0 }

// Poll extracts up to max events, local completions before inbound packets,
// charging the caller's simulated thread one extraction each, or one empty
// poll when there were none.
func (x *simContext) Poll(handler func(transport.CQE), max int) int {
	sp, costs := x.proc.env.Current(), x.proc.costs
	n := 0
	for n < max {
		q := &x.cq
		if len(*q) == 0 {
			q = &x.rxQ
		}
		if len(*q) == 0 {
			break
		}
		e := (*q)[0]
		*q = (*q)[1:]
		sp.Advance(costs.RecvExtract)
		handler(e)
		n++
	}
	if n == 0 {
		sp.Advance(costs.CQPollEmpty)
	}
	return n
}

// simComm is one communicator's matching state in the model.
type simComm struct {
	id   uint32
	lock *prof.Mutex
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

	cfg   params
	costs hw.CostModel
	env   *sim.Env
	// ctxs are the contexts of pool's instances, by index; pool assigns
	// them (Algorithm 1) and engine progresses them (Algorithm 2), as the
	// runtime's do.
	ctxs     []*simContext
	pool     *cri.Pool
	engine   *progress.Engine
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
	// flight is the real runtime's flight recorder on virtual time: its
	// clock is the running simulated thread's.
	flight *flight.Recorder
	// lat is the real runtime's critical-path attribution recorder, fed
	// virtual-time stamps (Opts.Latency; nil-safe). Observation only:
	// recording never advances the clock.
	lat *latency.Recorder
	// prof holds the workload threads' phase clocks, which read their
	// simulated thread's virtual clock, and the sites of the proc's locks,
	// under the names the runtime binds.
	prof *prof.Profiler
	// serial is the engine's serial progress lock, for the RMA flush's tick.
	serial  prof.TryMutex
	bigLock *prof.Mutex // BigLock design, nil unless enabled
	wire    *sim.Wire   // owning node's wire (shared)
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
	if cfg.BigLock {
		p.bigLock = p.newMutex("core.biglock", 0)
	}
	if cfg.Opts.Latency {
		p.lat = latency.NewRecorder(latency.DefaultExemplars)
	}
	if alloc := p.costs.AllocSerialize; alloc > 0 {
		p.memSerial = sim.NewWire(0, 1e9/float64(alloc.Nanoseconds()))
	}
	// The instances keep no counter set of their own: the pool and engine
	// count into the proc's, and send_lock_waits reads 0 in the model.
	instances := make([]*cri.Instance, cfg.Opts.NumInstances)
	for i := range instances {
		x := &simContext{proc: p, lock: p.newVlock("cri.instance")}
		p.ctxs = append(p.ctxs, x)
		instances[i] = cri.NewInstance(i, x, nil)
		instances[i].BindVirtualLock(x.lock)
		instances[i].BindProfSite(p.prof.NewSite("cri.instance", i, 0))
	}
	// Options.WithDefaults gives every run at least one instance, which is
	// all NewPool checks.
	p.pool, _ = cri.NewPool(instances, cfg.Opts.Assignment)
	p.pool.SetSPCs(p.spcs)
	p.engine = progress.New(cfg.Opts.Progress, p.pool, p.dispatch, p.spcs)
	serial, site := p.newVlock("progress.serial"), p.prof.NewSite("progress.serial", -1, 0)
	p.engine.BindVirtualLock(serial)
	p.engine.BindProfSite(site)
	p.serial.BindVirtual(serial)
	p.serial.Bind(site)
	return p
}

// newVlock builds a virtual lock with the configuration's contention model.
func (p *simProc) newVlock(name string) *vlock {
	return &vlock{l: p.cfg.newLock(p.env, name), env: p.env}
}

// newMutex builds a runtime lock over a fresh virtual lock, recording on a
// new site of the proc's profiler (comm 0: not communicator-scoped).
func (p *simProc) newMutex(name string, comm uint32) *prof.Mutex {
	m := new(prof.Mutex)
	m.BindVirtual(p.newVlock(name))
	m.Bind(p.prof.NewSite(name, -1, comm))
	return m
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
		lock:   p.newMutex("match.comm", id),
		seq:    match.NewSeqTracker(nRanks),
		anyTag: p.cfg.AnyTag,
	}
	meter := sim.Meter{Env: p.env}
	if p.cfg.NoWildcards {
		sh := match.NewSharded(id, nRanks, match.DefaultShards, p.costs, meter, p.spcs)
		c.sharded = sh
		c.engine = sh
		c.shardLocks = make([]*sim.Lock, sh.NumShards())
		for i := range c.shardLocks {
			c.shardLocks[i] = p.cfg.newLock(p.env, "match.shard")
		}
	} else {
		c.engine = match.NewEngine(id, nRanks, p.costs, meter, p.spcs)
	}
	c.engine.SetAllowOvertaking(p.cfg.Overtaking)
	// The matching lock serializes the engine, so one ring per comm; the
	// recorder's clock-holder gives the events virtual timestamps.
	c.engine.BindFlight(p.flight.NewRing(fmt.Sprintf("rank%d/comm%d", p.frank, id)))
	p.comms[id] = c
	return c
}

// lockMatch takes the lock covering matching at (src, tag) for sp — the
// communicator lock normally, or, sharded, the one partition lock of that
// channel — charging the wait to clk's lock-wait phase and the engine's
// match time. The returned function releases it.
func (c *simComm) lockMatch(sp *sim.Proc, clk *prof.ThreadClock, src, tag int32) (unlock func()) {
	if c.sharded != nil {
		return c.lockShard(sp, clk, src, tag)
	}
	c.engine.ChargeWait(c.lock.LockClocked(clk))
	return c.lock.Unlock
}

// lockShard takes a NoWildcards partition lock. The shard locks stay the
// model's own raw sim.Locks, outside the lock seam and unreported: the model
// takes one lock per arrival where the runtime's sharded engine takes a
// stripe lock and then a shard lock of its own.
func (c *simComm) lockShard(sp *sim.Proc, clk *prof.ThreadClock, src, tag int32) func() {
	l := c.shardLocks[c.sharded.ShardOf(src, tag)]
	clk.Begin(prof.PhaseLockWait)
	c.engine.ChargeWait(l.Acquire(sp))
	clk.End()
	return func() { l.Release(sp) }
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
	// ts is the thread's assignment cache, clock and flight ring, which the
	// pool and the progress engine read.
	ts cri.ThreadState

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
	used []*cri.Instance

	// clk decomposes this thread's virtual time into exclusive phases. It
	// is nil — recording nothing — until the workload calls startClock.
	clk   *prof.ThreadClock
	label string

	// fring is this thread's flight-recorder ring (nil when the recorder
	// is off); events carry explicit virtual timestamps via RecordAt.
	fring *flight.Ring
}

func newSimThread(p *simProc) *simThread {
	t := &simThread{proc: p}
	t.flow.ackBatch = int64(min(ackBatch, p.cfg.Credits))
	p.nThreads++
	t.label = fmt.Sprintf("rank%d/t%d", p.frank, p.nThreads-1)
	t.fring = p.flight.NewRing(t.label)
	t.ts.SetFlight(t.fring)
	t.rng = uint64(p.nThreads) * 0x9E3779B97F4A7C15
	t.frng = uint64(p.cfg.Faults.Seed)*0xD1B54A32D192ED03 ^ uint64(p.nThreads)*0x9E3779B97F4A7C15
	return t
}

// startClock gives the thread its phase clock, on its simulated thread's
// virtual time, starting now in the app phase; the pool and the progress
// engine read it from the thread state, as the runtime's do.
func (t *simThread) startClock(sp *sim.Proc) {
	t.clk = t.proc.prof.NewThreadClock(t.label, sp.Now)
	t.ts.SetClock(t.clk)
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

// send injects one message: a locked instance from the pool
// (cri.Pool.AcquireSend), injection CPU cost, wire reservation, delivery to
// the remote instance's queue (with back-pressure), and a local
// send-completion CQE.
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
		// The runtime's trace id, on world ranks, and no wire-byte cost:
		// attribution marks the in-memory packet only, so (unlike Traced)
		// the makespan is byte-identical with the layer off.
		meta = &transport.Meta{
			TraceID: core.TraceID(p.frank, c.id, seq),
			Origin:  int32(p.frank),
			Stamp:   latPost,
		}
		pkt.Meta = meta
	}

	if p.bigLock != nil {
		p.bigLock.LockClocked(t.clk)
	}
	inst, release := p.pool.AcquireSend(&t.ts)
	ctx := p.ctxs[inst.Index()]
	p.noteConn(dst, inst.Index())
	if w := ctx.lock.waited; w >= flight.LockWaitThreshold {
		t.fring.RecordAt(sp.Now(), flight.KindLockWait, 0, int32(inst.Index()), int32(w/time.Microsecond), -1, 0)
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

	remote := dst.ctxs[inst.Index()%len(dst.ctxs)]
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
	arrival := transport.CQE{Kind: transport.CQERecv, Packet: pkt, Token: &t.flow}
	remote.rxQ = append(remote.rxQ, arrival)
	if copies > 1 {
		// The duplicate copy consumes wire time too; matching-layer dedup
		// discards it on the far side.
		p.wire.Reserve(sp, header+p.cfg.MsgSize)
		remote.rxQ = append(remote.rxQ, arrival)
	}
	t.clk.End()
	ctx.cq = append(ctx.cq, transport.CQE{Token: &t.pendingSends})
	release()
	if p.bigLock != nil {
		p.bigLock.Unlock()
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
		p.bigLock.LockClocked(t.clk)
		defer p.bigLock.Unlock()
	}
	if c.anyTag {
		tag = match.AnyTag
	}
	// Receive-request construction happens outside the matching lock.
	sp.Advance(p.costs.RecvPost)
	p.memSerial.Reserve(sp, 0)
	r := &match.Recv{Source: srcRank, Tag: tag, Token: t}
	unlock := c.lockMatch(sp, t.clk, srcRank, tag)
	comp, ok := c.engine.PostRecv(r)
	unlock()
	if ok {
		// The posted receive matched immediately: the message was sitting in
		// the unexpected queue since its delivery stamp.
		tt := comp.Recv.Token.(*simThread)
		tt.recvsDone++
		p.recordLatency(comp, true, sp.Now())
	}
}

// progress makes one pass of the runtime's progress engine for the thread,
// inside the big lock under that design.
func (t *simThread) progress(sp *sim.Proc) int {
	p := t.proc
	if p.bigLock != nil {
		p.bigLock.LockClocked(t.clk)
		defer p.bigLock.Unlock()
	}
	return p.engine.Progress(&t.ts)
}

// dispatch is the progress engine's handler for one extracted event: a local
// completion returns one of its thread's outstanding operations, an inbound
// packet goes to matching.
func (p *simProc) dispatch(clk *prof.ThreadClock, in *cri.Instance, e transport.CQE) {
	if e.Kind != transport.CQERecv {
		*e.Token.(*int64)--
		return
	}
	p.ctxs[in.Index()].deliver(p.env.Current(), clk, e.Packet, e.Token.(*flowState))
}

// deliver pushes one inbound packet through its communicator's matching
// engine, accounting lock wait as match time (as Open MPI's SPC does), and
// returns a credit to its sender's flow.
func (x *simContext) deliver(sp *sim.Proc, clk *prof.ThreadClock, pkt *transport.Packet, flow *flowState) {
	p := x.proc
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
	unlock := c.lockMatch(sp, clk, env.Src, env.Tag)
	clk.Begin(prof.PhaseMatch)
	x.scratch = c.engine.Deliver(pkt, x.scratch[:0])
	comps := x.scratch
	clk.End()
	unlock()
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
