package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/flight"
	"repro/internal/hw"
	"repro/internal/latency"
	"repro/internal/match"
	"repro/internal/prof"
	"repro/internal/spc"
	"repro/internal/transport"
)

// Wildcards re-exported for the public API.
const (
	// AnySource matches messages from any rank (MPI_ANY_SOURCE).
	AnySource = match.AnySource
	// AnyTag matches any tag (MPI_ANY_TAG).
	AnyTag = match.AnyTag
)

// ErrWildcard is Irecv's and RecvInit's refusal of AnySource or AnyTag on a
// communicator asserting Info.NoWildcards.
var ErrWildcard = match.ErrWildcard

// Comm is one process's handle on a communicator. Matching state is
// per-communicator (OB1-style), which is what makes the paper's
// concurrent-matching experiment possible: distinct communicators match
// concurrently because each has its own engine and lock.
type Comm struct {
	proc   *Proc
	id     uint32
	group  []int // communicator rank -> world rank
	myRank int
	info   Info

	// matchMu serializes the matching engine — the paper's "remaining
	// serial section". Profiled per communicator so concurrent-matching
	// designs show their per-comm contention split. When selfMatch is set
	// the engine synchronizes internally (match.Sharded) and matchMu is
	// never taken: the serial section is gone, which is the point.
	matchMu   prof.Mutex
	selfMatch bool
	engine    match.Matcher
	seq       *match.SeqTracker

	// spcs is this communicator's attributed counter set — a child of the
	// process totals (see Proc.SPCSnapshot) — for what the communicator
	// counts outside matching (sends, flushes, matched-probe receives). The
	// matching engine keeps its own counters under the matching lock;
	// SPCSnapshot merges the two.
	spcs *spc.Set

	// collSeq numbers collective calls; all ranks advance it in lockstep
	// because MPI requires collectives in identical order.
	collSeq atomic.Uint32
}

// TraceID derives the deterministic message-lifecycle trace id for one
// eager send: origin world rank (biased so rank 0 yields a non-zero id), the
// communicator id, and the per-destination sequence number. Both ends of a
// traced message compute the same id, which is what lets a merger stitch
// the cross-rank flow without any id-exchange protocol; the virtual-time
// model (internal/simnet) stamps its packets with it too.
func TraceID(rank int, commID uint32, seq uint32) uint64 {
	return uint64(rank+1)<<48 | uint64(commID&0xffff)<<32 | uint64(seq)
}

func newComm(p *Proc, id uint32, group []int, myRank int, info Info) *Comm {
	c := &Comm{proc: p, id: id, group: group, myRank: myRank, info: info}
	c.spcs = spc.NewSet()
	c.matchMu.Bind(p.prof.NewSite("match.comm", -1, id))
	// The runtime runs at the host's speed: its engines charge no modeled
	// cost (the virtual-time model charges the machine's through its meter).
	if info.NoWildcards {
		// Every receive names one (source, tag) channel, so matching shards
		// by channel and the communicator-wide lock goes.
		sh := match.NewSharded(id, len(group), match.DefaultShards, hw.CostModel{}, nil, c.spcs)
		sites := make([]*prof.Site, sh.NumShards())
		for i := range sites {
			sites[i] = p.prof.NewSite("match.shard", i, id)
		}
		sh.BindProfSites(sites, p.prof.NewSite("match.stripe", -1, id))
		c.engine = sh
	} else {
		c.engine = match.NewEngine(id, len(group), hw.CostModel{}, nil, c.spcs)
	}
	c.selfMatch = match.SelfLocking(c.engine)
	c.engine.SetAllowOvertaking(info.AllowOvertaking)
	// The comm's matching events share one ring because the matching lock
	// already serializes them; the ring id keys the merged record.
	c.engine.BindFlight(p.flight.NewRing(fmt.Sprintf("rank%d/comm%d", p.rank, id)))
	c.seq = match.NewSeqTracker(len(group))
	p.registerComm(c)
	return c
}

// ID returns the communicator's context id.
func (c *Comm) ID() uint32 { return c.id }

// Rank returns the calling process's rank within the communicator.
func (c *Comm) Rank() int { return c.myRank }

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.group) }

// WorldRank translates a communicator rank to a world rank.
func (c *Comm) WorldRank(commRank int) int { return c.group[commRank] }

// Proc returns the owning process.
func (c *Comm) Proc() *Proc { return c.proc }

// SPCs returns the communicator's attributed counter set. Runtime-internal
// layers (e.g. the one-sided stack) record communicator-scoped counters here.
// It does not hold the matching engine's counts: read SPCSnapshot.
func (c *Comm) SPCs() *spc.Set { return c.spcs }

// SPCSnapshot returns the communicator's counters: its set merged with the
// matching engine's counts, read under the matching lock. Never call it
// holding a matching or instance lock.
func (c *Comm) SPCSnapshot() spc.Snapshot {
	c.lockMatch(nil)
	n := c.engine.Counts()
	c.unlockMatch()
	return spc.Merge(c.spcs.Snapshot(), n)
}

// Dup collectively duplicates the communicator, returning the new handles
// for every member (indexed by communicator rank), like MPI_Comm_dup
// called by all members.
func (c *Comm) Dup() ([]*Comm, error) {
	return c.proc.world.NewCommWithInfo(c.group, c.info)
}

func (c *Comm) String() string {
	return fmt.Sprintf("comm(id=%d rank=%d/%d)", c.id, c.myRank, len(c.group))
}

func (c *Comm) checkRank(r int, what string) error {
	if r < 0 || r >= len(c.group) {
		return fmt.Errorf("core: %s rank %d outside communicator of size %d", what, r, len(c.group))
	}
	return nil
}

// checkSource validates a receive's coordinates: a source rank inside the
// communicator or AnySource, and no wildcard the communicator refuses.
func (c *Comm) checkSource(src int, tag int32) error {
	if err := c.refuseWildcard(src, tag); err != nil {
		return err
	}
	if src == int(AnySource) {
		return nil
	}
	return c.checkRank(src, "source")
}

// refuseWildcard is the one check of Info.NoWildcards: on a communicator
// that asserts it, a wildcard source or tag is refused with ErrWildcard
// before it can reach the sharded engine, which has no wildcard path.
func (c *Comm) refuseWildcard(src int, tag int32) error {
	if !c.info.NoWildcards {
		return nil
	}
	return match.RefuseWildcard(int32(src), tag)
}

// checkProbe refuses a wildcard probe the way refuseWildcard refuses a
// receive, but Probe and MProbe have no error to return: the refusal is
// documented misuse and panics, like a threading-level violation.
func (c *Comm) checkProbe(src int, tag int32) {
	if err := c.refuseWildcard(src, tag); err != nil {
		panic(err)
	}
}

// Isend starts a non-blocking send of buf to communicator rank dst. As in
// MPI, buf belongs to the operation until the request completes: a message
// above the eager limit travels by rendezvous, which reads buf when the
// receiver's ACK arrives — possibly long after Isend returned — so writing it
// before Wait/Test reports completion corrupts the message. At or below the
// eager limit (and for any self send) the payload is copied before Isend
// returns and buf is free at once; callers that rely on that are relying on
// the eager limit.
func (c *Comm) Isend(th *Thread, dst int, tag int32, buf []byte) (*Request, error) {
	p := c.proc
	if th.proc != p {
		panic("core: Isend with a thread from a different proc")
	}
	if err := c.checkRank(dst, "destination"); err != nil {
		return nil, err
	}
	if tag < 0 {
		return nil, fmt.Errorf("core: negative tag %d is reserved", tag)
	}
	return c.isend(th, dst, tag, buf)
}

// isend is the one protocol decision, for user sends and the runtime's own
// collective and control traffic (negative tags) alike: a payload above
// DefaultEagerLimit to another rank goes by rendezvous, anything else — self
// sends included — eagerly.
func (c *Comm) isend(th *Thread, dst int, tag int32, buf []byte) (*Request, error) {
	clk := th.ts.Clock()
	clk.Begin(prof.PhaseSend)
	defer clk.End()
	if len(buf) > DefaultEagerLimit && c.group[dst] != c.proc.rank {
		return c.isendRendezvous(th, dst, tag, buf)
	}
	return c.isendEager(th, dst, tag, buf)
}

// userEager reports whether env is a user's eager message — the traffic the
// send_inject event and the latency stamps follow. Collectives and
// control messages ride negative tags, which Isend refuses, and a rendezvous
// is traced by its own start/done events.
func userEager(env transport.Envelope) bool {
	return env.Kind == transport.KindEager && env.Tag >= 0
}

// newEnvelope starts a matched message toward communicator rank dst: it
// draws the next sequence number of the (dst, comm) stream and counts the
// message as sent. Every matched envelope — eager, internal-tag, rendezvous
// RTS, self-addressed — is made here, so messages_sent summed over ranks
// equals messages_received at quiescence.
func (c *Comm) newEnvelope(dst int, tag int32, kind transport.Kind) transport.Envelope {
	c.spcs.Inc(spc.MessagesSent)
	return transport.Envelope{
		Src: int32(c.myRank), Dst: int32(dst), Tag: tag,
		Comm: c.id, Seq: c.seq.Next(int32(dst)), Kind: kind,
	}
}

// isendEager sends buf as one eager message: a payload at or below the eager
// limit, or any self send. The caller has opened PhaseSend.
func (c *Comm) isendEager(th *Thread, dst int, tag int32, buf []byte) (*Request, error) {
	p := c.proc
	env := c.newEnvelope(dst, tag, transport.KindEager)
	// The send post: one instant for the send_post event and the stamp every
	// downstream latency is measured from.
	var now int64
	if p.timed {
		now = time.Now().UnixNano()
	}
	ring := th.ts.Flight()
	ring.RecordAt(now-p.flightBase, flight.KindSendPost, c.id, int32(dst), int32(env.Seq), -1, 0)
	env.Len = uint32(len(buf))
	self := c.group[dst] == p.rank
	var pkt *transport.Packet
	if p.reuseSend && !self {
		// Send is done with the packet when it returns: the Thread's one
		// packet carries buf uncopied.
		pkt = &th.tx
		pkt.Reset(env, buf)
	} else {
		// The in-process receiver, a self send's matching engine or the
		// retransmit window keeps this packet.
		pkt = carve(&th.pkts)
		pkt.Init(env, buf, &th.slab)
	}
	user := userEager(env)
	if user && p.timed {
		m := pkt.MetaFrom(&th.slab)
		m.Stamp = now
		if p.traceWire {
			m.TraceID = TraceID(p.rank, c.id, env.Seq)
			m.Origin = int32(p.rank)
		}
	}
	if self {
		// Self message: bypass the fabric, deliver straight into the
		// matching engine and complete the send.
		if user {
			ring.RecordAt(now-p.flightBase, flight.KindSendInject, c.id, int32(dst), int32(env.Seq), -1, pkt.TraceID())
		}
		p.deliver(th.ts.Clock(), nil, pkt, &th.run)
		return &p.sent, nil
	}
	var req *Request
	if p.rel != nil {
		// A tracked send completes on its ack, so it needs a handle of its own.
		req = carve(&th.reqs)
		req.proc = p
	}
	if err := c.inject(th, env, pkt, req, nil); err != nil {
		return nil, err
	}
	if req == nil {
		// A lossless wire: the send is complete once the backend has it.
		return &p.sent, nil
	}
	return req, nil
}

// inject is the one way a matched envelope leaves this process: hold a CRI,
// take its endpoint toward the destination, enter the packet in the
// reliability window (req, if set, completes on ack; fail, if set, runs
// instead when the peer is given up on), and write it to the wire inside
// PhaseWire. On a lossless backend there is no window and no completion: the
// backend took the packet, and its payload was copied either at the send post
// or, on a backend that copies (Caps.Copies), by Send itself.
func (c *Comm) inject(th *Thread, env transport.Envelope, pkt *transport.Packet, req *Request, fail func(error)) error {
	p := c.proc
	dstWorld := c.group[env.Dst]
	inst, release := p.pool.AcquireSend(&th.ts)
	ep := inst.Endpoint(dstWorld)
	if ep == nil {
		release()
		return fmt.Errorf("core: no endpoint from rank %d to %d: %w", p.rank, dstWorld, ErrPeerUnreachable)
	}
	// Instance held: one instant for the send_inject event, the end of the
	// CRI-acquire stage and the start of the wire-write stage.
	var held int64
	if p.flight != nil || p.lat != nil {
		held = time.Now().UnixNano()
	}
	if userEager(env) {
		th.ts.Flight().RecordAt(held-p.flightBase, flight.KindSendInject, c.id, env.Dst, int32(env.Seq), inst.Index(), pkt.TraceID())
	}
	// Only stamped packets have a send post to measure the stages from
	// (Latency implies TraceWire, and every user eager send is stamped).
	var acqNs int64
	m := pkt.Meta
	staged := p.lat != nil && m != nil && m.Stamp != 0
	if staged {
		// Stored on the packet before injection so an in-process receiver
		// reads it race-free; over a real wire the field never leaves this
		// process.
		acqNs = held - m.Stamp
		m.SendAcqNs = acqNs
	}
	p.rel.track(pkt, dstWorld, req, fail, &th.slab)
	clk := th.ts.Clock()
	clk.Begin(prof.PhaseWire)
	err := ep.Send(pkt)
	if staged && err == nil {
		p.lat.ObserveStage(latency.StageCRIAcquire, acqNs)
		// Wire write is the one stage that starts and ends inside a single
		// step, so attribution costs inject a second clock read.
		p.lat.ObserveStage(latency.StageWireWrite, time.Now().UnixNano()-held)
	}
	clk.End()
	release()
	if err != nil {
		// The packet never reached the wire (lazy establishment or the
		// write itself failed definitively). Any reliability entry is left
		// to its retry budget, which re-drives or abandons it.
		return fmt.Errorf("core: send from rank %d to %d: %v: %w", p.rank, dstWorld, err, ErrPeerUnreachable)
	}
	return nil
}

// Send is the blocking send (MPI_Send). An eager send is complete when Isend
// returns, so Wait alone would not progress; the one pass puts the message on
// a batching wire (tcpnet writes inside Poll) before the caller's next step —
// typically a receive, whose post would otherwise delay the write.
func (c *Comm) Send(th *Thread, dst int, tag int32, buf []byte) error {
	req, err := c.Isend(th, dst, tag, buf)
	if err != nil {
		return err
	}
	th.Progress()
	return req.Wait(th)
}

// Irecv posts a non-blocking receive. src may be AnySource and tag may be
// AnyTag, unless the communicator asserts Info.NoWildcards (ErrWildcard).
func (c *Comm) Irecv(th *Thread, src int, tag int32, buf []byte) (*Request, error) {
	p := c.proc
	if th.proc != p {
		panic("core: Irecv with a thread from a different proc")
	}
	if err := c.checkSource(src, tag); err != nil {
		return nil, err
	}
	return c.post(th, src, tag, buf), nil
}

// lockMatch takes the communicator's matching lock — the paper's remaining
// serial section — unless the engine locks itself. A contended wait counts
// toward Table II's match time, which includes the time threads spend
// fighting over the matching critical section, and (profiled) toward the
// lock's site and clk's lock-wait phase.
func (c *Comm) lockMatch(clk *prof.ThreadClock) {
	if c.selfMatch {
		return
	}
	if w := c.matchMu.LockClocked(clk); w > 0 {
		c.engine.ChargeWait(w)
	}
}

func (c *Comm) unlockMatch() {
	if !c.selfMatch {
		c.matchMu.Unlock()
	}
}

// post is the one way a receive enters the matching engine, for user
// receives and the runtime's internal-tag receives alike: match lock,
// PhaseMatch, the match-section histogram, PostRecv, and — if the message
// was already waiting in the unexpected queue — completion.
func (c *Comm) post(th *Thread, src int, tag int32, buf []byte) *Request {
	p := c.proc
	clk := th.ts.Clock()
	req := carve(&th.reqs)
	rec := th.recvRecord()
	req.proc, req.rec = p, rec
	// A reused record keeps its last results, which the match overwrites;
	// it is off every queue, its links clear.
	rec.Source, rec.Tag, rec.Buf, rec.Token = int32(src), tag, buf, req
	c.lockMatch(clk)
	clk.Begin(prof.PhaseMatch)
	h0 := p.histMatch.Start()
	comp, ok := c.engine.PostRecv(&rec.Recv)
	p.histMatch.ObserveSince(h0)
	clk.End()
	c.unlockMatch()
	if ok {
		c.completeRecv(comp, true)
	}
	return req
}

// Recv is the blocking receive (MPI_Recv), returning the message status.
func (c *Comm) Recv(th *Thread, src int, tag int32, buf []byte) (Status, error) {
	req, err := c.Irecv(th, src, tag, buf)
	if err != nil {
		return Status{}, err
	}
	err = req.Wait(th)
	return req.Status(), err
}

// Probe checks (without blocking or consuming) for an unexpected message
// matching src/tag, progressing once first (MPI_Iprobe). A wildcard on a
// communicator asserting Info.NoWildcards panics (misuse; Irecv returns
// ErrWildcard for the same coordinates).
func (c *Comm) Probe(th *Thread, src int, tag int32) (Status, bool) {
	c.checkProbe(src, tag)
	th.Progress()
	c.lockMatch(th.ts.Clock())
	env, ok := c.engine.Probe(int32(src), tag)
	c.unlockMatch()
	if !ok {
		return Status{}, false
	}
	return Status{Source: env.Src, Tag: env.Tag, Count: int(env.Len), MessageLen: int(env.Len)}, true
}

// Message is a matched-probe handle (MPI_Message): a specific inbound
// message claimed by MProbe, receivable exactly once with MRecv.
type Message struct {
	comm *Comm
	pkt  *transport.Packet
	used bool
}

// Status describes the claimed message without receiving it.
func (m *Message) Status() Status {
	env := m.pkt.Envelope()
	return Status{Source: env.Src, Tag: env.Tag, Count: int(env.Len), MessageLen: int(env.Len)}
}

// MProbe claims the oldest unexpected message matching src/tag
// (MPI_Mprobe, non-blocking form): once claimed, the message can no longer
// match any posted receive — the thread-safe alternative to Probe+Recv,
// which races when multiple threads probe the same coordinates. A wildcard
// on a communicator asserting Info.NoWildcards panics, as in Probe.
func (c *Comm) MProbe(th *Thread, src int, tag int32) (*Message, bool) {
	c.checkProbe(src, tag)
	th.Progress()
	c.lockMatch(th.ts.Clock())
	pkt, ok := c.engine.MProbe(int32(src), tag)
	c.unlockMatch()
	if !ok {
		return nil, false
	}
	return &Message{comm: c, pkt: pkt}, true
}

// ErrConsumed is MRecv's refusal of a message it has already received: a
// matched-probe handle is receivable exactly once.
var ErrConsumed = errors.New("core: MRecv on an already received message")

// MRecv receives a claimed message into buf (MPI_Mrecv). A second MRecv on
// the same handle returns ErrConsumed and leaves buf untouched.
func (m *Message) MRecv(buf []byte) (Status, error) {
	if m.used {
		return Status{}, ErrConsumed
	}
	m.used = true
	env := m.pkt.Envelope()
	n := copy(buf, m.pkt.Payload)
	st := Status{
		Source:     env.Src,
		Tag:        env.Tag,
		Count:      n,
		MessageLen: int(env.Len),
		Truncated:  n < len(m.pkt.Payload),
	}
	m.comm.spcs.Inc(spc.MessagesReceived)
	if st.Truncated {
		return st, fmt.Errorf("%w: %d-byte message into %d-byte buffer", ErrTruncated, st.MessageLen, st.Count)
	}
	return st, nil
}

// completeRecv finishes one matched receive: either the plain eager path or
// the start of a rendezvous transfer. unexpected reports whether the message
// matched via the unexpected queue. One clock read is the completion instant
// of the match_complete event, the message-latency and match-residency
// histograms and the latency measurement alike.
func (c *Comm) completeRecv(comp match.Completion, unexpected bool) {
	req, _ := comp.Recv.Token.(*Request)
	if req == nil {
		panic("core: matched receive without request token")
	}
	req.matched(&comp.Recv.MatchedEnv)
	env := comp.Recv.MatchedEnv
	if env.Kind == transport.KindRendezvousRTS {
		c.startRendezvousRecv(req, comp)
		return
	}
	p := c.proc
	var now int64
	if p.timedRecv {
		now = time.Now().UnixNano()
	}
	var flow uint64
	if pkt := comp.Packet; pkt != nil && pkt.Meta != nil && now != 0 {
		m := pkt.Meta
		flow = m.TraceID
		if m.Stamp != 0 {
			sent := p.sendStampLocal(pkt)
			p.histLatency.ObserveNs(now - sent)
			// Completion anchored on the flight recorder's clock (relative
			// wall time) so exemplar event windows compare against Event.TS.
			p.lat.RecordPacket(pkt, env.Tag, unexpected, sent, now, p.flightBase)
		}
		if m.RecvStamp != 0 {
			// Arrival at the matching engine to match completion: how long
			// the message sat in the unexpected queue (or how fast a posted
			// receive consumed it).
			p.histResidency.ObserveNs(now - m.RecvStamp)
		}
	}
	p.flightRing.RecordAt(now-p.flightBase, flight.KindMatchComplete, c.id, env.Src, env.Tag, -1, flow)
	req.finishRecv(comp.Recv.N)
}

// Free removes this handle's communicator state from its process
// (MPI_Comm_free). Packets still in flight toward a freed communicator are
// counted (spc.LatePackets) and dropped by the receive path.
func (c *Comm) Free() {
	c.proc.unregisterComm(c.id)
}

// Barrier synchronizes all members with a dissemination barrier built on
// the runtime's own point-to-point layer.
func (c *Comm) Barrier(th *Thread) error {
	n := len(c.group)
	if n == 1 {
		return nil
	}
	var b, in [1]byte
	for round, dist := 0, 1; dist < n; round, dist = round+1, dist*2 {
		to := (c.myRank + dist) % n
		from := (c.myRank - dist + n) % n
		tag := barrierTagBase + int32(round)
		sreq, err := c.isend(th, to, tag, b[:])
		if err != nil {
			return err
		}
		if _, err := c.recvInternalInto(th, from, tag, in[:]); err != nil {
			return err
		}
		if err := sreq.Wait(th); err != nil {
			return err
		}
	}
	return nil
}

// barrierTagBase keys internal collective traffic; user tags must be >= 0,
// and the matching engine treats these as ordinary (negative) tags that can
// never collide with user receives.
const barrierTagBase int32 = -1000

// sendInternal is the blocking send with an internal (negative) tag, which
// bypasses the user-tag validation.
func (c *Comm) sendInternal(th *Thread, dst int, tag int32, buf []byte) error {
	req, err := c.isend(th, dst, tag, buf)
	if err != nil {
		return err
	}
	return req.Wait(th)
}

// ctlTagBase anchors the runtime-internal control-message tag space used by
// the one-sided synchronization layer (internal/rma). Kinds are small
// non-negative integers.
const ctlTagBase int32 = -500000

// CtlSend sends a control message of the given kind to dst. Reserved for
// runtime-internal layers (the one-sided synchronization protocols); user
// code should use Send.
func (c *Comm) CtlSend(th *Thread, dst int, kind int32, payload []byte) error {
	return c.sendInternal(th, dst, ctlTagBase-kind, payload)
}

// CtlRecv blocks for a control message of the given kind from src.
func (c *Comm) CtlRecv(th *Thread, src int, kind int32, buf []byte) (Status, error) {
	return c.recvInternalInto(th, src, ctlTagBase-kind, buf)
}
