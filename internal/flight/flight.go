// Package flight is the runtime's one message-lifecycle event record:
// fixed-size per-thread ring buffers of compact binary events (send posted
// and injected, delivery, match hit/miss/complete, unexpected
// enqueue/dequeue, rendezvous, one-sided put/flush, retransmit, ack,
// progress pass, lock-wait over threshold) that retain the last moments of
// message-path history. The stall watchdog and crash handler dump it, the
// latency layer attaches it to tail exemplars, and the Chrome-trace exporter
// renders it as a timeline with cross-rank flow arrows.
//
// Recording is lock-free and race-detector clean: each ring slot is five
// atomic words claimed with one atomic add and validated by readers with a
// per-slot seqlock (the sequence word is published last; a snapshot re-reads
// it and discards torn slots). An enabled hook costs one atomic add plus
// six atomic stores — tens of nanoseconds; a disabled hook is one nil
// check, the same discipline as the spc/telemetry layers.
//
// The recorder's clock is pluggable: wall time by default, virtual time
// under the simulator (internal/simnet), which is what makes watchdog
// acceptance tests deterministic.
package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies one flight event.
type Kind uint8

// Event kinds recorded by the runtime's nil-safe hooks.
const (
	// KindSendPost: a send entered the runtime. A0 = destination rank,
	// A1 = matching-layer sequence number.
	KindSendPost Kind = iota + 1
	// KindRecvPost: a receive was posted and queued (no unexpected message
	// matched). A0 = source (or -1 wildcard), A1 = posted depth after.
	KindRecvPost
	// KindMatchHit: an inbound message matched a posted receive.
	// A0 = source, A1 = posted depth after removal.
	KindMatchHit
	// KindMatchMiss: an inbound message matched no posted receive and is
	// about to join the unexpected queue. A0 = source, A1 = tag.
	KindMatchMiss
	// KindUnexpEnq: a message joined the unexpected queue. A0 = source,
	// A1 = unexpected depth after.
	KindUnexpEnq
	// KindUnexpDeq: a queued unexpected message was claimed (by a posted
	// receive or a matched probe). A0 = source, A1 = unexpected depth after.
	KindUnexpDeq
	// KindRetransmit: the reliability sweep re-injected an unacked packet.
	// A0 = destination rank, A1 = retry count.
	KindRetransmit
	// KindAckSent: an acknowledgement was injected. A0 = destination rank,
	// A1 = acked sequence (truncated).
	KindAckSent
	// KindAckRecv: an acknowledgement arrived and retired window entries.
	// A0 = acking rank, A1 = entries retired.
	KindAckRecv
	// KindProgress: one productive progress pass. A0 = events handled.
	KindProgress
	// KindLockWait: a contended lock acquisition waited at least
	// LockWaitThreshold. A0 = instance index, A1 = wait in microseconds.
	KindLockWait
	// KindSendInject: a user eager message holds its CRI and is about to be
	// written to the wire. A0 = destination rank, A1 = sequence number; CRI
	// and Flow set.
	KindSendInject
	// KindRecvDeliver: an inbound packet reached the matching engine.
	// A0 = source rank, A1 = sequence number; CRI and Flow set.
	KindRecvDeliver
	// KindMatchComplete: a receive matched and completed. A0 = source,
	// A1 = tag; Flow set.
	KindMatchComplete
	// KindRendezvousStart: an RTS matched and the sink was registered.
	// A0 = source, A1 = total length.
	KindRendezvousStart
	// KindRendezvousDone: a rendezvous receive finished. A0 = source,
	// A1 = bytes landed.
	KindRendezvousDone
	// KindPutIssue: a one-sided put was issued. A0 = target, A1 = length;
	// CRI set.
	KindPutIssue
	// KindFlush: a window flush completed. A0 = target.
	KindFlush
)

var kindNames = [...]string{
	KindSendPost:   "send_post",
	KindRecvPost:   "recv_post",
	KindMatchHit:   "match_hit",
	KindMatchMiss:  "match_miss",
	KindUnexpEnq:   "unexp_enq",
	KindUnexpDeq:   "unexp_deq",
	KindRetransmit: "retransmit",
	KindAckSent:    "ack_sent",
	KindAckRecv:    "ack_recv",
	KindProgress:   "progress",
	KindLockWait:   "lock_wait",

	KindSendInject:      "send_inject",
	KindRecvDeliver:     "recv_deliver",
	KindMatchComplete:   "match_complete",
	KindRendezvousStart: "rendezvous_start",
	KindRendezvousDone:  "rendezvous_done",
	KindPutIssue:        "put_issue",
	KindFlush:           "flush",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its name, so dumps read without a decoder
// ring.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses a kind name back (trace shards are read by
// cmd/tracemerge).
func (k *Kind) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for i, n := range kindNames {
		if n == name && n != "" {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("flight: unknown event kind %q", name)
}

// LockWaitThreshold is the minimum contended instance-lock wait recorded as
// a KindLockWait event.
const LockWaitThreshold = 10 * time.Microsecond

// Event is one decoded flight record. TS is nanoseconds on the recorder's
// clock (relative wall time, or virtual time under the simulator); Seq is
// the recorder-wide claim order, which is the merge key.
type Event struct {
	TS   int64  `json:"ts_ns"`
	Seq  uint64 `json:"seq"`
	Kind Kind   `json:"kind"`
	Ring int32  `json:"ring"`
	Comm uint32 `json:"comm,omitempty"`
	A0   int32  `json:"a0"`
	A1   int32  `json:"a1"`
	// Inst is the CRI instance the event is attributed to, counted from 1 so
	// the zero value means "no instance affinity" and drops out of dumps (it
	// is also the event's Chrome-trace row). CRI gives the 0-based index.
	Inst uint16 `json:"inst,omitempty"`
	// Flow is the message-lifecycle trace id linking this event to the same
	// message's events on other ranks (0 = not part of a traced flow).
	Flow uint64 `json:"flow,omitempty"`
}

// CRI returns the index of the instance the event is attributed to, or -1.
func (e Event) CRI() int { return int(e.Inst) - 1 }

func (e Event) String() string {
	s := fmt.Sprintf("%10dns #%06d %-16s comm=%-3d a0=%-6d a1=%d", e.TS, e.Seq, e.Kind, e.Comm, e.A0, e.A1)
	if e.Inst != 0 {
		s += fmt.Sprintf(" cri=%d", e.CRI())
	}
	if e.Flow != 0 {
		s += fmt.Sprintf(" flow=%#x", e.Flow)
	}
	return s
}

// wordsPerSlot is the packed size of one event: sequence (the seqlock
// word, published last), timestamp, kind|comm|a0, inst|a1, flow.
const wordsPerSlot = 5

// Ring is one fixed-size event ring. Writers are lock-free (one atomic add
// claims a slot, six atomic stores fill it); a nil *Ring ignores every
// record at the cost of one branch, so hooks need no enabled checks.
//
// Rings are single-writer in the runtime's usual binding (one per thread,
// one per communicator under its matching lock), but concurrent writers are
// safe: the per-slot sequence word lets snapshot readers discard torn
// slots. The one theoretical loss — two writers lapping onto the same slot
// in the same instant — can garble that single diagnostic record, never
// memory safety.
type Ring struct {
	rec   *Recorder
	id    int32
	mask  uint64
	pos   atomic.Uint64
	words []atomic.Uint64
}

// Now reads the recorder's clock (0 on a nil ring), for RecordAt callers
// with no clock read of their own to share.
func (r *Ring) Now() int64 {
	if r == nil {
		return 0
	}
	return r.rec.now()
}

// Record appends one event with no instance or flow attribution, stamped
// with the recorder's clock. Nil-safe.
func (r *Ring) Record(k Kind, comm uint32, a0, a1 int32) {
	if r == nil {
		return
	}
	r.RecordAt(r.rec.now(), k, comm, a0, a1, -1, 0)
}

// RecordAt appends one event in full: an explicit timestamp on the
// recorder's clock (the caller's one clock read for the step, or the
// simulator's virtual time), the CRI index it is attributed to (negative =
// none) and its flow id (0 = none). Nil-safe.
func (r *Ring) RecordAt(ts int64, k Kind, comm uint32, a0, a1 int32, cri int, flow uint64) {
	if r == nil {
		return
	}
	if cri < 0 || cri >= 1<<16-1 {
		cri = -1
	}
	seq := r.rec.seq.Add(1)
	base := ((r.pos.Add(1) - 1) & r.mask) * wordsPerSlot
	// Invalidate first: a reader already inside this slot re-reads the
	// sequence word after the fields and must not find the old value there
	// while the fields are half overwritten.
	r.words[base].Store(0)
	r.words[base+1].Store(uint64(ts))
	r.words[base+2].Store(uint64(k)<<56 | uint64(comm&0xffffff)<<32 | uint64(uint32(a0)))
	r.words[base+3].Store(uint64(cri+1)<<32 | uint64(uint32(a1)))
	r.words[base+4].Store(flow)
	// Publish last: a reader that sees this sequence also sees the fields,
	// and re-reads it after the fields to discard torn slots.
	r.words[base].Store(seq)
}

// Events appends the ring's valid retained events to out (unordered; the
// recorder's merge sorts by Seq). Safe concurrently with writers.
func (r *Ring) Events(out []Event) []Event {
	if r == nil {
		return out
	}
	for i := uint64(0); i <= r.mask; i++ {
		base := i * wordsPerSlot
		s := r.words[base].Load()
		if s == 0 {
			continue
		}
		ts := r.words[base+1].Load()
		w2 := r.words[base+2].Load()
		w3 := r.words[base+3].Load()
		flow := r.words[base+4].Load()
		if r.words[base].Load() != s {
			continue // torn: a writer lapped this slot mid-read
		}
		out = append(out, Event{
			TS:   int64(ts),
			Seq:  s,
			Kind: Kind(w2 >> 56),
			Ring: r.id,
			Comm: uint32(w2>>32) & 0xffffff,
			A0:   int32(uint32(w2)),
			A1:   int32(uint32(w3)),
			Inst: uint16(w3 >> 32),
			Flow: flow,
		})
	}
	return out
}

// Recorder owns a process's flight rings and the shared claim counter that
// totally orders their events. All methods are nil-safe.
type Recorder struct {
	perRing   int
	startUnix int64
	now       func() int64
	seq       atomic.Uint64

	mu     sync.Mutex
	rings  []*Ring
	labels []string
}

// DefaultRingCapacity sizes each ring when the caller passes 0.
const DefaultRingCapacity = 4096

// NewRecorder creates a recorder whose rings retain about perRing events
// each (rounded up to a power of two), stamping relative wall time.
func NewRecorder(perRing int) *Recorder {
	if perRing <= 0 {
		perRing = DefaultRingCapacity
	}
	start := time.Now()
	return &Recorder{
		perRing:   ceilPow2(perRing),
		startUnix: start.UnixNano(),
		now:       func() int64 { return time.Since(start).Nanoseconds() },
	}
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// SetClock replaces the recorder's clock (the simulator installs virtual
// time). Call during setup, before any ring records; it also clears the
// wall-clock anchor so dumps of virtual-time runs are byte-reproducible.
func (r *Recorder) SetClock(now func() int64) {
	if r == nil {
		return
	}
	r.now = now
	r.startUnix = 0
}

// NewRing adds one labelled ring. A nil recorder returns a nil ring, which
// ignores records — callers bind unconditionally and pay one branch.
func (r *Recorder) NewRing(label string) *Ring {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ring := &Ring{
		rec:   r,
		id:    int32(len(r.rings)),
		mask:  uint64(r.perRing - 1),
		words: make([]atomic.Uint64, r.perRing*wordsPerSlot),
	}
	r.rings = append(r.rings, ring)
	r.labels = append(r.labels, label)
	return ring
}

// Merged returns every ring's retained events in one time-ordered record
// (ordered by claim sequence, the recorder-wide total order). Safe
// concurrently with writers; nil-safe.
func (r *Recorder) Merged() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	rings := append([]*Ring(nil), r.rings...)
	r.mu.Unlock()
	var out []Event
	for _, ring := range rings {
		out = ring.Events(out)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Labels returns the ring labels in ring-id order.
func (r *Recorder) Labels() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.labels...)
}

// StartUnixNano anchors the recorder's relative timestamps on the wall
// clock (0 when a virtual clock is installed).
func (r *Recorder) StartUnixNano() int64 {
	if r == nil {
		return 0
	}
	return r.startUnix
}

// RankRecord is one rank's merged flight record in dump form: the events in
// recorder order plus the ring labels Event.Ring indexes into.
type RankRecord struct {
	Rank        int   `json:"rank"`
	StartUnixNs int64 `json:"start_unix_ns,omitempty"`
	// ClockToRank0Ns is the estimated correction mapping this rank's clock
	// onto rank 0's (rank0_time = local_time + ClockToRank0Ns), from the
	// transport's handshake samples; the runtime fills it in. Zero for rank
	// 0, for in-process worlds and under virtual time.
	ClockToRank0Ns int64    `json:"clock_to_rank0_ns,omitempty"`
	Rings          []string `json:"rings"`
	Events         []Event  `json:"events"`
}

// RankRecord assembles the dump form for one rank. Nil-safe: a nil recorder
// yields an empty record carrying only the rank. Rings and Events are never
// nil so the JSON form is always an array, even for an idle rank.
func (r *Recorder) RankRecord(rank int) RankRecord {
	rec := RankRecord{Rank: rank, Rings: []string{}, Events: []Event{}}
	if r == nil {
		return rec
	}
	rec.StartUnixNs = r.startUnix
	if labels := r.Labels(); labels != nil {
		rec.Rings = labels
	}
	if evs := r.Merged(); evs != nil {
		rec.Events = evs
	}
	return rec
}

// WriteRecords writes rank records as indented JSON: the /debug/flight
// document, which is also the trace shard cmd/tracemerge reads back with
// ReadRecords.
func WriteRecords(w io.Writer, recs []RankRecord) error {
	if recs == nil {
		recs = []RankRecord{}
	}
	return writeIndented(w, recs)
}

// ReadRecords parses a document written by WriteRecords.
func ReadRecords(r io.Reader) ([]RankRecord, error) {
	var recs []RankRecord
	if err := json.NewDecoder(r).Decode(&recs); err != nil {
		return nil, fmt.Errorf("flight: parse rank records: %w", err)
	}
	return recs, nil
}
