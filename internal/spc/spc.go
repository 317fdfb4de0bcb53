// Package spc implements Software-based Performance Counters in the style
// of Open MPI's SPC framework (Eberius et al., EuroMPI'17): low-overhead
// atomic counters exposing internal message-engine statistics such as the
// number of out-of-sequence messages and the cumulative time spent in the
// matching engine. The paper's Table II is produced from these counters.
package spc

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Counter identifies one software performance counter.
type Counter int

// The counters tracked by the runtime. The first two are the ones the paper
// reports in Table II; the rest give additional low-level visibility.
const (
	// OutOfSequence counts received messages whose sequence number did not
	// match the next expected sequence for their (peer, communicator) stream
	// and therefore had to be buffered.
	OutOfSequence Counter = iota
	// MatchTimeNanos accumulates time attributed to matching, in
	// nanoseconds. On the runtime it is the wall-clock wait for a contended
	// matching lock: the runtime charges no modeled cost, so a run whose
	// matching lock is never contended reads 0. In the virtual-time model it
	// is the matching cost the model charges plus its simulated lock wait —
	// Table II's match time.
	MatchTimeNanos
	// MessagesSent counts matched envelopes created by senders: user eager
	// sends, the runtime's internal-tag traffic (collectives, control), each
	// rendezvous RTS, and self-addressed messages. Control packets that
	// bypass matching (rendezvous ACK/FIN, reliability acks) and
	// retransmissions are not messages and are not counted, so summed over
	// ranks it equals MessagesReceived once every send has been matched.
	MessagesSent
	// MessagesReceived counts point-to-point messages matched and delivered.
	MessagesReceived
	// UnexpectedMessages counts messages that arrived before a matching
	// receive was posted.
	UnexpectedMessages
	// ExpectedMessages counts messages matched against an already-posted
	// receive.
	ExpectedMessages
	// UnexpectedQueuePeak tracks the maximum length reached by any
	// unexpected-message queue.
	UnexpectedQueuePeak
	// PostedQueuePeak tracks the maximum length reached by any
	// posted-receive queue.
	PostedQueuePeak
	// MatchAttempts counts entries into the matching engine.
	MatchAttempts
	// MatchWalkElements accumulates the number of queue elements walked
	// during matching searches (posted + unexpected).
	MatchWalkElements
	// ProgressCalls counts entries into the progress engine.
	ProgressCalls
	// ProgressTryLockFail counts try-lock failures on instance locks inside
	// the progress engine (a direct measure of progress contention).
	ProgressTryLockFail
	// SendLockWaits counts send-path instance-lock acquisitions that found
	// the lock contended.
	SendLockWaits
	// PutsIssued counts one-sided put operations initiated. The three
	// one-sided operation counters are ticked on the counter set of the CRI
	// that carried the operation, under its lock.
	PutsIssued
	// GetsIssued counts one-sided get operations initiated.
	GetsIssued
	// AccumulatesIssued counts one-sided accumulate operations initiated,
	// including the single-lane atomics FetchAndOp and CompareAndSwap (every
	// operation that completes as an accumulate completion).
	AccumulatesIssued
	// FlushCalls counts window flush synchronizations.
	FlushCalls
	// LatePackets counts inbound packets (data or control) that arrived for
	// a communicator or protocol state already torn down — e.g. a packet for
	// a freed communicator, or an orphaned rendezvous control message. They
	// are counted and dropped, never fatal.
	LatePackets
	// DuplicateSequences counts matching-layer arrivals whose sequence
	// number was already delivered or already buffered (possible once the
	// fabric can duplicate packets); the duplicates are discarded.
	DuplicateSequences
	// FaultPacketsDropped counts packets the fault injector ate on the wire.
	FaultPacketsDropped
	// FaultPacketsDuplicated counts packets the fault injector delivered twice.
	FaultPacketsDuplicated
	// FaultPacketsDelayed counts packets the fault injector held back.
	FaultPacketsDelayed
	// Retransmits counts reliability-layer packet retransmissions.
	Retransmits
	// RetransmitFailures counts sends abandoned after the retry budget was
	// exhausted (surfaced to the caller as ErrPeerUnreachable).
	RetransmitFailures
	// DuplicatePackets counts transport-level duplicate deliveries the
	// reliability layer's receive-side dedup discarded.
	DuplicatePackets
	// AcksSent counts reliability acknowledgements injected.
	AcksSent
	// AcksReceived counts reliability acknowledgements processed.
	AcksReceived
	// DialRetries counts transport connection attempts that failed and were
	// retried while a peer's listener came up.
	DialRetries
	// Reconnects counts transport write paths re-established after the
	// previous one to the same peer broke (a failed write, or the peer closed
	// the connection).
	Reconnects
	// ShortWrites counts wire writes that moved only part of their buffer
	// before failing (the tail never reached the kernel, so the stream is
	// mid-frame and the connection unusable).
	ShortWrites
	// ProgressStealLosses counts failed try-locks during the concurrent
	// progress engine's round-robin sweep over OTHER threads' instances
	// (Algorithm 2's helper role) — steal pressure, distinct from
	// ProgressTryLockFail which also counts dedicated-instance losses.
	ProgressStealLosses
	// FreeListAcquires counts send-path instance acquisitions satisfied by
	// the atomic free-list pop (an exclusively owned, uncontended instance).
	FreeListAcquires
	// FreeListEmpty counts send-path acquisitions that found the free-list
	// drained and fell back to contended round-robin (threads > instances).
	FreeListEmpty
	// ConnsOpened counts write paths this process established toward a peer
	// (over tcp a dial, or taking up the connection the peer dialed; in
	// process the first endpoint resolution toward the peer). Every local
	// context sending to the peer shares the path, so without reconnects it
	// is the number of peers this process sent to.
	ConnsOpened
	// ConnsReused counts endpoint establishments satisfied by a path this
	// process had already established to the peer (the multiplexing win: no
	// new socket).
	ConnsReused
	// WireFlushes counts coalesced wire writes: one per pending-buffer flush
	// of a peer link, however many frames it carried.
	WireFlushes
	// WireFramesFlushed counts frames those flushes carried, so
	// WireFramesFlushed / WireFlushes is the coalescing factor.
	WireFramesFlushed
	// WireBackstopFlushes counts flushes issued by the bounded-delay backstop
	// timer instead of a progress pass or a full buffer. A firing can land in
	// the middle of a progressing sender's burst, so a small share of
	// WireFlushes is normal; a share near one means some caller sends without
	// re-entering the runtime.
	WireBackstopFlushes
	// WireFlushFailures counts flushes whose write failed on the existing
	// link and again on a re-established one (or could not re-establish):
	// sends that had already completed locally did not reach the peer.
	WireFlushFailures
	// WireFramesStranded counts the frames those failed flushes put back in
	// the pending buffer; they leave with the next successful flush toward
	// the peer, if there is one.
	WireFramesStranded
	// WireFramesRejected counts inbound connections closed because a frame
	// failed validation (length outside [MuxHeaderSize, maxFrame], mux index
	// above the cap, undecodable packet, or no context to route it to).
	WireFramesRejected
	// RingFullWaits counts producers that found a transport receive or
	// completion ring full (the consumer is slower than the wire), on the
	// counter set of the rank that owns the ring. The in-process fabric ticks
	// once per delivery that had to wait, however long it yields; tcpnet
	// sleeps 10µs between retries and ticks once per sleep.
	RingFullWaits
	// WireReadsPolled counts socket reads that returned bytes and were made
	// by a thread inside the progress engine (a Context.Poll that found its
	// rings empty).
	WireReadsPolled
	// WireReadsParked counts socket reads that returned bytes and were made
	// by a connection's reader goroutine, woken by the netpoller because no
	// progress pass got to the socket first. A parked share near one means
	// nobody progresses (a rank busy computing) or the process has idle Ps;
	// near zero means the progress engine carries the wire.
	WireReadsParked
	// WireReadsEmpty counts socket reads that found nothing to read, by a
	// poller or a reader goroutine: the empty half of the read syscalls.
	WireReadsEmpty

	numCounters
)

var counterNames = [...]string{
	OutOfSequence:          "out_of_sequence",
	MatchTimeNanos:         "match_time_ns",
	MessagesSent:           "messages_sent",
	MessagesReceived:       "messages_received",
	UnexpectedMessages:     "unexpected_messages",
	ExpectedMessages:       "expected_messages",
	UnexpectedQueuePeak:    "unexpected_queue_peak",
	PostedQueuePeak:        "posted_queue_peak",
	MatchAttempts:          "match_attempts",
	MatchWalkElements:      "match_walk_elements",
	ProgressCalls:          "progress_calls",
	ProgressTryLockFail:    "progress_trylock_fail",
	SendLockWaits:          "send_lock_waits",
	PutsIssued:             "puts_issued",
	GetsIssued:             "gets_issued",
	AccumulatesIssued:      "accumulates_issued",
	FlushCalls:             "flush_calls",
	LatePackets:            "late_packets",
	DuplicateSequences:     "duplicate_sequences",
	FaultPacketsDropped:    "fault_packets_dropped",
	FaultPacketsDuplicated: "fault_packets_duplicated",
	FaultPacketsDelayed:    "fault_packets_delayed",
	Retransmits:            "retransmits",
	RetransmitFailures:     "retransmit_failures",
	DuplicatePackets:       "duplicate_packets",
	AcksSent:               "acks_sent",
	AcksReceived:           "acks_received",
	DialRetries:            "dial_retries",
	Reconnects:             "reconnects",
	ShortWrites:            "short_writes",
	ProgressStealLosses:    "progress_steal_losses",
	FreeListAcquires:       "freelist_acquires",
	FreeListEmpty:          "freelist_empty",
	ConnsOpened:            "conns_opened",
	ConnsReused:            "conns_reused",
	WireFlushes:            "wire_flushes",
	WireFramesFlushed:      "wire_frames_flushed",
	WireBackstopFlushes:    "wire_backstop_flushes",
	WireFlushFailures:      "wire_flush_failures",
	WireFramesStranded:     "wire_frames_stranded",
	WireFramesRejected:     "wire_frames_rejected",
	RingFullWaits:          "ring_full_waits",
	WireReadsPolled:        "wire_reads_polled",
	WireReadsParked:        "wire_reads_parked",
	WireReadsEmpty:         "wire_reads_empty",
}

// String returns the counter's snake_case name.
func (c Counter) String() string {
	if c < 0 || int(c) >= len(counterNames) {
		return fmt.Sprintf("counter(%d)", int(c))
	}
	return counterNames[c]
}

var countersByName = func() map[string]Counter {
	m := make(map[string]Counter, len(counterNames))
	for i, n := range counterNames {
		m[n] = Counter(i)
	}
	return m
}()

// CounterByName resolves a snake_case counter name back to its Counter —
// the inverse of String, used when a Snapshot is read back from JSON.
// Unknown names report ok=false rather than a zero Counter so callers can
// skip counters added by a newer rank binary.
func CounterByName(name string) (c Counter, ok bool) {
	c, ok = countersByName[name]
	return c, ok
}

// NumCounters is the number of defined counters.
const NumCounters = int(numCounters)

// Set is one process's collection of counters. All methods are safe for
// concurrent use. A nil *Set is valid and ignores all updates, so call
// sites need no nil checks on hot paths.
type Set struct {
	vals [numCounters]atomic.Int64
}

// NewSet returns an empty counter set.
func NewSet() *Set { return &Set{} }

// Add increments c by delta.
func (s *Set) Add(c Counter, delta int64) {
	if s == nil {
		return
	}
	s.vals[c].Add(delta)
}

// Inc increments c by one.
func (s *Set) Inc(c Counter) { s.Add(c, 1) }

// Max raises c to v if v is greater than the current value.
func (s *Set) Max(c Counter, v int64) {
	if s == nil {
		return
	}
	for {
		cur := s.vals[c].Load()
		if v <= cur || s.vals[c].CompareAndSwap(cur, v) {
			return
		}
	}
}

// Get returns the current value of c.
func (s *Set) Get(c Counter) int64 {
	if s == nil {
		return 0
	}
	return s.vals[c].Load()
}

// Reset zeroes every counter.
func (s *Set) Reset() {
	if s == nil {
		return
	}
	for i := range s.vals {
		s.vals[i].Store(0)
	}
}

// Snapshot is an immutable copy of a Set's values.
type Snapshot [numCounters]int64

// Snapshot copies the current counter values.
func (s *Set) Snapshot() Snapshot {
	var snap Snapshot
	if s == nil {
		return snap
	}
	for i := range s.vals {
		snap[i] = s.vals[i].Load()
	}
	return snap
}

// Get returns the value of c in the snapshot.
func (sn Snapshot) Get(c Counter) int64 { return sn[c] }

// Sub returns the per-counter difference sn - old. Peak counters
// (UnexpectedQueuePeak, PostedQueuePeak) are carried over, not subtracted,
// since a peak has no meaningful delta.
func (sn Snapshot) Sub(old Snapshot) Snapshot {
	var d Snapshot
	for i := range sn {
		d[i] = sn[i] - old[i]
	}
	d[UnexpectedQueuePeak] = sn[UnexpectedQueuePeak]
	d[PostedQueuePeak] = sn[PostedQueuePeak]
	return d
}

// MatchTime returns the accumulated matching time as a Duration.
func (sn Snapshot) MatchTime() time.Duration {
	return time.Duration(sn[MatchTimeNanos])
}

// OutOfSequencePercent returns 100 * out_of_sequence / messages_received,
// or 0 when nothing was received.
func (sn Snapshot) OutOfSequencePercent() float64 {
	recv := sn[MessagesReceived]
	if recv == 0 {
		return 0
	}
	return 100 * float64(sn[OutOfSequence]) / float64(recv)
}

// String renders the non-zero counters, one per line, sorted by name.
func (sn Snapshot) String() string { return sn.render("") }

// Indented is String with every line indented two spaces and "(all zero)"
// standing in for an empty snapshot — the form an attribution dump nests
// under a heading.
func (sn Snapshot) Indented() string {
	if s := sn.render("  "); s != "" {
		return s
	}
	return "  (all zero)\n"
}

func (sn Snapshot) render(prefix string) string {
	type kv struct {
		name string
		v    int64
	}
	var rows []kv
	for i, v := range sn {
		if v != 0 {
			rows = append(rows, kv{Counter(i).String(), v})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s%-24s %d\n", prefix, r.name, r.v)
	}
	return b.String()
}

// MarshalJSON renders the non-zero counters as an object keyed by counter
// name, so the document survives counters being added or reordered between
// the binary that wrote it and the one that reads it.
func (sn Snapshot) MarshalJSON() ([]byte, error) {
	m := map[string]int64{}
	for i, v := range sn {
		if v != 0 {
			m[Counter(i).String()] = v
		}
	}
	return json.Marshal(m)
}

// UnmarshalJSON is MarshalJSON's inverse. A name this binary does not know
// (a counter added by a newer writer) is skipped, not misfiled.
func (sn *Snapshot) UnmarshalJSON(b []byte) error {
	var m map[string]int64
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	*sn = Snapshot{}
	for name, v := range m {
		if c, ok := CounterByName(name); ok {
			sn[c] = v
		}
	}
	return nil
}

// Merge returns the element-wise sum of snapshots, taking the max for peak
// counters. Used to aggregate per-communicator or per-proc counter sets.
func Merge(snaps ...Snapshot) Snapshot {
	var out Snapshot
	for _, sn := range snaps {
		for i, v := range sn {
			c := Counter(i)
			if c == UnexpectedQueuePeak || c == PostedQueuePeak {
				if v > out[i] {
					out[i] = v
				}
			} else {
				out[i] += v
			}
		}
	}
	return out
}
