package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// CommQueues is one communicator's live matching-queue depths. Depths are
// approximate: self-locking engines (and ring-backed completion queues)
// publish atomic counters read without stopping the world, so a value can be
// off by a few elements against in-flight operations. Monitoring-only —
// never use a depth as a synchronization predicate.
type CommQueues struct {
	Comm        uint32 `json:"comm"`
	Posted      int    `json:"posted"`
	Unexpected  int    `json:"unexpected"`
	OOSBuffered int    `json:"oos_buffered"`
}

// PeerWindow is one peer's reliability-window occupancy: the send side's
// outstanding unacked packets and the receive side's reordering state.
type PeerWindow struct {
	Peer    int    `json:"peer"`
	Unacked int    `json:"unacked"`
	NextSeq uint64 `json:"next_seq"`
	RecvCum uint64 `json:"recv_cum"`
	RecvOOO int    `json:"recv_ooo"`
}

// CRILevel is one Communication Resource Instance's completion-queue level:
// Pending is the transport context's own "work outstanding" signal; Queued
// is the simulator's exact queued-event count (0 on the real transports,
// which only expose the boolean).
type CRILevel struct {
	Index   int  `json:"index"`
	Pending bool `json:"pending"`
	Queued  int  `json:"queued,omitempty"`
}

// QueueSnapshot is one rank's runtime introspection snapshot — the
// structured answer to "where is everything right now": per-communicator
// posted/unexpected queue depths, reliability window occupancy, and CRI
// pool levels. Served live at /debug/queues and embedded in watchdog and
// exit dumps.
type QueueSnapshot struct {
	Rank       int          `json:"rank"`
	CapturedNs int64        `json:"captured_ns"`
	Comms      []CommQueues `json:"comms"`
	Windows    []PeerWindow `json:"windows,omitempty"`
	CRIs       []CRILevel   `json:"cris,omitempty"`
}

// WriteSnapshots writes queue snapshots as indented JSON (the /debug/queues
// document).
func WriteSnapshots(w io.Writer, snaps []QueueSnapshot) error {
	if snaps == nil {
		snaps = []QueueSnapshot{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snaps)
}

// Sample is one watchdog observation of a rank: monotonically increasing
// movement counters plus the live queue depths.
type Sample struct {
	NowNs       int64
	Sent        uint64
	Received    uint64
	Retransmits uint64
	Unacked     int
	Comms       []CommQueues
	// LatencyValid marks a sample carrying latency-attribution quantiles
	// (the run had the internal/latency layer on and at least one traced
	// message completed on this rank by this observation).
	LatencyValid bool
	// E2EP99Ns is the rank's end-to-end latency p99 at this observation;
	// StageP99 the per-stage p99 vector in stage order. Cumulative-histogram
	// quantiles, so they move slowly — the cluster tail-skew rule compares
	// them across ranks rather than across time.
	E2EP99Ns int64
	StageP99 []StageP99
}

// StageP99 is one critical-path stage's p99 in a latency-carrying Sample.
// The stage name matches internal/latency's Stage.String() vocabulary; the
// type lives here so the latency layer and the cluster plane share it
// without an import cycle.
type StageP99 struct {
	Stage string `json:"stage"`
	P99Ns int64  `json:"p99_ns"`
}

// RankSeries is one rank's observation time series: the same Samples the
// watchdog consumes one at a time, retained in observation order. The
// simnet engine collects one per simulated rank (in virtual time, so the
// series is byte-deterministic) and the cluster imbalance detector
// consumes sets of them — the bridge that lets cross-rank verdicts be
// asserted without a live cluster.
type RankSeries struct {
	Rank    int
	Samples []Sample
}

// DetectorConfig bounds the stall detections. Zero values take defaults.
type DetectorConfig struct {
	// StallAfter fires the no-progress detection when neither sent nor
	// received counters move for this long while work is outstanding
	// (default 1s).
	StallAfter time.Duration
	// StormWindow and StormRetransmits fire the retransmit-storm detection
	// when at least StormRetransmits retransmissions land within one
	// StormWindow (defaults 1s / 100).
	StormWindow      time.Duration
	StormRetransmits int64
	// GrowthSamples fires the unexpected-queue-growth detection when a
	// communicator's unexpected depth grows strictly monotonically across
	// this many consecutive observations (default 8).
	GrowthSamples int
	// GrowthMinDelta is the minimum total depth increase over a monotone
	// streak before the growth detection may fire (default: GrowthSamples).
	// Queue depths are sampled from approximate atomic counters (see
	// ringbuf.MPSC.Len and match.Sharded) that can read transiently high by
	// a few elements against in-flight operations; a streak of +1 jitter
	// must not be mistaken for a real backlog.
	GrowthMinDelta int
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.StallAfter <= 0 {
		c.StallAfter = time.Second
	}
	if c.StormWindow <= 0 {
		c.StormWindow = time.Second
	}
	if c.StormRetransmits <= 0 {
		c.StormRetransmits = 100
	}
	if c.GrowthSamples <= 0 {
		c.GrowthSamples = 8
	}
	if c.GrowthMinDelta <= 0 {
		c.GrowthMinDelta = c.GrowthSamples
	}
	return c
}

// Verdict is one fired detection: the reason, the runtime phase it
// implicates (named like the contention profiler's phases), the site (named
// like prof's lock-site labels), and a human-readable detail line.
type Verdict struct {
	Reason  string `json:"reason"`
	Phase   string `json:"phase"`
	Site    string `json:"site"`
	Detail  string `json:"detail"`
	SinceNs int64  `json:"since_ns"`
}

type commTrend struct {
	last   int
	first  int
	streak int
}

// Detector is the watchdog's decision core: a pure deterministic state
// machine fed periodic Samples, firing at most one Verdict per observation.
// Keeping it free of clocks and goroutines is what lets the simulator run
// the identical logic in virtual time.
type Detector struct {
	cfg    DetectorConfig
	primed bool

	lastMoveNs         int64
	lastSent, lastRecv uint64

	stormAnchorNs      int64
	stormAnchorRetrans uint64

	trends map[uint32]*commTrend
}

// NewDetector creates a detector with cfg (zero fields take defaults).
func NewDetector(cfg DetectorConfig) *Detector {
	return &Detector{cfg: cfg.withDefaults(), trends: make(map[uint32]*commTrend)}
}

// Observe feeds one sample. The first sample primes the baselines; later
// ones may fire. After firing, the corresponding detection re-arms so a
// persistent stall produces a dump per detection period, not per sample.
func (d *Detector) Observe(s Sample) (Verdict, bool) {
	if !d.primed {
		d.primed = true
		d.lastMoveNs = s.NowNs
		d.lastSent, d.lastRecv = s.Sent, s.Received
		d.stormAnchorNs, d.stormAnchorRetrans = s.NowNs, s.Retransmits
		for _, cq := range s.Comms {
			d.trends[cq.Comm] = &commTrend{last: cq.Unexpected, first: cq.Unexpected}
		}
		return Verdict{}, false
	}

	// Unexpected-queue growth: strictly monotone depth across
	// GrowthSamples consecutive observations means arrivals are outpacing
	// posted receives — the classic "receiver stopped posting" signature.
	for _, cq := range s.Comms {
		tr := d.trends[cq.Comm]
		if tr == nil {
			d.trends[cq.Comm] = &commTrend{last: cq.Unexpected, first: cq.Unexpected}
			continue
		}
		if cq.Unexpected > tr.last {
			if tr.streak == 0 {
				tr.first = tr.last
			}
			tr.streak++
		} else {
			tr.streak = 0
		}
		tr.last = cq.Unexpected
		if tr.streak >= d.cfg.GrowthSamples && cq.Unexpected-tr.first >= d.cfg.GrowthMinDelta {
			streak := tr.streak
			tr.streak = 0
			return Verdict{
				Reason: "unexpected-queue-growth",
				Phase:  "match",
				Site:   fmt.Sprintf("match.comm %d unexpected queue", cq.Comm),
				Detail: fmt.Sprintf("unexpected queue grew monotonically %d -> %d over %d samples; arrivals are outpacing posted receives",
					tr.first, cq.Unexpected, streak+1),
				SinceNs: s.NowNs,
			}, true
		}
	}

	// Retransmit storm: too many sweep re-injections inside one window.
	if s.NowNs-d.stormAnchorNs >= int64(d.cfg.StormWindow) {
		delta := s.Retransmits - d.stormAnchorRetrans
		anchor := d.stormAnchorNs
		d.stormAnchorNs, d.stormAnchorRetrans = s.NowNs, s.Retransmits
		if delta >= uint64(d.cfg.StormRetransmits) {
			return Verdict{
				Reason: "retransmit-storm",
				Phase:  "retransmit",
				Site:   "reliability send windows",
				Detail: fmt.Sprintf("%d retransmissions in %v (threshold %d); acks are not arriving or the fault rate is pathological",
					delta, time.Duration(s.NowNs-anchor), d.cfg.StormRetransmits),
				SinceNs: anchor,
			}, true
		}
	}

	// No progress: work outstanding but neither counter moved for
	// StallAfter.
	if s.Sent != d.lastSent || s.Received != d.lastRecv {
		d.lastSent, d.lastRecv = s.Sent, s.Received
		d.lastMoveNs = s.NowNs
	} else if outstanding(s) && s.NowNs-d.lastMoveNs >= int64(d.cfg.StallAfter) {
		since := d.lastMoveNs
		d.lastMoveNs = s.NowNs // re-arm
		return Verdict{
			Reason:  "no-progress",
			Phase:   "progress",
			Site:    stallSite(s),
			Detail:  fmt.Sprintf("no send/recv movement for %v with work outstanding (%s)", time.Duration(s.NowNs-since), outstandingDetail(s)),
			SinceNs: since,
		}, true
	}

	return Verdict{}, false
}

func outstanding(s Sample) bool {
	if s.Unacked > 0 {
		return true
	}
	for _, cq := range s.Comms {
		if cq.Posted > 0 || cq.Unexpected > 0 || cq.OOSBuffered > 0 {
			return true
		}
	}
	return false
}

// stallSite names the dominant outstanding work site so the verdict points
// at a place, not just a symptom.
func stallSite(s Sample) string {
	best, bestDepth := "", -1
	for _, cq := range s.Comms {
		if d := cq.Posted + cq.Unexpected + cq.OOSBuffered; d > bestDepth && d > 0 {
			best = fmt.Sprintf("match.comm %d posted/unexpected queues", cq.Comm)
			bestDepth = d
		}
	}
	if s.Unacked > bestDepth {
		return "reliability send windows"
	}
	if best != "" {
		return best
	}
	return "reliability send windows"
}

func outstandingDetail(s Sample) string {
	posted, unexp, oos := 0, 0, 0
	for _, cq := range s.Comms {
		posted += cq.Posted
		unexp += cq.Unexpected
		oos += cq.OOSBuffered
	}
	return fmt.Sprintf("posted=%d unexpected=%d oos=%d unacked=%d", posted, unexp, oos, s.Unacked)
}

// Dump is one watchdog firing in full: the verdict, the queue introspection
// snapshot at firing time, and the rank's merged flight record.
type Dump struct {
	Rank    int           `json:"rank"`
	Verdict Verdict       `json:"verdict"`
	Queues  QueueSnapshot `json:"queues"`
	Record  RankRecord    `json:"record"`
}

// WriteDump writes one watchdog dump as indented JSON.
func WriteDump(w io.Writer, d Dump) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ExitDump is the end-of-run artifact written by -flight-out (and by the
// signal/panic flush paths): every local rank's queue snapshot and flight
// record, plus any watchdog verdicts the run produced, so the file is a
// self-contained triage artifact.
type ExitDump struct {
	Queues []QueueSnapshot `json:"queues"`
	Flight []RankRecord    `json:"flight"`
	Dumps  []Dump          `json:"watchdog_dumps,omitempty"`
}

// WriteExitDump writes the exit dump as indented JSON.
func WriteExitDump(w io.Writer, d ExitDump) error {
	if d.Queues == nil {
		d.Queues = []QueueSnapshot{}
	}
	if d.Flight == nil {
		d.Flight = []RankRecord{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
