package flight

import (
	"encoding/json"
	"io"

	"repro/internal/spc"
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
	return writeIndented(w, snaps)
}

func writeIndented(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// Sample is one observation of one rank — what the detector, the cluster
// report row and the mpi_cluster_* gauges all read. NewSample builds it for
// its three samplers: the runtime's watchdog, the model's sampler and the
// cluster scrape.
type Sample struct {
	Rank int
	// NowNs is when the sample was taken on its sampler's clock; a poll that
	// gathers many ranks holds the observation's time itself and leaves it 0.
	NowNs int64
	// Err is a non-empty scrape failure description. An errored rank
	// contributes nothing to the detections this round (its counters are
	// stale), but stays visible in health output.
	Err string
	// Ready mirrors the rank's /readyz; ReadyReason carries the 503 body. A
	// rank sampled from inside its own process is ready by construction.
	Ready       bool
	ReadyReason string
	// Cumulative SPC movement counters.
	Sent, Received, Retransmits int64
	// Unacked is the rank's total reliability-window occupancy.
	Unacked int
	// Comms holds the live queue depths of each communicator.
	Comms []CommQueues
	// LatencyValid marks a sample carrying latency-attribution quantiles
	// (the run had the internal/latency layer on and at least one traced
	// message completed on this rank by this observation); the tail-skew
	// rule only scores these ranks.
	LatencyValid bool
	// E2EP99Ns is the rank's end-to-end latency p99 at this observation;
	// StageP99 the per-stage p99 vector in stage order — what lets the
	// tail-skew verdict name the stage responsible, not just the rank.
	// Cumulative-histogram quantiles, so they move slowly: the rule compares
	// them across ranks rather than across time.
	E2EP99Ns int64
	StageP99 []StageP99
}

// NewSample assembles one rank's observation: the movement counters of its
// process-scope counter snapshot, the communicators and the summed
// reliability-window occupancy of its queue snapshots (a process hosting
// several procs serves one each, folded here into one observation), and its
// latency p99s. The sampler's clock, readiness and scrape error are the
// caller's to set.
func NewSample(rank int, counters spc.Snapshot, queues []QueueSnapshot, stages []StageP99, e2eP99Ns int64, latencyValid bool) Sample {
	s := Sample{
		Rank:         rank,
		Sent:         counters[spc.MessagesSent],
		Received:     counters[spc.MessagesReceived],
		Retransmits:  counters[spc.Retransmits],
		LatencyValid: latencyValid,
		E2EP99Ns:     e2eP99Ns,
		StageP99:     stages,
	}
	for _, qs := range queues {
		s.Comms = append(s.Comms, qs.Comms...)
		for _, w := range qs.Windows {
			s.Unacked += w.Unacked
		}
	}
	return s
}

// QueueDepths is a rank's matching-queue depths summed over its communicators.
type QueueDepths struct {
	Posted, Unexpected, OOSBuffered int
}

// Depths sums the rank's queue depths — the one place that sum is taken.
func (s Sample) Depths() (d QueueDepths) {
	for _, cq := range s.Comms {
		d.Posted += cq.Posted
		d.Unexpected += cq.Unexpected
		d.OOSBuffered += cq.OOSBuffered
	}
	return d
}

// StageP99 is one critical-path stage's p99 in a latency-carrying Sample.
// The stage name matches internal/latency's Stage.String() vocabulary; the
// type lives here so the latency layer and the cluster plane share it
// without an import cycle.
type StageP99 struct {
	Stage string `json:"stage"`
	P99Ns int64  `json:"p99_ns"`
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
func WriteDump(w io.Writer, d Dump) error { return writeIndented(w, d) }

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
	return writeIndented(w, d)
}
