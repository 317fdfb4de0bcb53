// Package latency is the per-message critical-path attribution layer: it
// decomposes each traced message's end-to-end latency into named lifecycle
// stages — send post → CRI acquire → wire write → transit → delivery →
// match (posted hit vs unexpected residency) → completion — and records a
// per-stage log-linear histogram per rank plus a bounded reservoir of tail
// exemplars (the slowest messages, kept with their full stage breakdown and
// the surrounding flight-recorder events) so a p99.9 outlier can be replayed
// as a causal story instead of a single number.
//
// The layer follows the spc/telemetry/flight discipline: a nil *Recorder
// ignores every call, so hot paths pay one branch when attribution is off.
// Stage timestamps come from the existing 20-byte trace extension (send
// stamp, clock-sync corrected into the receiver's domain) plus driver-private
// packet metadata, and every engine derives the stages from them with the one
// function RecordPacket; which stages are exact and which are approximate
// depends on the stamps the engine takes and is documented in DESIGN.md §9.
package latency

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/flight"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Stage names one segment of a message's critical path.
type Stage int

const (
	// StageCRIAcquire: send post to CRI instance acquired (queueing for a
	// communication resource instance, including any send-credit backoff).
	StageCRIAcquire Stage = iota
	// StageWireWrite: instance acquired to injection complete (header build,
	// injection CPU, wire reservation / socket write).
	StageWireWrite
	// StageTransit: injection complete to arrival at the receiver's
	// transport (clock-corrected). On engines that do not stamp arrival this
	// stage is folded into StageDeliverWait's residual.
	StageTransit
	// StageDeliverWait: transport arrival to matching-engine delivery — the
	// receive-side progress lag. A receiver that posts its window and then
	// goes quiet grows exactly this stage.
	StageDeliverWait
	// StageMatchPosted: delivery to match completion for a posted hit. On
	// the runtime delivery is the dispatch of the packet, so the stage
	// includes its wait in the progress pass's eager run.
	StageMatchPosted
	// StageMatchUnexpected: delivery to match completion via the unexpected
	// queue — the unexpected residency of a message that arrived early.
	StageMatchUnexpected
	// StageComplete: match completion to request completion signalled.
	StageComplete

	// NumStages is the stage count; Measurement.StageNs is indexed by Stage.
	NumStages
)

var stageNames = [NumStages]string{
	StageCRIAcquire:      "cri_acquire",
	StageWireWrite:       "wire_write",
	StageTransit:         "transit",
	StageDeliverWait:     "deliver_wait",
	StageMatchPosted:     "match_posted",
	StageMatchUnexpected: "match_unexpected",
	StageComplete:        "complete",
}

// String names the stage ("cri_acquire", "wire_write", ...).
func (s Stage) String() string {
	if s >= 0 && s < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// HistName returns the stage's histogram export name; the Prometheus family
// is this with the usual "mpi_" prefix (mpi_latency_stage_<name>_ns).
func (s Stage) HistName() string { return "latency_stage_" + s.String() + "_ns" }

// HistE2E is the end-to-end histogram's export name (family
// mpi_latency_e2e_ns).
const HistE2E = "latency_e2e_ns"

// Unknown marks a stage duration the recording engine could not observe
// (e.g. sender-local stages of a message that crossed a real wire).
const Unknown int64 = -1

// Measurement is one traced message's completed critical path, derived by
// RecordPacket at the completion site. Stage durations are nanoseconds;
// Unknown (-1) marks stages the engine could not observe, which are skipped
// by the histograms and rendered as unknown in exemplar dumps.
type Measurement struct {
	TraceID uint64
	// Origin is the sender's world rank; Tag the message tag.
	Origin int32
	Tag    int32
	// Unexpected reports whether the message matched via the unexpected
	// queue (StageMatchUnexpected set) or a posted receive (StageMatchPosted).
	Unexpected bool
	StageNs    [NumStages]int64
	// E2ENs is send post to completion, clock-corrected into the completing
	// rank's domain.
	E2ENs int64
	// CompletedAtNs is the completion time on the recorder's clock domain
	// (relative wall time, or virtual time under the simulator) — the anchor
	// used to attach surrounding flight-recorder events to an exemplar.
	CompletedAtNs int64
}

// Recorder accumulates one rank's stage histograms and tail-exemplar
// reservoir. Histogram recording is lock-free (telemetry.Histogram); the
// reservoir takes a mutex on the completion path only when the message is
// slow enough to contend for a reservoir slot. All methods are nil-safe.
type Recorder struct {
	stage [NumStages]*telemetry.Histogram
	e2e   *telemetry.Histogram

	mu   sync.Mutex
	cap  int
	tail []Measurement // unordered reservoir of the slowest messages
	// floor caches the smallest E2ENs in a full reservoir so the common
	// fast-message case is one atomic load + compare without the lock.
	floor atomic.Int64
}

// DefaultExemplars is the reservoir capacity when the caller passes 0.
const DefaultExemplars = 64

// NewRecorder returns an enabled recorder keeping up to exemplars tail
// exemplars (0 = DefaultExemplars).
func NewRecorder(exemplars int) *Recorder {
	if exemplars <= 0 {
		exemplars = DefaultExemplars
	}
	r := &Recorder{cap: exemplars, e2e: telemetry.NewHistogram()}
	for i := range r.stage {
		r.stage[i] = telemetry.NewHistogram()
	}
	return r
}

// Enabled reports whether the recorder records anything.
func (r *Recorder) Enabled() bool { return r != nil }

// ObserveStage records one stage duration directly — the sender-side hook
// for the stages only the sender can time (CRI acquire, wire write).
// Unknown and negative values are ignored. Nil-safe.
func (r *Recorder) ObserveStage(s Stage, ns int64) {
	if r == nil || s < 0 || s >= NumStages || ns < 0 {
		return
	}
	r.stage[s].ObserveNs(ns)
}

// RecordPacket is the one derivation of a message's stages, for every
// engine: it turns the stamps a traced packet carries to its completion into
// a Measurement and records it. sent is the send post on the completing
// rank's clock (the packet's Stamp, clock-corrected when it crossed a real
// wire), now the completion instant on that clock, and base the zero of the
// flight recorder's clock on it (0 in virtual time), so CompletedAtNs lands
// on the recorder's timeline. tag is the matched tag, unexpected whether the
// message matched via the unexpected queue.
//
// A sender stage the packet carries as zero was not observed here and stays
// Unknown: a real wire does not carry SendAcqNs/SendWireNs, and the real
// engine never writes SendWireNs (the receiver owns an in-process packet once
// Send returns). Transit starts at "injection complete" — the send post plus
// the observed sender stages — so it absorbs whatever the sender did not
// split out; without an arrival stamp (self messages) it absorbs the
// delivery wait too. Every interval is clamped at zero; with the stamps in
// order the stages partition the end-to-end latency, so the known ones sum
// to at most e2e. Match and completion are one instant, so the complete
// stage is zero. Nil-safe on the recorder; an untraced packet records
// nothing.
func (r *Recorder) RecordPacket(pkt *transport.Packet, tag int32, unexpected bool, sent, now, base int64) {
	if r == nil || pkt == nil || pkt.TraceID() == 0 {
		return
	}
	meta := pkt.Meta
	m := Measurement{
		TraceID:       meta.TraceID,
		Origin:        meta.Origin,
		Tag:           tag,
		Unexpected:    unexpected,
		E2ENs:         clamp(now - sent),
		CompletedAtNs: now - base,
	}
	for i := range m.StageNs {
		m.StageNs[i] = Unknown
	}
	injected := sent
	if acq := meta.SendAcqNs; acq > 0 {
		m.StageNs[StageCRIAcquire] = acq
		injected += acq
	}
	if wire := meta.SendWireNs; wire > 0 {
		m.StageNs[StageWireWrite] = wire
		injected += wire
	}
	recv := meta.RecvStamp
	if arrive := meta.ArriveNs; arrive > 0 {
		m.StageNs[StageTransit] = clamp(arrive - injected)
		if recv != 0 {
			m.StageNs[StageDeliverWait] = clamp(recv - arrive)
		}
	} else if recv != 0 {
		m.StageNs[StageTransit] = clamp(recv - injected)
	}
	if recv != 0 {
		ms := StageMatchPosted
		if unexpected {
			ms = StageMatchUnexpected
		}
		m.StageNs[ms] = clamp(now - recv)
	}
	m.StageNs[StageComplete] = 0
	r.record(m)
}

func clamp(ns int64) int64 {
	if ns < 0 {
		return 0
	}
	return ns
}

// record folds one completed message in: the receiver-observable stages and
// the end-to-end latency land in the histograms, and the message contends
// for a tail-exemplar slot. Sender-local stages (CRI acquire, wire write)
// are NOT histogrammed here — the sender records those via ObserveStage, so
// each stage is counted on exactly one rank — but they stay in the exemplar's
// stage vector when the engine knew them.
func (r *Recorder) record(m Measurement) {
	for s := StageTransit; s < NumStages; s++ {
		if v := m.StageNs[s]; v >= 0 {
			r.stage[s].ObserveNs(v)
		}
	}
	r.e2e.ObserveNs(m.E2ENs)
	r.offer(m)
}

// offer admits m to the reservoir when it is among the slowest seen.
func (r *Recorder) offer(m Measurement) {
	// Fast path: the reservoir is full and its floor already beats m (a tie
	// must still take the lock for the deterministic tie-break).
	if m.E2ENs < r.floor.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.tail) < r.cap {
		r.tail = append(r.tail, m)
		if len(r.tail) == r.cap {
			r.refloor()
		}
		return
	}
	// Full: replace the current minimum if m is strictly slower, with the
	// trace id as a deterministic tie-break (ties keep the smaller id so
	// virtual-time runs, where equal latencies are common, stay
	// byte-reproducible regardless of arrival interleaving).
	min := 0
	for i := 1; i < len(r.tail); i++ {
		if less(r.tail[i], r.tail[min]) {
			min = i
		}
	}
	if less(r.tail[min], m) {
		r.tail[min] = m
		r.refloor()
	}
}

// less orders measurements by slowness: a < b when a is evicted before b.
func less(a, b Measurement) bool {
	if a.E2ENs != b.E2ENs {
		return a.E2ENs < b.E2ENs
	}
	return a.TraceID > b.TraceID
}

func (r *Recorder) refloor() {
	f := int64(1<<62 - 1)
	for _, m := range r.tail {
		if m.E2ENs < f {
			f = m.E2ENs
		}
	}
	r.floor.Store(f)
}

// Exemplars returns the reservoir sorted slowest-first (ties by ascending
// trace id, so the order is deterministic). Nil-safe.
func (r *Recorder) Exemplars() []Measurement {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Measurement(nil), r.tail...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return less(out[j], out[i]) })
	return out
}

// Snapshot captures the per-stage and end-to-end histograms as named
// snapshots ready to append to a ProcStats.Hists set — which is all it takes
// for the existing Prometheus exporter, sampler, and cluster scrape path to
// carry them as mpi_latency_* families. Nil-safe: a nil recorder yields nil.
func (r *Recorder) Snapshot() []telemetry.NamedHist {
	if r == nil {
		return nil
	}
	out := make([]telemetry.NamedHist, 0, NumStages+1)
	out = append(out, telemetry.NamedHist{Name: HistE2E, Hist: r.e2e.Snapshot()})
	for s := Stage(0); s < NumStages; s++ {
		out = append(out, telemetry.NamedHist{Name: s.HistName(), Hist: r.stage[s].Snapshot()})
	}
	return out
}

// StageP99s condenses the recorder into the per-stage p99 vector the cluster
// plane's virtual-time twin feeds through the tail-skew detector: one entry
// per stage with observations, in stage order, plus the end-to-end p99.
// Nil-safe: a nil recorder yields (nil, 0, false).
func (r *Recorder) StageP99s() (stages []flight.StageP99, e2eP99 int64, ok bool) {
	if r == nil {
		return nil, 0, false
	}
	e2e := r.e2e.Snapshot()
	if e2e.Count == 0 {
		return nil, 0, false
	}
	for s := Stage(0); s < NumStages; s++ {
		snap := r.stage[s].Snapshot()
		if snap.Count == 0 {
			continue
		}
		stages = append(stages, flight.StageP99{Stage: s.String(), P99Ns: snap.P99()})
	}
	return stages, e2e.P99(), true
}

// StageSummary is one stage's aggregate in a rank dump.
type StageSummary struct {
	Stage string `json:"stage"`
	Count int64  `json:"count"`
	SumNs int64  `json:"sum_ns"`
	P50Ns int64  `json:"p50_ns"`
	P99Ns int64  `json:"p99_ns"`
	MaxNs int64  `json:"max_ns"`
}

// Exemplar is one tail message in dump form: the stage breakdown in stage
// order plus the surrounding flight-recorder events (empty when the flight
// recorder was off or retained nothing near the completion).
type Exemplar struct {
	TraceID       uint64         `json:"trace_id"`
	Origin        int32          `json:"origin"`
	Tag           int32          `json:"tag"`
	Unexpected    bool           `json:"unexpected"`
	E2ENs         int64          `json:"e2e_ns"`
	CompletedAtNs int64          `json:"completed_at_ns"`
	Stages        []StageValue   `json:"stages"`
	Events        []flight.Event `json:"events"`
}

// StageValue is one stage's duration in an exemplar (-1 = unknown).
type StageValue struct {
	Stage string `json:"stage"`
	Ns    int64  `json:"ns"`
}

// RankDump is one rank's full attribution dump: per-stage summaries (stage
// order, end-to-end last) and the tail exemplars slowest-first — the
// /debug/latency document and the -latency-out artifact.
type RankDump struct {
	Rank      int            `json:"rank"`
	Stages    []StageSummary `json:"stages"`
	Exemplars []Exemplar     `json:"exemplars"`
}

// exemplarSlackNs bounds how far after an exemplar's completion surrounding
// flight events are still attached.
const exemplarSlackNs = int64(1000)

// exemplarMaxEvents bounds the flight events attached to one exemplar to
// the ones nearest its completion: a message that queued behind a deep
// window has tens of thousands of events inside its lifetime, and the
// recorder runs whenever a trace output is requested, so an unbounded
// attachment turns /debug/latency into tens of megabytes.
const exemplarMaxEvents = 256

// Dump assembles the rank's dump, attaching to each exemplar the flight
// events that fall inside its lifetime window [completion − e2e − slack,
// completion + slack] on the flight recorder's clock (the last
// exemplarMaxEvents of them). Pass the rank's
// flight.RankRecord (the zero value when the recorder is off). Nil-safe.
func (r *Recorder) Dump(rank int, rec flight.RankRecord) RankDump {
	d := RankDump{Rank: rank, Stages: []StageSummary{}, Exemplars: []Exemplar{}}
	if r == nil {
		return d
	}
	for _, nh := range r.Snapshot() {
		if nh.Hist.Count == 0 {
			continue
		}
		name := nh.Name
		if name == HistE2E {
			name = "e2e"
		} else {
			name = name[len("latency_stage_") : len(name)-len("_ns")]
		}
		d.Stages = append(d.Stages, StageSummary{
			Stage: name,
			Count: nh.Hist.Count,
			SumNs: nh.Hist.Sum,
			P50Ns: nh.Hist.P50(),
			P99Ns: nh.Hist.P99(),
			MaxNs: nh.Hist.Max,
		})
	}
	for _, m := range r.Exemplars() {
		ex := Exemplar{
			TraceID:       m.TraceID,
			Origin:        m.Origin,
			Tag:           m.Tag,
			Unexpected:    m.Unexpected,
			E2ENs:         m.E2ENs,
			CompletedAtNs: m.CompletedAtNs,
			Events:        []flight.Event{},
		}
		for s := Stage(0); s < NumStages; s++ {
			ex.Stages = append(ex.Stages, StageValue{Stage: s.String(), Ns: m.StageNs[s]})
		}
		// The measurement's completion anchor and the flight clock share a
		// domain start (both are relative to process start, or both virtual),
		// so the window is a direct comparison.
		lo := m.CompletedAtNs - m.E2ENs - exemplarSlackNs
		hi := m.CompletedAtNs + exemplarSlackNs
		for _, ev := range rec.Events {
			if ev.TS >= lo && ev.TS <= hi {
				ex.Events = append(ex.Events, ev)
			}
		}
		if n := len(ex.Events); n > exemplarMaxEvents {
			ex.Events = append([]flight.Event(nil), ex.Events[n-exemplarMaxEvents:]...)
		}
		d.Exemplars = append(d.Exemplars, ex)
	}
	return d
}

// WriteDumps writes rank dumps as indented JSON — the /debug/latency body
// and the -latency-out artifact. Dumps of virtual-time runs are
// byte-reproducible: every field derives from the deterministic schedule.
func WriteDumps(w io.Writer, dumps []RankDump) error {
	if dumps == nil {
		dumps = []RankDump{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dumps)
}
