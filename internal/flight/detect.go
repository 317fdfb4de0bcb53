package flight

import (
	"fmt"
	"sort"
	"time"
)

// The reasons a Verdict can carry. The strings are the stable interface:
// reports, the mpi_cluster_verdicts_total label, the smoke scripts and the
// census in DESIGN.md all match on them.
const (
	ReasonNoProgress           = "no-progress"             // frozen with work outstanding, and no rank shown moved
	ReasonRankStraggler        = "rank-straggler"          // the same frozen rank while a peer kept moving
	ReasonRateSkew             = "rate-skew"               // work outstanding, far below the median message rate
	ReasonUnexpectedGrowth     = "unexpected-queue-growth" // one communicator's unexpected queue growing sample after sample
	ReasonUnexpectedDivergence = "unexpected-divergence"   // unexpected depth far above the median, receiving nothing
	ReasonRetransmitStorm      = "retransmit-storm"        // too many retransmissions inside one window
	ReasonReadinessStraggler   = "readiness-straggler"     // still not ready long after the first rank was
	ReasonLatencyTailSkew      = "latency-tail-skew"       // end-to-end p99 far above the median p99, sustained
)

// DetectorConfig holds the thresholds something sets: the two sampling
// drivers scale them to their clock (a virtual run lasts milliseconds) and
// tests shrink them. Zero values take defaults. Every other threshold is a
// constant below.
type DetectorConfig struct {
	// StallAfter fires the frozen rule (no-progress, rank-straggler) when
	// neither sent nor received moved for this long with work outstanding
	// (default 1s).
	StallAfter time.Duration
	// StormWindow and StormRetransmits fire retransmit-storm when a rank
	// re-injects at least StormRetransmits packets within one StormWindow
	// (defaults 1s / 100).
	StormWindow      time.Duration
	StormRetransmits int64
	// GrowthSamples fires unexpected-queue-growth when a communicator's
	// unexpected depth grows strictly monotonically across this many
	// consecutive observations (default 8).
	GrowthSamples int
	// GrowthMinDelta is the minimum total depth increase over a monotone
	// streak before the growth rule may fire (default: GrowthSamples).
	// Queue depths are sampled from approximate atomic counters (see
	// ringbuf.MPSC.Len and match.Sharded) that can read transiently high by
	// a few elements against in-flight operations; a streak of +1 jitter
	// must not be mistaken for a real backlog.
	GrowthMinDelta int
	// DivergeAfter additionally requires a diverging rank's received counter
	// to have been frozen this long (default: StallAfter). A rank that is
	// draining its queue is not diverging, however deep a sender
	// legitimately runs ahead of it — only depth combined with receive-side
	// stagnation localizes "arrivals outpacing posted receives" to a rank.
	DivergeAfter time.Duration
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
	if c.DivergeAfter <= 0 {
		c.DivergeAfter = c.StallAfter
	}
	return c
}

// The thresholds nothing sets. Each keeps the reason for its value.
const (
	// minOutstanding is the least total queued work (posted + unexpected +
	// out-of-sequence + unacked + pending CRIs) the comparative rules
	// (rank-straggler, rate-skew) require before implicating a rank. A rank blocked in a
	// barrier while faster peers finish legitimately freezes holding one or
	// two collective receives; a genuinely stuck rank holds a window's worth.
	minOutstanding = 4
	// rateWindow is the trailing window message rates are computed over.
	rateWindow = time.Second
	// skewFraction fires rate-skew for a rank below this fraction of the
	// median rate; minMedianRate (msgs/s) keeps idle phases silent.
	skewFraction  = 0.25
	minMedianRate = 10.0
	// skewWindows is how many consecutive completed rate windows a rank must
	// qualify as skewed. One bad window is scheduler noise on an
	// oversubscribed host; a sick rank stays under the fraction window after
	// window.
	skewWindows = 2
	// divergeFactor and divergeMin fire unexpected-divergence when a rank's
	// unexpected depth exceeds divergeFactor times the median and the excess
	// is at least divergeMin messages.
	divergeFactor = 4.0
	divergeMin    = 64
	// readyStragglerAfter is how long after the first rank reported ready a
	// rank may still answer not-ready. Fires once per not-ready episode.
	readyStragglerAfter = 2 * time.Second
	// tailFactor fires latency-tail-skew when a rank's end-to-end p99
	// exceeds this multiple of the median p99; tailWindows is how many
	// consecutive observations it must stay there (one skewed poll is a
	// warm-up artifact; a sick tail persists); tailMinP99 suppresses the rule
	// below an absolute p99 — a rank at 4x a sub-microsecond median is
	// noise, not a tail.
	tailFactor  = 4.0
	tailWindows = 3
	tailMinP99  = time.Millisecond
	// medianRanks is the least number of ranks a median means anything over:
	// with two, "the median" is half the straggler itself.
	medianRanks = 3
)

// Verdict is one fired detection: why, which rank, the runtime phase it
// implicates (named like the contention profiler's phases, or the latency
// stage for a tail), the site (named like prof's lock-site labels), a
// human-readable detail line, and since when.
type Verdict struct {
	Reason  string `json:"reason"`
	Rank    int    `json:"rank"`
	Phase   string `json:"phase,omitempty"`
	Site    string `json:"site,omitempty"`
	Detail  string `json:"detail"`
	SinceNs int64  `json:"since_ns"`
}

type commTrend struct{ last, first, streak int }

// rankTrack is the detector's memory of one rank.
type rankTrack struct {
	lastSent, lastRecv int64
	// lastMoveNs is when either counter last moved; stallNs is the frozen
	// rule's clock, which a firing also resets (the re-arm) — kept apart so
	// a rank that was just named never reads as a peer that moved.
	lastMoveNs, stallNs int64
	// recvMoveNs is the last time the received counter alone moved — the
	// divergence rule's drain-stagnation clock.
	recvMoveNs int64

	rateAnchorNs, rateAnchorTotal int64
	rate                          float64
	rateValid                     bool
	// rateFresh marks an observation where a rate window just completed —
	// the only rounds the skew rule scores, so its streak counts windows,
	// not polls.
	rateFresh  bool
	skewStreak int

	stormAnchorNs, stormAnchorRetrans int64
	trends                            map[uint32]*commTrend

	// Episode latches: one verdict per not-ready / diverged / skewed-tail
	// episode, re-armed when the episode ends.
	readyFired, divergeFired, tailFired bool
	tailStreak                          int
}

// Detector is the one rule engine of the diagnosis plane: a deterministic
// state machine fed, per observation, one Sample for every rank the caller
// can see. A rule is a function of the ranks it is shown, never of who is
// calling: the stall watchdog shows it one rank on each tick of the run's
// one sampler (core.Sampler, simnet's sampler thread), mpirun's aggregator
// shows it the job. It owns no clocks or goroutines, which is what lets the
// simulator run the identical logic in virtual time.
type Detector struct {
	cfg          DetectorConfig
	tracks       map[int]*rankTrack
	firstReadyNs int64
	haveReady    bool
}

// NewDetector creates a detector with cfg (zero fields take defaults).
func NewDetector(cfg DetectorConfig) *Detector {
	return &Detector{cfg: cfg.withDefaults(), tracks: make(map[int]*rankTrack)}
}

// Rate returns the rank's message rate (msgs/s of sent+received) over the
// last completed rate window, and whether a full window has elapsed yet.
func (d *Detector) Rate(rank int) (float64, bool) {
	if tr, ok := d.tracks[rank]; ok {
		return tr.rate, tr.rateValid
	}
	return 0, false
}

// live is one rank's sample for this observation beside its track and its
// summed depths.
type live struct {
	Sample
	tr *rankTrack
	QueueDepths
}

// Observe feeds one observation — the samples of every rank visible at time
// now (ns) — and returns the verdicts it fires. A rank's first good sample
// primes its baselines; a sample carrying Err is stale and contributes
// nothing. After firing, a rule re-arms, so a persistent condition yields a
// verdict per detection period (or per episode), not per sample.
func (d *Detector) Observe(now int64, samples []Sample) []Verdict {
	var out []Verdict
	fire := func(r live, reason, phase, site string, since int64, format string, args ...any) {
		out = append(out, Verdict{Reason: reason, Rank: r.Rank, Phase: phase, Site: site,
			Detail: fmt.Sprintf(format, args...), SinceNs: since})
	}

	// Movement and rate bookkeeping first, so every rule below sees this
	// observation's state.
	ranks := make([]live, 0, len(samples))
	for _, s := range samples {
		if s.Err != "" {
			continue
		}
		tr := d.tracks[s.Rank]
		if tr == nil {
			tr = &rankTrack{
				lastSent: s.Sent, lastRecv: s.Received, lastMoveNs: now, stallNs: now, recvMoveNs: now,
				rateAnchorNs: now, rateAnchorTotal: s.Sent + s.Received,
				stormAnchorNs: now, stormAnchorRetrans: s.Retransmits,
				trends: map[uint32]*commTrend{},
			}
			d.tracks[s.Rank] = tr
		}
		if s.Received != tr.lastRecv {
			tr.recvMoveNs = now
		}
		if s.Sent != tr.lastSent || s.Received != tr.lastRecv {
			tr.lastSent, tr.lastRecv = s.Sent, s.Received
			tr.lastMoveNs, tr.stallNs = now, now
		}
		tr.rateFresh = false
		if dt := now - tr.rateAnchorNs; dt >= int64(rateWindow) {
			total := s.Sent + s.Received
			tr.rate = float64(total-tr.rateAnchorTotal) / (float64(dt) / float64(time.Second))
			tr.rateValid, tr.rateFresh = true, true
			tr.rateAnchorNs, tr.rateAnchorTotal = now, total
		}
		ranks = append(ranks, live{s, tr, s.Depths()})
	}

	// Readiness: anchor the first ready sighting, then flag stragglers
	// against it (none can fire in the observation that sets the anchor).
	for _, r := range ranks {
		if r.Ready {
			if !d.haveReady {
				d.haveReady, d.firstReadyNs = true, now
			}
			r.tr.readyFired = false // new episode allowed after a restart
			continue
		}
		if !d.haveReady || r.tr.readyFired || now-d.firstReadyNs < int64(readyStragglerAfter) {
			continue
		}
		r.tr.readyFired = true
		reason := r.ReadyReason
		if reason == "" {
			reason = "no reason reported"
		}
		fire(r, ReasonReadinessStraggler, "", "", d.firstReadyNs,
			"rank %d still not ready %v after the first rank reported ready (%s)",
			r.Rank, time.Duration(now-d.firstReadyNs), reason)
	}

	// Frozen with work outstanding. Whether a peer moved inside the stall
	// window is what tells one sick rank from a job stalled as a whole: the
	// first is a straggler, held to the minOutstanding floor; the second —
	// which is what a rank shown alone always is — is no-progress.
	peerMoved := false
	for _, r := range ranks {
		if now-r.tr.lastMoveNs < int64(d.cfg.StallAfter) {
			peerMoved = true
			break
		}
	}
	for _, r := range ranks {
		since := r.tr.stallNs
		frozen := time.Duration(now - since)
		if frozen < d.cfg.StallAfter {
			continue
		}
		switch {
		case peerMoved && r.queued() >= minOutstanding:
			r.tr.stallNs = now // re-arm
			fire(r, ReasonRankStraggler, "progress", r.stallSite(), since,
				"rank %d made no send/recv progress for %v with work outstanding (%s) while peers kept moving",
				r.Rank, frozen, r.outstanding())
		case !peerMoved && r.queued() > 0:
			r.tr.stallNs = now // re-arm
			fire(r, ReasonNoProgress, "progress", r.stallSite(), since,
				"no send/recv movement for %v with work outstanding (%s)", frozen, r.outstanding())
		}
	}

	// Rate skew: a rank with work outstanding sustaining a small fraction
	// of the median rate.
	var rates []float64
	for _, r := range ranks {
		if r.tr.rateValid {
			rates = append(rates, r.tr.rate)
		}
	}
	if med := median(rates); len(rates) >= medianRanks && med >= minMedianRate {
		for _, r := range ranks {
			if !r.tr.rateFresh {
				continue // score each completed window exactly once
			}
			if r.queued() < minOutstanding || r.tr.rate >= skewFraction*med {
				r.tr.skewStreak = 0
				continue
			}
			if r.tr.skewStreak++; r.tr.skewStreak < skewWindows {
				continue
			}
			r.tr.skewStreak = 0 // re-arm: need a fresh streak
			fire(r, ReasonRateSkew, "progress", r.stallSite(), now-skewWindows*int64(rateWindow),
				"rank %d at %.0f msg/s vs cluster median %.0f (%.0f%%) over %d consecutive windows with work outstanding",
				r.Rank, r.tr.rate, med, 100*r.tr.rate/med, skewWindows)
		}
	}

	// Unexpected-queue growth: strictly monotone depth on one communicator
	// across GrowthSamples consecutive observations means arrivals are
	// outpacing posted receives — the "receiver stopped posting" signature.
	for _, r := range ranks {
		for _, cq := range r.Comms {
			tr := r.tr.trends[cq.Comm]
			if tr == nil {
				r.tr.trends[cq.Comm] = &commTrend{last: cq.Unexpected, first: cq.Unexpected}
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
				fire(r, ReasonUnexpectedGrowth, "match", unexpectedSite(cq.Comm), now,
					"unexpected queue grew monotonically %d -> %d over %d samples; arrivals are outpacing posted receives",
					tr.first, cq.Unexpected, tr.streak+1)
				tr.streak = 0
			}
		}
	}

	// Unexpected-queue divergence: one rank's unexpected depth far above
	// the median while it receives nothing (the growth rule sees the trend
	// on one rank; this sees the asymmetry across ranks).
	if len(ranks) >= 2 {
		depths := make([]float64, 0, len(ranks))
		for _, r := range ranks {
			depths = append(depths, float64(r.Unexpected))
		}
		med := median(depths)
		for _, r := range ranks {
			depth := float64(r.Unexpected)
			if depth < divergeFactor*(med+1) || depth-med < divergeMin ||
				now-r.tr.recvMoveNs < int64(d.cfg.DivergeAfter) {
				r.tr.divergeFired = false // episode over: re-arm
				continue
			}
			if !r.tr.divergeFired {
				r.tr.divergeFired = true
				fire(r, ReasonUnexpectedDivergence, "match", r.stallSite(), r.tr.recvMoveNs,
					"rank %d unexpected queue depth %d vs cluster median %.0f with no receive progress for %v; arrivals are outpacing posted receives on this rank",
					r.Rank, r.Unexpected, med, time.Duration(now-r.tr.recvMoveNs))
			}
		}
	}

	// Latency tail skew: one rank's end-to-end p99 far above the median
	// p99, sustained. The per-stage breakdown lets the verdict name the
	// stage carrying the excess — the difference between "rank 3 is slow"
	// and "rank 3's arrivals sit in the unexpected queue".
	var tails []float64
	byStage := map[string][]float64{}
	for _, r := range ranks {
		if r.LatencyValid {
			tails = append(tails, float64(r.E2EP99Ns))
			for _, sp := range r.StageP99 {
				byStage[sp.Stage] = append(byStage[sp.Stage], float64(sp.P99Ns))
			}
		}
	}
	if len(tails) >= medianRanks {
		med := median(tails)
		stageMed := make(map[string]float64, len(byStage))
		for stage, vs := range byStage {
			stageMed[stage] = median(vs)
		}
		for _, r := range ranks {
			if !r.LatencyValid {
				continue
			}
			if float64(r.E2EP99Ns) < tailFactor*(med+1) || r.E2EP99Ns < int64(tailMinP99) {
				r.tr.tailStreak, r.tr.tailFired = 0, false // episode over: re-arm
				continue
			}
			if r.tr.tailStreak++; r.tr.tailFired || r.tr.tailStreak < tailWindows {
				continue
			}
			r.tr.tailFired = true
			stage, p99 := dominantStage(r.StageP99, stageMed)
			detail, site := "", ""
			if stage != "" {
				detail = fmt.Sprintf("; dominant stage %s (p99 %v)", stage, time.Duration(p99))
				site = "latency stage " + stage
			}
			fire(r, ReasonLatencyTailSkew, stage, site, now,
				"rank %d e2e p99 %v is %.0fx the cluster median %v over %d consecutive observations%s",
				r.Rank, time.Duration(r.E2EP99Ns), float64(r.E2EP99Ns)/(med+1),
				time.Duration(int64(med)), tailWindows, detail)
		}
	}

	// Retransmit storm: a rank's re-injection count inside the storm window.
	for _, r := range ranks {
		anchor := r.tr.stormAnchorNs
		if now-anchor < int64(d.cfg.StormWindow) {
			continue
		}
		delta := r.Retransmits - r.tr.stormAnchorRetrans
		r.tr.stormAnchorNs, r.tr.stormAnchorRetrans = now, r.Retransmits
		if delta >= d.cfg.StormRetransmits {
			fire(r, ReasonRetransmitStorm, "retransmit", windowsSite, anchor,
				"rank %d: %d retransmissions in %v (threshold %d); acks are not arriving or the fault rate is pathological",
				r.Rank, delta, time.Duration(now-anchor), d.cfg.StormRetransmits)
		}
	}
	return out
}

// Site names, spelled like prof's lock-site labels.
const windowsSite = "reliability send windows"

func unexpectedSite(comm uint32) string {
	return fmt.Sprintf("match.comm %d unexpected queue", comm)
}

// queued is the rank's total visible work in flight — the quantity that
// separates "stuck" from "finished" (zero) and from "blocked in a
// collective" (the ambient handful below minOutstanding). A CRI with arrivals
// no pass has taken counts one: a receiver that froze after its posted
// receives matched holds its peer's further traffic there and nowhere else.
func (r live) queued() int {
	return r.Posted + r.Unexpected + r.OOSBuffered + r.Unacked + len(r.PendingCRIs)
}

func (r live) outstanding() string {
	s := fmt.Sprintf("posted=%d unexpected=%d oos=%d unacked=%d", r.Posted, r.Unexpected, r.OOSBuffered, r.Unacked)
	if n := len(r.PendingCRIs); n > 0 {
		s += fmt.Sprintf(" pending_cris=%d", n)
	}
	return s
}

// stallSite names the dominant outstanding work site so the verdict points
// at a place, not just a symptom. A pending CRI weighs one, so its receive
// ring is named only when no queue holds anything.
func (r live) stallSite() string {
	best, bestDepth := windowsSite, r.Unacked
	for _, cq := range r.Comms {
		if d := cq.Posted + cq.Unexpected + cq.OOSBuffered; d > bestDepth {
			best, bestDepth = fmt.Sprintf("match.comm %d posted/unexpected queues", cq.Comm), d
		}
	}
	if len(r.PendingCRIs) > 0 && bestDepth == 0 {
		best = fmt.Sprintf("cri.instance %d receive ring", r.PendingCRIs[0])
	}
	return best
}

// dominantStage names the stage whose p99 most exceeds the ranks' per-stage
// median (med) — the stage carrying a skewed rank's excess latency. Ratio against
// median+1 so a stage every other rank reports as ~0 (e.g. an
// unexpected-queue dwell only the sick rank has) still dominates. Ties
// break to the lexically first stage name for determinism.
func dominantStage(stages []StageP99, med map[string]float64) (string, int64) {
	best, bestRatio, bestP99 := "", 0.0, int64(0)
	for _, sp := range stages {
		ratio := float64(sp.P99Ns) / (med[sp.Stage] + 1)
		if ratio > bestRatio || (ratio == bestRatio && best != "" && sp.Stage < best) {
			best, bestRatio, bestP99 = sp.Stage, ratio, sp.P99Ns
		}
	}
	return best, bestP99
}

// median returns the middle value (lower middle for even counts) of vs,
// which it sorts in place; 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	return vs[(len(vs)-1)/2]
}
