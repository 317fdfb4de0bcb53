package prof

import "sync/atomic"

// Phase labels one exclusive slice of a thread's wall time — the paper's
// time-breakdown categories. At any instant a thread is in exactly one
// phase; nesting is handled by a small explicit stack so an inner section
// (say lock-wait inside send) suspends the outer one rather than
// double-counting.
type Phase uint8

const (
	// PhaseApp is everything outside the runtime: the benchmark's own loop
	// bookkeeping, completion spinning between progress calls, idle time.
	PhaseApp Phase = iota
	// PhaseSend is the send path (Isend) excluding its nested sections.
	PhaseSend
	// PhaseLockWait is time blocked on a contended runtime lock (instance,
	// matching, big-lock, reliability window).
	PhaseLockWait
	// PhaseMatch is time inside a matching engine's critical section.
	PhaseMatch
	// PhaseProgressOwn is progress work on the thread's own turf: the
	// serial engine's full pass, or the dedicated instance in Algorithm 2.
	PhaseProgressOwn
	// PhaseProgressSteal is the round-robin sweep over other threads'
	// instances (Algorithm 2's helper role).
	PhaseProgressSteal
	// PhaseWire is time handing packets to the transport.
	PhaseWire
	// PhaseRetransmit is time inside the reliability layer's sweep.
	PhaseRetransmit

	numPhases
)

// NumPhases is the number of defined phases.
const NumPhases = int(numPhases)

var phaseNames = [...]string{
	PhaseApp:           "app",
	PhaseSend:          "send",
	PhaseLockWait:      "lock_wait",
	PhaseMatch:         "match",
	PhaseProgressOwn:   "progress_own",
	PhaseProgressSteal: "progress_steal",
	PhaseWire:          "wire",
	PhaseRetransmit:    "retransmit",
}

// String returns the phase's snake_case name.
func (ph Phase) String() string {
	if int(ph) >= len(phaseNames) {
		return "phase(?)"
	}
	return phaseNames[ph]
}

// maxNest bounds the phase stack. The deepest real nesting is three
// (progress → match → lock-wait); eight leaves slack. Deeper sections
// still balance Begin/End correctly, they just stop re-slicing.
const maxNest = 8

// ThreadClock decomposes one thread's time into exclusive phases. The
// instants come from the clock its creator supplied: the wall clock on the
// real runtime, a simulated thread's virtual clock in the model (which then
// decomposes exactly — every virtual nanosecond lands in one phase).
// Begin/End/Stop must be called only by the owning thread; Snapshot may be
// read concurrently (the per-phase totals are atomics). A nil *ThreadClock
// ignores everything — the disabled path is one branch per call.
type ThreadClock struct {
	label   string
	now     func() int64 // nil reads the wall clock
	startNs int64
	stopped atomic.Bool
	wallNs  atomic.Int64
	ns      [numPhases]atomic.Int64

	// Single-writer state, owned by the thread: the open phase, when it
	// started, and the suspended outer phases.
	cur      Phase
	curSince int64
	stack    [maxNest]Phase
	depth    int
}

// read returns the clock's current instant.
func (c *ThreadClock) read() int64 {
	if c.now != nil {
		return c.now()
	}
	return nowNs()
}

// Begin suspends the current phase and enters ph.
func (c *ThreadClock) Begin(ph Phase) {
	if c == nil {
		return
	}
	now := c.read()
	c.ns[c.cur].Add(now - c.curSince)
	c.curSince = now
	if c.depth < maxNest {
		c.stack[c.depth] = c.cur
	}
	c.depth++
	c.cur = ph
}

// End closes the innermost open section and resumes the enclosing phase.
func (c *ThreadClock) End() {
	if c == nil || c.depth == 0 {
		return
	}
	now := c.read()
	c.ns[c.cur].Add(now - c.curSince)
	c.curSince = now
	c.depth--
	if c.depth < maxNest {
		c.cur = c.stack[c.depth]
	} else {
		c.cur = PhaseApp
	}
}

// Stop flushes the open phase and freezes the wall time. Idempotent; call
// when the thread's benchmark work is done.
func (c *ThreadClock) Stop() {
	if c == nil || !c.stopped.CompareAndSwap(false, true) {
		return
	}
	now := c.read()
	c.ns[c.cur].Add(now - c.curSince)
	c.curSince = now
	c.wallNs.Store(now - c.startNs)
}

func (c *ThreadClock) snapshot() ThreadSnapshot {
	sn := ThreadSnapshot{Label: c.label, PhaseNs: make(map[string]int64, NumPhases)}
	if c.stopped.Load() {
		sn.WallNs = c.wallNs.Load()
	} else {
		sn.WallNs = c.read() - c.startNs
	}
	for i := range c.ns {
		v := c.ns[i].Load()
		sn.Phases[i] = v
		if v != 0 {
			sn.PhaseNs[Phase(i).String()] = v
		}
	}
	return sn
}

// PhaseTotals is an aggregate per-phase time vector (nanoseconds — wall or
// virtual), summed out of ThreadSnapshots.
type PhaseTotals [NumPhases]int64

// Merge adds o element-wise.
func (t *PhaseTotals) Merge(o PhaseTotals) {
	for i, v := range o {
		t[i] += v
	}
}

// Map returns the non-zero phases keyed by name.
func (t PhaseTotals) Map() map[string]int64 {
	m := make(map[string]int64, NumPhases)
	for i, v := range t {
		if v != 0 {
			m[Phase(i).String()] = v
		}
	}
	return m
}
