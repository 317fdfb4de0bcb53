package sim

import "time"

// Lock is a virtual-time mutex with *unfair* queueing and a contention
// penalty that models cache-line bouncing: every contended handoff costs
// extra virtual time, growing with the number of spinning waiters, and the
// released lock is handed to a deterministically pseudo-random waiter
// rather than the oldest one — real futex-based mutexes barge, and that
// barging is precisely what lets concurrently sending threads overtake one
// another between sequence assignment and injection (the paper's
// out-of-sequence storm). It is the simulation analog of the pthread
// mutexes protecting endpoints, instances, the serial progress engine, and
// matching queues.
type Lock struct {
	env     *Env
	name    string
	held    bool
	holder  *Proc
	waiters []*Proc

	// Penalty is the base cost of one contended acquisition (a cache-line
	// transfer between cores). Zero disables the model.
	Penalty time.Duration
	// PenaltyCap bounds the waiter-count multiplier (default 4).
	PenaltyCap int
	// SleepThreshold is the waiter count at which contenders stop spinning
	// and park (pthread adaptive mutex behavior); handoffs then pay
	// SleepPenalty (a futex wake + context switch) instead of the spin
	// penalty. Defaults: threshold 4, penalty 0 (disabled).
	SleepThreshold int
	// SleepPenalty is the cost of waking a parked waiter.
	SleepPenalty time.Duration

	// Fair forces FIFO handoff (for tests that need strict ordering).
	Fair bool

	// rng drives the deterministic unfair-handoff choice.
	rng uint64
}

// NewLock creates a lock with the given contention penalty.
func NewLock(env *Env, name string, penalty time.Duration) *Lock {
	return &Lock{env: env, name: name, Penalty: penalty, PenaltyCap: 4, SleepThreshold: 4, rng: 0x9E3779B97F4A7C15}
}

func (l *Lock) penalty() int64 {
	n := len(l.waiters)
	if l.SleepPenalty > 0 && l.SleepThreshold > 0 && n >= l.SleepThreshold {
		// Convoy regime: the next holder was parked; hand-off pays a
		// futex wake and context switch.
		return int64(l.SleepPenalty)
	}
	if l.Penalty == 0 {
		return 0
	}
	cap := l.PenaltyCap
	if cap <= 0 {
		cap = 4
	}
	if n > cap {
		n = cap
	}
	return int64(l.Penalty) * int64(1+n)
}

// Acquire blocks (in virtual time) until the lock is held by p.
// Returns the virtual time spent waiting: 0 when the lock was free. The
// lock keeps no statistics; its callers record the waits (prof.Mutex over
// a prof.VirtualLock).
func (l *Lock) Acquire(p *Proc) time.Duration {
	p.Yield()
	if !l.held {
		l.held = true
		l.holder = p
		return 0
	}
	t0 := p.now
	l.waiters = append(l.waiters, p)
	p.block()
	// Rescheduled by Release with clock advanced past the handoff.
	return time.Duration(p.now - t0)
}

// TryAcquire attempts the lock without blocking (the paper's try-lock
// semantics, Section III-C).
func (l *Lock) TryAcquire(p *Proc) bool {
	p.Yield()
	if l.held {
		return false
	}
	l.held = true
	l.holder = p
	return true
}

// Release frees the lock at p's current clock and hands it to the oldest
// waiter, charging the contention penalty.
func (l *Lock) Release(p *Proc) {
	if !l.held || l.holder != p {
		panic("sim: Release of lock " + l.name + " not held by " + p.name)
	}
	p.Yield()
	if len(l.waiters) == 0 {
		l.held = false
		l.holder = nil
		return
	}
	idx := 0
	if !l.Fair && len(l.waiters) > 1 {
		l.rng = l.rng*6364136223846793005 + 1442695040888963407
		idx = int((l.rng >> 33) % uint64(len(l.waiters)))
	}
	w := l.waiters[idx]
	l.waiters = append(l.waiters[:idx], l.waiters[idx+1:]...)
	l.holder = w
	at := p.now + l.penalty()
	if w.now > at {
		at = w.now
	}
	l.env.unblock(w, at)
}

// Wire is a shared serialization resource in virtual time — the NIC link.
// Each reservation claims an exclusive slot on a monotone cursor; the
// reserving process's clock jumps to its slot start. It is the virtual-time
// twin of fabric's rateLimiter and produces the hard aggregate caps drawn
// as "theoretical peak" lines in Figures 6 and 7.
type Wire struct {
	cursor    int64
	perByteNs float64
	perMsgNs  float64
}

// NewWire builds a wire from a link rate in Gbps and a per-message
// injection cap in msg/s; zero disables a dimension.
func NewWire(linkGbps, maxMsgRate float64) *Wire {
	w := &Wire{}
	if linkGbps > 0 {
		w.perByteNs = 8 / linkGbps
	}
	if maxMsgRate > 0 {
		w.perMsgNs = 1e9 / maxMsgRate
	}
	return w
}

// Reserve claims wire time for one message of the given size, advancing p
// to its slot start.
func (w *Wire) Reserve(p *Proc, wireBytes int) {
	if w == nil || (w.perByteNs == 0 && w.perMsgNs == 0) {
		return
	}
	p.Yield()
	cost := int64(w.perMsgNs + w.perByteNs*float64(wireBytes))
	if cost <= 0 {
		return
	}
	start := w.cursor
	if p.now > start {
		start = p.now
	}
	w.cursor = start + cost
	p.now = start
}

// Meter adapts an Env to the match.Meter interface: modeled costs advance
// the clock of the simulated thread that is running (Env.Current), so one
// meter serves every thread that enters the engine.
type Meter struct{ Env *Env }

// Charge implements match.Meter.
func (m Meter) Charge(d time.Duration) { m.Env.Current().Advance(d) }
