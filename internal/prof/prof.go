// Package prof is the contention-and-phase profiler: the measurement layer
// behind the paper's attribution argument. THREAD_MULTIPLE does not collapse
// because "locks are slow" in the abstract — it collapses because threads
// spend their wall time waiting on a handful of nameable serialization
// points (the CRI instance lock, the serial progress lock, the matching
// section, the reliability window). This package gives each of those points
// a Site that records acquisitions, contended acquisitions, total/max wait,
// and hold time, attributed per CRI and per communicator, plus a per-thread
// phase clock that decomposes each benchmark thread's wall time into
// exclusive phases, so "where did the time go" is a query, not a guess.
//
// Everything is nil-safe in the repo's usual way: a nil *Profiler hands out
// nil Sites and nil ThreadClocks, and every record method on a nil receiver
// is a single predictable branch, so instrumented hot paths cost ~1 ns when
// profiling is off.
package prof

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// base anchors the package's monotonic nanosecond clock. time.Since on a
// monotonic time.Time compiles to one nanotime call, which is the cheapest
// portable clock read Go offers.
var base = time.Now()

func nowNs() int64 { return int64(time.Since(base)) }

// Site is one named lock site's statistics. All counters are atomics; a
// Site is shared by every thread that touches its lock. A nil *Site ignores
// all records.
type Site struct {
	name string
	cri  int    // owning instance index, or -1 when not instance-scoped
	comm uint32 // owning communicator id, or 0 when not communicator-scoped

	acquisitions atomic.Int64
	contended    atomic.Int64
	tryFails     atomic.Int64
	waitNs       atomic.Int64
	maxWaitNs    atomic.Int64
	holdNs       atomic.Int64
}

func (s *Site) recordTryFail() {
	if s == nil {
		return
	}
	s.tryFails.Add(1)
}

// recordWait records one contended acquisition that blocked for d.
func (s *Site) recordWait(d int64) {
	if s == nil {
		return
	}
	s.acquisitions.Add(1)
	s.contended.Add(1)
	s.waitNs.Add(d)
	for {
		cur := s.maxWaitNs.Load()
		if d <= cur || s.maxWaitNs.CompareAndSwap(cur, d) {
			return
		}
	}
}

// VirtualLock is a lock realized off the host: the virtual-time model's,
// which hands its executive the turn where a host mutex would block. A Mutex
// or TryMutex bound to one acts on it instead of its own mutex, so the
// model runs the runtime's locking code over virtual time. Each call acts
// for the calling simulated thread.
type VirtualLock interface {
	// Lock returns once the caller holds the lock, charging the whole
	// acquisition, contended or not, to a lock-wait phase section on c
	// (nil-safe).
	Lock(c *ThreadClock)
	// TryLock takes the lock if it is free and reports whether it did.
	TryLock() bool
	// Unlock releases the lock.
	Unlock()
}

// Mutex is a drop-in sync.Mutex wrapper that attributes contention to a
// Site. The zero value is a plain unprofiled mutex; Bind attaches a site
// during setup, before the lock is shared between threads. With a nil site
// every extra path is one branch.
type Mutex struct {
	mu   sync.Mutex
	site *Site
	// virt, when bound, takes the place of mu and the site (BindVirtual).
	virt VirtualLock
	// heldSince is written after acquiring and read in Unlock — both under
	// the mutex, so plain (non-atomic) access is race-free.
	heldSince int64
}

// Bind attaches the site statistics. Call during setup only.
func (m *Mutex) Bind(s *Site) { m.site = s }

// BindVirtual makes every method act on v instead of the host mutex. Call
// during setup only; unbound (the runtime) costs each method one branch.
func (m *Mutex) BindVirtual(v VirtualLock) { m.virt = v }

// Lock acquires the mutex, recording a contended acquisition (with wait
// time) when the try-lock fast path fails.
func (m *Mutex) Lock() { m.LockClocked(nil) }

// LockClocked is Lock, additionally charging any contended wait to a
// lock-wait phase section on c (nil-safe on both receiver and clock).
func (m *Mutex) LockClocked(c *ThreadClock) {
	if m.virt != nil {
		m.virt.Lock(c)
		return
	}
	if m.mu.TryLock() {
		if s := m.site; s != nil {
			s.acquisitions.Add(1)
			m.heldSince = nowNs()
		}
		return
	}
	s := m.site
	if s == nil {
		m.mu.Lock()
		return
	}
	c.Begin(PhaseLockWait)
	t0 := nowNs()
	m.mu.Lock()
	now := nowNs()
	c.End()
	s.recordWait(now - t0)
	m.heldSince = now
}

// TryLockQuiet attempts the mutex recording an acquisition on success but
// NOTHING on failure — for fast paths whose failure is immediately followed
// by a blocking LockClocked (which records the contended acquisition), so a
// miss is not double-counted as a try-lock loss. Bound to a virtual lock it
// reports false without trying: the LockClocked that follows then takes the
// lock in one virtual step, not a try and a wait.
func (m *Mutex) TryLockQuiet() bool {
	if m.virt != nil {
		return false
	}
	if m.mu.TryLock() {
		if s := m.site; s != nil {
			s.acquisitions.Add(1)
			m.heldSince = nowNs()
		}
		return true
	}
	return false
}

// TryLock attempts the mutex without blocking, recording the loss on the
// site when it fails.
func (m *Mutex) TryLock() bool {
	if m.virt != nil {
		return m.virt.TryLock()
	}
	if m.mu.TryLock() {
		if s := m.site; s != nil {
			s.acquisitions.Add(1)
			m.heldSince = nowNs()
		}
		return true
	}
	m.site.recordTryFail()
	return false
}

// Unlock releases the mutex, accumulating hold time on the site.
func (m *Mutex) Unlock() {
	if m.virt != nil {
		m.virt.Unlock()
		return
	}
	if s := m.site; s != nil {
		s.holdNs.Add(nowNs() - m.heldSince)
	}
	m.mu.Unlock()
}

// TryMutex is the serial progress engine's lock shape: acquisition is only
// ever attempted, never blocked on — a loser leaves assuming someone else
// is progressing — so its contention metric is try-lock losses, not wait
// time. It is a Mutex that offers no blocking Lock; the zero value is usable
// unprofiled.
type TryMutex struct{ m Mutex }

// Bind attaches the site statistics. Call during setup only.
func (t *TryMutex) Bind(s *Site) { t.m.Bind(s) }

// BindVirtual makes both methods act on v, as Mutex.BindVirtual does.
func (t *TryMutex) BindVirtual(v VirtualLock) { t.m.BindVirtual(v) }

// TryLock attempts the lock, recording acquisition or loss on the site.
func (t *TryMutex) TryLock() bool { return t.m.TryLock() }

// Unlock releases the lock, accumulating hold time on the site.
func (t *TryMutex) Unlock() { t.m.Unlock() }

// Profiler is one process's registry of lock sites and thread clocks. A nil
// *Profiler is the disabled state: it hands out nil Sites and clocks, and
// Snapshot returns a zero value.
type Profiler struct {
	mu     sync.Mutex
	sites  []*Site
	clocks []*ThreadClock
}

// New returns an enabled profiler.
func New() *Profiler { return &Profiler{} }

// Enabled reports whether the profiler records anything.
func (p *Profiler) Enabled() bool { return p != nil }

// NewSite registers a lock site. cri is the owning instance index (-1 when
// the lock is not instance-scoped); comm the owning communicator id (0 when
// not communicator-scoped). Returns nil on a nil profiler, so binding is
// unconditional at call sites.
func (p *Profiler) NewSite(name string, cri int, comm uint32) *Site {
	if p == nil {
		return nil
	}
	s := &Site{name: name, cri: cri, comm: comm}
	p.mu.Lock()
	p.sites = append(p.sites, s)
	p.mu.Unlock()
	return s
}

// NewThreadClock registers a phase clock for one thread, started in
// PhaseApp at now's current instant. now supplies the clock's instants in
// nanoseconds — the virtual-time model passes its simulated thread's clock,
// the same seam flight.Recorder.SetClock offers; nil reads the wall clock.
// Returns nil on a nil profiler.
func (p *Profiler) NewThreadClock(label string, now func() int64) *ThreadClock {
	if p == nil {
		return nil
	}
	c := &ThreadClock{label: label, now: now}
	c.startNs = c.read()
	c.curSince = c.startNs
	p.mu.Lock()
	p.clocks = append(p.clocks, c)
	p.mu.Unlock()
	return c
}

// SiteSnapshot is an immutable copy of one site's statistics.
type SiteSnapshot struct {
	Name         string `json:"name"`
	CRI          int    `json:"cri"`
	Comm         uint32 `json:"comm,omitempty"`
	Acquisitions int64  `json:"acquisitions"`
	Contended    int64  `json:"contended"`
	TryFailures  int64  `json:"try_failures"`
	WaitNs       int64  `json:"wait_ns"`
	MaxWaitNs    int64  `json:"max_wait_ns"`
	HoldNs       int64  `json:"hold_ns"`
}

// ThreadSnapshot is an immutable copy of one thread clock: its wall time
// and the exclusive per-phase decomposition. Phases holds nanoseconds
// indexed by Phase.
type ThreadSnapshot struct {
	Label  string           `json:"label"`
	WallNs int64            `json:"wall_ns"`
	Phases [NumPhases]int64 `json:"-"`
	// PhaseNs mirrors Phases keyed by phase name for JSON consumers.
	PhaseNs map[string]int64 `json:"phase_ns"`
}

// UnmarshalJSON restores Phases from the phase_ns object, so a snapshot read
// back from JSON renders and merges like the one that was written.
func (t *ThreadSnapshot) UnmarshalJSON(b []byte) error {
	type plain ThreadSnapshot
	if err := json.Unmarshal(b, (*plain)(t)); err != nil {
		return err
	}
	for i := range t.Phases {
		t.Phases[i] = t.PhaseNs[Phase(i).String()]
	}
	return nil
}

// Snapshot is a point-in-time copy of every registered site and clock,
// deterministically ordered (sites by name/cri/comm, threads by label).
type Snapshot struct {
	Sites   []SiteSnapshot   `json:"sites"`
	Threads []ThreadSnapshot `json:"threads"`
}

// Empty reports whether the snapshot carries no data at all.
func (sn Snapshot) Empty() bool { return len(sn.Sites) == 0 && len(sn.Threads) == 0 }

// Snapshot copies the current state of every site and thread clock. Safe to
// call while threads are running: a running clock's wall time is "so far"
// and its open phase section is not yet flushed, so Σphases ≤ wall always
// holds.
func (p *Profiler) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	p.mu.Lock()
	sites := append([]*Site(nil), p.sites...)
	clocks := append([]*ThreadClock(nil), p.clocks...)
	p.mu.Unlock()
	var sn Snapshot
	for _, s := range sites {
		sn.Sites = append(sn.Sites, SiteSnapshot{
			Name:         s.name,
			CRI:          s.cri,
			Comm:         s.comm,
			Acquisitions: s.acquisitions.Load(),
			Contended:    s.contended.Load(),
			TryFailures:  s.tryFails.Load(),
			WaitNs:       s.waitNs.Load(),
			MaxWaitNs:    s.maxWaitNs.Load(),
			HoldNs:       s.holdNs.Load(),
		})
	}
	sort.Slice(sn.Sites, func(i, j int) bool {
		a, b := sn.Sites[i], sn.Sites[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.CRI != b.CRI {
			return a.CRI < b.CRI
		}
		return a.Comm < b.Comm
	})
	for _, c := range clocks {
		sn.Threads = append(sn.Threads, c.snapshot())
	}
	sort.Slice(sn.Threads, func(i, j int) bool { return sn.Threads[i].Label < sn.Threads[j].Label })
	return sn
}
