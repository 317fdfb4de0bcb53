// Package sim is a deterministic discrete-event simulation (DES) executive
// with virtual time. Simulated threads are goroutines that the executive
// resumes one at a time, always the one with the smallest virtual clock, so
// every interaction with shared state happens in global virtual-time order
// and runs are exactly reproducible — independent of host core count.
//
// The paper's figures are regenerated on this engine (see internal/simnet):
// the reproduction host has two cores (EXPERIMENTS.md, "Reproducing"), so
// wall-clock measurement cannot exhibit scaling to 20 or 64 threads; virtual
// time can, and the lock queueing + contention model below supplies the
// physics.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Proc is one simulated thread of execution.
type Proc struct {
	env  *Env
	name string
	id   int
	now  int64 // virtual time, ns

	resume chan struct{}
	done   bool
	// blocked marks a proc parked on a lock/condition; it is not in the
	// event heap and will be rescheduled by whoever unblocks it.
	blocked bool
}

// Now returns the process's virtual clock in nanoseconds.
func (p *Proc) Now() int64 { return p.now }

// Advance adds d of busy work to the process's clock. Purely local: the
// effect on shared state is ordered at the next shared operation.
func (p *Proc) Advance(d time.Duration) {
	if d > 0 {
		p.now += int64(d)
	}
}

// Yield re-enters the executive at the current clock, allowing any process
// with an earlier clock to run first. Every shared-state touch point in
// simulated code must Yield first (the lock and queue types here do so
// internally).
func (p *Proc) Yield() {
	p.env.schedule(p, p.now)
	p.park()
}

// park hands control to the executive and waits to be resumed.
func (p *Proc) park() {
	p.env.yieldCh <- p
	<-p.resume
}

// block parks without self-scheduling; some other process must call
// env.unblock(p, atTime).
func (p *Proc) block() {
	p.blocked = true
	p.park()
}

// event is one heap entry.
type event struct {
	at  int64
	seq uint64
	p   *Proc
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Env is the simulation environment. Create with NewEnv, spawn processes
// with Go, then Run. Not safe for use from multiple host goroutines except
// through the executive's own handoff protocol.
type Env struct {
	heap    eventHeap
	seq     uint64
	yieldCh chan *Proc
	procs   []*Proc
	nextID  int
	maxNow  int64
	running bool
	// cur is the proc Run last resumed: while it runs, the one executing.
	cur *Proc
}

// Current returns the simulated thread the executive last resumed — during
// Run, the one calling — or nil before Run resumes any. It lets code that
// cannot be handed a *Proc, such as a lock reached through an interface,
// act for its caller.
func (e *Env) Current() *Proc { return e.cur }

// NewEnv creates an empty simulation.
func NewEnv() *Env {
	return &Env{yieldCh: make(chan *Proc)}
}

// Go spawns a simulated process starting at virtual time start (use 0, or a
// parent's Now() when spawning mid-run).
func (e *Env) Go(name string, start int64, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name, id: e.nextID, now: start, resume: make(chan struct{})}
	e.nextID++
	e.procs = append(e.procs, p)
	go func() {
		<-p.resume
		fn(p)
		p.done = true
		e.yieldCh <- p
	}()
	e.schedule(p, start)
	return p
}

func (e *Env) schedule(p *Proc, at int64) {
	if at < p.now {
		at = p.now
	}
	e.seq++
	heap.Push(&e.heap, event{at: at, seq: e.seq, p: p})
}

// unblock reschedules a parked process at time at (>= its clock).
func (e *Env) unblock(p *Proc, at int64) {
	if !p.blocked {
		panic("sim: unblock of a non-blocked proc " + p.name)
	}
	p.blocked = false
	if at > p.now {
		p.now = at
	}
	e.schedule(p, p.now)
}

// Run executes the simulation until every process finishes, returning the
// final virtual time (the makespan). It panics on deadlock — all remaining
// processes blocked with an empty event heap.
func (e *Env) Run() time.Duration {
	if e.running {
		panic("sim: Run reentered")
	}
	e.running = true
	defer func() { e.running = false }()
	for {
		if e.heap.Len() == 0 {
			for _, p := range e.procs {
				if !p.done {
					panic(fmt.Sprintf("sim: deadlock — process %q blocked with no runnable events", p.name))
				}
			}
			return time.Duration(e.maxNow)
		}
		ev := heap.Pop(&e.heap).(event)
		p := ev.p
		if p.done {
			continue
		}
		if ev.at > p.now {
			p.now = ev.at
		}
		e.cur = p
		p.resume <- struct{}{}
		q := <-e.yieldCh
		if q.now > e.maxNow {
			e.maxNow = q.now
		}
	}
}
