package fabric

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hw"
	"repro/internal/ringbuf"
	"repro/internal/spc"
	"repro/internal/transport"
)

// Context is one network context: an independent injection path into the
// NIC with its own receive queue and completion queue. A Communication
// Resource Instance (CRI) wraps exactly one Context. Contexts are the unit
// of hardware parallelism — two threads on two different contexts do not
// share any fabric-level state except the device-wide rate limiter.
//
// Thread safety: Inject and the RMA initiators may be called concurrently
// (the receive queue and CQ are multi-producer). Poll must be called by one
// goroutine at a time; the layers above guarantee this with the per-CRI
// lock the paper describes.
type Context struct {
	dev   *Device
	index int

	recvQ *ringbuf.MPSC[*transport.Packet] // packets from remote senders
	cq    *ringbuf.MPSC[transport.CQE]     // local completions (send/put/get)

	// delayed holds fault-injector-delayed packets until their release
	// time; hasDelayed makes the empty check a single atomic load on the
	// poll hot path.
	delayMu    sync.Mutex
	delayed    []delayedPacket
	hasDelayed atomic.Bool

	// rx is the batch Poll pops the receive queue into; only the poller
	// touches it, so it starts a cache line past everything senders read.
	_  [64]byte
	rx [64]*transport.Packet
}

// delayedPacket is one held-back packet with its release time.
type delayedPacket struct {
	due time.Time
	pkt *transport.Packet
}

func newContext(d *Device, index, depth int) *Context {
	return &Context{
		dev:   d,
		index: index,
		recvQ: ringbuf.NewMPSC[*transport.Packet](depth),
		cq:    ringbuf.NewMPSC[transport.CQE](depth),
	}
}

// Index returns the context's index within its device.
func (c *Context) Index() int { return c.index }

// deliver enqueues an inbound packet, blocking (with yields) on a full
// queue — hardware back-pressure. The remote sender's goroutine runs this.
func (c *Context) deliver(p *transport.Packet) {
	if s := c.dev.scrambler; s != nil {
		for _, q := range s.scramble(p) {
			c.deliverDirect(q)
		}
		return
	}
	c.deliverDirect(p)
}

func (c *Context) deliverDirect(p *transport.Packet) {
	if m := p.Meta; m != nil && m.TraceID != 0 && m.ArriveNs == 0 {
		// Transport-arrival stamp for the critical-path attribution layer:
		// the gap to the matching-engine delivery stamp is the receive-side
		// progress lag (deliver_wait stage). Write-once: duplicates and
		// retransmits re-deliver the same *Packet, which must stay read-only
		// once the first delivery published the pointer to the receiver.
		m.ArriveNs = time.Now().UnixNano()
	}
	if !c.recvQ.Push(p) {
		// A delivery that found the receive ring full: counted once on the
		// ring's device — not once per spin — it yields until there is room.
		// The receiver's own progress drains the ring, so the sender may
		// wait here.
		c.dev.counters.Inc(spc.RingFullWaits)
		for !c.recvQ.Push(p) {
			runtime.Gosched()
		}
	}
}

// deliverDelayed holds p back until the delay elapses; the packet is
// released into the receive queue by a later Poll on this context.
func (c *Context) deliverDelayed(p *transport.Packet, d time.Duration) {
	c.delayMu.Lock()
	c.delayed = append(c.delayed, delayedPacket{due: time.Now().Add(d), pkt: p})
	c.hasDelayed.Store(true)
	c.delayMu.Unlock()
}

// releaseDue moves every delayed packet whose hold time has elapsed into the
// receive queue.
func (c *Context) releaseDue() {
	now := time.Now()
	var due []*transport.Packet
	c.delayMu.Lock()
	kept := c.delayed[:0]
	for _, dp := range c.delayed {
		if dp.due.After(now) {
			kept = append(kept, dp)
		} else {
			due = append(due, dp.pkt)
		}
	}
	c.delayed = kept
	c.hasDelayed.Store(len(kept) > 0)
	c.delayMu.Unlock()
	for _, p := range due {
		c.deliver(p)
	}
}

// claim posts an operation's local completion before the operation does
// anything, in one push attempt. A full CQ refuses the operation with
// transport.ErrCQFull (counted as a ring-full wait on the device): only a
// Poll of this context drains it, and the caller may hold the one lock that
// lets a thread poll it, so waiting here could wait forever. Posting first is
// what makes the refusal clean — nothing was injected, so a retry cannot
// inject twice — and nobody reaps the completion early: the matched paths
// hold the instance lock every Poll of this context takes, and control
// traffic's completions carry no token.
func (c *Context) claim(e transport.CQE) error {
	if c.cq.Push(e) {
		return nil
	}
	c.dev.counters.Inc(spc.RingFullWaits)
	return transport.ErrCQFull
}

// Poll extracts up to max completion events, invoking handler for each, and
// returns the number handled. Inbound packets are surfaced as CQERecv
// events. Each extraction charges the receive-side CPU cost; an empty poll
// charges the empty-poll cost — exactly the per-call economics of reading a
// real CQ.
func (c *Context) Poll(handler func(transport.CQE), max int) int {
	if max <= 0 {
		max = 64
	}
	if c.hasDelayed.Load() {
		c.releaseDue()
	}
	costs := &c.dev.costs
	n := 0
	for n < max {
		e, ok := c.cq.Pop()
		if !ok {
			break
		}
		hw.Spin(costs.RecvExtract)
		handler(e)
		n++
	}
	n = c.popRecv(handler, n, max)
	if n == 0 {
		if s := c.dev.scrambler; s != nil {
			// An idle poll flushes any adversarially held packets so a
			// scrambled stream can never strand its tail.
			for _, p := range s.flush() {
				c.deliverDirect(p)
			}
			n = c.popRecv(handler, n, max)
		}
		if n == 0 {
			hw.Spin(costs.CQPollEmpty)
		}
	}
	return n
}

// popRecv hands inbound packets to handler until n events are handled in
// all or the receive queue is empty, and returns the new n. It pops a batch
// at a time (ringbuf.MPSC.PopBatch), which publishes the queue head once per
// batch rather than once per packet.
func (c *Context) popRecv(handler func(transport.CQE), n, max int) int {
	costs := &c.dev.costs
	for n < max {
		want := min(len(c.rx), max-n)
		k := c.recvQ.PopBatch(c.rx[:want])
		for _, p := range c.rx[:k] {
			hw.Spin(costs.RecvExtract)
			handler(transport.CQE{Kind: transport.CQERecv, Packet: p})
		}
		clear(c.rx[:k])
		n += k
		if k < want {
			break
		}
	}
	return n
}

// Pending reports whether any completions or inbound packets are queued
// (including fault-delayed packets not yet released).
func (c *Context) Pending() bool {
	return c.cq.Len() > 0 || c.recvQ.Len() > 0 || c.hasDelayed.Load()
}

// Endpoint is a send path from a local context to context remoteIdx of rank
// peer. It is the object the per-CRI lock protects in the send path; the
// fabric itself performs no locking on injection, mirroring real endpoints
// whose thread safety is the MPI library's problem.
//
// The peer context is looked up by the first operation that needs it —
// counted as ConnsOpened (first resolution toward that peer on this device)
// or ConnsReused (another endpoint onto an established pair) — and cached:
// every later operation reads it with one atomic load. A peer device or
// context that does not exist fails the operation that asked with
// ErrConnEstablish, and the next one looks again.
type Endpoint struct {
	local     *Context
	peer      int
	remoteIdx int

	mu     sync.Mutex // serializes the first resolution
	remote atomic.Pointer[Context]
}

func (e *Endpoint) resolve() (*Context, error) {
	if rc := e.remote.Load(); rc != nil {
		return rc, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if rc := e.remote.Load(); rc != nil {
		return rc, nil
	}
	d := e.local.dev
	pd := d.net.device(e.peer)
	if pd == nil {
		return nil, fmt.Errorf("%w: rank %d has no device", transport.ErrConnEstablish, e.peer)
	}
	rc := pd.context(e.remoteIdx)
	if rc == nil {
		return nil, fmt.Errorf("%w: rank %d has no context %d", transport.ErrConnEstablish, e.peer, e.remoteIdx)
	}
	d.noteEstablish(e.peer)
	e.remote.Store(rc)
	return rc, nil
}

// inject puts p on the wire toward rc: charges the injection CPU cost,
// reserves wire time (header + payload) on the local device's rate limiter
// and delivers to the remote context's receive queue, through the fault
// injector if the device has one.
func (e *Endpoint) inject(rc *Context, p *transport.Packet) {
	d := e.local.dev
	hw.Spin(d.costs.SendInject)
	d.limiter.reserve(headerSize(p) + len(p.Payload))
	if f := d.faults; f != nil {
		f.inject(rc, p)
	} else {
		rc.deliver(p)
	}
}

// Send injects a two-sided packet and posts a send-completion CQE to the
// local context; a full CQ refuses it with transport.ErrCQFull (see claim).
func (e *Endpoint) Send(p *transport.Packet) error {
	rc, err := e.resolve()
	if err != nil {
		return err
	}
	if err := e.local.claim(transport.CQE{Kind: transport.CQESendComplete, Packet: p}); err != nil {
		return err
	}
	e.inject(rc, p)
	return nil
}

// Resend re-injects a packet without posting a new send-completion CQE —
// the retransmission path of the delivery-reliability layer, which already
// holds local completion state for the packet. The retransmitted copy faces
// the wire faults again.
func (e *Endpoint) Resend(p *transport.Packet) error {
	rc, err := e.resolve()
	if err != nil {
		return err
	}
	e.inject(rc, p)
	return nil
}

// headerSize is the per-packet wire-header footprint the rate limiter
// charges: the canonical envelope, plus the trace-context extension when
// the packet carries one — the simulated wire mirrors the real framing's
// conditional cost byte for byte.
func headerSize(p *transport.Packet) int {
	if p.TraceID() != 0 {
		return transport.EnvelopeSize + transport.TraceExtSize
	}
	return transport.EnvelopeSize
}

// PutNotify writes src into the remote device's registered region — an RDMA
// write addressed by region id, routed through the endpoint so callers need
// no handle on the peer's device — and then sends p, whose send completion
// is the call's one CQE. An empty src moves nothing and p goes alone.
func (e *Endpoint) PutNotify(regionID uint64, src []byte, p *transport.Packet) error {
	rc, err := e.resolve()
	if err != nil {
		return err
	}
	var dst []byte
	if len(src) > 0 {
		buf, ok := rc.dev.regionBytes(regionID)
		if !ok {
			return transport.ErrRegionUnavailable
		}
		if len(src) > len(buf) {
			return &boundsError{Op: "put", Len: len(src), Size: len(buf)}
		}
		dst = buf
	}
	if err := e.local.claim(transport.CQE{Kind: transport.CQESendComplete, Packet: p}); err != nil {
		return err
	}
	if dst != nil {
		e.local.write(dst, src)
	}
	e.inject(rc, p)
	return nil
}
