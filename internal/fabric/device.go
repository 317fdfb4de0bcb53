package fabric

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/spc"
	"repro/internal/transport"
)

// errContextLimit is returned by CreateContext when the device's hardware
// context limit (the Cray Aries-style constraint from Section III-B) is
// exhausted.
var errContextLimit = errors.New("fabric: hardware network context limit reached")

// Device is one rank's NIC. It owns the set of network contexts, the
// registered memory regions remote peers address with one-sided operations,
// and the table of peers its endpoints have reached.
type Device struct {
	net         *Network
	counters    *spc.Set // nil-safe
	maxContexts int
	unsignaled  bool // two-sided operations post no completion

	scrambler *scrambler     // adversarial reordering of inbound packets, or nil
	faults    *faultInjector // wire faults on outbound packets, or nil

	mu       sync.Mutex
	contexts []*Context
	closed   bool

	// regMu guards the region table, the unused rest of the region slab
	// regions are carved from, and each region's buf.
	regMu   sync.RWMutex
	regions map[uint64]*MemRegion
	regSlab []MemRegion
	nextReg uint64

	// connMu guards connected, the peers some endpoint of this device has
	// already resolved — the ConnsOpened/ConnsReused accounting that mirrors
	// the real backends' physical-connection counters.
	connMu    sync.Mutex
	connected map[int]bool
}

// CreateContext allocates a new network context with the given queue depth
// (rounded up to a power of two; depth <= 0 selects the default 4096).
// It fails with errContextLimit when the hardware limit is reached.
func (d *Device) CreateContext(depth int) (transport.Context, error) {
	if depth <= 0 {
		depth = 4096
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, errors.New("fabric: device closed")
	}
	if d.maxContexts > 0 && len(d.contexts) >= d.maxContexts {
		return nil, errContextLimit
	}
	ctx := newContext(d, depth)
	d.contexts = append(d.contexts, ctx)
	return ctx, nil
}

// context returns context i, or nil if out of range.
func (d *Device) context(i int) *Context {
	d.mu.Lock()
	defer d.mu.Unlock()
	if i < 0 || i >= len(d.contexts) {
		return nil
	}
	return d.contexts[i]
}

// Connect returns an endpoint from local toward context remoteIdx of rank
// peer. Nothing resolves here, so world construction never assumes a
// pre-wired full mesh — the in-process mirror of dial-on-first-send: the
// first Send looks the peer's context up.
func (d *Device) Connect(local transport.Context, peer int, remoteIdx int) (transport.Endpoint, error) {
	lc, ok := local.(*Context)
	if !ok || lc == nil || lc.dev != d {
		return nil, fmt.Errorf("fabric: Connect local context is not a context of this device")
	}
	return &Endpoint{local: lc, peer: peer, remoteIdx: remoteIdx}, nil
}

// noteEstablish records one endpoint resolution toward peer: the first per
// peer mirrors opening a physical connection, later ones reuse it. The
// totals are deterministic (distinct peers vs. endpoints) even though the
// resolution order is scheduler-dependent.
func (d *Device) noteEstablish(peer int) {
	d.connMu.Lock()
	defer d.connMu.Unlock()
	if !d.connected[peer] {
		d.connected[peer] = true
		d.counters.Inc(spc.ConnsOpened)
	} else {
		d.counters.Inc(spc.ConnsReused)
	}
}

// Close marks the device closed. Outstanding contexts remain readable so
// in-flight progress loops can drain.
func (d *Device) Close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
}
