package fabric

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/hw"
	"repro/internal/spc"
	"repro/internal/transport"
)

var (
	_ transport.Network   = (*Network)(nil)
	_ transport.Device    = (*tdev)(nil)
	_ transport.Context   = (*Context)(nil)
	_ transport.Endpoint  = (*Endpoint)(nil)
	_ transport.MemRegion = (*MemRegion)(nil)
)

// Network is the simulated backend's implementation of transport.Network:
// an in-process cluster of devices, one per world rank, wired through shared
// memory. It is the default backend the runtime falls back to when no other
// is configured.
type Network struct {
	mu   sync.Mutex
	devs map[int]*tdev
}

// NewNetwork creates an empty simulated cluster.
func NewNetwork() *Network {
	return &Network{devs: make(map[int]*tdev)}
}

// Caps describes the simulated fabric: a faulty, one-sided-capable wire
// that mirrors the multiplexed backends' lazy-establishment semantics (all
// of a peer pair's contexts share one logical connection, resolved on first
// send) so the same world-construction path exercises both engines.
func (n *Network) Caps() transport.Caps {
	return transport.Caps{Name: "sim", OneSided: true, FaultInjection: true, Multiplexed: true}
}

// NewDevice creates the device for world rank r, honoring the scramble and
// fault settings in cfg (this backend advertises FaultInjection).
func (n *Network) NewDevice(rank int, m hw.Machine, cfg transport.DeviceConfig) (transport.Device, error) {
	d := NewDevice(m)
	if cfg.ScrambleWindow > 0 {
		seed := cfg.ScrambleSeed
		if seed == 0 {
			seed = 1
		}
		d.SetScrambler(NewScrambler(seed, cfg.ScrambleWindow))
	}
	if cfg.Faults.Enabled() {
		d.SetFaultInjector(NewFaultInjector(cfg.Faults, cfg.Counters))
	}
	t := &tdev{d: d, net: n, rank: rank, counters: cfg.Counters}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.devs[rank]; dup {
		return nil, fmt.Errorf("fabric: device for rank %d already exists", rank)
	}
	n.devs[rank] = t
	return t, nil
}

// device returns the registered device for a rank, or nil.
func (n *Network) device(rank int) *tdev {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.devs[rank]
}

// tdev adapts *Device to transport.Device. The concrete methods return
// concrete types (CreateContext, RegisterMemory, Region), so a thin wrapper
// re-exposes them with interface signatures and resolves peer devices
// through the owning Network for Connect.
type tdev struct {
	d        *Device
	net      *Network
	rank     int
	counters *spc.Set

	// connMu guards connected, the peers whose first lazy endpoint
	// resolution already happened — the ConnsOpened/ConnsReused accounting
	// that mirrors the real backends' physical-connection counters.
	connMu    sync.Mutex
	connected map[int]bool
}

// noteEstablish records one lazy endpoint resolution toward peer: the first
// per peer mirrors opening a physical connection, later ones reuse it. The
// totals are deterministic (distinct peers vs. endpoints) even though the
// resolution order is scheduler-dependent.
func (t *tdev) noteEstablish(peer int) {
	t.connMu.Lock()
	defer t.connMu.Unlock()
	if t.connected == nil {
		t.connected = make(map[int]bool)
	}
	if !t.connected[peer] {
		t.connected[peer] = true
		t.counters.Inc(spc.ConnsOpened)
	} else {
		t.counters.Inc(spc.ConnsReused)
	}
}

// Underlying returns the wrapped simulated device (backend-specific tests
// and the simnet harness reach fabric features through it).
func (t *tdev) Underlying() *Device { return t.d }

func (t *tdev) Machine() hw.Machine { return t.d.Machine() }

func (t *tdev) Caps() transport.Caps { return t.net.Caps() }

func (t *tdev) CreateContext(depth int) (transport.Context, error) {
	c, err := t.d.CreateContext(depth)
	if err != nil {
		// Return an untyped nil: a nil *Context boxed in the interface
		// would compare non-nil to callers.
		return nil, err
	}
	return c, nil
}

// Connect returns a lazily connectable endpoint toward context remoteIdx of
// rank peer, mirroring the multiplexed backends: nothing resolves here —
// the first Send looks the peer's context up and binds the concrete
// endpoint, counting ConnsOpened (first peer resolution on this device) or
// ConnsReused (another endpoint onto an established pair).
func (t *tdev) Connect(local transport.Context, peer int, remoteIdx int) (transport.Endpoint, error) {
	lc, ok := local.(*Context)
	if !ok || lc == nil {
		return nil, fmt.Errorf("fabric: Connect local context is not a fabric context")
	}
	return &lazyEndpoint{t: t, local: lc, peer: peer, remoteIdx: remoteIdx}, nil
}

// lazyEndpoint defers the peer context lookup to first use, so world
// construction never assumes a pre-wired full mesh — the simulated mirror
// of dial-on-first-send. Resolution is idempotent and cached; a failed
// resolution (peer device or context missing) surfaces as ErrConnEstablish
// from the send that triggered it.
type lazyEndpoint struct {
	t         *tdev
	local     *Context
	peer      int
	remoteIdx int

	// ep is written once, under mu, by the send that resolves the peer; every
	// later send reads it with one atomic load.
	mu sync.Mutex
	ep atomic.Pointer[Endpoint]
}

func (e *lazyEndpoint) resolve() (*Endpoint, error) {
	if ep := e.ep.Load(); ep != nil {
		return ep, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if ep := e.ep.Load(); ep != nil {
		return ep, nil
	}
	pd := e.t.net.device(e.peer)
	if pd == nil {
		return nil, fmt.Errorf("%w: rank %d has no device", transport.ErrConnEstablish, e.peer)
	}
	rc := pd.d.Context(e.remoteIdx)
	if rc == nil {
		return nil, fmt.Errorf("%w: rank %d has no context %d", transport.ErrConnEstablish, e.peer, e.remoteIdx)
	}
	ep := NewEndpoint(e.local, rc)
	e.t.noteEstablish(e.peer)
	e.ep.Store(ep)
	return ep, nil
}

func (e *lazyEndpoint) Send(p *transport.Packet) error {
	ep, err := e.resolve()
	if err != nil {
		return err
	}
	return ep.Send(p)
}

func (e *lazyEndpoint) Resend(p *transport.Packet) error {
	ep, err := e.resolve()
	if err != nil {
		return err
	}
	return ep.Resend(p)
}

func (e *lazyEndpoint) PutRegion(regionID uint64, offset int, src []byte, token any) error {
	ep, err := e.resolve()
	if err != nil {
		return err
	}
	return ep.PutRegion(regionID, offset, src, token)
}

func (t *tdev) RegisterMemory(buf []byte) transport.MemRegion {
	return t.d.RegisterMemory(buf)
}

func (t *tdev) DeregisterMemory(r transport.MemRegion) {
	if rr, ok := r.(*MemRegion); ok {
		t.d.DeregisterMemory(rr)
	}
}

func (t *tdev) Region(id uint64) (transport.MemRegion, bool) {
	r, ok := t.d.Region(id)
	if !ok {
		return nil, false
	}
	return r, true
}

func (t *tdev) Close() { t.d.Close() }
