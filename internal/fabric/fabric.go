// Package fabric is the in-process backend of the transport seam
// (internal/transport) and the default when no other is chosen: an
// RDMA-capable network held in shared memory. It implements the seam's five
// types directly, each once — Network (the cluster: one Device per world
// rank), Device (one rank's NIC: contexts, registered memory, the
// connection table), Context (one injection path with its receive ring and
// completion queue — what a CRI wraps), Endpoint (a send path that finds its
// peer context on first use) and MemRegion (the target of one-sided
// operations). The wire contracts (Envelope, Packet, CQE, Kind) are
// transport's; nothing here renames them.
//
// The fabric is synchronous: the injecting goroutine itself executes
// delivery and runs at the host's speed. The paper's hardware costs (see
// internal/hw) are charged only by the virtual-time model (internal/simnet);
// a machine gives the fabric its context limit and nothing else. All
// serialization effects the paper studies — endpoint locks, progress
// serialization, matching locks — live *above* the fabric; the fabric
// supplies real concurrent queues for them to contend on. NewNetwork builds
// a clean wire that never drops, duplicates or reorders, and advertises
// Lossless. NewFaultyNetwork builds one with the adversaries the layers above
// are tested against — a seeded scrambler and a drop/dup/delay injector —
// and advertises !Lossless even when every probability is zero, so the
// runtime runs its reliability layer over it.
//
// Only internal/backends imports this package; everything else reaches it
// through the interfaces (make lint-layers).
package fabric

import (
	"fmt"
	"sync"

	"repro/internal/hw"
	"repro/internal/transport"
)

var (
	_ transport.Network   = (*Network)(nil)
	_ transport.Device    = (*Device)(nil)
	_ transport.Context   = (*Context)(nil)
	_ transport.OneSided  = (*Context)(nil)
	_ transport.Endpoint  = (*Endpoint)(nil)
	_ transport.MemRegion = (*MemRegion)(nil)
)

// Network is an in-process cluster of devices, one per world rank, wired
// through shared memory. It serves one world: a rank's device is created
// once.
type Network struct {
	mu   sync.Mutex
	devs map[int]*Device
	// faults is the adversary every device is built with, or nil on a clean
	// wire.
	faults *transport.FaultConfig
}

// NewNetwork creates an empty clean cluster.
func NewNetwork() *Network {
	return &Network{devs: make(map[int]*Device)}
}

// NewFaultyNetwork creates an empty cluster whose wire is the adversary
// fc describes.
func NewFaultyNetwork(fc transport.FaultConfig) *Network {
	n := NewNetwork()
	n.faults = &fc
	return n
}

// Caps describes the fabric: lossless unless it was built with an
// adversary. Its contexts are one-sided (transport.OneSided) either way.
func (n *Network) Caps() transport.Caps {
	return transport.Caps{Name: "sim", Lossless: n.faults == nil}
}

// NewDevice creates the device for world rank r, with the network's
// scrambler and injector when it has an adversary.
func (n *Network) NewDevice(rank int, m hw.Machine, cfg transport.DeviceConfig) (transport.Device, error) {
	d := &Device{
		net:         n,
		counters:    cfg.Counters,
		maxContexts: m.MaxContexts,
		unsignaled:  cfg.Unsignaled,
		regions:     make(map[uint64]*MemRegion),
		connected:   make(map[int]bool),
	}
	if n.faults != nil {
		// Rank is mixed into the seed so devices draw decorrelated streams.
		fc := n.faults.WithDefaults()
		fc.Seed += int64(rank)
		d.faults = newFaultInjector(fc, cfg.Counters)
		if fc.ScrambleWindow > 0 {
			d.scrambler = newScrambler(fc.Seed, fc.ScrambleWindow)
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.devs[rank]; dup {
		return nil, fmt.Errorf("fabric: device for rank %d already exists", rank)
	}
	n.devs[rank] = d
	return d, nil
}

// device returns the registered device for a rank, or nil.
func (n *Network) device(rank int) *Device {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.devs[rank]
}
