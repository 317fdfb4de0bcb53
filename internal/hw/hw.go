// Package hw models the hardware testbeds from the paper's Table I: per-core
// speed, core counts, NIC context limits, and link rates. The costs and link
// rates parameterize the virtual-time model (internal/simnet) so that the
// Haswell (Alembert, Trinitite) and KNL (Trinitite) experiments differ the
// way the paper's do — KNL has more cores and more NIC contexts, but each
// core is slower, and every per-message software cost grows accordingly.
// The runtime takes only the topology from a Machine (MaxContexts,
// DefaultContexts) and runs at the host's speed.
package hw

import (
	"fmt"
	"time"
)

// Machine describes one testbed node type.
type Machine struct {
	// Name identifies the testbed, e.g. "alembert-haswell".
	Name string
	// Cores is the number of physical cores available to one process.
	Cores int
	// SpeedFactor scales all per-operation CPU costs. 1.0 is the Haswell
	// baseline; KNL cores run the (serial) driver path roughly 2.2x slower.
	SpeedFactor float64
	// MaxContexts is the NIC's hardware limit on network contexts per
	// process (the Cray Aries-style limit discussed in Section III-B).
	// Zero means unlimited.
	MaxContexts int
	// DefaultContexts is how many contexts the transport creates when
	// auto-detecting (the ugni BTL creates one per available core).
	DefaultContexts int
	// LinkGbps is the interconnect signaling rate in gigabits per second.
	LinkGbps float64
	// MaxInjectionRate caps messages per second per NIC regardless of
	// size (hardware doorbell/packet-processing limit).
	MaxInjectionRate float64
	// Costs is the per-operation CPU cost model at SpeedFactor 1.0;
	// Scaled() applies the factor.
	Costs CostModel
}

// CostModel lists the CPU time the virtual-time model charges for each
// software operation on the message path, calibrated to a Haswell-class
// core. These are the costs the real driver stack pays for envelope
// processing, CQ manipulation, and matching-queue bookkeeping; they put the
// model's absolute message rates in the regime the paper reports (~0.1M-3M
// msg/s two-sided).
type CostModel struct {
	// SendInject: build the 28-byte envelope and ring the doorbell.
	SendInject time.Duration
	// RecvExtract: read one completion/envelope out of a CQ.
	RecvExtract time.Duration
	// CQPollEmpty: poll a CQ and find nothing.
	CQPollEmpty time.Duration
	// MatchBase: fixed cost of one matching attempt (lookup of the
	// per-peer sequence state plus queue head examination).
	MatchBase time.Duration
	// MatchPerElement: incremental cost per posted-receive-queue element
	// walked during the search.
	MatchPerElement time.Duration
	// RecvPost: build and initialize one receive request before it enters
	// the matching engine (outside the matching lock).
	RecvPost time.Duration
	// AllocSerialize: the per-message share of process-wide memory
	// management (allocator arenas, page faults, kernel VM) that threads
	// of one process serialize on but separate processes do not. This is
	// the residual bottleneck the paper observes but leaves unidentified
	// in Section IV-C ("suggesting other bottlenecks not yet identified"):
	// it caps thread-mode message rates well below process mode even when
	// instances, progress, and matching are all concurrent.
	AllocSerialize time.Duration
	// OOSBuffer: allocate and enqueue an out-of-sequence message.
	OOSBuffer time.Duration
	// RMAPut: initiator-side cost of one put descriptor.
	RMAPut time.Duration
	// RMAGet: initiator-side cost of one get descriptor.
	RMAGet time.Duration
	// RMAFlushPerInstance: cost to sweep one instance during a flush.
	RMAFlushPerInstance time.Duration
}

// scale multiplies every cost by f.
func (c CostModel) scale(f float64) CostModel {
	s := func(d time.Duration) time.Duration { return time.Duration(float64(d) * f) }
	return CostModel{
		SendInject:          s(c.SendInject),
		RecvExtract:         s(c.RecvExtract),
		CQPollEmpty:         s(c.CQPollEmpty),
		MatchBase:           s(c.MatchBase),
		MatchPerElement:     s(c.MatchPerElement),
		RecvPost:            s(c.RecvPost),
		AllocSerialize:      s(c.AllocSerialize),
		OOSBuffer:           s(c.OOSBuffer),
		RMAPut:              s(c.RMAPut),
		RMAGet:              s(c.RMAGet),
		RMAFlushPerInstance: s(c.RMAFlushPerInstance),
	}
}

// Scaled returns the machine's cost model with its speed factor applied.
func (m Machine) Scaled() CostModel { return m.Costs.scale(m.SpeedFactor) }

// ByteNanos returns the wire serialization time per byte in nanoseconds.
func (m Machine) ByteNanos() float64 {
	if m.LinkGbps <= 0 {
		return 0
	}
	return 8 / m.LinkGbps // ns per byte at LinkGbps
}

// PeakMessageRate returns the theoretical peak message rate (msg/s) for a
// given payload size — the black horizontal line in Figures 6 and 7. It is
// the minimum of the NIC injection-rate cap and the link bandwidth divided
// by the on-wire message footprint (payload + envelope).
func (m Machine) PeakMessageRate(payloadBytes int) float64 {
	wire := float64(payloadBytes) + 28 // envelope footprint
	bw := m.LinkGbps * 1e9 / 8         // bytes/s
	rate := bw / wire
	if m.MaxInjectionRate > 0 && rate > m.MaxInjectionRate {
		rate = m.MaxInjectionRate
	}
	return rate
}

func (m Machine) String() string {
	return fmt.Sprintf("%s (%d cores, x%.2f speed, %g Gbps, %d contexts)",
		m.Name, m.Cores, m.SpeedFactor, m.LinkGbps, m.DefaultContexts)
}

// baselineCosts is the Haswell-calibrated cost model shared by the testbeds.
var baselineCosts = CostModel{
	SendInject:          350 * time.Nanosecond,
	RecvExtract:         300 * time.Nanosecond,
	CQPollEmpty:         60 * time.Nanosecond,
	MatchBase:           120 * time.Nanosecond,
	MatchPerElement:     8 * time.Nanosecond,
	RecvPost:            250 * time.Nanosecond,
	AllocSerialize:      220 * time.Nanosecond,
	OOSBuffer:           250 * time.Nanosecond,
	RMAPut:              220 * time.Nanosecond,
	RMAGet:              240 * time.Nanosecond,
	RMAFlushPerInstance: 80 * time.Nanosecond,
}

// AlembertHaswell models the University of Tennessee Alembert nodes:
// dual 10-core Haswell Xeon E5-2650v3, InfiniBand EDR 100 Gbps.
func AlembertHaswell() Machine {
	return Machine{
		Name:             "alembert-haswell",
		Cores:            20,
		SpeedFactor:      1.0,
		MaxContexts:      0, // InfiniBand: effectively unlimited contexts
		DefaultContexts:  20,
		LinkGbps:         100,
		MaxInjectionRate: 13e6, // EDR ConnectX-4-class per-port MPI message rate
		Costs:            baselineCosts,
	}
}

// TrinititeHaswell models LANL Trinitite Haswell nodes: dual 16-core Xeon
// E5-2698v3, Cray Aries 100 Gbps. Aries limits hardware contexts; the ugni
// BTL auto-creates one instance per available core (32).
func TrinititeHaswell() Machine {
	return Machine{
		Name:             "trinitite-haswell",
		Cores:            32,
		SpeedFactor:      1.0,
		MaxContexts:      120,
		DefaultContexts:  32,
		LinkGbps:         100,
		MaxInjectionRate: 30e6,
		Costs:            baselineCosts,
	}
}

// TrinititeKNL models LANL Trinitite Knights Landing nodes: 68-core KNL
// (the benchmark uses up to 64 threads), Cray Aries. The ugni BTL detects
// 72 hardware threads/contexts; each KNL core runs the serial driver path
// roughly 2.2x slower than Haswell.
func TrinititeKNL() Machine {
	return Machine{
		Name:             "trinitite-knl",
		Cores:            64,
		SpeedFactor:      2.2,
		MaxContexts:      128,
		DefaultContexts:  72,
		LinkGbps:         100,
		MaxInjectionRate: 30e6,
		Costs:            baselineCosts,
	}
}

// MachineByName resolves a testbed from the short name the command-line
// tools take (alembert | trinitite | knl | fast) or from its Machine.Name.
func MachineByName(name string) (Machine, error) {
	switch name {
	case "alembert", "alembert-haswell":
		return AlembertHaswell(), nil
	case "trinitite", "trinitite-haswell":
		return TrinititeHaswell(), nil
	case "knl", "trinitite-knl":
		return TrinititeKNL(), nil
	case "fast":
		return Fast(), nil
	default:
		return Machine{}, fmt.Errorf("unknown machine %q", name)
	}
}

// Fast returns a machine with all CPU costs zeroed and no injection cap:
// the model then charges only its lock and wire mechanics. On the runtime
// it differs from the testbeds only in its context limits.
func Fast() Machine {
	return Machine{
		Name:            "fast",
		Cores:           16,
		SpeedFactor:     1.0,
		DefaultContexts: 16,
		LinkGbps:        0,
	}
}
