package transport

import (
	"errors"
	"time"

	"repro/internal/hw"
	"repro/internal/spc"
)

// ErrRegionUnavailable reports a one-sided operation addressing a region
// the target has deregistered (or never registered).
var ErrRegionUnavailable = errors.New("transport: remote memory region unavailable")

// ErrNoEndpoint reports a send toward a peer for which no endpoint was
// wired — on a real network the analog of an unreachable address.
var ErrNoEndpoint = errors.New("transport: no endpoint to peer")

// ErrConnEstablish reports that lazy connection establishment failed on
// first use of an endpoint: the dial (or the deferred resolution of a
// simulated peer) could not produce a usable physical connection. The send
// that triggered establishment was not injected.
var ErrConnEstablish = errors.New("transport: connection establishment failed")

// ErrCQFull reports a signaled put (OneSided.Put with a token) refused
// because the local context's completion queue had no room for its
// completion (libfabric's FI_EAGAIN): nothing was injected and no completion
// was posted. Only a Poll of that context makes room, and the layers above
// poll a context only under its instance's lock, so the caller — holding
// that lock — polls the context itself and then retries. Every other
// initiator, and the two-sided Endpoint operations of an Unsignaled device,
// post no completion and never return it.
var ErrCQFull = errors.New("transport: completion queue full")

// Caps describes what a backend can do. The runtime consults it at world
// construction: the ack/retransmit delivery layer runs exactly when the
// backend is not lossless, and the eager send path reuses one packet per
// thread exactly when the backend copies. Whether a backend has one-sided
// operations is not a flag but a type: its contexts implement OneSided. A
// backend's adversary (the faulty fabric's scrambler and injector) is built
// into the Network, not requested through the runtime.
type Caps struct {
	// Name identifies the backend ("sim", "tcp", ...).
	Name string
	// Lossless means delivery is reliable and per-endpoint FIFO (a TCP
	// stream, the clean in-process fabric): the delivery-reliability layer's
	// retransmit bookkeeping is unnecessary and is skipped. A wire that may
	// drop, duplicate or reorder leaves it false.
	Lossless bool
	// Copies means Endpoint.Send and PutNotify are done with the packet and
	// its payload when they return (tcpnet encodes both into its wire
	// buffer), so the caller may overwrite them at once. The in-process
	// fabric hands the packet itself to the receiver and leaves it false.
	// String does not print it.
	Copies bool
}

// String renders the capability set for self-describing results files:
// "lossless" or "none".
func (c Caps) String() string {
	if c.Lossless {
		return "lossless"
	}
	return "none"
}

// ClockSync is optionally implemented by distributed backends that estimate
// peer clock offsets (tcpnet takes NTP-style samples during its connection
// handshake). The runtime uses it to correct cross-process send timestamps
// into the local clock domain for one-way latency measurement, and to
// express trace shards on a common timeline. In-process backends share one
// clock and simply do not implement the interface (offset zero).
type ClockSync interface {
	// PeerClockOffsetNs returns the estimated difference between this
	// process's clock and peer's clock (local − peer) in nanoseconds, and
	// whether an estimate exists. A timestamp t taken on peer's clock maps
	// to the local clock as t + offset.
	PeerClockOffsetNs(peer int) (int64, bool)
}

// FaultConfig parameterizes the adversary a faulty network is built with
// (the in-process fabric's, through backends.Faulty). All probabilities are
// per-packet and independent; a packet is first tested for drop, then (if
// it survived) for duplication and delay. The zero value injects nothing.
type FaultConfig struct {
	// Drop is the probability a packet vanishes on the wire. The sender
	// still observes local send completion — exactly like real hardware,
	// which reports the DMA done long before the packet survives the
	// network.
	Drop float64
	// Dup is the probability a packet is delivered twice.
	Dup float64
	// Delay is the probability a packet is held back for DelayDur before
	// delivery (a slow path through the switch), reordering it past later
	// traffic.
	Delay float64
	// DelayDur is how long a delayed packet is held (0 = 200µs).
	DelayDur time.Duration
	// ScrambleWindow, when positive, reorders inbound delivery within a
	// window of this many packets. Real networks guarantee no ordering
	// (Section II-C); the scrambler exercises the sequence-validation and
	// out-of-sequence buffering paths under worst-case delivery.
	ScrambleWindow int
	// Seed seeds the deterministic RNGs of the injector and the scrambler
	// (0 = 1). A network mixes the rank in, so ranks draw decorrelated
	// streams.
	Seed int64
}

// DefaultFaultDelay is the hold time of a delayed packet when
// FaultConfig.DelayDur is unset.
const DefaultFaultDelay = 200 * time.Microsecond

// Enabled reports whether any fault has a non-zero probability. The
// scramble window is not a probability and does not count.
func (c FaultConfig) Enabled() bool {
	return c.Drop > 0 || c.Dup > 0 || c.Delay > 0
}

// WithDefaults normalizes zero values.
func (c FaultConfig) WithDefaults() FaultConfig {
	if c.DelayDur <= 0 {
		c.DelayDur = DefaultFaultDelay
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// DeviceConfig carries the per-rank device settings a consumer passes at
// creation time.
type DeviceConfig struct {
	// Counters receives backend-level counter increments (injected faults,
	// wire errors). May be nil.
	Counters *spc.Set
	// Unsignaled makes the device's two-sided operations post no
	// completion: Endpoint.Send and PutNotify returning nil is the local
	// completion. The runtime opens every device with it. Without it the
	// in-process fabric posts one CQESendComplete per packet to the sending
	// context, for a driver of the bare seam that counts its sends by
	// polling; tcpnet never posts one.
	Unsignaled bool
}

// Network creates the devices of one world — the backend entry point.
// In-process backends (the simulated fabric) create one device per rank and
// wire them internally; distributed backends (tcpnet) serve only the local
// process's rank and reach peers over real connections.
type Network interface {
	// Caps describes the backend.
	Caps() Caps
	// NewDevice creates the device for world rank r on machine model m.
	NewDevice(rank int, m hw.Machine, cfg DeviceConfig) (Device, error)
}

// Device is one process's NIC: a context factory plus the registered-memory
// table remote peers address (a rendezvous sink, a window).
type Device interface {
	// CreateContext allocates a new network context with the given queue
	// depth (<= 0 selects the backend default). Backends modeling a
	// hardware context limit fail once it is exhausted. A device's contexts
	// are indexed in creation order from 0: the index a peer's Connect
	// names.
	CreateContext(depth int) (Context, error)
	// Connect returns an endpoint from local (a context of this device; a
	// context of another backend is refused) to context index remoteIdx of
	// peer rank's device. Nothing is established here: see Endpoint.Send.
	Connect(local Context, peer int, remoteIdx int) (Endpoint, error)
	// RegisterMemory registers buf for remote access and returns its
	// region. Every backend lands a peer's Endpoint.PutNotify in it (the
	// rendezvous sink); one whose contexts implement OneSided lets a peer
	// address it with the one-sided initiators too (a window).
	RegisterMemory(buf []byte) MemRegion
	// DeregisterMemory removes a region from visibility.
	DeregisterMemory(r MemRegion)
	// Close shuts the device down. Outstanding contexts remain readable so
	// in-flight progress loops can drain.
	Close()
}

// Context is one network context: an independent injection path into the
// NIC with its own receive queue and completion queue. A Communication
// Resource Instance (CRI) wraps exactly one Context.
//
// Thread safety: packet arrival may run concurrently with Poll (the queues
// are multi-producer). Poll must be called by one goroutine at a time; the
// layers above guarantee this with the per-CRI lock the paper describes.
type Context interface {
	// Poll extracts up to max completion events, invoking handler for
	// each, and returns the number handled. Inbound packets surface as
	// CQERecv events. Poll is where the caller's thread works for the
	// network: a backend may read its wire here (tcpnet does, on a pass
	// that found nothing queued: one non-blocking read per connection the
	// context owns) and write out what the rank has sent. Receiving must
	// not wait: no blocking read, no sleep on a full ring, no wait for a
	// peer or a context to appear — what cannot be finished at once is
	// left to the backend's own threads. Only the write may block, on a
	// peer that is not draining: that is the sender's backpressure.
	Poll(handler func(CQE), max int) int
	// Pending reports whether any completions or inbound packets are
	// queued.
	Pending() bool
}

// OneSided is optionally implemented by a Context whose backend addresses a
// peer's registered regions directly — remote memory access with no
// involvement of the target's CPU. The in-process fabric's contexts
// implement it; tcpnet's do not, and windows (internal/rma) are refused
// over them. r addresses a region of the target device. Initiators may run
// concurrently with Poll and with each other.
//
// Only Put is signaled: with a non-nil token it posts one CQEPutComplete
// carrying the token, and its completion implies that of every operation
// issued on the same context before it — completions are in order
// (selective completion, as with unsignaled verbs work requests). A Put
// with a nil token, and every other initiator, posts nothing. A signaled
// Put whose completion queue is full returns ErrCQFull having touched
// nothing.
type OneSided interface {
	Put(r MemRegion, offset int, src []byte, token any) error
	Get(r MemRegion, offset int, dst []byte) error
	Accumulate(r MemRegion, offset int, operand []int64, op AccumulateOp) error
	// FetchAndOp and CompareAndSwap write the target's previous value to
	// *result (if non-nil), valid once a later signaled Put's completion is
	// reaped.
	FetchAndOp(r MemRegion, offset int, operand int64, op AccumulateOp, result *int64) error
	CompareAndSwap(r MemRegion, offset int, compare, swap int64, result *int64) error
}

// Endpoint is a send path from a local context to one remote context. The
// layers above serialize Send with the per-CRI lock on matched paths;
// control paths may call it concurrently, so implementations must make
// injection itself thread-safe (the simulated fabric's queues are
// multi-producer; tcpnet appends frames to a per-peer pending buffer under a
// short lock and writes whole batches under a separate write-order lock).
//
// On an Unsignaled device (DeviceConfig) a two-sided operation posts no
// completion: Send and PutNotify returning nil is the local completion, and
// the caller finishes whatever waits on it (as an unsignaled one-sided
// initiator's return does). So neither ever meets a full completion queue. A
// signaled in-process fabric posts a CQESendComplete per packet, claimed
// before anything moves: ErrCQFull then means nothing was sent.
type Endpoint interface {
	// Send injects a two-sided packet. An endpoint is a lazily resolved
	// path: the first Send establishes it (tcpnet dials, or reuses the peer
	// pair's one connection; the in-process fabric looks the peer's context
	// up), and a failed establishment surfaces as an error wrapping
	// ErrConnEstablish — the packet is not injected. A nil return means the
	// backend has the packet, not that it left the host. Who keeps p then is
	// the backend's Caps.Copies: tcpnet has encoded p and its payload into
	// its wire buffer and keeps neither, while the in-process fabric hands p
	// itself to the receiver, which holds it until the message is matched,
	// so the caller must not write to it again. A batching backend (tcpnet)
	// puts the bytes on the wire at the end of the rank's next Context.Poll,
	// or from a bounded-delay timer if no Poll comes, and reports a wire
	// failure it meets there from the next Send toward the same peer.
	// Sending a packet again is the retransmission of the
	// delivery-reliability layer, which treats a failed resend like a lost
	// packet (the retry budget governs). Each backend has its own
	// ceiling on one packet, refused before anything is injected: the
	// in-process fabric has none (packets move by pointer); tcpnet holds a
	// plain frame to its reader's 256 KiB window and a PutNotify transfer to
	// 64 MiB. The runtime's eager limit (8 KiB) keeps every Send far below
	// either.
	Send(p *Packet) error
	// PutNotify lands src at the start of the peer's registered region
	// regionID, then delivers p to the remote context — a write with
	// notification, the bulk step of a rendezvous. p is never delivered
	// without src: a path that fails mid-transfer loses both, and the error
	// is what reports the loss. src is not referenced after the call returns
	// (in process it is an RDMA write; tcpnet streams it behind p's head in
	// one frame and returns once the kernel has every byte); p is kept as
	// Send keeps it (Caps.Copies). Every backend
	// implements it, with or without OneSided contexts. ErrRegionUnavailable
	// means the peer's device is known to hold no such region; p was not
	// sent.
	PutNotify(regionID uint64, src []byte, p *Packet) error
}

// MemRegion is a registered memory region — the transport-level object
// behind an MPI window or a rendezvous sink.
type MemRegion interface {
	// ID returns the region's registration id.
	ID() uint64
	// Size returns the region length in bytes.
	Size() int
}

// AccumulateOp selects the reduction applied by Accumulate and FetchAndOp.
type AccumulateOp uint8

const (
	// AccSum adds the operand to the target (MPI_SUM).
	AccSum AccumulateOp = iota
	// AccReplace overwrites the target (MPI_REPLACE).
	AccReplace
	// AccMax keeps the maximum (MPI_MAX).
	AccMax
	// AccMin keeps the minimum (MPI_MIN).
	AccMin
)
