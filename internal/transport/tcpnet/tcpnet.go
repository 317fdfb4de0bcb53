// Package tcpnet is a real TCP transport backend: each rank runs in its own
// OS process, listens on a TCP address, and reaches every peer over one
// multiplexed connection per peer pair, established lazily on first send.
// Wire frames are decoded into the target context's receive ring by mux ID —
// by the thread polling that rank's contexts when there is one, by the
// connection's own goroutine otherwise — so the layers above (cri, progress,
// match, core) run unchanged over a real network — the point of the pluggable
// transport split.
//
// Connection model: all of a peer pair's contexts share one physical
// connection. Nothing is dialed at world construction —
// Device.Connect returns a lazily connectable endpoint, and the first send
// toward a peer dials and handshakes. When both sides of a pair dial
// simultaneously, the race resolves deterministically: the lower rank's
// dial wins, the loser adopts the winner's connection and discards its own
// (counted as a DialRacesLost SPC tick). ConnsOpened counts successful
// dials, ConnsReused counts endpoints attaching to an already-established
// link, so surviving physical connections = conns_opened − dial_races_lost.
//
// Wire format: every packet travels as one length-prefixed multiplexed
// frame,
//
//	[u32 little-endian frame length][u32 mux ID][Packet.AppendWire bytes]
//
// where the mux ID is the destination context index — the demux key that
// routes the frame to one of the shared connection's per-context receive
// rings. A rendezvous FIN travels as a landed frame (Endpoint.PutNotify,
// transport.AppendLandedFrame): its envelope carries FlagLanded, a region id
// and a body length n, and behind the packet come n body bytes the reader
// writes into that region before it delivers the packet. Data and FIN are one
// frame, so a link that dies mid-transfer loses both and the receive stays
// pending. Each connection opens with a three-frame handshake that names the
// dialing rank and takes one NTP-style clock sample:
//
//	dialer → server: magic(4) rank(4) reserved(4) t1(8)  — hello, 20 bytes
//	server → dialer: t2(8) t3(8)                         — echo,  16 bytes
//	dialer → server: θ(8) δ(8)                           — offset, 16 bytes
//
// t1/t4 are the dialer's send/receive instants, t2/t3 the server's receive/
// send instants. The dialer computes θ = ((t2−t1)+(t3−t4))/2 (server clock
// minus dialer clock) and δ = (t4−t1)−(t3−t2) (round-trip delay), shares
// them in the third frame, and both sides keep the minimum-δ sample per
// peer — the standard NTP filter: the sample with the smallest round trip
// has the least queueing asymmetry. Network.PeerClockOffsetNs exposes the
// estimate (transport.ClockSync) so the runtime can express remote
// timestamps in the local clock domain.
//
// Write side: Endpoint.Send does not touch the socket. It appends the mux
// frame to the peer pair's pending buffer (a short pending-lock hold, no
// syscall) and posts no completion — Send returning is the eager local
// completion, "buffer copied", which is all MPI promises. The pending buffer
// reaches the kernel in one Write when
//
//   - any of the rank's contexts polls: a pass that finds nothing queued
//     flushes before it reads the sockets, any pass flushes at its end (so
//     the blocking receive behind a send puts the send on the wire with its
//     first pass, and a sender that never waits on anything coalesces until
//     the next bullet);
//   - it crosses flushBytes (so a stream's envelopes leave in 8 KiB
//     batches and a frame near the eager limit goes out inline, on the
//     sending thread);
//   - a landed frame is sent: its head joins the buffer and the user's send
//     buffer follows in the same vectored write, uncopied;
//   - the backstop timer fires, at most backstopDelay after a clean→dirty
//     transition — the liveness net under a caller that sends and never
//     re-enters the runtime. The timer arms on that transition only, so an
//     idle rank wakes nothing.
//
// A flush swaps the pending buffer for a spare under the pending lock and
// writes under the slot's separate write-order lock (lock order: write-order
// → pending), so other CRIs keep appending while the syscall is in flight.
// The buffer belongs to the peer slot, not to one connection: a failed write
// marks the link broken, re-establishes once, and replays the whole unflushed
// buffer on the new link (frames the peer already consumed are absorbed by
// the matching engine's sequence dedup, as before). If that fails too, the
// sends it carried have long completed, so the failure is reported late: the
// bytes go back to the head of the pending buffer, wire_flush_failures and
// wire_frames_stranded tick, the next Send toward the peer returns the write
// error without injecting its packet, and the Send after that re-establishes
// the path and takes the stranded frames with it.
//
// Read side: a connection's receive half is one record (rxConn: the
// descriptor, a fixed readBufSize window, the packet and payload slabs, the
// mux→context cache, one mutex) advanced by one function, step, which never
// waits: it reads the socket once, without blocking, and decodes every
// complete frame in place (DecodeMuxFrameInto copies the payload out) — one
// read per burst. Landed frames are the exception: a body should go from the
// socket to its region without crossing the window, and landed frames come in
// runs (one per rendezvous ACK, and ACKs arrive in batches). So after a landed
// frame the next read into the window asks for at most maxLandedHead bytes:
// the next head arrives alone, with at most a few dozen bytes of its body, and
// the rest of that body is read straight into the region. What still crosses
// the window is what a full-size read fetched before a run began — typically
// the first landed frame after a batch of RTSs; an eager-only stream never
// takes the capped read. Small frames decode into packets carved from a
// slabPackets-entry slab, and their payloads — and the Meta record of a
// traced or reliability-tracked frame — into the record's transport.Slab, one
// allocation per slab or chunk instead of one per frame; a frame above
// slabMaxFrame gets a packet of its own, so a slab never keeps a large payload
// alive.
// A plain frame always fits the window: the runtime sends nothing above the
// eager limit but by rendezvous, and Endpoint.Send refuses a frame the window
// cannot hold. Bytes off the socket are hostile until validated: a frame
// length outside [MuxHeaderSize, maxFrame], a plain frame longer than the
// window, a mux index ≥ maxMux, or an undecodable packet closes the
// connection and ticks wire_frames_rejected.
//
// step has two callers. The first is the progress engine: a Context.Poll
// that popped nothing from its rings steps the connections it owns (peer
// index modulo the context count, so a pass over every context reads each
// socket once) under a try-lock, on the thread that is spinning in Wait
// anyway — the paper's "a thread extracts completions from its CRI's network
// context inside the progress engine". Go's scheduler reaches its netpoller
// only when a P runs out of goroutines, which ranks spinning in Wait never
// let happen, so a reader parked there is found by accident or by sysmon's
// 10 ms sweep; the poller does not depend on it. The second caller is the
// connection's goroutine, which parks on the netpoller (RawConn.Read with a
// callback that returns false on EAGAIN) and steps when no poller got to the
// socket first. It stays because writes block: a rank busy computing, or two
// ranks flushing rendezvous frames at each other, must still be drained. It
// also does the waiting a poller must not: for room in a full ring (the
// decoded packet is kept in the record and delivered first by the next step,
// whoever makes it) and for a context the peer's first frame beat into
// existence. (A landed frame's body needs no waiting: step copies what the
// window holds of it — after the capped read, little or nothing — into the
// region and reads the rest from the socket straight into it, one
// non-blocking read per step, whoever steps.) A poller that leaves either
// behind, or meets the end of the stream, wakes the goroutine with an
// expired read deadline — the netpoller reports a socket only while bytes sit
// in it, and the poller took them. wire_reads_polled and
// wire_reads_parked count the reads that returned bytes by who made them.
//
// Pollers read the raw descriptor, outside Go's descriptor reference
// counting, so its lifetime is guarded here: every close of a connection goes
// through link.close, which marks the record dead under its mutex before the
// descriptor is released, and a poller touches the descriptor only under that
// mutex with the mark unset. The mark stops reads, not delivery: frames the
// record had already read still go out, for nobody would resend them. Lock
// order: CRI lock → record try-lock on a polling thread; the goroutine takes
// the record lock alone and waits for ring room and contexts with it
// released. Where there is no raw non-blocking read
// (rawread_other.go) connections are never handed to the pollers and the
// goroutine carries the wire with blocking reads, through the same step.
//
// TCP is lossless and per-connection FIFO, so the backend advertises
// Caps.Lossless and the runtime skips the ack/retransmit delivery layer.
// (A dial-race handover can reorder frames across the old and new
// connection; the matching engine's out-of-sequence buffering absorbs
// exactly that.) One-sided operations are not supported (window creation in
// internal/rma is refused up front); rendezvous bulk data crosses in the FIN's
// landed frame, user buffer to kernel to user buffer.
package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/hw"
	"repro/internal/ringbuf"
	"repro/internal/spc"
	"repro/internal/transport"
)

var _ transport.ClockSync = (*Network)(nil)
var _ transport.ClockSync = (*Device)(nil)

var (
	_ transport.Network   = (*Network)(nil)
	_ transport.Device    = (*Device)(nil)
	_ transport.Context   = (*Context)(nil)
	_ transport.Endpoint  = (*Endpoint)(nil)
	_ transport.MemRegion = (*MemRegion)(nil)
)

// handshakeMagic opens every connection so a stray dialer (or an
// old-protocol peer with per-context connections and unmultiplexed framing)
// is rejected instead of corrupting a context's packet stream.
const handshakeMagic = 0x43524933 // "CRI3"

// Handshake frame sizes: hello (magic, rank, reserved, t1), the server's
// echo (t2, t3), and the dialer's offset report (θ, δ).
const (
	helloSize  = 4 + 4 + 4 + 8
	echoSize   = 8 + 8
	offsetSize = 8 + 8
)

// DefaultDialTimeout bounds connection establishment (including retries
// while the peer's listener is still coming up) when Config.DialTimeout is
// unset.
const DefaultDialTimeout = 10 * time.Second

// defaultQueueDepth sizes context rings when CreateContext gets depth <= 0.
const defaultQueueDepth = 4096

// Wire batching and validation thresholds.
const (
	// flushBytes is the pending size at which Send flushes inline: the
	// default eager limit, so a full 128-message window of empty envelopes
	// (7 KiB) coalesces while any rendezvous-sized frame goes out at once.
	flushBytes = 8 << 10
	// readBufSize is the reader's fixed window and the ceiling of a plain
	// frame: an eager frame (at most the eager limit plus headers) fits many
	// times over.
	readBufSize = 256 << 10
	// backstopDelay is the backstop timer period: far longer than a send
	// burst takes to reach its own progress call (a 128-message window posts
	// in tens of µs), short enough that a sender that never progresses delays
	// its peer by at most one period, half a millisecond.
	backstopDelay = 500 * time.Microsecond
	// maxFrame bounds a landed frame's declared length (mux header + packet +
	// body): 64 MiB is far above any payload the runtime's experiments send
	// and keeps a corrupt u32 from claiming gigabytes. PutNotify refuses
	// larger transfers (the runtime does not fragment, so this is the tcp
	// message size ceiling).
	maxFrame = 64 << 20
	// maxMux bounds the mux ID (destination context index): contexts are
	// CRIs, a few dozen per rank, so 1024 only caps the reader's demux table.
	maxMux = 1 << 10
	// slabPackets is how many decoded packets share one allocation: 63
	// 64-byte packets and the 8-byte header the Go runtime puts in front of a
	// pointer-holding object above 512 bytes fill the 4 KiB size class (64
	// would take a 4 864-byte block). Nothing returns a slab: the collector
	// frees it when the last of its packets is dropped, so one long-lived
	// unexpected message keeps its slab reachable — 4 KiB — plus the payload
	// chunks its slab-mates' payloads (at most slabMaxFrame each, carved in
	// arrival order) were cut from: five 8 KiB chunks at most, and no more.
	slabPackets = 63
	// slabMaxFrame is the largest frame decoded into the slab. Above it the
	// payload dwarfs the packet and sharing would only let one slow consumer
	// pin its slab-mates' payloads.
	slabMaxFrame = 512
	// maxLandedHead bounds a landed frame's head — all of it ahead of the
	// body, length prefix included; a rendezvous FIN's is 76 bytes, 96 traced
	// — so the reader has it whole in its window before a body byte moves. It
	// is also all the reader's next read asks for after a landed frame.
	maxLandedHead = 128
	// regSlab is how many registered regions share one allocation (2 KiB).
	regSlab = 64
)

// errBadFrame reports inbound bytes that failed frame validation.
var errBadFrame = errors.New("tcpnet: invalid frame")

// errWouldBlock is rawRead finding the socket empty.
var errWouldBlock = errors.New("tcpnet: read would block")

// Caps describes the TCP wire: lossless FIFO streams multiplexed over one
// lazily dialed connection per peer pair, two-sided only, no fault
// injection (the kernel would repair injected faults anyway). Send and
// PutNotify encode the packet into the wire buffer before they return and
// keep no reference to it.
func Caps() transport.Caps {
	return transport.Caps{Name: "tcp", Lossless: true, Copies: true}
}

// ParsePeers splits a comma-separated peer address list, trimming
// whitespace around each address and rejecting empty or duplicate entries —
// a duplicated address would otherwise surface only as a confusing dial
// failure or a world wired to the wrong rank.
func ParsePeers(list string) ([]string, error) {
	raw := strings.Split(list, ",")
	peers := make([]string, 0, len(raw))
	seen := make(map[string]int, len(raw))
	for i, a := range raw {
		a = strings.TrimSpace(a)
		if a == "" {
			return nil, fmt.Errorf("tcpnet: empty peer address at position %d in %q", i, list)
		}
		if prev, dup := seen[a]; dup {
			return nil, fmt.Errorf("tcpnet: duplicate peer address %q at positions %d and %d — each rank needs its own listen address", a, prev, i)
		}
		seen[a] = i
		peers = append(peers, a)
	}
	return peers, nil
}

// Config places one process in a TCP world.
type Config struct {
	// Rank is this process's world rank.
	Rank int
	// Size is the world size (number of processes).
	Size int
	// Listen is the address this rank accepts peer connections on
	// (e.g. "127.0.0.1:7100"). May be empty when Size == 1.
	Listen string
	// Peers[r] is rank r's listen address. Peers[Rank] is ignored (same-rank
	// endpoints short-circuit in process). Must have Size entries when
	// Size > 1.
	Peers []string
	// DialTimeout bounds connection establishment per peer, retrying
	// while the peer's listener comes up (0 = DefaultDialTimeout).
	DialTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.DialTimeout <= 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	return c
}

func (c Config) validate() error {
	if c.Size <= 0 {
		return errors.New("tcpnet: config needs Size >= 1")
	}
	if c.Rank < 0 || c.Rank >= c.Size {
		return fmt.Errorf("tcpnet: rank %d outside world of %d", c.Rank, c.Size)
	}
	if c.Size > 1 {
		if c.Listen == "" {
			return errors.New("tcpnet: multi-process world needs a Listen address")
		}
		if len(c.Peers) != c.Size {
			return fmt.Errorf("tcpnet: %d peer addresses for world of %d", len(c.Peers), c.Size)
		}
	}
	return nil
}

// Network is one process's slice of a TCP world: the local listener, the
// per-peer connection slots, and the clock-offset table.
type Network struct {
	cfg Config
	ln  net.Listener

	mu     sync.Mutex
	dev    *Device
	conns  []*link
	closed bool
	wg     sync.WaitGroup

	// polled is the immutable list of receive halves the progress engine
	// reads (replaced under mu when a connection starts or stops frame
	// service); nctx is the device's context count, which spreads them over
	// the contexts — see sweep.
	polled atomic.Pointer[[]*rxConn]
	nctx   atomic.Int32

	// slots[r] is the connection slot toward rank r — at most one live
	// physical link per peer pair, shared by every context.
	slots []peerSlot

	// dirty counts slots holding unflushed frames: the one atomic load an
	// idle Context.Poll pays for the batching.
	dirty atomic.Int32
	// backstop is the liveness timer under senders that never progress;
	// backstopArmed guards it so it is reset at most once per period.
	backstop      *time.Timer
	backstopArmed atomic.Bool

	clockMu sync.Mutex
	clocks  map[int]clockSample
}

// peerSlot is the path toward one peer: connection establishment (at most
// one local dial in flight, and the deterministic adoption of inbound
// connections — see adopt) and the outbound frame buffer every local context
// sending there appends to. The buffer lives here rather than on the link so
// it survives the link being replaced (reconnect, dial-race handover).
type peerSlot struct {
	mu      sync.Mutex
	cond    *sync.Cond
	link    *link
	dialing bool

	// wmu is the write-order lock: held across swap + Write so flushes reach
	// the socket in buffer order. spare is the idle half of the double
	// buffer, owned by the wmu holder. Lock order: wmu → pmu.
	wmu   sync.Mutex
	spare []byte
	// vec backs bufs, a landed frame's vectored write (the buffer, then the
	// caller's body), so that it allocates nothing; owned by the wmu holder.
	vec  [2][]byte
	bufs net.Buffers

	// pmu guards the pending buffer. Matched-path sends already hold their
	// CRI lock, but distinct CRIs and control-path sends race onto the shared
	// path; the hold is one frame append.
	pmu    sync.Mutex
	pend   []byte
	frames int
	// dirty is set (under pmu) while pend holds frames no flush has claimed;
	// Poll and the backstop read it lock-free.
	dirty atomic.Bool
	// flushErr is the sticky report of a flush that failed even on a
	// re-established link, taken by the next Send toward the peer.
	flushErr atomic.Pointer[error]
}

// link is one physical connection to a peer: the socket, the write side's
// broken flag and the receive half.
type link struct {
	conn   net.Conn
	broken atomic.Bool
	rx     rxConn
}

func (l *link) alive() bool { return !l.broken.Load() }

// close is the only place a connection's descriptor is released. Pollers read
// the raw descriptor, outside Go's own descriptor reference counting, so the
// receive half is marked dead under its mutex first: a poller either finished
// its read before the mark or sees the mark and stays away, and a descriptor
// number the kernel hands to the next dial is never read through this record.
func (l *link) close() {
	l.broken.Store(true)
	l.rx.mu.Lock()
	l.rx.dead = true
	l.rx.mu.Unlock()
	l.conn.Close()
}

// enqueue appends p's mux frame to the peer's pending buffer. It flushes
// inline once the buffer crosses flushBytes; otherwise a clean→dirty
// transition arms the backstop and the frame waits for the next Poll.
func (n *Network) enqueue(peer int, p *transport.Packet, mux uint32) {
	s := &n.slots[peer]
	s.pmu.Lock()
	s.pend = p.AppendMuxFrame(s.pend, mux)
	s.frames++
	wasClean := !s.dirty.Load()
	if wasClean {
		s.dirty.Store(true)
		n.dirty.Add(1)
	}
	full := len(s.pend) >= flushBytes
	s.pmu.Unlock()
	if full {
		_ = n.flush(peer, false, nil, nil) // a failure waits in flushErr for the next Send
	} else if wasClean {
		n.armBackstop()
	}
}

// flushDirty flushes every peer with unflushed frames, on the calling thread.
func (n *Network) flushDirty(backstop bool) {
	for i := range n.slots {
		if n.slots[i].dirty.Load() {
			_ = n.flush(i, backstop, nil, nil) // a failure waits in flushErr for the next Send
		}
	}
}

// flush writes the peer's pending buffer to its link in one Write. The swap
// happens under pmu, the syscall under wmu only, so senders keep appending to
// the other half of the double buffer meanwhile. On a failed write the bytes
// return to the head of the pending buffer with dirty left clear — a progress
// pass must not sit in a dial, so nothing retries until a Send toward the peer
// re-establishes the path and marks the slot dirty again — and the failure is
// counted and left in flushErr for the next Send to return.
//
// head and body, when given, are a landed frame: head joins the buffer under
// the write-order lock, so nothing comes between the two, and body follows it
// from the caller's memory in the same write; nil means the kernel has every
// byte. Its failure is the caller's to report at once — the body is not ours
// to keep for a replay — so head is cut back out before the rest is stranded.
func (n *Network) flush(peer int, backstop bool, head, body []byte) error {
	s := &n.slots[peer]
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.pmu.Lock()
	ahead := len(s.pend)
	if head != nil {
		s.pend = append(s.pend, head...)
		s.frames++
	}
	buf, frames := s.pend, s.frames
	if len(buf) == 0 {
		s.pmu.Unlock()
		return nil
	}
	s.pend, s.frames = s.spare[:0], 0
	if s.dirty.Swap(false) {
		n.dirty.Add(-1)
	}
	s.pmu.Unlock()

	ctr := n.counters()
	err := n.writeOut(peer, buf, body, ctr)
	if err == nil {
		s.spare = buf[:0]
		ctr.Inc(spc.WireFlushes)
		ctr.Add(spc.WireFramesFlushed, int64(frames))
		if backstop {
			ctr.Inc(spc.WireBackstopFlushes)
		}
		return nil
	}
	if head != nil {
		buf, frames = buf[:ahead], frames-1
	}
	s.pmu.Lock()
	s.pend = append(buf, s.pend...)
	s.frames += frames
	s.pmu.Unlock()
	s.spare = nil
	ctr.Inc(spc.WireFlushFailures)
	if frames > 0 {
		// A copy local to this branch: taking err's own address would move it
		// to the heap on every flush, successful ones included.
		failed := err
		s.flushErr.Store(&failed)
		ctr.Add(spc.WireFramesStranded, int64(frames))
	}
	return err
}

// writeOut writes buf to the peer's link, and body behind it in the same
// vectored write when there is one. A failed write marks the link
// broken for every sharer and is retried once, whole, on a re-established
// link: a peer restart or transient RST should not kill the path for the
// rest of the run. The new stream starts at a frame boundary, so replaying
// from the start of buf is safe; frames the peer had already consumed are
// absorbed by the matching engine's sequence dedup.
func (n *Network) writeOut(peer int, buf, body []byte, ctr *spc.Set) error {
	s := &n.slots[peer]
	var werr error
	for attempt := 0; attempt < 2; attempt++ {
		lk, _, err := n.linkTo(peer)
		if err != nil {
			return fmt.Errorf("%w: peer %d: %v", transport.ErrConnEstablish, peer, err)
		}
		if attempt > 0 {
			ctr.Inc(spc.Reconnects)
		}
		var m int
		if len(body) == 0 {
			m, err = lk.conn.Write(buf)
		} else {
			s.vec = [2][]byte{buf, body}
			s.bufs = s.vec[:]
			var m64 int64
			m64, err = s.bufs.WriteTo(lk.conn)
			m, s.vec, s.bufs = int(m64), [2][]byte{}, nil // the body is the caller's again
		}
		if err == nil {
			return nil
		}
		werr = err
		if m > 0 && m < len(buf)+len(body) {
			// Part of the buffer reached the kernel before the connection
			// died; that stream is now mid-frame and unusable.
			ctr.Inc(spc.ShortWrites)
		}
		lk.close()
	}
	return fmt.Errorf("tcpnet: write to peer %d: %w", peer, werr)
}

// armBackstop starts the backstop period unless one is already running.
func (n *Network) armBackstop() {
	if !n.backstopArmed.Swap(true) {
		n.backstop.Reset(backstopDelay)
	}
}

// fireBackstop is the backstop timer callback: flush whatever is dirty (a
// firing that lands in the middle of a progressing sender's burst only splits
// its batch). The timer re-arms only while something is dirty, so an idle
// rank wakes nothing.
func (n *Network) fireBackstop() {
	n.flushDirty(true)
	// Disarm, then re-check: a sender that turned a slot dirty after the scan
	// either sees the disarmed flag and arms the timer itself, or is seen here.
	n.backstopArmed.Store(false)
	if n.dirty.Load() != 0 {
		n.armBackstop()
	}
}

// clockSample is one NTP-style offset estimate for a peer: offset is
// local − peer in nanoseconds, delta the round-trip delay of the exchange
// that produced it. Lower delta = tighter bound on the true offset.
type clockSample struct {
	offset int64
	delta  int64
}

// recordClockSample keeps the minimum-delta sample per peer. Every
// connection handshake with a peer contributes one sample (in either
// direction), so a pair that raced its dials converges on the best of the
// exchanges.
func (n *Network) recordClockSample(peer int, offset, delta int64) {
	n.clockMu.Lock()
	defer n.clockMu.Unlock()
	if n.clocks == nil {
		n.clocks = make(map[int]clockSample)
	}
	if cur, ok := n.clocks[peer]; !ok || delta < cur.delta {
		n.clocks[peer] = clockSample{offset: offset, delta: delta}
	}
}

// PeerClockOffsetNs implements transport.ClockSync: the estimated local − peer
// clock difference in nanoseconds. The local rank's offset is zero by
// definition; other peers have an estimate once a connection handshake with
// them completed in either direction — with lazy establishment that means
// once the pair first communicated.
func (n *Network) PeerClockOffsetNs(peer int) (int64, bool) {
	if peer == n.cfg.Rank {
		return 0, true
	}
	n.clockMu.Lock()
	defer n.clockMu.Unlock()
	s, ok := n.clocks[peer]
	return s.offset, ok
}

func newNetwork(cfg Config, ln net.Listener) *Network {
	n := &Network{cfg: cfg, ln: ln, slots: make([]peerSlot, cfg.Size)}
	for i := range n.slots {
		n.slots[i].cond = sync.NewCond(&n.slots[i].mu)
	}
	// Created stopped (a duration that cannot elapse before Stop): the timer
	// runs only between a clean→dirty transition and the first firing that
	// finds nothing dirty.
	n.backstop = time.AfterFunc(math.MaxInt64, n.fireBackstop)
	n.backstop.Stop()
	return n
}

// New starts the rank's listener and returns its network. The listener
// accepts in the background immediately so peers can dial before this
// process reaches NewDevice; peer connections themselves are established
// lazily, on the first send toward each peer.
func New(cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var ln net.Listener
	if cfg.Size > 1 {
		var err error
		ln, err = net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("tcpnet: listen %s: %w", cfg.Listen, err)
		}
	}
	n := newNetwork(cfg, ln)
	if ln != nil {
		n.wg.Add(1)
		go n.acceptLoop(ln)
	}
	return n, nil
}

// NewLoopback creates an n-process world's networks all inside one process,
// on ephemeral loopback ports — the unit-test and conformance harness entry
// point. The returned networks are wired to each other; network i serves
// rank i.
func NewLoopback(n int) ([]*Network, error) {
	listeners := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("tcpnet: loopback listen: %w", err)
		}
		listeners[i] = ln
		peers[i] = ln.Addr().String()
	}
	nets := make([]*Network, n)
	for i := range nets {
		cfg := Config{Rank: i, Size: n, Listen: peers[i], Peers: peers}.withDefaults()
		nets[i] = newNetwork(cfg, listeners[i])
		if n > 1 {
			nets[i].wg.Add(1)
			go nets[i].acceptLoop(listeners[i])
		}
	}
	return nets, nil
}

// Addr returns the listener's address (useful with a ":0" Listen), or "".
func (n *Network) Addr() string {
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

func (n *Network) Caps() transport.Caps { return Caps() }

// device returns the rank's device, nil before its creation.
func (n *Network) device() *Device {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dev
}

// counters returns the device's SPC set, or nil before device creation (a
// nil *spc.Set ignores updates).
func (n *Network) counters() *spc.Set {
	if dev := n.device(); dev != nil {
		return dev.counters
	}
	return nil
}

func (n *Network) isClosed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

// NewDevice creates the device serving the local rank. rank must equal
// Config.Rank — a TCP network hosts exactly one rank per process.
func (n *Network) NewDevice(rank int, m hw.Machine, cfg transport.DeviceConfig) (transport.Device, error) {
	if rank != n.cfg.Rank {
		return nil, fmt.Errorf("tcpnet: device for rank %d on a network serving rank %d", rank, n.cfg.Rank)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, errors.New("tcpnet: network closed")
	}
	if n.dev != nil {
		return nil, errors.New("tcpnet: device already created")
	}
	n.dev = &Device{net: n, counters: cfg.Counters, regions: make(map[uint64]*MemRegion)}
	return n.dev, nil
}

// acceptLoop serves inbound peer connections until the listener closes.
func (n *Network) acceptLoop(ln net.Listener) {
	defer n.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		lk := n.register(conn)
		if lk == nil {
			return
		}
		n.wg.Add(1)
		go n.serveConn(lk)
	}
}

// register wraps a fresh connection in its link and records it for close.
// After shutdown it closes the connection and returns nil.
func (n *Network) register(conn net.Conn) *link {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		conn.Close()
		return nil
	}
	lk := &link{conn: conn}
	lk.rx.net, lk.rx.src = n, conn
	n.conns = append(n.conns, lk)
	return lk
}

// serveConn answers the handshake (including the clock-sync exchange) on an
// inbound connection, offers it for adoption as the peer pair's shared
// link, then demultiplexes its frames until the peer closes. Adoption and
// frame service are independent: a connection that lost its dial race still
// delivers whatever frames the peer wrote before converging.
func (n *Network) serveConn(lk *link) {
	defer n.wg.Done()
	conn := lk.conn
	var hs [helloSize]byte
	if _, err := io.ReadFull(conn, hs[:]); err != nil {
		return
	}
	t2 := time.Now().UnixNano()
	if binary.LittleEndian.Uint32(hs[0:]) != handshakeMagic {
		return
	}
	peer := int(int32(binary.LittleEndian.Uint32(hs[4:])))
	var echo [echoSize]byte
	binary.LittleEndian.PutUint64(echo[0:], uint64(t2))
	binary.LittleEndian.PutUint64(echo[8:], uint64(time.Now().UnixNano()))
	if _, err := conn.Write(echo[:]); err != nil {
		return
	}
	var off [offsetSize]byte
	if _, err := io.ReadFull(conn, off[:]); err != nil {
		return
	}
	// θ is server − dialer as the dialer computed it, so from this side
	// local − peer = +θ.
	theta := int64(binary.LittleEndian.Uint64(off[0:]))
	delta := int64(binary.LittleEndian.Uint64(off[8:]))
	if peer < 0 || peer >= n.cfg.Size || peer == n.cfg.Rank {
		return
	}
	n.recordClockSample(peer, theta, delta)
	n.adopt(peer, lk)
	n.serveFrames(lk, peer)
}

// adopt decides whether an inbound connection from peer becomes the pair's
// shared link. The deterministic rule is that the lower rank's dial wins a
// symmetric-dial race:
//
//   - peer < rank: the peer's dial outranks ours — adopt unconditionally.
//     A live link of our own is the losing side of the race (or a stale
//     path the peer replaced); it is discarded and counted DialRacesLost.
//   - peer > rank: our dial would win, so adopt only when the path is
//     genuinely free — no live link and no dial in flight. Otherwise the
//     connection is left unadopted; serveConn still reads its frames until
//     the peer notices the loss and closes it.
func (n *Network) adopt(peer int, lk *link) {
	s := &n.slots[peer]
	s.mu.Lock()
	defer s.mu.Unlock()
	if peer < n.cfg.Rank {
		old := s.link
		s.link = lk
		if old != nil && old.alive() {
			n.counters().Inc(spc.DialRacesLost)
			old.close()
		}
		s.cond.Broadcast()
		return
	}
	if (s.link == nil || !s.link.alive()) && !s.dialing {
		s.link = lk
		s.cond.Broadcast()
	}
}

// serveFrames is a connection's life after the handshake: its receive half
// goes to the pollers, and the calling goroutine stays behind them as the
// reader of last resort until the stream ends.
func (n *Network) serveFrames(lk *link, peer int) {
	n.arm(lk, peer)
	n.attend(lk)
}

// arm readies lk's receive half for frames from peer and, when the socket can
// be read without blocking, puts it on the pollers' list.
func (n *Network) arm(lk *link, peer int) {
	rx := &lk.rx
	rx.mu.Lock()
	rx.peer = peer
	rx.buf = make([]byte, readBufSize)
	rx.deliver = rx.toRing
	if sc, ok := rx.src.(syscall.Conn); ok && rawReads {
		if raw, err := sc.SyscallConn(); err == nil && raw.Control(func(fd uintptr) { rx.fd = fd }) == nil {
			rx.raw = raw
		}
	}
	pollable := rx.raw != nil
	rx.mu.Unlock()
	if pollable {
		n.setPolled(rx, true)
	}
}

// attend runs an armed connection's goroutine until the stream ends. A stream
// that ends on bytes failing validation closes the link and ticks
// wire_frames_rejected, whichever thread met the bad frame.
func (n *Network) attend(lk *link) {
	defer n.setPolled(&lk.rx, false)
	if err := lk.rx.run(); errors.Is(err, errBadFrame) && !n.isClosed() {
		n.counters().Inc(spc.WireFramesRejected)
		lk.close()
	}
}

// setPolled adds rx to, or removes it from, the list the pollers sweep.
func (n *Network) setPolled(rx *rxConn, on bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var next []*rxConn
	if old := n.polled.Load(); old != nil {
		for _, r := range *old {
			if r != rx {
				next = append(next, r)
			}
		}
	}
	if on {
		next = append(next, rx)
	}
	n.polled.Store(&next)
}

// sweep is the progress engine reading the wire: one step on every connection
// context c polls, on the calling thread. A connection belongs to one context
// (peer index modulo the context count), so a pass over k idle contexts costs
// one read per live connection, not k. It never blocks: a record another
// thread holds is skipped, and what a step may not do here — wait for ring
// room or for a context to exist, close a link whose stream ended — is left
// in the record and the connection's goroutine is kicked awake to do it. It
// reports whether any step did more than find the socket empty.
func (n *Network) sweep(c *Context) bool {
	rxs := n.polled.Load()
	if rxs == nil {
		return false
	}
	k, busy := int(n.nctx.Load()), false
	for _, rx := range *rxs {
		if rx.peer%k != c.index || !rx.mu.TryLock() {
			continue
		}
		st := rx.step(c.ctr, spc.WireReadsPolled)
		if st > rxMore {
			rx.kick()
		}
		rx.mu.Unlock()
		busy = busy || st != rxIdle
	}
	return busy
}

// rxState is what one step of a connection's receive half came to.
type rxState uint8

const (
	rxIdle rxState = iota // the socket had nothing: park, or poll again later
	rxMore                // bytes were read and every complete frame delivered
	// The states below need the goroutine.
	rxRingFull  // a decoded packet is kept: its context's ring has no room
	rxNoContext // a decoded packet is kept: its context does not exist yet
	rxEnded     // the stream is over, err says why
)

// rxConn is a connection's receive half: the descriptor, the window it is
// read through, and what decoding has in hand. Everything below mu is guarded
// by it; step runs under it, called by the pollers (try-lock, see sweep) and
// by the connection's goroutine (see run). Delivery order is therefore the
// byte order whoever reads.
type rxConn struct {
	net  *Network
	peer int
	// src is the connection for reads that may block: the goroutine's, when
	// there is no raw descriptor.
	src net.Conn
	// raw and fd are set when the socket can be read without blocking; fd is
	// read only under mu with dead unset (see link.close).
	raw syscall.RawConn
	fd  uintptr
	// deliver hands a decoded frame on: rxMore when it was taken, rxRingFull
	// or rxNoContext when step must keep it.
	deliver func(mux uint32, pkt *transport.Packet) rxState

	mu   sync.Mutex
	dead bool
	// kicked is set while a poller's wake-up of the goroutine is pending.
	kicked bool
	// buf[lo:hi] is read but not yet decoded.
	buf    []byte
	lo, hi int
	// slab is the unused rest of the current packet slab; payloads the
	// chunks small payloads are copied into and Meta records carved from.
	slab     []transport.Packet
	payloads transport.Slab
	// held is a decoded packet deliver could not take; the next step, by
	// either caller, delivers it before anything else.
	held    *transport.Packet
	heldMux uint32
	// body is the landed frame in mid-air, if any (see land).
	body landingBody
	err  error
	// capped is set by a landed frame and cleared by the next read into the
	// window, which asks for at most maxLandedHead bytes: landed frames come
	// in runs, so that read most likely fetches the next head alone, and its
	// body is read straight into the region instead of through the window.
	capped bool
	// windowed counts the body bytes landMore copied out of the window (the
	// reader's tests read it).
	windowed int
	// ctxs caches the destination contexts by mux ID.
	ctxs []*Context
}

// packet returns a zero packet for a frame of flen bytes: the next slab entry
// for a small frame, a packet of its own otherwise. An entry whose decode is
// then refused is never handed out again — the stream ends there.
func (rx *rxConn) packet(flen int) *transport.Packet {
	if flen > slabMaxFrame {
		return new(transport.Packet)
	}
	if len(rx.slab) == 0 {
		rx.slab = make([]transport.Packet, slabPackets)
	}
	p := &rx.slab[0]
	rx.slab = rx.slab[1:]
	return p
}

// toRing is deliver for a live connection: push into the ring of the context
// the mux ID names. It looks a context up but never waits for one.
func (rx *rxConn) toRing(mux uint32, pkt *transport.Packet) rxState {
	idx := int(mux)
	if idx >= len(rx.ctxs) {
		rx.ctxs = append(rx.ctxs, make([]*Context, idx+1-len(rx.ctxs))...) // idx < maxMux
	}
	c := rx.ctxs[idx]
	if c == nil {
		if c = rx.net.context(idx); c == nil {
			return rxNoContext
		}
		rx.ctxs[idx] = c
	}
	if !c.recvQ.Push(pkt) {
		return rxRingFull
	}
	return rxMore
}

// landingBody is a landed frame between its head, decoded, and the last byte
// of its body.
type landingBody struct {
	// pkt goes to context mux once the body is whole. nil: the region was
	// gone, and body and packet are dropped.
	pkt *transport.Packet
	mux uint32
	// dst is the part of the region still to fill (empty while dropping),
	// left the body bytes the stream still owes.
	dst  []byte
	left int
}

// step advances the receive half without ever waiting: deliver what is
// already in hand, read once, deliver every frame the read completed. ctr and
// by name the counter a read that returned bytes ticks. The stream fails
// validation, and ends with errBadFrame, on a declared length outside
// [MuxHeaderSize, maxFrame], a plain frame longer than the window, a mux ID ≥
// maxMux, a packet DecodeMuxFrameInto rejects or a landed frame land refuses.
func (rx *rxConn) step(ctr *spc.Set, by spc.Counter) rxState {
	if rx.err != nil {
		return rxEnded
	}
	for read := false; ; read = true {
		if st := rx.decode(); st != rxMore || read {
			return st
		}
		if rx.dead {
			// Closed under us: what had been read is delivered, as it would
			// be had the close come a moment later; nothing more is read.
			return rx.end(net.ErrClosed)
		}
		// Move the partial frame (less than one frame, usually nothing) to the
		// front so the read has the whole window behind it.
		rx.hi = copy(rx.buf, rx.buf[rx.lo:rx.hi])
		rx.lo = 0
		b, into := &rx.body, rx.buf[rx.hi:]
		landing := len(b.dst) > 0
		switch {
		case landing:
			into = b.dst // from the socket straight into the region; the window is empty
		case rx.capped:
			into = into[:min(len(into), maxLandedHead)]
		}
		m, err := rx.readOnce(into)
		switch {
		case m > 0:
			if landing {
				b.dst, b.left = b.dst[m:], b.left-m
			} else {
				rx.hi += m
				rx.capped = false
			}
			ctr.Inc(by)
		case err == errWouldBlock:
			return rxIdle
		case err != nil:
			return rx.end(err)
		}
	}
}

// readOnce reads the connection once. With a raw descriptor that never
// blocks. Without one only the goroutine gets here and the read may block, so
// the mutex is released meanwhile: close must not wait behind it.
func (rx *rxConn) readOnce(p []byte) (int, error) {
	if rx.raw != nil {
		return rawRead(rx.fd, p)
	}
	rx.mu.Unlock()
	defer rx.mu.Lock()
	return rx.src.Read(p)
}

// decode delivers the kept packet, moves what the window holds of a body in
// mid-air, then delivers every complete frame in the window. It returns rxMore
// when all of it went through and only a partial frame or body (or nothing)
// is left.
func (rx *rxConn) decode() rxState {
	if rx.held != nil {
		if st := rx.deliver(rx.heldMux, rx.held); st != rxMore {
			return st
		}
		rx.held = nil
	}
	if st := rx.landMore(); st != rxMore || rx.body.left > 0 {
		return st
	}
	buf := rx.buf
	for rx.hi-rx.lo >= 4 {
		flen := int(binary.LittleEndian.Uint32(buf[rx.lo:]))
		if flen < transport.MuxHeaderSize || flen > maxFrame {
			return rx.end(errBadFrame)
		}
		if rx.hi-rx.lo < min(4+flen, maxLandedHead, len(buf)) {
			break // too little to tell a landed frame, and have its head whole
		}
		if rx.hi-rx.lo >= transport.LandedPeek {
			if region, n, landed := transport.PeekLanded(buf[rx.lo:rx.hi]); landed {
				if st := rx.land(flen, region, n); st != rxMore || rx.body.left > 0 {
					return st
				}
				continue
			}
		}
		if 4+flen > len(buf) {
			return rx.end(errBadFrame) // a plain frame fits the window
		}
		end := rx.lo + 4 + flen
		if end > rx.hi {
			break // incomplete: read more
		}
		body := buf[rx.lo+4 : end]
		rx.lo = end
		pkt := rx.packet(flen)
		mux, err := transport.DecodeMuxFrameInto(pkt, body, &rx.payloads)
		if err != nil || mux >= maxMux {
			return rx.end(errBadFrame)
		}
		if st := rx.hand(mux, pkt); st != rxMore {
			return st
		}
	}
	return rxMore
}

// hand passes a decoded packet on, keeping it for the next step when deliver
// cannot take it.
func (rx *rxConn) hand(mux uint32, pkt *transport.Packet) rxState {
	if pkt.TraceID() != 0 {
		// Transport-arrival stamp for the critical-path attribution
		// layer: the gap to the matching-engine delivery stamp is the
		// receive-side progress lag (deliver_wait stage).
		pkt.Meta.ArriveNs = time.Now().UnixNano()
	}
	st := rx.deliver(mux, pkt)
	if st != rxMore {
		rx.held, rx.heldMux = pkt, mux
	}
	return st
}

// land begins the landed frame at the front of the window: flen is its
// declared length, region and n what its landing extension says. All is
// checked before a body byte moves: the head — the frame less its body — is at
// most maxLandedHead bytes and decodes to a rendezvous data packet for a mux
// ID below maxMux, and the body fits the region registered under that id;
// anything else is a bad frame. A region that is gone (the receive was torn
// down with its data on the way) is nobody's fault: body and packet are read
// off and dropped, late_packets ticks once, and the stream goes on.
func (rx *rxConn) land(flen int, region uint64, n int) rxState {
	head := 4 + flen - n
	if n > flen || head > maxLandedHead || head > rx.hi-rx.lo { // the last in a window below maxLandedHead only
		return rx.end(errBadFrame)
	}
	pkt := rx.packet(head)
	mux, err := transport.DecodeLandedHeadInto(pkt, rx.buf[rx.lo+4:rx.lo+head], &rx.payloads)
	dst, ok := rx.net.region(region)
	if err != nil || mux >= maxMux || ok && n > len(dst) {
		return rx.end(errBadFrame)
	}
	rx.capped = true
	if rx.lo += head; ok {
		rx.body = landingBody{pkt: pkt, mux: mux, dst: dst[:n], left: n}
	} else {
		rx.net.counters().Inc(spc.LatePackets)
		rx.body = landingBody{left: n}
	}
	return rx.landMore()
}

// landMore moves what the window holds of the body in mid-air, if there is
// one, and delivers the packet behind a body that is whole.
func (rx *rxConn) landMore() rxState {
	b := &rx.body
	m := min(rx.hi-rx.lo, b.left)
	c := copy(b.dst, rx.buf[rx.lo:rx.lo+m])
	b.dst, rx.windowed = b.dst[c:], rx.windowed+c
	rx.lo, b.left = rx.lo+m, b.left-m
	if b.left > 0 || b.pkt == nil {
		return rxMore
	}
	pkt := b.pkt
	b.pkt = nil
	return rx.hand(b.mux, pkt)
}

// end records why the stream is over; the first reason stands.
func (rx *rxConn) end(err error) rxState {
	if rx.err == nil {
		rx.err = err
	}
	return rxEnded
}

// kick wakes the goroutine out of its park, under mu, after a poller's step
// left something only the goroutine may do. The netpoller will not: it reports
// a socket only while there are bytes in it, and the poller took them. An
// expired read deadline does; the goroutine clears it before it looks at the
// record (unkick), so it either sees what the poller left or is woken after.
// Setting a deadline fails only on a closed connection, whose goroutine is
// on its way out already.
func (rx *rxConn) kick() {
	if !rx.kicked {
		rx.kicked = true
		_ = rx.src.SetReadDeadline(time.Unix(1, 0))
	}
}

// unkick is the goroutine taking a kick: reads may park again.
func (rx *rxConn) unkick() {
	rx.mu.Lock()
	rx.kicked = false
	_ = rx.src.SetReadDeadline(time.Time{})
	rx.mu.Unlock()
}

// run is the goroutine's loop around step, and returns why the stream ended.
// With a raw descriptor it parks on the netpoller until the socket is
// readable and steps only when no poller got there first; without one it
// steps with blocking reads. Either way it does the waiting step may not: for
// room in a full ring (which propagates as TCP flow control) and for a
// context the peer's first frame beat into existence. Writes block, so this
// loop is also what drains the socket of a rank that is busy computing, or
// stuck in a flush toward a peer that is flushing at it.
func (rx *rxConn) run() error {
	var (
		st  rxState
		mux uint32
		err error
	)
	ready := func(uintptr) bool {
		rx.mu.Lock()
		st = rx.step(rx.net.counters(), spc.WireReadsParked)
		mux, err = rx.heldMux, rx.err
		rx.mu.Unlock()
		return st != rxIdle
	}
	park := rx.raw != nil
	for {
		if !park {
			ready(0)
		} else if perr := rx.raw.Read(ready); errors.Is(perr, os.ErrDeadlineExceeded) {
			rx.unkick()
			continue
		} else if perr != nil {
			park = false // closed under the parked goroutine: deliver what is in hand
			continue
		}
		switch st {
		case rxRingFull:
			if rx.net.isClosed() {
				return net.ErrClosed // shutting down: nobody will drain the ring
			}
			rx.net.counters().Inc(spc.RingFullWaits)
			time.Sleep(10 * time.Microsecond)
		case rxNoContext:
			if rx.net.waitContext(int(mux)) == nil {
				return errBadFrame // no context to route it to
			}
		case rxEnded:
			return err
		}
	}
}

// linkTo returns the pair's shared physical link, establishing it on first
// use: dial, handshake, and deterministic resolution of symmetric-dial
// races (lower rank's dial wins). established reports whether this call
// dialed the surviving connection; false means an existing or adopted link
// was reused.
func (n *Network) linkTo(peer int) (lk *link, established bool, err error) {
	s := &n.slots[peer]
	s.mu.Lock()
	for {
		if s.link != nil && s.link.alive() {
			lk = s.link
			s.mu.Unlock()
			return lk, false, nil
		}
		if !s.dialing {
			break
		}
		s.cond.Wait()
	}
	s.dialing = true
	s.mu.Unlock()

	mine, derr := n.dialPeer(peer)

	s.mu.Lock()
	s.dialing = false
	defer s.cond.Broadcast()
	if derr != nil {
		// A concurrently adopted inbound connection still serves the path
		// even though our own dial failed.
		if s.link != nil && s.link.alive() {
			lk = s.link
			s.mu.Unlock()
			return lk, false, nil
		}
		s.mu.Unlock()
		return nil, false, derr
	}
	ctr := n.counters()
	ctr.Inc(spc.ConnsOpened)
	if s.link != nil && s.link.alive() {
		// Symmetric-dial race, and the peer's connection was adopted while
		// we dialed. Only a lower-ranked peer's inbound dial is adopted
		// during our own dial, so the winner is deterministic: discard our
		// connection and use the peer's.
		ctr.Inc(spc.DialRacesLost)
		lk = s.link
		s.mu.Unlock()
		mine.close()
		return lk, false, nil
	}
	s.link = mine
	s.mu.Unlock()
	// The link is bidirectional: the dialer reads the peer's frames off the
	// same connection.
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.serveFrames(mine, peer)
	}()
	return mine, true, nil
}

// dialPeer dials rank peer's listener and runs the full handshake: hello
// naming this rank, the server's clock echo, and the offset report.
func (n *Network) dialPeer(peer int) (*link, error) {
	lk, err := n.dial(n.cfg.Peers[peer], n.counters())
	if err != nil {
		return nil, err
	}
	conn := lk.conn
	var hs [helloSize]byte
	binary.LittleEndian.PutUint32(hs[0:], handshakeMagic)
	binary.LittleEndian.PutUint32(hs[4:], uint32(n.cfg.Rank))
	t1 := time.Now().UnixNano()
	binary.LittleEndian.PutUint64(hs[12:], uint64(t1))
	if _, err := conn.Write(hs[:]); err != nil {
		lk.close()
		return nil, fmt.Errorf("tcpnet: handshake: %w", err)
	}
	var echo [echoSize]byte
	if _, err := io.ReadFull(conn, echo[:]); err != nil {
		lk.close()
		return nil, fmt.Errorf("tcpnet: handshake echo: %w", err)
	}
	t4 := time.Now().UnixNano()
	t2 := int64(binary.LittleEndian.Uint64(echo[0:]))
	t3 := int64(binary.LittleEndian.Uint64(echo[8:]))
	theta := ((t2 - t1) + (t3 - t4)) / 2 // server − dialer
	delta := (t4 - t1) - (t3 - t2)       // round-trip delay
	var off [offsetSize]byte
	binary.LittleEndian.PutUint64(off[0:], uint64(theta))
	binary.LittleEndian.PutUint64(off[8:], uint64(delta))
	if _, err := conn.Write(off[:]); err != nil {
		lk.close()
		return nil, fmt.Errorf("tcpnet: handshake offset: %w", err)
	}
	// From the dialer's side, local − peer = dialer − server = −θ.
	n.recordClockSample(peer, -theta, delta)
	return lk, nil
}

// waitContext resolves a local context index, waiting out the startup race
// where a peer's first frame arrives before this process has created its
// contexts.
func (n *Network) waitContext(idx int) *Context {
	deadline := time.Now().Add(n.cfg.DialTimeout)
	for {
		if n.isClosed() {
			return nil
		}
		if c := n.context(idx); c != nil {
			return c
		}
		if time.Now().After(deadline) {
			return nil
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// context returns local context idx, or nil while it does not exist.
func (n *Network) context(idx int) *Context {
	if dev := n.device(); dev != nil {
		return dev.Context(idx)
	}
	return nil
}

// region returns the buffer registered under id, for a landed frame to fill,
// read under the lock deregistration clears it under.
func (n *Network) region(id uint64) ([]byte, bool) {
	dev := n.device()
	if dev == nil {
		return nil, false
	}
	dev.regMu.RLock()
	defer dev.regMu.RUnlock()
	if r, ok := dev.regions[id]; ok {
		return r.buf, true
	}
	return nil, false
}

// dial connects to a peer's listener, retrying while it comes up. Each
// failed attempt counts as a DialRetries SPC tick.
func (n *Network) dial(addr string, ctr *spc.Set) (*link, error) {
	deadline := time.Now().Add(n.cfg.DialTimeout)
	for {
		if n.isClosed() {
			return nil, errors.New("tcpnet: network closed")
		}
		conn, err := net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			if lk := n.register(conn); lk != nil {
				return lk, nil
			}
			return nil, errors.New("tcpnet: network closed")
		}
		ctr.Inc(spc.DialRetries)
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("tcpnet: dial %s: %w", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close flushes what is still pending, frames stranded by a failed flush
// included (best effort: no reconnects once closed), shuts the listener and
// every connection down and waits for the reader goroutines to drain.
func (n *Network) close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	conns := n.conns
	n.conns = nil
	n.mu.Unlock()
	n.backstop.Stop()
	for i := range n.slots {
		_ = n.flush(i, false, nil, nil) // best effort: nobody is left to tell
	}
	if n.ln != nil {
		n.ln.Close()
	}
	for _, lk := range conns {
		lk.close()
	}
	n.wg.Wait()
}

// Device is the local rank's NIC.
type Device struct {
	net      *Network
	counters *spc.Set

	mu       sync.Mutex
	contexts []*Context

	// regMu guards the region table, the unused rest of the region slab
	// regions are carved from, and each region's buf.
	regMu   sync.RWMutex
	regions map[uint64]*MemRegion
	regSlab []MemRegion
	nextReg uint64
}

// CreateContext allocates a context; depth <= 0 selects the default.
func (d *Device) CreateContext(depth int) (transport.Context, error) {
	if depth <= 0 {
		depth = defaultQueueDepth
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	c := &Context{
		index: len(d.contexts),
		net:   d.net,
		ctr:   d.counters,
		recvQ: ringbuf.NewMPSC[*transport.Packet](depth),
	}
	d.contexts = append(d.contexts, c)
	d.net.nctx.Store(int32(len(d.contexts)))
	return c, nil
}

// Context returns context i, or nil.
func (d *Device) Context(i int) *Context {
	d.mu.Lock()
	defer d.mu.Unlock()
	if i < 0 || i >= len(d.contexts) {
		return nil
	}
	return d.contexts[i]
}

// Connect wires a send path from local to context remoteIdx of rank peer, a
// rank other than this one (the runtime delivers a self send itself). The
// endpoint is lazily connectable: nothing is dialed here — the first Send
// establishes (or reuses) the pair's shared physical connection and the
// remote context index becomes the frame's mux ID.
func (d *Device) Connect(local transport.Context, peer int, remoteIdx int) (transport.Endpoint, error) {
	if lc, ok := local.(*Context); !ok || lc == nil {
		return nil, errors.New("tcpnet: local context is not a tcpnet context")
	}
	cfg := d.net.cfg
	if peer < 0 || peer >= cfg.Size {
		return nil, fmt.Errorf("tcpnet: peer %d outside world of %d: %w", peer, cfg.Size, transport.ErrNoEndpoint)
	}
	if peer == cfg.Rank {
		return nil, fmt.Errorf("tcpnet: peer %d is this rank: %w", peer, transport.ErrNoEndpoint)
	}
	if remoteIdx < 0 {
		return nil, fmt.Errorf("tcpnet: negative remote context %d: %w", remoteIdx, transport.ErrNoEndpoint)
	}
	return &Endpoint{dev: d, peer: peer, mux: uint32(remoteIdx)}, nil
}

// PeerClockOffsetNs implements transport.ClockSync on the device, delegating
// to the owning network's per-peer estimates.
func (d *Device) PeerClockOffsetNs(peer int) (int64, bool) {
	return d.net.PeerClockOffsetNs(peer)
}

// RegisterMemory registers a rendezvous sink, carved from the device's region
// slab (one sink per message; a region is never handed out twice).
func (d *Device) RegisterMemory(buf []byte) transport.MemRegion {
	d.regMu.Lock()
	defer d.regMu.Unlock()
	if len(d.regSlab) == 0 {
		d.regSlab = make([]MemRegion, regSlab)
	}
	r := &d.regSlab[0]
	d.regSlab = d.regSlab[1:]
	d.nextReg++
	r.id, r.buf = d.nextReg, buf
	d.regions[r.id] = r
	return r
}

// DeregisterMemory removes a region. The region lets go of its buffer, so its
// slab pins no user memory.
func (d *Device) DeregisterMemory(r transport.MemRegion) {
	if rr, ok := r.(*MemRegion); ok && rr != nil {
		d.regMu.Lock()
		delete(d.regions, rr.id)
		rr.buf = nil
		d.regMu.Unlock()
	}
}

// Close tears the whole network slice down: listener, every connection,
// reader goroutines. Contexts remain readable so in-flight progress loops
// can drain.
func (d *Device) Close() { d.net.close() }

// Context is one injection path with its own receive ring. It has no
// completion ring: tcp is two-sided only (a Context has no one-sided
// initiator), and a two-sided operation posts no completion. The ring is
// multi-producer (pollers of any context and reader goroutines push
// concurrently); Poll is called under the per-CRI lock.
type Context struct {
	index int
	net   *Network
	ctr   *spc.Set
	recvQ *ringbuf.MPSC[*transport.Packet]

	// rx is the batch drain pops the receive ring into; only the poller
	// touches it, so it starts a cache line past everything pushers read.
	_  [64]byte
	rx [64]*transport.Packet
}

// Poll drains inbound packets, up to max, and flushes whatever the rank has
// pending toward any peer — frames sent before the pass and frames its
// handlers sent during it. A pass that found the ring empty first flushes,
// then reads the sockets of the connections this context owns (see sweep)
// and drains what that brought, so a sender polling for nothing puts its
// bytes on the wire before it pays a read that finds none; a pass that
// popped anything reads none. Read and flush run on the calling thread; the
// read never blocks, and a flush with nothing pending costs one atomic load.
func (c *Context) Poll(handler func(transport.CQE), max int) int {
	if max <= 0 {
		max = 64
	}
	n := c.drain(handler, max)
	if n == 0 {
		if c.net.dirty.Load() != 0 {
			c.net.flushDirty(false)
		}
		if c.net.sweep(c) {
			n = c.drain(handler, max)
		}
	}
	if c.net.dirty.Load() != 0 {
		c.net.flushDirty(false)
	}
	return n
}

// drain hands up to max inbound packets to handler, popped a batch at a time
// (ringbuf.MPSC.PopBatch publishes the ring head once per batch).
func (c *Context) drain(handler func(transport.CQE), max int) int {
	n := 0
	for n < max {
		want := min(len(c.rx), max-n)
		k := c.recvQ.PopBatch(c.rx[:want])
		for _, p := range c.rx[:k] {
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

func (c *Context) Pending() bool { return c.recvQ.Len() > 0 }

// Endpoint is a lazily connectable send path to one remote context: a mux ID
// over the peer pair's shared connection. The first Send establishes the
// physical link (or attaches to one another context already established — a
// ConnsReused SPC tick).
type Endpoint struct {
	dev  *Device
	peer int
	mux  uint32

	// attached flips on the first successful link acquisition, so the
	// ConnsReused accounting ticks once per endpoint.
	attached atomic.Bool
}

// Send injects one packet. It posts no completion: returning nil means
// "copied into the peer's pending buffer", not "handed to the kernel" — the
// caller's buffer is free, which is what eager local completion promises.
// The bytes reach the socket at the end of the rank's next Context.Poll, inline here once the buffer crosses flushBytes, or from
// the backstop timer within backstopDelay if the caller never progresses (see
// the package comment). The first send toward a peer establishes the shared
// connection; a failed establishment surfaces as ErrConnEstablish and the
// packet is not injected. A write that fails later is retried once on a
// re-established link by the flush; if that fails too, the sends it carried
// have already completed, so the error is returned by the next Send toward
// the peer (whose packet is not injected) and counted in wire_flush_failures
// and wire_frames_stranded. A packet whose frame would not fit the peer's
// readBufSize window is refused before anything is queued: a plain frame is
// read whole through the window, and anything larger travels by PutNotify.
func (e *Endpoint) Send(p *transport.Packet) error {
	if size := 4 + transport.MuxHeaderSize + p.WireSize(); size > readBufSize {
		return fmt.Errorf("tcpnet: %d-byte frame to peer %d exceeds the %d-byte read window", size, e.peer, readBufSize)
	}
	if err := e.path(); err != nil {
		return err
	}
	e.dev.net.enqueue(e.peer, p, e.mux)
	return nil
}

// path readies the way to the peer: a flush that lost the peer earlier is
// reported, and the first use establishes the link.
func (e *Endpoint) path() error {
	n := e.dev.net
	if s := &n.slots[e.peer]; s.flushErr.Load() != nil {
		// An earlier flush lost this peer after its sends had completed:
		// report it now, once, before sitting in another dial.
		if perr := s.flushErr.Swap(nil); perr != nil {
			return *perr
		}
	}
	_, established, err := n.linkTo(e.peer)
	if err != nil {
		return fmt.Errorf("%w: peer %d: %v", transport.ErrConnEstablish, e.peer, err)
	}
	if !e.attached.Load() && !e.attached.Swap(true) && !established {
		e.dev.counters.Inc(spc.ConnsReused)
	}
	return nil
}

// PutNotify sends p as a landed frame: what is pending toward the peer, p's
// head and then src itself, uncopied, leave in one vectored write on the
// calling thread, and the peer's reader fills its region before it delivers p
// (rxConn.land). A write that fails, re-established link included, fails the
// call, and the peer never sees the transfer. The frame, body counted, is held
// to maxFrame and its head to maxLandedHead before a byte is written. Like
// Send it posts no completion.
func (e *Endpoint) PutNotify(regionID uint64, src []byte, p *transport.Packet) error {
	size := p.LandedFrameSize(len(src))
	if 4+size-len(src) > maxLandedHead {
		return fmt.Errorf("tcpnet: packet of %d wire bytes is too large to head a landed frame", p.WireSize())
	}
	if size > maxFrame {
		return fmt.Errorf("tcpnet: %d-byte frame to peer %d exceeds the %d-byte frame limit", size, e.peer, maxFrame)
	}
	if err := e.path(); err != nil {
		return err
	}
	var head [maxLandedHead]byte
	return e.dev.net.flush(e.peer, false, p.AppendLandedFrame(head[:0], e.mux, regionID, len(src)), src)
}

// MemRegion is a locally registered buffer (rendezvous sink bookkeeping).
type MemRegion struct {
	id  uint64
	buf []byte
}

func (r *MemRegion) ID() uint64 { return r.id }
func (r *MemRegion) Size() int  { return len(r.buf) }
