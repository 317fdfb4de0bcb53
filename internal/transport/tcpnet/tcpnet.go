// Package tcpnet is a real TCP transport backend: each rank runs in its own
// OS process, listens on a TCP address, and reaches every peer over one
// multiplexed connection per peer pair, established lazily on first send.
// A dedicated reader goroutine per connection decodes wire frames into the
// target context's receive ring by mux ID, so the layers above (cri,
// progress, match, core) run unchanged over a real network — the point of
// the pluggable transport split.
//
// Connection model: all of a peer pair's contexts share one physical
// connection (Caps.Multiplexed). Nothing is dialed at world construction —
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
// rings. Each connection opens with a three-frame handshake that names the
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
// syscall) and posts the send completion — eager local completion means
// "buffer copied", which is all MPI promises. The pending buffer reaches the
// kernel in one Write when
//
//   - any of the rank's contexts finishes a Context.Poll (so Isend×128 then
//     WaitAll is one syscall, and a blocking Send is still exactly one,
//     issued by the Wait's first progress pass);
//   - it crosses flushBytes (so a rendezvous-sized frame goes out inline,
//     on the sending thread, as it always did);
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
// Read side: one reader goroutine per connection reads through a fixed
// readBufSize window and decodes every complete frame in place
// (DecodePacketInto copies the payload out) — one read per burst. Small
// frames decode into packets carved from a slabPackets-entry slab, one
// allocation per slab instead of one per frame; a frame above slabMaxFrame
// gets a packet of its own, so a slab never keeps a large payload alive.
// Only a frame larger than the window spills into a reused scratch slice,
// grown as its bytes actually arrive. Bytes off the socket
// are hostile until validated: a frame length outside
// [MuxHeaderSize, maxFrame], a mux index ≥ maxMux, or an undecodable packet
// closes the connection and ticks wire_frames_rejected.
//
// TCP is lossless and per-connection FIFO, so the backend advertises
// Caps.Lossless and the runtime skips the ack/retransmit delivery layer.
// (A dial-race handover can reorder frames across the old and new
// connection; the matching engine's out-of-sequence buffering absorbs
// exactly that.) One-sided operations are not supported: rendezvous bulk
// data rides the FIN control message (the copy-in/copy-out path), and
// window creation in internal/rma is refused up front.
package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
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
	// readBufSize is the reader's fixed window: holds several 64 KiB
	// rendezvous frames, so only multi-hundred-KiB frames take the spill path.
	readBufSize = 256 << 10
	// backstopDelay is the backstop timer period: far longer than a send
	// burst takes to reach its own progress call (a 128-message window posts
	// in tens of µs), short enough that a sender that never progresses delays
	// its peer by at most one period, half a millisecond.
	backstopDelay = 500 * time.Microsecond
	// maxFrame bounds a frame's declared length (mux header + packet): 64 MiB
	// is far above any payload the runtime's experiments send and keeps a
	// corrupt u32 from claiming gigabytes. Send refuses larger packets (the
	// runtime does not fragment, so this is the tcp message size ceiling).
	maxFrame = 64 << 20
	// maxMux bounds the mux ID (destination context index): contexts are
	// CRIs, a few dozen per rank, so 1024 only caps the reader's demux table.
	maxMux = 1 << 10
	// slabPackets is how many decoded packets share one allocation. Nothing
	// returns a slab: the collector frees it when the last of its packets is
	// dropped, so one long-lived unexpected message keeps its slab reachable —
	// slabPackets packets, about 9 KiB, plus whatever payloads of at most
	// slabMaxFrame its slab-mates still carry — and no more.
	slabPackets = 64
	// slabMaxFrame is the largest frame decoded into the slab. Above it the
	// payload dwarfs the packet and sharing would only let one slow consumer
	// pin its slab-mates' payloads (64 KiB rendezvous FINs measurably so).
	slabMaxFrame = 512
)

// errBadFrame reports inbound bytes that failed frame validation.
var errBadFrame = errors.New("tcpnet: invalid frame")

// Caps describes the TCP wire: lossless FIFO streams multiplexed over one
// lazily dialed connection per peer pair, two-sided only, no fault
// injection (the kernel would repair injected faults anyway).
func Caps() transport.Caps {
	return transport.Caps{Name: "tcp", Lossless: true, Multiplexed: true}
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
	conns  []net.Conn
	closed bool
	wg     sync.WaitGroup

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

// link is one live physical connection to a peer.
type link struct {
	conn   net.Conn
	broken atomic.Bool
}

func (l *link) alive() bool { return !l.broken.Load() }

func (l *link) close() {
	l.broken.Store(true)
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
		n.flush(peer, false)
	} else if wasClean {
		n.armBackstop()
	}
}

// flushDirty flushes every peer with unflushed frames, on the calling thread.
func (n *Network) flushDirty(backstop bool) {
	for i := range n.slots {
		if n.slots[i].dirty.Load() {
			n.flush(i, backstop)
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
func (n *Network) flush(peer int, backstop bool) {
	s := &n.slots[peer]
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.pmu.Lock()
	buf, frames := s.pend, s.frames
	if len(buf) == 0 {
		s.pmu.Unlock()
		return
	}
	s.pend, s.frames = s.spare[:0], 0
	if s.dirty.Swap(false) {
		n.dirty.Add(-1)
	}
	s.pmu.Unlock()

	ctr := n.counters()
	err := n.writeOut(peer, buf, ctr)
	if err == nil {
		s.spare = buf[:0]
		ctr.Inc(spc.WireFlushes)
		ctr.Add(spc.WireFramesFlushed, int64(frames))
		if backstop {
			ctr.Inc(spc.WireBackstopFlushes)
		}
		return
	}
	s.pmu.Lock()
	s.pend = append(buf, s.pend...)
	s.frames += frames
	s.pmu.Unlock()
	s.spare = nil
	// A copy local to this branch: taking err's own address would move it to
	// the heap on every flush, successful ones included.
	failed := err
	s.flushErr.Store(&failed)
	ctr.Inc(spc.WireFlushFailures)
	ctr.Add(spc.WireFramesStranded, int64(frames))
}

// writeOut writes buf to the peer's link. A failed write marks the link
// broken for every sharer and is retried once, whole, on a re-established
// link: a peer restart or transient RST should not kill the path for the
// rest of the run. The new stream starts at a frame boundary, so replaying
// from the start of buf is safe; frames the peer had already consumed are
// absorbed by the matching engine's sequence dedup.
func (n *Network) writeOut(peer int, buf []byte, ctr *spc.Set) error {
	var werr error
	for attempt := 0; attempt < 2; attempt++ {
		lk, _, err := n.linkTo(peer)
		if err != nil {
			return fmt.Errorf("%w: peer %d: %v", transport.ErrConnEstablish, peer, err)
		}
		if attempt > 0 {
			ctr.Inc(spc.Reconnects)
		}
		m, err := lk.conn.Write(buf)
		if err == nil {
			return nil
		}
		werr = err
		if m > 0 && m < len(buf) {
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

// counters returns the device's SPC set, or nil before device creation (a
// nil *spc.Set ignores updates).
func (n *Network) counters() *spc.Set {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.dev == nil {
		return nil
	}
	return n.dev.counters
}

func (n *Network) isClosed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

// NewDevice creates the device serving the local rank. rank must equal
// Config.Rank — a TCP network hosts exactly one rank per process. Fault and
// scramble settings in cfg are refused (the capability flags say so, and the
// world constructor checks them first).
func (n *Network) NewDevice(rank int, m hw.Machine, cfg transport.DeviceConfig) (transport.Device, error) {
	if rank != n.cfg.Rank {
		return nil, fmt.Errorf("tcpnet: device for rank %d on a network serving rank %d", rank, n.cfg.Rank)
	}
	if cfg.ScrambleWindow > 0 || cfg.Faults.Enabled() {
		return nil, transport.ErrNotSupported
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, errors.New("tcpnet: network closed")
	}
	if n.dev != nil {
		return nil, errors.New("tcpnet: device already created")
	}
	n.dev = &Device{net: n, machine: m, counters: cfg.Counters, regions: make(map[uint64]*MemRegion)}
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
		if !n.register(conn) {
			conn.Close()
			return
		}
		n.wg.Add(1)
		go n.serveConn(conn)
	}
}

// register records a connection for Close; reports false after shutdown.
func (n *Network) register(conn net.Conn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	n.conns = append(n.conns, conn)
	return true
}

// serveConn answers the handshake (including the clock-sync exchange) on an
// inbound connection, offers it for adoption as the peer pair's shared
// link, then demultiplexes its frames until the peer closes. Adoption and
// frame service are independent: a connection that lost its dial race still
// delivers whatever frames the peer wrote before converging.
func (n *Network) serveConn(conn net.Conn) {
	defer n.wg.Done()
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
	n.adopt(peer, conn)
	n.serveFrames(conn)
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
func (n *Network) adopt(peer int, conn net.Conn) {
	s := &n.slots[peer]
	s.mu.Lock()
	defer s.mu.Unlock()
	if peer < n.cfg.Rank {
		old := s.link
		s.link = &link{conn: conn}
		if old != nil && old.alive() {
			n.counters().Inc(spc.DialRacesLost)
			old.close()
		}
		s.cond.Broadcast()
		return
	}
	if (s.link == nil || !s.link.alive()) && !s.dialing {
		s.link = &link{conn: conn}
		s.cond.Broadcast()
	}
}

// serveFrames demultiplexes conn's frames into the destination contexts'
// receive rings until the connection closes or sends bytes that fail
// validation. Contexts are resolved once per mux ID and cached; resolution
// waits out the startup race where a peer's first send lands before this
// process created its contexts.
func (n *Network) serveFrames(conn net.Conn) {
	var ctxs []*Context
	fr := frameReader{buf: make([]byte, readBufSize)}
	err := fr.run(conn, func(mux uint32, pkt *transport.Packet) bool {
		idx := int(mux)
		if idx >= len(ctxs) {
			ctxs = append(ctxs, make([]*Context, idx+1-len(ctxs))...) // idx < maxMux
		}
		if ctxs[idx] == nil {
			if ctxs[idx] = n.waitContext(idx); ctxs[idx] == nil {
				return false
			}
		}
		ctxs[idx].push(pkt)
		return true
	})
	if errors.Is(err, errBadFrame) && !n.isClosed() {
		n.counters().Inc(spc.WireFramesRejected)
		conn.Close()
	}
}

// frameReader decodes length-prefixed mux frames from a byte stream through
// one fixed window, in place; scratch is the reused spill for a frame larger
// than the window, slab the unused rest of the current packet slab.
type frameReader struct {
	buf     []byte
	scratch []byte
	slab    []transport.Packet
}

// packet returns a zero packet for a frame of flen bytes: the next slab entry
// for a small frame, a packet of its own otherwise. An entry whose decode is
// then refused is never handed out again — the stream ends there.
func (fr *frameReader) packet(flen int) *transport.Packet {
	if flen > slabMaxFrame {
		return new(transport.Packet)
	}
	if len(fr.slab) == 0 {
		fr.slab = make([]transport.Packet, slabPackets)
	}
	p := &fr.slab[0]
	fr.slab = fr.slab[1:]
	return p
}

// run reads r until it fails, handing every decoded frame to deliver. It
// returns r's error, or errBadFrame when the stream fails validation: a
// declared length outside [MuxHeaderSize, maxFrame], a mux ID ≥ maxMux, a
// packet DecodeMuxFrameInto rejects, or a frame deliver refuses.
func (fr *frameReader) run(r io.Reader, deliver func(mux uint32, pkt *transport.Packet) bool) error {
	buf := fr.buf
	lo, hi := 0, 0 // buf[lo:hi] is read but not yet decoded
	for {
		for hi-lo >= 4 {
			flen := int(binary.LittleEndian.Uint32(buf[lo:]))
			if flen < transport.MuxHeaderSize || flen > maxFrame {
				return errBadFrame
			}
			var body []byte
			if end := lo + 4 + flen; end <= hi {
				body, lo = buf[lo+4:end], end
			} else if 4+flen > len(buf) {
				var err error
				if body, err = fr.spill(r, buf[lo+4:hi], flen); err != nil {
					return err
				}
				lo, hi = 0, 0
			} else {
				break // incomplete, but it fits the window: read more
			}
			pkt := fr.packet(flen)
			mux, err := transport.DecodeMuxFrameInto(pkt, body)
			if err != nil || mux >= maxMux {
				return errBadFrame
			}
			if pkt.TraceID != 0 {
				// Transport-arrival stamp for the critical-path attribution
				// layer: the gap to the matching-engine delivery stamp is the
				// receive-side progress lag (deliver_wait stage).
				pkt.ArriveNs = time.Now().UnixNano()
			}
			if !deliver(mux, pkt) {
				return errBadFrame
			}
		}
		// Move the partial frame (less than one frame, usually nothing) to the
		// front so the next read has the whole window behind it.
		hi = copy(buf, buf[lo:hi])
		lo = 0
		m, err := r.Read(buf[hi:])
		hi += m
		if err != nil && m == 0 {
			return err
		}
	}
}

// spill assembles a frame of flen bytes that does not fit the window: head
// is the part already read, the rest comes straight from r into the scratch
// slice. Scratch grows by doubling as bytes actually arrive and never past
// flen, so a peer must send what it declares before it costs memory.
func (fr *frameReader) spill(r io.Reader, head []byte, flen int) ([]byte, error) {
	s := fr.scratch
	if cap(s) < len(head) {
		s = make([]byte, 0, min(flen, len(fr.buf))) // head is shorter than both
	}
	s = append(s[:0], head...)
	for len(s) < flen {
		if len(s) == cap(s) {
			grown := make([]byte, len(s), min(flen, max(2*cap(s), len(fr.buf))))
			copy(grown, s)
			s = grown
		}
		m, err := r.Read(s[len(s):min(cap(s), flen)])
		s = s[:len(s)+m]
		if err != nil && len(s) < flen {
			fr.scratch = s[:0]
			return nil, err
		}
	}
	fr.scratch = s[:0]
	return s, nil
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

	conn, derr := n.dialPeer(peer)

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
		conn.Close()
		return lk, false, nil
	}
	lk = &link{conn: conn}
	s.link = lk
	s.mu.Unlock()
	// The link is bidirectional: the dialer reads the peer's frames off the
	// same connection.
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.serveFrames(conn)
	}()
	return lk, true, nil
}

// dialPeer dials rank peer's listener and runs the full handshake: hello
// naming this rank, the server's clock echo, and the offset report.
func (n *Network) dialPeer(peer int) (net.Conn, error) {
	conn, err := n.dial(n.cfg.Peers[peer], n.counters())
	if err != nil {
		return nil, err
	}
	var hs [helloSize]byte
	binary.LittleEndian.PutUint32(hs[0:], handshakeMagic)
	binary.LittleEndian.PutUint32(hs[4:], uint32(n.cfg.Rank))
	t1 := time.Now().UnixNano()
	binary.LittleEndian.PutUint64(hs[12:], uint64(t1))
	if _, err := conn.Write(hs[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("tcpnet: handshake: %w", err)
	}
	var echo [echoSize]byte
	if _, err := io.ReadFull(conn, echo[:]); err != nil {
		conn.Close()
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
		conn.Close()
		return nil, fmt.Errorf("tcpnet: handshake offset: %w", err)
	}
	// From the dialer's side, local − peer = dialer − server = −θ.
	n.recordClockSample(peer, -theta, delta)
	return conn, nil
}

// waitContext resolves a local context index, waiting out the startup race
// where a peer's first frame arrives before this process has created its
// contexts.
func (n *Network) waitContext(idx int) *Context {
	deadline := time.Now().Add(n.cfg.DialTimeout)
	for {
		n.mu.Lock()
		dev, closed := n.dev, n.closed
		n.mu.Unlock()
		if closed {
			return nil
		}
		if dev != nil {
			if c := dev.Context(idx); c != nil {
				return c
			}
		}
		if time.Now().After(deadline) {
			return nil
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// dial connects to a peer's listener, retrying while it comes up. Each
// failed attempt counts as a DialRetries SPC tick.
func (n *Network) dial(addr string, ctr *spc.Set) (net.Conn, error) {
	deadline := time.Now().Add(n.cfg.DialTimeout)
	for {
		if n.isClosed() {
			return nil, errors.New("tcpnet: network closed")
		}
		conn, err := net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			if !n.register(conn) {
				conn.Close()
				return nil, errors.New("tcpnet: network closed")
			}
			return conn, nil
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
		n.flush(i, false)
	}
	if n.ln != nil {
		n.ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	n.wg.Wait()
}

// Device is the local rank's NIC.
type Device struct {
	net      *Network
	machine  hw.Machine
	counters *spc.Set

	mu       sync.Mutex
	contexts []*Context

	regMu   sync.RWMutex
	regions map[uint64]*MemRegion
	nextReg uint64
}

func (d *Device) Machine() hw.Machine { return d.machine }

func (d *Device) Caps() transport.Caps { return Caps() }

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
		cq:    ringbuf.NewMPSC[transport.CQE](depth),
	}
	d.contexts = append(d.contexts, c)
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

// Connect wires a send path from local to context remoteIdx of rank peer.
// Same-rank endpoints short-circuit in process. Remote endpoints are lazily
// connectable: nothing is dialed here — the first Send establishes (or
// reuses) the pair's shared physical connection and the remote context
// index becomes the frame's mux ID.
func (d *Device) Connect(local transport.Context, peer int, remoteIdx int) (transport.Endpoint, error) {
	lc, ok := local.(*Context)
	if !ok || lc == nil {
		return nil, errors.New("tcpnet: local context is not a tcpnet context")
	}
	cfg := d.net.cfg
	if peer < 0 || peer >= cfg.Size {
		return nil, fmt.Errorf("tcpnet: peer %d outside world of %d: %w", peer, cfg.Size, transport.ErrNoEndpoint)
	}
	if peer == cfg.Rank {
		rc := d.Context(remoteIdx)
		if rc == nil {
			return nil, fmt.Errorf("tcpnet: no local context %d: %w", remoteIdx, transport.ErrNoEndpoint)
		}
		return &Endpoint{local: lc, loop: rc}, nil
	}
	if remoteIdx < 0 {
		return nil, fmt.Errorf("tcpnet: negative remote context %d: %w", remoteIdx, transport.ErrNoEndpoint)
	}
	return &Endpoint{local: lc, dev: d, peer: peer, mux: uint32(remoteIdx)}, nil
}

// PeerClockOffsetNs implements transport.ClockSync on the device, delegating
// to the owning network's per-peer estimates.
func (d *Device) PeerClockOffsetNs(peer int) (int64, bool) {
	return d.net.PeerClockOffsetNs(peer)
}

func (d *Device) RegisterMemory(buf []byte) transport.MemRegion {
	d.regMu.Lock()
	defer d.regMu.Unlock()
	d.nextReg++
	r := &MemRegion{id: d.nextReg, buf: buf}
	d.regions[r.id] = r
	return r
}

func (d *Device) DeregisterMemory(r transport.MemRegion) {
	if rr, ok := r.(*MemRegion); ok {
		d.regMu.Lock()
		delete(d.regions, rr.id)
		d.regMu.Unlock()
	}
}

func (d *Device) Region(id uint64) (transport.MemRegion, bool) {
	d.regMu.RLock()
	r, ok := d.regions[id]
	d.regMu.RUnlock()
	if !ok {
		return nil, false
	}
	return r, true
}

// Close tears the whole network slice down: listener, every connection,
// reader goroutines. Contexts remain readable so in-flight progress loops
// can drain.
func (d *Device) Close() { d.net.close() }

// Context is one injection path with its own receive and completion rings.
// The rings are multi-producer (reader goroutines and local endpoints push
// concurrently); Poll is called under the per-CRI lock.
type Context struct {
	index int
	net   *Network
	ctr   *spc.Set
	recvQ *ringbuf.MPSC[*transport.Packet]
	cq    *ringbuf.MPSC[transport.CQE]
}

func (c *Context) Index() int { return c.index }

// Poll drains completions then inbound packets, up to max, then flushes
// whatever the rank has pending toward any peer — frames sent before the
// pass and frames its handlers sent during it. The flush runs on the calling
// thread; an idle pass pays one atomic load for it.
func (c *Context) Poll(handler func(transport.CQE), max int) int {
	if max <= 0 {
		max = 64
	}
	n := 0
	for n < max {
		e, ok := c.cq.Pop()
		if !ok {
			break
		}
		handler(e)
		n++
	}
	for n < max {
		p, ok := c.recvQ.Pop()
		if !ok {
			break
		}
		handler(transport.CQE{Kind: transport.CQERecv, Packet: p})
		n++
	}
	if c.net.dirty.Load() != 0 {
		c.net.flushDirty(false)
	}
	return n
}

func (c *Context) Pending() bool { return c.cq.Len() > 0 || c.recvQ.Len() > 0 }

func (c *Context) push(p *transport.Packet) {
	for !c.recvQ.Push(p) {
		// Ring full: the receiver is slower than the wire. Backpressure by
		// holding the reader goroutine (TCP flow control propagates it).
		c.ctr.Inc(spc.RingFullWaits)
		time.Sleep(10 * time.Microsecond)
	}
}

func (c *Context) complete(e transport.CQE) {
	for !c.cq.Push(e) {
		c.ctr.Inc(spc.RingFullWaits)
		time.Sleep(10 * time.Microsecond)
	}
}

// TCP is two-sided only.
func (c *Context) Put(r transport.MemRegion, offset int, src []byte, token any) error {
	return transport.ErrNotSupported
}
func (c *Context) Get(r transport.MemRegion, offset int, dst []byte, token any) error {
	return transport.ErrNotSupported
}
func (c *Context) Accumulate(r transport.MemRegion, offset int, operand []int64, op transport.AccumulateOp, token any) error {
	return transport.ErrNotSupported
}
func (c *Context) FetchAndOp(r transport.MemRegion, offset int, operand int64, op transport.AccumulateOp, result *int64, token any) error {
	return transport.ErrNotSupported
}
func (c *Context) CompareAndSwap(r transport.MemRegion, offset int, compare, swap int64, result *int64, token any) error {
	return transport.ErrNotSupported
}

// Endpoint is a lazily connectable send path to one remote context: either
// an in-process loopback (same rank) or a mux ID over the peer pair's
// shared connection. The first Send establishes the physical link (or
// attaches to one another context already established — a ConnsReused SPC
// tick).
type Endpoint struct {
	local *Context
	loop  *Context // same-rank short circuit; nil for TCP endpoints

	dev  *Device
	peer int
	mux  uint32

	// attached flips on the first successful link acquisition, so the
	// ConnsReused accounting ticks once per endpoint.
	attached atomic.Bool
}

// Send injects one packet and posts the local send completion. On TCP the
// completion means "copied into the peer's pending buffer", not "handed to
// the kernel" — the caller's buffer is free, which is what eager local
// completion promises. The bytes reach the socket at the end of the rank's
// next Context.Poll, inline here once the buffer crosses flushBytes, or from
// the backstop timer within backstopDelay if the caller never progresses (see
// the package comment). The first send toward a peer establishes the shared
// connection; a failed establishment surfaces as ErrConnEstablish and the
// packet is not injected. A write that fails later is retried once on a
// re-established link by the flush; if that fails too, the sends it carried
// have already completed, so the error is returned by the next Send toward
// the peer (whose packet is not injected) and counted in wire_flush_failures
// and wire_frames_stranded. Packets whose frame would exceed maxFrame
// (64 MiB) are refused.
func (e *Endpoint) Send(p *transport.Packet) error {
	if err := e.inject(p); err != nil {
		return err
	}
	e.local.complete(transport.CQE{Kind: transport.CQESendComplete, Packet: p})
	return nil
}

// Resend re-injects without a new completion. Unreachable in practice: the
// runtime disables the retransmit layer on lossless backends.
func (e *Endpoint) Resend(p *transport.Packet) error { return e.inject(p) }

func (e *Endpoint) inject(p *transport.Packet) error {
	if e.loop != nil {
		e.loop.push(p)
		return nil
	}
	if size := transport.MuxHeaderSize + p.WireSize(); size > maxFrame {
		return fmt.Errorf("tcpnet: %d-byte frame to peer %d exceeds the %d-byte frame limit", size, e.peer, maxFrame)
	}
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
	n.enqueue(e.peer, p, e.mux)
	return nil
}

// PutRegion requires one-sided support, which TCP does not advertise.
func (e *Endpoint) PutRegion(regionID uint64, offset int, src []byte, token any) error {
	return transport.ErrNotSupported
}

// MemRegion is a locally registered buffer (rendezvous sink bookkeeping).
type MemRegion struct {
	id  uint64
	buf []byte
}

func (r *MemRegion) ID() uint64    { return r.id }
func (r *MemRegion) Size() int     { return len(r.buf) }
func (r *MemRegion) Bytes() []byte { return r.buf }
