package fabric

import (
	"math/rand"
	"sync"

	"repro/internal/transport"
)

// scrambler adversarially reorders packet delivery within a bounded window.
// Real networks provide no ordering guarantee (Section II-C); in the
// simulated fabric natural reordering only arises from concurrent senders,
// so tests install a scrambler to exercise the sequence-validation and
// out-of-sequence buffering paths deterministically.
type scrambler struct {
	mu     sync.Mutex
	rng    *rand.Rand
	window int
	held   []*transport.Packet
}

// newScrambler returns a scrambler holding back up to window packets,
// releasing them in seeded-random order.
func newScrambler(seed int64, window int) *scrambler {
	return &scrambler{rng: rand.New(rand.NewSource(seed)), window: window}
}

// scramble accepts one packet and returns zero or more packets to deliver
// now, in scrambled order.
func (s *scrambler) scramble(p *transport.Packet) []*transport.Packet {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.held = append(s.held, p)
	// Hold until the window fills, with occasional early release to avoid
	// starving short streams.
	if len(s.held) < s.window && s.rng.Intn(4) != 0 {
		return nil
	}
	return s.release()
}

// flush releases everything held, in random order: an idle Poll calls it so
// a scrambled stream can never strand its tail.
func (s *scrambler) flush() []*transport.Packet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.release()
}

// release empties held into a fresh slice in seeded-random order; s.mu held.
func (s *scrambler) release() []*transport.Packet {
	out := make([]*transport.Packet, len(s.held))
	for i, j := range s.rng.Perm(len(s.held)) {
		out[i] = s.held[j]
	}
	s.held = s.held[:0]
	return out
}
