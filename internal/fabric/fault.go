package fabric

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/spc"
	"repro/internal/transport"
)

// faultInjector perturbs packet delivery at the device layer under a seeded
// RNG: drops, duplications, and delays. It models an imperfect network under
// the fabric's synchronous-delivery design, so the layers above can be
// tested against loss, duplication, and reordering instead of assuming the
// perfect wire the paper evaluates on. Injected faults are recorded in the
// attached counter set (nil-safe).
type faultInjector struct {
	mu   sync.Mutex
	rng  *rand.Rand
	cfg  transport.FaultConfig
	spcs *spc.Set
}

// newFaultInjector builds an injector for cfg recording into spcs (may be
// nil). Returns nil when cfg injects nothing, so callers can install the
// result unconditionally.
func newFaultInjector(cfg transport.FaultConfig, spcs *spc.Set) *faultInjector {
	if !cfg.Enabled() {
		return nil
	}
	cfg = cfg.WithDefaults()
	return &faultInjector{rng: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg, spcs: spcs}
}

// fate is the injector's verdict for one packet.
type fate struct {
	drop  bool
	dup   bool
	delay time.Duration // 0 = deliver now
}

// judge rolls the dice for one packet and advances the fault counters.
func (f *faultInjector) judge() fate {
	f.mu.Lock()
	var ft fate
	if f.cfg.Drop > 0 && f.rng.Float64() < f.cfg.Drop {
		ft.drop = true
	} else {
		if f.cfg.Dup > 0 && f.rng.Float64() < f.cfg.Dup {
			ft.dup = true
		}
		if f.cfg.Delay > 0 && f.rng.Float64() < f.cfg.Delay {
			ft.delay = f.cfg.DelayDur
		}
	}
	f.mu.Unlock()
	switch {
	case ft.drop:
		f.spcs.Inc(spc.FaultPacketsDropped)
	case ft.dup:
		f.spcs.Inc(spc.FaultPacketsDuplicated)
	}
	if ft.delay > 0 {
		f.spcs.Inc(spc.FaultPacketsDelayed)
	}
	return ft
}

// inject delivers p to dst subject to the injector's faults. A duplicated
// packet is the same *transport.Packet delivered twice — receivers must treat
// packets as read-only, which they do.
func (f *faultInjector) inject(dst *Context, p *transport.Packet) {
	ft := f.judge()
	if ft.drop {
		return
	}
	if ft.delay > 0 {
		dst.deliverDelayed(p, ft.delay)
		if ft.dup {
			dst.deliverDelayed(p, ft.delay)
		}
		return
	}
	dst.deliver(p)
	if ft.dup {
		dst.deliver(p)
	}
}
