package simnet

import (
	"sort"

	"repro/internal/prof"
	"repro/internal/sim"
)

// siteSnapshots renders every lock of the proc as a profiler site, in the
// same naming scheme the real runtime binds (prof package docs). sim.Lock
// does not track try-failures, max wait, or hold time; those fields stay
// zero.
func (p *simProc) siteSnapshots() []prof.SiteSnapshot {
	var out []prof.SiteSnapshot
	add := func(name string, cri int, comm uint32, l *sim.Lock) {
		if l == nil {
			return
		}
		out = append(out, prof.SiteSnapshot{
			Name: name, CRI: cri, Comm: comm,
			Acquisitions: l.Acquisitions(),
			Contended:    l.Contended(),
			WaitNs:       int64(l.WaitTime()),
		})
	}
	add("core.biglock", -1, 0, p.bigLock)
	add("progress.serial", -1, 0, p.progLock.l)
	for _, x := range p.ctxs {
		add("cri.instance", x.index, 0, x.lock.l)
	}
	ids := make([]uint32, 0, len(p.comms))
	for id := range p.comms {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		add("match.comm", -1, id, p.comms[id].lock)
	}
	return out
}

// rankSnapshot is one rank's time breakdown in the profiler's own form:
// the thread clocks of every listed proc plus their lock sites, each proc's
// sites in siteSnapshots order. Process mode lists all sender (or receiver)
// processes, aggregated the way thread mode aggregates threads.
func rankSnapshot(rank int, procs ...*simProc) prof.RankSnapshot {
	rs := prof.RankSnapshot{Rank: rank}
	for _, p := range procs {
		rs.Snap.Threads = append(rs.Snap.Threads, p.prof.Snapshot().Threads...)
		rs.Snap.Sites = append(rs.Snap.Sites, p.siteSnapshots()...)
	}
	return rs
}
