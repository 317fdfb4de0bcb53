package simnet

import "repro/internal/prof"

// rankSnapshot is one rank's time breakdown in the profiler's own form: the
// thread clocks and lock sites of every listed proc, each proc's in its
// profiler's order. Process mode lists all sender (or receiver) processes,
// aggregated the way thread mode aggregates threads.
func rankSnapshot(rank int, procs ...*simProc) prof.RankSnapshot {
	rs := prof.RankSnapshot{Rank: rank}
	for _, p := range procs {
		sn := p.prof.Snapshot()
		rs.Snap.Threads = append(rs.Snap.Threads, sn.Threads...)
		rs.Snap.Sites = append(rs.Snap.Sites, sn.Sites...)
	}
	return rs
}
