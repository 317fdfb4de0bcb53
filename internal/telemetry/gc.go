package telemetry

import "runtime/metrics"

// GCCost is what the Go collector cost over one section of a run: the cycles
// it completed and its share of the CPU time GOMAXPROCS made available. The
// collector is one per OS process, so in-process ranks share one reading.
type GCCost struct {
	// Cycles counts the collections completed in the section.
	Cycles uint64
	// CPUShare is the collector's CPU time over all available CPU time, 0 to
	// 1. The runtime accounts both at the end of each collection, so the
	// share covers the collections the section completed.
	CPUShare float64
}

// GCMark is one reading of the collector's cumulative counters.
type GCMark struct {
	cycles          uint64
	gcCPU, totalCPU float64
}

// gcMetrics are the counters a GCMark reads, in its field order.
var gcMetrics = [...]string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// ReadGC takes a reading of the collector's counters.
func ReadGC() GCMark {
	var s [len(gcMetrics)]metrics.Sample
	for i, name := range gcMetrics {
		s[i].Name = name
	}
	metrics.Read(s[:])
	return GCMark{cycles: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}

// Since returns the collector's cost from m to now.
func (m GCMark) Since() GCCost {
	now := ReadGC()
	c := GCCost{Cycles: now.cycles - m.cycles}
	if total := now.totalCPU - m.totalCPU; total > 0 {
		c.CPUShare = (now.gcCPU - m.gcCPU) / total
	}
	return c
}
