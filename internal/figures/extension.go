package figures

import (
	"repro/internal/cri"
	"repro/internal/hw"
	"repro/internal/progress"
	"repro/internal/simnet"
)

// ExtensionMatching quantifies what the paper leaves open in Section III-F:
// how much of the thread-mode gap is the matching *search* versus the
// matching *serialization* inherent in MPI's ordered-matching semantics. A
// communicator asserting no wildcards (core.Info.NoWildcards) matches on
// the runtime's sharded engine: O(1) per channel, and one lock per shard
// instead of one per communicator. Against the list engine under serial
// progress it removes the search; under concurrent progress it removes the
// serialization too, which comm-per-pair removes by restructuring the
// application instead.
func ExtensionMatching(sc Scale) Table {
	m := hw.AlembertHaswell()
	t := Table{
		Title:  "Extension — list matching vs a communicator asserting no wildcards",
		XLabel: "msg/s by thread pairs",
		XS:     sc.PairPoints,
		Notes:  "Multirate pairwise, 0-byte messages, 20 dedicated instances",
	}
	type variant struct {
		label    string
		prog     progress.Mode
		asserted bool
		cpp      bool
	}
	variants := []variant{
		{"list matching, serial progress", progress.Serial, false, false},
		{"asserted, serial progress", progress.Serial, true, false},
		{"list matching, concurrent progress", progress.Concurrent, false, false},
		{"asserted, concurrent progress", progress.Concurrent, true, false},
		{"list matching + comm-per-pair", progress.Concurrent, false, true},
	}
	for _, v := range variants {
		row := Row{Label: v.label}
		for _, pairs := range sc.PairPoints {
			cfg := simnet.Config{
				Machine: m, Pairs: pairs, Window: sc.Window, Iters: sc.Iters,
				NumInstances: 20, Assignment: cri.Dedicated, Progress: v.prog,
				NoWildcards: v.asserted, CommPerPair: v.cpp,
			}
			row.Values = append(row.Values, simnet.RunMultirate(cfg).Rate)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
