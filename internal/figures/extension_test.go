package figures

import "testing"

func TestExtensionMatchingShape(t *testing.T) {
	sc := Scale{Window: 128, Iters: 6, PairPoints: []int{20}}
	tab := ExtensionMatching(sc)
	rates := map[string]float64{}
	for _, r := range tab.Rows {
		rates[r.Label] = r.Values[0]
	}
	listSerial := rates["list matching, serial progress"]
	serial := rates["asserted, serial progress"]
	concurrent := rates["asserted, concurrent progress"]
	cpp := rates["list matching + comm-per-pair"]
	// The assertion must beat list matching under serial progress (the
	// search is removed)...
	if serial <= listSerial {
		t.Fatalf("asserted (%.0f) did not beat list (%.0f) under serial progress", serial, listSerial)
	}
	// ...and concurrent progress must lift it further: with one lock per
	// shard the matching serialization no longer binds...
	if concurrent <= serial {
		t.Fatalf("asserted with concurrent progress (%.0f) did not beat serial progress (%.0f)", concurrent, serial)
	}
	// ...which buys what comm-per-pair buys, on one communicator.
	if concurrent < 0.9*cpp {
		t.Fatalf("asserted with concurrent progress (%.0f) fell below 90%% of comm-per-pair (%.0f)", concurrent, cpp)
	}
}
