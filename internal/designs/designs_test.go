package designs

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cri"
	"repro/internal/hw"
	"repro/internal/progress"
	"repro/internal/simnet"
)

func TestAllCoversLegend(t *testing.T) {
	ds := All()
	if len(ds) != int(numDesigns) {
		t.Fatalf("All() returned %d designs, want %d", len(ds), int(numDesigns))
	}
	seen := map[string]bool{}
	for _, d := range ds {
		s := d.String()
		if s == "" || seen[s] {
			t.Fatalf("design %d has bad or duplicate name %q", int(d), s)
		}
		seen[s] = true
	}
}

func TestProcessModeFlags(t *testing.T) {
	for _, d := range All() {
		want := d == OMPIProcess || d == IMPIProcess || d == MPICHProcess
		if d.IsProcessMode() != want {
			t.Errorf("%v: IsProcessMode = %v, want %v", d, d.IsProcessMode(), want)
		}
	}
}

// TestLabelsRunTheirDesign: a legend label runs exactly the configuration
// of the design it names, and the designs that remain are all distinct, so
// Fig. 5 has one configuration per design it runs.
func TestLabelsRunTheirDesign(t *testing.T) {
	base := simnet.Config{Machine: hw.AlembertHaswell(), Pairs: 4, Window: 32, Iters: 2}
	runs := map[Design]simnet.Config{}
	for _, d := range All() {
		cfg := d.SimConfig(base, 20)
		if !reflect.DeepEqual(cfg, d.Runs().SimConfig(base, 20)) {
			t.Errorf("%v resolves to another configuration than %v, the design it runs", d, d.Runs())
		}
		runs[d.Runs()] = cfg
	}
	if len(runs) != 6 {
		t.Errorf("%d distinct designs run, want 6 (four OMPI thread designs, process mode, IMPI Thread)", len(runs))
	}
	for a, ca := range runs {
		for b, cb := range runs {
			if a < b && reflect.DeepEqual(ca, cb) {
				t.Errorf("%v and %v run the same configuration: one of them is a label", a, b)
			}
		}
	}
}

func TestSimConfigResolution(t *testing.T) {
	base := simnet.Config{Machine: hw.AlembertHaswell(), Pairs: 4, Window: 32, Iters: 2}

	cfg := OMPIThreadCRIFull.SimConfig(base, 20)
	if cfg.NumInstances != 20 || cfg.Assignment != cri.Dedicated ||
		cfg.Progress != progress.Concurrent || !cfg.CommPerPair {
		t.Fatalf("CRIFull config = %+v", cfg)
	}
	if cfg := OMPIThread.SimConfig(base, 20); cfg.NumInstances != 1 || cfg.ProcessMode {
		t.Fatalf("OMPIThread config = %+v", cfg)
	}
	if cfg := IMPIThread.SimConfig(base, 20); !cfg.BigLock {
		t.Fatal("IMPIThread must be a big-lock design")
	}
	if cfg := OMPIProcess.SimConfig(base, 20); !cfg.ProcessMode {
		t.Fatal("OMPIProcess must be process mode")
	}
	if cfg := OMPIThreadCRILockFree.SimConfig(base, 20); !cfg.NoWildcards || cfg.CommPerPair || cfg.Assignment != cri.FreeList {
		t.Fatalf("LF config = %+v, want free-list instances on one communicator asserting no wildcards", cfg)
	}
}

func TestCoreOptionsResolution(t *testing.T) {
	o := OMPIThreadCRI.CoreOptions(8)
	if o.NumInstances != 8 || o.Assignment != cri.Dedicated || o.Progress != progress.Serial {
		t.Fatalf("CRI options = %+v", o)
	}
	o = OMPIThreadCRIFull.CoreOptions(8)
	if o.Progress != progress.Concurrent {
		t.Fatalf("CRIFull options = %+v", o)
	}
	// The IMPI / MPICH stand-ins exist in the model only.
	if IMPIThread.CoreOptions(1) != core.Stock() || MPICHThread.CoreOptions(1) != core.Stock() {
		t.Fatal("modelled-only designs must resolve to core.Stock")
	}
	if OMPIThread.CoreOptions(1).NumInstances != 1 {
		t.Fatal("OMPIThread core options wrong")
	}
	if !OMPIThreadCRIFull.UsesCommPerPair() || OMPIThread.UsesCommPerPair() {
		t.Fatal("UsesCommPerPair flags wrong")
	}
	// LF is CRIs* minus comm-per-pair: its options are plain, and its one
	// communicator's assertion is what shards matching.
	if OMPIThreadCRILockFree.CoreOptions(8) != core.CRIsConcurrent(8, cri.FreeList) {
		t.Fatalf("LF options = %+v", OMPIThreadCRILockFree.CoreOptions(8))
	}
	for _, d := range All() {
		if d.NoWildcards() != (d == OMPIThreadCRILockFree) {
			t.Errorf("%v: NoWildcards = %v", d, d.NoWildcards())
		}
	}
}

// TestFig5Ordering runs the model for every design at a moderate pair count
// and checks the paper's headline ordering: every process mode beats every
// stock thread mode; CRIs beats stock; CRIs* beats CRIs.
func TestFig5Ordering(t *testing.T) {
	base := simnet.Config{Machine: hw.AlembertHaswell(), Pairs: 12, Window: 128, Iters: 3}
	rates := map[Design]float64{}
	for _, d := range All() {
		rates[d] = simnet.RunMultirate(d.SimConfig(base, 20)).Rate
	}
	for _, proc := range []Design{OMPIProcess, IMPIProcess, MPICHProcess} {
		for _, thr := range []Design{OMPIThread, IMPIThread, MPICHThread} {
			if rates[proc] <= rates[thr] {
				t.Errorf("%v (%.0f) did not beat %v (%.0f)", proc, rates[proc], thr, rates[thr])
			}
		}
	}
	if rates[OMPIThreadCRI] <= rates[OMPIThread] {
		t.Errorf("CRIs (%.0f) did not beat stock thread (%.0f)", rates[OMPIThreadCRI], rates[OMPIThread])
	}
	if rates[OMPIThreadCRIFull] <= rates[OMPIThreadCRI] {
		t.Errorf("CRIs* (%.0f) did not beat CRIs (%.0f)", rates[OMPIThreadCRIFull], rates[OMPIThreadCRI])
	}
	// Even CRIs* stays below process mode (the paper's closing gap claim).
	if rates[OMPIThreadCRIFull] >= rates[OMPIProcess] {
		t.Errorf("CRIs* (%.0f) overtook process mode (%.0f)", rates[OMPIThreadCRIFull], rates[OMPIProcess])
	}
}

// TestLockFreeOrdering checks the lock-free design at the paper's 20-pair
// operating point. Its claim is not "faster than CRIs*" — it is "as fast as
// CRIs* without the communicator-per-pair restructuring": all pairs share the
// world communicator, and sharded matching + free-list CRIs recover nearly
// all of what comm-per-pair buys. So: far above every
// single-communicator locked design, within a small factor of CRIs*, and
// still below process mode (per-process resources have no sharing at all).
func TestLockFreeOrdering(t *testing.T) {
	base := simnet.Config{Machine: hw.AlembertHaswell(), Pairs: 20, Window: 128, Iters: 3}
	rate := func(d Design) float64 { return simnet.RunMultirate(d.SimConfig(base, 20)).Rate }
	full, lf, proc := rate(OMPIThreadCRIFull), rate(OMPIThreadCRILockFree), rate(OMPIProcess)
	stock, cris := rate(OMPIThread), rate(OMPIThreadCRI)
	if lf < 4*stock {
		t.Errorf("CRIs*+LF (%.0f) is not well clear of stock thread (%.0f)", lf, stock)
	}
	if lf < 2*cris {
		t.Errorf("CRIs*+LF (%.0f) is not well clear of CRIs (%.0f)", lf, cris)
	}
	if lf < 0.9*full {
		t.Errorf("CRIs*+LF (%.0f) fell below 90%% of CRIs* (%.0f) despite sharing one communicator", lf, full)
	}
	if lf >= proc {
		t.Errorf("CRIs*+LF (%.0f) overtook process mode (%.0f)", lf, proc)
	}
}
