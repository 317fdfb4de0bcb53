package designs

import (
	"reflect"
	"testing"

	"repro/internal/bench/multirate"
	"repro/internal/core"
	"repro/internal/cri"
	"repro/internal/hw"
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
	type run struct {
		cfg multirate.Config
		m   simnet.Model
	}
	base := multirate.Config{Machine: hw.AlembertHaswell(), Pairs: 4, Window: 32, Iters: 2}
	runs := map[Design]run{}
	for _, d := range All() {
		r := run{d.Config(base, 20), d.Model()}
		if !reflect.DeepEqual(r, run{d.Runs().Config(base, 20), d.Runs().Model()}) {
			t.Errorf("%v resolves to another configuration than %v, the design it runs", d, d.Runs())
		}
		runs[d.Runs()] = r
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

// resolutions is each design's one resolution, as both engines run it:
// TestCoreOptionsResolution checks the runtime options of the table,
// TestSimConfigResolution the rest of what the model runs.
var resolutions = []struct {
	d           Design
	opts        core.Options
	commPerPair bool
	noWildcards bool
	processMode bool
	bigLock     bool
}{
	{d: OMPIProcess, opts: core.Stock(), processMode: true},
	{d: OMPIThread, opts: core.Stock()},
	{d: OMPIThreadCRI, opts: core.CRIs(20, cri.Dedicated)},
	{d: OMPIThreadCRIFull, opts: core.CRIsConcurrent(20, cri.Dedicated), commPerPair: true},
	// LF is CRIs* minus comm-per-pair: its options are plain, and its one
	// communicator's assertion is what shards matching.
	{d: OMPIThreadCRILockFree, opts: core.CRIsConcurrent(20, cri.FreeList), noWildcards: true},
	{d: IMPIProcess, opts: core.Stock(), processMode: true},
	// The IMPI / MPICH stand-ins run as core.Stock on the runtime; IMPI
	// Thread's global lock is the model's.
	{d: IMPIThread, opts: core.Stock(), bigLock: true},
	{d: MPICHProcess, opts: core.Stock(), processMode: true},
	{d: MPICHThread, opts: core.Stock()},
}

var resolutionBase = multirate.Config{Machine: hw.AlembertHaswell(), Pairs: 4, Window: 32, Iters: 2}

func TestResolutionsCoverAll(t *testing.T) {
	if len(resolutions) != len(All()) {
		t.Fatalf("resolution table has %d designs, want %d", len(resolutions), len(All()))
	}
}

// TestSimConfigResolution: the layout flags, the model's big lock and the
// untouched workload of each design's configuration.
func TestSimConfigResolution(t *testing.T) {
	for _, tc := range resolutions {
		cfg := tc.d.Config(resolutionBase, 20)
		if cfg.CommPerPair != tc.commPerPair || cfg.NoWildcards != tc.noWildcards || cfg.ProcessMode != tc.processMode {
			t.Errorf("%v: comm-per-pair %v, no-wildcards %v, process mode %v; want %v, %v, %v", tc.d,
				cfg.CommPerPair, cfg.NoWildcards, cfg.ProcessMode, tc.commPerPair, tc.noWildcards, tc.processMode)
		}
		if got := tc.d.Model().BigLock; got != tc.bigLock {
			t.Errorf("%v: BigLock = %v, want %v", tc.d, got, tc.bigLock)
		}
		b := resolutionBase
		if cfg.Machine != b.Machine || cfg.Pairs != b.Pairs || cfg.Window != b.Window || cfg.Iters != b.Iters {
			t.Errorf("%v: the workload moved: %+v", tc.d, cfg)
		}
	}
}

// TestCoreOptionsResolution: the runtime options of each design's
// configuration, at the CRI count it is given.
func TestCoreOptionsResolution(t *testing.T) {
	for _, tc := range resolutions {
		if got := tc.d.Config(resolutionBase, 20).Opts; got != tc.opts {
			t.Errorf("%v: options = %+v, want %+v", tc.d, got, tc.opts)
		}
	}
	if got, want := OMPIThreadCRI.Config(resolutionBase, 8).Opts, core.CRIs(8, cri.Dedicated); got != want {
		t.Errorf("CRI options at 8 instances = %+v, want %+v", got, want)
	}
}

// TestFig5Ordering runs the model for every design at a moderate pair count
// and checks the paper's headline ordering: every process mode beats every
// stock thread mode; CRIs beats stock; CRIs* beats CRIs.
func TestFig5Ordering(t *testing.T) {
	base := multirate.Config{Machine: hw.AlembertHaswell(), Pairs: 12, Window: 128, Iters: 3}
	rates := map[Design]float64{}
	for _, d := range All() {
		rates[d] = simnet.RunMultirate(d.Config(base, 20), d.Model()).Rate
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
	base := multirate.Config{Machine: hw.AlembertHaswell(), Pairs: 20, Window: 128, Iters: 3}
	rate := func(d Design) float64 { return simnet.RunMultirate(d.Config(base, 20), d.Model()).Rate }
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
