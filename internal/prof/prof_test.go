package prof

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMutexHammer drives N goroutines through one profiled mutex (run under
// -race via make race): the site invariants must hold however the scheduler
// interleaves them.
func TestMutexHammer(t *testing.T) {
	p := New()
	var m Mutex
	m.Bind(p.NewSite("hammer", -1, 0))
	const (
		goroutines = 8
		iters      = 2000
	)
	var wg sync.WaitGroup
	var held int
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.Lock()
				held++ // the mutex must actually exclude
				held--
				m.Unlock()
			}
		}()
	}
	wg.Wait()
	sn := p.Snapshot()
	if len(sn.Sites) != 1 {
		t.Fatalf("sites = %d, want 1", len(sn.Sites))
	}
	s := sn.Sites[0]
	if s.Acquisitions != goroutines*iters {
		t.Fatalf("acquisitions = %d, want %d", s.Acquisitions, goroutines*iters)
	}
	if s.Contended > s.Acquisitions {
		t.Fatalf("contended %d > acquisitions %d", s.Contended, s.Acquisitions)
	}
	if s.Contended > 0 && s.WaitNs <= 0 {
		t.Fatalf("contended=%d but wait_ns=%d", s.Contended, s.WaitNs)
	}
	if s.MaxWaitNs > s.WaitNs {
		t.Fatalf("max wait %d > total wait %d", s.MaxWaitNs, s.WaitNs)
	}
	if s.HoldNs < 0 {
		t.Fatalf("hold_ns = %d", s.HoldNs)
	}
}

// TestTryMutexLosses checks the serial-progress lock shape: losers are
// recorded as try failures, never as waits.
func TestTryMutexLosses(t *testing.T) {
	p := New()
	var m TryMutex
	m.Bind(p.NewSite("serial", -1, 0))
	if !m.TryLock() {
		t.Fatal("uncontended TryLock failed")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if m.TryLock() {
				t.Error("TryLock succeeded while held")
				m.Unlock()
			}
		}()
	}
	wg.Wait()
	m.Unlock()
	s := p.Snapshot().Sites[0]
	if s.TryFailures != 4 {
		t.Fatalf("try_failures = %d, want 4", s.TryFailures)
	}
	if s.Acquisitions != 1 || s.WaitNs != 0 {
		t.Fatalf("acquisitions=%d wait_ns=%d, want 1/0", s.Acquisitions, s.WaitNs)
	}
	if s.HoldNs <= 0 {
		t.Fatalf("hold_ns = %d, want > 0", s.HoldNs)
	}
}

// fakeVirtual records the calls a bound Mutex or TryMutex makes on it.
type fakeVirtual struct {
	calls  []string
	clocks []*ThreadClock
	free   bool
}

func (v *fakeVirtual) Lock(c *ThreadClock) {
	v.calls = append(v.calls, "Lock")
	v.clocks = append(v.clocks, c)
}

func (v *fakeVirtual) TryLock() bool {
	v.calls = append(v.calls, "TryLock")
	return v.free
}

func (v *fakeVirtual) Unlock() { v.calls = append(v.calls, "Unlock") }

// TestBoundVirtualLockReplacesTheHostMutex: with a virtual lock bound, every
// method of Mutex and TryMutex reaches it — TryLockQuiet by reporting false
// untried, so a try-then-lock costs the virtual lock one step — and none
// takes the host mutex or records on the site, which stays free. (Unbound,
// the site tests above are the contract.)
func TestBoundVirtualLockReplacesTheHostMutex(t *testing.T) {
	p := New()
	clk := p.NewThreadClock("t0", nil)
	v := &fakeVirtual{free: true}
	var m Mutex
	m.Bind(p.NewSite("virtual", -1, 0))
	m.BindVirtual(v)
	m.Lock()
	m.Unlock()
	m.LockClocked(clk)
	m.Unlock()
	if m.TryLockQuiet() {
		t.Fatal("TryLockQuiet on a virtual lock reported true")
	}
	if !m.TryLock() {
		t.Fatal("TryLock did not report the virtual lock's answer")
	}
	m.Unlock()
	v.free = false
	if m.TryLock() {
		t.Fatal("TryLock did not report the virtual lock's answer")
	}
	want := []string{"Lock", "Unlock", "Lock", "Unlock", "TryLock", "Unlock", "TryLock"}
	if !slices.Equal(v.calls, want) {
		t.Fatalf("virtual calls = %v, want %v", v.calls, want)
	}
	if len(v.clocks) != 2 || v.clocks[0] != nil || v.clocks[1] != clk {
		t.Fatalf("Lock clocks = %v, want [nil clk]: LockClocked hands its clock on", v.clocks)
	}
	if !m.mu.TryLock() {
		t.Fatal("the host mutex was left held")
	}
	m.mu.Unlock()
	if s := p.Snapshot().Sites[0]; s != (SiteSnapshot{Name: "virtual", CRI: -1}) {
		t.Fatalf("site recorded %+v through a virtual lock", s)
	}

	tv := &fakeVirtual{free: true}
	var tm TryMutex
	tm.BindVirtual(tv)
	if !tm.TryLock() {
		t.Fatal("TryMutex.TryLock did not report the virtual lock's answer")
	}
	tm.Unlock()
	if !slices.Equal(tv.calls, []string{"TryLock", "Unlock"}) {
		t.Fatalf("TryMutex virtual calls = %v", tv.calls)
	}
	if !tm.m.mu.TryLock() {
		t.Fatal("TryMutex left its host mutex held")
	}
	tm.m.mu.Unlock()
}

// TestPhaseSumWithinWall: Σ(exclusive phase time) must not exceed wall time
// and must account for nearly all of it once the clock is stopped.
func TestPhaseSumWithinWall(t *testing.T) {
	p := New()
	c := p.NewThreadClock("t0", nil)
	for i := 0; i < 50; i++ {
		c.Begin(PhaseSend)
		c.Begin(PhaseLockWait)
		time.Sleep(100 * time.Microsecond)
		c.End()
		c.Begin(PhaseWire)
		c.End()
		c.End()
		c.Begin(PhaseProgressOwn)
		c.Begin(PhaseMatch)
		time.Sleep(50 * time.Microsecond)
		c.End()
		c.End()
	}
	c.Stop()
	th := p.Snapshot().Threads[0]
	var sum int64
	for _, v := range th.Phases {
		sum += v
	}
	if sum > th.WallNs {
		t.Fatalf("phase sum %d > wall %d", sum, th.WallNs)
	}
	// A stopped clock flushes every section including the app remainder,
	// so the decomposition must be essentially exact.
	if got := float64(sum) / float64(th.WallNs); got < 0.999 {
		t.Fatalf("phase sum covers %.4f of wall, want ~1", got)
	}
	if th.Phases[PhaseLockWait] <= 0 || th.Phases[PhaseMatch] <= 0 {
		t.Fatalf("expected nested phases recorded: %+v", th.PhaseNs)
	}
	// The nested lock-wait slice suspended send: send's exclusive time must
	// not include the sleeps.
	if th.Phases[PhaseSend] >= th.Phases[PhaseLockWait] {
		t.Fatalf("send %d >= lock_wait %d; nesting not exclusive", th.Phases[PhaseSend], th.Phases[PhaseLockWait])
	}
}

// TestPhaseExactOnSuppliedClock: a clock driven by the instants its creator
// supplies — the virtual-time model's seam — decomposes exactly: through
// nested Begin/End and Stop every tick lands in exactly one phase, so
// Σphases == wall with no residue, and nothing before the clock's creation
// counts.
func TestPhaseExactOnSuppliedClock(t *testing.T) {
	now := int64(1000) // the clock is created mid-run, not at zero
	c := New().NewThreadClock("v", func() int64 { return now })
	tick := func(d int64) { now += d }
	tick(7) // app
	c.Begin(PhaseProgressOwn)
	tick(11)
	c.Begin(PhaseMatch)
	tick(13)
	c.Begin(PhaseLockWait)
	tick(17)
	c.End() // back in match
	tick(19)
	c.End() // back in progress_own
	tick(23)
	c.End() // back in app
	c.Begin(PhaseSend)
	tick(29)
	c.End()
	tick(31) // app
	c.Stop()
	tick(1000) // a stopped clock's wall time is frozen

	th := c.snapshot()
	want := [NumPhases]int64{
		PhaseApp: 7 + 31, PhaseProgressOwn: 11 + 23, PhaseMatch: 13 + 19,
		PhaseLockWait: 17, PhaseSend: 29,
	}
	if th.Phases != want {
		t.Errorf("phases = %v, want %v", th.Phases, want)
	}
	var sum int64
	for _, v := range th.Phases {
		sum += v
	}
	if wall := int64(7 + 11 + 13 + 17 + 19 + 23 + 29 + 31); th.WallNs != wall || sum != wall {
		t.Fatalf("Σphases %d, wall %d: want both %d", sum, th.WallNs, wall)
	}
}

// TestPhaseSumConcurrent runs one clock per goroutine under the race
// detector while a snapshotter reads mid-flight.
func TestPhaseSumConcurrent(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				p.Snapshot()
			}
		}
	}()
	var thwg sync.WaitGroup
	for g := 0; g < 4; g++ {
		thwg.Add(1)
		c := p.NewThreadClock("t", nil)
		go func() {
			defer thwg.Done()
			for i := 0; i < 500; i++ {
				c.Begin(PhaseSend)
				c.Begin(PhaseLockWait)
				c.End()
				c.End()
			}
			c.Stop()
		}()
	}
	thwg.Wait()
	close(stop)
	wg.Wait()
	for _, th := range p.Snapshot().Threads {
		var sum int64
		for _, v := range th.Phases {
			sum += v
		}
		if sum > th.WallNs {
			t.Fatalf("phase sum %d > wall %d", sum, th.WallNs)
		}
	}
}

// TestDisabledBranchOnly: with profiling off (nil profiler → nil sites and
// clocks), the instrumented paths must allocate nothing and record nothing.
func TestDisabledBranchOnly(t *testing.T) {
	var p *Profiler
	site := p.NewSite("x", 0, 0)
	if site != nil {
		t.Fatal("nil profiler handed out a site")
	}
	clk := p.NewThreadClock("x", nil)
	if clk != nil {
		t.Fatal("nil profiler handed out a clock")
	}
	var m Mutex
	m.Bind(site)
	var tm TryMutex
	tm.Bind(site)
	if n := testing.AllocsPerRun(1000, func() {
		m.LockClocked(clk)
		m.Unlock()
		if tm.TryLock() {
			tm.Unlock()
		}
		clk.Begin(PhaseSend)
		clk.End()
		clk.Stop()
		site.recordWait(1)
		site.recordTryFail()
	}); n != 0 {
		t.Fatalf("disabled path allocates %v per op", n)
	}
	if !p.Snapshot().Empty() {
		t.Fatal("nil profiler snapshot not empty")
	}
}

func TestReportRankingAndBottleneck(t *testing.T) {
	p := New()
	hot := p.NewSite("cri.instance", 0, 0)
	cold := p.NewSite("match.comm", -1, 7)
	hot.recordWait(int64(80 * time.Millisecond))
	cold.recordWait(int64(5 * time.Millisecond))
	c := p.NewThreadClock("rank0/t0", nil)
	c.Begin(PhaseLockWait)
	time.Sleep(2 * time.Millisecond)
	c.End()
	c.Stop()
	r := BuildReport(0, "ompi-thread", 8, p.Snapshot())
	if r.Sites[0].Name != "cri.instance" {
		t.Fatalf("top site = %q, want cri.instance", r.Sites[0].Name)
	}
	if !strings.Contains(r.Bottleneck, "lock_wait") || !strings.Contains(r.Bottleneck, "cri.instance[cri=0]") {
		t.Fatalf("bottleneck = %q", r.Bottleneck)
	}
	if r.LockWaitShare <= 0 || r.LockWaitShare > 1 {
		t.Fatalf("lock-wait share = %v", r.LockWaitShare)
	}
	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bottleneck report", "lock_wait", "cri.instance[cri=0]", "match.comm[comm=7]"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text report missing %q:\n%s", want, text.String())
		}
	}
}

func TestBreakdownRoundTrip(t *testing.T) {
	snap := Snapshot{
		Threads: []ThreadSnapshot{{Label: "rank0/t0", WallNs: 1000, Phases: PhaseTotals{PhaseApp: 500, PhaseLockWait: 400, PhaseSend: 100}}},
		Sites:   []SiteSnapshot{{Name: "cri.instance", CRI: 0, Contended: 3, WaitNs: 400, Acquisitions: 5}},
	}
	f := BreakdownFile{
		Engine:  "sim",
		Reports: []Report{BuildReport(0, "ompi-thread", 8, snap)},
	}
	var buf bytes.Buffer
	if err := WriteBreakdown(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBreakdown(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != BreakdownSchemaVersion || got.Engine != "sim" {
		t.Fatalf("round trip header: %+v", got)
	}
	if got.Reports[0].LockWaitShare != 0.4 {
		t.Fatalf("lock-wait share = %v, want 0.4", got.Reports[0].LockWaitShare)
	}
	// A tampered schema version must be refused.
	bad := strings.Replace(buf.String(), "\"schema_version\": 1", "\"schema_version\": 99", 1)
	if _, err := ReadBreakdown(strings.NewReader(bad)); err == nil {
		t.Fatal("accepted wrong schema version")
	}
}

func TestPrometheusExport(t *testing.T) {
	p := New()
	s := p.NewSite("progress.serial", -1, 0)
	s.recordTryFail()
	c := p.NewThreadClock("rank0/t1", nil)
	c.Begin(PhaseMatch)
	c.End()
	c.Stop()
	var buf bytes.Buffer
	if err := WritePrometheusRanks(&buf, []RankSnapshot{{Rank: 0, Snap: p.Snapshot()}}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`mpi_prof_lock_acquisitions_total{rank="0",site="progress.serial",cri="-1",comm="0",kind="try_failed"} 1`,
		"mpi_prof_phase_ns_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}
