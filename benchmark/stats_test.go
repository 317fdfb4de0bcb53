package main

import (
	"errors"
	"io"
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 500}, {99, 990}, {100, 1000}, {0.01, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it, never above p99.
func TestTailPercentileTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{200, 95, true},
		{400, 97.5, true},
		{999, 100 * 989.0 / 999, true},
		{1000, 99, true},
		{32000, 99, true},
	} {
		p, ok := tailPercentile(c.n)
		if ok != c.ok || !near(p, c.want) {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok {
			beyond := c.n - int(math.Ceil(p/100*float64(c.n)))
			if beyond < minBeyond {
				t.Errorf("tailPercentile(%d) = %v leaves %d samples beyond, want >= %d", c.n, p, beyond, minBeyond)
			}
		}
	}
}

func TestWorseByFollowsDirection(t *testing.T) {
	if got := worseBy(100, 90, true); !near(got, 0.10) {
		t.Errorf("a rate falling 100 -> 90 is worse by %v, want 0.10", got)
	}
	if got := worseBy(100, 110, true); !near(got, -0.10) {
		t.Errorf("a rate rising 100 -> 110 is worse by %v, want -0.10", got)
	}
	if got := worseBy(20, 23, false); !near(got, 0.15) {
		t.Errorf("a latency rising 20 -> 23 is worse by %v, want 0.15", got)
	}
	if got := worseBy(0, 5, false); got != 0 {
		t.Errorf("worseBy with a zero base = %v, want 0", got)
	}
}

func result(host hostInfo, workload string, vals map[string]float64, failed int64) *resultFile {
	r := workloadResult{Workload: workload}
	r.Metrics = make(map[string]metricValue)
	for k, v := range vals {
		r.Metrics[k] = metricValue{Value: v, Unit: "x"}
	}
	r.Failed = failed
	r.Correct = failed == 0
	return &resultFile{Host: host, Workloads: []workloadResult{r}}
}

func TestCompareHoldsTheBounds(t *testing.T) {
	host := hostInfo{NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0", Kernel: "k", Net: "loopback"}
	var bound float64
	for _, d := range endToEnd {
		if d.Name == "msg_per_s" {
			bound = d.Bound
		}
	}
	base := result(host, "tcp_stream_0B", map[string]float64{"msg_per_s": 1000}, 0)
	for _, c := range []struct {
		name   string
		second *resultFile
		within bool
	}{
		{"inside", result(host, "tcp_stream_0B", map[string]float64{"msg_per_s": 1000 * (1 - bound/2)}, 0), true},
		{"worse beyond", result(host, "tcp_stream_0B", map[string]float64{"msg_per_s": 1000 * (1 - 2*bound)}, 0), false},
		{"better beyond", result(host, "tcp_stream_0B", map[string]float64{"msg_per_s": 1000 * (1 + 2*bound)}, 0), false},
		{"a failed operation", result(host, "tcp_stream_0B", map[string]float64{"msg_per_s": 1000}, 1), false},
	} {
		within, err := compare(io.Discard, base, c.second)
		if err != nil || within != c.within {
			t.Errorf("%s: compare = %v, %v; want %v, nil", c.name, within, err, c.within)
		}
	}
}

func TestCompareRefusesAnotherHost(t *testing.T) {
	a := hostInfo{NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0", Kernel: "k", Net: "loopback"}
	b := a
	b.GOMAXPROCS = 4
	_, err := compare(io.Discard, result(a, "w", nil, 0), result(b, "w", nil, 0))
	if !errors.Is(err, errHostDiffers) {
		t.Fatalf("compare of two different hosts returned %v, want errHostDiffers", err)
	}
}
