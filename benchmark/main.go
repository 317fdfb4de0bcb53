// Command benchmark measures the runtime that ships — real goroutines, real
// mutexes, real loopback sockets — end to end on six closed-loop workloads,
// and layer by layer by timing calls into each layer's public functions
// from this directory's own files. README.md holds the metric and workload
// tables; BENCHMARK.json at the repository root is the driver's contract.
//
//	go run -C benchmark . [-workload NAME] [-seed N] [-seconds S] [-trace 1]
//	go run -C benchmark . -selfcheck
//	go run -C benchmark . -compare old.json,new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

const (
	// runSeconds is the measuring time of one run when -seconds is not
	// given; BENCHMARK.json repeats it as run_seconds.
	runSeconds = 15
	// minReps and maxReps bound the repetitions that fill the measuring
	// time; every timing is the median over them.
	minReps = 3
	maxReps = 40
	// maxTracedReps caps the traced pass at two cycles of plain, spans and
	// spans with latency: more would only grow the span file.
	maxTracedReps = 6
	// sharedSeconds is about what the ladder and the observer switches of a
	// traced run take; its repetitions get the rest of the measuring time.
	sharedSeconds = 7
	// outDir receives traces and result files; .gitignore names it.
	outDir = "out"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a run prints as its last line of output,
// with exactly these keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Workload string `json:"workload"`
	resultLine
	// Reps is the repetitions behind every median; Notes says, by metric,
	// which percentile of how many samples a number is.
	Reps    int               `json:"reps"`
	Notes   map[string]string `json:"notes,omitempty"`
	Absent  []string          `json:"absent,omitempty"`
	Failure string            `json:"failure,omitempty"`
}

// resultFile is what a run writes under out/ and what -compare reads.
type resultFile struct {
	Host      hostInfo         `json:"host"`
	Seed      uint64           `json:"seed"`
	Seconds   int              `json:"seconds"`
	Trace     bool             `json:"trace"`
	Workloads []workloadResult `json:"workloads"`
}

func (f *resultFile) find(workload string) *workloadResult {
	for i := range f.Workloads {
		if f.Workloads[i].Workload == workload {
			return &f.Workloads[i]
		}
	}
	return nil
}

// fill runs repetitions of w until the next one would not fit in budget,
// at least minReps and at most limit; mode makes the repMode of repetition i.
func fill(w workload, seed uint64, budget time.Duration, limit int, mode func(i int) repMode) ([]*repResult, error) {
	var reps []*repResult
	start := time.Now()
	for len(reps) < limit {
		if n := len(reps); n >= minReps {
			elapsed := time.Since(start)
			if elapsed+elapsed/time.Duration(n) > budget {
				break
			}
		}
		res, err := runRep(w, seed, mode(len(reps)))
		if err != nil {
			return nil, err
		}
		reps = append(reps, res)
	}
	return reps, nil
}

// tally sums the operations attempted and failed over reps.
func tally(out *workloadResult, reps []*repResult) {
	for _, r := range reps {
		out.Attempted += r.attempted
		out.Failed += r.failed
		if out.Failure == "" {
			out.Failure = r.failure
		}
	}
	out.Correct = out.Failed == 0
}

// runUntraced measures the end-to-end metrics of w: nothing is recorded
// but wall time, the observing thread's iteration times and MemStats.
func runUntraced(w workload, seed uint64, budget time.Duration) (*workloadResult, error) {
	reps, err := fill(w, seed, budget, maxReps, func(i int) repMode { return repMode{index: i} })
	if err != nil {
		return nil, err
	}
	out := &workloadResult{Workload: w.name, Reps: len(reps), Notes: map[string]string{
		"iter_p50_us": fmt.Sprintf("n=%d iterations per repetition", reps[0].iterSamples)}}
	tally(out, reps)
	var setup, rate, p50, allocs []float64
	for _, r := range reps {
		setup = append(setup, r.setup.Seconds())
		rate = append(rate, r.rate())
		p50 = append(p50, r.iterP50Us)
		allocs = append(allocs, float64(r.mallocs)/float64(r.msgs))
	}
	vals := map[string]float64{
		"setup_s":        median(setup),
		"msg_per_s":      median(rate),
		"iter_p50_us":    median(p50),
		"allocs_per_msg": median(allocs),
	}
	out.Metrics = make(map[string]metricValue, len(endToEnd))
	for _, d := range endToEnd {
		out.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
	}
	return out, nil
}

// runTraced is the separate traced pass of w: repetitions cycle through
// plain, spans, and spans with Options.Latency for the measuring time less
// what the shared ladder and observer switches take, then the spans are
// written to dir and every per-layer metric assembled. notes names the span
// file and tabulates the spans.
func runTraced(w workload, seed uint64, budget time.Duration, sh *shared, host hostInfo, dir string) (res *workloadResult, notes string, err error) {
	epoch := time.Now()
	all, err := fill(w, seed, budget-sharedSeconds*time.Second, maxTracedReps, func(i int) repMode {
		return repMode{index: i, epoch: epoch, spans: i%3 != 0, latency: i%3 == 2}
	})
	if err != nil {
		return nil, "", err
	}
	var reps tracedReps
	var logs []*spanLog
	for i, r := range all {
		switch i % 3 {
		case 0:
			reps.plain = append(reps.plain, r)
		case 1:
			reps.spans = append(reps.spans, r)
		default:
			reps.latency = append(reps.latency, r)
		}
		logs = append(logs, r.logs...)
	}
	defer func() {
		for _, l := range logs {
			l.free()
		}
	}()
	path, err := writeTrace(dir, w.name, seed, host, logs)
	if err != nil {
		return nil, "", fmt.Errorf("writing trace: %w", err)
	}
	out := &workloadResult{Workload: w.name, Reps: len(all)}
	n := all[0].iterSamples
	if p, ok := tailPercentile(n); ok {
		out.Notes = map[string]string{"bench.iter_tail_us": fmt.Sprintf("p%.4g of n=%d iterations per repetition", p, n)}
	}
	tally(out, all)
	vals, absent := layerMetrics(w, reps, sh)
	out.Metrics = make(map[string]metricValue, len(perLayer))
	for _, d := range perLayer {
		if absent[d.Name] {
			out.Absent = append(out.Absent, d.Name)
			continue
		}
		out.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
	}
	return out, "# trace " + path + "\n" + spanTable(logs), nil
}

// spanTable renders count, total and self time per span name.
func spanTable(logs []*spanLog) string {
	var b strings.Builder
	for kind, st := range spanStats(logs) {
		if st.Count > 0 {
			fmt.Fprintf(&b, "# span %-10v count=%-7d total_ms=%-10.3f self_ms=%.3f\n",
				spanKind(kind), st.Count, float64(st.TotalNs)/1e6, float64(st.SelfNs)/1e6)
		}
	}
	return b.String()
}

// printResult prints every metric as "workload metric value unit", then the
// result line.
func printResult(w io.Writer, defs []metricDef, r *workloadResult) error {
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			fmt.Fprintf(w, "%s %s absent %s\n", r.Workload, d.Name, d.Unit)
			continue
		}
		fmt.Fprintf(w, "%s %s %.6g %s", r.Workload, d.Name, m.Value, m.Unit)
		if note := r.Notes[d.Name]; note != "" {
			fmt.Fprintf(w, " (%s)", note)
		}
		fmt.Fprintln(w)
	}
	if !r.Correct {
		fmt.Fprintf(w, "# %s FAILED verification: %d of %d operations; first: %s\n", r.Workload, r.Failed, r.Attempted, r.Failure)
	}
	line, err := json.Marshal(r.resultLine)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeResultFile(path string, f *resultFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// errHostDiffers refuses a comparison across hosts: the numbers of two
// machines (or two Go versions, or two GOMAXPROCS) say nothing about the code.
var errHostDiffers = errors.New("host headers differ")

// compare prints, per workload and end-to-end metric present in both
// files, the relative difference next to the metric's bound, and reports
// whether every difference is within it.
func compare(w io.Writer, a, b *resultFile) (within bool, err error) {
	if a.Host != b.Host {
		return false, fmt.Errorf("%w:\n  %v\n  %v", errHostDiffers, a.Host, b.Host)
	}
	within = true
	fmt.Fprintf(w, "%-22s %-15s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, ra := range a.Workloads {
		rb := b.find(ra.Workload)
		if rb == nil {
			continue
		}
		for _, d := range endToEnd {
			ma, okA := ra.Metrics[d.Name]
			mb, okB := rb.Metrics[d.Name]
			if !okA || !okB {
				continue
			}
			diff := worseBy(ma.Value, mb.Value, d.Better == higher)
			if diff < 0 {
				diff = -diff
			}
			verdict := ""
			if diff > d.Bound {
				verdict = "  EXCEEDS"
				within = false
			}
			fmt.Fprintf(w, "%-22s %-15s %14.6g %14.6g %7.2f%% %6.0f%%%s\n",
				ra.Workload, d.Name, ma.Value, mb.Value, 100*diff, 100*d.Bound, verdict)
		}
		if ra.Failed+rb.Failed > 0 {
			fmt.Fprintf(w, "%-22s failed operations: %d and %d  EXCEEDS (must stay 0)\n", ra.Workload, ra.Failed, rb.Failed)
			within = false
		}
	}
	return within, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// session is one invocation: which workloads, which inputs, for how long.
type session struct {
	stdout  io.Writer
	host    hostInfo
	set     []workload
	seed    uint64
	seconds int
}

// pass runs the session's workloads once, end to end or traced, printing
// each result, and writes them all to file under outDir.
func (s *session) pass(traced bool, file string) (*resultFile, error) {
	out := &resultFile{Host: s.host, Seed: s.seed, Seconds: s.seconds, Trace: traced}
	budget := time.Duration(s.seconds) * time.Second
	var sh *shared
	for _, w := range s.set {
		var res *workloadResult
		var err error
		defs := endToEnd
		if traced {
			defs = perLayer
			if sh == nil { // the ladder and the observer switches: once per invocation
				if sh, err = runShared(s.seed, 1); err != nil {
					return nil, err
				}
			}
			var notes string
			res, notes, err = runTraced(w, s.seed, budget, sh, s.host, outDir)
			fmt.Fprint(s.stdout, notes)
		} else {
			res, err = runUntraced(w, s.seed, budget)
		}
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(s.stdout, "# workload %s seed=%d repetitions=%d of %d messages\n",
			w.name, s.seed, res.Reps, w.iters*w.msgsPerIter())
		if err := printResult(s.stdout, defs, res); err != nil {
			return nil, err
		}
		out.Workloads = append(out.Workloads, *res)
	}
	return out, writeResultFile(filepath.Join(outDir, file), out)
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", runSeconds, "measuring time per workload")
	trace := fs.Int("trace", 0, "1 runs the traced pass (per-layer metrics) instead of the end-to-end pass")
	selfcheck := fs.Bool("selfcheck", false, "run the end-to-end set twice and compare the two against the bounds")
	cmp := fs.String("compare", "", "compare two result files: first.json,second.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// status maps the outcome of a comparison or a run to the exit status:
	// non-zero for an error, a bound exceeded or a failed operation.
	status := func(ok bool, err error) int {
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}

	if *cmp != "" {
		first, second, ok := strings.Cut(*cmp, ",")
		if !ok {
			return status(false, errors.New("-compare wants first.json,second.json"))
		}
		a, err := readResultFile(first)
		if err != nil {
			return status(false, err)
		}
		b, err := readResultFile(second)
		if err != nil {
			return status(false, err)
		}
		return status(compare(stdout, a, b))
	}

	s := &session{stdout: stdout, host: readHost(), set: workloads, seed: *seed, seconds: *seconds}
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			return status(false, fmt.Errorf("unknown workload %q", *name))
		}
		s.set = []workload{w}
	}
	fmt.Fprintf(stdout, "# host %v\n", s.host)

	if *selfcheck {
		a, err := s.pass(false, "selfcheck_first.json")
		if err != nil {
			return status(false, err)
		}
		b, err := s.pass(false, "selfcheck_second.json")
		if err != nil {
			return status(false, err)
		}
		fmt.Fprintf(stdout, "# selfcheck: two runs of the same code, seed %d, %d s per workload\n", s.seed, s.seconds)
		return status(compare(stdout, a, b))
	}

	out, err := s.pass(*trace != 0, "result.json")
	if err != nil {
		return status(false, err)
	}
	for _, r := range out.Workloads {
		if !r.Correct {
			return 1
		}
	}
	return 0
}
