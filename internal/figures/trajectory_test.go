package figures

import (
	"encoding/json"
	"testing"

	"repro/internal/designs"
	"repro/internal/hw"
)

func tinySweep(ds ...designs.Design) sweep {
	return sweep{
		machine: hw.Fast(), machineName: "fast",
		trajectorySweep: trajectorySweep{Threads: []int{1, 2}, Window: 8, Iters: 2, Instances: 20},
		designs:         ds,
	}
}

// TestRunProducesValidFile: one positive-rate point per swept thread count,
// in sweep order, for every design asked for.
func TestRunProducesValidFile(t *testing.T) {
	f := tinySweep(designs.OMPIThread, designs.OMPIThreadCRIFull).run(false)
	if len(f.Designs) != 2 {
		t.Fatalf("designs = %d, want 2", len(f.Designs))
	}
	for _, d := range f.Designs {
		if len(d.Points) != len(f.Sweep.Threads) {
			t.Fatalf("design %s has %d points for %d swept thread counts", d.Slug, len(d.Points), len(f.Sweep.Threads))
		}
		for i, p := range d.Points {
			if p.Threads != f.Sweep.Threads[i] || p.MessagesPerSec <= 0 || p.Messages <= 0 || p.MakespanNs <= 0 {
				t.Errorf("design %s point %d = %+v, want threads=%d and positive rate/messages/makespan",
					d.Slug, i, p, f.Sweep.Threads[i])
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	sw := tinySweep(designs.OMPIThread, designs.OMPIThreadCRIFull)
	a, err := json.Marshal(sw.run(false))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(sw.run(false))
	if string(a) != string(b) {
		t.Fatal("two identical sweeps produced different trajectory files")
	}
}

// TestRunLatencySweep: a sweep.latency run must carry per-stage quantiles
// on every thread-mode point — in canonical stage order with e2e last — and
// must not move the rate numbers at all (attribution reads only the virtual
// clock).
func TestRunLatencySweep(t *testing.T) {
	sw := tinySweep(designs.OMPIProcess, designs.OMPIThread)
	f := sw.run(true)
	for _, d := range f.Designs {
		for _, p := range d.Points {
			if d.ProcessMode {
				if len(p.LatencyStages) != 0 {
					t.Fatalf("process-mode point carries stages: %+v", p)
				}
				continue
			}
			if len(p.LatencyStages) == 0 {
				t.Fatalf("%s threads=%d has no latency stages", d.Slug, p.Threads)
			}
			last := p.LatencyStages[len(p.LatencyStages)-1]
			if last.Stage != "e2e" || last.P99Ns <= 0 {
				t.Fatalf("%s threads=%d last stage %+v, want populated e2e", d.Slug, p.Threads, last)
			}
			for _, sl := range p.LatencyStages {
				if sl.P99Ns < sl.P50Ns || sl.P50Ns < 0 {
					t.Fatalf("%s threads=%d stage %s quantiles out of order: %+v", d.Slug, p.Threads, sl.Stage, sl)
				}
			}
		}
	}

	// The rate trajectory must be identical with attribution off.
	off := sw.run(false)
	for i, d := range f.Designs {
		for j, p := range d.Points {
			q := off.Designs[i].Points[j]
			if p.MessagesPerSec != q.MessagesPerSec || p.MakespanNs != q.MakespanNs {
				t.Fatalf("%s threads=%d moved under attribution: %v vs %v msg/s", d.Slug, p.Threads,
					p.MessagesPerSec, q.MessagesPerSec)
			}
		}
	}
}
