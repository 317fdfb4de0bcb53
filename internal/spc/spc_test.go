package spc

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestNilSetIsSafe(t *testing.T) {
	var s *Set
	s.Inc(MessagesSent)
	s.Add(MatchTimeNanos, 100)
	s.Max(PostedQueuePeak, 5)
	s.Reset()
	if s.Get(MessagesSent) != 0 {
		t.Fatal("nil set returned non-zero counter")
	}
	if sn := s.Snapshot(); sn.Get(MessagesSent) != 0 {
		t.Fatal("nil set snapshot non-zero")
	}
}

func TestAddIncGet(t *testing.T) {
	s := NewSet()
	s.Inc(MessagesSent)
	s.Add(MessagesSent, 4)
	if got := s.Get(MessagesSent); got != 5 {
		t.Fatalf("Get = %d, want 5", got)
	}
}

func TestMax(t *testing.T) {
	s := NewSet()
	s.Max(UnexpectedQueuePeak, 3)
	s.Max(UnexpectedQueuePeak, 1)
	s.Max(UnexpectedQueuePeak, 7)
	if got := s.Get(UnexpectedQueuePeak); got != 7 {
		t.Fatalf("Max result = %d, want 7", got)
	}
}

func TestMaxConcurrent(t *testing.T) {
	s := NewSet()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Max(PostedQueuePeak, int64(g*1000+i))
			}
		}(g)
	}
	wg.Wait()
	if got := s.Get(PostedQueuePeak); got != 7999 {
		t.Fatalf("concurrent Max = %d, want 7999", got)
	}
}

func TestReset(t *testing.T) {
	s := NewSet()
	s.Add(MessagesSent, 10)
	s.Add(OutOfSequence, 3)
	s.Reset()
	for c := Counter(0); int(c) < NumCounters; c++ {
		if s.Get(c) != 0 {
			t.Fatalf("counter %v = %d after Reset", c, s.Get(c))
		}
	}
}

func TestSnapshotSub(t *testing.T) {
	s := NewSet()
	s.Add(MessagesSent, 10)
	s.Max(PostedQueuePeak, 4)
	before := s.Snapshot()
	s.Add(MessagesSent, 5)
	s.Max(PostedQueuePeak, 6)
	diff := s.Snapshot().Sub(before)
	if diff.Get(MessagesSent) != 5 {
		t.Fatalf("diff messages_sent = %d, want 5", diff.Get(MessagesSent))
	}
	// Peaks carry the absolute value rather than a delta.
	if diff.Get(PostedQueuePeak) != 6 {
		t.Fatalf("diff posted_queue_peak = %d, want 6", diff.Get(PostedQueuePeak))
	}
}

func TestOutOfSequencePercent(t *testing.T) {
	var sn Snapshot
	if sn.OutOfSequencePercent() != 0 {
		t.Fatal("empty snapshot OOS%% non-zero")
	}
	sn[MessagesReceived] = 200
	sn[OutOfSequence] = 50
	if got := sn.OutOfSequencePercent(); got != 25 {
		t.Fatalf("OOS%% = %v, want 25", got)
	}
}

func TestSnapshotString(t *testing.T) {
	s := NewSet()
	s.Add(OutOfSequence, 42)
	out := s.Snapshot().String()
	if !strings.Contains(out, "out_of_sequence") || !strings.Contains(out, "42") {
		t.Fatalf("String() missing counter line: %q", out)
	}
	if strings.Contains(out, "messages_sent") {
		t.Fatalf("String() includes zero counter: %q", out)
	}
}

func TestCounterString(t *testing.T) {
	if OutOfSequence.String() != "out_of_sequence" {
		t.Fatalf("OutOfSequence.String() = %q", OutOfSequence.String())
	}
	if got := Counter(999).String(); !strings.Contains(got, "999") {
		t.Fatalf("unknown counter String() = %q", got)
	}
}

func TestMerge(t *testing.T) {
	var a, b Snapshot
	a[MessagesSent], b[MessagesSent] = 3, 4
	a[UnexpectedQueuePeak], b[UnexpectedQueuePeak] = 9, 5
	m := Merge(a, b)
	if m.Get(MessagesSent) != 7 {
		t.Fatalf("merged messages_sent = %d, want 7", m.Get(MessagesSent))
	}
	if m.Get(UnexpectedQueuePeak) != 9 {
		t.Fatalf("merged peak = %d, want 9 (max)", m.Get(UnexpectedQueuePeak))
	}
}

// TestQuickAddCommutes checks that concurrent Adds from any partition of a
// total always sum to the total (atomicity property).
func TestQuickAddCommutes(t *testing.T) {
	prop := func(parts []uint16) bool {
		s := NewSet()
		var want int64
		var wg sync.WaitGroup
		for _, p := range parts {
			want += int64(p)
			wg.Add(1)
			go func(p int64) {
				defer wg.Done()
				s.Add(MessagesSent, p)
			}(int64(p))
		}
		wg.Wait()
		return s.Get(MessagesSent) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCounterByNameRoundtrip checks String/CounterByName are inverses over
// every defined counter, and that unknown names are rejected.
func TestCounterByNameRoundtrip(t *testing.T) {
	for i := 0; i < NumCounters; i++ {
		c := Counter(i)
		got, ok := CounterByName(c.String())
		if !ok || got != c {
			t.Fatalf("CounterByName(%q) = %v, %v; want %v, true", c.String(), got, ok, c)
		}
	}
	if _, ok := CounterByName("no_such_counter"); ok {
		t.Fatal("CounterByName accepted an unknown name")
	}
}

// TestWireCounterNames pins the exported names of the wire-batching and
// ring-backpressure counters: operators read them off /spc and dashboards
// key on the Prometheus families derived from them.
func TestWireCounterNames(t *testing.T) {
	for c, want := range map[Counter]string{
		WireFlushes:         "wire_flushes",
		WireFramesFlushed:   "wire_frames_flushed",
		WireBackstopFlushes: "wire_backstop_flushes",
		WireFlushFailures:   "wire_flush_failures",
		WireFramesStranded:  "wire_frames_stranded",
		WireFramesRejected:  "wire_frames_rejected",
		RingFullWaits:       "ring_full_waits",
		WireReadsPolled:     "wire_reads_polled",
		WireReadsParked:     "wire_reads_parked",
	} {
		if got := c.String(); got != want {
			t.Errorf("counter %d is named %q, want %q", int(c), got, want)
		}
	}
}

func BenchmarkInc(b *testing.B) {
	s := NewSet()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Inc(MessagesSent)
	}
}
