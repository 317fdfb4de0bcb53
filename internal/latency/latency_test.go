package latency

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/flight"
)

func meas(id uint64, e2e int64) Measurement {
	m := Measurement{TraceID: id, E2ENs: e2e, CompletedAtNs: e2e}
	for s := range m.StageNs {
		m.StageNs[s] = Unknown
	}
	m.StageNs[StageDeliverWait] = e2e / 2
	m.StageNs[StageMatchPosted] = e2e / 4
	return m
}

func TestStageNamesAndHistNames(t *testing.T) {
	want := []string{"cri_acquire", "wire_write", "transit", "deliver_wait",
		"match_posted", "match_unexpected", "complete"}
	for s := Stage(0); s < NumStages; s++ {
		if s.String() != want[s] {
			t.Fatalf("Stage(%d) = %q, want %q", s, s.String(), want[s])
		}
		hn := s.HistName()
		if !strings.HasPrefix(hn, "latency_stage_") || !strings.HasSuffix(hn, "_ns") {
			t.Fatalf("HistName %q not of the latency_stage_*_ns form", hn)
		}
	}
	if Stage(99).String() == "" {
		t.Fatal("out-of-range stage has no printable name")
	}
}

// TestNilRecorderSafe: every method on a nil recorder is a no-op — the
// hot-path contract that lets call sites skip guards.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder claims enabled")
	}
	r.ObserveStage(StageCRIAcquire, 10)
	r.Record(meas(1, 100))
	if r.Exemplars() != nil || r.Snapshot() != nil {
		t.Fatal("nil recorder returned data")
	}
	if st, e2e, ok := r.StageP99s(); ok || st != nil || e2e != 0 {
		t.Fatal("nil recorder produced stage p99s")
	}
	d := r.Dump(3, flight.RankRecord{})
	if d.Rank != 3 || len(d.Stages) != 0 || len(d.Exemplars) != 0 {
		t.Fatalf("nil recorder dump: %+v", d)
	}
}

// TestReservoirKeepsSlowest: a reservoir of capacity k retains exactly the
// k slowest measurements, sorted slowest-first on extraction.
func TestReservoirKeepsSlowest(t *testing.T) {
	r := NewRecorder(4)
	for i := 1; i <= 100; i++ {
		r.Record(meas(uint64(i), int64(i)*10))
	}
	ex := r.Exemplars()
	if len(ex) != 4 {
		t.Fatalf("reservoir holds %d, want 4", len(ex))
	}
	for i, want := range []int64{1000, 990, 980, 970} {
		if ex[i].E2ENs != want {
			t.Fatalf("exemplar %d e2e = %d, want %d", i, ex[i].E2ENs, want)
		}
	}
}

// TestReservoirDeterministicTieBreak: equal latencies are common in virtual
// time; ties must resolve by trace id regardless of arrival order so dumps
// stay byte-reproducible.
func TestReservoirDeterministicTieBreak(t *testing.T) {
	ids := [][]uint64{{5, 3, 1, 4, 2}, {1, 2, 3, 4, 5}, {2, 4, 5, 1, 3}}
	var first []Measurement
	for _, order := range ids {
		r := NewRecorder(2)
		for _, id := range order {
			r.Record(meas(id, 500))
		}
		got := r.Exemplars()
		if len(got) != 2 || got[0].TraceID != 1 || got[1].TraceID != 2 {
			t.Fatalf("order %v kept %+v, want trace ids 1,2", order, got)
		}
		if first == nil {
			first = got
		}
	}
}

// TestRecordSkipsSenderStagesAndUnknowns: Record histograms only the
// receive-path stages — sender stages arrive via ObserveStage on the sender
// — and Unknown (-1) durations stay out of the histograms entirely.
func TestRecordSkipsSenderStagesAndUnknowns(t *testing.T) {
	r := NewRecorder(0)
	m := meas(1, 1000)
	m.StageNs[StageCRIAcquire] = 400 // sender-local: must NOT histogram here
	m.StageNs[StageTransit] = Unknown
	r.Record(m)
	stages, e2e, ok := r.StageP99s()
	if !ok || e2e <= 0 {
		t.Fatalf("no e2e after Record: %v %v", e2e, ok)
	}
	for _, sp := range stages {
		if sp.Stage == "cri_acquire" {
			t.Fatal("Record histogrammed a sender-local stage")
		}
		if sp.Stage == "transit" {
			t.Fatal("Record histogrammed an Unknown stage")
		}
	}
	r.ObserveStage(StageCRIAcquire, 400)
	stages, _, _ = r.StageP99s()
	found := false
	for _, sp := range stages {
		if sp.Stage == "cri_acquire" && sp.P99Ns == 400 {
			found = true
		}
	}
	if !found {
		t.Fatalf("ObserveStage did not land: %+v", stages)
	}
}

// TestDumpEventWindowing: an exemplar picks up exactly the flight events
// inside its lifetime window and none outside it.
func TestDumpEventWindowing(t *testing.T) {
	r := NewRecorder(1)
	m := meas(7, 1000)
	m.CompletedAtNs = 5000 // lifetime [4000-slack, 5000+slack]
	r.Record(m)
	rec := flight.RankRecord{Events: []flight.Event{
		{TS: 100},  // long before
		{TS: 4500}, // inside
		{TS: 5000}, // at completion
		{TS: 9000}, // long after
	}}
	d := r.Dump(0, rec)
	if len(d.Exemplars) != 1 {
		t.Fatalf("exemplars = %d, want 1", len(d.Exemplars))
	}
	got := d.Exemplars[0].Events
	if len(got) != 2 || got[0].TS != 4500 || got[1].TS != 5000 {
		t.Fatalf("windowed events = %+v, want TS 4500 and 5000", got)
	}
	// The dump spells out every stage, unknowns as -1, in stage order.
	if len(d.Exemplars[0].Stages) != int(NumStages) {
		t.Fatalf("exemplar stage vector length %d", len(d.Exemplars[0].Stages))
	}
	if d.Exemplars[0].Stages[StageCRIAcquire].Ns != Unknown {
		t.Fatal("unknown stage not preserved as -1")
	}

	// A crowded lifetime keeps only the events nearest the completion.
	var crowded flight.RankRecord
	for i := 0; i < exemplarMaxEvents+40; i++ {
		crowded.Events = append(crowded.Events, flight.Event{TS: 4100, Seq: uint64(i + 1)})
	}
	got = r.Dump(0, crowded).Exemplars[0].Events
	if len(got) != exemplarMaxEvents || got[0].Seq != 41 || got[len(got)-1].Seq != exemplarMaxEvents+40 {
		t.Fatalf("crowded window kept %d events, seq %d..%d", len(got), got[0].Seq, got[len(got)-1].Seq)
	}
}

// TestWriteDumpsNilIsEmptyArray: a nil dump set renders as [] not null, so
// consumers can always range over the document.
func TestWriteDumpsNilIsEmptyArray(t *testing.T) {
	var b bytes.Buffer
	if err := WriteDumps(&b, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(b.String()) != "[]" {
		t.Fatalf("nil dumps rendered %q", b.String())
	}
}
