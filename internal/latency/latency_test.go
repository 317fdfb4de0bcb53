package latency

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/flight"
	"repro/internal/transport"
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
	r.RecordPacket(&transport.Packet{Meta: &transport.Meta{TraceID: 1, Stamp: 1}}, 0, false, 1, 100, 0)
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
		r.record(meas(uint64(i), int64(i)*10))
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
			r.record(meas(id, 500))
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

// TestRecordSkipsSenderStagesAndUnknowns: record histograms only the
// receive-path stages — sender stages arrive via ObserveStage on the sender
// — and Unknown (-1) durations stay out of the histograms entirely.
func TestRecordSkipsSenderStagesAndUnknowns(t *testing.T) {
	r := NewRecorder(0)
	m := meas(1, 1000)
	m.StageNs[StageCRIAcquire] = 400 // sender-local: must NOT histogram here
	m.StageNs[StageTransit] = Unknown
	r.record(m)
	stages, e2e, ok := r.StageP99s()
	if !ok || e2e <= 0 {
		t.Fatalf("no e2e after record: %v %v", e2e, ok)
	}
	for _, sp := range stages {
		if sp.Stage == "cri_acquire" {
			t.Fatal("record histogrammed a sender-local stage")
		}
		if sp.Stage == "transit" {
			t.Fatal("record histogrammed an Unknown stage")
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

// TestRecordPacketStampShapes pins the one stage derivation over every shape
// of stamps an engine hands it. u marks a stage left Unknown; each shape's
// known stages must sum to at most e2e.
func TestRecordPacketStampShapes(t *testing.T) {
	const u = Unknown
	for _, tc := range []struct {
		name                   string
		acq, wire, arrive, rcv int64 // packet stamps; send post at 1000
		now, base              int64
		unexpected             bool
		want                   [NumStages]int64
		wantE2E                int64
	}{
		{
			// The real engine in process: the sender stamps the acquire, but
			// the receiver owns the packet once Send returns, so SendWireNs is
			// never written and transit absorbs the wire write.
			name: "in-process real engine", acq: 50, arrive: 1200, rcv: 1300, now: 1400, base: 400,
			want:    [NumStages]int64{50, u, 150, 100, 100, u, 0},
			wantE2E: 400,
		},
		{
			// Over tcp the sender fields never cross the wire.
			name: "tcp", arrive: 1200, rcv: 1300, now: 1400, base: 400, unexpected: true,
			want:    [NumStages]int64{u, u, 200, 100, u, 100, 0},
			wantE2E: 400,
		},
		{
			// A self message bypasses the transport: no arrival stamp, so
			// transit absorbs the delivery wait.
			name: "self message", rcv: 1100, now: 1150, base: 400,
			want:    [NumStages]int64{u, u, 100, u, 50, u, 0},
			wantE2E: 150,
		},
		{
			// The model stamps arrival at injection complete: transit is
			// exactly 0 and the stages tile e2e.
			name: "virtual time", acq: 40, wire: 60, arrive: 1100, rcv: 1300, now: 1350,
			want:    [NumStages]int64{40, 60, 0, 200, 50, u, 0},
			wantE2E: 350,
		},
		{
			// An uncontended virtual acquire takes no time; zero reads as
			// unobserved, and transit is still exactly 0.
			name: "virtual time, free acquire", wire: 60, arrive: 1060, rcv: 1060, now: 1100, unexpected: true,
			want:    [NumStages]int64{u, 60, 0, 0, u, 40, 0},
			wantE2E: 100,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRecorder(1)
			pkt := &transport.Packet{Meta: &transport.Meta{TraceID: 9, Origin: 3, Stamp: 1000,
				SendAcqNs: tc.acq, SendWireNs: tc.wire, ArriveNs: tc.arrive, RecvStamp: tc.rcv}}
			r.RecordPacket(pkt, 5, tc.unexpected, pkt.Meta.Stamp, tc.now, tc.base)
			ex := r.Exemplars()
			if len(ex) != 1 {
				t.Fatalf("recorded %d measurements, want 1", len(ex))
			}
			m := ex[0]
			if m.StageNs != tc.want {
				t.Errorf("stages = %v, want %v", m.StageNs, tc.want)
			}
			if m.E2ENs != tc.wantE2E || m.CompletedAtNs != tc.now-tc.base ||
				m.TraceID != 9 || m.Origin != 3 || m.Tag != 5 || m.Unexpected != tc.unexpected {
				t.Errorf("measurement = %+v", m)
			}
			var sum int64
			for _, v := range m.StageNs {
				if v > 0 {
					sum += v
				}
			}
			if sum > m.E2ENs {
				t.Errorf("known stages sum %d > e2e %d", sum, m.E2ENs)
			}
		})
	}

	r := NewRecorder(1)
	r.RecordPacket(&transport.Packet{Meta: &transport.Meta{Stamp: 1000, RecvStamp: 1100}}, 0, false, 1000, 1200, 0)
	r.RecordPacket(nil, 0, false, 0, 0, 0)
	if len(r.Exemplars()) != 0 {
		t.Fatal("an untraced packet was recorded")
	}
}

// TestDumpEventWindowing: an exemplar picks up exactly the flight events
// inside its lifetime window and none outside it.
func TestDumpEventWindowing(t *testing.T) {
	r := NewRecorder(1)
	m := meas(7, 1000)
	m.CompletedAtNs = 5000 // lifetime [4000-slack, 5000+slack]
	r.record(m)
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
