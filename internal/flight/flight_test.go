package flight

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// A nil ring and nil recorder must absorb every call.
func TestNilSafety(t *testing.T) {
	var r *Ring
	r.Record(KindSendPost, 1, 2, 3)
	r.RecordAt(r.Now(), KindProgress, 0, 4, 0, 2, 9)
	if got := r.Events(nil); got != nil {
		t.Fatalf("nil ring events = %v", got)
	}
	var rec *Recorder
	rec.SetClock(func() int64 { return 0 })
	if rec.NewRing("x") != nil {
		t.Fatal("nil recorder returned a ring")
	}
	if rec.Merged() != nil || rec.Labels() != nil || rec.StartUnixNano() != 0 {
		t.Fatal("nil recorder leaked state")
	}
	rr := rec.RankRecord(3)
	if rr.Rank != 3 || len(rr.Events) != 0 {
		t.Fatalf("nil recorder rank record = %+v", rr)
	}
}

func TestRecordAndMerge(t *testing.T) {
	rec := NewRecorder(16)
	clock := int64(0)
	rec.SetClock(func() int64 { clock += 5; return clock })
	a := rec.NewRing("t0")
	b := rec.NewRing("t1")

	a.Record(KindSendPost, 7, 1, 100)
	b.Record(KindMatchMiss, 7, 1, 42)
	a.Record(KindMatchHit, 7, 1, 0)

	ev := rec.Merged()
	if len(ev) != 3 {
		t.Fatalf("merged %d events, want 3", len(ev))
	}
	for i, want := range []Kind{KindSendPost, KindMatchMiss, KindMatchHit} {
		if ev[i].Kind != want {
			t.Fatalf("event %d kind = %v, want %v", i, ev[i].Kind, want)
		}
		if i > 0 && ev[i].Seq <= ev[i-1].Seq {
			t.Fatalf("merge not seq-ordered: %v", ev)
		}
	}
	if ev[0].Comm != 7 || ev[0].A0 != 1 || ev[0].A1 != 100 || ev[0].TS != 5 {
		t.Fatalf("event payload mangled: %+v", ev[0])
	}
	if ev[1].Ring != 1 || ev[0].Ring != 0 {
		t.Fatalf("ring ids wrong: %+v", ev)
	}
	if got := rec.Labels(); len(got) != 2 || got[0] != "t0" || got[1] != "t1" {
		t.Fatalf("labels = %v", got)
	}
	if rec.StartUnixNano() != 0 {
		t.Fatal("virtual clock should clear the wall anchor")
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	rec := NewRecorder(8) // rounds to 8 slots
	r := rec.NewRing("w")
	for i := 0; i < 20; i++ {
		r.RecordAt(int64(i), KindProgress, 0, int32(i), 0, -1, 0)
	}
	ev := rec.Merged()
	if len(ev) != 8 {
		t.Fatalf("retained %d events, want 8", len(ev))
	}
	for _, e := range ev {
		if e.A0 < 12 {
			t.Fatalf("retained stale event %+v", e)
		}
	}
}

func TestNegativeArgsRoundTrip(t *testing.T) {
	rec := NewRecorder(4)
	r := rec.NewRing("n")
	r.RecordAt(1, KindRecvPost, 0xffffff, -1, -2, -1, 0)
	ev := rec.Merged()
	if len(ev) != 1 || ev[0].A0 != -1 || ev[0].A1 != -2 || ev[0].Comm != 0xffffff {
		t.Fatalf("negative args mangled: %+v", ev)
	}
}

// Concurrent writers on one ring plus concurrent snapshot readers: the
// seqlock must keep this race-detector clean and every surviving event
// internally consistent (kind/a0 agree).
func TestConcurrentRecordAndSnapshot(t *testing.T) {
	rec := NewRecorder(64)
	r := rec.NewRing("hot")
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 5000; i++ {
				r.Record(KindSendPost, uint32(w), int32(i), int32(i))
			}
		}(w)
	}
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, e := range rec.Merged() {
				if e.Kind != KindSendPost || e.A0 != e.A1 {
					t.Errorf("torn event escaped: %+v", e)
					return
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()
	if n := len(rec.Merged()); n == 0 || n > 64 {
		t.Fatalf("retained %d events, want 1..64", n)
	}
}

// The instance and flow attribution must survive the packed slot, and an
// event without them must look exactly as it did before they existed: the
// virtual-time stall dump is compared byte for byte.
func TestAttributionRoundTripAndOmission(t *testing.T) {
	rec := NewRecorder(4)
	rec.SetClock(func() int64 { return 3 })
	r := rec.NewRing("a")
	r.RecordAt(7, KindSendInject, 2, 1, 5, 0, 0xfeedface12345678)
	r.RecordAt(8, KindRecvDeliver, 2, 0, 5, 65534, 1)
	r.RecordAt(9, KindProgress, 0, 4, 0, 1<<20, 0) // out of range: unattributed
	r.Record(KindMatchHit, 2, 0, 1)
	ev := rec.Merged()
	if len(ev) != 4 {
		t.Fatalf("merged %d events, want 4", len(ev))
	}
	if ev[0].CRI() != 0 || ev[0].Inst != 1 || ev[0].Flow != 0xfeedface12345678 || ev[0].A1 != 5 || ev[0].TS != 7 {
		t.Fatalf("attributed event mangled: %+v", ev[0])
	}
	if ev[1].CRI() != 65534 || ev[1].Flow != 1 {
		t.Fatalf("largest instance index mangled: %+v", ev[1])
	}
	if ev[2].CRI() != -1 || ev[3].CRI() != -1 || ev[3].Flow != 0 || ev[3].TS != 3 {
		t.Fatalf("unattributed events: %+v %+v", ev[2], ev[3])
	}
	plain, err := json.Marshal(ev[3])
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"ts_ns":3,"seq":4,"kind":"match_hit","ring":0,"comm":2,"a0":0,"a1":1}`; string(plain) != want {
		t.Fatalf("unattributed event JSON = %s, want %s", plain, want)
	}
	full, _ := json.Marshal(ev[0])
	if !strings.Contains(string(full), `"inst":1`) || !strings.Contains(string(full), `"flow":18369614218089748088`) {
		t.Fatalf("attributed event JSON = %s", full)
	}
	if s := ev[0].String(); !strings.Contains(s, "send_inject") || !strings.Contains(s, "cri=0") || !strings.Contains(s, "flow=0xfeedface12345678") {
		t.Fatalf("event text = %q", s)
	}
}

// A record written by WriteRecords is the trace shard: reading it back must
// reproduce it, kinds by name and clock anchors included.
func TestRecordsRoundTrip(t *testing.T) {
	rec := NewRecorder(4)
	r := rec.NewRing("t0")
	r.RecordAt(10, KindSendInject, 1, 1, 7, 2, 0xabc)
	r.RecordAt(20, KindProgress, 0, 4, 0, -1, 0)
	want := rec.RankRecord(3)
	want.ClockToRank0Ns = -250
	var buf bytes.Buffer
	if err := WriteRecords(&buf, []RankRecord{want}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	if want.StartUnixNs == 0 {
		t.Fatal("a wall-clock recorder must carry its start anchor")
	}
	for _, bad := range []string{`{`, `[{"rank":0,"rings":[],"events":[{"kind":"no_such_kind"}]}]`, `[{"events":[{"kind":7}]}]`} {
		if _, err := ReadRecords(strings.NewReader(bad)); err == nil {
			t.Fatalf("ReadRecords accepted %s", bad)
		}
	}
}

func TestKindJSONAndString(t *testing.T) {
	b, err := json.Marshal(KindUnexpEnq)
	if err != nil || string(b) != `"unexp_enq"` {
		t.Fatalf("kind json = %s, %v", b, err)
	}
	if Kind(200).String() != "kind(200)" {
		t.Fatalf("unknown kind string = %q", Kind(200))
	}
}

func TestWriteRecords(t *testing.T) {
	rec := NewRecorder(4)
	rec.SetClock(func() int64 { return 9 })
	rec.NewRing("only").Record(KindAckRecv, 0, 1, 2)
	var buf bytes.Buffer
	if err := WriteRecords(&buf, []RankRecord{rec.RankRecord(0)}); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{`"ack_recv"`, `"rings"`, `"only"`, `"ts_ns": 9`} {
		if !strings.Contains(s, want) {
			t.Fatalf("record JSON missing %s:\n%s", want, s)
		}
	}
	// nil slice must still encode as a JSON array.
	buf.Reset()
	if err := WriteRecords(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Fatalf("nil records JSON = %q", buf.String())
	}
}
