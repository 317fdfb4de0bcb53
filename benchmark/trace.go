package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanKind names a span: one kind per phase of a loop iteration, recorded
// around the benchmark's own calls into core and rma.
type spanKind uint8

const (
	spanRep spanKind = iota
	spanWindow
	spanPostSends
	spanWaitSends
	spanPostRecvs
	spanWaitRecvs
	spanPutBurst
	spanFlush
	spanSend
	spanRecv
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"rep", "window", "post_sends", "wait_sends", "post_recvs",
	"wait_recvs", "put_burst", "flush", "send", "recv"}

func (k spanKind) String() string { return spanNames[k] }

// span is one timed interval. Times are nanoseconds since the run's epoch;
// Parent is the id of the span that caused this one (0 for a rep). It holds
// no pointers, so a slice of spans can live outside the Go heap.
type span struct {
	ID, Parent  int64
	T0, T1      int64
	Rep, Window int32
	Kind        spanKind
}

// spanLog is one thread's preallocated span buffer. Its memory is mapped
// outside the Go heap (allocSpans): megabytes of retained spans inside a
// heap of one or two would halve the garbage collector's cycle rate and
// make the traced repetitions faster than the plain ones. A nil log
// records nothing and reads no clock, so the untraced loops carry only nil
// checks.
type spanLog struct {
	epoch time.Time
	rep   int32
	repID int64
	next  int64
	spans []span
	free  func()
}

// newSpanLog makes the log of thread (numbered from 0 within the run) for
// one repetition, sized for capacity spans so the loop never allocates.
func newSpanLog(epoch time.Time, thread, rep, capacity int) *spanLog {
	base := (int64(rep)*8 + int64(thread) + 1) << 32
	spans, free := allocSpans(capacity + 1)
	return &spanLog{epoch: epoch, rep: int32(rep), repID: base, next: base + 1, spans: spans, free: free}
}

func (s *spanLog) now() int64 {
	if s == nil {
		return 0
	}
	return int64(time.Since(s.epoch))
}

func (s *spanLog) add(parent int64, kind spanKind, window int, t0, t1 int64) int64 {
	id := s.next
	s.next++
	s.spans = append(s.spans, span{ID: id, Parent: parent, Kind: kind,
		Rep: s.rep, Window: int32(window), T0: t0, T1: t1})
	return id
}

// phases records one loop iteration: a window span from t0 to t2 with two
// children that split it at t1.
func (s *spanLog) phases(window int, t0, t1, t2 int64, first, second spanKind) {
	if s == nil {
		return
	}
	w := s.add(s.repID, spanWindow, window, t0, t2)
	s.add(w, first, window, t0, t1)
	s.add(w, second, window, t1, t2)
}

// closeRep records the thread's whole loop as the parent of its windows.
func (s *spanLog) closeRep(t0, t1 int64) {
	if s == nil {
		return
	}
	s.spans = append(s.spans, span{ID: s.repID, Kind: spanRep, Rep: s.rep, Window: -1, T0: t0, T1: t1})
}

// spanStat sums one span kind: how many, their total duration, and their
// self time (duration minus the part their children cover).
type spanStat struct {
	Count           int64
	TotalNs, SelfNs int64
}

func spanStats(logs []*spanLog) [numSpanKinds]spanStat {
	children := make(map[int64]int64)
	for _, l := range logs {
		for _, sp := range l.spans {
			if sp.Parent != 0 {
				children[sp.Parent] += sp.T1 - sp.T0
			}
		}
	}
	var out [numSpanKinds]spanStat
	for _, l := range logs {
		for _, sp := range l.spans {
			st := &out[sp.Kind]
			d := sp.T1 - sp.T0
			st.Count++
			st.TotalNs += d
			st.SelfNs += d - children[sp.ID]
		}
	}
	return out
}

// spanFields names the columns of a span row in the trace file.
const spanFields = `["id","parent","name","rep","window","t0_ns","t1_ns"]`

// writeTrace writes the run's spans as one JSON document after the last
// repetition: one row per span in the order of spanFields; the workload is
// the document's, not repeated per row.
func writeTrace(dir, workload string, seed uint64, host hostInfo, logs []*spanLog) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	hb, err := json.Marshal(host)
	if err != nil {
		f.Close()
		return "", err
	}
	fmt.Fprintf(w, "{\"host\":%s,\"workload\":%q,\"seed\":%d,\"fields\":%s,\"spans\":[", hb, workload, seed, spanFields)
	sep := ""
	for _, l := range logs {
		for _, sp := range l.spans {
			fmt.Fprintf(w, "%s\n[%d,%d,%q,%d,%d,%d,%d]", sep, sp.ID, sp.Parent, sp.Kind.String(), sp.Rep, sp.Window, sp.T0, sp.T1)
			sep = ","
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
