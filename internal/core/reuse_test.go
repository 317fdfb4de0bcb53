package core

import (
	"errors"
	"testing"

	"repro/internal/backends"
	"repro/internal/transport"
)

// The benchmark's pattern: a window of receives, WaitAll, then each handle's
// Status — read once right after WaitAll and again after the next window was
// posted on the same Thread, reusing the first window's records, and had
// completed. Every handle keeps reporting its own message.
func TestStatusOutlivesRecordReuse(t *testing.T) {
	const window = 8
	w := newTestWorld(t, 2, Stock())
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	c0, c1 := w.Proc(0).CommWorld(), w.Proc(1).CommWorld()
	round := func(base int32) ([]*Request, map[*recvRec]bool) {
		reqs := make([]*Request, window)
		recs := make(map[*recvRec]bool, window)
		for k := range reqs {
			var err error
			if reqs[k], err = c1.Irecv(t1, 0, base+int32(k), make([]byte, 16)); err != nil {
				t.Fatal(err)
			}
			recs[reqs[k].rec] = true
		}
		for k := range reqs {
			if _, err := c0.Isend(t0, 1, base+int32(k), make([]byte, k+int(base%5))); err != nil {
				t.Fatal(err)
			}
		}
		if err := WaitAll(t1, reqs...); err != nil {
			t.Fatal(err)
		}
		return reqs, recs
	}
	check := func(when string, reqs []*Request, base int32) {
		t.Helper()
		for k, r := range reqs {
			n := k + int(base%5)
			want := Status{Source: 0, Tag: base + int32(k), Count: n, MessageLen: n}
			if got := r.Status(); got != want {
				t.Fatalf("%s: handle %d reads %+v, want %+v", when, k, got, want)
			}
		}
	}
	first, firstRecs := round(0)
	check("after WaitAll", first, 0)
	second, secondRecs := round(100)
	for rec := range secondRecs {
		if !firstRecs[rec] {
			t.Fatal("the second window carved a record instead of reusing the first window's")
		}
	}
	check("after the next window reused its records", first, 0)
	check("the next window", second, 100)
}

// One Thread posts, waits and recycles 10⁵ receives — its self sends match
// them at once, so one record serves them all — while another goroutine, with
// a Thread of its own, Tests and reads the Status of handles already waited
// on. Under the race detector nothing is shared but the handles' own results,
// and no stale handle ever reports another receive's tag, source or count.
func TestStaleHandlesReadOnlyTheirOwnResult(t *testing.T) {
	const n = 100_000
	w := newTestWorld(t, 1, Stock())
	p, c := w.Proc(0), w.Proc(0).CommWorld()
	type waited struct {
		req   *Request
		tag   int32
		count int
	}
	stale := make(chan waited, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		th := p.NewThread()
		var held []waited
		failed := false
		for h := range stale {
			if failed {
				continue // keep draining so the owner never blocks
			}
			if held = append(held, h); len(held) > 32 {
				held = held[1:]
			}
			for _, h := range held {
				ok, err := h.req.Test(th)
				st := h.req.Status()
				if !ok || err != nil || st != (Status{Source: 0, Tag: h.tag, Count: h.count, MessageLen: h.count}) {
					t.Errorf("stale handle for tag %d count %d: Test %v %v, Status %+v", h.tag, h.count, ok, err, st)
					failed = true
					break
				}
			}
		}
	}()
	th := p.NewThread()
	buf, payload := make([]byte, 8), make([]byte, 8)
	for i := range n {
		tag, count := int32(i%97), i%9
		r, err := c.Irecv(th, 0, tag, buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Isend(th, 0, tag, payload[:count]); err != nil {
			t.Fatal(err)
		}
		if err := r.Wait(th); err != nil {
			t.Fatal(err)
		}
		select {
		case stale <- waited{r, tag, count}:
		default:
		}
	}
	close(stale)
	<-done
	if carved := slabLen[recvRec]() - len(th.recs); carved != 1 {
		t.Fatalf("%d receives carved %d records, want 1 reused throughout", n, carved)
	}
}

// selfReceive posts a receive of tag on th and completes it with a self send
// of payload, without waiting on it.
func selfReceive(t *testing.T, c *Comm, th *Thread, tag int32, buf, payload []byte) *Request {
	t.Helper()
	r, err := c.Irecv(th, c.Rank(), tag, buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Isend(th, c.Rank(), tag, payload); err != nil {
		t.Fatal(err)
	}
	if !r.Done() {
		t.Fatal("a self send left its matching receive pending")
	}
	return r
}

// A receive waited through a Thread that did not post it keeps its record:
// only the posting Thread's own list may take it, so the waiter leaves it to
// the collector — unless the posting Thread waits on it too.
func TestForeignWaitKeepsTheRecord(t *testing.T) {
	w := newTestWorld(t, 1, Stock())
	p, c := w.Proc(0), w.Proc(0).CommWorld()
	owner, foreign := p.NewThread(), p.NewThread()
	r := selfReceive(t, c, owner, 1, make([]byte, 4), []byte("x"))
	if err := r.Wait(foreign); err != nil {
		t.Fatal(err)
	}
	if ok, err := r.Test(foreign); !ok || err != nil {
		t.Fatalf("Test through the foreign Thread: %v %v", ok, err)
	}
	if owner.recvFree != nil || foreign.recvFree != nil || r.rec.Token != any(r) {
		t.Fatal("a receive waited through a foreign Thread was recycled")
	}
	if err := r.Wait(owner); err != nil {
		t.Fatal(err)
	}
	if owner.recvFree != r.rec {
		t.Fatal("the posting Thread's Wait did not take the record back")
	}
}

// A released record holds no user buffer and no handle, and a second Wait on
// its old handle does not release it again.
func TestReleasedRecordHoldsNoBuffer(t *testing.T) {
	w := newTestWorld(t, 1, Stock())
	th, c := w.Proc(0).NewThread(), w.Proc(0).CommWorld()
	buf := make([]byte, 64)
	r := selfReceive(t, c, th, 1, buf, []byte("payload"))
	if err := r.Wait(th); err != nil {
		t.Fatal(err)
	}
	rec := r.rec
	if th.recvFree != rec || rec.Buf != nil || rec.Token != nil {
		t.Fatalf("released record: on the list %v, Buf %d bytes, Token %v", th.recvFree == rec, len(rec.Buf), rec.Token)
	}
	if err := r.Wait(th); err != nil || th.recvFree != rec || rec.next != nil {
		t.Fatalf("a second Wait on the handle: %v, free list head %p next %p, want the record once", err, th.recvFree, rec.next)
	}
	if got := r.Status(); got.Count != 7 || got.Tag != 1 {
		t.Fatalf("status after release %+v", got)
	}
}

// WaitAny reports one request and releases only that one's record; the
// others stay theirs until they are waited on.
func TestWaitAnyReleasesWhatItReports(t *testing.T) {
	w := newTestWorld(t, 1, Stock())
	th, c := w.Proc(0).NewThread(), w.Proc(0).CommWorld()
	ra := selfReceive(t, c, th, 1, make([]byte, 4), []byte("a"))
	rb := selfReceive(t, c, th, 2, make([]byte, 4), []byte("b"))
	i, err := WaitAny(th, rb, ra)
	if err != nil || i != 0 {
		t.Fatalf("WaitAny = %d, %v; want 0", i, err)
	}
	if th.recvFree != rb.rec || rb.rec.next != nil || ra.rec.Token != any(ra) {
		t.Fatal("WaitAny released another record than the one it reported")
	}
	if err := WaitAll(th, ra, rb); err != nil {
		t.Fatal(err)
	}
	if th.recvFree != ra.rec || ra.rec.next != rb.rec || rb.rec.next != nil {
		t.Fatal("WaitAll did not release the remaining record exactly once")
	}
}

// Eager sends on a lossless wire are complete when Isend returns and may all
// return their proc's one completed handle; WaitAll, WaitAny and TestAll
// over repeats of it behave as over distinct completed handles. A send the
// reliability layer tracks completes on its ack and has a handle of its own.
func TestEagerSendsShareOneHandle(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opts   Options
		shared bool
	}{
		{"lossless", Stock(), true},
		{"tracked", func() Options {
			o := Stock()
			o.Network = backends.Faulty(transport.FaultConfig{})
			return o
		}(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newTestWorld(t, 2, tc.opts)
			t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
			c0, c1 := w.Proc(0).CommWorld(), w.Proc(1).CommWorld()
			s1, err := c0.Isend(t0, 1, 1, []byte("one"))
			if err != nil {
				t.Fatal(err)
			}
			s2, err := c0.Isend(t0, 1, 2, []byte("two"))
			if err != nil {
				t.Fatal(err)
			}
			if (s1 == s2) != tc.shared {
				t.Fatalf("two sends returned the same handle: %v, want %v", s1 == s2, tc.shared)
			}
			if tc.shared {
				if i, err := WaitAny(t0, s2, s1); i != 0 || err != nil {
					t.Fatalf("WaitAny over the shared handle = %d, %v", i, err)
				}
				if ok, err := TestAll(t0, s1, s2, s1); !ok || err != nil {
					t.Fatalf("TestAll over the shared handle = %v, %v", ok, err)
				}
			}
			for i, want := range []string{"one", "two"} {
				got := make([]byte, 3)
				if st, err := c1.Recv(t1, 0, int32(i+1), got); err != nil || string(got) != want || st.Count != 3 {
					t.Fatalf("receive %d: %q %+v %v", i+1, got, st, err)
				}
			}
			if err := WaitAll(t0, s1, s2, s1); err != nil {
				t.Fatal(err)
			}
			if s1.Status() != (Status{}) || t0.recvFree != nil {
				t.Fatalf("a send's status %+v, or a send released a record", s1.Status())
			}
		})
	}
}

// A rendezvous receive and truncated receives, eager and rendezvous, keep
// reporting their status after their record has been reused by later
// receives.
func TestStatusAfterReuseRendezvousAndTruncated(t *testing.T) {
	w := newTestWorld(t, 2, Stock())
	t0, t1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()
	c0, c1 := w.Proc(0).CommWorld(), w.Proc(1).CommWorld()
	big := 2 * DefaultEagerLimit
	// exchange moves one message from rank 0 to rank 1 into a buffer of
	// room bytes and waits on both sides; the receive's error comes back.
	exchange := func(tag int32, size, room int) (*Request, error) {
		r, err := c1.Irecv(t1, 0, tag, make([]byte, room))
		if err != nil {
			t.Fatal(err)
		}
		s, err := c0.Isend(t0, 1, tag, make([]byte, size))
		if err != nil {
			t.Fatal(err)
		}
		for !r.Done() || !s.Done() {
			t0.Progress()
			t1.Progress()
		}
		if err := s.Wait(t0); err != nil {
			t.Fatal(err)
		}
		return r, r.Wait(t1)
	}
	rdv, err := exchange(5, big, big)
	if err != nil {
		t.Fatal(err)
	}
	rec := rdv.rec
	rdvCut, errCut := exchange(6, big, DefaultEagerLimit+1)
	eagerCut, errEager := exchange(7, 8, 4)
	for _, r := range []*Request{rdvCut, eagerCut} {
		if r.rec != rec {
			t.Fatal("a later receive carved a record instead of reusing the released one")
		}
	}
	if !errors.Is(errCut, ErrTruncated) || !errors.Is(errEager, ErrTruncated) {
		t.Fatalf("truncated receives: %v, %v; want ErrTruncated", errCut, errEager)
	}
	for i := range 3 { // reuse the record some more
		if _, err := exchange(int32(8+i), i, 8); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		r    *Request
		want Status
	}{
		{rdv, Status{Tag: 5, Count: big, MessageLen: big}},
		{rdvCut, Status{Tag: 6, Count: DefaultEagerLimit + 1, MessageLen: big, Truncated: true}},
		{eagerCut, Status{Tag: 7, Count: 4, MessageLen: 8, Truncated: true}},
	} {
		if got := tc.r.Status(); got != tc.want {
			t.Errorf("status after reuse %+v, want %+v", got, tc.want)
		}
	}
	if !errors.Is(rdvCut.result(), ErrTruncated) || rdv.result() != nil {
		t.Fatalf("errors after reuse: %v, %v", rdv.result(), rdvCut.result())
	}
}
