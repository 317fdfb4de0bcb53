package core

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/backends"
	"repro/internal/spc"
	"repro/internal/transport"
)

func TestRelNextSeqSkipsSentinel(t *testing.T) {
	if got := relNextSeq(0); got != 1 {
		t.Fatalf("relNextSeq(0) = %d, want 1", got)
	}
	if got := relNextSeq(5); got != 6 {
		t.Fatalf("relNextSeq(5) = %d, want 6", got)
	}
	// The wrap: MaxUint64 + 1 would be 0, the "untracked" wire sentinel,
	// so the stream must continue at 1.
	if got := relNextSeq(math.MaxUint64); got != 1 {
		t.Fatalf("relNextSeq(MaxUint64) = %d, want 1 (sentinel skipped)", got)
	}
}

func TestRelSeqSerialOrder(t *testing.T) {
	cases := []struct {
		a, b uint64
		want bool
	}{
		{1, 1, true},
		{1, 2, true},
		{2, 1, false},
		{math.MaxUint64, 1, true},  // pre-wrap precedes post-wrap
		{1, math.MaxUint64, false}, // post-wrap does NOT precede pre-wrap
		{math.MaxUint64 - 10, math.MaxUint64, true},
	}
	for _, c := range cases {
		if got := relSeqBeforeOrEq(c.a, c.b); got != c.want {
			t.Errorf("relSeqBeforeOrEq(%d, %d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestReliabilityWraparound is the ISSUE 7 regression test for the
// reliability window: seed the sender's per-peer transport sequence and the
// receiver's cumulative mark just below 2^64 and push messages across the
// wrap. With the old plain `>` / `== cum+1` comparisons every post-wrap
// packet would be misclassified as a duplicate and dropped (and RelSeq 0
// would collide with the "untracked" sentinel); with serial arithmetic all
// messages deliver exactly once.
func TestReliabilityWraparound(t *testing.T) {
	const start = math.MaxUint64 - 3 // four pre-wrap seqs, then the wrap
	// The retransmit timer is pinned far beyond the test's runtime: under load
	// a legitimate 1 ms timer retransmission can race its own ack and be
	// counted as a duplicate, which is not what this test is about.
	w := newTestWorld(t, 2, Options{Network: backends.Faulty(transport.FaultConfig{})})
	p0, p1 := w.Proc(0), w.Proc(1)
	p0.rel.rto, p1.rel.rto = time.Minute, time.Minute

	// Seed both ends of the 0 -> 1 stream near the wrap, in lockstep.
	p0.rel.send[1].nextSeq = start
	p1.rel.recv[0].cum = start

	c0, c1 := p0.CommWorld(), p1.CommWorld()
	t0, t1 := p0.NewThread(), p1.NewThread()

	const n = 10 // crosses the wrap mid-run
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := c0.Send(t0, 1, int32(i), []byte{byte(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		buf := make([]byte, 4)
		st, err := c1.Recv(t1, 0, int32(i), buf)
		if err != nil {
			t.Fatalf("recv %d across wrap: %v", i, err)
		}
		if st.Count != 1 || buf[0] != byte(i) {
			t.Fatalf("recv %d delivered %v", i, buf[:st.Count])
		}
	}
	wg.Wait()

	if rtx := p0.spcs.Get(spc.Retransmits); rtx != 0 {
		t.Fatalf("sender retransmitted %d times with a one-minute timer", rtx)
	}
	if dup := p1.spcs.Get(spc.DuplicatePackets); dup != 0 {
		t.Fatalf("receiver counted %d duplicate packets across the wrap (serial-arithmetic bug)", dup)
	}
	// The sender's counter wrapped and skipped the sentinel: it must now be
	// small and nonzero, and the receiver tracked it in lockstep.
	p0.rel.send[1].mu.Lock()
	next := p0.rel.send[1].nextSeq
	p0.rel.send[1].mu.Unlock()
	if next == 0 || next > uint64(n) {
		t.Fatalf("sender nextSeq = %d after wrap, want in (0, %d]", next, n)
	}
}
