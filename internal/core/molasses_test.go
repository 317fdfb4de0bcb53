package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/rma"
	"repro/internal/spc"
)

// molasses is a machine no host could emulate: every software operation
// costs a second, the NIC injects one message a second and the link moves a
// byte in eight seconds. The runtime takes only its context limits.
func molasses() hw.Machine {
	m := hw.Fast()
	m.Name = "molasses"
	m.LinkGbps = 1e-9
	m.MaxInjectionRate = 1
	m.Costs = hw.CostModel{
		SendInject: time.Second, RecvExtract: time.Second, CQPollEmpty: time.Second,
		MatchBase: time.Second, MatchPerElement: time.Second, RecvPost: time.Second,
		AllocSerialize: time.Second, OOSBuffer: time.Second,
		RMAPut: time.Second, RMAGet: time.Second, RMAFlushPerInstance: time.Second,
	}
	return m
}

// TestRuntimeRunsAtHostSpeed: the machine's costs parameterize the
// virtual-time model only. On the runtime, 100 eager messages and 10
// put+flush on the molasses machine finish in well under the bound — an
// emulated cost would take minutes — and a single-threaded exchange, whose
// matching lock is never contended, reads no match time.
func TestRuntimeRunsAtHostSpeed(t *testing.T) {
	const bound = 10 * time.Second
	start := time.Now()
	w, err := core.NewWorld(molasses(), 2, core.Stock())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	comms, err := w.NewComm([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	th0, th1 := w.Proc(0).NewThread(), w.Proc(1).NewThread()

	const msgs = 100
	recvs := make([]*core.Request, msgs)
	bufs := make([][]byte, msgs)
	for i := range recvs {
		bufs[i] = make([]byte, 8)
		if recvs[i], err = comms[1].Irecv(th1, 0, int32(i), bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < msgs; i++ {
		req, err := comms[0].Isend(th0, 1, int32(i), []byte{byte(i), 1, 2, 3, 4, 5, 6, 7})
		if err != nil {
			t.Fatal(err)
		}
		if err := req.Wait(th0); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range recvs {
		if err := r.Wait(th1); err != nil {
			t.Fatal(err)
		}
		if bufs[i][0] != byte(i) {
			t.Fatalf("message %d carried %d", i, bufs[i][0])
		}
	}
	if got := comms[1].SPCSnapshot()[spc.MessagesReceived]; got != msgs {
		t.Fatalf("messages_received = %d, want %d", got, msgs)
	}
	for r, c := range comms {
		if got := c.SPCSnapshot()[spc.MatchTimeNanos]; got != 0 {
			t.Errorf("rank %d: match_time_ns = %d on one thread, want 0: the runtime charged a modeled cost", r, got)
		}
	}

	wins, err := rma.Allocate(comms, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := wins[0].Lock(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := wins[0].Put(th0, 1, i, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
		if err := wins[0].Flush(th0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := wins[0].Unlock(th0, 1); err != nil {
		t.Fatal(err)
	}
	if got := wins[1].Local()[9]; got != 10 {
		t.Fatalf("target byte 9 = %d after ten puts, want 10", got)
	}
	if el := time.Since(start); el > bound {
		t.Fatalf("100 messages and 10 put+flush took %v on the molasses machine, want < %v: the runtime emulates the machine's costs", el, bound)
	}
}
