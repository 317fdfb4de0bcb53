package multirate

import (
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backends"
	"repro/internal/core"
	"repro/internal/cri"
	"repro/internal/flight"
	"repro/internal/hw"
	"repro/internal/spc"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
)

func fastCfg() Config {
	return Config{
		Machine: hw.Fast(),
		Opts:    core.Stock(),
		Pairs:   2,
		Window:  16,
		Iters:   2,
	}
}

func TestThreadModeCompletes(t *testing.T) {
	res, err := Run(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 2*16*2 {
		t.Fatalf("Messages = %d", res.Messages)
	}
	if res.Rate <= 0 || res.Elapsed <= 0 {
		t.Fatalf("Rate = %v, Elapsed = %v", res.Rate, res.Elapsed)
	}
	if got := res.SPCs.Get(spc.MessagesReceived); got != 64 {
		t.Fatalf("messages_received = %d, want 64", got)
	}
}

func TestProcessModeCompletes(t *testing.T) {
	cfg := fastCfg()
	cfg.ProcessMode = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 64 {
		t.Fatalf("Messages = %d", res.Messages)
	}
	if got := res.SPCs.Get(spc.MessagesReceived); got != 64 {
		t.Fatalf("aggregated messages_received = %d, want 64", got)
	}
}

// TestProcessModeKeepsObservers: process mode runs thread mode's loop, so
// its first receiver rank carries the sampler and the flight record too.
func TestProcessModeKeepsObservers(t *testing.T) {
	cfg := fastCfg()
	cfg.ProcessMode = true
	cfg.SampleInterval = time.Millisecond
	cfg.Opts.FlightCapacity = 256
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) == 0 {
		t.Fatal("process mode with SampleInterval returned no samples")
	}
	if res.TraceDump == "" {
		t.Fatal("process mode with FlightCapacity returned an empty TraceDump")
	}
	if len(res.Stats) != 4 {
		t.Fatalf("stats for %d ranks, want 4", len(res.Stats))
	}
}

func TestCommPerPair(t *testing.T) {
	cfg := fastCfg()
	cfg.CommPerPair = true
	cfg.Opts = core.CRIsConcurrent(2, cri.Dedicated)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAnyTagOvertaking(t *testing.T) {
	cfg := fastCfg()
	cfg.AnyTag = true
	cfg.Overtaking = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.SPCs.Get(spc.OutOfSequence); got != 0 {
		t.Fatalf("overtaking run recorded %d OOS messages", got)
	}
}

func TestWithPayload(t *testing.T) {
	cfg := fastCfg()
	cfg.MsgSize = 64
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultsApplied(t *testing.T) {
	res, err := Run(Config{Machine: hw.Fast(), Opts: core.Stock(), Pairs: 1, Window: 4, Iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 4 {
		t.Fatalf("Messages = %d", res.Messages)
	}
}

func TestIncastPattern(t *testing.T) {
	cfg := fastCfg()
	cfg.Pattern = Incast
	cfg.Opts = core.CRIsConcurrent(2, cri.Dedicated)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 64 {
		t.Fatalf("Messages = %d", res.Messages)
	}
	if got := res.SPCs.Get(spc.MessagesReceived); got != 64 {
		t.Fatalf("messages_received = %d", got)
	}
}

func TestIncastRejectsProcessMode(t *testing.T) {
	cfg := fastCfg()
	cfg.Pattern = Incast
	cfg.ProcessMode = true
	if _, err := Run(cfg); err == nil {
		t.Fatal("incast + process mode accepted")
	}
}

// TestFaultsRunOnTheFaultyFabric: Faults puts Run on the in-process
// fabric's faulty wire, whose losses the reliability layer repairs; a
// distributed run, and a run that also names its own network, refuse it.
func TestFaultsRunOnTheFaultyFabric(t *testing.T) {
	cfg := fastCfg()
	cfg.Faults = transport.FaultConfig{Drop: 0.05, Dup: 0.05, Seed: 3}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.SPCs.Get(spc.MessagesReceived); got != 64 {
		t.Fatalf("messages_received = %d, want 64 despite the faults", got)
	}
	var injected int64
	for _, ps := range res.Stats {
		injected += ps.Process.Get(spc.FaultPacketsDropped) + ps.Process.Get(spc.FaultPacketsDuplicated)
	}
	if injected == 0 {
		t.Fatal("no faults injected: the run did not fly on the faulty wire")
	}
	if _, err := RunDistributed(cfg, 0, nil); err == nil || !strings.Contains(err.Error(), "fault") {
		t.Errorf("a distributed run with Faults: err = %v, want the fault refusal", err)
	}
	cfg.Opts.Network = backends.Faulty(cfg.Faults)
	if _, err := Run(cfg); err == nil {
		t.Error("Faults accepted beside a network of the caller's")
	}
}

func TestPatternString(t *testing.T) {
	if Pairwise.String() != "pairwise" || Incast.String() != "incast" {
		t.Fatal("Pattern.String mismatch")
	}
}

func TestPatternByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Pattern
		ok   bool
	}{
		{"pairwise", Pairwise, true},
		{"incast", Incast, true},
		{"foo", 0, false},
		{"", 0, false},
		{"Incast", 0, false},
	} {
		got, err := PatternByName(tc.name)
		switch {
		case tc.ok && (err != nil || got != tc.want):
			t.Errorf("PatternByName(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		case !tc.ok && err == nil:
			t.Errorf("PatternByName(%q) = %v; want an error", tc.name, got)
		case !tc.ok && !strings.Contains(err.Error(), "pairwise | incast"):
			t.Errorf("PatternByName(%q) error %q does not name the valid patterns", tc.name, err)
		case tc.ok && got.String() != tc.name:
			t.Errorf("PatternByName(%q).String() = %q", tc.name, got)
		}
	}
}

func TestAllDesignKnobsFunctional(t *testing.T) {
	opts := []core.Options{
		core.Stock(),
		core.CRIs(4, cri.RoundRobin),
		core.CRIs(4, cri.Dedicated),
		core.CRIsConcurrent(4, cri.RoundRobin),
		core.CRIsConcurrent(4, cri.Dedicated),
	}
	for i, o := range opts {
		cfg := fastCfg()
		cfg.Opts = o
		if _, err := Run(cfg); err != nil {
			t.Fatalf("option set %d: %v", i, err)
		}
	}
}

// TestStallInjectionStillCompletes: the real-engine stall freeze delays
// the receiver rank but must not change the run's totals — the cluster
// smoke relies on a -stall job finishing cleanly after the verdict fires.
func TestStallInjectionStillCompletes(t *testing.T) {
	cfg := fastCfg()
	cfg.StallRecv = 30 * time.Millisecond
	cfg.StallAfterIter = 1
	start := time.Now()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 64 {
		t.Fatalf("Messages = %d, want 64", res.Messages)
	}
	if got := res.SPCs.Get(spc.MessagesReceived); got != 64 {
		t.Fatalf("messages_received = %d, want 64", got)
	}
	if time.Since(start) < 30*time.Millisecond {
		t.Fatal("stall injection did not delay the run")
	}
}

// TestStallsHereTargetsOneRank: in a distributed world only the configured
// stall rank (default: the last receiver rank) takes the freeze.
func TestStallsHereTargetsOneRank(t *testing.T) {
	cfg := Config{StallRecv: time.Second}
	for rank := 0; rank < 4; rank++ {
		want := rank == 3
		if got := cfg.stallsHere(rank, 4); got != want {
			t.Fatalf("default stall rank: stallsHere(%d, 4) = %v", rank, got)
		}
	}
	cfg.StallRank = 1
	if !cfg.stallsHere(1, 4) || cfg.stallsHere(3, 4) {
		t.Fatal("explicit -stall-rank not honored")
	}
	if (Config{}).stallsHere(3, 4) {
		t.Fatal("stall fired with StallRecv unset")
	}
}

// runDistributed runs cfg over a loopback tcp world of cfg.WorldSize ranks,
// one goroutine per rank, and returns each rank's result.
func runDistributed(t *testing.T, cfg Config) []Result {
	t.Helper()
	nets, err := tcpnet.NewLoopback(cfg.WorldSize)
	if err != nil {
		t.Fatal(err)
	}
	res := make([]Result, cfg.WorldSize)
	errs := make([]error, cfg.WorldSize)
	var wg sync.WaitGroup
	for rank := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[rank], errs[rank] = RunDistributed(cfg, rank, nets[rank])
		}()
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return res
}

// pairTraffic sums a counter over a rank's communicators other than the
// world communicator (id 1), whose barriers bracket the timed section.
func pairTraffic(r Result, c spc.Counter) (n int64, ids []uint32) {
	for _, cs := range r.Stats[0].PerComm {
		if cs.ID != 1 {
			n += cs.Counters.Get(c)
			ids = append(ids, cs.ID)
		}
	}
	slices.Sort(ids)
	return n, ids
}

// TestRunDistributedPairsRanks: four ranks over loopback tcp are two
// process pairs; each carries every thread pair's volume on communicators
// both of its ranks agree on, even ranks sending and odd ranks receiving.
func TestRunDistributedPairsRanks(t *testing.T) {
	for _, stall := range []time.Duration{0, 20 * time.Millisecond} {
		cfg := fastCfg()
		cfg.WorldSize, cfg.CommPerPair = 4, true
		cfg.StallRecv, cfg.StallAfterIter = stall, 1
		res := runDistributed(t, cfg)
		want := int64(cfg.Pairs * cfg.Window * cfg.Iters)
		for rank, r := range res {
			if r.Messages != want {
				t.Fatalf("stall %v rank %d: Messages = %d, want %d", stall, rank, r.Messages, want)
			}
			counter := spc.MessagesSent
			if rank%2 == 1 {
				counter = spc.MessagesReceived
			}
			got, ids := pairTraffic(r, counter)
			if got != want {
				t.Fatalf("stall %v rank %d: %s = %d, want %d", stall, rank, counter, got, want)
			}
			_, peerIDs := pairTraffic(res[rank^1], counter)
			if len(ids) != cfg.Pairs || !slices.Equal(ids, peerIDs) {
				t.Fatalf("stall %v rank %d: communicators %v, peer %v", stall, rank, ids, peerIDs)
			}
		}
		if stall > 0 && res[3].Elapsed < stall {
			t.Fatalf("stall rank 3 took %v, less than the %v freeze", res[3].Elapsed, stall)
		}
	}
}

// reserveAddr returns a loopback address nothing listens on yet.
func reserveAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestDistributedStartFenceAfterFailedDial: rank 1 comes up only after rank
// 0's first dial toward it was refused, so rank 0's first start-barrier
// message waits on a dial retry while rank 1's own dial succeeds. The start
// fence must still hold each rank back until the peer has received one of its
// fence messages, so that both time the same stream. The check reads the two
// ranks' flight records (one process, one clock): the first delivery of a
// rank's fence message at its peer precedes that rank's first stream event.
// A single barrier breaks it: rank 0 leaves it on rank 1's message while its
// own is still on its way.
func TestDistributedStartFenceAfterFailedDial(t *testing.T) {
	addrs := []string{reserveAddr(t), reserveAddr(t)}
	res := make([]Result, 2)
	errs := make([]error, 2)
	worlds := make([]*core.World, 2)
	var wg sync.WaitGroup
	start := func(rank int, n transport.Network) {
		cfg := fastCfg()
		cfg.Pairs, cfg.Window, cfg.Iters = 1, 16, 4
		cfg.Opts.FlightCapacity = 4096
		cfg.OnWorld = func(w *core.World) { worlds[rank] = w }
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[rank], errs[rank] = RunDistributed(cfg, rank, n)
		}()
	}
	n0, err := tcpnet.New(tcpnet.Config{Rank: 0, Size: 2, Listen: addrs[0], Peers: addrs})
	if err != nil {
		t.Fatal(err)
	}
	rank0 := countedNet{n0, make(chan *spc.Set, 1)}
	start(0, rank0)
	// Nothing listens on rank 1's address until its network exists: wait
	// for rank 0's dial toward it to be refused.
	deadline := time.Now().Add(10 * time.Second)
	var ctr *spc.Set
	select {
	case ctr = <-rank0.counters:
	case <-time.After(time.Until(deadline)):
		t.Fatal("rank 0 opened no device")
	}
	for ; ctr.Get(spc.DialRetries) == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("rank 0 never dialed rank 1")
		}
	}
	n1, err := tcpnet.New(tcpnet.Config{Rank: 1, Size: 2, Listen: addrs[1], Peers: addrs})
	if err != nil {
		t.Fatal(err)
	}
	start(1, n1)
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	fence := worlds[0].Proc(0).CommWorld().ID()
	var recs [2]flight.RankRecord
	for rank, w := range worlds {
		recs[rank] = w.Proc(rank).FlightRecord()
	}
	for rank := range recs {
		peer := 1 - rank
		streamAt := firstEvent(recs[rank], func(e flight.Event) bool {
			switch e.Kind {
			case flight.KindSendPost, flight.KindRecvPost, flight.KindRecvDeliver, flight.KindMatchComplete:
				return e.Comm != fence
			}
			return false
		})
		deliveredAt := firstEvent(recs[peer], func(e flight.Event) bool {
			return e.Kind == flight.KindRecvDeliver && e.Comm == fence && e.A0 == int32(rank)
		})
		if streamAt < 0 || deliveredAt < 0 {
			t.Fatalf("rank %d: no stream event (%d) or no fence message delivered at rank %d (%d)", rank, streamAt, peer, deliveredAt)
		}
		if deliveredAt > streamAt {
			t.Errorf("rank %d began the stream %v before rank %d received its first fence message: the start fence released it early (rank 0 %v; rank 1 %v)",
				rank, time.Duration(deliveredAt-streamAt), peer, linkCounts(res[0]), linkCounts(res[1]))
		}
	}
}

// firstEvent returns the unix-nanosecond instant of the first event of rec
// that match selects, or -1.
func firstEvent(rec flight.RankRecord, match func(flight.Event) bool) int64 {
	first := int64(-1)
	for _, e := range rec.Events {
		if at := rec.StartUnixNs + e.TS; match(e) && (first < 0 || at < first) {
			first = at
		}
	}
	return first
}

// countedNet is a tcpnet network that hands the test the counter set of the
// device the world opens on it.
type countedNet struct {
	*tcpnet.Network
	counters chan *spc.Set
}

func (n countedNet) NewDevice(rank int, m hw.Machine, cfg transport.DeviceConfig) (transport.Device, error) {
	n.counters <- cfg.Counters
	return n.Network.NewDevice(rank, m, cfg)
}

func linkCounts(r Result) string {
	var b strings.Builder
	for _, c := range []spc.Counter{spc.DialRetries, spc.Reconnects, spc.ConnsOpened, spc.WireBackstopFlushes} {
		fmt.Fprintf(&b, "%s=%d ", c, r.SPCs.Get(c))
	}
	return b.String()
}
