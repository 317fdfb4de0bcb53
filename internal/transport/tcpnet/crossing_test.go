package tcpnet_test

import (
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/spc"
	"repro/internal/transport/tcpnet"
)

// TestCrossingFirstSends: both ranks of a fresh two-rank world send first, at
// once, 200 times over. Each rank establishes one write path to the other —
// its own dial, or the connection the other dialed — and never replaces it,
// and both streams arrive once and in order: the matching engine buffers
// nothing out of sequence on either rank.
func TestCrossingFirstSends(t *testing.T) {
	const reps, msgs = 200, 16
	for rep := 0; rep < reps && !t.Failed(); rep++ {
		nets, err := tcpnet.NewLoopback(2)
		if err != nil {
			t.Fatal(err)
		}
		var worlds [2]*core.World
		for r := range worlds {
			if worlds[r], err = core.NewDistributedWorld(hw.Fast(), r, 2, nets[r], core.Stock()); err != nil {
				t.Fatal(err)
			}
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for r := range worlds {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				p := worlds[r].LocalProc()
				th, c := p.NewThread(), p.CommWorld()
				in := make([][]byte, msgs)
				var reqs []*core.Request
				for i := range in {
					in[i] = make([]byte, 8)
					req, err := c.Irecv(th, 1-r, 0, in[i])
					if err != nil {
						t.Error(err)
						return
					}
					reqs = append(reqs, req)
				}
				<-start
				for i := 0; i < msgs; i++ {
					req, err := c.Isend(th, 1-r, 0, binary.LittleEndian.AppendUint64(nil, uint64(i)))
					if err != nil {
						t.Error(err)
						return
					}
					reqs = append(reqs, req)
				}
				if err := core.WaitAll(th, reqs...); err != nil {
					t.Error(err)
					return
				}
				for i, b := range in {
					if got := binary.LittleEndian.Uint64(b); got != uint64(i) {
						t.Errorf("rep %d: rank %d's receive %d got message %d", rep, r, i, got)
						return
					}
				}
			}(r)
		}
		close(start)
		wg.Wait()
		for r, w := range worlds {
			snap := w.LocalProc().SPCSnapshot()
			if o, re, oos := snap[spc.ConnsOpened], snap[spc.Reconnects], snap[spc.OutOfSequence]; o != 1 || re != 0 || oos != 0 {
				t.Errorf("rep %d: rank %d opened %d paths, re-established %d and buffered %d messages out of sequence, want 1, 0 and 0", rep, r, o, re, oos)
			}
		}
		worlds[0].Close()
		worlds[1].Close()
	}
}
