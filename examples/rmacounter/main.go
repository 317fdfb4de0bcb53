// Rmacounter: a distributed histogram built on passive-target one-sided
// communication — the access pattern Sections II-D and IV-F recommend for
// threaded applications because it has no matching stage.
//
// Rank 0 exposes a window of 64-bit bins. Every other process runs several
// threads that classify a stream of values and accumulate counts into the
// shared bins with MPI_Accumulate (remote atomic add), synchronizing with
// MPI_Win_flush. Each thread uses its own dedicated communication resource
// instance, so the threads never contend inside the runtime — the property
// Figures 6 and 7 quantify.
package main

import (
	"fmt"
	"log"
	"sync"

	"repro/internal/core"
	"repro/internal/cri"
	"repro/internal/hw"
	"repro/internal/rma"
	"repro/internal/transport"
)

const (
	procs        = 4 // rank 0 hosts the histogram; 1..3 produce
	threadsPer   = 4
	bins         = 16
	valuesPerThr = 5000
)

func main() {
	world, err := core.NewWorld(hw.Fast(), procs, core.CRIsConcurrent(threadsPer, cri.Dedicated))
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()

	comms, err := world.NewComm(allRanks(procs))
	if err != nil {
		log.Fatal(err)
	}
	sizes := make([]int, procs)
	sizes[0] = bins * 8 // only rank 0 exposes memory
	wins, err := rma.New(comms, sizes)
	if err != nil {
		log.Fatal(err)
	}

	var wg sync.WaitGroup
	for p := 1; p < procs; p++ {
		win := wins[p]
		win.LockAll()
		for g := 0; g < threadsPer; g++ {
			wg.Add(1)
			go func(p, g int) {
				defer wg.Done()
				th := world.Proc(p).NewThread()
				// Deterministic pseudo-random value stream per thread.
				x := uint64(p*threadsPer+g)*0x9E3779B97F4A7C15 + 1
				local := make([]int64, bins)
				for i := 0; i < valuesPerThr; i++ {
					x = x*6364136223846793005 + 1442695040888963407
					local[(x>>33)%bins]++
				}
				// Flush local counts to the shared histogram one bin at a
				// time (remote atomic adds; no target CPU involvement).
				for b, count := range local {
					if count == 0 {
						continue
					}
					if err := win.Accumulate(th, 0, b*8, []int64{count}, transport.AccSum); err != nil {
						log.Fatal(err)
					}
				}
				if err := win.Flush(th, 0); err != nil {
					log.Fatal(err)
				}
			}(p, g)
		}
	}
	wg.Wait()
	for p := 1; p < procs; p++ {
		th := world.Proc(p).NewThread()
		if err := wins[p].UnlockAll(th); err != nil {
			log.Fatal(err)
		}
	}

	// Rank 0 reads its own window directly.
	mem := wins[0].Local()
	var total int64
	fmt.Println("bin  count")
	for b := 0; b < bins; b++ {
		var v int64
		for i := 7; i >= 0; i-- {
			v = v<<8 | int64(mem[b*8+i])
		}
		fmt.Printf("%3d  %d\n", b, v)
		total += v
	}
	want := int64((procs - 1) * threadsPer * valuesPerThr)
	if total != want {
		log.Fatalf("histogram total = %d, want %d (lost updates!)", total, want)
	}
	fmt.Printf("total %d values from %d producer threads — no updates lost\n",
		total, (procs-1)*threadsPer)
}

func allRanks(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	return r
}
