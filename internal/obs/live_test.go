package obs

import (
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/hw"
	"repro/internal/telemetry"
)

// Every endpoint must stay race-free and responsive while the world it
// observes is mid-run: goroutines hammer all handlers concurrently with
// live send/recv traffic. Run under -race this is the introspection
// layer's thread-safety proof.
func TestEndpointsUnderLiveTraffic(t *testing.T) {
	w, err := core.NewWorld(hw.Fast(), 2, core.Options{
		NumInstances:   2,
		FlightCapacity: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	src := Source{
		Stats: func() []telemetry.ProcStats {
			var out []telemetry.ProcStats
			for _, p := range w.LocalProcs() {
				out = append(out, p.TelemetryStats())
			}
			return out
		},
		Queues: func() []flight.QueueSnapshot {
			var out []flight.QueueSnapshot
			for _, p := range w.LocalProcs() {
				out = append(out, p.QueueSnapshot())
			}
			return out
		},
		Flight: func() []flight.RankRecord {
			var out []flight.RankRecord
			for _, p := range w.LocalProcs() {
				out = append(out, p.FlightRecord())
			}
			return out
		},
		Ready: func() (bool, string) { return true, "" },
	}
	s, err := Serve("127.0.0.1:0", src)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	// The one sampler, with its detector, runs beside the handlers.
	defer w.StartSampler(time.Millisecond, &flight.DetectorConfig{}).Stop()

	const iters = 200
	var traffic sync.WaitGroup
	traffic.Add(2)
	go func() {
		defer traffic.Done()
		th := w.Proc(0).NewThread()
		c := w.Proc(0).CommWorld()
		buf := []byte("payload")
		for i := 0; i < iters; i++ {
			if err := c.Send(th, 1, int32(i%8), buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer traffic.Done()
		th := w.Proc(1).NewThread()
		c := w.Proc(1).CommWorld()
		buf := make([]byte, 16)
		for i := 0; i < iters; i++ {
			if _, err := c.Recv(th, 0, int32(i%8), buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	stop := make(chan struct{})
	var hammer sync.WaitGroup
	paths := []string{"/healthz", "/readyz", "/metrics", "/spc", "/trace",
		"/debug/queues", "/debug/flight"}
	for _, path := range paths {
		hammer.Add(1)
		go func(url string) {
			defer hammer.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					t.Error(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: status %d", url, resp.StatusCode)
					return
				}
			}
		}(base + path)
	}

	traffic.Wait()
	close(stop)
	hammer.Wait()
}
