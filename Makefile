GO ?= go

.PHONY: build test race race-lockfree vet fmt bench bench-telemetry bench-json bench-gate bench-real-smoke chaos fuzz-wire check conformance lint-layers lint-onepath twin-exact tcp-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the concurrency-heavy packages (the full suite
# under -race works too, but takes much longer).
race:
	$(GO) test -race ./internal/prof ./internal/telemetry ./internal/core ./internal/progress ./internal/cri ./internal/rma ./internal/flight ./internal/obs ./internal/transport/... ./internal/conformance ./internal/bench/... ./internal/ringbuf ./internal/match

# Dedicated stress pass over the lock-free structures (MPSC completion
# ring, CRI free-list, sharded matching) at high parallelism; these tests
# only bite with the race detector watching.
race-lockfree:
	$(GO) test -race -count=2 ./internal/ringbuf ./internal/match ./internal/cri

# Cross-backend conformance: the same message-passing semantics over the
# simulated fabric and real TCP, under the race detector.
conformance:
	$(GO) test -run Conformance -race ./internal/conformance

# Layering lint: the runtime depends only on the transport interface; a
# textual import of the simulated backend above it is a regression.
lint-layers:
	@if grep -rn '"repro/internal/fabric"' internal/core internal/cri internal/progress internal/rma internal/match; then \
		echo "FAIL: concrete backend import above the transport interface"; exit 1; \
	else echo "layering ok"; fi

# One-path lint: each step of the message path exists once. A second call
# site of any of these is a copy of the inject/post pipeline, the sequence
# gate or the payload fill growing back. The same holds for the event record:
# the flight recorder is the only one (no second tracer package, one progress
# event per pass), and a step of the message path reads the wall clock once
# for all its consumers — send post, instance held, wire write done (latency
# attribution only), delivery, completion — so core's message path holds at
# most six time.Now() sites.
lint-onepath:
	@fail=0; \
	one() { n=$$(cat $$2 | grep -c -- "$$1"); \
		if [ "$$n" != 1 ]; then echo "FAIL: $$n sites of '$$1' in $$3, want exactly 1"; fail=1; fi; }; \
	core=$$(ls internal/core/*.go | grep -v _test.go); \
	match=$$(ls internal/match/*.go | grep -v _test.go); \
	progress=$$(ls internal/progress/*.go | grep -v _test.go); \
	one 'AcquireSend(' "$$core" internal/core; \
	one 'engine\.PostRecv(' "$$core" internal/core; \
	one 'spc\.OutOfSequence' "$$match" internal/match; \
	one '^func .*\bfill(' "$$match" internal/match; \
	one 'flight\.KindProgress' "$$progress" internal/progress; \
	if grep -rn --include='*.go' --exclude-dir=.bench_build '"repro/internal/trace"' .; then \
		echo "FAIL: internal/trace is gone; record into internal/flight"; fail=1; fi; \
	n=$$(cat internal/core/comm.go internal/core/world.go | grep -c 'time\.Now()'); \
	if [ "$$n" -gt 6 ]; then echo "FAIL: $$n time.Now() sites in core/comm.go + core/world.go, want at most 6"; fail=1; fi; \
	if [ $$fail = 0 ]; then echo "one path ok"; else exit 1; fi

# The virtual-time twin drives the same matching-engine code as the runtime,
# so a refactor that keeps every meter charge, counter and flight record in
# place reproduces these four artifacts byte for byte (~35 s). Outputs go to
# a temp dir, never over the committed files. flight_sim_stall.json is not
# committed (`make chaos` writes it), so its oracle is two runs agreeing plus
# the watchdog verdict; compare against a parent checkout's dump for more.
twin-exact:
	@set -e; d=$$(mktemp -d); trap 'rm -rf $$d' EXIT; \
	$(GO) run ./cmd/benchjson -o $$d/b.json >/dev/null; cmp $$d/b.json BENCH_4.json; \
	$(GO) run ./cmd/benchjson -latency -o $$d/bl.json >/dev/null; cmp $$d/bl.json BENCH_4_latency.json; \
	$(GO) run ./cmd/figures -fig matching | sed -n 1,9p > $$d/matching.txt; \
	sed -n 10,18p results_extensions.txt | cmp - $$d/matching.txt; \
	for i in 1 2; do $(GO) run ./cmd/multirate -engine sim -pairs 1 -window 64 -iters 4 \
		-flight 2048 -watchdog -stall 2s -stall-at 2 -flight-out $$d/f$$i.json >/dev/null 2>&1; done; \
	cmp $$d/f1.json $$d/f2.json; grep -q '"reason": "no-progress"' $$d/f1.json; \
	if [ -f flight_sim_stall.json ]; then cmp $$d/f1.json flight_sim_stall.json; fi; \
	echo "twin exact: BENCH_4, BENCH_4_latency, fig matching, flight_sim_stall identical"

# Two OS processes exchanging the pairwise benchmark over loopback TCP.
tcp-smoke:
	./scripts/tcp_smoke.sh

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

bench:
	$(GO) test -bench=. -benchmem ./...

# Proves the disabled telemetry hooks cost ~1 ns and zero allocations.
bench-telemetry:
	$(GO) test -bench=. -benchmem ./internal/telemetry

# Machine-readable benchmark trajectory: message rate per thread count per
# design, swept on the deterministic virtual-time model so the numbers are
# reproducible on any host. Override the sweep for a quick smoke run:
#   make bench-json BENCHJSON_FLAGS="-threads 1,2,4 -window 32 -iters 2"
BENCHJSON_FLAGS ?=
bench-json:
	$(GO) run ./cmd/benchjson -o BENCH_4.json $(BENCHJSON_FLAGS)
	$(GO) run ./cmd/benchjson -validate BENCH_4.json
	$(GO) run ./cmd/benchjson -o BENCH_4_latency.json -latency $(BENCHJSON_FLAGS)
	$(GO) run ./cmd/benchjson -validate BENCH_4_latency.json

# Regression gate: regenerate the deterministic trajectory and compare it
# point by point against the committed BENCH_4.json with noise-aware
# per-(design, threads) tolerances; exits nonzero if any point regressed.
# The latency trajectory additionally gates per-stage critical-path p99s:
# a tail regression inside one stage trips CI even when rates are flat.
# Also emits the contention profiler's virtual-time phase breakdowns for the
# serial and concurrent progress engines as artifacts.
bench-gate:
	$(GO) run ./cmd/multirate -pairs 8 -progress serial -breakdown-out breakdown_serial.json > /dev/null
	$(GO) run ./cmd/multirate -pairs 8 -instances 8 -assignment dedicated -comm-per-pair \
		-progress concurrent -breakdown-out breakdown_concurrent.json > /dev/null
	$(GO) run ./cmd/benchjson -o BENCH_head.json
	$(GO) run ./cmd/benchcmp -json bench_deltas.json BENCH_4.json BENCH_head.json
	$(GO) run ./cmd/benchjson -o BENCH_head_latency.json -latency
	$(GO) run ./cmd/benchcmp -json bench_deltas_latency.json BENCH_4_latency.json BENCH_head_latency.json

# The real-engine benchmark is a module of its own (benchmark/go.mod), so
# nothing above builds or tests it: vet it, run its tests, and drive one short
# end-to-end workload through the driver's entry point. The tests run
# unfiltered through scripts/bench_module_test.sh, which tolerates exactly one
# failure: TestSmokeTraced's assertion that tcp_stream_0B still pays "about 2
# and 1" syscalls per message, outdated by the coalesced wire and editable only
# by a benchmark PR. Call plain `go test -C benchmark ./...` once it is fixed.
bench-real-smoke:
	$(GO) vet -C benchmark ./...
	bash scripts/bench_module_test.sh
	bash benchmark/run.sh --workload tcp_stream_0B --seed 1 --seconds 3 --trace 0

# Coverage-guided hostile bytes into the wire: twenty seconds for the tcp
# frame reader, ten each for the packet and mux-frame decoders underneath it
# (the seed corpora alone already run in every `go test`).
fuzz-wire:
	$(GO) test -run '^$$' -fuzz=FuzzReadFrames -fuzztime=20s ./internal/transport/tcpnet
	$(GO) test -run '^$$' -fuzz=FuzzDecodePacket -fuzztime=10s ./internal/transport
	$(GO) test -run '^$$' -fuzz=FuzzDecodeMuxFrame -fuzztime=10s ./internal/transport

# Fault-injection and teardown chaos: the reliability layer repairing a
# lossy, duplicating, reordering wire, communicator free with packets still
# in flight, and a seeded faulty benchmark run — all under the race detector.
# The faulty run flies with the recorder and watchdog armed and leaves its
# flight-record dump as a triage artifact; a deterministic virtual-time
# stall then proves the watchdog names the stalled site.
chaos:
	$(GO) test -race -run 'Fault|Chaos|FreeComm|PeerUnreachable|Reliable|Duplicate|Watchdog|Flight' ./internal/fabric ./internal/core ./internal/match ./internal/simnet
	$(GO) run ./cmd/multirate -engine real -pairs 4 -window 32 -iters 4 \
		-fault-drop 0.01 -fault-dup 0.01 -fault-delay 0.02 -fault-seed 7 -spcs \
		-watchdog -flight-out flight_chaos.json
	$(GO) run ./cmd/multirate -engine sim -pairs 1 -window 64 -iters 4 \
		-flight 2048 -watchdog -stall 2s -stall-at 2 -flight-out flight_sim_stall.json

check: build vet lint-layers lint-onepath test race conformance
