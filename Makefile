GO ?= go

.PHONY: build test examples loc allocs race race-lockfree vet fmt bench-telemetry bench-real-smoke chaos fuzz-wire check conformance lint-layers lint-onepath twin-exact rebaseline tcp-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The reader of examples/: each of the five demonstrates one pattern from the
# paper (README table) and is otherwise only compiled. Run each to completion
# — all exit 0 in a few seconds — with a minute's grace apiece.
examples:
	@for e in quickstart halo taskqueue rmacounter montecarlo; do \
		echo "== examples/$$e"; timeout 60 $(GO) run ./examples/$$e >/dev/null || exit 1; done

# The allocation ladder: every testing.AllocsPerRun pin on the message path
# (CRI acquire/release, an eager message and a 128-message window in process,
# an 8-byte round trip and a 128-message window over loopback tcp, the
# window's sender alone (its Isends, read from an allocation profile by stack:
# 0 B), a 64 KiB rendezvous in process and
# over tcp — 0 objects, like an eager message: its send, receive and sink
# records are carved too — an unexpected message claimed in each matching
# engine, each one-sided operation — put,
# get, accumulate, fetch-and-op, compare-and-swap — with its flush, a tcp
# flush, an idle tcp Poll that reads a live connection's empty socket), run
# without the race detector, then the rows the tests logged as one table.
# The core rows also measure heap bytes per op (B/op, size-class rounding
# included), and the in-process eager message and window, the tcp round trip
# and window and both rendezvous rows pin them; with TestMessageFootprint, which pins the size of
# every two-sided message's slab entries, rendezvous records included, they hold a message's bytes, not only its objects. A row without
# a byte measurement or pin shows "-".
# Nothing on the path is in a sync.Pool (a receive's record is reused through
# its Thread's own free list), so the pins hold under -race as well and
# CI's -race test job enforces them too; this target is the readable table.
# It runs every pin at 1, 2 and 4 Ps (GOMAXPROCS, the table's first column):
# a tcp row counts what the reader goroutine and the backstop timer allocate
# beside the message path, which grows with the Ps.
allocs:
	@rc=0; rows=; for p in 1 2 4; do \
		out=$$($(GO) test -count=1 -cpu $$p -v -run 'Alloc|Footprint' ./internal/cri ./internal/core ./internal/match ./internal/rma ./internal/transport/tcpnet 2>&1) || rc=1; \
		echo "$$out"; \
		rows="$$rows$$(echo "$$out" | awk -F' *[|] *' -v p=$$p '/allocs-pin [|]/ { printf "%2s  %-48s %9s %7s %7s %7s\n", p, $$2, $$3, $$4, ($$5 == "" ? "-" : $$5), ($$6 == "" ? "-" : $$6) }')\n"; \
	done; echo; \
	printf '%2s  %-48s %9s %7s %7s %7s\n' Ps path allocs/op pinned B/op pinned; \
	printf '%b' "$$rows"; \
	exit $$rc

# Race-detector pass over the concurrency-heavy packages (the full suite
# under -race works too, but takes much longer).
race:
	$(GO) test -race ./internal/fabric ./internal/prof ./internal/telemetry ./internal/core ./internal/progress ./internal/cri ./internal/rma ./internal/flight ./internal/obs ./internal/transport/... ./internal/conformance ./internal/bench/... ./internal/ringbuf ./internal/match

# Dedicated stress pass over the lock-free structures (MPSC completion
# ring, CRI free-list, sharded matching, the windows' per-CRI issued and
# completed counters and flush marker words) at high parallelism; these tests
# only bite with the race detector watching. Then the windows' flush and
# full-queue tests once more on a single P, where a putter and a flusher only
# alternate when one of them yields: a flush that needs a quiet moment, or a
# marker post that waits on a completion queue only it can drain, hangs there.
race-lockfree:
	$(GO) test -race -count=2 ./internal/ringbuf ./internal/match ./internal/cri ./internal/rma
	GOMAXPROCS=1 $(GO) test -count=1 -run 'Flush|Pending|QueueDepth' ./internal/rma

# Cross-backend conformance: the same message-passing semantics over the
# simulated fabric and real TCP, under the race detector — then once more on a
# single P, where two ranks spinning in Wait leave the scheduler no idle
# moment to poll the network: the tcp path advances there only because the
# progress engine reads the sockets itself.
conformance:
	$(GO) test -run Conformance -race ./internal/conformance
	GOMAXPROCS=1 $(GO) test -count=1 -run Conformance ./internal/conformance

# Layering lint: everything depends on the transport interface and only
# internal/backends names the in-process backend — not the runtime, not the
# model, not an example, not a CLI. And the backend is one layer: it
# implements the seam's types itself, so an alias of a transport name
# (`type Packet = transport.Packet`, `const X = transport.X`) or an adapter
# type around its own Device or Endpoint growing back in internal/fabric fails.
# So does a Prometheus text parser: the aggregator decodes the ranks' typed
# document, and no non-test file defines ParsePromText or PromFamily again.
# And the diagnosis plane has one rule engine: a Detector, an Obs or a Verdict
# type, or an Observe method over samples, defined outside internal/flight is
# the second engine growing back. And both engines observe through the same
# observers: latency.RecordPacket is the one derivation of a message's stages,
# so a latency.Measurement literal outside internal/latency is an engine's
# private copy of it, and prof.ThreadClock is the one phase clock (fed wall or
# virtual instants), so an array or slice of prof.Phase held outside
# internal/prof is a second phase stack. And the model takes the harnesses'
# configurations: a configuration struct declared in internal/simnet is the
# hand-mirrored copy of multirate.Config or rmamt.Config growing back. And the
# paper's hardware lives in the model alone: the runtime runs at the host's
# speed and takes only a machine's context limits, so a busy-spin (hw.Spin) or
# a read of the cost model (.Scaled(), .Costs) or the link (LinkGbps,
# MaxInjectionRate) in its layers is a wall-clock emulation growing back.
# And one-sided is one package's concern: only internal/rma resolves a
# context to transport.OneSided, and only internal/fabric implements it; the
# name elsewhere (core, the model, a backend that stubs it) is the flag it
# replaced growing back.
lint-layers:
	@fail=0; \
	if grep -rln --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build --exclude-dir=twin-out \
		'"repro/internal/fabric"' . | grep -v '^\./internal/backends/\|^\./internal/fabric/'; then \
		echo "FAIL: only internal/backends may import repro/internal/fabric"; fail=1; fi; \
	fab=$$(ls internal/fabric/*.go | grep -v _test.go); \
	if grep -nE '(^|[^:!=<>])= *transport\.|^type +(tdev|lazyEndpoint)\b' $$fab; then \
		echo "FAIL: internal/fabric aliases a transport name or wraps its own types again"; fail=1; fi; \
	if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build --exclude-dir=twin-out \
		'^func +ParsePromText\b|^type +PromFamily\b' .; then \
		echo "FAIL: a rank serves its typed document (/debug/stats); nothing parses the exposition text back"; fail=1; fi; \
	if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build --exclude-dir=twin-out --exclude-dir=benchmark \
		'^type +(Detector|Obs|Verdict)\b|^func +\([^)]*\) +Observe\(.*\b(Sample|Obs|Verdict)\b' . | grep -v '^\./internal/flight/'; then \
		echo "FAIL: internal/flight owns sample -> detect -> verdict; feed its Detector instead of writing another"; fail=1; fi; \
	if grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build --exclude-dir=twin-out --exclude-dir=benchmark \
		'latency\.Measurement{' .; then \
		echo "FAIL: latency.RecordPacket derives every Measurement; hand it the packet's stamps instead"; fail=1; fi; \
	if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build --exclude-dir=twin-out --exclude-dir=benchmark \
		'\[[^]]*\] *prof\.Phase\b *([^{]|$$)' .; then \
		echo "FAIL: only prof.ThreadClock keeps a phase stack; give it the thread's clock (NewThreadClock's now) instead"; fail=1; fi; \
	if grep -nE '^type +\w*Config +struct' $$(ls internal/simnet/*.go | grep -v _test.go); then \
		echo "FAIL: the model runs the harness's configuration (multirate.Config, rmamt.Config); simnet.Model holds only what the runtime has no mechanism for"; fail=1; fi; \
	if grep -rnE --include='*.go' --exclude='*_test.go' 'hw\.Spin\(|\.Scaled\(\)|\.Costs\b|\bLinkGbps\b|\bMaxInjectionRate\b' \
		internal/core internal/fabric internal/transport internal/cri internal/progress internal/rma; then \
		echo "FAIL: the runtime runs at the host's speed; the machine's costs and link rates are the virtual-time model's (internal/simnet)"; fail=1; fi; \
	if grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build --exclude-dir=twin-out \
		'transport\.OneSided\b' . | grep -v '^\./internal/rma/\|^\./internal/fabric/'; then \
		echo "FAIL: only internal/rma and internal/fabric name transport.OneSided; one-sided is the window layer's concern"; fail=1; fi; \
	if [ $$fail = 0 ]; then echo "layering ok"; else exit 1; fi

# The size figure every simplicity entry in CHANGES.md quotes: non-test Go
# lines outside benchmark/ (a module of its own), in total and per package.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' ! -path './twin-out/*' \
	| xargs wc -l | awk '$$2 != "total" { n = split($$2, p, "/"); d = "."; for (i = 2; i < n; i++) d = d "/" p[i]; \
		loc[d] += $$1; all += $$1 } \
		END { for (d in loc) printf "%7d  %s\n", loc[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", all }'

# One-path lint: each step of the message path exists once. A second call
# site of any of these is a copy of the inject/post pipeline, the sequence
# gate or the payload fill growing back. The same holds for the event record:
# the flight recorder is the only one (no second tracer package, one progress
# event per pass), and a step of the message path reads the wall clock once
# for all its consumers — send post, instance held, wire write done (latency
# attribution only), delivery, completion — so core's message path holds at
# most five time.Now() sites. A lock wait is measured once, by prof.Mutex, whose
# LockClocked returns it: no function of internal/cri or internal/core that
# calls LockClocked reads time.Now or time.Since, and the try-then-lock
# helper that measurement made necessary (TryLockQuiet) does not come back. And a communicator's NoWildcards assertion is the
# one place the sharded engine is built, in the runtime and in the model.
# Multirate is one loop over rank pairs: thread mode, process mode, incast and
# the distributed run create their communicators at one site in the harness,
# and the model builds one simulation for both modes. A received message is
# matched at one site in core — the eager run's flush, which timed and
# untimed packets alike reach — and the matching engines count in their own
# blocks under their own locks, never through an atomic counter set. And a
# design resolves once, to the multirate.Config both engines run: a second
# function of internal/designs returning a configuration or option set is a
# second resolution of the same design. A two-sided send completes when the
# backend takes it: the runtime opens its devices Unsignaled, so nothing outside
# the in-process fabric (which still signals for a bare-seam driver) and the
# transport package names CQESendComplete, and the one operation that can meet
# a full completion queue — and the one transport.ErrCQFull retry in core and
# rma — is the flush marker (rma.Win.mark). Every send — user, collective or
# control — picks its protocol at one comparison against DefaultEagerLimit,
# and the runtime is MPI_THREAD_MULTIPLE only: no thread-level type or guard
# grows back. A receive's matching record is reused: exactly one function in
# core (Request.release) puts it back on its Thread's free list, and no slab
# of receives (`carve(&th.recvs)`) grows back beside the list. The paper's
# Algorithms 1 and 2 are written once, in cri.Pool and progress.Engine, and
# the model runs them over virtual-time instances: no non-test file of
# internal/simnet defines a progress pass or an instance choice of its own
# (progressPass, acquireSendInstance, instanceFor, nextRR) or records the
# progress event, and every lock the model's breakdown reports is a
# prof.Mutex over its virtual-lock adapter (vlock), its site filled by the
# Mutex, not by a second statistics path (siteSnapshots): outside vlock, only
# the NoWildcards shard locks (simComm.lockShard) call a sim.Lock's Acquire
# or TryAcquire.
lint-onepath:
	@fail=0; \
	one() { n=$$(cat $$2 | grep -c -- "$$1"); \
		if [ "$$n" != 1 ]; then echo "FAIL: $$n sites of '$$1' in $$3, want exactly 1"; fail=1; fi; }; \
	core=$$(ls internal/core/*.go | grep -v _test.go); \
	match=$$(ls internal/match/*.go | grep -v _test.go); \
	progress=$$(ls internal/progress/*.go | grep -v _test.go); \
	simnet=$$(ls internal/simnet/*.go | grep -v _test.go); \
	multirate=$$(ls internal/bench/multirate/*.go | grep -v _test.go); \
	designs=$$(ls internal/designs/*.go | grep -v _test.go); \
	one 'AcquireSend(' "$$core" internal/core; \
	one 'match\.NewSharded(' "$$core" internal/core; \
	one 'match\.NewSharded(' "$$simnet" internal/simnet; \
	one 'engine\.PostRecv(' "$$core" internal/core; \
	one 'engine\.Deliver(' "$$core" internal/core; \
	one 'spc\.OutOfSequence' "$$match" internal/match; \
	one '^func .*\bfill(' "$$match" internal/match; \
	one 'flight\.KindProgress' "$$progress $$simnet" 'internal/progress + internal/simnet'; \
	if grep -nE '^func .*\b(progressPass|acquireSendInstance|instanceFor|nextRR)\(' $$simnet; then \
		echo "FAIL: the model runs cri.Pool and progress.Engine; no progress pass or instance choice of its own"; fail=1; fi; \
	vsites=$$(awk '/^func /{f=$$0} /^[[:space:]]*\/\//{next} /Acquire\(/ && f !~ /^func \(v \*vlock\)/ && f !~ /^func \(c \*simComm\) lockShard\(/ {print FILENAME":"FNR": "$$0}' $$simnet); \
	if [ -n "$$vsites" ]; then \
		echo "FAIL: the model takes the locks its breakdown reports through prof.Mutex over vlock, found:"; echo "$$vsites"; fail=1; fi; \
	if grep -n 'siteSnapshots' $$simnet; then \
		echo "FAIL: the model's lock sites fill through prof.Mutex; no second lock-statistics path"; fail=1; fi; \
	if grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build --exclude-dir=benchmark 'TryLockQuiet' .; then \
		echo "FAIL: prof.Mutex.LockClocked returns the wait it measured; no quiet try-lock before it"; fail=1; fi; \
	clocked=$$(awk '/^func /{f=FILENAME": "$$0} /^[[:space:]]*\/\//{next} /LockClocked\(/{l[f]=1} /time\.(Now|Since)\(/{t[f]=1} END {for (k in l) if (k in t) print k}' \
		$$(ls internal/cri/*.go internal/core/*.go | grep -v _test.go)); \
	if [ -n "$$clocked" ]; then \
		echo "FAIL: LockClocked returns the wait it measured; a clock read around it times the acquire twice, in:"; echo "$$clocked"; fail=1; fi; \
	one 'NewCommWithInfo(' "$$multirate" internal/bench/multirate; \
	one 'sim\.NewEnv(' internal/simnet/multirate.go internal/simnet/multirate.go; \
	one '^func (d Design) [A-Za-z]*(.*) \(multirate\.Config\|core\.Options\)' "$$designs" internal/designs; \
	one '> DefaultEagerLimit' "$$core" internal/core; \
	if grep -nE '\.spcs\.(Inc|Add|Max)\(' $$match; then \
		echo "FAIL: the matching engines count in their own blocks under their own locks, not in a counter set"; fail=1; fi; \
	if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build 'ThreadLevel|levelGuard' .; then \
		echo "FAIL: the runtime is MPI_THREAD_MULTIPLE only; no thread level or level guard"; fail=1; fi; \
	if grep -rn --include='*.go' --exclude-dir=.bench_build '"repro/internal/trace"' .; then \
		echo "FAIL: internal/trace is gone; record into internal/flight"; fail=1; fi; \
	if grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir=.bench_build --exclude-dir=fabric 'CQESendComplete' . \
		| grep -v '^\./internal/transport/[^/]*:' | grep -v ':[0-9]*:[[:space:]]*//'; then \
		echo "FAIL: the runtime opens its devices Unsignaled; only the in-process fabric posts a CQESendComplete"; fail=1; fi; \
	retries=$$(awk '/^func /{f=$$0} /errors\.Is\(.*transport\.ErrCQFull\)/{print FILENAME": "f}' $$core $$(ls internal/rma/*.go | grep -v _test.go)); \
	if ! printf '%s\n' "$$retries" | grep -qx 'internal/rma/rma\.go: func (w \*Win) mark(.*' || [ "$$(printf '%s\n' "$$retries" | wc -l)" -ne 1 ]; then \
		echo "FAIL: transport.ErrCQFull is retried only by rma.Win.mark (the flush marker), found:"; echo "$$retries"; fail=1; fi; \
	pushes=$$(awk '/^func /{f=$$0} /^[[:space:]]*\/\//{next} /recvFree[^=]*=[^=]/ && !/= *[a-z]+\.next$$/{print FILENAME": "f}' $$core | sort -u); \
	if [ "$$(printf '%s\n' "$$pushes" | grep -c .)" -ne 1 ]; then \
		echo "FAIL: one function puts a receive record back on its Thread's free list (Request.release), found:"; echo "$$pushes"; fail=1; fi; \
	if grep -rn --include='*.go' 'carve(&th\.recvs)' internal; then \
		echo "FAIL: a receive's record comes from its Thread's free list (recvRecord), not a slab of receives"; fail=1; fi; \
	tickers=$$(grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build --exclude-dir=benchmark 'time\.NewTicker(' . | grep -v '^\./internal/cluster/'); \
	if [ "$$(printf '%s\n' "$$tickers" | grep -c .)" -ne 1 ]; then \
		echo "FAIL: a run is sampled by one loop (core.Sampler); want one time.NewTicker outside internal/cluster, found:"; echo "$$tickers"; fail=1; fi; \
	if grep -rnwE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build --exclude-dir=benchmark 'StartWatchdog|NewSampler|OnSampler' .; then \
		echo "FAIL: the world's one sampler (World.StartSampler) feeds the series and the detector; no second sampling path"; fail=1; fi; \
	n=$$(cat internal/core/comm.go internal/core/world.go | grep -c 'time\.Now()'); \
	if [ "$$n" -gt 5 ]; then echo "FAIL: $$n time.Now() sites in core/comm.go + core/world.go, want at most 5"; fail=1; fi; \
	if [ $$fail = 0 ]; then echo "one path ok"; else exit 1; fi

# The one check of the virtual-time model. cmd/figures regenerates every
# committed model artifact into twin-out/ and each is compared with the
# committed file byte for byte: the model is deterministic and the twin
# replays the engines' charge, counter and flight-record order, so a refactor
# that keeps behaviour reproduces all of them and any difference is a model
# change — there is no tolerance. After a deliberate one, `make rebaseline`
# rewrites the artifacts in place and the review is `git diff` of the tables;
# twin-out/ stays behind either way, so `diff twin-out/F F` shows what moved.
# Each job line is "<output> <figures flags>": q* are the parts of
# results_quick.txt (what `figures -all` prints, in its order). A simulation
# runs one simulated thread at a time, so the jobs (~110 CPU-seconds, Fig. 7
# alone ~35) get one P each and run one per core, longest first.
# flight_sim_stall.json is not committed (`make chaos`
# writes it), so its oracle is two runs agreeing plus the watchdog verdict;
# compare against a parent checkout's dump for more.
twin-exact: VERB = cmp
rebaseline: VERB = cp
twin-exact rebaseline:
	@set -e; d=twin-out; rm -rf $$d; mkdir $$d; \
	$(GO) build -o $$d/ ./cmd/figures ./cmd/multirate; \
	printf '%s\n' 'q7 -fig 7' 'results_ablations.txt -ablation all' 'q5 -fig 5' \
		'BENCH_4_latency.json -fig trajectory-latency' 'BENCH_4.json -fig trajectory' \
		'q3b -fig 3b' 'q3a -fig 3a' 'q6 -fig 6' 'q4a -fig 4a' \
		'results_extensions.txt -fig matching' 'q3c -fig 3c' 'q4c -fig 4c' 'qtable2 -table 2' 'q4b -fig 4b' \
		'qbreakdown -fig breakdown' 'qwaterfall -fig waterfall' \
	| xargs -P $$(getconf _NPROCESSORS_ONLN) -L 1 sh -c 'GOMAXPROCS=1 "$$0"/figures "$$2" "$$3" > "$$0/$$1"' $$d; \
	(cd $$d; cat q3a q3b q3c q4a q4b q4c q5 q6 q7 qbreakdown qwaterfall qtable2 > results_quick.txt; rm q*); \
	for i in 1 2; do $$d/multirate -engine sim -pairs 1 -window 64 -iters 4 \
		-flight 2048 -watchdog -stall 2s -stall-at 2 -flight-out $$d/flight_sim_stall.$$i.json >/dev/null 2>&1; done; \
	cmp $$d/flight_sim_stall.1.json $$d/flight_sim_stall.2.json; grep -q '"reason": "no-progress"' $$d/flight_sim_stall.1.json; \
	if [ -f flight_sim_stall.json ]; then $(VERB) $$d/flight_sim_stall.1.json flight_sim_stall.json; fi; \
	rc=0; for f in BENCH_4.json BENCH_4_latency.json results_quick.txt results_ablations.txt results_extensions.txt; do \
		$(VERB) $$d/$$f $$f || rc=1; done; [ $$rc = 0 ]; \
	echo "$@: BENCH_4, BENCH_4_latency, results_quick, results_ablations, results_extensions, flight_sim_stall"

# Two OS processes exchanging the pairwise benchmark over loopback TCP.
tcp-smoke:
	./scripts/tcp_smoke.sh

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

# Proves the disabled telemetry hooks cost ~1 ns and zero allocations.
bench-telemetry:
	$(GO) test -bench=. -benchmem ./internal/telemetry

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
# in flight, and seeded faulty two-sided and RMA benchmark runs — the tests
# under the race detector.
# The two-sided faulty run flies with the recorder and watchdog armed and leaves its
# flight-record dump as a triage artifact; a deterministic virtual-time
# stall then proves the watchdog names the stalled site.
chaos:
	$(GO) test -race -run 'Fault|Chaos|FreeComm|PeerUnreachable|Reliable|Duplicate|Watchdog|Flight' ./internal/fabric ./internal/core ./internal/match ./internal/simnet
	$(GO) run ./cmd/multirate -engine real -pairs 4 -window 32 -iters 4 \
		-fault-drop 0.01 -fault-dup 0.01 -fault-delay 0.02 -fault-seed 7 -spcs \
		-watchdog -flight-out flight_chaos.json
	$(GO) run ./cmd/rmamt -engine real -fault-drop 0.01 -fault-dup 0.01 -fault-seed 7 \
		-threads 4 -puts 200 -rounds 2
	$(GO) run ./cmd/multirate -engine sim -pairs 1 -window 64 -iters 4 \
		-flight 2048 -watchdog -stall 2s -stall-at 2 -flight-out flight_sim_stall.json

check: build vet lint-layers lint-onepath test examples allocs race conformance
