#!/usr/bin/env bash
# `go test -C benchmark ./...` with exactly one known failure tolerated.
#
# benchmark/bench_test.go TestSmokeTraced still pins the pre-batching syscall
# counts of tcp_stream_0B ("want about 2 and 1" per message); the coalesced
# tcp wire reads under 0.01, which is that change's acceptance criterion, and
# benchmark/ may only be edited by a benchmark PR. The assertion is a
# t.Errorf, so the rest of the test — the traced pass on all six workloads,
# the span files, conns_opened == 1 — still runs: this script runs every test
# unfiltered and passes only if that one line is the only thing that failed
# and the counts it reports meet the coalesced wire's bar.
# Delete this script (and call plain `go test`) once the assertion is updated.
set -uo pipefail
cd "$(dirname "$0")/.."

out="$(go test -C benchmark ./... 2>&1)"
status=$?
echo "$out"
[ $status -eq 0 ] && exit 0

known='tcp stream: [0-9.e+-]+ read and [0-9.e+-]+ write syscalls per message, want about 2 and 1$'
failed_tests="$(grep -E '^--- FAIL' <<<"$out" | awk '{print $3}')"
messages="$(grep -E '^ +[A-Za-z0-9_]+\.go:[0-9]+: ' <<<"$out")"
if [ "$failed_tests" = "TestSmokeTraced" ] && [ "$(wc -l <<<"$messages")" -eq 1 ] && grep -Eq "$known" <<<"$messages"; then
	# Tolerated only at the coalesced wire's own bar: <= 0.10 reads and <= 0.05
	# writes per message. Anything between that and "2 and 1" is a regression.
	if awk '{ for (i = 1; i <= NF; i++) { if ($i == "read") r = $(i-1); if ($i == "write") w = $(i-1) } exit !(r <= 0.10 && w <= 0.05) }' <<<"$messages"; then
		echo "bench_module_test: only the known pre-batching syscall assertion failed — tolerated"
		exit 0
	fi
fi
echo "bench_module_test: failures beyond the known syscall assertion" >&2
exit 1
