#!/usr/bin/env bash
# TCP smoke test, two stages.
#
# Stage 1 — two processes by hand: run the pairwise Multirate benchmark as
# two real OS processes joined over loopback TCP — with wire tracing on and
# the receiver serving its live observability endpoint — and check that:
#   - both halves finish with consistent totals (the sender's messages_sent
#     SPC fully accounted for by the receiver's messages_received),
#   - /healthz answers, /readyz flips to 200 once the handshake completes,
#     and /metrics + /debug/queues answer while the run is in flight,
#   - the per-rank trace shards merge into one Chrome trace with
#     cross-rank flow arrows.
# Then once more, briefly, with 64 KiB payloads: every message a rendezvous
# whose data streams out of the sender's buffer and lands in the posted
# receive across a real process boundary, totals consistent again.
#
# Stage 2 — four ranks through the launcher: run the same benchmark via
# `mpirun -n 4`, poll a rank's live /spc mid-run, and assert the on-demand
# connection invariant from the counters: a rank establishes one write path
# per peer it sends to (taking up the connection the peer dialed, or dialing
# one) and never re-establishes it, so the job's conns_opened total is the
# number of directed pairs its traffic uses.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/multirate" ./cmd/multirate
go build -o "$tmp/tracemerge" ./cmd/tracemerge

# Stage 1 runs the two ranks by hand, so the script has to name their ports.
# They stay below Linux's ephemeral range (32768 up): a port some earlier
# client connection used and left in TIME_WAIT — a test suite leaves thousands
# on loopback for a minute — cannot be listened on, and the rank exits 1.
port_base=$((20000 + RANDOM % 12000))
http_addr="127.0.0.1:$((port_base + 2))"
peers="127.0.0.1:${port_base},127.0.0.1:$((port_base + 1))"
args=(-transport tcp -peers "$peers" -pairs 4 -window 64 -iters 256 -machine fast -spcs -trace-wire -latency)

out0="$tmp/out0" out1="$tmp/out1"
"$tmp/multirate" -rank 1 "${args[@]}" -http "$http_addr" \
    -trace-shard "$tmp/shard1.json" >"$out1" 2>&1 &
recv_pid=$!

# Poll the receiver's live endpoint while the benchmark runs. The server
# binds before the world exists (liveness answers during the TCP
# handshake); /readyz turns 200 only once the world is constructed, at
# which point the introspection endpoints carry live queue state.
#
# No race with a short run: a rank keeps its endpoint up until a /readyz
# probe has answered 200, so everything fetched before that probe was served
# by the live process however quickly the 256 iterations finished. Hence the
# order — the documents first, retried until each carries what the post-run
# checks assert on (queue state once the world is bound, stage histograms
# once messages complete), /readyz last.
(
    for _ in $(seq 1 100); do
        if curl -fsS "http://$http_addr/healthz" >"$tmp/healthz" 2>/dev/null; then
            break
        fi
        sleep 0.1
    done
    [[ -s "$tmp/healthz" ]] || exit 1
    for _ in $(seq 1 200); do
        if curl -fsS "http://$http_addr/debug/queues" >"$tmp/queues" 2>/dev/null &&
            grep -q '"comms"' "$tmp/queues" &&
            curl -fsS "http://$http_addr/metrics" >"$tmp/metrics" 2>/dev/null &&
            curl -fsS "http://$http_addr/debug/latency" >"$tmp/latency_live" 2>/dev/null &&
            grep -q '"stage"' "$tmp/latency_live" &&
            curl -fsS "http://$http_addr/readyz" >"$tmp/readyz" 2>/dev/null; then
            exit 0
        fi
        sleep 0.05
    done
    exit 1
) &
curl_pid=$!

"$tmp/multirate" -rank 0 "${args[@]}" -trace-shard "$tmp/shard0.json" >"$out0" 2>&1
wait "$recv_pid"

field() { grep -o "$2=[^ ]*" "$1" | head -1 | cut -d= -f2; }
counter() { awk -v k="$2" '$1 == k { print $2 }' "$1"; }

# check_totals OUT0 OUT1: both halves finished and agree — the same message
# total in both headers, the sender's messages_sent covering it and fully
# accounted for by the receiver's messages_received. Leaves the three numbers
# in msgs, sent and received.
check_totals() {
    local msgs1
    msgs="$(field "$1" messages)"
    msgs1="$(field "$2" messages)"
    sent="$(counter "$1" messages_sent)"
    received="$(counter "$2" messages_received)"
    echo "rank 0: $(head -c 200 <(grep engine= "$1"))"
    echo "rank 1: $(head -c 200 <(grep engine= "$2"))"
    if [[ -z "$msgs" || "$msgs" != "$msgs1" ]]; then
        echo "FAIL: header message totals differ (rank0=$msgs rank1=$msgs1)" >&2
        exit 1
    fi
    if [[ -z "$sent" || "$sent" -lt "$msgs" ]]; then
        echo "FAIL: sender SPC messages_sent=$sent < benchmark total $msgs" >&2
        exit 1
    fi
    # The receiver also absorbs internal barrier traffic, so >= is the invariant.
    if [[ -z "$received" || "$received" -lt "$sent" ]]; then
        echo "FAIL: receiver SPC messages_received=$received < sender messages_sent=$sent" >&2
        exit 1
    fi
}
check_totals "$out0" "$out1"
msgs0="$msgs"

# The live endpoint must have answered during the run.
if ! wait "$curl_pid"; then
    echo "FAIL: the live endpoint never served /healthz, queue state, stage histograms and /readyz" >&2
    exit 1
fi
if ! grep -q '^ok$' "$tmp/healthz"; then
    echo "FAIL: /healthz body: $(cat "$tmp/healthz")" >&2
    exit 1
fi
if ! grep -q '^ready$' "$tmp/readyz"; then
    echo "FAIL: /readyz body: $(cat "$tmp/readyz")" >&2
    exit 1
fi
if ! grep -q 'mpi_build_info' "$tmp/metrics"; then
    echo "FAIL: /metrics served no mpi_build_info gauge" >&2
    exit 1
fi
# Mid-run introspection: the queue snapshot must be JSON naming the rank's
# communicator queues.
if ! grep -q '"rank"' "$tmp/queues" || ! grep -q '"comms"' "$tmp/queues"; then
    echo "FAIL: /debug/queues snapshot: $(head -c 200 "$tmp/queues")" >&2
    exit 1
fi
# Mid-run latency attribution: /debug/latency must have served non-empty
# per-stage histograms while messages were still completing.
if ! grep -q '"stage"' "$tmp/latency_live" || ! grep -q '"exemplars"' "$tmp/latency_live"; then
    echo "FAIL: mid-run /debug/latency had no stage histograms: $(head -c 200 "$tmp/latency_live" 2>/dev/null)" >&2
    exit 1
fi

# The per-rank shards must merge into one clock-corrected Chrome trace
# carrying cross-rank flow arrows.
"$tmp/tracemerge" -o "$tmp/merged.json" "$tmp/shard0.json" "$tmp/shard1.json"
flows="$(grep -o 'mpi-flow' "$tmp/merged.json" | wc -l)"
if [[ "$flows" -lt 3 ]]; then
    echo "FAIL: merged trace has no cross-rank flow arrows" >&2
    exit 1
fi

echo "OK: $msgs0 benchmark messages; sender sent=$sent, receiver received=$received"
echo "OK: live /healthz, /readyz, /metrics and /debug/queues served; merged trace carries $flows flow-arrow events"

# Rendezvous over real sockets: the same two processes, 64 KiB per message.
rdv_peers="127.0.0.1:$((port_base + 3)),127.0.0.1:$((port_base + 4))"
rdv_args=(-transport tcp -peers "$rdv_peers" -pairs 2 -window 8 -iters 32 -size 65536 -machine fast -spcs)
"$tmp/multirate" -rank 1 "${rdv_args[@]}" >"$tmp/rdv1" 2>&1 &
rdv_pid=$!
"$tmp/multirate" -rank 0 "${rdv_args[@]}" >"$tmp/rdv0" 2>&1
wait "$rdv_pid"
check_totals "$tmp/rdv0" "$tmp/rdv1"
for f in "$tmp/rdv0" "$tmp/rdv1"; do
    if [[ -n "$(counter "$f" wire_frames_rejected)$(counter "$f" wire_flush_failures)" ]]; then
        echo "FAIL: the 64 KiB run rejected frames or lost flushes: $(grep -E 'wire_frames_rejected|wire_flush_failures' "$f")" >&2
        exit 1
    fi
done
echo "OK: $msgs rendezvous messages of 64 KiB across two processes; sender sent=$sent, receiver received=$received"

# ---- 4-rank mpirun launch ---------------------------------------------
# Launch the same benchmark as a 4-rank job through the mpirun launcher,
# hit a rank's live /spc endpoint mid-run, and verify the on-demand topology
# from the connection counters: each rank establishes at most 3 write paths
# (one per peer) with no reconnect, and the 4 ranks together establish
# exactly one per directed pair the job's traffic uses.
go build -o "$tmp/mpirun" ./cmd/mpirun

mout="$tmp/mpirun_out"
"$tmp/mpirun" -n 4 "$tmp/multirate" -pairs 4 -window 64 -iters 128 \
    -machine fast -spcs -http 127.0.0.1:0 >"$mout" 2>&1 &
mpirun_pid=$!

# Each rank prints its auto-allocated observability address on stderr;
# grab the first one that appears in the teed output and poll its /spc
# while the job runs. A rank holds its endpoint until /readyz is probed, so
# once /spc has answered, probe every rank that has announced itself — the
# job then exits without waiting out the unobserved-endpoint grace.
rank_addrs() { grep -o 'observability endpoint on http://[0-9.:]*' "$mout" 2>/dev/null | sed 's#.*http://##' || true; }
spc_live=""
for _ in $(seq 1 200); do
    addr="$(rank_addrs | head -1)"
    if [[ -n "$addr" ]] && curl -fsS "http://$addr/spc" >"$tmp/spc_live" 2>/dev/null; then
        spc_live=yes
        for a in $(rank_addrs); do
            curl -fsS "http://$a/readyz" >/dev/null 2>&1 || true
        done
        break
    fi
    kill -0 "$mpirun_pid" 2>/dev/null || break
    sleep 0.05
done

if ! wait "$mpirun_pid"; then
    echo "FAIL: mpirun -n 4 exited nonzero" >&2
    tail -20 "$mout" >&2
    exit 1
fi
if [[ "$(grep -c 'engine=real' "$mout")" -ne 4 ]]; then
    echo "FAIL: expected 4 rank headers from mpirun, got:" >&2
    grep 'engine=real' "$mout" >&2 || true
    exit 1
fi
if [[ -z "$spc_live" ]] || ! grep -q 'messages_' "$tmp/spc_live"; then
    echo "FAIL: live /spc endpoint never answered during the mpirun job" >&2
    exit 1
fi

# Per-rank counters arrive teed as "[rank R] counter_name value"; absent
# means zero (the SPC dump omits zero counters).
rank_counter() {
    local v
    v="$(awk -v r="$2]" -v k="$3" '$1 == "[rank" && $2 == r && $3 == k { print $4; exit }' "$1")"
    echo "${v:-0}"
}
# The directed pairs multirate's traffic uses in a 4-rank job: its start and
# end fences are core's dissemination barrier (Comm.Barrier), in which rank r
# sends to r+1 and r+2 (mod 4), and its streams run from each even rank to the
# odd rank after it with eager sends only (no rendezvous answers back), which
# the barrier pairs already include: 8 directed pairs.
declare -A directed=()
for r in 0 1 2 3; do
    for dist in 1 2; do directed["$r>$(((r + dist) % 4))"]=1; done
done
for even in 0 2; do directed["$even>$((even + 1))"]=1; done
want_conns=${#directed[@]}
opened_total=0 reused_total=0
for r in 0 1 2 3; do
    o="$(rank_counter "$mout" "$r" conns_opened)"
    u="$(rank_counter "$mout" "$r" conns_reused)"
    re="$(rank_counter "$mout" "$r" reconnects)"
    echo "rank $r: conns_opened=$o conns_reused=$u reconnects=$re"
    if [[ "$o" -gt 3 || "$re" -ne 0 ]]; then
        echo "FAIL: rank $r established $o write paths with $re reconnects; it has 3 peers and re-establishes none" >&2
        exit 1
    fi
    opened_total=$((opened_total + o))
    reused_total=$((reused_total + u))
done
if [[ "$opened_total" -ne "$want_conns" ]]; then
    echo "FAIL: the 4 ranks established $opened_total write paths, want $want_conns — one per directed pair the job's traffic uses" >&2
    exit 1
fi

echo "OK: mpirun -n 4 completed; $opened_total write paths for $want_conns directed pairs (reused=$reused_total); live /spc answered mid-run"

# ---- Cluster observability plane --------------------------------------
# Stage 3 — the launcher as the job's observability plane. A healthy run
# under `mpirun -http` must serve one rank-labeled series per rank on the
# aggregate /cluster/metrics with a clean /cluster/imbalance mid-run; a
# -stall run must localize the frozen rank in an imbalance verdict. The
# end-of-run cluster reports stay in the working tree as CI artifacts.
go build -o "$tmp/mpitop" ./cmd/mpitop

# The launcher picks every port: `-http 127.0.0.1:0` binds the aggregator
# first (mpirun keeps that listener while it reserves the ranks' ports, so no
# rank can be handed it) and announces the address on stderr.
cout="$tmp/cluster_out"
"$tmp/mpirun" -n 4 -http 127.0.0.1:0 -poll 100ms -report-out cluster_report.json \
    "$tmp/multirate" -pairs 4 -window 16 -iters 1500 -machine fast -latency >"$cout" 2>&1 &
cluster_pid=$!
cluster_addr=""
for _ in $(seq 1 100); do
    cluster_addr="$(grep -o 'cluster aggregator on http://[0-9.:]*' "$cout" 2>/dev/null | sed 's#.*http://##' || true)"
    [[ -n "$cluster_addr" ]] && break
    kill -0 "$cluster_pid" 2>/dev/null || break
    sleep 0.05
done
if [[ -z "$cluster_addr" ]]; then
    echo "FAIL: mpirun -http never announced its cluster aggregator address" >&2
    tail -20 "$cout" >&2
    exit 1
fi

# Wait until every rank's series shows up in the merged exposition — with
# the attribution layer on, that includes at least one non-empty
# (count > 0) latency stage histogram per rank (senders fill the
# sender-side stages, receivers the receive path; the recording-ownership
# rule means no rank fills both) — then assert the mid-run imbalance view
# is clean. Verdicts must come from rank pathology, not from scrape races
# or benign sender-ahead queue depth.
ranks_seen=""
for _ in $(seq 1 200); do
    if curl -fsS "http://$cluster_addr/cluster/metrics" >"$tmp/cluster_metrics" 2>/dev/null; then
        n=0
        for r in 0 1 2 3; do
            grep -q "mpi_uptime_seconds{rank=\"$r\"}" "$tmp/cluster_metrics" &&
                grep -Eq "mpi_latency_[a-z_0-9]*_bucket\{rank=\"$r\",le=\"\+Inf\"\} [1-9]" "$tmp/cluster_metrics" &&
                n=$((n + 1))
        done
        if [[ "$n" -eq 4 ]]; then
            ranks_seen=yes
            curl -fsS "http://$cluster_addr/cluster/imbalance" >"$tmp/cluster_imbalance" 2>/dev/null || true
            break
        fi
    fi
    kill -0 "$cluster_pid" 2>/dev/null || break
    sleep 0.05
done

if ! wait "$cluster_pid"; then
    echo "FAIL: mpirun -http job exited nonzero" >&2
    tail -20 "$cout" >&2
    exit 1
fi
if [[ -z "$ranks_seen" ]]; then
    echo "FAIL: /cluster/metrics never carried all 4 rank-labeled series" >&2
    head -40 "$tmp/cluster_metrics" >&2 || true
    exit 1
fi
for r in 0 1 2 3; do
    if ! grep -q "mpi_spc_messages_sent{rank=\"$r\",scope=\"process\"}" "$tmp/cluster_metrics"; then
        echo "FAIL: merged exposition has no messages_sent series for rank $r" >&2
        exit 1
    fi
done
# The recording-ownership rule, observed end-to-end over TCP: in this
# topology even ranks are pure senders (wire_write fills, e2e stays
# empty) and odd ranks are the receivers (e2e fills).
for r in 0 2; do
    if ! grep -Eq "mpi_latency_stage_wire_write_ns_bucket\{rank=\"$r\",le=\"\+Inf\"\} [1-9]" "$tmp/cluster_metrics"; then
        echo "FAIL: sender rank $r exported no wire_write stage histogram" >&2
        exit 1
    fi
done
for r in 1 3; do
    if ! grep -Eq "mpi_latency_e2e_ns_bucket\{rank=\"$r\",le=\"\+Inf\"\} [1-9]" "$tmp/cluster_metrics"; then
        echo "FAIL: receiver rank $r exported no e2e latency histogram" >&2
        exit 1
    fi
done
if ! grep -q '"clean": true' "$tmp/cluster_imbalance"; then
    echo "FAIL: healthy run's mid-run /cluster/imbalance not clean:" >&2
    cat "$tmp/cluster_imbalance" >&2
    exit 1
fi
if ! grep -q '"schema_version": 2' cluster_report.json; then
    echo "FAIL: cluster report missing or wrong schema:" >&2
    head -5 cluster_report.json >&2 || true
    exit 1
fi
# The saved report must render through mpitop's snapshot mode.
if ! "$tmp/mpitop" -snapshot cluster_report.json | grep -q 'RANK'; then
    echo "FAIL: mpitop -snapshot could not render the cluster report" >&2
    exit 1
fi
echo "OK: mpirun -http served 4 rank-labeled series with a clean mid-run imbalance view"

# Stall localization: freeze rank 3's receive side for 3s mid-run and
# require the cluster detector to name it. (The deterministic only-rank-3
# assertion lives in the simnet twin; this exercises the live pipeline.)
sout="$tmp/stall_out"
if ! "$tmp/mpirun" -n 4 -http 127.0.0.1:0 -poll 100ms -report-out cluster_stall_report.json \
    "$tmp/multirate" -pairs 4 -window 64 -iters 1500 -machine fast -stall 3s -stall-at 2 >"$sout" 2>&1; then
    echo "FAIL: mpirun -stall job exited nonzero" >&2
    tail -20 "$sout" >&2
    exit 1
fi
if ! grep -q '"reason": "rank-straggler"' cluster_stall_report.json ||
    ! grep -q 'rank 3 made no send/recv progress' cluster_stall_report.json; then
    echo "FAIL: stalled run produced no straggler verdict naming rank 3:" >&2
    grep -A2 '"verdicts"' cluster_stall_report.json >&2 || true
    exit 1
fi
# The verdict names a place, not only a rank: the straggler verdict on rank 3
# carries the phase and the site the detector read off the rank's queues, and
# mpitop prints them.
straggler="$(grep -A3 '"reason": "rank-straggler"' cluster_stall_report.json | grep -A2 '"rank": 3,' || true)"
if ! grep -Eq '"phase": "[^"]+"' <<<"$straggler" || ! grep -Eq '"site": "[^"]+"' <<<"$straggler"; then
    echo "FAIL: no rank-straggler verdict with \"rank\": 3 and a non-empty phase and site:" >&2
    grep -A5 '"reason": "rank-straggler"' cluster_stall_report.json >&2 || true
    exit 1
fi
if ! "$tmp/mpitop" -snapshot cluster_stall_report.json |
    grep -Eq '\[rank-straggler\] rank 3 \(phase [a-z_]+, site [^)]+\): '; then
    echo "FAIL: mpitop -snapshot does not print the straggler verdict's phase and site" >&2
    "$tmp/mpitop" -snapshot cluster_stall_report.json | tail -5 >&2
    exit 1
fi
echo "OK: cluster detector localized the injected stall to rank 3 over tcp ($(grep -o '"site": "[^"]*"' <<<"$straggler" | head -1))"
