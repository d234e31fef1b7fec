#!/usr/bin/env bash
# Networked sweep smoke: the distributed exhaustive 2^16-word sweep over
# localhost TCP, twice.
#
#   scripts/net_sweep_smoke.sh [BUILD_DIR]
#
# Leg 1 — healthy: 1 coordinator + 2 workers split the sweep; the
# coordinator binary itself asserts bit-for-bit equality against its
# in-process sweep and the Boolean AND reference, then shuts the workers
# down (both must exit 0). Both workers must have retired at least one
# shard: the coordinator's start barrier sets a first shard aside for each
# connected worker, so a coordinator thread that wakes late still gets one.
#
# Leg 2 — straggler + observability: 2 fresh workers, one SIGSTOPped
# before the sweep starts. Its shards sit in flight until the straggler
# deadline, get re-sharded to the live worker, and the sweep must still
# complete bit-for-bit. The coordinator runs in the background with
# --trace-out so the script can scrape the live worker's metrics endpoint
# *mid-sweep* (request-latency histogram buckets and non-zero byte
# counters must be present), and the merged Perfetto trace written
# afterwards must parse as JSON and contain per-request phase spans
# (admission, kernel), per-shard coordinator spans (shard_send) and at
# least one reshard event. The trace file lands at $TRACE_OUT (default
# sweep_trace.json) for CI to upload next to the bench JSON.
#
# Leg 3 — registry discovery + straggler: an example_registry process with
# a long TTL, 2 fresh workers that register themselves (no --workers list
# anywhere), one SIGSTOPped *after* registering. The coordinator discovers
# both endpoints from the registry, the frozen worker's shards get
# re-sharded, and the sweep still completes bit-for-bit.
#
# Leg 4 — compiled cascade: a fresh worker serves a wire-v3 program frame.
# example_compile_function synthesizes an arbitrary 3-input truth table to
# a majority cascade, ships it over TCP, and asserts the remote result
# bit-for-bit against the Boolean table.
set -euo pipefail

BUILD=${1:-build}
WORKER="$BUILD/example_sweep_worker"
COORD="$BUILD/example_sweep_coordinator"
REGISTRY="$BUILD/example_registry"
SCRAPE="$BUILD/example_scrape"
TRACE_OUT=${TRACE_OUT:-sweep_trace.json}
[[ -x $WORKER && -x $COORD && -x $REGISTRY && -x $SCRAPE ]] || {
  echo "missing $WORKER, $COORD, $REGISTRY or $SCRAPE (build first)" >&2
  exit 1
}

# Ports in the dynamic range, offset by PID so parallel CI jobs on one
# host do not collide.
P1=$((20000 + ($$ % 20000)))
P2=$((P1 + 1))
P3=$((P1 + 2))
P4=$((P1 + 3))
P5=$((P1 + 4))  # registry
P6=$((P1 + 5))
P7=$((P1 + 6))

cleanup() {
  # Resume anything stopped so kill can reap it; ignore the already-gone.
  kill -CONT "${PIDS[@]}" 2>/dev/null || true
  kill "${PIDS[@]}" 2>/dev/null || true
}
PIDS=()
trap cleanup EXIT

echo "=== leg 1: healthy 2-worker TCP sweep ==="
"$WORKER" --transport=tcp --listen "tcp:127.0.0.1:$P1" --max-seconds 300 &
W1=$!
"$WORKER" --transport=tcp --listen "tcp:127.0.0.1:$P2" --max-seconds 300 &
W2=$!
PIDS+=("$W1" "$W2")
OUT=$("$COORD" --transport=tcp \
  --workers "tcp:127.0.0.1:$P1,tcp:127.0.0.1:$P2" --shutdown-workers)
echo "$OUT"
grep -q "PASS" <<<"$OUT"
[[ $(grep -cE '^  worker [0-9]+ \(.*\): [1-9][0-9]* shard' <<<"$OUT") -eq 2 ]] || {
  echo "healthy leg: a worker retired no shard" >&2
  exit 1
}
wait "$W1"
wait "$W2"
echo "leg 1 OK: both workers retired shards and exited cleanly after shutdown"

echo "=== leg 2: straggler (one worker SIGSTOPped) + observability ==="
"$WORKER" --transport=tcp --listen "tcp:127.0.0.1:$P3" --max-seconds 300 &
W3=$!
"$WORKER" --transport=tcp --listen "tcp:127.0.0.1:$P4" --max-seconds 300 &
W4=$!
PIDS+=("$W3" "$W4")
# Let the victim reach its listen loop, then freeze it. Its accept backlog
# still completes TCP handshakes, so the coordinator connects and sends —
# and never hears back: exactly the straggler shape.
sleep 1
kill -STOP "$W4"
# Background coordinator: the straggler deadline guarantees the sweep is
# still in flight one second in, which is when the metrics scrape lands.
COORD_LOG=$(mktemp)
"$COORD" --transport=tcp \
  --workers "tcp:127.0.0.1:$P3,tcp:127.0.0.1:$P4" \
  --deadline-ms 1000 --shutdown-workers --trace-out "$TRACE_OUT" \
  >"$COORD_LOG" &
C1=$!
PIDS+=("$C1")
sleep 1
# Mid-sweep scrape of the live worker: the histogram families must render
# and the transport byte counters must already be counting.
METRICS=$("$SCRAPE" "tcp:127.0.0.1:$P3")
grep -q 'sw_serve_request_latency_seconds_bucket' <<<"$METRICS" || {
  echo "mid-sweep scrape is missing the request-latency histogram" >&2
  exit 1
}
grep -q 'sw_serve_kernel_exec_seconds_bucket' <<<"$METRICS" || {
  echo "mid-sweep scrape is missing the kernel-exec histogram" >&2
  exit 1
}
grep -qE 'sw_net_rx_bytes_total [1-9]' <<<"$METRICS" || {
  echo "mid-sweep scrape shows no bytes received" >&2
  exit 1
}
grep -qE 'sw_net_tx_bytes_total [1-9]' <<<"$METRICS" || {
  echo "mid-sweep scrape shows no bytes sent" >&2
  exit 1
}
wait "$C1"
OUT=$(cat "$COORD_LOG")
rm -f "$COORD_LOG"
echo "$OUT"
grep -q "PASS" <<<"$OUT"
# The straggler's shard(s) must actually have been re-sharded, not just
# happen to finish: a zero re-shard count means the leg tested nothing.
grep -qE "[1-9][0-9]* re-shard" <<<"$OUT" || {
  echo "straggler leg completed without re-sharding" >&2
  exit 1
}
# The merged trace must be valid JSON and show the per-request phase spans
# from the worker, the per-shard spans from the coordinator, and the
# reshard event the straggler forced.
python3 - "$TRACE_OUT" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
names = {e.get("name") for e in doc["traceEvents"]}
for want in ("admission", "kernel", "wire_decode", "wire_encode",
             "shard_assign", "shard_send", "shard_wait", "shard_retire",
             "reshard"):
    assert want in names, f"trace is missing {want!r} spans: {sorted(names)}"
print(f"trace OK: {len(doc['traceEvents'])} events, "
      f"{len(names)} distinct span names")
EOF
wait "$W3"
kill -CONT "$W4" 2>/dev/null || true
kill "$W4" 2>/dev/null || true
echo "leg 2 OK: sweep completed bit-for-bit around the stopped worker"

echo "=== leg 3: registry discovery + straggler ==="
# Long TTL: the frozen worker's advert must stay listed so the coordinator
# discovers 2 workers (a straggler is a scheduling fact, not a
# deregistration).
"$REGISTRY" --listen "tcp:127.0.0.1:$P5" --ttl-ms 60000 --max-seconds 300 &
R1=$!
PIDS+=("$R1")
# Registry first, workers second: a worker's first register fires at
# start-up, and its retry cadence is the 2 s heartbeat — give the registry
# a beat to bind so the first attempt is the one that lands.
sleep 1
"$WORKER" --transport=tcp --listen "tcp:127.0.0.1:$P6" \
  --registry "tcp:127.0.0.1:$P5" --max-seconds 300 &
W5=$!
"$WORKER" --transport=tcp --listen "tcp:127.0.0.1:$P7" \
  --registry "tcp:127.0.0.1:$P5" --max-seconds 300 &
W6=$!
PIDS+=("$W5" "$W6")
# Let both workers heartbeat their adverts in, then freeze one — after
# registration, so the registry still lists it and the coordinator must
# work around it the straggler way.
sleep 1
kill -STOP "$W6"
OUT=$("$COORD" --transport=tcp \
  --registry "tcp:127.0.0.1:$P5" --min-workers 2 --discover-ms 20000 \
  --deadline-ms 1000 --shutdown-workers)
echo "$OUT"
grep -q "PASS" <<<"$OUT"
grep -q "discovered 2 worker(s)" <<<"$OUT" || {
  echo "coordinator did not discover both workers from the registry" >&2
  exit 1
}
grep -qE "[1-9][0-9]* re-shard" <<<"$OUT" || {
  echo "registry leg completed without re-sharding" >&2
  exit 1
}
wait "$W5"
kill -CONT "$W6" 2>/dev/null || true
kill "$W6" 2>/dev/null || true
kill "$R1" 2>/dev/null || true
echo "leg 3 OK: registry-discovered sweep completed around the stopped worker"

echo "=== leg 4: compiled cascade over a wire-v3 program frame ==="
COMPILE="$BUILD/example_compile_function"
[[ -x $COMPILE ]] || { echo "missing $COMPILE (build first)" >&2; exit 1; }
P8=$((P1 + 7))
"$WORKER" --transport=tcp --listen "tcp:127.0.0.1:$P8" --max-seconds 300 &
W7=$!
PIDS+=("$W7")
sleep 1
# 00011011 = 0x1B, an arbitrary non-special 3-ary function: the cascade is
# a real multi-gate chain, and the binary exits non-zero on any bit
# mismatch against the Boolean table.
OUT=$("$COMPILE" 00011011 --connect "tcp:127.0.0.1:$P8")
echo "$OUT"
grep -q "PASS: remote cascade" <<<"$OUT"
kill "$W7" 2>/dev/null || true
echo "leg 4 OK: synthesized cascade served remotely bit-for-bit"
