#!/usr/bin/env bash
# End-to-end exercise of the sharded cluster: build the binaries, start
# three wishsimd workers plus a coordinator fronting them, drive a
# campaign through `wishbench -server <coordinator>`, and assert
#
#   1. cluster stdout is byte-identical to a local (in-process) run,
#   2. the coordinator actually sharded (every worker saw requests),
#   3. a fresh campaign survives SIGKILL of one worker mid-flight and
#      its output is still byte-identical,
#   4. /metrics reflects the death (live_workers drops, reroutes move),
#   5. SIGTERM drains the coordinator cleanly and it exits 0.
#
# Runnable locally (./scripts/e2e_cluster.sh) and from CI. Needs curl;
# uses jq when present and a grep fallback when not.
set -euo pipefail

cd "$(dirname "$0")/.."

EXP=${E2E_EXP:-fig10}
SCALE=${E2E_SCALE:-0.05}
SCALE2=${E2E_SCALE2:-0.07}
BASE_PORT=${E2E_PORT:-18091}
COORD_PORT=$((BASE_PORT + 3))
COORD="http://127.0.0.1:${COORD_PORT}"

WORK=$(mktemp -d)
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do
    [[ -n "$pid" ]] && kill -9 "$pid" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "e2e_cluster: FAIL: $*" >&2
  for log in "$WORK"/*.log; do
    echo "---- $log ----" >&2
    cat "$log" >&2 || true
  done
  exit 1
}

wait_healthy() {
  local url=$1 what=$2
  for i in $(seq 1 50); do
    if curl -fsS "$url/healthz" >/dev/null 2>&1; then return 0; fi
    [[ $i -eq 50 ]] && fail "$what did not become healthy within 10s"
    sleep 0.2
  done
}

metric() { # metric FIELD — integer field from coordinator /metrics
  local json field=$1
  json=$(curl -fsS "$COORD/metrics")
  if command -v jq >/dev/null 2>&1; then
    printf '%s' "$json" | jq -r ".$field"
  else
    printf '%s' "$json" | grep -o "\"$field\":[0-9]*" | head -1 | cut -d: -f2
  fi
}

echo "== build =="
go build -o "$WORK/wishsimd" ./cmd/wishsimd
go build -o "$WORK/wishbench" ./cmd/wishbench

echo "== start 3 workers =="
WORKER_URLS=()
WORKER_PIDS=()
for i in 0 1 2; do
  port=$((BASE_PORT + i))
  "$WORK/wishsimd" -addr "127.0.0.1:${port}" -cache-dir "$WORK/cache$i" \
    -drain-timeout 60s >"$WORK/worker$i.log" 2>&1 &
  pid=$!
  disown "$pid" # keep bash from printing "Killed" when SIGKILL reaps it
  PIDS+=("$pid")
  WORKER_PIDS+=("$pid")
  WORKER_URLS+=("http://127.0.0.1:${port}")
done
for i in 0 1 2; do
  wait_healthy "${WORKER_URLS[$i]}" "worker $i"
done

echo "== start coordinator on :$COORD_PORT =="
"$WORK/wishsimd" -coordinator \
  -worker "$(IFS=,; echo "${WORKER_URLS[*]}")" \
  -addr "127.0.0.1:${COORD_PORT}" -probe-interval 500ms \
  -drain-timeout 60s -v >"$WORK/coordinator.log" 2>&1 &
COORD_PID=$!
PIDS+=("$COORD_PID")
wait_healthy "$COORD" "coordinator"
echo "coordinator healthy: $(curl -fsS "$COORD/healthz")"

echo "== local reference run (-exp $EXP -scale $SCALE) =="
"$WORK/wishbench" -exp "$EXP" -scale "$SCALE" -cache-dir "" \
  >"$WORK/local.out" 2>"$WORK/local.err"

echo "== cluster run =="
"$WORK/wishbench" -exp "$EXP" -scale "$SCALE" -server "$COORD" \
  >"$WORK/cluster.out" 2>"$WORK/cluster.err"
cmp "$WORK/local.out" "$WORK/cluster.out" \
  || fail "cluster stdout differs from the local run"
echo "cluster run is byte-identical to the local run"

for i in 0 1 2; do
  grep -q '"run"' <(curl -fsS "${WORKER_URLS[$i]}/metrics") \
    || fail "worker $i saw no /v1/run traffic — campaign was not sharded"
done
echo "all 3 workers served shards"

echo "== kill worker 1 mid-campaign (fresh scale $SCALE2), rerun =="
"$WORK/wishbench" -exp "$EXP" -scale "$SCALE2" -cache-dir "" \
  >"$WORK/local2.out" 2>"$WORK/local2.err"
"$WORK/wishbench" -exp "$EXP" -scale "$SCALE2" -server "$COORD" \
  >"$WORK/cluster2.out" 2>"$WORK/cluster2.err" &
BENCH_PID=$!
# No sleep: the kill must land while the campaign is in flight. The
# coordinator still believes the worker is live (next probe is up to
# -probe-interval away), so its shard fails over on the request path.
kill -9 "${WORKER_PIDS[1]}" 2>/dev/null || true
echo "worker 1 SIGKILLed"
wait "$BENCH_PID" || fail "wishbench failed after a worker was killed mid-campaign"
cmp "$WORK/local2.out" "$WORK/cluster2.out" \
  || fail "post-kill cluster stdout differs from the local run"
echo "post-kill cluster run is still byte-identical"

sleep 1 # let a probe round observe the corpse
LIVE=$(metric live_workers)
[[ "$LIVE" == 2 ]] || fail "live_workers is $LIVE after the kill, want 2"
GEN=$(metric generation)
[[ "$GEN" -ge 1 ]] || fail "membership generation is $GEN after a death, want >= 1"
echo "metrics confirm the death: live_workers=$LIVE generation=$GEN reroutes=$(metric reroutes)"

echo "== SIGTERM: graceful coordinator drain =="
kill -TERM "$COORD_PID"
STATUS=0
wait "$COORD_PID" || STATUS=$?
[[ $STATUS -eq 0 ]] || fail "coordinator exited $STATUS after SIGTERM, want a clean 0"
grep -q "drained cleanly" "$WORK/coordinator.log" \
  || fail "coordinator log is missing the clean-drain line"

echo "e2e_cluster: PASS"
