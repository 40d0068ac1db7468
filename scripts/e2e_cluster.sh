#!/usr/bin/env bash
# End-to-end exercise of the sharded cluster: build the binaries, start
# three wishsimd workers plus a coordinator fronting them, drive a
# campaign through `wishbench -server <coordinator>`, and assert
#
#   1. cluster stdout is byte-identical to a local (in-process) run,
#   2. the coordinator sharded evenly: after the first cluster run each
#      worker has simulated at least 5 of the campaign's 45 runs
#      (lab.fresh in its /metrics),
#   3. the coordinator negotiates encodings like a worker: the v1
#      fixture run and campaign requests sent with the binary Accept
#      headers come back as the binary result and the campaign stream,
#   4. a fresh campaign survives SIGKILL of one worker mid-flight and
#      its output is still byte-identical,
#   5. /metrics reflects the death (live_workers drops, reroutes move),
#   6. a poison spec (BTBEntries 3, which no BTB geometry accepts) is
#      a 400 on the coordinator's /v1/run and /v1/campaign, and all
#      three workers stay live,
#   7. the cluster heals: with every worker SIGKILLed a run for an
#      unseen key is 503 with Retry-After, and once one worker restarts
#      on its old port the same request answers 200 within two probe
#      intervals (a routing failure is not memoized),
#   8. SIGTERM drains the coordinator cleanly and it exits 0.
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
PROBE_MS=500
FIXTURES=internal/api/testdata/v1

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

metric() { # metric FIELD [URL] — integer field (a path like lab.fresh) from URL's /metrics, the coordinator's by default
  local json field=$1
  json=$(curl -fsS "${2:-$COORD}/metrics")
  if command -v jq >/dev/null 2>&1; then
    printf '%s' "$json" | jq -r ".$field"
  else
    printf '%s' "$json" | grep -o "\"${field##*.}\":[0-9]*" | head -1 | cut -d: -f2
  fi
}

echo "== build =="
go build -o "$WORK/wishsimd" ./cmd/wishsimd
go build -o "$WORK/wishbench" ./cmd/wishbench

post() { # post PATH ACCEPT BODY_FILE OUT_FILE — prints "STATUS CONTENT_TYPE"
  curl -sS -o "$4" -w '%{http_code} %{content_type}' -X POST \
    -H 'Content-Type: application/json' -H "Accept: $2" \
    --data-binary "@$3" "$COORD$1"
}

WORKER_URLS=()
WORKER_PIDS=()
start_worker() { # start_worker I — (re)start worker I on its port
  local i=$1 pid port=$((BASE_PORT + $1))
  "$WORK/wishsimd" -addr "127.0.0.1:${port}" -cache-dir "$WORK/cache$i" \
    -drain-timeout 60s >>"$WORK/worker$i.log" 2>&1 &
  pid=$!
  disown "$pid" # keep bash from printing "Killed" when SIGKILL reaps it
  PIDS+=("$pid")
  WORKER_PIDS[$i]=$pid
  WORKER_URLS[$i]="http://127.0.0.1:${port}"
}

echo "== start 3 workers =="
for i in 0 1 2; do
  start_worker "$i"
done
for i in 0 1 2; do
  wait_healthy "${WORKER_URLS[$i]}" "worker $i"
done

echo "== start coordinator on :$COORD_PORT =="
"$WORK/wishsimd" -coordinator \
  -worker "$(IFS=,; echo "${WORKER_URLS[*]}")" \
  -addr "127.0.0.1:${COORD_PORT}" -probe-interval "${PROBE_MS}ms" \
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

# Rendezvous hashing homes about a third of the runs on each worker; a
# worker under 5 of 45 means placement piled its shard onto the others.
FRESH=()
for i in 0 1 2; do
  FRESH[$i]=$(metric lab.fresh "${WORKER_URLS[$i]}")
  [[ "${FRESH[$i]}" -ge 5 ]] \
    || fail "worker $i simulated ${FRESH[$i]} runs of the campaign, want at least 5 — shards are skewed"
done
echo "workers simulated ${FRESH[0]} / ${FRESH[1]} / ${FRESH[2]} runs"

echo "== negotiation: v1 fixtures with binary Accept headers =="
GOT=$(post /v1/run "application/x-wishbranch-result, application/json" \
  "$FIXTURES/run_request.json" "$WORK/run.bin")
[[ "$GOT" == "200 application/x-wishbranch-result"* ]] \
  || fail "coordinator /v1/run answered '$GOT', want 200 application/x-wishbranch-result"
GOT=$(post /v1/campaign "application/x-wishbranch-stream, application/json" \
  "$FIXTURES/campaign_request.json" "$WORK/campaign.bin")
[[ "$GOT" == "200 application/x-wishbranch-stream"* ]] \
  || fail "coordinator /v1/campaign answered '$GOT', want 200 application/x-wishbranch-stream"
echo "coordinator answers the binary result and the campaign stream"

echo "== poison spec: BTBEntries 3 through the coordinator =="
for f in run_request campaign_request; do
  sed 's/"BTBEntries": 4096/"BTBEntries": 3/' "$FIXTURES/$f.json" >"$WORK/poison_$f.json"
  grep -q '"BTBEntries": 3' "$WORK/poison_$f.json" || fail "no BTBEntries field to poison in $f.json"
done
GOT=$(post /v1/run application/json "$WORK/poison_run_request.json" "$WORK/poison_run.json")
[[ "$GOT" == "400 "* ]] || fail "poison /v1/run answered '$GOT', want 400"
GOT=$(post /v1/campaign application/json "$WORK/poison_campaign_request.json" "$WORK/poison_campaign.json")
[[ "$GOT" == "400 "* ]] || fail "poison /v1/campaign answered '$GOT', want 400"
sleep 1 # two probe intervals: a worker the spec had killed would be seen dead
LIVE=$(metric live_workers)
[[ "$LIVE" == 3 ]] || fail "live_workers is $LIVE after the poison spec, want 3"
echo "poison spec rejected with 400 on both endpoints; live_workers=$LIVE"

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

echo "== healing: kill every worker, then restart one =="
kill -9 "${WORKER_PIDS[0]}" "${WORKER_PIDS[2]}" 2>/dev/null || true
for i in $(seq 1 50); do
  [[ "$(metric live_workers)" == 0 ]] && break
  [[ $i -eq 50 ]] && fail "live_workers never reached 0 after every worker was killed"
  sleep 0.1
done
# A key no earlier request used: the coordinator's memo cannot answer it.
sed 's/"Scale": 0.5/"Scale": 0.013/' "$FIXTURES/run_request.json" >"$WORK/heal_request.json"
HDRS=$(curl -sS -o /dev/null -D - -X POST -H 'Content-Type: application/json' \
  --data-binary "@$WORK/heal_request.json" "$COORD/v1/run")
grep -q '^HTTP/[0-9.]* 503' <<<"$HDRS" \
  || fail "run against a dead cluster did not answer 503: $HDRS"
grep -qi '^Retry-After: [1-9]' <<<"$HDRS" \
  || fail "503 from a dead cluster carries no Retry-After: $HDRS"
echo "dead cluster sheds with 503 + Retry-After"

start_worker 0
wait_healthy "${WORKER_URLS[0]}" "restarted worker 0"
for i in $(seq 1 $((2 * PROBE_MS / 100))); do
  [[ "$(metric live_workers)" == 1 ]] && break
  [[ $i -eq $((2 * PROBE_MS / 100)) ]] \
    && fail "live_workers is not 1 within two probe intervals of the restart"
  sleep 0.1
done
GOT=$(post /v1/run application/json "$WORK/heal_request.json" "$WORK/heal.json")
[[ "$GOT" == "200 "* ]] || fail "run after the restart answered '$GOT', want 200 (routing failure memoized?)"
echo "cluster healed: live_workers=$(metric live_workers), the same run answers 200"

echo "== SIGTERM: graceful coordinator drain =="
kill -TERM "$COORD_PID"
STATUS=0
wait "$COORD_PID" || STATUS=$?
[[ $STATUS -eq 0 ]] || fail "coordinator exited $STATUS after SIGTERM, want a clean 0"
grep -q "drained cleanly" "$WORK/coordinator.log" \
  || fail "coordinator log is missing the clean-drain line"

echo "e2e_cluster: PASS"
