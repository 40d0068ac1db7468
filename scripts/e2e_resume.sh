#!/usr/bin/env bash
# End-to-end exercise of crash-safe resume (DESIGN.md §15): the result
# store carries every process's resume.
#
# Part 1 — a campaign resumes from its store:
#   1. SIGKILL a serial `wishbench -cache-dir S` campaign mid-flight,
#   2. rerun it over the same store and assert stdout is
#      byte-identical to an uninterrupted control run, that it read
#      the results finished before the kill from the store (store
#      hits >= 1) and simulated the rest (fresh >= 1), and that
#      fresh + shared + store hits equals the control run's fresh +
#      shared,
#   3. run the completed campaign again and assert it prints
#      "0 fresh simulations, 0 shared".
#
# Part 2 — a coordinator restarts with nothing to replay:
#   4. SIGKILL a `wishsimd -coordinator` (it has no store) while a
#      serial `wishbench -server` campaign runs through it to two
#      memory-only workers,
#   5. restart it on the same worker list and assert the rerun output
#      is byte-identical to the control run and that the workers'
#      summed lab.fresh equals the control run's fresh count: the
#      restarted coordinator routes every key to the same home worker,
#      whose memo table answers what it had already run, so nothing
#      is simulated twice.
#
# Part 3 — a worker resumes from its store:
#   6. SIGKILL a `wishsimd` worker with a bounded store while a serial
#      `wishbench -server` campaign runs against it,
#   7. restart it on the same store and assert the rerun through it is
#      byte-identical to the control run, that it read the results
#      finished before the kill from the store (lab.disk_hits >= 1) and
#      simulated the rest (lab.fresh >= 1), and that lab.fresh +
#      lab.disk_hits equals the control run's fresh count.
#
# Every part runs at four times E2E_SCALE against one control run, so
# that a kill after the second simulation lands mid-campaign (each
# part asserts that it did). Each killed
# campaign's client is SIGKILLed with its server: it would only wait
# out its retry budget against a dead address.
#
# Runnable locally (./scripts/e2e_resume.sh) and from CI. Needs curl;
# uses jq when present and a grep fallback when not.
set -euo pipefail

cd "$(dirname "$0")/.."

EXP=${E2E_EXP:-fig10}
SCALE=${E2E_SCALE:-0.05}
KSCALE=$(awk -v s="$SCALE" 'BEGIN { print 4 * s }')
BASE_PORT=${E2E_PORT:-18201}
COORD_PORT=$((BASE_PORT + 2))
COORD="http://127.0.0.1:${COORD_PORT}"
SWORKER_PORT=$((BASE_PORT + 3))
SWORKER="http://127.0.0.1:${SWORKER_PORT}"

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
  echo "e2e_resume: FAIL: $*" >&2
  for log in "$WORK"/*.log "$WORK"/*.err; do
    [[ -f "$log" ]] || continue
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

metric() { # metric URL JQ_PATH GREP_FIELD — one field of URL's /metrics
  local json url=$1 path=$2 field=$3
  json=$(curl -fsS "$url/metrics")
  if command -v jq >/dev/null 2>&1; then
    printf '%s' "$json" | jq -r "$path"
  else
    printf '%s' "$json" | grep -o "\"$field\": *[0-9]*" | head -1 | grep -o '[0-9]*$'
  fi
}

# fresh_sum URL... prints the servers' summed lab.fresh; wait_fresh N
# URL... waits until that sum reaches N, polling fast enough to land
# inside a serial campaign.
fresh_sum() {
  local sum=0 url
  for url in "$@"; do sum=$((sum + $(metric "$url" .lab.fresh fresh))); done
  echo "$sum"
}
wait_fresh() {
  local n=$1 i
  shift
  for i in $(seq 1 1200); do
    [[ $(fresh_sum "$@") -ge $n ]] && return 0
    sleep 0.05
  done
  fail "servers $* ran fewer than $n simulations within 60s"
}

echo "== build =="
go build -o "$WORK/wishsimd" ./cmd/wishsimd
go build -o "$WORK/wishbench" ./cmd/wishbench

# summary FILE NAME prints the count before NAME ("fresh simulations",
# "shared", "store hits") in FILE's campaign summary line.
summary() {
  grep 'campaign done' "$1" | grep -Eo "[0-9]+ $2" | grep -Eo '^[0-9]+' || true
}

echo "== control run (-exp $EXP -scale $KSCALE, no store) =="
"$WORK/wishbench" -exp "$EXP" -scale "$KSCALE" -cache-dir "" \
  >"$WORK/control.out" 2>"$WORK/control.err"
CFRESH=$(summary "$WORK/control.err" "fresh simulations")
CSHARED=$(summary "$WORK/control.err" shared)
[[ -n "$CFRESH" && -n "$CSHARED" ]] || fail "control run printed no campaign summary"

echo "== part 1: SIGKILL a campaign over a store mid-flight =="
"$WORK/wishbench" -exp "$EXP" -scale "$KSCALE" -cache-dir "$WORK/store" -j 1 -v \
  >"$WORK/killed.out" 2>"$WORK/killed.err" &
BENCH_PID=$!
disown "$BENCH_PID" # keep bash from printing "Killed" when SIGKILL reaps it
PIDS+=("$BENCH_PID")
# With -j 1 the campaign is serial, and a "ran" progress line is
# printed only after its result was appended to the store and
# fsynced. Kill after the 2nd line: at least two results are durable
# and the campaign is still mid-flight.
for i in $(seq 1 1200); do
  if [[ $(grep -c " ran " "$WORK/killed.err" 2>/dev/null || true) -ge 2 ]]; then break; fi
  [[ $i -eq 1200 ]] && fail "campaign never completed 2 simulations within 60s"
  sleep 0.05
done
kill -9 "$BENCH_PID" 2>/dev/null || true
echo "campaign SIGKILLed after at least 2 stored results"

echo "== part 1: rerun over the same store =="
"$WORK/wishbench" -exp "$EXP" -scale "$KSCALE" -cache-dir "$WORK/store" \
  >"$WORK/resumed.out" 2>"$WORK/resumed.err"
cmp "$WORK/control.out" "$WORK/resumed.out" \
  || fail "resumed stdout differs from the uninterrupted control run"
RFRESH=$(summary "$WORK/resumed.err" "fresh simulations")
RSHARED=$(summary "$WORK/resumed.err" shared)
RHITS=$(summary "$WORK/resumed.err" "store hits")
[[ "$RHITS" -ge 1 ]] || fail "the rerun read $RHITS results from the store, want >= 1"
[[ "$RFRESH" -ge 1 ]] \
  || fail "the rerun simulated nothing: the campaign finished before the kill; raise E2E_SCALE"
[[ $((RFRESH + RSHARED + RHITS)) -eq $((CFRESH + CSHARED)) ]] \
  || fail "rerun fresh $RFRESH + shared $RSHARED + store hits $RHITS != the control run's $CFRESH + $CSHARED"
echo "rerun is byte-identical: $RHITS runs from the store, $RFRESH fresh, $RSHARED shared"

echo "== part 1: a complete campaign simulates nothing =="
"$WORK/wishbench" -exp "$EXP" -scale "$KSCALE" -cache-dir "$WORK/store" \
  >"$WORK/resumed2.out" 2>"$WORK/resumed2.err"
cmp "$WORK/control.out" "$WORK/resumed2.out" \
  || fail "third run stdout differs from the control run"
grep -q "0 fresh simulations, 0 shared" "$WORK/resumed2.err" \
  || fail "a run over a complete store ran or shared simulations"
echo "third run: 0 fresh simulations, 0 shared, byte-identical"

echo "== part 2: start 2 memory-only workers + a coordinator =="
WORKER_URLS=()
for i in 0 1; do
  port=$((BASE_PORT + i))
  "$WORK/wishsimd" -addr "127.0.0.1:${port}" -cache-dir "" \
    -drain-timeout 60s >"$WORK/worker$i.log" 2>&1 &
  pid=$!
  disown "$pid"
  PIDS+=("$pid")
  WORKER_URLS+=("http://127.0.0.1:${port}")
done
for i in 0 1; do
  wait_healthy "${WORKER_URLS[$i]}" "worker $i"
done

start_coordinator() {
  "$WORK/wishsimd" -coordinator \
    -worker "$(IFS=,; echo "${WORKER_URLS[*]}")" \
    -addr "127.0.0.1:${COORD_PORT}" -probe-interval 500ms \
    -drain-timeout 60s >>"$WORK/coordinator.log" 2>&1 &
  COORD_PID=$!
  disown "$COORD_PID"
  PIDS+=("$COORD_PID")
  wait_healthy "$COORD" "coordinator"
}
start_coordinator

echo "== part 2: SIGKILL the coordinator mid-campaign =="
"$WORK/wishbench" -exp "$EXP" -scale "$KSCALE" -server "$COORD" -j 1 \
  >"$WORK/ckilled.out" 2>"$WORK/ckilled.err" &
CBENCH_PID=$!
disown "$CBENCH_PID"
PIDS+=("$CBENCH_PID")
wait_fresh 2 "${WORKER_URLS[@]}"
kill -9 "$COORD_PID" "$CBENCH_PID" 2>/dev/null || true
KFRESH=$(fresh_sum "${WORKER_URLS[@]}")
[[ "$KFRESH" -lt "$CFRESH" ]] \
  || fail "the campaign finished before the kill ($KFRESH of $CFRESH runs); raise E2E_SCALE"
echo "coordinator SIGKILLed after $KFRESH of $CFRESH runs"

echo "== part 2: restart the coordinator and rerun through it =="
start_coordinator
"$WORK/wishbench" -exp "$EXP" -scale "$KSCALE" -server "$COORD" \
  >"$WORK/cresumed.out" 2>"$WORK/cresumed.err"
cmp "$WORK/control.out" "$WORK/cresumed.out" \
  || fail "post-restart cluster stdout differs from the local control run"
WSUM=$(fresh_sum "${WORKER_URLS[@]}")
[[ "$WSUM" -eq "$CFRESH" ]] \
  || fail "workers ran $WSUM fresh simulations across the restart, want the control run's $CFRESH"
echo "post-restart run is byte-identical; the workers simulated each of the $CFRESH runs once"

echo "== part 3: start a worker with a bounded store =="
start_sworker() {
  "$WORK/wishsimd" -addr "127.0.0.1:${SWORKER_PORT}" -cache-dir "$WORK/wstore" \
    -store-max-bytes 1073741824 -drain-timeout 60s \
    >>"$WORK/sworker.log" 2>&1 &
  SWORKER_PID=$!
  disown "$SWORKER_PID"
  PIDS+=("$SWORKER_PID")
  wait_healthy "$SWORKER" "store-backed worker"
}
start_sworker

echo "== part 3: SIGKILL the worker mid-campaign =="
"$WORK/wishbench" -exp "$EXP" -scale "$KSCALE" -server "$SWORKER" -j 1 \
  >"$WORK/wkilled.out" 2>"$WORK/wkilled.err" &
WBENCH_PID=$!
disown "$WBENCH_PID"
PIDS+=("$WBENCH_PID")
# A fresh result is appended to the store's segment and fsynced before
# lab.fresh counts it, so two counted runs are at least two durable
# records.
wait_fresh 2 "$SWORKER"
kill -9 "$SWORKER_PID" "$WBENCH_PID" 2>/dev/null || true
echo "worker SIGKILLed after at least 2 stored results"

echo "== part 3: restart the worker on the same store and rerun =="
start_sworker
"$WORK/wishbench" -exp "$EXP" -scale "$KSCALE" -server "$SWORKER" \
  >"$WORK/wresumed.out" 2>"$WORK/wresumed.err"
cmp "$WORK/control.out" "$WORK/wresumed.out" \
  || fail "post-restart worker stdout differs from the local control run"
WDISK=$(metric "$SWORKER" .lab.disk_hits disk_hits)
WFRESH=$(metric "$SWORKER" .lab.fresh fresh)
[[ "$WDISK" -ge 1 ]] || fail "worker lab.disk_hits is $WDISK after the restart, want >= 1"
[[ "$WFRESH" -ge 1 ]] \
  || fail "worker lab.fresh is 0 after the restart: the campaign finished before the kill; raise E2E_SCALE"
[[ $((WFRESH + WDISK)) -eq "$CFRESH" ]] \
  || fail "worker lab.fresh $WFRESH + lab.disk_hits $WDISK != the control run's $CFRESH"
echo "post-restart worker run is byte-identical: $WDISK runs from the store, $WFRESH fresh"

echo "e2e_resume: PASS"
