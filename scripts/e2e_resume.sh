#!/usr/bin/env bash
# End-to-end exercise of crash-safe checkpoint/resume (DESIGN.md §15):
#
# Part 1 — wishbench campaign journal:
#   1. SIGKILL a `wishbench -journal` campaign mid-flight,
#   2. resume it and assert stdout is byte-identical to an
#      uninterrupted control run with resumed_frames > 0,
#   3. resume the completed campaign again and assert it runs
#      0 fresh simulations.
#
# Part 2 — coordinator journal:
#   4. SIGKILL a `wishsimd -coordinator -journal` mid-campaign,
#   5. restart it on the same journal and assert it resumed frames,
#      answers re-submitted work from its replayed memo table
#      (checkpoint_hits > 0), and the rerun output is byte-identical
#      to a local run.
#
# Part 3 — worker write-ahead journal:
#   6. SIGKILL a `wishsimd -journal` worker (bounded store) while a
#      `wishbench -server` campaign runs against it,
#   7. delete its store directory, restart it on the same journal and
#      assert it resumed frames (journal.resumed >= 1 in /metrics),
#      that a rerun through it is byte-identical to the local control
#      run, and that the rerun read nothing from a store (lab.disk_hits
#      0) and simulated exactly the runs the journal lacked (lab.fresh =
#      the control run's fresh count - journal.resumed): the journal
#      alone carries a resume.
#
# Runnable locally (./scripts/e2e_resume.sh) and from CI. Needs curl;
# uses jq when present and a grep fallback when not.
set -euo pipefail

cd "$(dirname "$0")/.."

EXP=${E2E_EXP:-fig10}
SCALE=${E2E_SCALE:-0.05}
BASE_PORT=${E2E_PORT:-18201}
COORD_PORT=$((BASE_PORT + 2))
COORD="http://127.0.0.1:${COORD_PORT}"
JWORKER_PORT=$((BASE_PORT + 3))
JWORKER="http://127.0.0.1:${JWORKER_PORT}"

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

echo "== build =="
go build -o "$WORK/wishsimd" ./cmd/wishsimd
go build -o "$WORK/wishbench" ./cmd/wishbench

echo "== control run (-exp $EXP -scale $SCALE, no journal) =="
"$WORK/wishbench" -exp "$EXP" -scale "$SCALE" -cache-dir "" \
  >"$WORK/control.out" 2>"$WORK/control.err"

echo "== part 1: SIGKILL a journaled campaign mid-flight =="
"$WORK/wishbench" -exp "$EXP" -scale "$SCALE" -cache-dir "" -j 1 -v \
  -journal "$WORK/journal" >"$WORK/killed.out" 2>"$WORK/killed.err" &
BENCH_PID=$!
disown "$BENCH_PID" # keep bash from printing "Killed" when SIGKILL reaps it
PIDS+=("$BENCH_PID")
# With -j 1 the campaign is serial: when the N-th "ran" progress line
# appears, result N-1 is already journaled (append is fsync'd before
# the next simulation starts). Kill after the 2nd line: at least one
# result frame is durable and the campaign is still mid-flight.
for i in $(seq 1 600); do
  if [[ $(grep -c " ran " "$WORK/killed.err" 2>/dev/null || true) -ge 2 ]]; then break; fi
  [[ $i -eq 600 ]] && fail "campaign never completed 2 simulations within 60s"
  sleep 0.1
done
kill -9 "$BENCH_PID" 2>/dev/null || true
echo "campaign SIGKILLed after ≥1 journaled result"

JFILE=$(ls "$WORK/journal"/campaign-*.wbj 2>/dev/null | head -1)
[[ -n "$JFILE" ]] || fail "no journal file was created"

echo "== part 1: resume =="
"$WORK/wishbench" -exp "$EXP" -scale "$SCALE" -cache-dir "" \
  -journal "$WORK/journal" >"$WORK/resumed.out" 2>"$WORK/resumed.err"
cmp "$WORK/control.out" "$WORK/resumed.out" \
  || fail "resumed stdout differs from the uninterrupted control run"
grep -Eq 'journal .*resumed_frames=[1-9]' "$WORK/resumed.err" \
  || fail "resume replayed no frames (expected resumed_frames > 0)"
echo "resumed run is byte-identical with $(grep -Eo 'resumed_frames=[0-9]+' "$WORK/resumed.err" | head -1)"

echo "== part 1: second resume simulates nothing =="
"$WORK/wishbench" -exp "$EXP" -scale "$SCALE" -cache-dir "" \
  -journal "$WORK/journal" >"$WORK/resumed2.out" 2>"$WORK/resumed2.err"
cmp "$WORK/control.out" "$WORK/resumed2.out" \
  || fail "second resume stdout differs from the control run"
grep -q "0 fresh simulations" "$WORK/resumed2.err" \
  || fail "second resume of a complete campaign ran fresh simulations"
echo "second resume: 0 fresh simulations, byte-identical"

echo "== part 2: start 2 workers + checkpointing coordinator =="
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
    -journal "$WORK/cjournal" -drain-timeout 60s \
    >>"$WORK/coordinator.log" 2>&1 &
  COORD_PID=$!
  disown "$COORD_PID"
  PIDS+=("$COORD_PID")
  wait_healthy "$COORD" "coordinator"
}
start_coordinator

echo "== part 2: SIGKILL the coordinator mid-campaign =="
"$WORK/wishbench" -exp "$EXP" -scale "$SCALE" -server "$COORD" \
  >"$WORK/ckilled.out" 2>"$WORK/ckilled.err" &
CBENCH_PID=$!
disown "$CBENCH_PID"
PIDS+=("$CBENCH_PID")
# The coordinator journal holds only result frames (no spec set), so
# any growth past the 8-byte header means a checkpointed result.
CJFILE="$WORK/cjournal/coordinator.wbj"
for i in $(seq 1 600); do
  size=$(stat -c%s "$CJFILE" 2>/dev/null || echo 0)
  if [[ "$size" -gt 8 ]]; then break; fi
  [[ $i -eq 600 ]] && fail "coordinator checkpointed nothing within 60s"
  sleep 0.1
done
kill -9 "$COORD_PID" 2>/dev/null || true
wait "$CBENCH_PID" 2>/dev/null || true # client fails with the coordinator down
echo "coordinator SIGKILLed after ≥1 checkpointed result"

echo "== part 2: restart coordinator on the same journal =="
start_coordinator
grep -Eq 'journal .*resumed_frames=[1-9]' "$WORK/coordinator.log" \
  || fail "restarted coordinator resumed no frames"
RESUMED=$(metric "$COORD" .journal.resumed resumed)
[[ "$RESUMED" -ge 1 ]] || fail "/metrics journal.resumed is $RESUMED, want >= 1"
echo "coordinator resumed $RESUMED checkpointed frames"

echo "== part 2: rerun through the restarted coordinator =="
"$WORK/wishbench" -exp "$EXP" -scale "$SCALE" -server "$COORD" \
  >"$WORK/cresumed.out" 2>"$WORK/cresumed.err"
cmp "$WORK/control.out" "$WORK/cresumed.out" \
  || fail "post-restart cluster stdout differs from the local control run"
HITS=$(metric "$COORD" .checkpoint_hits checkpoint_hits)
[[ "$HITS" -ge 1 ]] || fail "checkpoint_hits is $HITS after resume, want >= 1"
echo "post-restart run is byte-identical with checkpoint_hits=$HITS"

echo "== part 3: start a journaled worker with a bounded store =="
start_jworker() {
  "$WORK/wishsimd" -addr "127.0.0.1:${JWORKER_PORT}" -cache-dir "$WORK/wstore" \
    -store-max-bytes 1073741824 -journal "$WORK/wjournal" -drain-timeout 60s \
    >>"$WORK/jworker.log" 2>&1 &
  JWORKER_PID=$!
  disown "$JWORKER_PID"
  PIDS+=("$JWORKER_PID")
  wait_healthy "$JWORKER" "journaled worker"
}
start_jworker

echo "== part 3: SIGKILL the worker mid-campaign =="
"$WORK/wishbench" -exp "$EXP" -scale "$SCALE" -server "$JWORKER" \
  >"$WORK/wkilled.out" 2>"$WORK/wkilled.err" &
WBENCH_PID=$!
PIDS+=("$WBENCH_PID")
# The worker journal holds only result frames (no spec set), so any
# growth past the 8-byte header means a journaled result.
WJFILE="$WORK/wjournal/server.wbj"
for i in $(seq 1 600); do
  size=$(stat -c%s "$WJFILE" 2>/dev/null || echo 0)
  if [[ "$size" -gt 8 ]]; then break; fi
  [[ $i -eq 600 ]] && fail "worker journaled nothing within 60s"
  sleep 0.1
done
kill -9 "$JWORKER_PID" 2>/dev/null || true
wait "$WBENCH_PID" 2>/dev/null || true # client fails with the worker down
echo "worker SIGKILLed after ≥1 journaled result"

echo "== part 3: restart the worker on the same journal, store deleted =="
rm -rf "$WORK/wstore"
start_jworker
grep -Eq 'journal .*resumed_frames=[1-9]' "$WORK/jworker.log" \
  || fail "restarted worker resumed no frames"
WRESUMED=$(metric "$JWORKER" .journal.resumed resumed)
[[ "$WRESUMED" -ge 1 ]] || fail "worker /metrics journal.resumed is $WRESUMED, want >= 1"
echo "worker resumed $WRESUMED frames with an empty store"

echo "== part 3: rerun through the restarted worker =="
"$WORK/wishbench" -exp "$EXP" -scale "$SCALE" -server "$JWORKER" \
  >"$WORK/wresumed.out" 2>"$WORK/wresumed.err"
cmp "$WORK/control.out" "$WORK/wresumed.out" \
  || fail "post-restart worker stdout differs from the local control run"
CFRESH=$(grep -Eo '[0-9]+ fresh simulations' "$WORK/control.err" | head -1 | grep -Eo '^[0-9]+' || true)
[[ -n "$CFRESH" ]] || fail "control run printed no fresh-simulation count"
WDISK=$(metric "$JWORKER" .lab.disk_hits disk_hits)
WFRESH=$(metric "$JWORKER" .lab.fresh fresh)
[[ "$WDISK" -eq 0 ]] || fail "worker lab.disk_hits is $WDISK after its store was deleted, want 0"
[[ "$WFRESH" -eq $((CFRESH - WRESUMED)) ]] \
  || fail "worker lab.fresh is $WFRESH, want $CFRESH control runs - $WRESUMED resumed"
echo "post-restart worker run is byte-identical: $WRESUMED runs from the journal, $WFRESH fresh, 0 store hits"

echo "e2e_resume: PASS"
