#!/usr/bin/env bash
# End-to-end exercise of the wishsimd daemon: build both binaries,
# start the daemon with a fresh result store, drive a small campaign
# through `wishbench -server`, and assert
#
#   1. remote stdout is byte-identical to a local run,
#   2. a second remote pass is served from the daemon's caches
#      (hit_ratio > 0 in /metrics),
#   3. `-stats-out` over the whole campaign writes the same file
#      remotely as locally (the export reads the rendered results and
#      sends no second batch, which the daemon's admission limit would
#      reject),
#   4. SIGTERM drains cleanly and the daemon exits 0,
#   5. the same campaign against the stopped daemon's URL, at -j 1,
#      exits 1 within 20 s: once one run's retries end in a transport
#      error the rest fail at once, rather than one retry ladder
#      (about 1.5 s) per spec.
#
# Runnable locally (./scripts/e2e_serve.sh) and from CI. Needs curl and
# timeout; uses jq when present and a grep fallback when not.
set -euo pipefail

cd "$(dirname "$0")/.."

EXP=${E2E_EXP:-fig10}
SCALE=${E2E_SCALE:-0.05}
PORT=${E2E_PORT:-18081}
ADDR="127.0.0.1:${PORT}"
URL="http://${ADDR}"

WORK=$(mktemp -d)
DAEMON_PID=
cleanup() {
  if [[ -n "$DAEMON_PID" ]] && kill -0 "$DAEMON_PID" 2>/dev/null; then
    kill -9 "$DAEMON_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "e2e_serve: FAIL: $*" >&2
  echo "---- daemon log ----" >&2
  cat "$WORK/daemon.log" >&2 || true
  exit 1
}

echo "== build =="
go build -o "$WORK/wishsimd" ./cmd/wishsimd
go build -o "$WORK/wishbench" ./cmd/wishbench

echo "== start wishsimd on $ADDR (store: $WORK/cache) =="
"$WORK/wishsimd" -addr "$ADDR" -cache-dir "$WORK/cache" -drain-timeout 60s \
  >"$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!

for i in $(seq 1 50); do
  if curl -fsS "$URL/healthz" >/dev/null 2>&1; then break; fi
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died during startup"
  [[ $i -eq 50 ]] && fail "daemon did not become healthy within 10s"
  sleep 0.2
done
echo "daemon healthy: $(curl -fsS "$URL/healthz")"

echo "== local reference run (-exp $EXP -scale $SCALE) =="
"$WORK/wishbench" -exp "$EXP" -scale "$SCALE" -cache-dir "" \
  >"$WORK/local.out" 2>"$WORK/local.err"

echo "== remote run, first pass =="
"$WORK/wishbench" -exp "$EXP" -scale "$SCALE" -server "$URL" \
  >"$WORK/remote1.out" 2>"$WORK/remote1.err"
cmp "$WORK/local.out" "$WORK/remote1.out" \
  || fail "remote stdout differs from local stdout (first pass)"
echo "remote pass 1 is byte-identical to the local run"

echo "== remote run, second pass (must hit the daemon's caches) =="
"$WORK/wishbench" -exp "$EXP" -scale "$SCALE" -server "$URL" \
  >"$WORK/remote2.out" 2>"$WORK/remote2.err"
cmp "$WORK/local.out" "$WORK/remote2.out" \
  || fail "remote stdout differs from local stdout (second pass)"

METRICS=$(curl -fsS "$URL/metrics")
echo "metrics: $METRICS"
if command -v jq >/dev/null 2>&1; then
  HIT=$(printf '%s' "$METRICS" | jq -r '.lab.hit_ratio')
  AWKOK=$(printf '%s' "$HIT" | awk '{print ($1 > 0) ? "yes" : "no"}')
  [[ "$AWKOK" == yes ]] || fail "cache hit ratio is $HIT after a repeated campaign, want > 0"
else
  printf '%s' "$METRICS" | grep -q '"hit_ratio":0[,}]' \
    && fail "cache hit ratio is 0 after a repeated campaign, want > 0"
  printf '%s' "$METRICS" | grep -q '"hit_ratio":' \
    || fail "metrics body carries no hit_ratio field"
fi
echo "cache hit ratio > 0 confirmed"

echo "== -stats-out over the whole campaign, local and remote =="
"$WORK/wishbench" -exp all -scale "$SCALE" -cache-dir "" -stats-out "$WORK/local.json" \
  >/dev/null 2>"$WORK/local-stats.err" || fail "local -stats-out run failed: $(tail -3 "$WORK/local-stats.err")"
"$WORK/wishbench" -exp all -scale "$SCALE" -server "$URL" -stats-out "$WORK/remote.json" \
  >/dev/null 2>"$WORK/remote-stats.err" || fail "remote -stats-out run failed: $(tail -3 "$WORK/remote-stats.err")"
cmp "$WORK/local.json" "$WORK/remote.json" \
  || fail "remote -stats-out file differs from the local one"
echo "remote -stats-out is byte-identical to the local one"

echo "== SIGTERM: graceful drain =="
kill -TERM "$DAEMON_PID"
STATUS=0
wait "$DAEMON_PID" || STATUS=$?
[[ $STATUS -eq 0 ]] || fail "daemon exited $STATUS after SIGTERM, want a clean 0"
grep -q "drained cleanly" "$WORK/daemon.log" \
  || fail "daemon log is missing the clean-drain line"
DAEMON_PID=

echo "== dead server: the campaign fails fast =="
STATUS=0
timeout 20 "$WORK/wishbench" -exp "$EXP" -scale "$SCALE" -server "$URL" -j 1 \
  >/dev/null 2>"$WORK/dead.err" || STATUS=$?
[[ $STATUS -eq 1 ]] \
  || fail "campaign against the stopped daemon exited $STATUS, want 1 within 20 s (124 = timed out): $(tail -3 "$WORK/dead.err")"
echo "campaign against the stopped daemon exited 1 in time"

echo "e2e_serve: PASS"
