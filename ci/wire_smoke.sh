#!/usr/bin/env bash
# Wire-protocol smoke: the full out-of-process serving loop through the
# real binaries — start `wmpctl serve` on a loopback Unix socket, stream a
# log through `wmpctl score --connect` in chunks, roll out a retrained
# model with `wmpctl train --publish --connect` (which asserts zero failed
# requests and bitwise post-swap scores), roll it back, score again, and
# shut the server down cleanly. Any nonzero step fails the script.
set -euo pipefail

BUILD=${1:-build}
WORK=$(mktemp -d /tmp/wmp-wire-smoke.XXXXXX)
LOG="$WORK/log.txt"
MODEL="$WORK/model.wmp"
SERVER_PID=""

cleanup() {
  if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== generate + train the first artifact"
"$BUILD/wmpctl" generate --benchmark=tpcc --queries=600 --out="$LOG"
"$BUILD/wmpctl" train --log="$LOG" --model="$MODEL" --templates=12 --batch=10

SOCK="$WORK/wire.sock"
SERVER_LOG="$WORK/server.log"

echo "== start wmpctl serve on unix:$SOCK"
"$BUILD/wmpctl" serve --listen="unix:$SOCK" --model="$MODEL" \
  --name=smoke --warm-log="$LOG" >"$SERVER_LOG" 2>&1 &
SERVER_PID=$!
for _ in $(seq 100); do
  [[ -S "$SOCK" ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$SERVER_LOG"; exit 1; }
  sleep 0.1
done
[[ -S "$SOCK" ]] || { echo "server socket never appeared"; cat "$SERVER_LOG"; exit 1; }

echo "== score the log over the wire in chunks"
"$BUILD/wmpctl" score --log="$LOG" --connect="unix:$SOCK" --chunk=150 \
  --batch=10

echo "== retrain (different seed) and publish over the wire"
"$BUILD/wmpctl" train --log="$LOG" --model="$MODEL" --templates=12 \
  --batch=10 --seed=7 --publish --connect="unix:$SOCK" --name=smoke

echo "== roll the publish back"
"$BUILD/wmpctl" rollback --connect="unix:$SOCK" --name=smoke

echo "== score again after rollback"
"$BUILD/wmpctl" score --log="$LOG" --connect="unix:$SOCK" --chunk=150 \
  --batch=10

echo "== clean shutdown"
kill -INT "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=""
cat "$SERVER_LOG"
echo "wire smoke OK"
