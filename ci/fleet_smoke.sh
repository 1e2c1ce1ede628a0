#!/usr/bin/env bash
# Fleet smoke: the router's failure model through the real binaries.
# Starts THREE `wmpctl serve` predictor nodes, streams a query
# log through `wmpctl fleet score` while one node is kill -9'd mid-stream
# (the score step exits nonzero on ANY failed workload, so "zero failed
# scores across a node death" is asserted by the exit code), proves that a
# coordinated publish with a dead node FAILS CLOSED (survivors stay on the
# prior epoch, nothing staged), then revives the node, publishes
# fleet-wide, rolls back fleet-wide, and re-scores. Any nonzero step (or
# an expected-to-fail step succeeding) fails the script.
set -euo pipefail

BUILD=${1:-build}
WORK=$(mktemp -d /tmp/wmp-fleet-smoke.XXXXXX)
LOG="$WORK/log.txt"
MODEL="$WORK/model.wmp"
MODEL2="$WORK/model2.wmp"
declare -a NODE_PIDS=()

cleanup() {
  for pid in "${NODE_PIDS[@]:-}"; do
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
      kill "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

SOCK1="$WORK/node1.sock"
SOCK2="$WORK/node2.sock"
SOCK3="$WORK/node3.sock"
NODES="unix:$SOCK1,unix:$SOCK2,unix:$SOCK3"

# start_node <index> -> NODE_PIDS[index]
start_node() {
  local i="$1"
  local sock_var="SOCK$((i + 1))"
  local sock="${!sock_var}"
  "$BUILD/wmpctl" serve --listen="unix:$sock" --model="$MODEL" \
    --name=default >"$WORK/node$((i + 1)).log" 2>&1 &
  NODE_PIDS[i]=$!
  for _ in $(seq 100); do
    [[ -S "$sock" ]] && return 0
    kill -0 "${NODE_PIDS[i]}" 2>/dev/null || {
      cat "$WORK/node$((i + 1)).log"; exit 1;
    }
    sleep 0.1
  done
  echo "node $((i + 1)) socket never appeared"
  cat "$WORK/node$((i + 1)).log"
  exit 1
}

echo "== generate + train two artifacts (the fleet rollout payloads)"
"$BUILD/wmpctl" generate --benchmark=tpcc --queries=4000 --out="$LOG"
"$BUILD/wmpctl" train --log="$LOG" --model="$MODEL" --templates=12 --batch=10
"$BUILD/wmpctl" train --log="$LOG" --model="$MODEL2" --templates=12 \
  --batch=10 --seed=7

echo "== start a 3-node predictor fleet"
for i in 0 1 2; do start_node "$i"; done

echo "== fleet status: every node healthy on one consistent epoch"
"$BUILD/wmpctl" fleet status --nodes="$NODES"

echo "== score under fire: kill -9 node 2 mid-stream, expect ZERO failures"
# Twenty passes under twenty tenants: tenants hash across all three nodes,
# so when the kill lands mid-loop some passes are actively scoring against
# the dying node and must fail over. Any pass with a failed workload exits
# nonzero and fails the smoke.
(
  for t in $(seq 0 19); do
    echo "-- score pass tenant-$t" >>"$WORK/score1.log"
    "$BUILD/wmpctl" fleet score --nodes="$NODES" --log="$LOG" --chunk=200 \
      --batch=10 --tenant="tenant-$t" >>"$WORK/score1.log" 2>&1 || exit 1
  done
) &
SCORE_PID=$!
sleep 0.7
kill -9 "${NODE_PIDS[1]}" 2>/dev/null || true
wait "${NODE_PIDS[1]}" 2>/dev/null || true
if ! wait "$SCORE_PID"; then
  echo "FAIL: scoring reported failures across the node death"
  cat "$WORK/score1.log"
  exit 1
fi
tail -6 "$WORK/score1.log"
echo "   (passes that failed over: $(grep -c 'retries/failovers' \
  "$WORK/score1.log" || true) scored, kill survived)"

echo "== publish with a dead node must FAIL CLOSED"
if "$BUILD/wmpctl" fleet publish --nodes="$NODES" --model="$MODEL2" \
    >"$WORK/pub-dead.log" 2>&1; then
  echo "FAIL: publish claimed success with a dead node"
  cat "$WORK/pub-dead.log"
  exit 1
fi
cat "$WORK/pub-dead.log"

echo "== survivors must still be on the prior epoch, consistent"
"$BUILD/wmpctl" fleet status --nodes="unix:$SOCK1,unix:$SOCK3" \
  | tee "$WORK/status-after-fail.log"
grep -q "epochs consistent" "$WORK/status-after-fail.log"
if ! grep -q "epoch=1" "$WORK/status-after-fail.log"; then
  echo "FAIL: a survivor moved off the prior epoch after a failed rollout"
  exit 1
fi

echo "== revive node 2; the fleet-wide publish now succeeds"
start_node 1
"$BUILD/wmpctl" fleet publish --nodes="$NODES" --model="$MODEL2" \
  | tee "$WORK/pub-ok.log"
grep -q "every node on epoch 2" "$WORK/pub-ok.log"

echo "== fleet-wide rollback returns every node to epoch 1"
"$BUILD/wmpctl" fleet rollback --nodes="$NODES" | tee "$WORK/rb.log"
grep -q "every node on epoch 1" "$WORK/rb.log"

echo "== full-fleet re-score after the rollout churn: still zero failures"
"$BUILD/wmpctl" fleet score --nodes="$NODES" --log="$LOG" --chunk=400 \
  --batch=10

echo "== clean shutdown"
for pid in "${NODE_PIDS[@]}"; do
  kill -INT "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
done
NODE_PIDS=()
echo "fleet smoke OK"
