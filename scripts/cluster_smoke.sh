#!/usr/bin/env bash
# End-to-end cluster smoke cycle: start 2 workers + 1 router (lmds_serve
# --router, both transports), run the serve_client handle/patch/warm-hit
# cycle THROUGH the router over the line protocol and over HTTP — the router
# fans the mixed batches out across the workers and must reassemble them
# exactly as a single server would, so --expect-hits works unchanged — then
# warm worker 1 directly with the demo batch, push-replicate worker 1 ->
# worker 2 (replicate_out with "peer"), and require the replayed demo batch
# on worker 2 to answer from the replicated cache (--expect-hits on the
# FIRST pass: worker 2 never solved those graphs itself). The router runs
# with --max-batch-graphs 6 (the serve_client flows send at most 6 graphs
# per batch) and must refuse a 7-graph batch itself, as a single server
# would, although each worker would accept its share.
#
# Usage: scripts/cluster_smoke.sh BUILD_DIR [WORK_DIR]
#
# Runs against whatever BUILD_DIR was built with, like serve_smoke.sh, and
# like it stops on any exit every server it started that still runs, and
# removes its own temporary WORK_DIR on success only.

set -euo pipefail

BUILD_DIR=$(cd "$1" && pwd)
WORK_DIR=${2:-}
OWN_WORK_DIR=
if [ -z "$WORK_DIR" ]; then
  WORK_DIR=$(mktemp -d)
  OWN_WORK_DIR=1
fi

finish() {
  local status=$?
  local running
  running=$(jobs -p)
  if [ -n "$running" ]; then
    kill $running 2>/dev/null || true
    wait $running 2>/dev/null || true
  fi
  if [ -n "$OWN_WORK_DIR" ]; then
    if [ "$status" -eq 0 ]; then
      cd / && rm -rf "$WORK_DIR"
    else
      echo "cluster_smoke: failed; work dir kept at $WORK_DIR" >&2
    fi
  fi
}
trap finish EXIT

mkdir -p "$WORK_DIR"
cd "$WORK_DIR"
rm -f w1_port.txt w2_port.txt router_port.txt router_http_port.txt

wait_for_file() {
  for _ in $(seq 1 300); do
    [ -s "$1" ] && return 0
    sleep 0.1
  done
  echo "cluster_smoke: timed out waiting for $1" >&2
  return 1
}

# Two workers with pin leases on (a crashed client's pins must expire), then
# the router in front of them.
"$BUILD_DIR/lmds_serve" --port 0 --port-file w1_port.txt \
  --lease-ttl-ms 30000 --no-snapshot-verbs &
W1_PID=$!
"$BUILD_DIR/lmds_serve" --port 0 --port-file w2_port.txt \
  --lease-ttl-ms 30000 --no-snapshot-verbs &
W2_PID=$!
wait_for_file w1_port.txt
wait_for_file w2_port.txt
W1_PORT=$(cat w1_port.txt)
W2_PORT=$(cat w2_port.txt)

"$BUILD_DIR/lmds_serve" --port 0 --port-file router_port.txt \
  --http-port 0 --http-port-file router_http_port.txt \
  --router --peer "127.0.0.1:$W1_PORT" --peer "127.0.0.1:$W2_PORT" \
  --max-batch-graphs 6 --no-snapshot-verbs &
ROUTER_PID=$!
wait_for_file router_port.txt
wait_for_file router_http_port.txt

# The protocol-v2 put_graph/solve/patch/warm-hit cycle through the router,
# over the line protocol and over HTTP: handles land on their ring owners,
# patches are forwarded to the parent's owner, and the repeated batches must
# be all cache hits exactly as against a single server.
"$BUILD_DIR/serve_client" --port "$(cat router_port.txt)" \
  --handles --patch --expect-hits --stats
"$BUILD_DIR/serve_client" --port "$(cat router_http_port.txt)" --http \
  --handles --patch --expect-hits

# The router's own batch limit: 7 inline graphs are one over it, although
# the workers' default limit would accept them.
GRAPHS=$(printf '{"n":%d,"edges":[[0,1]]},' 2 3 4 5 6 7 8)
"$BUILD_DIR/serve_client" --port "$(cat router_port.txt)" \
  --send "{\"op\":\"solve\",\"solver\":\"greedy\",\"graphs\":[${GRAPHS%,}]}" \
  | grep -q "send -> ok=false"

# Replication: warm worker 1's response cache with the demo batch, push the
# store + cache to worker 2, and replay the demo batch against worker 2 —
# which must answer warm on the first pass.
"$BUILD_DIR/serve_client" --port "$W1_PORT" --demo --stats
"$BUILD_DIR/serve_client" --port "$W1_PORT" \
  --send "{\"op\":\"replicate_out\",\"peer\":\"127.0.0.1:$W2_PORT\"}" \
  | grep -q "send -> ok=true"
"$BUILD_DIR/serve_client" --port "$W2_PORT" --demo --expect-hits --stats

# The stats verb through the router reports the router block (peer count and
# per-peer forward counters) on top of the local core's stats.
"$BUILD_DIR/serve_client" --port "$(cat router_port.txt)" \
  --send '{"op":"stats"}' | grep -q "send -> ok=true"

# Clean shutdown: router first (it holds connections into the workers).
"$BUILD_DIR/serve_client" --port "$(cat router_port.txt)" --shutdown
wait "$ROUTER_PID"
"$BUILD_DIR/serve_client" --port "$W1_PORT" --shutdown
"$BUILD_DIR/serve_client" --port "$W2_PORT" --shutdown
wait "$W1_PID" "$W2_PID"

echo "cluster_smoke: OK ($BUILD_DIR)"
