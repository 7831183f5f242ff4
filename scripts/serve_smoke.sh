#!/usr/bin/env bash
# End-to-end serving smoke cycle: start lmds_serve (both transports), drive
# the line protocol with a mixed-solver demo batch + admin verbs, run the
# protocol-v2 put_graph/solve/warm-hit cycle over HTTP and over the line
# protocol in an isolated namespace — each v2 pass also exercising the
# v2.1 put→patch→solve cycle (--patch derives a handle and requires the
# child solve to be answered incrementally) — save a cache snapshot,
# restart the server from it, and require the replayed batch to answer
# from the warmed cache (--expect-hits exits non-zero on zero hits). Last,
# a short-lived server with --max-line-bytes 4096 must refuse a valid solve
# line padded to 5000 bytes, sent with its newline in one write: the line
# limit is exact wherever the newline sits.
#
# Usage: scripts/serve_smoke.sh BUILD_DIR [WORK_DIR]
#
# Runs against whatever BUILD_DIR was built with — CI invokes it once per
# build flavor (plain, asan-ubsan, tsan), so the whole accept/solve/
# snapshot/drain path executes under each sanitizer. On any exit a server
# it started that still runs is stopped. Without WORK_DIR it works in a
# fresh temporary directory, removed on success and kept (its path
# printed) on failure; a WORK_DIR given is never removed.

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
      echo "serve_smoke: failed; work dir kept at $WORK_DIR" >&2
    fi
  fi
}
trap finish EXIT

cd "$WORK_DIR"
rm -f port.txt http_port.txt

wait_for_file() {
  for _ in $(seq 1 300); do
    [ -s "$1" ] && return 0
    sleep 0.1
  done
  echo "serve_smoke: timed out waiting for $1" >&2
  return 1
}

"$BUILD_DIR/lmds_serve" --port 0 --port-file port.txt \
  --http-port 0 --http-port-file http_port.txt \
  --snapshot cache.lmds --cache-capacity 256 &
SERVER_PID=$!
wait_for_file port.txt
wait_for_file http_port.txt

"$BUILD_DIR/serve_client" --port "$(cat port.txt)" --demo --stats \
  --save cache_explicit.lmds
# Protocol v2 over HTTP: upload handles, solve by handle, repeat — the
# repeat must be all cache hits (warm-hit cycle).
"$BUILD_DIR/serve_client" --port "$(cat http_port.txt)" --http \
  --handles --patch --expect-hits --stats
# Same cycle over the line protocol in an isolated namespace: the first
# pass must be cold again (namespace isolation), the repeat warm.
"$BUILD_DIR/serve_client" --port "$(cat port.txt)" --namespace ci-tenant \
  --handles --patch --expect-hits --shutdown
wait "$SERVER_PID"
test -s cache.lmds
test -s cache_explicit.lmds

# Restart from the snapshot: the replayed demo batch must be warm.
rm port.txt http_port.txt
"$BUILD_DIR/lmds_serve" --port 0 --port-file port.txt \
  --snapshot cache.lmds --cache-capacity 256 &
SERVER_PID=$!
wait_for_file port.txt
"$BUILD_DIR/serve_client" --port "$(cat port.txt)" --demo --expect-hits \
  --stats --shutdown
wait "$SERVER_PID"

# The exact line limit in the real binary: the padded line is refused
# (bad_request, connection dropped), so the send reads ok=false.
rm -f limit_port.txt
"$BUILD_DIR/lmds_serve" --port 0 --port-file limit_port.txt --max-line-bytes 4096 &
SERVER_PID=$!
wait_for_file limit_port.txt
LINE='{"op":"solve","solver":"greedy","graphs":[{"n":3,"edges":[[0,1],[1,2]]}]}'
PADDED="$LINE$(printf '%*s' $((5000 - ${#LINE})) '')"
SENT=$("$BUILD_DIR/serve_client" --port "$(cat limit_port.txt)" --send "$PADDED")
echo "$SENT"
echo "$SENT" | grep -qx 'send -> ok=false'
"$BUILD_DIR/serve_client" --port "$(cat limit_port.txt)" --shutdown
wait "$SERVER_PID"

echo "serve_smoke: OK ($BUILD_DIR)"
