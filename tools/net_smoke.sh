#!/usr/bin/env bash
# End-to-end smoke for the network service: start sched_server, drive a
# remote solve with streamed progress through `instance_tool --connect`,
# fetch a JSON result, scrape /metrics, then SIGTERM the daemon and assert
# a clean graceful drain (exit 0 and the "drained:" summary line).
# A raw-frame phase speaks NDJSON over bash's /dev/tcp — valid, malformed,
# escaped-key and duplicate-key lines — and asserts each line gets exactly
# one response of the expected type and code.
# A further phase covers durability: a journaled server is SIGKILLed with a
# session left open and must come back with that session recovered and the
# recovery counters scrape-able (`instance_tool metrics --recovery`).
#
#   tools/net_smoke.sh [build-dir]    (default: build)
#
# Also runs under the ASan/UBSan build in CI, so the whole wire path —
# server loop, sink bridge, client — gets sanitizer coverage end to end.
set -euo pipefail

BUILD="${1:-build}"
work="$(mktemp -d)"
server_pid=""
cleanup() {
  [[ -n "$server_pid" ]] && kill -9 "$server_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

"$BUILD/instance_tool" gen uniform 60 6 7 "$work/smoke.instance"

"$BUILD/sched_server" --port 0 --threads 2 --max-queue 64 \
  >"$work/server.log" 2>&1 &
server_pid=$!
for _ in $(seq 100); do
  grep -q "listening on" "$work/server.log" 2>/dev/null && break
  sleep 0.1
done
grep -q "listening on" "$work/server.log"
port="$(sed -n 's/^listening on .*:\([0-9]*\)$/\1/p' "$work/server.log")"
echo "server up on port $port"

# Remote solve with streamed progress frames.
"$BUILD/instance_tool" solve "$work/smoke.instance" 0.4 eptas \
  --connect "127.0.0.1:$port" --progress
# Remote solve with a machine-readable result; validate the JSON.
"$BUILD/instance_tool" solve "$work/smoke.instance" 0.4 greedy-bags \
  --connect "127.0.0.1:$port" --json >"$work/result.json"
"$BUILD/instance_tool" jsoncheck "$work/result.json"
# Online session over the wire (protocol v2): open a session, stream two
# deltas through it, and check the per-delta report mentions a repair path
# and a migration count.
printf '{"arrivals":[{"size":0.9,"bag":0}],"departures":[1]}' \
  >"$work/delta1.json"
printf '{"machines_added":1,"resizes":[{"job":2,"size":1.25}]}' \
  >"$work/delta2.json"
"$BUILD/instance_tool" delta "$work/smoke.instance" 0.4 \
  "$work/delta1.json" "$work/delta2.json" \
  --connect "127.0.0.1:$port" >"$work/delta.out"
grep -q "^session " "$work/delta.out"
grep -q "moved .* jobs" "$work/delta.out"
# And as machine-readable JSON.
"$BUILD/instance_tool" delta "$work/smoke.instance" 0.4 \
  "$work/delta1.json" --connect "127.0.0.1:$port" --json \
  >"$work/delta.json"
"$BUILD/instance_tool" jsoncheck "$work/delta.json"

# Prometheus endpoint reflects the solves and the session traffic. Every
# op counts as submitted and finished: 2 solves, 2 session opens and 3
# deltas.
"$BUILD/instance_tool" metrics "127.0.0.1:$port" >"$work/metrics.txt"
grep -q "^bagsched_service_submitted_total 7$" "$work/metrics.txt"
grep -q "^bagsched_service_finished_total 7$" "$work/metrics.txt"
grep -q "^bagsched_service_session_deltas_total 3$" "$work/metrics.txt"
grep -q "^bagsched_server_connections_accepted" "$work/metrics.txt"
grep -q "^bagsched_server_session_opens_total 2$" "$work/metrics.txt"
grep -q "^bagsched_cache_oversized_total 0$" "$work/metrics.txt"

# --- Raw frames: the ingress decoder on valid and hostile lines ----------
# Each line gets exactly one response frame; `raw LINE WANT...` asserts the
# frame contains every WANT substring. The closing ping proves no line
# produced a second frame.
exec 3<>"/dev/tcp/127.0.0.1/$port"
raw() {
  local line="$1" frame
  shift
  printf '%s\n' "$line" >&3
  IFS= read -r -t 10 frame <&3
  if [[ "$frame" == *'"type":"hello"'* ]]; then  # once, before the first
    IFS= read -r -t 10 frame <&3
  fi
  for want in "$@"; do
    if [[ "$frame" != *"$want"* ]]; then
      echo "raw frame: sent $line" >&2
      echo "raw frame: got $frame; missing $want" >&2
      exit 1
    fi
  done
}
job='{"machines":2,"bags":1,"jobs":[{"size":1,"bag":0},{"size":0.5,"bag":0}]}'
raw 'this is not json' '"type":"error"' '"code":"parse_error"'
raw '[1,2]' '"type":"error"' '"code":"bad_request"'
raw '{"type":"ping"}' '"type":"pong"'
raw '{"\u0074ype":"ping"}' '"type":"pong"'
raw '{"type":"submit","type":"ping"}' '"type":"pong"'
raw '{"type":"ping","proto_version":99}' '"code":"unsupported_version"'
raw '{"type":"submit","id":"r1","request":{"instance":'"$job"',"solvers":["greedy-bags"]}}' \
  '"type":"event"' '"event":"finished"' '"id":"r1"' '"status":"optimal"'
raw '{"type":"submit","id":7,"schedule":false,"request":{"instance":'"$job"',"options":{"eps":"x"},"solvers":["greedy-bags"]}}' \
  '"event":"finished"' '"id":"7"'
raw '{"type":"submit","id":"r2","request":{"instance":'"$job"'},"request":7}' \
  '"code":"bad_request"' '"id":"r2"'
raw '{"type":"submit","id":"r3","id":"r4","request":{"instance":{"machines":-1,"bags":1,"jobs":[]}}}' \
  '"code":"bad_request"' '"id":"r4"'
raw '{"type":"submit","id":"r5","request":{"instance":{"machines":2,"bags":1,"jobs":[{"size":1e400,"bag":0}]}}}' \
  '"code":"parse_error"'
raw '{"type":"delta","id":"d1","session":99,"delta":{}}' \
  '"code":"unknown_session"' '"id":"d1"'
raw '{"type":"ping"' '"code":"parse_error"'
raw '{"type":"ping"}' '"type":"pong"'
exec 3<&-
echo "raw frames ok"

# Graceful drain: SIGTERM must exit 0 with the drain summary.
kill -TERM "$server_pid"
wait "$server_pid"
grep -q "^drained:" "$work/server.log"
server_pid=""

# --- Restart-and-resume: sessions survive a SIGKILL via the journal -------
# Open a session, leave it open (no session_close), SIGKILL the server,
# restart it on the same --journal-dir, and assert the session came back.
mkdir "$work/journal"
"$BUILD/sched_server" --port 0 --threads 2 --max-queue 64 \
  --journal-dir "$work/journal" --fsync interval --session-linger 60 \
  >"$work/server2.log" 2>&1 &
server_pid=$!
for _ in $(seq 100); do
  grep -q "listening on" "$work/server2.log" 2>/dev/null && break
  sleep 0.1
done
port="$(sed -n 's/^listening on .*:\([0-9]*\)$/\1/p' "$work/server2.log")"
echo "journaled server up on port $port"

"$BUILD/instance_tool" delta "$work/smoke.instance" 0.4 \
  "$work/delta1.json" "$work/delta2.json" \
  --connect "127.0.0.1:$port" --keep-open >"$work/delta2.out"
grep -q "left open$" "$work/delta2.out"

kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true

"$BUILD/sched_server" --port 0 --threads 2 --max-queue 64 \
  --journal-dir "$work/journal" --fsync interval --session-linger 60 \
  >"$work/server3.log" 2>&1 &
server_pid=$!
for _ in $(seq 100); do
  grep -q "^recovered " "$work/server3.log" 2>/dev/null && break
  sleep 0.1
done
grep -q "^recovered 1 session(s) from" "$work/server3.log"
port="$(sed -n 's/^listening on .*:\([0-9]*\)$/\1/p' "$work/server3.log")"

# The recovery counter families are live and scrape-able via --recovery.
"$BUILD/instance_tool" metrics "127.0.0.1:$port" --recovery \
  >"$work/recovery.txt"
grep -q "^bagsched_journal_records_replayed_total [1-9]" "$work/recovery.txt"
grep -q "^bagsched_server_sessions_orphaned_total 1$" "$work/recovery.txt"
! grep -q "^#" "$work/recovery.txt"  # --recovery strips comment lines

kill -TERM "$server_pid"
wait "$server_pid"
grep -q "^drained:" "$work/server3.log"
server_pid=""
echo "net smoke OK"
