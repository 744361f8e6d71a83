#!/usr/bin/env bash
# Smoke test for `tsens serve`: start the server over a generated snapshot,
# replay the update stream through the HTTP update log, and compare the
# served count/LS against the incremental CLI's -verify'd answer (which
# itself cross-checks a from-scratch solve). Also exercises registration,
# a budget-accounted DP release, the malformed-stream diagnostics, and the
# durability restart round-trip: SIGTERM the server, restart it from its
# WAL directory, and verify the epoch, the answers, and the remaining ε
# budget all come back unchanged.
#
# Requires: go, curl, jq. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/lib/poll.sh

QUERY='R1(A,B), R2(B,C), R3(C,D), R4(D,E)'
N=200
PORT="${PORT:-8191}"
BASE="http://127.0.0.1:$PORT"

workdir=$(mktemp -d)
server_pid=""
cleanup() {
  if [ -n "$server_pid" ]; then
    kill "$server_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null || true # let the final checkpoint land before rm
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/tsens" ./cmd/tsens
go build -o "$workdir/datagen" ./cmd/datagen

"$workdir/datagen" -kind facebook -nodes 60 -edges 400 -circles 80 \
  -out "$workdir/data" -updates "$N" -update-del-frac 0.4

echo "--- ground truth (incremental CLI, -verify cross-checks from-scratch)"
truth=$("$workdir/tsens" updates -data "$workdir/data" -query "$QUERY" -batch "$N" -verify)
echo "$truth"
want_count=$(echo "$truth" | awk '/^after/ {c=$6} END {print c}')
want_ls=$(echo "$truth" | awk '/^after/ {l=$9} END {print l}')

echo "--- malformed stream must fail with file:line diagnostics"
printf '+,R1,1,2\nbogus\n' > "$workdir/bad.stream"
if "$workdir/tsens" updates -data "$workdir/data" -query "$QUERY" \
    -stream "$workdir/bad.stream" >/dev/null 2>"$workdir/err.txt"; then
  echo "FAIL: malformed stream accepted"; exit 1
fi
grep -q "bad.stream:2" "$workdir/err.txt" || { echo "FAIL: no file:line in:"; cat "$workdir/err.txt"; exit 1; }
cat "$workdir/err.txt"

start_server() {
  # -shards 2 so the watermark assertions below see a real multi-shard
  # frontier, not the degenerate single-entry array.
  "$workdir/tsens" serve -data "$workdir/data" -addr "127.0.0.1:$PORT" \
    -query "$QUERY" -id smoke -shards 2 -wal "$workdir/wal" &
  server_pid=$!
  poll_until 15 "server /healthz" curl -fsS "$BASE/healthz"
}

echo "--- starting server (durable: -wal)"
start_server

echo "--- registering a second (cyclic) query with a release budget"
curl -fsS -X POST "$BASE/queries" -d '{
  "id": "tri",
  "query": "R1(A,B), R2(B,C), R3(C,A)",
  "private": "R2",
  "release": {"epsilon": 1, "bound": 50},
  "budget": 2
}' | jq -c .

echo "--- posting the update stream through the log (wait=epoch: read-your-writes)"
curl -fsS -X POST "$BASE/updates?wait=epoch" -H 'Content-Type: text/csv' \
  --data-binary @"$workdir/data/updates.stream" | jq -c .

echo "--- served LS must equal the verified incremental answer"
got=$(curl -fsS "$BASE/queries/smoke/ls")
echo "$got" | jq -c .
got_count=$(echo "$got" | jq -r .count)
got_ls=$(echo "$got" | jq -r .ls)
if [ "$got_count" != "$want_count" ] || [ "$got_ls" != "$want_ls" ]; then
  echo "FAIL: served (count=$got_count, ls=$got_ls), scratch (count=$want_count, ls=$want_ls)"
  exit 1
fi

echo "--- DP release: fresh then free replay, budget visible"
rel1=$(curl -fsS -X POST "$BASE/queries/tri/release")
echo "$rel1" | jq -c .
[ "$(echo "$rel1" | jq -r .fresh)" = "true" ] || { echo "FAIL: first release not fresh"; exit 1; }
rel2=$(curl -fsS -X POST "$BASE/queries/tri/release")
echo "$rel2" | jq -c .
[ "$(echo "$rel2" | jq -r .fresh)" = "false" ] || { echo "FAIL: second release spent budget without drift"; exit 1; }

echo "--- epoch bookkeeping (joined cut + per-shard watermarks)"
curl -fsS "$BASE/epoch" | jq -c .
pending=$(curl -fsS "$BASE/epoch" | jq -r .pending)
[ "$pending" = "0" ] || { echo "FAIL: $pending pending updates after wait=epoch"; exit 1; }
joined=$(curl -fsS "$BASE/epoch" | jq -r .joined)
epoch=$(curl -fsS "$BASE/epoch" | jq -r .epoch)
[ "$joined" = "$epoch" ] || { echo "FAIL: joined cut $joined != epoch $epoch at rest"; exit 1; }
# The per-shard watermarks are the authoritative frontier — one entry per
# shard, and at rest every one of them sits at the epoch.
epoch_doc=$(curl -fsS "$BASE/epoch")
shards=$(echo "$epoch_doc" | jq -r .shards)
wm_len=$(echo "$epoch_doc" | jq -r '.watermarks | length')
[ "$wm_len" = "$shards" ] || { echo "FAIL: /epoch watermarks has $wm_len entries for $shards shards"; exit 1; }
wm_bad=$(echo "$epoch_doc" | jq -r --argjson e "$epoch" '[.watermarks[] | select(. != $e)] | length')
[ "$wm_bad" = "0" ] || { echo "FAIL: $wm_bad shard watermarks differ from epoch $epoch at rest: $(echo "$epoch_doc" | jq -c .watermarks)"; exit 1; }
[ "$(echo "$epoch_doc" | jq -r .wal)" = "true" ] || { echo "FAIL: /epoch does not report wal"; exit 1; }

echo "--- /metrics scrape: core series present and non-zero after traffic"
metrics=$(curl -fsS "$BASE/metrics")
ctype=$(curl -fsSI "$BASE/metrics" | tr -d '\r' | awk -F': ' 'tolower($1)=="content-type" {print $2}')
case "$ctype" in
  "text/plain; version=0.0.4"*) ;;
  *) echo "FAIL: /metrics Content-Type is '$ctype'"; exit 1 ;;
esac
metric_nonzero() { # <sample regex> — assert the series exists with value > 0
  val=$(echo "$metrics" | awk -v pat="^$1 " '$0 ~ pat {print $2; exit}')
  if [ -z "$val" ] || [ "$(echo "$val" | awk '{print ($1 > 0) ? 1 : 0}')" != "1" ]; then
    echo "FAIL: metric $1 missing or zero (got '${val:-absent}')"; exit 1
  fi
  echo "  $1 = $val"
}
metric_nonzero 'tsens_serve_drain_rounds_total'
metric_nonzero 'tsens_serve_drain_round_seconds_count'
metric_nonzero 'tsens_serve_epoch'
metric_nonzero 'tsens_wal_fsyncs_total'
metric_nonzero 'tsens_wal_fsync_seconds_count'
metric_nonzero 'tsens_wal_records_total\{kind="updates"\}'
metric_nonzero 'tsens_serve_acks_total\{kind="updates"\}'
metric_nonzero 'tsens_epsilon_spent\{query="tri"\}'
metric_nonzero 'tsens_session_update_seconds_count'

echo "--- /debug/traces holds a finished update trace with a wal-append stage"
traces=$(curl -fsS "$BASE/debug/traces?name=update")
echo "$traces" | jq -c '{count, slow_threshold_ms}'
has_wal_stage=$(echo "$traces" | jq '[.traces[] | select(any(.stages[]?; .name == "wal-append"))] | length')
if [ "$has_wal_stage" = "0" ]; then
  echo "FAIL: no update trace with a wal-append stage after traffic"
  echo "$traces" | jq .
  exit 1
fi

echo "--- /debug/vars parses as JSON and agrees with /metrics on the epoch"
vars_epoch=$(curl -fsS "$BASE/debug/vars" | jq -r '."tsens_serve_epoch"')
prom_epoch=$(echo "$metrics" | awk '$1 == "tsens_serve_epoch" {print $2}')
[ "$vars_epoch" = "$prom_epoch" ] || { echo "FAIL: /debug/vars epoch $vars_epoch != /metrics $prom_epoch"; exit 1; }

echo "--- restart round-trip: SIGTERM, recover from WAL, state unchanged"
remaining_before=$(echo "$rel2" | jq -r .remaining)
kill -TERM "$server_pid"
wait "$server_pid" || { echo "FAIL: server exited non-zero on SIGTERM"; exit 1; }
server_pid=""
start_server

epoch2=$(curl -fsS "$BASE/epoch" | jq -r .epoch)
[ "$epoch2" = "$epoch" ] || { echo "FAIL: recovered epoch $epoch2 != pre-restart $epoch"; exit 1; }
durable=$(curl -fsS "$BASE/epoch" | jq -r .durable_epoch)
[ "$durable" = "$epoch" ] || { echo "FAIL: durable epoch $durable != $epoch after graceful shutdown"; exit 1; }

got2=$(curl -fsS "$BASE/queries/smoke/ls")
echo "$got2" | jq -c .
got2_count=$(echo "$got2" | jq -r .count)
got2_ls=$(echo "$got2" | jq -r .ls)
if [ "$got2_count" != "$want_count" ] || [ "$got2_ls" != "$want_ls" ]; then
  echo "FAIL: recovered (count=$got2_count, ls=$got2_ls), want (count=$want_count, ls=$want_ls)"
  exit 1
fi

rel3=$(curl -fsS -X POST "$BASE/queries/tri/release")
echo "$rel3" | jq -c .
[ "$(echo "$rel3" | jq -r .fresh)" = "false" ] || { echo "FAIL: post-restart release re-spent budget (amnesia)"; exit 1; }
[ "$(echo "$rel3" | jq -r .noisy)" = "$(echo "$rel2" | jq -r .noisy)" ] || { echo "FAIL: replayed noisy value changed across restart"; exit 1; }
remaining_after=$(echo "$rel3" | jq -r .remaining)
[ "$remaining_after" = "$remaining_before" ] || { echo "FAIL: remaining ε $remaining_after != $remaining_before across restart"; exit 1; }

echo "serve smoke OK: count=$got_count ls=$got_ls (restart verified: epoch=$epoch2, remaining ε=$remaining_after)"
