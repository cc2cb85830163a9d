#!/usr/bin/env bash
# deploy_smoke.sh <recraftd> <recraft-cli> [workdir]
#
# The real-process smoke test: boot a 3-node recraftd cluster on loopback,
# drive >=10k linearizable kv ops through it from closed-loop load clients,
# kill -9 the leader twice mid-load (the second one after it has rejoined
# from its WAL), and verify the full write history against a live read of
# every touched key via harness::KvHistoryChecker's replay.
#
# Exit 0 only if: every write was acked exactly-once (no CAS conflicts in
# the single-writer-per-key workload), the killed leader recovers from its
# data dir, and the final state matches the replayed history. Per-node logs
# land in the workdir and are dumped on failure (CI uploads them as
# artifacts).
set -u

RECRAFTD=${1:?usage: deploy_smoke.sh <recraftd> <recraft-cli> [workdir]}
CLI=${2:?usage: deploy_smoke.sh <recraftd> <recraft-cli> [workdir]}
WORK=${3:-$(mktemp -d -t deploy_smoke.XXXXXX)}

CLIENTS=4
OPS_PER_CLIENT=2500   # 4 x 2500 = 10k ops through the cluster

mkdir -p "$WORK"
BASE_PORT=$((17000 + RANDOM % 2000))
HOSTS="$WORK/hosts.txt"
: > "$HOSTS"
for i in 1 2 3; do
  echo "$i 127.0.0.1:$((BASE_PORT + i))" >> "$HOSTS"
  mkdir -p "$WORK/n$i"
done

declare -A DAEMON_PID

start_node() {
  local id=$1; shift
  "$RECRAFTD" --id "$id" --hosts "$HOSTS" --data "$WORK/n$id" "$@" \
    >> "$WORK/n$id.log" 2>&1 &
  DAEMON_PID[$id]=$!
  disown "$!"  # keep bash from reporting the cleanup kill -9
}

fail() {
  echo "deploy_smoke: FAIL: $*" >&2
  for i in 1 2 3; do
    echo "---- n$i.log (tail) ----" >&2
    tail -n 40 "$WORK/n$i.log" >&2 || true
  done
  echo "deploy_smoke: logs kept in $WORK" >&2
  cleanup_daemons
  exit 1
}

cleanup_daemons() {
  for pid in "${DAEMON_PID[@]}"; do
    kill -9 "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
}
trap cleanup_daemons EXIT

leader() {
  "$CLI" --hosts "$HOSTS" leader 2>/dev/null
}

# Host-wide count of UDP datagrams dropped because a socket's receive buffer
# was full (/proc/net/snmp, "Udp: ... RcvbufErrors"); empty if unreadable.
udp_rcvbuf_errors() {
  awk '$1 == "Udp:" {
         if (!col) { for (i = 2; i <= NF; i++) if ($i == "RcvbufErrors") col = i }
         else { print $col; exit }
       }' /proc/net/snmp 2>/dev/null
}
RCVBUF_ERRORS_BEFORE=$(udp_rcvbuf_errors)

echo "deploy_smoke: workdir $WORK, ports $((BASE_PORT + 1))-$((BASE_PORT + 3))"
for i in 1 2 3; do
  start_node "$i" --cluster 1,2,3
done

# Wait for a leader to emerge.
LEADER=
for _ in $(seq 1 50); do
  LEADER=$(leader) && [ -n "$LEADER" ] && break
  sleep 0.2
done
[ -n "$LEADER" ] || fail "no leader elected"
echo "deploy_smoke: leader is n$LEADER"

# Load in the background; writes retry across the leader kills below, so
# the history is exactly the applied write set.
HISTORY="$WORK/history.txt"
"$CLI" --hosts "$HOSTS" load --clients "$CLIENTS" --ops "$OPS_PER_CLIENT" \
  --history "$HISTORY" > "$WORK/load.out" 2>&1 &
LOAD_PID=$!

kill_and_restart_leader() {
  local victim
  victim=$(leader) || victim=$LEADER
  [ -n "$victim" ] || victim=$LEADER
  echo "deploy_smoke: kill -9 leader n$victim mid-load"
  kill -9 "${DAEMON_PID[$victim]}" 2>/dev/null || true
  wait "${DAEMON_PID[$victim]}" 2>/dev/null || true
  sleep 1
  # Restart from the same data dir: no --cluster, boot is WAL recovery.
  RECOVERIES_BEFORE=$(grep -c "recovered from" "$WORK/n$victim.log" || true)
  start_node "$victim"
  LEADER=$victim
  # WAL replay takes a moment; wait for the recovery line before moving on
  # (also proves the rejoin actually happened before the next kill).
  for _ in $(seq 1 100); do
    NOW=$(grep -c "recovered from" "$WORK/n$victim.log" || true)
    [ "$NOW" -gt "$RECOVERIES_BEFORE" ] && return 0
    sleep 0.2
  done
  fail "restarted n$victim did not report WAL recovery"
}

sleep 2
kill_and_restart_leader
sleep 3
kill_and_restart_leader

wait "$LOAD_PID"
LOAD_RC=$?
cat "$WORK/load.out"
RCVBUF_ERRORS_AFTER=$(udp_rcvbuf_errors)
if [ -n "$RCVBUF_ERRORS_BEFORE" ] && [ -n "$RCVBUF_ERRORS_AFTER" ]; then
  echo "deploy_smoke: host Udp RcvbufErrors +$((RCVBUF_ERRORS_AFTER - RCVBUF_ERRORS_BEFORE)) during the load (all sockets on the host)"
else
  echo "deploy_smoke: host Udp RcvbufErrors unavailable"
fi
[ "$LOAD_RC" -eq 0 ] || fail "load exited $LOAD_RC (lost or double-applied writes?)"

# Every node must still be alive (the killed ones via their restarts).
for i in 1 2 3; do
  kill -0 "${DAEMON_PID[$i]}" 2>/dev/null || fail "n$i not running at end of load"
done

"$CLI" --hosts "$HOSTS" check --history "$HISTORY" || \
  fail "history check found divergence"

echo "deploy_smoke: PASS"
cleanup_daemons
trap - EXIT
rm -rf "$WORK"
exit 0
