#!/usr/bin/env bash
# Warm-standby failover soak: a journaled group-commit primary and a
# SYNC-following standby, kill -9 on the primary, PROMOTE, and strict
# bit-identity checks against an uninterrupted reference.
#
# Per iteration:
#   1. Start primary (journal + group commit) and standby (--follow).
#   2. Churn the primary over TCP, then wait until the standby's
#      state_hash equals the primary's (replication is caught up).
#   3. Snapshot the primary's journal dir as the reference, kill -9
#      the primary, PROMOTE the standby, TICK once.
#   4. The promoted standby's post-TICK state_hash must equal a
#      fresh replay of the reference journal + one TICK: the first
#      allocation after failover is bit-identical to what the dead
#      primary would have produced.
#   5. Restart the old primary from its journal as a follower of the
#      promoted standby and require it to catch up (snapshot resync)
#      to hash equality — zero lag — before the iteration passes.
#
# After the loop (only when BENCH_DIR is given):
#   a. Journal append throughput A/B over the socket, every:1 fsync
#      vs group commit, via ref_bomb.
#   b. A mid-churn kill -9 (once the primary has served a set number
#      of commands) with ref_bomb --failover-to riding the
#      outage; its measured gap plus the per-iteration first-TICK
#      times and the primary's ship-lag percentiles land in
#      BENCH_replication.json (export_bench_timings.py schema).
#
# usage: failover_soak.sh <ref_serve> <ref_bomb> <workdir>
#                         [iterations] [bench_out_dir]
set -u

REF_SERVE=${1:?usage: failover_soak.sh <ref_serve> <ref_bomb> <workdir> [iterations] [bench_out_dir]}
REF_BOMB=${2:?usage: failover_soak.sh <ref_serve> <ref_bomb> <workdir> [iterations] [bench_out_dir]}
WORKDIR=${3:?usage: failover_soak.sh <ref_serve> <ref_bomb> <workdir> [iterations] [bench_out_dir]}
ITERATIONS=${4:-20}
BENCH_DIR=${5:-}

rm -rf "$WORKDIR"
mkdir -p "$WORKDIR"
GAPS="$WORKDIR/failover_gaps_ns.txt"
: > "$GAPS"

PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do
        kill -9 "$pid" 2>/dev/null || true
    done
}
trap cleanup EXIT

fail() {
    echo "FAIL (iteration ${i:-bench}): $1" >&2
    for log in primary.err standby.err refollow.err reference.err; do
        if [ -s "$WORKDIR/$log" ]; then
            echo "--- $log ---" >&2
            tail -20 "$WORKDIR/$log" >&2
        fi
    done
    exit 1
}

# Send newline-separated commands to a server and print every reply
# line (half-close after writing; the server drains, then closes).
client() {
    local port=$1
    shift
    python3 - "$port" "$@" <<'PY'
import socket, sys
port, cmds = int(sys.argv[1]), sys.argv[2:]
s = socket.create_connection(("127.0.0.1", port), timeout=10)
s.sendall(("\n".join(cmds) + "\n").encode())
s.shutdown(socket.SHUT_WR)
data = b""
while True:
    chunk = s.recv(65536)
    if not chunk:
        break
    data += chunk
sys.stdout.write(data.decode())
PY
}

# Block until a server's stderr log announces its ephemeral port.
wait_port() {
    local log=$1 port=""
    for _ in $(seq 1 200); do
        # Anchor on the LISTENING line: a follower's FOLLOWING line
        # also carries an addr= (the primary's).
        port=$(sed -n \
            's/.*LISTENING addr=127.0.0.1:\([0-9]*\).*/\1/p' \
            "$log" 2>/dev/null | head -1)
        [ -n "$port" ] && break
        sleep 0.05
    done
    [ -n "$port" ] || return 1
    echo "$port"
}

state_hash() {
    client "$1" STATS 2>/dev/null |
        grep -o 'state_hash=[0-9]*' | cut -d= -f2
}

now_ns() { date +%s%N; }

for ((i = 1; i <= ITERATIONS; ++i)); do
    P_JOURNAL="$WORKDIR/primary_journal"
    rm -rf "$P_JOURNAL" "$WORKDIR/reference_journal"

    "$REF_SERVE" --capacity 24,12 --journal "$P_JOURNAL" \
        --fsync-policy group:65536,2000 --selfcheck \
        --listen 127.0.0.1:0 --heartbeat-interval 50 \
        > /dev/null 2> "$WORKDIR/primary.err" &
    PRIMARY=$!
    PIDS+=("$PRIMARY")
    PPORT=$(wait_port "$WORKDIR/primary.err") ||
        fail "primary never listened"

    "$REF_SERVE" --capacity 24,12 --selfcheck \
        --follow "127.0.0.1:$PPORT" --listen 127.0.0.1:0 \
        > /dev/null 2> "$WORKDIR/standby.err" &
    STANDBY=$!
    PIDS+=("$STANDBY")
    SPORT=$(wait_port "$WORKDIR/standby.err") ||
        fail "standby never listened"

    # Churn: unique names per iteration, a DEPART every third agent,
    # ticks interleaved so shipped TICK hashes exercise the
    # divergence check continuously.
    CHURN=()
    for j in $(seq 1 12); do
        CHURN+=("ADMIT soak_${i}_${j} 0.6 0.4" "TICK")
        [ $((j % 3)) -eq 0 ] && CHURN+=("DEPART soak_${i}_${j}")
    done
    client "$PPORT" "${CHURN[@]}" > "$WORKDIR/churn.out" ||
        fail "churn session failed"
    grep -q 'selfcheck=ok' "$WORKDIR/churn.out" ||
        fail "primary epochs failed the self-check"

    # Quiesce: replication caught up when the hashes agree.
    HP=""
    HS=""
    for _ in $(seq 1 200); do
        HP=$(state_hash "$PPORT")
        HS=$(state_hash "$SPORT")
        [ -n "$HP" ] && [ "$HP" = "$HS" ] && break
        sleep 0.05
    done
    [ -n "$HP" ] && [ "$HP" = "$HS" ] ||
        fail "standby never caught up (primary=$HP standby=$HS)"

    # Freeze the uninterrupted reference, then kill without warning.
    cp -a "$P_JOURNAL" "$WORKDIR/reference_journal"
    kill -9 "$PRIMARY" 2>/dev/null
    wait "$PRIMARY" 2>/dev/null

    T0=$(now_ns)
    PROMOTED=$(client "$SPORT" PROMOTE TICK STATS) ||
        fail "promote session failed"
    T1=$(now_ns)
    echo "$((T1 - T0))" >> "$GAPS"
    echo "$PROMOTED" | grep -q '^OK promoted' ||
        fail "PROMOTE not acknowledged: $(echo "$PROMOTED" | head -1)"
    echo "$PROMOTED" | grep -q 'selfcheck=ok' ||
        fail "first post-promote TICK failed the self-check"
    F=$(echo "$PROMOTED" | grep -o 'state_hash=[0-9]*' | cut -d= -f2)
    [ -n "$F" ] || fail "no state_hash in post-promote STATS"

    # The uninterrupted reference: replay the dead primary's WAL and
    # take the same single TICK.
    printf 'TICK\nSTATS\n' |
        "$REF_SERVE" --capacity 24,12 \
            --journal "$WORKDIR/reference_journal" \
            --selfcheck --strict \
            > "$WORKDIR/reference.out" 2> "$WORKDIR/reference.err" ||
        fail "reference replay failed strict verification"
    R=$(grep -o 'state_hash=[0-9]*' "$WORKDIR/reference.out" |
        cut -d= -f2)
    [ -n "$R" ] || fail "no state_hash in reference STATS"
    [ "$F" = "$R" ] ||
        fail "post-failover state diverged from reference ($F != $R)"

    # The old primary rejoins as a follower: journal recovery, then
    # SYNC snapshot resync onto the promoted standby's history, down
    # to zero lag (hash equality while the promoted side is idle).
    "$REF_SERVE" --capacity 24,12 --journal "$P_JOURNAL" \
        --follow "127.0.0.1:$SPORT" --listen 127.0.0.1:0 \
        > /dev/null 2> "$WORKDIR/refollow.err" &
    REFOLLOW=$!
    PIDS+=("$REFOLLOW")
    RPORT=$(wait_port "$WORKDIR/refollow.err") ||
        fail "re-followed old primary never listened"
    HNEW=$(state_hash "$SPORT")
    HOLD=""
    for _ in $(seq 1 200); do
        HOLD=$(state_hash "$RPORT")
        [ -n "$HOLD" ] && [ "$HOLD" = "$HNEW" ] && break
        sleep 0.05
    done
    [ "$HOLD" = "$HNEW" ] ||
        fail "old primary never caught up ($HOLD != $HNEW)"
    grep -q 'recovery: outcome=' "$WORKDIR/refollow.err" ||
        fail "old primary restarted without journal recovery"

    client "$SPORT" SHUTDOWN > /dev/null 2>&1
    kill -9 "$REFOLLOW" 2>/dev/null
    wait "$STANDBY" 2>/dev/null
    wait "$REFOLLOW" 2>/dev/null
    echo "iteration $i/$ITERATIONS: failover ok," \
        "first TICK bit-identical, old primary resynced"
done

echo "ok: $ITERATIONS kill -9 + PROMOTE cycles, every first TICK" \
    "bit-identical to the uninterrupted reference"

[ -n "$BENCH_DIR" ] || exit 0
mkdir -p "$BENCH_DIR"

# --- Bench phase a: journal append throughput, every:1 vs group ----
bench_run() {
    local dir=$1 name=$2
    shift 2
    rm -rf "$dir"
    "$REF_SERVE" --capacity 24,12 --journal "$dir" "$@" \
        --listen 127.0.0.1:0 > /dev/null 2> "$WORKDIR/bench.err" &
    local pid=$!
    PIDS+=("$pid")
    local port
    port=$(wait_port "$WORKDIR/bench.err") ||
        fail "bench server never listened"
    "$REF_BOMB" --connect "127.0.0.1:$port" --connections 2 \
        --ops 2000 --mix 1:1:1:0:0 --name "$name" \
        2> /dev/null
    client "$port" SHUTDOWN > /dev/null 2>&1
    wait "$pid" 2>/dev/null
}

bench_run "$WORKDIR/bench_every1" repl_journal_every1 \
    --fsync-policy every:1 > "$WORKDIR/bench_every1.json"
bench_run "$WORKDIR/bench_group" repl_journal_group \
    --fsync-policy group:1048576,5000 > "$WORKDIR/bench_group.json"

# --- Bench phase b: mid-churn kill -9 with ref_bomb failover -------
rm -rf "$WORKDIR/bomb_journal"
"$REF_SERVE" --capacity 24,12 --journal "$WORKDIR/bomb_journal" \
    --fsync-policy group:65536,2000 --listen 127.0.0.1:0 \
    --heartbeat-interval 50 > /dev/null 2> "$WORKDIR/primary.err" &
PRIMARY=$!
PIDS+=("$PRIMARY")
PPORT=$(wait_port "$WORKDIR/primary.err") ||
    fail "bench primary never listened"
"$REF_SERVE" --capacity 24,12 --follow "127.0.0.1:$PPORT" \
    --listen 127.0.0.1:0 > /dev/null 2> "$WORKDIR/standby.err" &
STANDBY=$!
PIDS+=("$STANDBY")
SPORT=$(wait_port "$WORKDIR/standby.err") ||
    fail "bench standby never listened"

# The primary dies once it has served KILL_AFTER commands, not after
# a fixed sleep: on a fast host a sleep can outlast the whole run,
# leaving no connection to fail over. With 2 x BOMB_OPS ops in all,
# each connection is at most a few percent into its run at the kill.
BOMB_OPS=20000
KILL_AFTER=1000
"$REF_BOMB" --connect "127.0.0.1:$PPORT" \
    --failover-to "127.0.0.1:$SPORT" --connections 2 \
    --ops "$BOMB_OPS" --name repl_midchurn_failover \
    > "$WORKDIR/bomb.json" 2> "$WORKDIR/bomb.err" &
BOMB=$!
SERVED=0
for _ in $(seq 1 500); do
    SERVED=$(client "$PPORT" "METRICS prom" 2>/dev/null | awk '
        /^ref_(admits|updates|departs|queries|epochs)_total / {
            served += $2 }
        END { print served + 0 }')
    [ "$SERVED" -ge "$KILL_AFTER" ] && break
    kill -0 "$BOMB" 2>/dev/null || break
    sleep 0.02
done
kill -0 "$BOMB" 2>/dev/null ||
    fail "ref_bomb finished before the primary was killed"
[ "$SERVED" -ge "$KILL_AFTER" ] ||
    fail "bench primary served $SERVED commands, never $KILL_AFTER"
# Ship-lag percentiles while records are actually flowing.
client "$PPORT" "METRICS prom" > "$WORKDIR/primary_metrics.prom" ||
    fail "primary metrics scrape failed"
kill -9 "$PRIMARY" 2>/dev/null
wait "$PRIMARY" 2>/dev/null
sleep 0.1
client "$SPORT" PROMOTE > /dev/null ||
    fail "bench PROMOTE failed"
wait "$BOMB" || fail "ref_bomb did not survive the failover"
grep -q 'failovers=2' "$WORKDIR/bomb.err" ||
    fail "ref_bomb did not fail over on both connections"
client "$SPORT" SHUTDOWN > /dev/null 2>&1
wait "$STANDBY" 2>/dev/null

# --- Assemble BENCH_replication.json -------------------------------
python3 - "$WORKDIR" "$BENCH_DIR" <<'PY'
import json, pathlib, re, statistics, sys

work, out = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])
records = [
    json.loads(work.joinpath("bench_every1.json").read_text()),
    json.loads(work.joinpath("bench_group.json").read_text()),
]

gaps = sorted(
    int(line)
    for line in work.joinpath("failover_gaps_ns.txt")
    .read_text().split()
    if line
)
def rank(sample, q):
    return sample[max(0, min(len(sample) - 1,
                             int(q * len(sample))))]
bomb_gap = re.search(r"failover_gap_ns=(\d+)",
                     work.joinpath("bomb.err").read_text())
if bomb_gap:
    gaps.append(int(bomb_gap.group(1)))
    gaps.sort()
records.append({
    "name": "repl_failover_first_tick",
    "wall_ns": statistics.mean(gaps),
    "iterations": len(gaps),
    "p50_ns": rank(gaps, 0.50),
    "p90_ns": rank(gaps, 0.90),
    "p99_ns": rank(gaps, 0.99),
})

lag = {}
for line in work.joinpath("primary_metrics.prom").read_text().splitlines():
    match = re.match(r"ref_repl_ship_lag_ns(_p\d+|_count)\s+(\S+)",
                     line)
    if match:
        lag[match.group(1)] = float(match.group(2))
if lag.get("_count", 0) > 0:
    records.append({
        "name": "repl_ship_lag",
        "wall_ns": lag["_p50"],
        "iterations": int(lag["_count"]),
        "p50_ns": lag["_p50"],
        "p90_ns": lag["_p90"],
        "p99_ns": lag["_p99"],
    })

out.joinpath("BENCH_replication.json").write_text(
    json.dumps(records, indent=2) + "\n")
print("wrote", out / "BENCH_replication.json",
      f"({len(records)} records, {len(gaps)} failover samples)")
PY

python3 "$(dirname "$0")/export_bench_timings.py" --check \
    "$BENCH_DIR/BENCH_replication.json" ||
    fail "BENCH_replication.json failed the schema check"
echo "ok: bench trail written to $BENCH_DIR/BENCH_replication.json"
