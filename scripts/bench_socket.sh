#!/usr/bin/env bash
# Socket transport benchmark: ref_bomb drives one ref_serve event
# loop over text lines on loopback, closed and open loop, producing
# two BENCH artifacts in out_dir:
#
#   BENCH_socket_throughput.json  closed-loop runs (max throughput)
#   BENCH_socket_latency.json     open-loop runs at a fixed rate
#                                 (coordinated-omission-free tails)
#
# Both are arrays of BENCH-schema records (name, wall_ns, iterations,
# ops_per_sec, p50/p90/p99_ns) so export_bench_timings.py --check
# validates them and check_bench_regression.py can gate on them.
set -u

usage="usage: bench_socket.sh <ref_serve> <ref_bomb> <workdir> \
[connections] [ops_per_conn] [out_dir]"
REF_SERVE=${1:?$usage}
REF_BOMB=${2:?$usage}
WORKDIR=${3:?$usage}
CONNECTIONS=${4:-8}
OPS=${5:-4000}
OUT_DIR=${6:-$WORKDIR}

rm -rf "$WORKDIR"
mkdir -p "$WORKDIR" "$OUT_DIR"
SRV=

fail() {
    echo "FAIL: $1" >&2
    tail -20 "$WORKDIR"/server*.err >&2 2>/dev/null || true
    [ -n "$SRV" ] && kill -9 "$SRV" 2>/dev/null
    exit 1
}

start_server() {
    # $1: stderr log name.
    "$REF_SERVE" --capacity 24,12 --listen 127.0.0.1:0 \
        --max-clients 64 \
        > "$WORKDIR/server.out" 2> "$WORKDIR/$1" &
    SRV=$!
    PORT=
    for _ in $(seq 1 100); do
        PORT=$(sed -n \
            's/^LISTENING .*addr=[^ ]*:\([0-9][0-9]*\).*$/\1/p' \
            "$WORKDIR/$1" 2>/dev/null)
        [ -n "$PORT" ] && break
        kill -0 "$SRV" 2>/dev/null || fail "server died on startup"
        sleep 0.05
    done
    [ -n "$PORT" ] || fail "no LISTENING line in $1"
}

stop_server() {
    exec 3<>"/dev/tcp/127.0.0.1/$PORT" || fail "control connect failed"
    printf 'SHUTDOWN\n' >&3
    cat <&3 >/dev/null
    exec 3<&- 3>&-
    wait "$SRV" || fail "server exited non-zero after SHUTDOWN"
    SRV=
}

bomb() {
    # $1: record name, $2: output file, then extra ref_bomb flags.
    local name=$1 out=$2
    shift 2
    "$REF_BOMB" --connect "127.0.0.1:$PORT" --name "$name" \
        --connections "$CONNECTIONS" --ops "$OPS" --seed 42 "$@" \
        > "$out" 2>> "$WORKDIR/bomb.err" ||
        fail "ref_bomb run '$name' failed"
}

# Open-loop rate: modest enough to be sustainable even on a small
# single-core runner, so the percentiles measure queueing behaviour
# rather than saturation collapse.
RATE=$((CONNECTIONS * 150))

# Transport-focused mix: mostly UPDATE/QUERY round-trips with a
# trickle of epochs, so the numbers measure parsing + event-loop cost
# rather than solver time (which grows with accumulated agents and
# would swamp the transport signal).
MIX=3:4:1:1:7

one_run() {
    # Each measurement gets a fresh server: accumulated agents make
    # later epochs costlier, which would bias whichever run comes
    # last.
    local name=$1 out=$2
    shift 2
    start_server "server_$name.err"
    bomb "$name" "$out" --mix "$MIX" "$@"
    stop_server
}

one_run socket_text "$WORKDIR/tput_text.json" --mode closed --window 8
one_run socket_latency_text "$WORKDIR/lat_text.json" \
    --mode open --rate "$RATE"

join_records() {
    # Join one-record JSON files into a pretty-printed array.
    python3 - "$@" <<'EOF'
import json, sys
records = [json.loads(open(path).read()) for path in sys.argv[2:]]
with open(sys.argv[1], "w") as out:
    out.write(json.dumps(records, indent=2) + "\n")
EOF
}

join_records "$OUT_DIR/BENCH_socket_throughput.json" \
    "$WORKDIR/tput_text.json" ||
    fail "could not assemble throughput records"
join_records "$OUT_DIR/BENCH_socket_latency.json" \
    "$WORKDIR/lat_text.json" ||
    fail "could not assemble latency records"

SCRIPTS_DIR=$(cd "$(dirname "$0")" && pwd)
python3 "$SCRIPTS_DIR/export_bench_timings.py" --check \
    "$OUT_DIR/BENCH_socket_throughput.json" \
    "$OUT_DIR/BENCH_socket_latency.json" ||
    fail "generated BENCH files do not conform to the schema"

echo "ok: $OUT_DIR/BENCH_socket_throughput.json and" \
    "$OUT_DIR/BENCH_socket_latency.json" \
    "($CONNECTIONS connections, $OPS ops/conn)"
