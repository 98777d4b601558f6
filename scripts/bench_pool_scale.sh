#!/usr/bin/env bash
# Pool-tree scale benchmark: ref_bomb preloads a large pooled
# population into ref_serve --pooled, then measures an UPDATE/TICK/
# QUERY mix (no measured churn) so the TICK percentiles isolate
# epoch cost against a big stable tree. Two populations — SMALL and
# BIG (default 10k and 100k agents) — produce one artifact:
#
#   BENCH_pool_scale.json   [pool_scale_P<SMALL>, pool_scale_P<BIG>]
#
# Records carry the pooled extensions (agents, pools, tick_p50_ns,
# tick_p99_ns). The headline property is that tick_p99_ns grows
# sublinearly in the population: a pooled TICK re-aggregates only
# changed root-to-leaf paths, so 10x the agents must cost well under
# 10x the TICK tail. The script prints the measured ratio and fails
# if the BIG population's TICK p99 scales at or above linear.
set -u

usage="usage: bench_pool_scale.sh <ref_serve> <ref_bomb> <workdir> \
[small] [big] [pools] [ops_per_conn] [out_dir]"
REF_SERVE=${1:?$usage}
REF_BOMB=${2:?$usage}
WORKDIR=${3:?$usage}
SMALL=${4:-10000}
BIG=${5:-100000}
POOLS=${6:-64}
OPS=${7:-2000}
OUT_DIR=${8:-$WORKDIR}
CONNECTIONS=2

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
    "$REF_SERVE" --capacity 24,12 --pooled --listen 127.0.0.1:0 \
        --max-clients 16 \
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

# Measured mix: UPDATE : TICK : QUERY = 4:2:4, no ADMIT/DEPART — the
# preloaded population is the fixture, churn would blur what a TICK
# costs at that size. Zipf pool skew: a realistic tree has hot pools,
# and skew maximises the deepest per-TICK re-aggregation paths.
MIX=0:4:0:2:4

one_run() {
    # $1: population, fresh server per size.
    local population=$1
    local preload=$((population / CONNECTIONS))
    start_server "server_P$population.err"
    "$REF_BOMB" --connect "127.0.0.1:$PORT" \
        --name "pool_scale_P$population" \
        --connections "$CONNECTIONS" --ops "$OPS" --seed 42 \
        --mode closed --window 8 --mix "$MIX" \
        --pools "$POOLS" --pool-skew zipf --preload "$preload" \
        > "$WORKDIR/pool_scale_P$population.json" \
        2>> "$WORKDIR/bomb.err" ||
        fail "ref_bomb run P=$population failed"
    stop_server
}

one_run "$SMALL"
one_run "$BIG"

python3 - "$OUT_DIR/BENCH_pool_scale.json" \
    "$WORKDIR/pool_scale_P$SMALL.json" \
    "$WORKDIR/pool_scale_P$BIG.json" <<'EOF' ||
import json, sys
records = [json.loads(open(path).read()) for path in sys.argv[2:]]
small, big = records
ratio_pop = big["agents"] / small["agents"]
ratio_p99 = big["tick_p99_ns"] / max(1, small["tick_p99_ns"])
print(f"pool scale: {small['agents']} -> {big['agents']} agents "
      f"({ratio_pop:.1f}x), TICK p99 {small['tick_p99_ns']} -> "
      f"{big['tick_p99_ns']} ns ({ratio_p99:.2f}x)")
if ratio_p99 >= ratio_pop:
    sys.exit(f"TICK p99 scaled at/above linear ({ratio_p99:.2f}x "
             f"for {ratio_pop:.1f}x agents)")
with open(sys.argv[1], "w") as out:
    out.write(json.dumps(records, indent=2) + "\n")
EOF
    fail "TICK latency did not scale sublinearly"

SCRIPTS_DIR=$(cd "$(dirname "$0")" && pwd)
python3 "$SCRIPTS_DIR/export_bench_timings.py" --check \
    "$OUT_DIR/BENCH_pool_scale.json" ||
    fail "generated BENCH file does not conform to the schema"

echo "ok: $OUT_DIR/BENCH_pool_scale.json" \
    "(populations $SMALL and $BIG, $POOLS pools, $OPS ops/conn)"
