#!/usr/bin/env bash
# Transcript determinism for the strategic fleet: the same seed must
# produce byte-identical ref_adversary stdout from two fleets run
# back to back on one server. That is the contract that makes the
# committed strategy-proofness bench reproducible: elasticities are a
# pure function of (seed, index), QUERY reads the published epoch
# snapshot, and the mechanism's allocation is order-independent, so
# nothing about connection interleaving or what earlier fleets left
# behind on the server may leak into the measurement.
set -u

REF_SERVE=${1:?usage: adversary_determinism.sh <ref_serve> <ref_adversary> <workdir> [sweep] [seed]}
REF_ADVERSARY=${2:?usage: adversary_determinism.sh <ref_serve> <ref_adversary> <workdir> [sweep] [seed]}
WORKDIR=${3:?usage: adversary_determinism.sh <ref_serve> <ref_adversary> <workdir> [sweep] [seed]}
SWEEP=${4:-2,4,8,16,32}
SEED=${5:-42}

rm -rf "$WORKDIR"
mkdir -p "$WORKDIR"
SRV=

fail() {
    echo "FAIL: $1" >&2
    echo "--- server stderr ---" >&2
    tail -20 "$WORKDIR"/server*.err >&2 2>/dev/null || true
    [ -n "$SRV" ] && kill -9 "$SRV" 2>/dev/null
    exit 1
}

start_server() {
    "$REF_SERVE" --capacity 24,12 --selfcheck --strict \
        --listen 127.0.0.1:0 \
        > "$WORKDIR/server.out" 2> "$WORKDIR/server.err" &
    SRV=$!
    PORT=
    for _ in $(seq 1 100); do
        PORT=$(sed -n \
            's/^LISTENING .*addr=[^ ]*:\([0-9][0-9]*\).*$/\1/p' \
            "$WORKDIR/server.err" 2>/dev/null)
        [ -n "$PORT" ] && break
        kill -0 "$SRV" 2>/dev/null || fail "server died on startup"
        sleep 0.05
    done
    [ -n "$PORT" ] || fail "no LISTENING line in server.err"
}

stop_server() {
    kill "$SRV" 2>/dev/null
    wait "$SRV" 2>/dev/null
    SRV=
}

run_fleet() {
    # $1: output name, $2...: extra ref_adversary flags.
    local out=$1
    shift
    "$REF_ADVERSARY" --connect "127.0.0.1:$PORT" \
        --sweep "$SWEEP" --liars 1 --seed "$SEED" "$@" \
        > "$WORKDIR/$out" 2>> "$WORKDIR/adversary.err" ||
        fail "ref_adversary failed for $out"
}

# Both fleets share one server (the fleet departs its agents, so
# runs are independent).
start_server
run_fleet first.json
run_fleet second.json
stop_server

cmp -s "$WORKDIR/first.json" "$WORKDIR/second.json" ||
    fail "second.json differs from first.json"

RECORDS=$(wc -l < "$WORKDIR/first.json")
EXPECTED=$(echo "$SWEEP" | tr ',' '\n' | wc -l)
[ "$RECORDS" -eq "$EXPECTED" ] ||
    fail "expected $EXPECTED records, got $RECORDS"

echo "ok: $RECORDS records byte-identical across" \
    "two fleets on one server (sweep $SWEEP, seed $SEED)"
