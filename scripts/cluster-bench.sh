#!/usr/bin/env bash
# cluster-bench.sh — repeatable serving-cluster benchmark behind the
# EXPERIMENTS.md "Serving cluster" tables.
#
#   scripts/cluster-bench.sh          # full run (~1 min of measurement)
#   scripts/cluster-bench.sh quick    # CI smoke: short windows, hard asserts
#
# Backends run serve.StubEstimator with a fixed emulated cost of 1.6 ms per
# inference (the GEMM engine's cost for a batch of 8 on one core as
# measured when that engine was introduced; the current engine is faster),
# so the cluster tier is measured without re-measuring the kernel
# underneath. A backend infers at most ~600 frames/s, but one inference
# releases every link waiting on it, so served/s is not bounded by that.
# Phases:
#   A  protocol cost    — HTTP/JSON vs binary wire, one instant backend
#   B  router scaling   — 1 backend direct vs 2 backends behind vvd-router
#   C  overload         — offered load past capacity; sheds, bounded age
set -euo pipefail
cd "$(dirname "$0")/.."

mode=${1:-full}
case "$mode" in
  quick) dur=2s; warm=500ms; lat=1.6ms ;;
  full)  dur=8s; warm=2s;    lat=1.6ms ;;
  *) echo "usage: $0 [quick|full]" >&2; exit 2 ;;
esac

bin=$(mktemp -d)
out=${CLUSTER_BENCH_OUT:-$bin}
mkdir -p "$out"
pids=()
cleanup() {
  [ ${#pids[@]} -gt 0 ] && kill "${pids[@]}" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$bin"
}
trap cleanup EXIT

go build -o "$bin" ./cmd/vvd-serve ./cmd/vvd-router ./cmd/vvd-load

serve() { # serve <wire-port> <http-port> [extra flags...]
  local wire=$1 http=$2; shift 2
  "$bin/vvd-serve" -stub "$lat" -wire "127.0.0.1:$wire" -addr "127.0.0.1:$http" "$@" \
    >"$bin/serve-$wire.log" 2>&1 &
  pids+=($!)
}

load() { # load <name> <args...>
  local name=$1; shift
  echo "== $name"
  "$bin/vvd-load" -duration "$dur" -warmup "$warm" -out "$out/$name.json" "$@"
  echo
}

# ---- phase A: protocol cost (one backend, instant inference) ---------
"$bin/vvd-serve" -stub 0 -wire 127.0.0.1:19991 -addr 127.0.0.1:18991 \
  >"$bin/serve-a.log" 2>&1 & pids+=($!)
sleep 0.5
load json-single -protocol http -addr 127.0.0.1:18991 -links 16 -fps 0 -assert-served 1 -assert-no-errors
load wire-single -protocol wire -addr 127.0.0.1:19991 -links 16 -fps 0 -assert-served 1 -assert-no-errors
kill "${pids[@]}" 2>/dev/null || true; wait 2>/dev/null || true; pids=()

# ---- phase B: router scaling (latency-bound backends) ----------------
serve 19991 18991
serve 19992 18992
sleep 0.5
load wire-1node -addr 127.0.0.1:19991 -links 32 -fps 0 -assert-served 1 -assert-no-errors

"$bin/vvd-router" -addr 127.0.0.1:19990 -backends 127.0.0.1:19991,127.0.0.1:19992 \
  >"$bin/router.log" 2>&1 & rpid=$!
sleep 0.5
load router-2node -addr 127.0.0.1:19990 -links 32 -fps 0 -assert-served 1 -assert-no-errors

# ---- phase C: overload (offered load past cluster capacity) ----------
# A tight per-shard in-flight bound forces the router to shed instead of
# queueing; the load generator must see sheds while hard errors stay 0
# and the served estimates' age stays bounded.
kill "$rpid" 2>/dev/null || true; wait "$rpid" 2>/dev/null || true
"$bin/vvd-router" -addr 127.0.0.1:19890 -backends 127.0.0.1:19991,127.0.0.1:19992 -inflight 4 \
  >"$bin/router-tight.log" 2>&1 & pids+=($!)
sleep 0.5
load router-overload -addr 127.0.0.1:19890 -links 64 -fps 120 -assert-served 1 -assert-no-errors

echo "reports in $out"

if [ "$mode" = quick ]; then
  # The overload phase must actually have shed (backpressure reachable).
  python3 - "$out/router-overload.json" <<'EOF'
import json, sys
rep = json.load(open(sys.argv[1]))
assert rep["sheds"] > 0, "overload run shed nothing: backpressure untested"
assert rep["errors"] == 0, f'{rep["errors"]} hard errors under overload'
print(f'overload ok: {rep["sheds"]} sheds, {rep["errors"]} errors, age p99 {rep["age_p99_ms"]:.1f} ms')
EOF
fi
