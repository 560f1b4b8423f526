#!/usr/bin/env bash
# Cluster scaling proof: the same batch of CPU-heavy sweep jobs through a
# 1-worker cluster and then a fresh 3-worker cluster, all through the
# gateway. Sharding by fingerprint must spread distinct seeds across the
# ring, so three single-lane workers (GOMAXPROCS=1: one job lane and a
# CPU budget of one) should finish the batch close to 3x faster than one —
# and every result must be byte-identical between the two runs (same
# spec, same tables, regardless of placement).
#
# On machines with >= 3 CPUs the measured ratio must clear MIN_RATIO
# (default 1.5; near-linear would be ~3.0, the floor leaves room for ring
# imbalance and submit/poll overhead). With fewer cores the ratio is
# recorded but not gated: three workers timesharing one core cannot speed
# up CPU-bound work, and pretending otherwise would gate on scheduler
# noise. The byte-identity and zero-lost-jobs checks always apply.
#
# Env: JOBS (default 16), MIN_RATIO (default 1.5), OUT (default
# bench_cluster.json), TEMPRIVD/TEMPRIVGW (prebuilt binaries; otherwise
# built from the repo).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-16}
MIN_RATIO=${MIN_RATIO:-1.5}
OUT=${OUT:-bench_cluster.json}
CPUS=$(nproc)

if [ -z "${TEMPRIVD:-}" ]; then
  go build -o /tmp/tpt_temprivd ./cmd/temprivd
  TEMPRIVD=/tmp/tpt_temprivd
fi
if [ -z "${TEMPRIVGW:-}" ]; then
  go build -o /tmp/tpt_temprivgw ./cmd/temprivgw
  TEMPRIVGW=/tmp/tpt_temprivgw
fi

PIDS=()
cleanup() {
  for p in "${PIDS[@]:-}"; do kill "$p" 2>/dev/null || true; done
  wait 2>/dev/null || true
}
trap cleanup EXIT

field() { python3 -c "import sys,json; print(json.load(sys.stdin).get('$1') or '')"; }
now() { python3 -c 'import time; print(time.time())'; }

spec() { # $1 = seed
  echo '{"version":1,"experiment":{"id":"fig3","packets":400,"interarrivals":[2,4],"replicates":8,"seed":'"$1"'}}'
}

# run_batch <workers> <gateway port> <checksum file> -> elapsed seconds on stdout
run_batch() {
  local W=$1 PORT=$2 SUMS=$3
  local GWURL="http://localhost:$PORT"

  "$TEMPRIVGW" -addr "localhost:$PORT" -lease-ttl 5s -reconcile-every 1s \
    -shed-factor 64 -log-level warn &
  local GWPID=$!
  PIDS+=("$GWPID")
  local WPIDS=()
  for i in $(seq 1 "$W"); do
    GOMAXPROCS=1 "$TEMPRIVD" -addr "localhost:$((PORT + i))" \
      -cluster-registry "$GWURL" -cluster-id "w$i" -log-level warn &
    WPIDS+=("$!")
    PIDS+=("$!")
  done

  local N=0
  for i in $(seq 1 100); do
    N=$(curl -sf "$GWURL/v1/cluster" | python3 -c 'import sys,json; print(len(json.load(sys.stdin)["workers"]))' 2>/dev/null || echo 0)
    [ "$N" = "$W" ] && break
    sleep 0.2
  done
  [ "$N" = "$W" ] || { echo "only $N/$W workers registered on :$PORT" >&2; return 1; }

  # Batch-submit the whole sweep, then await everything: elapsed time is
  # submit-to-last-done, i.e. batch throughput, not per-job latency.
  local T0 IDS=() SEEDS=()
  T0=$(now)
  for s in $(seq 1 "$JOBS"); do
    local ID
    ID=$(curl -sf "$GWURL/v1/jobs" -d "$(spec "$s")" | field id)
    [ -n "$ID" ] || { echo "submit of seed $s failed" >&2; return 1; }
    IDS+=("$ID")
    SEEDS+=("$s")
  done
  for ID in "${IDS[@]}"; do
    local STATE=""
    for i in $(seq 1 1200); do
      STATE=$(curl -s "$GWURL/v1/jobs/$ID" | field state || true)
      [ "$STATE" = done ] && break
      case "$STATE" in failed|canceled) echo "job $ID $STATE" >&2; return 1;; esac
      sleep 0.1
    done
    [ "$STATE" = done ] || { echo "job $ID never finished (lost job)" >&2; return 1; }
  done
  local T1
  T1=$(now)

  : > "$SUMS"
  for i in "${!IDS[@]}"; do
    curl -sf "$GWURL/v1/jobs/${IDS[$i]}/result" > "/tmp/tpt_result.$$"
    echo "seed ${SEEDS[$i]} $(sha256sum < "/tmp/tpt_result.$$" | awk '{print $1}')" >> "$SUMS"
  done
  rm -f "/tmp/tpt_result.$$"

  for p in "${WPIDS[@]}" "$GWPID"; do kill "$p" 2>/dev/null || true; done
  python3 -c "print(f'{$T1 - $T0:.2f}')"
}

echo "cluster_throughput: $JOBS jobs, $CPUS cpu(s)"
S1=$(run_batch 1 7170 /tmp/tpt_sums_1w)
echo "  1 worker:  ${S1}s"
S3=$(run_batch 3 7270 /tmp/tpt_sums_3w)
echo "  3 workers: ${S3}s"

diff /tmp/tpt_sums_1w /tmp/tpt_sums_3w || {
  echo "cluster_throughput: FAIL: results differ between 1- and 3-worker runs" >&2
  exit 1
}
echo "  results byte-identical across both runs ($JOBS jobs, zero lost)"

RATIO=$(python3 -c "print(f'{$S1 / $S3:.2f}')")
GATED=$([ "$CPUS" -ge 3 ] && echo true || echo false)
python3 - "$OUT" <<EOF
import json, sys
doc = {
    "bench": "cluster_throughput",
    "jobs": $JOBS,
    "cpus": $CPUS,
    "workers_1_seconds": $S1,
    "workers_3_seconds": $S3,
    "scaling_ratio": $RATIO,
    "ratio_gated": $CPUS >= 3,
    "min_ratio": $MIN_RATIO,
}
with open(sys.argv[1], "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF
echo "  wrote $OUT"

if [ "$GATED" = true ]; then
  python3 -c "import sys; sys.exit(0 if $RATIO >= $MIN_RATIO else 1)" || {
    echo "cluster_throughput: FAIL: 1->3 worker scaling ${RATIO}x < floor ${MIN_RATIO}x" >&2
    exit 1
  }
  echo "cluster_throughput: OK: 1->3 worker scaling ${RATIO}x (floor ${MIN_RATIO}x)"
else
  echo "cluster_throughput: OK: ratio ${RATIO}x recorded, not gated ($CPUS cpu(s) < 3)"
fi
