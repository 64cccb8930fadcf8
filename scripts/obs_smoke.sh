#!/usr/bin/env bash
# Observability smoke test against the real corona-run / corona-launch
# / corona-stats binaries:
#
#   1. A scenario with every [observability] plane on runs end to end;
#      corona-stats validates each produced file shape (per-run
#      run<N>.obs.bin container, registry snapshot CSV, heartbeat
#      JSONL), exports the trace to Chrome JSON (the CI artifact), and
#      the trace actually contains crossbar + memory spans.
#   2. Off-parity: the same scenario with the [observability] section
#      deleted writes byte-identical CSV sink output — observing a
#      campaign never changes its results.
#   3. Determinism: every per-run obs file and the campaign rollup are
#      byte-identical between a 1-worker and a 4-worker run.
#   4. Rollup shard determinism: corona-launch over 2 shard processes
#      merges per-shard rollups into bytes identical to the whole-run
#      rollup.csv; `corona-stats follow --once` and `corona-stats
#      report` render the shard heartbeats and the merged rollup.
#   5. Overhead ceiling: a 16-seed Uniform grid on XBar/OCM runs five
#      times observed and five times unobserved, interleaved, and the
#      median observed run may take at most 1.5x the median unobserved
#      one. Loose enough for a noisy machine, tight enough to catch the
#      sampler's fast path regressing toward the 2.6x it replaced.
#
# Usage: scripts/obs_smoke.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD="${1:-build}"
DIR="${BUILD}/obs-smoke"
rm -rf "${DIR}"
mkdir -p "${DIR}"

# A small observed grid (2 workloads x 1 config x 2 seeds = 4 runs).
scenario() { # $1 = obs dir; empty = no [observability] section
  cat <<EOF
[scenario]
name = obs-smoke
requests = 1500
seed_policy = derived
seeds = 0,1

[workloads]
workload = Uniform
workload = Hot Spot

[configs]
config = XBar/OCM

[execution]
progress = off
EOF
  if [ -n "$1" ]; then
    cat <<EOF

[observability]
sample_period = 200000
trace_capacity = 8192
snapshot = on
heartbeat = on
rollup = on
dir = $1
EOF
  fi
}

scenario "${DIR}/obs1"   > "${DIR}/on1.scenario"
scenario "${DIR}/obs4"   > "${DIR}/on4.scenario"
scenario "${DIR}/obsL"   > "${DIR}/launch.scenario"
scenario ""              > "${DIR}/off.scenario"

# ---- 1. Observed run; corona-stats validates every file shape.
CORONA_JOBS=1 CORONA_SWEEP_CSV="${DIR}/on1.csv" \
  "${BUILD}/corona-run" --quiet --no-table "${DIR}/on1.scenario"

for run in 0 1 2 3; do
  "${BUILD}/corona-stats" summary \
    "${DIR}/obs1/run${run}.obs.bin" > /dev/null
  "${BUILD}/corona-stats" trace \
    "${DIR}/obs1/run${run}.obs.bin" > "${DIR}/trace${run}.txt"
  "${BUILD}/corona-stats" snapshot \
    "${DIR}/obs1/run${run}.snapshot.csv" net > /dev/null
done
# Chrome trace export with counter tracks — this JSON is what CI
# uploads as the browsable artifact.
"${BUILD}/corona-stats" trace "${DIR}/obs1/run0.obs.bin" \
  --export "${DIR}/run0.trace.json" \
  --counters "${DIR}/obs1/run0.obs.bin" --prefix net
"${BUILD}/corona-stats" heartbeat "${DIR}/obs1/heartbeat.jsonl" \
  > "${DIR}/heartbeat.txt"

grep -q "^channel_grant," "${DIR}/trace0.txt" || {
  echo "obs smoke: trace has no crossbar channel_grant spans" >&2
  exit 1
}
grep -q "^mc_issue," "${DIR}/trace0.txt" || {
  echo "obs smoke: trace has no memory-controller spans" >&2
  exit 1
}
grep -q '"ph":"C"' "${DIR}/run0.trace.json" || {
  echo "obs smoke: exported trace JSON has no counter tracks" >&2
  exit 1
}
for event in campaign_begin cell worker_done campaign_end; do
  grep -q "^${event}," "${DIR}/heartbeat.txt" || {
    echo "obs smoke: heartbeat stream lacks ${event} records" >&2
    exit 1
  }
done

# ---- 2. Observability never changes the results.
CORONA_JOBS=1 CORONA_SWEEP_CSV="${DIR}/off.csv" \
  "${BUILD}/corona-run" --quiet --no-table "${DIR}/off.scenario"
cmp -s "${DIR}/on1.csv" "${DIR}/off.csv" || {
  echo "obs smoke: CSV sink bytes differ with observability on" >&2
  exit 1
}

# ---- 3. Per-run obs files + rollup are worker-count invariant.
CORONA_JOBS=4 CORONA_SWEEP_CSV="${DIR}/on4.csv" \
  "${BUILD}/corona-run" --quiet --no-table "${DIR}/on4.scenario"
cmp -s "${DIR}/on1.csv" "${DIR}/on4.csv" || {
  echo "obs smoke: CSV sink bytes differ across worker counts" >&2
  exit 1
}
for run in 0 1 2 3; do
  for suffix in obs.bin snapshot.csv; do
    cmp -s "${DIR}/obs1/run${run}.${suffix}" \
           "${DIR}/obs4/run${run}.${suffix}" || {
      echo "obs smoke: run${run}.${suffix} differs at 1 vs 4 workers" >&2
      exit 1
    }
  done
done
cmp -s "${DIR}/obs1/rollup.csv" "${DIR}/obs4/rollup.csv" || {
  echo "obs smoke: rollup.csv differs at 1 vs 4 workers" >&2
  exit 1
}

# ---- 4. Sharded launch: merged rollup bytes == whole-run rollup
#         bytes, and the live-monitoring surfaces render the outputs.
"${BUILD}/corona-launch" --scenario "${DIR}/launch.scenario" \
  --shards 2 --jobs 2 --dir "${DIR}/launch-ckpt" \
  --csv "${DIR}/launch.csv" --quiet
cmp -s "${DIR}/obs1/rollup.csv" "${DIR}/obsL/rollup.csv" || {
  echo "obs smoke: merged shard rollup differs from whole-run rollup" >&2
  exit 1
}
"${BUILD}/corona-stats" follow --once \
  "${DIR}"/obsL/heartbeat-*.jsonl > "${DIR}/follow.txt"
grep -q "^runs 4/4" "${DIR}/follow.txt" || {
  echo "obs smoke: follow --once printed no campaign status" >&2
  exit 1
}
"${BUILD}/corona-stats" report "${DIR}/obs1" > "${DIR}/report.txt"
grep -q "^campaign rollup:" "${DIR}/report.txt" || {
  echo "obs smoke: campaign report missing rollup header" >&2
  exit 1
}

# ---- 5. Observability overhead stays under a 1.5x ceiling.
OFF="${DIR}/overhead-off.scenario"
cat > "${OFF}" <<EOF
[scenario]
name = obs-overhead
requests = 2000
seed_policy = derived
seeds = $(seq -s, 0 15)

[workloads]
workload = Uniform

[configs]
config = XBar/OCM

[execution]
progress = off
EOF

# Appends the wall-clock nanoseconds of one single-worker run of
# scenario $2 to overhead-$1.ns.
time_run() {
  local start end
  start="$(date +%s%N)"
  CORONA_JOBS=1 "${BUILD}/corona-run" --quiet --no-table "$2"
  end="$(date +%s%N)"
  echo $((end - start)) >> "${DIR}/overhead-$1.ns"
}

for pass in 0 1 2 3 4; do
  # A fresh obs dir per pass: rewriting an earlier pass's files is
  # filesystem work a real campaign never does.
  ON="${DIR}/overhead-on${pass}.scenario"
  { cat "${OFF}"
    printf '\n[observability]\nsample_period = 1000000\n'
    printf 'trace_capacity = 4096\ndir = %s\n' "${DIR}/overhead${pass}"
  } > "${ON}"
  # Alternate which side goes first so drift favours neither.
  if [ $((pass % 2)) -eq 0 ]; then
    time_run on "${ON}"; time_run off "${OFF}"
  else
    time_run off "${OFF}"; time_run on "${ON}"
  fi
done
median_ns() { sort -n "$1" | sed -n 3p; }
ratio="$(awk -v on="$(median_ns "${DIR}/overhead-on.ns")" \
             -v off="$(median_ns "${DIR}/overhead-off.ns")" \
             'BEGIN { printf "%.3f", on / off }')"
awk -v r="${ratio}" 'BEGIN { exit !(r <= 1.5) }' || {
  echo "obs smoke: observability overhead x${ratio} (median of 5" \
       "passes) exceeds the 1.5x ceiling" >&2
  exit 1
}

echo "obs smoke: OK (file shapes valid, sink off-parity, obs bytes" \
     "worker-count invariant, rollup shard-merge deterministic," \
     "obs overhead x${ratio})"
