#!/usr/bin/env bash
# Appends the benchmark's result lines, stamped, to the committed trajectory file.
#
# Usage:
#   scripts/bench_trajectory.sh [--checkout DIR]
#
# Runs every workload that BENCHMARK.json declares, once each, through
# BENCHMARK.json's own command for its run_seconds with seed 101, from the root of
# DIR (default: this repository; pass a separate clone to record another commit).
# Each run appends one JSON object per line to BENCH_perf.jsonl at this
# repository's root:
#
#   {"workload", "seed", "seconds", "commit", "dirty", "date", "host",
#    "stamp": <the benchmark's own stamp>, "result": <its last output line>}
#
# where `date` is the run's start (UTC).
#
# `commit` and `dirty` describe DIR's git checkout; the benchmark's stamp adds a
# fingerprint of the source it built, so uncommitted trees stay distinguishable.
# Lines are only ever appended: earlier runs are never rewritten. Needs `jq`.
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
checkout=$repo
seed=101
out=$repo/BENCH_perf.jsonl

while [ $# -gt 0 ]; do
    case $1 in
        --checkout) checkout=$(cd "$2" && pwd); shift 2 ;;
        *) echo "bench_trajectory: unknown argument $1" >&2; exit 2 ;;
    esac
done

command -v jq > /dev/null || { echo "bench_trajectory: jq is required" >&2; exit 2; }
spec=$checkout/BENCHMARK.json
[ -f "$spec" ] || { echo "bench_trajectory: no BENCHMARK.json in $checkout" >&2; exit 2; }

mapfile -t cmd < <(jq -r '.command[]' "$spec")
seconds=$(jq -r '.run_seconds' "$spec")
mapfile -t workloads < <(jq -r '.workloads[].name' "$spec")

commit=$(git -C "$checkout" rev-parse HEAD)
# The benchmark's build rewrites its stale `perfbench/Cargo.lock` on every run, so
# that one file does not count as a local change.
dirty=false
[ -z "$(git -C "$checkout" status --porcelain --untracked-files=no -- . \
    ':(exclude)perfbench/Cargo.lock')" ] || dirty=true
cpu=$(grep -m1 'model name' /proc/cpuinfo 2> /dev/null | cut -d: -f2- | sed 's/^ *//' || true)
host="$(uname -sm), $(nproc) CPUs${cpu:+, $cpu}"

# The benchmark's stderr (build output, service access logs) is kept out of the
# terminal and shown only when a run fails.
log=$(mktemp)
trap 'rm -f "$log"' EXIT

for workload in "${workloads[@]}"; do
    started=$(date -u +%Y-%m-%dT%H:%M:%SZ)
    if ! output=$(cd "$checkout" && "${cmd[@]}" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 2> "$log"); then
        tail -20 "$log" >&2
        echo "bench_trajectory: $workload failed; nothing appended" >&2
        exit 1
    fi
    stamp=$(grep '^perfbench: stamp ' <<< "$output" | tail -1 | sed 's/^perfbench: stamp //')
    result=$(tail -1 <<< "$output")
    jq -cn \
        --arg workload "$workload" --argjson seed "$seed" --argjson seconds "$seconds" \
        --arg commit "$commit" --argjson dirty "$dirty" \
        --arg date "$started" --arg host "$host" \
        --argjson stamp "${stamp:-null}" --argjson result "$result" \
        '{workload: $workload, seed: $seed, seconds: $seconds,
          commit: $commit, dirty: $dirty, date: $date, host: $host,
          stamp: $stamp, result: $result}' >> "$out"
    echo "bench_trajectory: $workload -> $out" >&2
done
