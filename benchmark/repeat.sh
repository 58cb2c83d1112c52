#!/usr/bin/env bash
# Repeatability check: runs every workload as two independent sets of the
# same code, two seeds per set, and compares the sets' medians for every
# end-to-end metric against the metric's bound in BENCHMARK.json.
#
#   benchmark/repeat.sh [seconds]      (from the repository root)
#
# Exits nonzero if any run is incorrect or any gap exceeds its bound.
# Takes about 5 workloads x 4 runs x (seconds + set-up): ~8 min at 20 s.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
seconds="${1:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
seeds=(11 12)
out="benchmark/out"
mkdir -p "$out"
results="$out/repeat.jsonl"
: > "$results"

cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/ss-perfbench"

echo "host: os=$(uname -s) arch=$(uname -m) cpus=$(grep -c ^processor /proc/cpuinfo)" \
     "nproc=$(nproc) transport=loopback window=${seconds}s seeds=${seeds[*]}"

workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
status=0
for workload in $workloads; do
  for set in A B; do
    for seed in "${seeds[@]}"; do
      if line=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1); then
        echo "{\"workload\": \"$workload\", \"set\": \"$set\", \"seed\": $seed, \"result\": $line}" >> "$results"
      else
        echo "FAILED: $workload set $set seed $seed: $line"
        status=1
      fi
    done
  done
done

python3 - "$results" <<'EOF' || status=1
import json, statistics, sys

spec = json.load(open("BENCHMARK.json"))
runs = [json.loads(line) for line in open(sys.argv[1])]
bad = False
print(f"{'workload':14s} {'metric':16s} {'set A':>14s} {'set B':>14s} {'gap':>8s} {'bound':>7s}")
for w in spec["workloads"]:
    for m in spec["end_to_end"]:
        medians = []
        for s in "AB":
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs
                      if r["workload"] == w["name"] and r["set"] == s and r["result"]["correct"]]
            medians.append(statistics.median(values) if values else float("nan"))
        a, b = medians
        # How much worse the second set reads than the first, as the
        # driver judges it: positive means worse.
        gap = (b - a) / a if m["better"] == "lower" else (a - b) / a
        verdict = "" if abs(gap) <= m["bound"] else "  EXCEEDS"
        bad |= not abs(gap) <= m["bound"]
        print(f"{w['name']:14s} {m['name']:16s} {a:14.4f} {b:14.4f} {gap*100:7.2f}% {m['bound']*100:6.0f}%{verdict}")
sys.exit(1 if bad else 0)
EOF
exit $status
