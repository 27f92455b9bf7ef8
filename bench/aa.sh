#!/usr/bin/env bash
# A/A check: two sets of runs of the same code, as the benchmark driver
# makes them, to show that run-to-run noise stays inside the bounds
# BENCHMARK.json fixes.
#
#   bench/aa.sh [RUNS] > bench/AA.md      (RUNS per set and workload, default 10)
#
# Each set runs every workload RUNS times, each time with another seed
# (1, 3, 4, .. RUNS+1, the same seeds in both sets; seed 2 is held out for
# verifying claims), going through the workloads forwards on odd runs and
# backwards on even ones. For every end-to-end
# metric it prints both medians, both interquartile spreads as a share
# of their median (statistics.quantiles, n=4), the share by which the
# second median is worse than the first, and the metric's bound.
set -euo pipefail
cd "$(dirname "$0")/.."

runs="${1:-10}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads=(wc_shuffle wc_combine sort_range pso_iter)
backwards=(pso_iter sort_range wc_combine wc_shuffle)
out=bench/out/aa
rm -rf "$out"
mkdir -p "$out"

for set in A B; do
    for run in $(seq 1 "$runs"); do
        if ((run % 2)); then order=("${workloads[@]}"); else order=("${backwards[@]}"); fi
        for w in "${order[@]}"; do
            echo "set $set run $run $w" >&2
            seed=$((run == 1 ? 1 : run + 1))
            bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
                | tail -n 1 > "$out/$set.$w.$run.json"
        done
    done
done

python3 - "$out" "$runs" <<'EOF'
import glob, json, statistics, subprocess, sys

out, runs = sys.argv[1], int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))

def values(set_, workload, metric):
    vals = []
    for path in sorted(glob.glob(f"{out}/{set_}.{workload}.*.json")):
        result = json.load(open(path))
        assert result["correct"] and result["failed"] == 0, path
        vals.append(result["metrics"][metric]["value"])
    assert len(vals) == runs, (set_, workload, metric, len(vals))
    return vals

def spread(vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)

commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True).stdout.strip()
if subprocess.run(["git", "status", "--porcelain"], capture_output=True, text=True).stdout.strip():
    commit += "+dirty"
print("# A/A: two sets of runs of the same code\n")
print(f"`bench/aa.sh {runs}` at commit {commit or 'unknown'}: {runs} runs per set and workload, seeds 1 and 3..{runs + 1},")
print(f"--seconds {spec['run_seconds']}. Spread is (Q3 - Q1) / median of one set; gap is the")
print("share by which set B's median is worse than set A's (negative: better).")
print("A row is `ok` when both spreads and the gap are within the bound, and")
print("`steady` when both spreads are also below a third of it.\n")
worst = "steady"
for w in spec["workloads"]:
    print(f"## {w['name']}\n")
    print("| metric | unit | median A | spread A | median B | spread B | gap B vs A | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    for m in spec["end_to_end"]:
        a, b = values("A", w["name"], m["name"]), values("B", w["name"], m["name"])
        med_a, med_b = statistics.median(a), statistics.median(b)
        gap = (med_b - med_a) / med_a * (1 if m["better"] == "lower" else -1)
        sa, sb, bound = spread(a), spread(b), m["bound"]
        # The driver does not hold setup_s to its spread, only to the gap.
        spreads = [] if m["name"] == "setup_s" else [sa, sb]
        if any(s > bound for s in spreads) or gap > bound:
            verdict = worst = "OUTSIDE"
        elif any(s > bound / 3 for s in spreads):
            verdict = "ok"
            worst = worst if worst == "OUTSIDE" else "ok"
        else:
            verdict = "steady"
        print(f"| `{m['name']}` | {m['unit']} | {med_a:.5g} | {sa:.2%} | {med_b:.5g} | {sb:.2%} | {gap:+.2%} | {bound:.0%} | {verdict} |")
    print()
print(f"Overall: {worst}.")
sys.exit(1 if worst == "OUTSIDE" else 0)
EOF
