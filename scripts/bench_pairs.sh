#!/usr/bin/env bash
# Compare one perfbench workload between a git ref and this checkout.
#
#   scripts/bench_pairs.sh [--pairs N] [--seconds S] [--seed K] [--ref REF]
#                          [--tiny] [--out DIR] WORKLOAD
#
# Runs N pairs of `perfbench/run.py --workload WORKLOAD --seed K --seconds S`,
# one on the committed tree of REF (default HEAD) and one on this checkout's
# working tree (tracked and untracked files not ignored by git, uncommitted
# edits included).  Both sides are prepared the same way: exported into
# sibling directories of one temp dir (REF with `git archive`, the working
# tree with `git ls-files`) and run from there, so where a tree lives
# cannot favour one side.  The side that runs first alternates from pair
# to pair, so a drift in machine speed does not favour one side either.
# Each run's last JSON line is kept in DIR (default: a temp dir, printed at
# the end).
#
# It then prints, per end-to-end metric of BENCHMARK.json, the median and
# quartiles of each side and how many pairs the change won; the metric's
# "better" direction comes from BENCHMARK.json.  perfbench/ is not edited.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)

pairs=10
seconds=20
seed=1
ref=HEAD
tiny=""
out=""
workload=""
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --ref) ref="$2"; shift 2 ;;
        --tiny) tiny="--tiny"; shift ;;
        --out) out="$2"; shift 2 ;;
        -h|--help) sed -n '2,20p' "$0"; exit 0 ;;
        -*) echo "bench_pairs: unknown option $1" >&2; exit 2 ;;
        *) workload="$1"; shift ;;
    esac
done
if [ -z "${workload}" ]; then
    echo "bench_pairs: name a workload (see BENCHMARK.json)" >&2
    exit 2
fi

trees=$(mktemp -d)
trap 'rm -rf "${trees}"' EXIT
parent="${trees}/parent"
change="${trees}/change"
mkdir "${parent}" "${change}"
git archive "${ref}" | tar -x -C "${parent}"
# A tracked file deleted from the working tree is skipped, not exported.
git ls-files -z -co --exclude-standard \
    | tar --null --ignore-failed-read -T - -cf - 2>/dev/null \
    | tar -x -C "${change}"
if [ -z "${out}" ]; then
    out=$(mktemp -d)
fi
mkdir -p "${out}"

run_side() {  # side tree pair
    local log="${out}/$1-${3}.json"
    (cd "$2" && python3 perfbench/run.py --workload "${workload}" \
        --seed "${seed}" --seconds "${seconds}" --trace 0 ${tiny}) \
        | tail -n 1 > "${log}"
    echo "pair ${3} $1: $(python3 -c 'import json, sys; m = json.load(open(sys.argv[1]))["metrics"]; print(round(m["fixes_per_s"]["value"], 1), "fixes/s")' "${log}")"
}

for pair in $(seq 1 "${pairs}"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run_side parent "${parent}" "${pair}"
        run_side change "${change}" "${pair}"
    else
        run_side change "${change}" "${pair}"
        run_side parent "${parent}" "${pair}"
    fi
done

python3 - "${root}/BENCHMARK.json" "${out}" "${pairs}" "${ref}" "${workload}" <<'EOF'
import json
import statistics
import sys

benchmark, out, pairs, ref, workload = sys.argv[1:]
pairs = int(pairs)


def load(side, pair):
    with open(f"{out}/{side}-{pair}.json") as handle:
        return json.load(handle)


runs = {side: [load(side, pair) for pair in range(1, pairs + 1)]
        for side in ("parent", "change")}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


print(f"{workload}: {pairs} pairs, parent = {ref}, change = working tree")
for side, results in runs.items():
    bad = [i + 1 for i, result in enumerate(results) if not result["correct"]]
    if bad:
        print(f"  {side}: runs {bad} reported correct = false")
print(f"  {'metric':<16} {'parent q1/med/q3':>28} "
      f"{'change q1/med/q3':>28} {'wins':>6}")
with open(benchmark) as handle:
    metrics = json.load(handle)["end_to_end"]
for metric in metrics:
    name, higher = metric["name"], metric["better"] == "higher"
    sides = {side: [result["metrics"][name]["value"] for result in results]
             for side, results in runs.items()}
    wins = sum((change > parent) if higher else (change < parent)
               for parent, change in zip(sides["parent"], sides["change"]))
    cells = ["/".join(f"{value:.4g}" for value in quartiles(sides[side]))
             for side in ("parent", "change")]
    print(f"  {name:<16} {cells[0]:>28} {cells[1]:>28} {wins:>3}/{pairs}")
print(f"  runs kept in {out}")
EOF
