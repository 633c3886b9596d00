#!/usr/bin/env bash
# Runs every workload in fresh processes and summarizes the spread:
#
#   bash benchmark/run.sh <seed> <sets> <runs>
#
# Each set runs every workload <runs> times; the workload order reverses
# from one set to the next. <seed> is a number used by every run, or
# "each" to give run r of a set the seed r. Every run's JSON result is
# kept under .bench_build/runs/<stamp>/; the summary prints, per metric
# and workload, each set's median and interquartile range (as a share of
# the median) and how far the last set's median moved from the first's.
# Run it from the repository root.
set -euo pipefail

if [ $# -ne 3 ]; then
	echo "usage: $0 <seed|each> <sets> <runs>" >&2
	exit 2
fi
seed=$1 sets=$2 runs=$3
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
dir="$PWD/.bench_build/runs/$(date +%Y%m%d-%H%M%S)"
mkdir -p "$dir"
workloads=$(ls "$here"/workloads/*.json | xargs -n1 basename | sed 's/\.json$//')

for set in $(seq 1 "$sets"); do
	order=$workloads
	if [ $((set % 2)) -eq 0 ]; then
		order=$(echo "$workloads" | tac)
	fi
	for w in $order; do
		for run in $(seq 1 "$runs"); do
			s=$seed
			if [ "$seed" = each ]; then
				s=$run
			fi
			out="$dir/set$set-$w-run$run.json"
			bash "$here/bench.sh" --workload "$w" --seed "$s" --seconds 15 --trace 0 | tail -n 1 >"$out"
			echo "set $set $w run $run seed $s: $(wc -c <"$out") bytes" >&2
		done
	done
done

python3 - "$dir" <<'EOF'
import glob, json, os, re, statistics, sys

runs = {}
for path in sorted(glob.glob(os.path.join(sys.argv[1], "*.json"))):
    m = re.match(r"set(\d+)-(.+)-run\d+\.json$", os.path.basename(path))
    res = json.load(open(path))
    if not res["correct"]:
        print(f"{path}: run failed")
        continue
    for name, v in res["metrics"].items():
        runs.setdefault((name, m.group(2)), {}).setdefault(int(m.group(1)), []).append(v["value"])

def spread(xs):
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    med = statistics.median(xs)
    return (q3 - q1) / med if med else float("nan")

print(f"{'metric':40} {'workload':12} {'set medians (IQR share)':60} {'last/first':>10}")
for (name, w), by_set in sorted(runs.items()):
    meds = {s: statistics.median(xs) for s, xs in by_set.items()}
    cols = "  ".join(f"{meds[s]:.6g} ({spread(xs):.3f})" for s, xs in sorted(by_set.items()))
    first, last = meds[min(meds)], meds[max(meds)]
    delta = (last - first) / first if first else float("nan")
    print(f"{name:40} {w:12} {cols:60} {delta:+10.4f}")
print(f"results: {sys.argv[1]}")
EOF
