#!/usr/bin/env bash
# Run the repository benchmark on two checkouts in alternating pairs and
# judge the change with `perf.exe compare`:
#
#   bash tools/perf_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED...
#
# For each seed, both checkouts run
#   bash bench/perf/run.sh --workload WORKLOAD --seed SEED --seconds S --trace 0
# one after the other, S being BENCHMARK.json's run_seconds (27); the
# parent runs first on the first seed, the change on the second, and so
# on. `run.sh` prints one bare result as its last stdout line, while
# `compare` reads run files keyed by workload, so each result is saved
# wrapped as {"workloads": {"WORKLOAD": RESULT}}. The run files go to
# $PERF_PAIRS_OUT (default: a fresh temporary directory), named
# parent-SEED.json and change-SEED.json.
#
# Exits 1 if a run fails or reports "correct": false. Otherwise runs the
# change checkout's `perf.exe compare` (its BENCHMARK.json), parent files
# first, and exits with its status: 1 when any verdict is worse.
set -euo pipefail

if [ $# -lt 4 ]; then
  echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD SEED..." >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
shift 3
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$change/BENCHMARK.json")
out=${PERF_PAIRS_OUT:-$(mktemp -d)}
mkdir -p "$out"
echo "perf_pairs: run files in $out" >&2

# run SIDE DIR SEED: one benchmark run in checkout DIR, saved wrapped.
run() {
  local side=$1 dir=$2 seed=$3 raw="$out/$1-$3.raw"
  local status=0
  (cd "$dir" && bash bench/perf/run.sh --workload "$workload" --seed "$seed" \
     --seconds "$seconds" --trace 0) > "$raw" || status=$?
  python3 - "$raw" "$out/$side-$seed.json" "$workload" "$side" "$seed" "$status" <<'PY'
import json, sys
raw, dst, workload, side, seed, status = sys.argv[1:]
lines = [l for l in open(raw).read().splitlines() if l.strip()]
try:
    result = json.loads(lines[-1])
except (IndexError, ValueError) as e:
    sys.exit(f"perf_pairs: {side} seed {seed}: no JSON result ({e}), exit {status}")
json.dump({"workloads": {workload: result}}, open(dst, "w"))
m = result.get("metrics", {})
print(f"{side:6} seed {seed}: correct={result.get('correct')} "
      f"failed={result.get('failed')}/{result.get('attempted')} "
      f"msgs_per_s={m.get('msgs_per_s', {}).get('value')}", file=sys.stderr)
if result.get("correct") is not True or status != "0":
    sys.exit(f"perf_pairs: {side} seed {seed}: correct={result.get('correct')}, exit {status}")
PY
}

parents=()
changes=()
i=0
for seed in "$@"; do
  if [ $((i % 2)) -eq 0 ]; then
    run parent "$parent" "$seed"
    run change "$change" "$seed"
  else
    run change "$change" "$seed"
    run parent "$parent" "$seed"
  fi
  parents+=("$out/parent-$seed.json")
  changes+=("$out/change-$seed.json")
  i=$((i + 1))
done

exec "$change/_build/default/bench/perf/perf.exe" compare --benchmark "$change/BENCHMARK.json" \
  "${parents[@]}" -- "${changes[@]}"
