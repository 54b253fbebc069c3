#!/usr/bin/env bash
# Compare the simulator-infrastructure perf suite against the
# committed baseline (BENCH_simcore.json) and fail on regression.
#
# Usage: scripts/bench_compare.sh [build-dir] [max-regress-pct]
#
# Reruns bench_simcore_perf with the same repetition settings the
# baseline was produced with (scripts/bench_baseline.sh) and compares
# each benchmark's *best* (minimum) real_time across repetitions —
# the minimum is robust to the one-sided scheduling noise of shared
# machines, where means over a few repetitions swing by tens of
# percent. Any benchmark more than max-regress-pct (default 15)
# slower than the baseline fails the gate; faster is always fine.
# Skips cleanly when python3 or the baseline is unavailable so the
# build itself never blocks on it.
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build}"
max_pct="${2:-15}"
bench="$build_dir/bench/bench_simcore_perf"
baseline="BENCH_simcore.json"

if [[ ! -x "$bench" ]]; then
    echo "error: $bench not built (cmake --build $build_dir first)" >&2
    exit 1
fi
if [[ ! -f "$baseline" ]]; then
    echo "bench_compare: no $baseline baseline; skipping"
    exit 0
fi
if ! command -v python3 >/dev/null 2>&1; then
    echo "bench_compare: python3 unavailable; skipping"
    exit 0
fi

# Several process invocations: the gate takes the minimum across all
# of them, so a single throttled process window cannot fail the gate.
runs=()
for i in 1 2 3; do
    out="$build_dir/bench_simcore_current.$i.json"
    runs+=("$out")
    "$bench" --benchmark_format=json \
             --benchmark_repetitions=6 \
             --benchmark_min_time=0.05 \
             > "$out"
done

python3 - "$baseline" "$max_pct" "${runs[@]}" <<'PYEOF'
import json
import sys

base_path, max_pct = sys.argv[1], float(sys.argv[2])
cur_paths = sys.argv[3:]


# Each benchmark's time unit as it reports it (ns, us, ms).
units = {}


def bests(paths):
    out = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        for b in doc.get("benchmarks", []):
            # Prefer raw repetitions (take the minimum); fall back
            # to mean aggregates for baselines recorded
            # aggregates-only.
            if b.get("run_type") == "iteration":
                name = b["run_name"]
                out[name] = min(out.get(name, float("inf")),
                                b["real_time"])
            elif b.get("aggregate_name") == "mean":
                out.setdefault(b["run_name"], b["real_time"])
            else:
                continue
            units[b["run_name"]] = b.get("time_unit", "ns")
    return out


def fmt(v):
    # Whole numbers for large readings, three significant digits for
    # small ones (a 0.12 ms benchmark must not print as 0).
    return f"{v:.0f}" if v >= 100 else f"{v:.3g}"


base, cur = bests([base_path]), bests(cur_paths)
if not base:
    print("bench_compare: baseline has no usable entries; skipping")
    sys.exit(0)
if not cur:
    # A fresh run with zero usable entries means the bench binary
    # produced no measurements at all — that is a failure, not a
    # skip, or a broken bench would sail through the gate.
    print("bench_compare: ERROR: fresh run produced no usable "
          "benchmark entries", file=sys.stderr)
    sys.exit(1)

failed = False
missing = []
for name in sorted(base):
    b = base[name]
    c = cur.get(name)
    if c is None:
        missing.append(name)
        failed = True
        continue
    delta = (c - b) / b * 100.0
    flag = ""
    if delta > max_pct:
        flag = f"  <-- exceeds +{max_pct:.0f}% budget"
        failed = True
    print(f"  {name}: {fmt(b)} -> {fmt(c)} {units[name]} "
          f"({delta:+.1f}%){flag}")

if missing:
    # A benchmark present in the baseline but absent from the fresh
    # run fails loudly: deleting or renaming a bench must not let it
    # dodge the regression gate silently.
    print(f"bench_compare: ERROR: {len(missing)} baseline "
          "benchmark(s) missing from fresh run:", file=sys.stderr)
    for name in missing:
        print(f"  MISSING: {name}", file=sys.stderr)

sys.exit(1 if failed else 0)
PYEOF

echo "bench_compare: all benchmarks within ${max_pct}% of baseline"
