#!/usr/bin/env bash
# Interleaved A/B pairs of the benchmark BENCHMARK.json declares: the
# committed tree at REV against the working tree, on one or more
# workloads.
#
#   scripts/bench_pairs.sh REV WORKLOADS N [BENCHMARK ARGS...]
#   scripts/bench_pairs.sh HEAD~1 rides_shared_w2 10
#   scripts/bench_pairs.sh HEAD~1 stock_diverse_w1,rides_ops_w2 5 --seed 11
#
# WORKLOADS is a comma-separated list. Both sides are built once, offline
# in release, from copies under $TMPDIR — REV's committed files (`git
# archive`) and the working tree's tracked and untracked files — and run
# N pairs per workload, one workload after the other, as
# `hamlet_benchmark --workload WORKLOAD --seconds S --trace 0 [ARGS]`, S
# being BENCHMARK.json's run_seconds unless BENCH_SECONDS is set. Pair i
# runs REV first when i is odd and the working tree first when it is
# even, so a host that slows down mid-pair does not always tax the same
# side. Per workload it prints per pair every end-to-end metric
# BENCHMARK.json names and the failed count; then per side the runs that
# produced no result, the median with its quartiles and the total failed;
# per end-to-end metric the number of pairs the working tree won (better
# in the metric's direction) and one `ratio` line with each pair's ratio
# (tree ÷ REV) and their median; one verdict
# per end-to-end metric against its `bound` (ok, WORSE, or unresolved when
# REV's quartile spread is wider than the bound or a run produced no
# result); and whether the claim rule for a gain holds (better in 9 of 10
# pairs, median gain larger than REV's inter-quartile range, no run
# without a result, and no more failed operations than REV). A run whose
# result line reads `"correct": false` counts as a run with no result, so
# its workload's verdicts all read unresolved. Every `verdict` and
# `claim` line starts with its workload. Touches nothing in
# the repository; the build directories are removed on exit.
set -euo pipefail

if [ $# -lt 3 ]; then
    echo "usage: $0 REV WORKLOADS N [BENCHMARK ARGS...]" >&2
    exit 2
fi
rev=$1 workloads=$2 pairs=$3
shift 3
root=$(git rev-parse --show-toplevel)
manifest=crates/bench/src/bin/hamlet_benchmark/Cargo.toml
seconds=${BENCH_SECONDS:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")}

work=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/base" "$work/head"
git -C "$root" archive "$rev" | tar -x -C "$work/base"
# The working tree as it stands: tracked and untracked files, not ignored
# ones. A copy, so that building it leaves nothing in the repository.
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
    tar -c -f - --null -T - --ignore-failed-read 2>/dev/null) | tar -x -C "$work/head"

# build SIDE: the benchmark of $work/SIDE, built into $work/SIDE-target.
build() {
    (cd "$work/$1" && CARGO_TARGET_DIR="$work/$1-target" \
        cargo build --release --offline --quiet --manifest-path "$manifest")
    echo "$work/$1-target/release/hamlet_benchmark"
}
base_bin=$(build base)
head_bin=$(build head)

# run SIDE BIN [ARGS...]: one run of $workload; appends its last line
# (the result JSON) to $work/SIDE-$workload.jsonl.
run() {
    local side=$1 bin=$2
    shift 2
    "$bin" --workload "$workload" --seconds "$seconds" --trace 0 "$@" 2>/dev/null |
        tail -n 1 >>"$work/$side-$workload.jsonl" || true
}

# report WORKLOAD: the table, summaries, verdicts and claims of its pairs.
report() {
    python3 - "$work/base-$1.jsonl" "$work/head-$1.jsonl" "$rev" "$root/BENCHMARK.json" "$1" <<'EOF'
import json, statistics, sys

rules = json.load(open(sys.argv[4]))["end_to_end"]
names = [r["name"] for r in rules]

# One row per run: its metrics and failed count, or None when the run
# produced no result or a wrong one.
def rows(path):
    out = []
    for line in open(path):
        try:
            r = json.loads(line)
            row = ({n: r["metrics"][n]["value"] for n in names}, r["failed"])
            out.append(row if r["correct"] is True else None)
        except (ValueError, KeyError, TypeError):
            out.append(None)
    return out

def quartiles(xs):
    xs = sorted(xs)
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3

base, head, rev, wl = rows(sys.argv[1]), rows(sys.argv[2]), sys.argv[3], sys.argv[5]
print(f"{'pair':>4}  {'side':<8} " + " ".join(f"{n:>15}" for n in names) + f" {'failed':>7}")
for i, (b, h) in enumerate(zip(base, head), 1):
    for side, r in ((rev, b), ("tree", h)):
        cells = "(no result)" if r is None else " ".join(f"{r[0][n]:>15.6g}" for n in names) + f" {r[1]:>7}"
        print(f"{i:>4}  {side[:8]:<8} {cells}")

# Per side: the runs that produced no result, then the median and
# quartiles of the runs that did, and their failed operations.
def summary(side, runs):
    lost = [i for i, r in enumerate(runs, 1) if r is None]
    runs = [r for r in runs if r is not None]
    print(f"{side[:8]:<8} {'no result':<15} {len(lost)} of {len(lost) + len(runs)} runs"
          + (f" (pairs {lost})" if lost else ""))
    if not runs:
        return None
    qs = {n: quartiles([r[0][n] for r in runs]) for n in names}
    for n, q in qs.items():
        print(f"{side[:8]:<8} {n:<15} median {q[1]:.6g}  quartiles [{q[0]:.6g}, {q[2]:.6g}]  n={len(runs)}")
    print(f"{side[:8]:<8} {'failed':<15} total {sum(r[1] for r in runs)}")
    return qs

qb, qh = summary(rev, base), summary("tree", head)
# Per end-to-end metric: the pairs the tree won (better in the metric's
# direction) and each pair's ratio, tree ÷ REV, with their median.
paired = [(b[0], h[0]) for b, h in zip(base, head) if b and h]
for rule in rules:
    n, higher = rule["name"], rule["better"] == "higher"
    won = sum(1 for b, h in paired if (h[n] > b[n] if higher else h[n] < b[n]))
    print(f"tree won {n} in {won} of {len(paired)} pairs ({rule['better']} is better)")
    ratios = [h[n] / b[n] for b, h in paired if b[n] > 0]
    if ratios:
        print(f"{wl}  ratio    {n:<15} tree/{rev[:8]} per pair "
              + " ".join(f"{r:.3f}" for r in ratios) + f"  median {statistics.median(ratios):.3f}")

# The acceptance rules, one line per end-to-end metric: the tree's median
# over REV's, and `WORSE` beyond the bound in the bad direction,
# `unresolved` where REV's quartile spread (over its median) is wider
# than the bound or a run produced no result, `ok` otherwise.
lost = any(r is None for r in base + head)
for rule in rules:
    n, bound, higher = rule["name"], rule["bound"], rule["better"] == "higher"
    if qb is None or qh is None or qb[n][1] == 0:
        print(f"{wl}  verdict  {n:<15} unresolved (no median to compare)")
        continue
    ratio = qh[n][1] / qb[n][1]
    spread = (qb[n][2] - qb[n][0]) / qb[n][1]
    worse = ratio < 1 - bound if higher else ratio > 1 + bound
    verdict = "unresolved" if lost else "WORSE" if worse else "unresolved" if spread > bound else "ok"
    print(f"{wl}  verdict  {n:<15} tree/{rev[:8]} {ratio:.4f}  ({rule['better']} is better, "
          f"bound {bound:.0%}, {rev[:8]} spread {spread:.1%}): {verdict}")

# The claim rule: a gain counts only if the tree is better in at least 9
# of every 10 pairs, its median beats REV's by more than REV's
# inter-quartile range, and it failed no more operations than REV.
failed = [sum(r[1] for r in runs if r is not None) for runs in (base, head)]
for rule in rules:
    n, higher = rule["name"], rule["better"] == "higher"
    if qb is None or qh is None:
        print(f"{wl}  claim    {n:<15} does not hold (a side has no result)")
        continue
    better = sum(1 for b, h in paired if (h[n] > b[n] if higher else h[n] < b[n]))
    gain = (qh[n][1] - qb[n][1]) * (1 if higher else -1) + 0.0  # no "-0"
    iqr = qb[n][2] - qb[n][0]
    holds = better * 10 >= 9 * len(paired) and gain > iqr and not lost and failed[1] <= failed[0]
    print(f"{wl}  claim    {n:<15} tree better in {better} of {len(paired)} pairs (needs 9/10), "
          f"median gain {gain:.6g} vs {rev[:8]} IQR {iqr:.6g}, failed {failed[1]} vs {failed[0]}: "
          f"{'holds' if holds else 'does not hold'}")
EOF
}

for workload in ${workloads//,/ }; do
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) = 1 ]; then
            run base "$base_bin" "$@"
            run head "$head_bin" "$@"
        else
            run head "$head_bin" "$@"
            run base "$base_bin" "$@"
        fi
        echo "$workload: pair $i/$pairs done" >&2
    done
    echo "== $workload"
    report "$workload"
done
