#!/usr/bin/env bash
# Interleaved A/B pairs of the benchmark BENCHMARK.json declares: the
# committed tree at REV against the working tree, on one workload.
#
#   scripts/bench_pairs.sh REV WORKLOAD N [BENCHMARK ARGS...]
#   scripts/bench_pairs.sh HEAD~1 rides_shared_w2 10
#   scripts/bench_pairs.sh HEAD~1 rides_shared_w2 3 --seed 11
#
# Both sides are built offline in release from copies under $TMPDIR —
# REV's committed files (`git archive`) and the working tree's tracked and
# untracked files — and run as `hamlet_benchmark --workload WORKLOAD --seconds S
# --trace 0 [ARGS]`, S being BENCHMARK.json's run_seconds unless
# BENCH_SECONDS is set. Pair i runs REV first when i is odd and the working
# tree first when it is even, so a host that slows down mid-pair does not
# always tax the same side. Prints per pair throughput_eps, peak_state_mb,
# setup_s and failed, then per side the median with its quartiles, and the
# number of pairs whose throughput the working tree won. Touches nothing in
# the repository; the build directories are removed on exit.
set -euo pipefail

if [ $# -lt 3 ]; then
    echo "usage: $0 REV WORKLOAD N [BENCHMARK ARGS...]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3
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

# run SIDE BIN [ARGS...]: one run; appends its last line (the result
# JSON) to $work/SIDE.jsonl.
run() {
    local side=$1 bin=$2
    shift 2
    "$bin" --workload "$workload" --seconds "$seconds" --trace 0 "$@" 2>/dev/null |
        tail -n 1 >>"$work/$side.jsonl" || true
}
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) = 1 ]; then
        run base "$base_bin" "$@"
        run head "$head_bin" "$@"
    else
        run head "$head_bin" "$@"
        run base "$base_bin" "$@"
    fi
    echo "pair $i/$pairs done" >&2
done

python3 - "$work/base.jsonl" "$work/head.jsonl" "$rev" <<'EOF'
import json, statistics, sys

def rows(path):
    out = []
    for line in open(path):
        try:
            r = json.loads(line)
            m = r["metrics"]
            out.append((m["throughput_eps"]["value"], m["peak_state_mb"]["value"],
                        m["setup_s"]["value"], r["failed"]))
        except (ValueError, KeyError):
            out.append(None)
    return out

base, head, rev = rows(sys.argv[1]), rows(sys.argv[2]), sys.argv[3]
print(f"{'pair':>4}  {'side':<8} {'throughput_eps':>15} {'peak_state_mb':>14} {'setup_s':>9} {'failed':>7}")
for i, (b, h) in enumerate(zip(base, head), 1):
    for side, r in ((rev, b), ("tree", h)):
        cells = "(no result)" if r is None else f"{r[0]:>15.0f} {r[1]:>14.4f} {r[2]:>9.4f} {r[3]:>7}"
        print(f"{i:>4}  {side[:8]:<8} {cells}")

def summary(side, runs):
    runs = [r for r in runs if r is not None]
    if not runs:
        print(f"{side}: no run produced a result")
        return
    for col, name in ((0, "throughput_eps"), (1, "peak_state_mb"), (2, "setup_s")):
        xs = sorted(r[col] for r in runs)
        q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
        print(f"{side[:8]:<8} {name:<15} median {q[1]:.6g}  quartiles [{q[0]:.6g}, {q[2]:.6g}]  n={len(xs)}")
    print(f"{side[:8]:<8} failed          total {sum(r[3] for r in runs)}")

summary(rev, base)
summary("tree", head)
won = sum(1 for b, h in zip(base, head) if b and h and h[0] > b[0])
both = sum(1 for b, h in zip(base, head) if b and h)
print(f"tree won throughput_eps in {won} of {both} pairs")
EOF
