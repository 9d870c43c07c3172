#!/usr/bin/env bash
# A/B benchmark of the committed HEAD against a parent revision on one
# simbench workload.
#
#   scripts/ab.sh <parent-rev> [--workload W] [--pairs N] [--seconds S] [--seeds BASE]
#
# Each side is checked out into its own `git worktree` and built with its
# own CARGO_TARGET_DIR, both under one `mktemp -d` directory that a trap
# removes on exit, so neither side can reuse the other's build. simbench
# is built `--release --offline --locked` on each side. Then N pairs of
# `--trace 0` runs follow, pair i on seed BASE+i; the side that runs
# first alternates from pair to pair, so a drift in the host's speed
# lands on both sides alike.
#
# For every end-to-end metric in BENCHMARK.json the script prints both
# medians, the change in the median, the parent's quartiles, the range
# of the change/parent pair ratios and the pairs the change won (better
# in the metric's own direction), out of N. It exits 1 if any run fails
# or any job fails the correctness gate.
#
# Only committed code is measured: the change side is HEAD, not the
# working tree. Needs git, cargo, bash and python3 (for the statistics).
set -euo pipefail

usage() {
    echo "usage: scripts/ab.sh <parent-rev> [--workload W] [--pairs N] [--seconds S] [--seeds BASE]"
    echo "  --workload  simbench workload (default fault_ladder)"
    echo "  --pairs     interleaved pairs of runs (default 10)"
    echo "  --seconds   length of each run (default 6)"
    echo "  --seeds     seed of the first pair; pair i runs seed BASE+i (default 9001)"
}

parent=""
workload=fault_ladder
pairs=10
seconds=6
seed_base=9001
while [ $# -gt 0 ]; do
    case "$1" in
        -h|--help) usage; exit 0 ;;
        --workload|--pairs|--seconds|--seeds)
            [ $# -ge 2 ] || { echo "error: $1 needs a value" >&2; usage >&2; exit 2; }
            case "$1" in
                --workload) workload="$2" ;;
                --pairs) pairs="$2" ;;
                --seconds) seconds="$2" ;;
                --seeds) seed_base="$2" ;;
            esac
            shift 2 ;;
        -*) echo "error: unknown flag $1" >&2; usage >&2; exit 2 ;;
        *)
            [ -z "$parent" ] || { echo "error: one parent revision only" >&2; exit 2; }
            parent="$1"; shift ;;
    esac
done
[ -n "$parent" ] || { usage >&2; exit 2; }
for n in "$pairs" "$seed_base"; do
    [[ "$n" =~ ^[0-9]+$ ]] || { echo "error: not a whole number: $n" >&2; exit 2; }
done
[ "$pairs" -ge 1 ] || { echo "error: --pairs must be at least 1" >&2; exit 2; }

cd "$(dirname "$0")/.."
parent_sha="$(git rev-parse --verify "$parent^{commit}")"
change_sha="$(git rev-parse --verify HEAD)"
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
    echo "warning: uncommitted changes are not measured; the change side is HEAD" >&2
fi

work="$(mktemp -d)"
cleanup() {
    for side in parent change; do
        if [ -d "$work/$side" ]; then
            git worktree remove --force "$work/$side" || true
        fi
    done
    git worktree prune || true
    rm -rf "$work"
}
trap cleanup EXIT

for side in parent change; do
    sha=$parent_sha
    [ "$side" = change ] && sha=$change_sha
    git worktree add -q --detach "$work/$side" "$sha"
    echo "== building simbench at ${sha:0:9} ($side)" >&2
    CARGO_TARGET_DIR="$work/target-$side" cargo build -q --release --offline --locked \
        --manifest-path "$work/$side/simbench/Cargo.toml"
done

# One run: the last stdout line is simbench's verdict object. Each side
# runs in its own worktree, so its run records land there.
run() {
    local side=$1 seed=$2 out
    out="$(cd "$work/$side" && "$work/target-$side/release/ia-simbench" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)" \
        || { echo "error: $side run on seed $seed failed" >&2; exit 1; }
    printf '%s\n' "$out" | tail -n 1 > "$work/$side-$seed.json"
}

for ((i = 0; i < pairs; i++)); do
    seed=$((seed_base + i))
    if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
    echo "== pair $((i + 1))/$pairs, seed $seed: $order" >&2
    for side in $order; do run "$side" "$seed"; done
done

python3 - BENCHMARK.json "$work" "$seed_base" "$pairs" "$workload" "$seconds" \
    "${parent_sha:0:9}" "${change_sha:0:9}" <<'EOF'
import json, statistics, sys

bench, work, base, pairs, workload, seconds, parent, change = sys.argv[1:]
base, pairs = int(base), int(pairs)
metrics = json.load(open(bench))["end_to_end"]
runs = {side: [json.load(open(f"{work}/{side}-{base + i}.json")) for i in range(pairs)]
        for side in ("parent", "change")}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

print(f"{workload}: {pairs} interleaved pairs of {seconds} s runs, seeds {base}-{base + pairs - 1}, "
      f"parent {parent} vs change {change}")
print(f"| metric | better | parent median | change median | change | parent q1-q3 "
      f"| pair ratios | change wins |")
print("|---|---|---|---|---|---|---|---|")
for m in metrics:
    name, higher = m["name"], m["better"] == "higher"
    p = [r["metrics"][name]["value"] for r in runs["parent"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    pm, cm = statistics.median(p), statistics.median(c)
    q1, q3 = quartiles(p)
    ratios = [b / a if a else float("nan") for a, b in zip(p, c)]
    wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
    delta = f"{(cm / pm - 1) * 100:+.1f}%" if pm else "n/a"
    print(f"| {name} | {m['better']} | {pm:.6g} | {cm:.6g} | {delta} | {q1:.6g}-{q3:.6g} "
          f"| {min(ratios):.3f}-{max(ratios):.3f} | {wins}/{pairs} |")
bad = 0
for side in ("parent", "change"):
    failed = sum(r["failed"] for r in runs[side])
    attempted = sum(r["attempted"] for r in runs[side])
    wrong = sum(not r["correct"] for r in runs[side])
    print(f"{side}: {failed} of {attempted} jobs failed, {wrong} of {pairs} runs incorrect")
    bad += failed + wrong
sys.exit(1 if bad else 0)
EOF
