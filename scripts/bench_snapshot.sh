#!/usr/bin/env bash
# Runs every experiment in quick mode via the single-process
# `ia-bench suite` command and concatenates the per-experiment reports into one JSON array,
# BENCH_PR.json, at the repo root. Attach that file to a PR to snapshot
# the benchmark state.
#
# One process instead of one per experiment: fork+exec costs ~2 ms per
# process on a loaded host, ~50 ms of pure churn across the suite. The
# suite writes byte-for-byte the same per-experiment JSON
# `ia-bench <experiment> --json` writes (runtime diagnostics never enter
# the report), so the concatenated snapshot is unchanged. Parallelism lives
# *inside* the run (the ia-par worker pool, exposed as --threads) and
# the report bytes are identical at any thread count — byte-identical
# to a fully serial run.
#
# Per-experiment wall-clock goes into a *separate* side file, BENCH_WALL.json
# next to the output: timing is host-dependent and must never contaminate
# the canonical, byte-stable BENCH_PR.json. Timestamps come from bash's
# $EPOCHREALTIME builtin — forking `date` twice per bin used to charge
# the suite ~150 ms of measurement overhead on a loaded host.
#
# The suite runs five times. Every run must write the same report
# bytes (`cmp` against the first run: a free determinism check), and
# each row records the median of its samples as `wall_us`, with their
# `min_us` and `max_us`, in whole microseconds, so even a
# sub-millisecond experiment carries a number. One sample per row was
# not enough: 10-30 ms experiments moved by more than 25% between two
# back-to-back snapshots of unchanged code. The wall trajectory is
# self-auditing: each run prints a per-bin delta column of medians
# against the *previous* BENCH_WALL.json and exits non-zero with a
# warning list if any bin's median regressed by more than 25% (bins
# below a 5 ms = 5000 µs absolute delta are exempt — at 2-4 ms per bin,
# scheduler jitter alone crosses any percentage threshold).
#
# The per-op microbenchmarks ride along: after the suite, the
# ia-microbench harness writes its byte-stable BENCH_MICRO.json next to
# the output (deterministic checksums only — its wall numbers stay in
# its stdout table). It runs once; its wall time is recorded as its own
# row (min = max = the one sample), after suite_total, so the suite
# number stays comparable across PRs.
#
# Usage: scripts/bench_snapshot.sh [output-path]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-$repo_root/BENCH_PR.json}"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

cd "$repo_root"
cargo build --release -q -p ia-bench -p ia-microbench

# Microsecond timestamp from the shell builtin: no fork, ~30 µs.
now_us() {
    local t=$EPOCHREALTIME
    echo $(( ${t%.*} * 1000000 + 10#${t#*.} ))
}

threads="$(nproc 2>/dev/null || echo 1)"
samples=5
wall="$(dirname "$out")/BENCH_WALL.json"
micro="$(dirname "$out")/BENCH_MICRO.json"

# Previous per-bin walls, for the delta column (missing file = no deltas).
declare -A prev_wall=()
if [ -f "$wall" ]; then
    while IFS=' ' read -r bin us; do
        prev_wall["$bin"]="$us"
    done < <(sed -n 's/.*"bin": "\([^"]*\)", "wall_us": \([0-9]*\).*/\1 \2/p' "$wall")
fi

failed=()
regressed=()
names=()
walls=()
mins=()
maxs=()

# record <bin> <µs>...: one row from its samples, gated on their median.
record() {
    local bin="$1"
    shift
    local sorted
    mapfile -t sorted < <(printf '%s\n' "$@" | sort -n)
    local n="${#sorted[@]}"
    local us="${sorted[$(( n / 2 ))]}"
    names+=("$bin")
    walls+=("$us")
    mins+=("${sorted[0]}")
    maxs+=("${sorted[$(( n - 1 ))]}")
    local prev="${prev_wall[$bin]:-}"
    local delta="n/a"
    if [ -n "$prev" ] && [ "$prev" -gt 0 ]; then
        # Percent in tenths, truncated.
        local dt=$(( (us - prev) * 1000 / prev )) sign="+"
        if [ "$dt" -lt 0 ]; then sign="-"; dt=$(( -dt )); fi
        delta="${sign}$(( dt / 10 )).$(( dt % 10 ))%"
        if [ "$us" -gt $(( prev + prev / 4 )) ] && [ $(( us - prev )) -ge 5000 ]; then
            regressed+=("$bin: ${prev} us -> ${us} us ($delta)")
        fi
    fi
    printf '%-28s %9d us  [%d, %d]  %s\n' "$bin" "$us" "${sorted[0]}" \
        "${sorted[$(( n - 1 ))]}" "$delta" >&2
}

# Per-experiment walls come from the suite's own stopwatch: it prints one
# `<experiment> <µs>` line per report, in registry order, which is also
# the snapshot's entry order. The suite_total samples time each whole
# run from the shell, fork-free.
totals=()
for k in $(seq 1 "$samples"); do
    mkdir "$tmpdir/run$k"
    start_us="$(now_us)"
    if ! target/release/ia-bench suite --quick --threads "$threads" \
            --json-dir "$tmpdir/run$k" > "$tmpdir/walls$k.txt"; then
        echo "FAILED: ia-bench suite (run $k)" >&2
        failed+=("ia-bench suite")
        break
    fi
    totals+=($(( $(now_us) - start_us )))
done
bins=()
if [ "${#failed[@]}" -eq 0 ]; then
    while IFS=' ' read -r bin _; do
        bins+=("$bin")
    done < "$tmpdir/walls1.txt"
    for bin in "${bins[@]}"; do
        for k in $(seq 2 "$samples"); do
            if ! cmp -s "$tmpdir/run1/$bin.json" "$tmpdir/run$k/$bin.json"; then
                echo "FAILED: $bin: run $k wrote different report bytes than run 1" >&2
                failed+=("$bin determinism")
            fi
        done
        record "$bin" $(sed -n "s/^$bin \([0-9]*\)\$/\1/p" "$tmpdir"/walls[0-9]*.txt)
    done
    # The headline row perf work optimizes against: the whole suite, same
    # units and file as the per-experiment rows.
    record "suite_total" "${totals[@]}"
fi

# Per-op microbenches: byte-stable JSON (checksums, no timing) to
# BENCH_MICRO.json; the ns/op table goes to stderr for humans.
micro_start_us="$(now_us)"
if ! target/release/microbench --iters 4096 --k 5 --json "$micro.tmp" >&2; then
    echo "FAILED: microbench" >&2
    failed+=("microbench")
else
    mv "$micro.tmp" "$micro"
fi
micro_end_us="$(now_us)"
record "microbench" $(( micro_end_us - micro_start_us ))

if [ "${#failed[@]}" -gt 0 ]; then
    echo "aborting: ${#failed[@]} step(s) failed: ${failed[*]}" >&2
    exit 1
fi

echo "[" > "$out.tmp"
first=1
for bin in "${bins[@]}"; do
    if [ "$first" -eq 0 ]; then
        echo "," >> "$out.tmp"
    fi
    first=0
    # Each report is a single JSON object terminated by a newline.
    printf '%s' "$(cat "$tmpdir/run1/$bin.json")" >> "$out.tmp"
done
echo "" >> "$out.tmp"
echo "]" >> "$out.tmp"
mv "$out.tmp" "$out"

# Wall-clock side file: nondeterministic by nature, so it is written
# separately and must never be folded into BENCH_PR.json.
{
    echo "["
    sep=""
    for i in "${!names[@]}"; do
        printf '%s  {"bin": "%s", "wall_us": %d, "min_us": %d, "max_us": %d}' "$sep" \
            "${names[$i]}" "${walls[$i]}" "${mins[$i]}" "${maxs[$i]}"
        sep=",
"
    done
    echo ""
    echo "]"
} > "$wall.tmp"
mv "$wall.tmp" "$wall"

echo "wrote $out (${#bins[@]} experiments, --threads $threads)" >&2
echo "wrote $wall (per-experiment wall-clock, median of $samples runs, host-dependent)" >&2
echo "wrote $micro (deterministic per-op checksums)" >&2

if [ "${#regressed[@]}" -gt 0 ]; then
    echo "" >&2
    echo "WALL REGRESSION: ${#regressed[@]} bin(s) regressed >25% (medians) vs the previous BENCH_WALL.json:" >&2
    for r in "${regressed[@]}"; do
        echo "  $r" >&2
    done
    exit 1
fi
