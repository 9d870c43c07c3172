#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Run from the repository root before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== ia-lint (determinism & invariant gate, timed against its 2 s budget)"
# Build first so only the scan itself is timed; timestamps come from the
# $EPOCHREALTIME builtin (no `date` forks), as in bench_snapshot.sh.
cargo build -q -p ia-lint
now_ms() {
    local t=$EPOCHREALTIME
    echo $(( ${t%.*} * 1000 + 10#${t#*.} / 1000 ))
}
lint_start_ms="$(now_ms)"
target/debug/ia-lint --check
lint_ms=$(( $(now_ms) - lint_start_ms ))
echo "ia-lint --check: ${lint_ms} ms"
if [ "$lint_ms" -ge 2000 ]; then
    echo "ia-lint --check blew its 2 s wall budget (${lint_ms} ms)"; exit 1
fi
# Fold the lint wall time into BENCH_WALL.json as its own row, replacing
# any previous ia_lint_check entry and keeping the suite rows intact
# (bench_snapshot.sh owns the file and rewrites it wholesale on its runs).
wall="BENCH_WALL.json"
wall_rows=()
if [ -f "$wall" ]; then
    while IFS=' ' read -r bin ms; do
        [ "$bin" = "ia_lint_check" ] && continue
        wall_rows+=("$bin $ms")
    done < <(sed -n 's/.*"bin": "\([^"]*\)", "wall_ms": \([0-9]*\).*/\1 \2/p' "$wall")
fi
wall_rows+=("ia_lint_check $lint_ms")
{
    echo "["
    sep=""
    for r in "${wall_rows[@]}"; do
        printf '%s  {"bin": "%s", "wall_ms": %d}' "$sep" "${r% *}" "${r#* }"
        sep=",
"
    done
    echo ""
    echo "]"
} > "$wall.tmp"
mv "$wall.tmp" "$wall"

echo "== cargo test"
cargo test -q --workspace

echo "== parallel determinism (all 24 reports at --threads 1/2/4, traces at 1/4)"
cargo test -q --test parallel_determinism
echo "== parallel determinism, one test at a time"
cargo test -q --test parallel_determinism -- --test-threads 1
echo "== parallel determinism, each test alone (green in any order)"
for t in $(cargo test -q --test parallel_determinism -- --list 2>/dev/null \
        | sed -n 's/: test$//p'); do
    cargo test -q --test parallel_determinism -- --exact "$t"
done

echo "== --threads 2 smoke run (exercises the multi-worker pool on any host)"
cargo run -q -p ia-bench --bin exp05_scheduler_suite -- --quick --threads 2 > /dev/null

echo "== trace smoke (--trace output byte-identical across --threads)"
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
cargo run -q -p ia-bench --bin exp05_scheduler_suite -- \
    --quick --threads 1 --trace "$trace_dir/t1.json" > /dev/null
cargo run -q -p ia-bench --bin exp05_scheduler_suite -- \
    --quick --threads 4 --trace "$trace_dir/t4.json" > /dev/null
diff "$trace_dir/t1.json" "$trace_dir/t4.json"

echo "== fault-injection campaign (detect -> correct -> degrade loop)"
cargo run -q -p ia-bench --bin exp24_fault_injection -- --quick > /dev/null

echo "== fuzz smoke (64 fixed-seed cases, 7 schedulers x 3 ladders, 4 oracles)"
fuzz_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir" "$fuzz_dir"' EXIT
cargo run -q -p ia-bench --bin fuzz_stack -- \
    --cases 64 --repro-dir "$fuzz_dir" > /dev/null

echo "== fuzz self-test (injected miscorrection is caught and minimized)"
if cargo run -q -p ia-bench --bin fuzz_stack -- \
    --cases 1 --inject-violation --repro-dir "$fuzz_dir" > "$fuzz_dir/inject.txt"; then
    echo "fuzz self-test: injected violation was NOT caught"; exit 1
fi
grep -q "no-silent-corruption" "$fuzz_dir/inject.txt" \
    || { echo "fuzz self-test: wrong oracle"; cat "$fuzz_dir/inject.txt"; exit 1; }
test -f "$fuzz_dir"/fuzz-case0000.trace \
    || { echo "fuzz self-test: repro artifact missing"; exit 1; }

echo "== record/replay determinism (replayed exp05 byte-identical to recorded run)"
cargo run -q -p ia-bench --bin exp05_scheduler_suite -- \
    --quick --record-trace "$fuzz_dir/e5.trace" > "$fuzz_dir/rec.txt"
cargo run -q -p ia-bench --bin exp05_scheduler_suite -- \
    --quick --replay-trace "$fuzz_dir/e5.trace" > "$fuzz_dir/rep.txt"
diff "$fuzz_dir/rec.txt" "$fuzz_dir/rep.txt"

echo "== SimLoop watchdog (stalled components become structured errors)"
cargo test -q -p ia-sim watchdog

echo "== event wheel vs per-cycle scan (order-equivalence property)"
cargo test -q -p ia-sim --test wheel_equivalence

echo "== split DRAM gates recombine exactly (DDR3, DDR4, LPDDR4, 2-rank)"
cargo test -q -p ia-dram --test gate_split

echo "== indexed ready-lists + gate cache vs linear scan (pick equivalence, exact wake-up bound after resync)"
cargo test -q -p ia-memctrl --test scheduler_queue_equivalence

echo "== engine skip exactness (event-driven runs == per-cycle oracle, faults included)"
cargo test -q -p ia-memctrl --test properties

echo "== simulator benchmark gate self-tests (every job's digest against simbench/pins.txt)"
cargo test --release --offline --manifest-path simbench/Cargo.toml

echo "== microbench smoke (--iters 1 run + JSON schema check)"
micro_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir" "$fuzz_dir" "$micro_dir"' EXIT
cargo run -q -p ia-microbench --bin microbench -- \
    --iters 1 --k 2 --json "$micro_dir/micro.json" > /dev/null
# Schema: a non-empty array of {bench, iters, ops, checksum} objects.
for key in bench iters ops checksum; do
    grep -q "\"$key\":" "$micro_dir/micro.json" \
        || { echo "BENCH_MICRO schema: missing key $key"; exit 1; }
done

echo "== warm-fork vs cold construction (snapshot bit-identity)"
cargo test -q -p ia-memctrl --test snapshot_fork
fork_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir" "$fuzz_dir" "$micro_dir" "$fork_dir"' EXIT
# The warm-forked exp05 must emit byte-identical reports on back-to-back
# runs: every sweep cell forks one warm controller, so a fork must behave
# exactly like a cold-built one.
cargo run -q -p ia-bench --bin exp05_scheduler_suite -- \
    --quick --json "$fork_dir/a.json" > /dev/null
cargo run -q -p ia-bench --bin exp05_scheduler_suite -- \
    --quick --json "$fork_dir/b.json" > /dev/null
diff "$fork_dir/a.json" "$fork_dir/b.json"

echo "CI gate passed."
