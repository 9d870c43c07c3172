#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Run from the repository root before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (broken intra-doc links are errors)"
# A deleted item that a doc comment still links to fails here.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc -q --workspace --no-deps

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

echo "== run isolation (determinism and trace tests side by side on 8 test threads: shared state would fail here)"
cargo test -q --test parallel_determinism -- --test-threads 8
cargo test -q -p ia-bench --test trace_profile -- --test-threads 8

echo "== --threads 2 smoke run (exercises the multi-worker pool on any host)"
cargo run -q -p ia-bench -- exp05_scheduler_suite --quick --threads 2 > /dev/null

echo "== trace smoke (--trace output byte-identical across --threads)"
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
cargo run -q -p ia-bench -- exp05_scheduler_suite \
    --quick --threads 1 --trace "$trace_dir/t1.json" > /dev/null
cargo run -q -p ia-bench -- exp05_scheduler_suite \
    --quick --threads 4 --trace "$trace_dir/t4.json" > /dev/null
diff "$trace_dir/t1.json" "$trace_dir/t4.json"

echo "== fault-injection campaign (detect -> correct -> degrade loop)"
cargo run -q -p ia-bench -- exp24_fault_injection --quick > /dev/null

echo "== fuzz smoke (64 fixed-seed cases, 7 schedulers x 3 ladders, 4 oracles)"
fuzz_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir" "$fuzz_dir"' EXIT
cargo run -q -p ia-bench -- fuzz \
    --cases 64 --repro-dir "$fuzz_dir" > /dev/null

echo "== fuzz self-test (injected miscorrection is caught and minimized)"
if cargo run -q -p ia-bench -- fuzz \
    --cases 1 --inject-violation --repro-dir "$fuzz_dir" > "$fuzz_dir/inject.txt"; then
    echo "fuzz self-test: injected violation was NOT caught"; exit 1
fi
grep -q "no-silent-corruption" "$fuzz_dir/inject.txt" \
    || { echo "fuzz self-test: wrong oracle"; cat "$fuzz_dir/inject.txt"; exit 1; }
test -f "$fuzz_dir"/fuzz-case0000.trace \
    || { echo "fuzz self-test: repro artifact missing"; exit 1; }

echo "== record/replay determinism (replayed exp05 byte-identical to recorded run)"
cargo run -q -p ia-bench -- exp05_scheduler_suite \
    --quick --record-trace "$fuzz_dir/e5.trace" > "$fuzz_dir/rec.txt"
cargo run -q -p ia-bench -- exp05_scheduler_suite \
    --quick --replay-trace "$fuzz_dir/e5.trace" > "$fuzz_dir/rep.txt"
diff "$fuzz_dir/rec.txt" "$fuzz_dir/rep.txt"

echo "== SimLoop watchdog (stalled components become structured errors)"
cargo test -q -p ia-sim watchdog

echo "== DRAM gates vs an independent per-command JEDEC reference (DDR3, DDR4, LPDDR4, 2-rank)"
cargo test -q -p ia-dram --test gate_split

echo "== NoC meshes vs reference loops (ordered deliveries, traces, 2×2…9×9)"
cargo test -q -p ia-noc --test mesh_reference

echo "== BLISS, PAR-BS and the closed-loop feed vs reference copies (4-thread mixes, 70 threads)"
cargo test -q -p ia-memctrl --test scheduler_reference

echo "== Q-agent vs reference copy (seeded streams, 1–4 tilings, ties, NaN/±inf features)"
cargo test -q -p ia-learn --test qagent_reference

echo "== indexed ready-lists + gate cache vs linear scan (pick equivalence, exact wake-up bound after resync)"
cargo test -q -p ia-memctrl --test scheduler_queue_equivalence

echo "== engine skip exactness (event-driven runs == per-cycle oracle, faults included)"
cargo test -q -p ia-memctrl --test properties

echo "== simulator benchmark gate self-tests (job 0 of each workload against simbench/pins.txt)"
# --locked: a dependency change in a crate simbench builds fails here
# instead of silently rewriting simbench/Cargo.lock.
cargo test --release --offline --locked --manifest-path simbench/Cargo.toml

echo "== simulator benchmark pins (every seed-1 job of all three workloads against simbench/pins.txt)"
# One short run per workload: every round runs every job, and at seed 1
# the gate checks each job's digest against its pin, so all 328 pins are
# checked. The last stdout line is the run's verdict object.
for w in sched_sweep fault_ladder noc_mesh; do
    sb_out="$(cargo run --release --offline --locked --quiet \
        --manifest-path simbench/Cargo.toml -- \
        --workload "$w" --seed 1 --seconds 1 --trace 0)" \
        || { echo "simbench $w: exited non-zero"; printf '%s\n' "$sb_out" | tail -n 5; exit 1; }
    printf '%s\n' "$sb_out" | tail -n 1 | grep -q '"correct":true' \
        || { echo "simbench $w: a job failed the gate"; printf '%s\n' "$sb_out" | tail -n 5; exit 1; }
done

echo "== microbench smoke (--iters 1 run + JSON schema check + bench set vs BENCH_MICRO.json)"
micro_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir" "$fuzz_dir" "$micro_dir"' EXIT
cargo run -q -p ia-microbench --bin microbench -- \
    --iters 1 --k 2 --json "$micro_dir/micro.json" > /dev/null
# Schema: a non-empty array of {bench, iters, ops, checksum} objects.
for key in bench iters ops checksum; do
    grep -q "\"$key\":" "$micro_dir/micro.json" \
        || { echo "BENCH_MICRO schema: missing key $key"; exit 1; }
done
# Every registered kernel has a checksum row in BENCH_MICRO.json, and
# every row there belongs to a registered kernel.
bench_names() { grep -o '"bench": *"[^"]*"' "$1" | sed 's/.*"\([^"]*\)"$/\1/' | sort; }
if ! diff <(bench_names BENCH_MICRO.json) <(bench_names "$micro_dir/micro.json"); then
    echo "BENCH_MICRO.json bench set differs from the registered kernels (< file, > run);"
    echo "regenerate it with: cargo run --release -p ia-microbench -- --iters 4096 --k 5 --json BENCH_MICRO.json"
    exit 1
fi

echo "== warm-fork vs cold construction (snapshot bit-identity)"
cargo test -q -p ia-memctrl --test snapshot_fork
fork_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir" "$fuzz_dir" "$micro_dir" "$fork_dir"' EXIT
# The warm-forked exp05 must emit byte-identical reports on back-to-back
# runs: every sweep cell forks one warm controller, so a fork must behave
# exactly like a cold-built one.
cargo run -q -p ia-bench -- exp05_scheduler_suite \
    --quick --json "$fork_dir/a.json" > /dev/null
cargo run -q -p ia-bench -- exp05_scheduler_suite \
    --quick --json "$fork_dir/b.json" > /dev/null
diff "$fork_dir/a.json" "$fork_dir/b.json"

echo "== full-size reports byte-identical at --threads 1 and 2 (all 24, no --quick)"
full_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir" "$fuzz_dir" "$micro_dir" "$fork_dir" "$full_dir"' EXIT
mkdir "$full_dir/t1" "$full_dir/t2"
cargo build -q --release -p ia-bench
target/release/ia-bench suite --threads 1 --json-dir "$full_dir/t1" > /dev/null
target/release/ia-bench suite --threads 2 --json-dir "$full_dir/t2" > /dev/null
diff -r "$full_dir/t1" "$full_dir/t2"

echo "== reports unchanged (fresh BENCH_PR.json and BENCH_MICRO.json vs the committed files)"
# Written into a temp dir: with no previous BENCH_WALL.json beside the
# output, the snapshot's wall-regression warning cannot fire here.
snap_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir" "$fuzz_dir" "$micro_dir" "$fork_dir" "$full_dir" "$snap_dir"' EXIT
scripts/bench_snapshot.sh "$snap_dir/BENCH_PR.json" > /dev/null
cmp "$snap_dir/BENCH_PR.json" BENCH_PR.json \
    || { echo "BENCH_PR.json changed: a report byte moved"; exit 1; }
cmp "$snap_dir/BENCH_MICRO.json" BENCH_MICRO.json \
    || { echo "BENCH_MICRO.json changed: a microbench checksum or row moved"; exit 1; }

echo "CI gate passed."
