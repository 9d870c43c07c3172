//! Experiment binary for `ia_bench::exp07_bdi`.
//!
//! Prints the human-readable table; `--quick` shrinks the run,
//! `--threads <n>` sets the parallel-sweep worker count (`1` = the
//! exact serial path), and `--json <path>` / `--csv <path>` write the
//! machine-readable report.

fn main() {
    ia_bench::report::cli(ia_bench::exp07_bdi::report);
}
