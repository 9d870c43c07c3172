//! # ia-bench — experiment harness
//!
//! One module per experiment in DESIGN.md's index (E1–E24). Each module
//! exposes one entry point, `report(quick) -> Result<ExperimentReport,
//! Error>`, that runs the experiment once and returns its params,
//! metrics, result table and caption; the table is the one recorded in
//! `EXPERIMENTS.md`. [`EXPERIMENTS`] maps every binary name to its
//! report function. The `expNN_*` binaries route it through
//! [`report::cli`] (`--quick`, `--threads <n>`, `--json <path>`,
//! `--csv <path>`), and the integration tests assert the qualitative
//! shape on `report(true)`. Independent-configuration sweeps fan out on
//! the `ia-par` worker pool; reports are byte-identical at every
//! `--threads` setting (see `tests/parallel_determinism.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exp01_data_movement;
pub mod exp02_rowclone;
pub mod exp03_ambit;
pub mod exp04_rl_memctrl;
pub mod exp05_scheduler_suite;
pub mod exp06_raidr;
pub mod exp07_bdi;
pub mod exp08_pnm_graph;
pub mod exp09_pointer_chase;
pub mod exp10_rowhammer;
pub mod exp11_grim_filter;
pub mod exp12_xmem;
pub mod exp13_low_latency_dram;
pub mod exp14_hybrid_memory;
pub mod exp15_perceptron;
pub mod exp16_ablation;
pub mod exp17_prefetchers;
pub mod exp18_noc;
pub mod exp19_salp;
pub mod exp20_eden;
pub mod exp21_memscale;
pub mod exp22_runahead;
pub mod exp23_gsdram;
pub mod exp24_fault_injection;

pub mod fuzz;
pub mod mixes;
pub mod replay;
pub mod report;

/// Every experiment, keyed by its standalone binary name (the names
/// `scripts/bench_snapshot.sh` derives from `crates/bench/src/bin/exp*.rs`).
pub const EXPERIMENTS: [(&str, report::ReportFn); 24] = [
    ("exp01_data_movement_energy", exp01_data_movement::report),
    ("exp02_rowclone", exp02_rowclone::report),
    ("exp03_ambit_bitwise", exp03_ambit::report),
    ("exp04_rl_memctrl", exp04_rl_memctrl::report),
    ("exp05_scheduler_suite", exp05_scheduler_suite::report),
    ("exp06_raidr", exp06_raidr::report),
    ("exp07_bdi", exp07_bdi::report),
    ("exp08_pnm_graph", exp08_pnm_graph::report),
    ("exp09_pointer_chase", exp09_pointer_chase::report),
    ("exp10_rowhammer", exp10_rowhammer::report),
    ("exp11_grim_filter", exp11_grim_filter::report),
    ("exp12_xmem", exp12_xmem::report),
    ("exp13_low_latency_dram", exp13_low_latency_dram::report),
    ("exp14_hybrid_memory", exp14_hybrid_memory::report),
    ("exp15_perceptron", exp15_perceptron::report),
    ("exp16_principles_ablation", exp16_ablation::report),
    ("exp17_prefetchers", exp17_prefetchers::report),
    ("exp18_noc", exp18_noc::report),
    ("exp19_salp", exp19_salp::report),
    ("exp20_eden", exp20_eden::report),
    ("exp21_memscale", exp21_memscale::report),
    ("exp22_runahead", exp22_runahead::report),
    ("exp23_gsdram", exp23_gsdram::report),
    ("exp24_fault_injection", exp24_fault_injection::report),
];

/// Formats a ratio as `N.NNx`.
#[must_use]
pub fn ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "inf".to_owned()
    } else {
        format!("{:.2}x", a / b)
    }
}

/// Formats a fraction as a percentage.
#[must_use]
pub fn pct(f: f64) -> String {
    format!("{:.1}%", f * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(4.0, 2.0), "2.00x");
        assert_eq!(ratio(1.0, 0.0), "inf");
        assert_eq!(pct(0.627), "62.7%");
    }
}
