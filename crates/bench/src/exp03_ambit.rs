//! **E3 — Ambit bulk bitwise operations.**
//!
//! Paper claim (§IV): in-DRAM bulk bitwise execution yields large
//! throughput and energy gains over moving data to the CPU — the original
//! reports ~32x average throughput and 25-60x energy across operations.

use ia_dram::DramConfig;
use ia_pum::{cpu_bitwise_baseline, AmbitEngine, BitwiseOp};

use crate::ratio;
use crate::report::{Error, ExperimentReport};

/// Runs the seven operations on 8 MiB vectors (1 MiB in quick mode);
/// the headline is the geometric-mean throughput and energy gain.
pub fn report(quick: bool) -> Result<ExperimentReport, Error> {
    let bytes: u64 = if quick { 1 << 20 } else { 8 << 20 };
    let cfg = DramConfig::ddr3_1600();
    let engine = AmbitEngine::new(&cfg);
    let mut rep = ExperimentReport::new("exp03_ambit", quick)
        .param("vector_bytes", bytes)
        .columns(&[
            "op",
            "AAPs/row",
            "Ambit GB/s",
            "CPU GB/s",
            "throughput gain",
            "energy gain",
        ]);
    let ops = BitwiseOp::all();
    let mut tp = 1.0f64;
    let mut en = 1.0f64;
    for op in ops {
        let in_dram = engine.throughput_gb_s(op);
        let (cpu_ns, cpu_pj) = cpu_bitwise_baseline(&cfg, op, bytes);
        let energy_gain = cpu_pj / (engine.energy_pj_per_byte(op) * bytes as f64);
        tp *= cpu_ns / (bytes as f64 / in_dram);
        en *= energy_gain;
        let cpu_gbps = bytes as f64 / cpu_ns;
        rep = rep.row(&[
            op.name().to_owned(),
            op.aap_count().to_string(),
            format!("{in_dram:.1}"),
            format!("{cpu_gbps:.1}"),
            ratio(in_dram, cpu_gbps),
            format!("{energy_gain:.1}x"),
        ]);
    }
    let mean_throughput_gain = tp.powf(1.0 / ops.len() as f64);
    let mean_energy_gain = en.powf(1.0 / ops.len() as f64);
    Ok(rep
        .metric("mean_throughput_gain", mean_throughput_gain)
        .metric("mean_energy_gain", mean_energy_gain)
        .caption(format!(
            "E3: Ambit in-DRAM bulk bitwise ops, {} MiB vectors, {} banks in parallel\n\
             (paper: ~32x average throughput, 25-60x energy vs processor-centric)\n\
             geomean: {mean_throughput_gain:.1}x throughput, {mean_energy_gain:.1}x energy",
            bytes >> 20,
            engine.parallelism(),
        )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gains_match_paper_shape() {
        let rep = report(true).unwrap();
        let tp = rep.metric_value("mean_throughput_gain").unwrap();
        assert!(
            tp > 10.0,
            "mean throughput gain {tp:.1} should be tens of x"
        );
        assert!(rep.metric_value("mean_energy_gain").unwrap() > 10.0);
    }

    #[test]
    fn table_lists_all_ops() {
        let s = report(true).unwrap().to_text();
        for op in BitwiseOp::all() {
            assert!(s.contains(op.name()));
        }
    }
}
