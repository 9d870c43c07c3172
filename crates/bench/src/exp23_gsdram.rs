//! **E23 — Gather-Scatter DRAM.**
//!
//! Paper citation \[24\] (Seshadri+, MICRO 2015): in-DRAM address
//! translation makes non-unit-strided access pattern-dense on the
//! channel. Expected shape: traffic/energy reduction approaching the
//! stride factor for large strides, nothing for dense access.

use ia_core::Table;
use ia_dram::DramConfig;
use ia_pum::{conventional_gather, gather_elements, gs_dram_gather};

use crate::pct;
use crate::report::{Error, ExperimentReport};

/// Gathers 8-byte elements at strides from 8 B to 256 B, conventionally
/// and through GS-DRAM; the headline is the largest traffic cut.
pub fn report(quick: bool) -> Result<ExperimentReport, Error> {
    // Functional sanity: the hardware paths compute the same gather.
    let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    if gather_elements(&data, 64, 8, 64)?.len() != 512 {
        return Err("functional gather returned the wrong element count".into());
    }

    let elements = if quick { 10_000 } else { 100_000 };
    let cfg = DramConfig::ddr3_1600();
    let mut efficiency = Table::new(&["stride (8B elements)", "channel efficiency (conv -> GS)"]);
    let mut rep = ExperimentReport::new("exp23_gsdram", quick).columns(&[
        "stride",
        "conventional_bytes",
        "gsdram_bytes",
        "traffic_cut",
        "efficiency_gain",
    ]);
    let mut max_cut = 0.0f64;
    for stride in [8u64, 16, 32, 64, 128, 256] {
        let conv = conventional_gather(&cfg, elements, 8, stride)?;
        let gs = gs_dram_gather(&cfg, elements, 8, stride)?;
        let cut = conv.bytes_moved as f64 / gs.bytes_moved as f64;
        let energy_cut = conv.io_energy_pj / gs.io_energy_pj;
        max_cut = max_cut.max(cut);
        efficiency.row(&[
            format!("{stride} B"),
            format!("{} -> {}", pct(conv.efficiency()), pct(gs.efficiency())),
        ]);
        rep = rep.row(&[
            stride.to_string(),
            conv.bytes_moved.to_string(),
            gs.bytes_moved.to_string(),
            format!("{cut:.4}"),
            format!("{energy_cut:.4}"),
        ]);
    }
    Ok(rep.metric("max_traffic_cut", max_cut).caption(format!(
        "E23: Gather-Scatter DRAM on strided (array-of-structs field) access\n\
         (paper shape: traffic and I/O energy cut approaching the stride factor)\n\
         headline: max traffic cut {max_cut:.2}x\n{efficiency}\n"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(stride, traffic cut, energy cut)` per table row.
    fn cuts() -> Vec<(u64, f64, f64)> {
        report(true)
            .unwrap()
            .rows
            .iter()
            .map(|r| {
                (
                    r[0].parse().unwrap(),
                    r[3].parse().unwrap(),
                    r[4].parse().unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn traffic_cut_tracks_the_stride() {
        for (stride, cut, energy_cut) in cuts() {
            if stride >= 64 {
                // The cut saturates at line/element = 8x: once each element
                // drags exactly one line, a larger stride adds no waste.
                let factor = (stride.min(64) / 8) as f64;
                assert!(
                    cut > factor * 0.7,
                    "stride {stride}: cut {cut:.1} should approach {factor:.0}"
                );
                assert!(energy_cut > factor * 0.7);
            }
        }
    }

    #[test]
    fn cuts_are_monotone_in_stride() {
        let s = cuts();
        for w in s.windows(2) {
            assert!(w[1].1 >= w[0].1 * 0.99, "larger stride, larger cut: {w:?}");
        }
    }

    #[test]
    fn report_renders() {
        assert!(report(true).unwrap().to_text().contains("traffic cut"));
    }
}
