//! RowClone (Seshadri+, MICRO 2013) and LISA (Chang+, HPCA 2016): bulk
//! data copy inside DRAM, without moving a byte over the memory channel.
//!
//! Three mechanisms, in decreasing speed:
//!
//! * **FPM** (Fast Parallel Mode): back-to-back activates in the same
//!   subarray copy an entire row through the shared sense amplifiers —
//!   one AAP (ACTIVATE-ACTIVATE-PRECHARGE) sequence per row.
//! * **LISA** inter-subarray copy: row-buffer movement across linked
//!   subarrays, a few cycles per subarray hop.
//! * **PSM** (Pipelined Serial Mode): cache-line-at-a-time transfer over
//!   the internal bus between banks.
//!
//! The baseline is a conventional CPU copy: every line crosses the channel
//! twice (read + write), paying off-chip I/O energy both ways.

use ia_dram::{AccessKind, Cycle, DramModule, PhysAddr};

use crate::PumError;

/// The copy mechanism used for a bulk copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CopyMode {
    /// In-subarray row copy (RowClone-FPM).
    Fpm,
    /// Cross-subarray copy via linked subarrays (LISA).
    Lisa,
    /// Inter-bank pipelined serial copy (RowClone-PSM).
    Psm,
    /// Conventional copy through the CPU and memory channel.
    Cpu,
}

/// Outcome of a bulk copy: time and energy spent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CopyReport {
    /// Mechanism used.
    pub mode: CopyMode,
    /// Bytes copied.
    pub bytes: u64,
    /// Total latency in DRAM cycles.
    pub cycles: u64,
    /// Total latency in nanoseconds.
    pub ns: f64,
    /// Dynamic energy in picojoules.
    pub energy_pj: f64,
}

/// Cycles for one AAP (ACTIVATE → ACTIVATE → PRECHARGE) primitive.
fn aap_cycles(dram: &DramModule) -> u64 {
    let t = dram.config().timing;
    2 * t.t_ras + t.t_rp
}

/// Performs a bulk copy of `bytes` from `src` to `dst` and accounts its
/// timing/energy on the module. Returns the report.
///
/// Rows are copied whole; `bytes` is rounded up to row (FPM/LISA/PSM) or
/// line (CPU) granularity.
///
/// # Errors
///
/// Returns [`PumError`] if `bytes == 0`, or if the chosen in-DRAM mode is
/// physically impossible for the address pair: FPM requires the same bank
/// **and** subarray, LISA the same bank, PSM a different bank. Propagates
/// [`ia_dram::IssueError`] from the underlying module on CPU copies.
pub fn bulk_copy(
    dram: &mut DramModule,
    src: PhysAddr,
    dst: PhysAddr,
    bytes: u64,
    mode: CopyMode,
) -> Result<CopyReport, PumError> {
    if bytes == 0 {
        return Err(PumError::invalid("cannot copy zero bytes"));
    }
    let src_loc = dram.decode(src);
    let dst_loc = dram.decode(dst);
    let geo = dram.config().geometry;
    let energy = dram.config().energy;
    let timing = dram.config().timing;
    let rows = bytes.div_ceil(geo.row_bytes);

    let report = match mode {
        CopyMode::Fpm => {
            if !src_loc.same_bank(&dst_loc) || src_loc.subarray != dst_loc.subarray {
                return Err(PumError::invalid("FPM requires same bank and subarray"));
            }
            let cycles = rows * aap_cycles(dram);
            // Two activates + one precharge per row, no I/O.
            let energy_pj = rows as f64 * 2.0 * energy.act_pre_pj;
            let e = dram.energy_mut();
            e.act_pre_pj += rows as f64 * 2.0 * energy.act_pre_pj;
            e.activates += 2 * rows;
            CopyReport {
                mode,
                bytes,
                cycles,
                ns: cycles as f64 * timing.tck_ns(),
                energy_pj,
            }
        }
        CopyMode::Lisa => {
            if !src_loc.same_bank(&dst_loc) {
                return Err(PumError::invalid("LISA requires the same bank"));
            }
            let hops = src_loc.subarray.abs_diff(dst_loc.subarray).max(1) as u64;
            // Row-buffer movement: one activate, then ~4 cycles per hop,
            // then restore + precharge.
            let per_row = timing.t_ras + 4 * hops + timing.t_ras + timing.t_rp;
            let cycles = rows * per_row;
            let energy_pj = rows as f64 * (2.0 * energy.act_pre_pj + hops as f64 * 100.0);
            let e = dram.energy_mut();
            e.act_pre_pj += rows as f64 * 2.0 * energy.act_pre_pj;
            e.array_pj += rows as f64 * hops as f64 * 100.0;
            e.activates += 2 * rows;
            CopyReport {
                mode,
                bytes,
                cycles,
                ns: cycles as f64 * timing.tck_ns(),
                energy_pj,
            }
        }
        CopyMode::Psm => {
            if src_loc.same_bank(&dst_loc) {
                return Err(PumError::invalid("PSM requires different banks"));
            }
            let lines = bytes.div_ceil(geo.column_bytes);
            // Open both rows once per row-sized chunk, then pipeline lines
            // over the internal bus (one tCCD per line, overlapped).
            let cycles =
                rows * (2 * timing.t_rcd + timing.t_ras + timing.t_rp) + lines * timing.t_ccd;
            // Internal array reads+writes, no off-chip I/O.
            let energy_pj = rows as f64 * 2.0 * energy.act_pre_pj
                + lines as f64 * (energy.read_pj + energy.write_pj);
            let e = dram.energy_mut();
            e.act_pre_pj += rows as f64 * 2.0 * energy.act_pre_pj;
            e.array_pj += lines as f64 * (energy.read_pj + energy.write_pj);
            e.activates += 2 * rows;
            e.bursts += 2 * lines;
            CopyReport {
                mode,
                bytes,
                cycles,
                ns: cycles as f64 * timing.tck_ns(),
                energy_pj,
            }
        }
        CopyMode::Cpu => {
            // A real memcpy streams reads into the cache hierarchy, then
            // streams the writes back — reads and writes each pipeline at
            // burst rate rather than alternating with bus turnarounds.
            let lines = bytes.div_ceil(geo.column_bytes);
            let before = *dram.energy();
            let start = Cycle::ZERO;
            let mut last = start;
            for l in 0..lines {
                let offset = l * geo.column_bytes;
                let r = dram
                    .access(src.offset(offset), AccessKind::Read, start)
                    .map_err(PumError::Issue)?;
                last = last.max(r.data_ready);
            }
            for l in 0..lines {
                let offset = l * geo.column_bytes;
                let w = dram
                    .access(dst.offset(offset), AccessKind::Write, last)
                    .map_err(PumError::Issue)?;
                last = last.max(w.data_ready);
            }
            // Drain the final write recovery.
            let end = last + timing.t_wr;
            let cycles = end - start;
            let energy_pj = dram.energy().dynamic_pj() - before.dynamic_pj();
            CopyReport {
                mode,
                bytes,
                cycles,
                ns: cycles as f64 * timing.tck_ns(),
                energy_pj,
            }
        }
    };
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_dram::DramConfig;

    fn dram() -> DramModule {
        DramModule::new(DramConfig::ddr3_1600()).unwrap()
    }

    /// Byte distance between consecutive rows of the same bank under the
    /// default row-interleaved mapping.
    fn row_stride(d: &DramModule) -> u64 {
        let g = d.config().geometry;
        g.row_bytes * (g.banks_per_group * g.bank_groups * g.ranks * g.channels) as u64
    }

    #[test]
    fn fpm_requires_same_subarray() {
        let mut d = dram();
        let stride = row_stride(&d);
        // Row 0 and row 1 share subarray 0 (512 rows per subarray).
        let r = bulk_copy(
            &mut d,
            PhysAddr::new(0),
            PhysAddr::new(stride),
            8192,
            CopyMode::Fpm,
        );
        assert!(r.is_ok());
        // Row 0 and row 600 are in different subarrays.
        let far = bulk_copy(
            &mut d,
            PhysAddr::new(0),
            PhysAddr::new(600 * stride),
            8192,
            CopyMode::Fpm,
        );
        assert!(far.is_err());
        // Different banks are also rejected.
        let other_bank = bulk_copy(
            &mut d,
            PhysAddr::new(0),
            PhysAddr::new(8192),
            8192,
            CopyMode::Fpm,
        );
        assert!(other_bank.is_err());
    }

    #[test]
    fn fpm_is_an_order_of_magnitude_faster_than_cpu_copy() {
        let stride = row_stride(&dram());
        let mut d1 = dram();
        let fpm = bulk_copy(
            &mut d1,
            PhysAddr::new(0),
            PhysAddr::new(stride),
            8192,
            CopyMode::Fpm,
        )
        .unwrap();
        let mut d2 = dram();
        let cpu = bulk_copy(
            &mut d2,
            PhysAddr::new(0),
            PhysAddr::new(stride),
            8192,
            CopyMode::Cpu,
        )
        .unwrap();
        let speedup = cpu.ns / fpm.ns;
        assert!(speedup > 8.0, "FPM speedup {speedup:.1}x should be ~11x");
        assert!(speedup < 40.0, "speedup {speedup:.1}x suspiciously high");
    }

    #[test]
    fn fpm_saves_more_energy_than_latency() {
        let stride = row_stride(&dram());
        let mut d1 = dram();
        let fpm = bulk_copy(
            &mut d1,
            PhysAddr::new(0),
            PhysAddr::new(stride),
            8192,
            CopyMode::Fpm,
        )
        .unwrap();
        let mut d2 = dram();
        let cpu = bulk_copy(
            &mut d2,
            PhysAddr::new(0),
            PhysAddr::new(stride),
            8192,
            CopyMode::Cpu,
        )
        .unwrap();
        let energy_ratio = cpu.energy_pj / fpm.energy_pj;
        let latency_ratio = cpu.ns / fpm.ns;
        assert!(
            energy_ratio > latency_ratio,
            "energy savings ({energy_ratio:.0}x) should exceed latency savings ({latency_ratio:.0}x)"
        );
        assert!(
            energy_ratio > 30.0,
            "expected tens-of-x energy reduction, got {energy_ratio:.0}x"
        );
    }

    #[test]
    fn psm_is_slower_than_fpm_but_faster_than_cpu() {
        let stride = row_stride(&dram());
        let mut d = dram();
        let fpm = bulk_copy(
            &mut d,
            PhysAddr::new(0),
            PhysAddr::new(stride),
            8192,
            CopyMode::Fpm,
        )
        .unwrap();
        // PSM: copy to a different bank (address 8192 lands in bank 1).
        let psm = bulk_copy(
            &mut d,
            PhysAddr::new(0),
            PhysAddr::new(8192),
            8192,
            CopyMode::Psm,
        )
        .unwrap();
        let mut d2 = dram();
        let cpu = bulk_copy(
            &mut d2,
            PhysAddr::new(0),
            PhysAddr::new(8192),
            8192,
            CopyMode::Cpu,
        )
        .unwrap();
        assert!(fpm.cycles < psm.cycles);
        assert!(psm.cycles < cpu.cycles);
    }

    #[test]
    fn psm_rejects_same_bank() {
        let mut d = dram();
        let stride = row_stride(&d);
        assert!(bulk_copy(
            &mut d,
            PhysAddr::new(0),
            PhysAddr::new(stride),
            64,
            CopyMode::Psm
        )
        .is_err());
    }

    #[test]
    fn lisa_cost_grows_with_subarray_distance() {
        let mut d = dram();
        let stride = row_stride(&d);
        let near = bulk_copy(
            &mut d,
            PhysAddr::new(0),
            PhysAddr::new(512 * stride), // subarray 1
            8192,
            CopyMode::Lisa,
        )
        .unwrap();
        let far = bulk_copy(
            &mut d,
            PhysAddr::new(0),
            PhysAddr::new(512 * 32 * stride), // subarray 32
            8192,
            CopyMode::Lisa,
        )
        .unwrap();
        assert!(far.cycles > near.cycles);
    }

    #[test]
    fn lisa_rejects_cross_bank() {
        let mut d = dram();
        assert!(bulk_copy(
            &mut d,
            PhysAddr::new(0),
            PhysAddr::new(8192),
            64,
            CopyMode::Lisa
        )
        .is_err());
    }

    #[test]
    fn cpu_copy_pays_io_energy() {
        let mut d = dram();
        let before_io = d.energy().io_pj;
        bulk_copy(
            &mut d,
            PhysAddr::new(0),
            PhysAddr::new(1 << 22),
            4096,
            CopyMode::Cpu,
        )
        .unwrap();
        assert!(
            d.energy().io_pj > before_io,
            "CPU copy must cross the channel"
        );
    }

    #[test]
    fn in_dram_copies_pay_no_io_energy() {
        let mut d = dram();
        let stride = row_stride(&d);
        bulk_copy(
            &mut d,
            PhysAddr::new(0),
            PhysAddr::new(stride),
            8192,
            CopyMode::Fpm,
        )
        .unwrap();
        assert_eq!(d.energy().io_pj, 0.0);
    }

    #[test]
    fn zero_bytes_is_an_error() {
        let mut d = dram();
        assert!(bulk_copy(
            &mut d,
            PhysAddr::new(0),
            PhysAddr::new(64),
            0,
            CopyMode::Cpu
        )
        .is_err());
    }

    #[test]
    fn bandwidth_reported() {
        let mut d = dram();
        let stride = row_stride(&d);
        let r = bulk_copy(
            &mut d,
            PhysAddr::new(0),
            PhysAddr::new(stride),
            64 * 1024,
            CopyMode::Fpm,
        )
        .unwrap();
        assert!(
            r.bytes as f64 / r.ns * 1e9 / (1u64 << 30) as f64 > 10.0,
            "in-DRAM copy should exceed 10 GiB/s"
        );
    }
}
