//! Device configuration: geometry, timing, and energy parameters, with
//! presets for common device generations and a builder for custom parts.

use std::fmt;

use crate::error::ConfigError;

/// Physical organization of a DRAM module.
///
/// # Examples
///
/// ```
/// use ia_dram::Geometry;
/// let geo = Geometry::default();
/// assert!(geo.capacity_bytes() > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    /// Independent memory channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Bank groups per rank (1 for pre-DDR4 parts).
    pub bank_groups: usize,
    /// Banks per bank group.
    pub banks_per_group: usize,
    /// Subarrays per bank (relevant to RowClone-FPM / LISA / SALP).
    pub subarrays_per_bank: usize,
    /// Rows per bank.
    pub rows_per_bank: u64,
    /// Row (page) size in bytes.
    pub row_bytes: u64,
    /// Column access granule in bytes (one burst, typically a cache line).
    pub column_bytes: u64,
}

impl Geometry {
    /// Total banks in the module across all channels/ranks/groups.
    #[must_use]
    pub fn total_banks(&self) -> usize {
        self.channels * self.ranks * self.bank_groups * self.banks_per_group
    }

    /// Banks per rank.
    #[must_use]
    pub fn banks_per_rank(&self) -> usize {
        self.bank_groups * self.banks_per_group
    }

    /// Columns (bursts) per row.
    #[must_use]
    pub fn columns_per_row(&self) -> u64 {
        crate::address::div(self.row_bytes, self.column_bytes)
    }

    /// Rows per subarray.
    #[must_use]
    pub fn rows_per_subarray(&self) -> u64 {
        crate::address::div(self.rows_per_bank, self.subarrays_per_bank as u64)
    }

    /// Subarray index holding the given row.
    #[must_use]
    pub fn subarray_of_row(&self, row: u64) -> usize {
        crate::address::div(row, self.rows_per_subarray()) as usize
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.total_banks() as u64 * self.rows_per_bank * self.row_bytes
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any dimension is zero, a size is not a
    /// power of two, or the row/column sizes are inconsistent.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let dims = [
            ("channels", self.channels),
            ("ranks", self.ranks),
            ("bank_groups", self.bank_groups),
            ("banks_per_group", self.banks_per_group),
            ("subarrays_per_bank", self.subarrays_per_bank),
        ];
        for (name, v) in dims {
            if v == 0 {
                return Err(ConfigError::zero_dimension(name));
            }
        }
        if self.rows_per_bank == 0 || self.row_bytes == 0 || self.column_bytes == 0 {
            return Err(ConfigError::zero_dimension("rows/row_bytes/column_bytes"));
        }
        for (name, v) in [
            ("rows_per_bank", self.rows_per_bank),
            ("row_bytes", self.row_bytes),
            ("column_bytes", self.column_bytes),
        ] {
            if !v.is_power_of_two() {
                return Err(ConfigError::not_power_of_two(name, v));
            }
        }
        if self.column_bytes > self.row_bytes {
            return Err(ConfigError::inconsistent("column_bytes exceeds row_bytes"));
        }
        if !self
            .rows_per_bank
            .is_multiple_of(self.subarrays_per_bank as u64)
        {
            return Err(ConfigError::inconsistent(
                "rows_per_bank must be divisible by subarrays_per_bank",
            ));
        }
        Ok(())
    }
}

impl Default for Geometry {
    /// A modest DDR4-like module: 1 channel × 1 rank × 4 groups × 4 banks,
    /// 32Ki rows of 8 KiB (4 GiB total), 64 subarrays per bank.
    fn default() -> Self {
        Geometry {
            channels: 1,
            ranks: 1,
            bank_groups: 4,
            banks_per_group: 4,
            subarrays_per_bank: 64,
            rows_per_bank: 32 * 1024,
            row_bytes: 8 * 1024,
            column_bytes: 64,
        }
    }
}

/// JEDEC-style timing parameters, in device clock cycles.
///
/// Only the constraints that matter at the command-scheduling level are
/// modelled; they are the ones that determine the latency and bandwidth
/// behaviour all the reproduced experiments rest on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimingParams {
    /// Clock period in nanoseconds.
    pub tck_ns_x1000: u64,
    /// ACT to column command (RAS-to-CAS delay).
    pub t_rcd: u64,
    /// Column read command to first data (CAS latency).
    pub t_cl: u64,
    /// Column write command to first data (write latency).
    pub t_cwl: u64,
    /// PRE to ACT on the same bank.
    pub t_rp: u64,
    /// ACT to PRE on the same bank (row restoration).
    pub t_ras: u64,
    /// Write recovery: last write data to PRE.
    pub t_wr: u64,
    /// Read to PRE.
    pub t_rtp: u64,
    /// Column-to-column (burst gap), same bank group.
    pub t_ccd: u64,
    /// Burst length in cycles (BL/2 for DDR).
    pub t_bl: u64,
    /// ACT to ACT, different banks, same rank.
    pub t_rrd: u64,
    /// Four-activate window per rank.
    pub t_faw: u64,
    /// Refresh cycle time (rank busy during refresh).
    pub t_rfc: u64,
    /// Average refresh interval.
    pub t_refi: u64,
    /// Write-to-read turnaround on the shared data bus.
    pub t_wtr: u64,
}

impl TimingParams {
    /// Clock period in nanoseconds.
    #[must_use]
    pub fn tck_ns(&self) -> f64 {
        self.tck_ns_x1000 as f64 / 1000.0
    }

    /// ACT-to-ACT on the same bank (`tRAS + tRP`), a.k.a. `tRC`.
    #[must_use]
    pub fn t_rc(&self) -> u64 {
        self.t_ras + self.t_rp
    }

    /// Validates that every constraint is non-zero where required.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when a timing field is implausibly zero or
    /// ordering relationships are violated (e.g., `tRAS < tRCD`).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.tck_ns_x1000 == 0 {
            return Err(ConfigError::zero_dimension("tck_ns"));
        }
        for (name, v) in [
            ("t_rcd", self.t_rcd),
            ("t_cl", self.t_cl),
            ("t_rp", self.t_rp),
            ("t_ras", self.t_ras),
            ("t_bl", self.t_bl),
            ("t_rfc", self.t_rfc),
            ("t_refi", self.t_refi),
        ] {
            if v == 0 {
                return Err(ConfigError::zero_dimension(name));
            }
        }
        if self.t_ras < self.t_rcd {
            return Err(ConfigError::inconsistent("tRAS must be >= tRCD"));
        }
        if self.t_faw < self.t_rrd {
            return Err(ConfigError::inconsistent("tFAW must be >= tRRD"));
        }
        Ok(())
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        DramConfig::ddr4_2400().timing
    }
}

/// Per-event energy parameters in picojoules, plus static power.
///
/// Calibrated to the published DDR3/DDR4 power-model ballpark: an
/// ACT/PRE pair costs nanojoules, a column burst costs hundreds of
/// picojoules in the array and several times that in I/O — which is why
/// moving data off-chip dominates (the paper's central observation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Energy of one ACT+PRE pair (row open + close), pJ.
    pub act_pre_pj: f64,
    /// Array energy of one column read burst, pJ.
    pub read_pj: f64,
    /// Array energy of one column write burst, pJ.
    pub write_pj: f64,
    /// Off-chip I/O energy per bit transferred, pJ.
    pub io_pj_per_bit: f64,
    /// Energy of one per-rank refresh command, pJ.
    pub refresh_pj: f64,
    /// Background (standby) power per rank, milliwatts.
    pub background_mw: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams {
            act_pre_pj: 1900.0,
            read_pj: 450.0,
            write_pj: 470.0,
            io_pj_per_bit: 4.0,
            refresh_pj: 27000.0,
            background_mw: 60.0,
        }
    }
}

/// Complete configuration of a DRAM module: geometry + timing + energy.
///
/// # Examples
///
/// ```
/// use ia_dram::DramConfig;
/// let cfg = DramConfig::ddr4_2400();
/// assert!(cfg.validate().is_ok());
/// assert!(cfg.timing.t_rcd > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Module organization.
    pub geometry: Geometry,
    /// Timing constraints in device cycles.
    pub timing: TimingParams,
    /// Energy model parameters.
    pub energy: EnergyParams,
    /// Human-readable part name.
    pub name: String,
}

impl DramConfig {
    /// DDR3-1600 (11-11-11): the generation RowClone and Ambit evaluate on.
    #[must_use]
    pub fn ddr3_1600() -> Self {
        DramConfig {
            geometry: Geometry {
                channels: 1,
                ranks: 1,
                bank_groups: 1,
                banks_per_group: 8,
                subarrays_per_bank: 64,
                rows_per_bank: 32 * 1024,
                row_bytes: 8 * 1024,
                column_bytes: 64,
            },
            timing: TimingParams {
                tck_ns_x1000: 1250, // 800 MHz clock, 1600 MT/s
                t_rcd: 11,
                t_cl: 11,
                t_cwl: 8,
                t_rp: 11,
                t_ras: 28,
                t_wr: 12,
                t_rtp: 6,
                t_ccd: 4,
                t_bl: 4,
                t_rrd: 5,
                t_faw: 24,
                t_rfc: 208,
                t_refi: 6240,
                t_wtr: 6,
            },
            energy: EnergyParams::default(),
            name: "DDR3-1600".to_owned(),
        }
    }

    /// DDR4-2400 (17-17-17) with bank groups.
    #[must_use]
    pub fn ddr4_2400() -> Self {
        DramConfig {
            geometry: Geometry::default(),
            timing: TimingParams {
                tck_ns_x1000: 833, // 1200 MHz clock, 2400 MT/s
                t_rcd: 17,
                t_cl: 17,
                t_cwl: 12,
                t_rp: 17,
                t_ras: 39,
                t_wr: 18,
                t_rtp: 9,
                t_ccd: 6,
                t_bl: 4,
                t_rrd: 6,
                t_faw: 26,
                t_rfc: 420,
                t_refi: 9360,
                t_wtr: 9,
            },
            energy: EnergyParams::default(),
            name: "DDR4-2400".to_owned(),
        }
    }

    /// LPDDR4-3200-like mobile part (higher latency in cycles, lower I/O
    /// energy): used by the mobile-workload energy experiment (E1).
    #[must_use]
    pub fn lpddr4_3200() -> Self {
        DramConfig {
            geometry: Geometry {
                channels: 2,
                ranks: 1,
                bank_groups: 1,
                banks_per_group: 8,
                subarrays_per_bank: 64,
                rows_per_bank: 32 * 1024,
                row_bytes: 4 * 1024,
                column_bytes: 64,
            },
            timing: TimingParams {
                tck_ns_x1000: 625, // 1600 MHz clock, 3200 MT/s
                t_rcd: 29,
                t_cl: 28,
                t_cwl: 14,
                t_rp: 34,
                t_ras: 67,
                t_wr: 29,
                t_rtp: 12,
                t_ccd: 8,
                t_bl: 8,
                t_rrd: 10,
                t_faw: 64,
                t_rfc: 448,
                t_refi: 6240,
                t_wtr: 12,
            },
            energy: EnergyParams {
                act_pre_pj: 1100.0,
                read_pj: 250.0,
                write_pj: 260.0,
                io_pj_per_bit: 2.0,
                refresh_pj: 18000.0,
                background_mw: 25.0,
            },
            name: "LPDDR4-3200".to_owned(),
        }
    }

    /// Starts a builder seeded from this configuration.
    #[must_use]
    pub fn to_builder(&self) -> DramConfigBuilder {
        DramConfigBuilder { cfg: self.clone() }
    }

    /// Validates geometry and timing together.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] from [`Geometry::validate`] and
    /// [`TimingParams::validate`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.geometry.validate()?;
        self.timing.validate()
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig::ddr4_2400()
    }
}

impl fmt::Display for DramConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} GiB, {} banks, {:.0} MHz)",
            self.name,
            self.geometry.capacity_bytes() >> 30,
            self.geometry.total_banks(),
            1000.0 / self.timing.tck_ns()
        )
    }
}

/// Builder for customized [`DramConfig`] values (C-BUILDER).
///
/// # Examples
///
/// ```
/// use ia_dram::DramConfig;
/// let cfg = DramConfig::ddr4_2400()
///     .to_builder()
///     .channels(2)
///     .t_rcd(12)
///     .build()?;
/// assert_eq!(cfg.geometry.channels, 2);
/// assert_eq!(cfg.timing.t_rcd, 12);
/// # Ok::<(), ia_dram::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DramConfigBuilder {
    cfg: DramConfig,
}

impl DramConfigBuilder {
    /// Sets the number of channels.
    #[must_use]
    pub fn channels(mut self, n: usize) -> Self {
        self.cfg.geometry.channels = n;
        self
    }

    /// Sets the number of ranks per channel.
    #[must_use]
    pub fn ranks(mut self, n: usize) -> Self {
        self.cfg.geometry.ranks = n;
        self
    }

    /// Sets rows per bank.
    #[must_use]
    pub fn rows_per_bank(mut self, n: u64) -> Self {
        self.cfg.geometry.rows_per_bank = n;
        self
    }

    /// Sets subarrays per bank.
    #[must_use]
    pub fn subarrays_per_bank(mut self, n: usize) -> Self {
        self.cfg.geometry.subarrays_per_bank = n;
        self
    }

    /// Sets row size in bytes.
    #[must_use]
    pub fn row_bytes(mut self, n: u64) -> Self {
        self.cfg.geometry.row_bytes = n;
        self
    }

    /// Overrides tRCD.
    #[must_use]
    pub fn t_rcd(mut self, v: u64) -> Self {
        self.cfg.timing.t_rcd = v;
        self
    }

    /// Overrides tRAS.
    #[must_use]
    pub fn t_ras(mut self, v: u64) -> Self {
        self.cfg.timing.t_ras = v;
        self
    }

    /// Overrides tRP.
    #[must_use]
    pub fn t_rp(mut self, v: u64) -> Self {
        self.cfg.timing.t_rp = v;
        self
    }

    /// Overrides tRFC (refresh cycle time).
    #[must_use]
    pub fn t_rfc(mut self, v: u64) -> Self {
        self.cfg.timing.t_rfc = v;
        self
    }

    /// Overrides tREFI (refresh interval).
    #[must_use]
    pub fn t_refi(mut self, v: u64) -> Self {
        self.cfg.timing.t_refi = v;
        self
    }

    /// Overrides the part name.
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.cfg.name = name.into();
        self
    }

    /// Finishes the builder, validating the result.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the assembled configuration is invalid.
    pub fn build(self) -> Result<DramConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for cfg in [
            DramConfig::ddr3_1600(),
            DramConfig::ddr4_2400(),
            DramConfig::lpddr4_3200(),
        ] {
            cfg.validate()
                .unwrap_or_else(|e| panic!("{} invalid: {e}", cfg.name));
        }
    }

    #[test]
    fn geometry_derived_quantities() {
        let geo = Geometry::default();
        assert_eq!(geo.total_banks(), 16);
        assert_eq!(geo.banks_per_rank(), 16);
        assert_eq!(geo.columns_per_row(), 128);
        assert_eq!(geo.rows_per_subarray(), 512);
        assert_eq!(geo.subarray_of_row(0), 0);
        assert_eq!(geo.subarray_of_row(512), 1);
        assert_eq!(geo.capacity_bytes(), 16 * 32 * 1024 * 8 * 1024);
    }

    #[test]
    fn builder_overrides_and_validates() {
        let cfg = DramConfig::ddr3_1600()
            .to_builder()
            .channels(4)
            .ranks(2)
            .t_rcd(8)
            .name("custom")
            .build()
            .expect("valid build");
        assert_eq!(cfg.geometry.channels, 4);
        assert_eq!(cfg.geometry.ranks, 2);
        assert_eq!(cfg.timing.t_rcd, 8);
        assert_eq!(cfg.name, "custom");
    }

    #[test]
    fn builder_rejects_zero_channels() {
        let err = DramConfig::default().to_builder().channels(0).build();
        assert!(err.is_err());
    }

    #[test]
    fn builder_rejects_non_power_of_two_rows() {
        let err = DramConfig::default()
            .to_builder()
            .rows_per_bank(3000)
            .build();
        assert!(err.is_err());
    }

    #[test]
    fn timing_rejects_ras_below_rcd() {
        let mut t = DramConfig::ddr4_2400().timing;
        t.t_ras = t.t_rcd - 1;
        assert!(t.validate().is_err());
    }

    #[test]
    fn trc_is_ras_plus_rp() {
        let t = DramConfig::ddr3_1600().timing;
        assert_eq!(t.t_rc(), t.t_ras + t.t_rp);
    }

    #[test]
    fn tck_ns_matches_data_rate() {
        let t = DramConfig::ddr3_1600().timing;
        assert!((t.tck_ns() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_name() {
        let s = format!("{}", DramConfig::ddr4_2400());
        assert!(s.contains("DDR4-2400"));
    }

    #[test]
    fn geometry_rejects_indivisible_subarrays() {
        let geo = Geometry {
            subarrays_per_bank: 3,
            ..Geometry::default()
        };
        assert!(geo.validate().is_err());
    }
}
