//! The 3D-stacked memory substrate: vaults, internal vs. external
//! bandwidth, and near-memory core parameters.
//!
//! The entire PNM value proposition is a ratio: logic in the stack sees
//! the *aggregate internal* bandwidth of all vaults through TSVs, while
//! the host sees only the *external link*. Tesseract-class speedups are
//! first-order consequences of that ratio plus lower access latency.

use crate::PnmError;

/// Physical parameters of a 3D-stacked memory + logic-layer system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StackConfig {
    /// Number of vaults (vertical slices with their own TSV bus).
    pub vaults: usize,
    /// Internal bandwidth per vault, GB/s.
    pub internal_gbps_per_vault: f64,
    /// External host link bandwidth, GB/s (total).
    pub external_gbps: f64,
    /// Memory access latency from the logic layer, ns.
    pub internal_latency_ns: f64,
    /// Memory access latency from the host (link + controller + DRAM), ns.
    pub external_latency_ns: f64,
    /// Clock of each in-order near-memory core, GHz.
    pub core_ghz: f64,
    /// Host core clock, GHz (host cores are beefier).
    pub host_ghz: f64,
    /// Host core count.
    pub host_cores: usize,
}

impl StackConfig {
    /// An HMC-like stack: 16 vaults × 16 GB/s internal vs. a 40 GB/s
    /// external link; 2 GHz simple cores in the logic layer vs. 4 × 4 GHz
    /// host cores — the Tesseract evaluation's shape.
    #[must_use]
    pub fn hmc_like() -> Self {
        StackConfig {
            vaults: 16,
            internal_gbps_per_vault: 16.0,
            external_gbps: 40.0,
            internal_latency_ns: 50.0,
            external_latency_ns: 120.0,
            core_ghz: 2.0,
            host_ghz: 4.0,
            host_cores: 4,
        }
    }

    /// Aggregate internal bandwidth across vaults, GB/s.
    #[must_use]
    pub fn internal_gbps_total(&self) -> f64 {
        self.vaults as f64 * self.internal_gbps_per_vault
    }

    /// Returns a copy with a different vault count (bandwidth per vault
    /// unchanged — more vaults, more aggregate bandwidth).
    ///
    /// # Errors
    ///
    /// Returns [`PnmError`] if `vaults == 0`.
    pub fn with_vaults(mut self, vaults: usize) -> Result<Self, PnmError> {
        if vaults == 0 {
            return Err(PnmError::invalid("stack needs at least one vault"));
        }
        self.vaults = vaults;
        Ok(self)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PnmError`] on zero vaults/cores or non-positive rates.
    pub fn validate(&self) -> Result<(), PnmError> {
        if self.vaults == 0 || self.host_cores == 0 {
            return Err(PnmError::invalid("vaults and host cores must be non-zero"));
        }
        if self.internal_gbps_per_vault <= 0.0
            || self.external_gbps <= 0.0
            || self.core_ghz <= 0.0
            || self.host_ghz <= 0.0
            || self.internal_latency_ns <= 0.0
            || self.external_latency_ns <= 0.0
        {
            return Err(PnmError::invalid("rates and latencies must be positive"));
        }
        Ok(())
    }
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig::hmc_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hmc_preset_is_valid_and_bandwidth_rich() {
        let s = StackConfig::hmc_like();
        s.validate().unwrap();
        assert!((s.internal_gbps_total() - 256.0).abs() < 1e-9);
        assert!(
            s.internal_gbps_total() / s.external_gbps > 6.0,
            "internal bandwidth should dwarf the link"
        );
        assert!(s.internal_latency_ns < s.external_latency_ns);
    }

    #[test]
    fn with_vaults_scales_bandwidth() {
        let s = StackConfig::hmc_like().with_vaults(32).unwrap();
        assert!((s.internal_gbps_total() - 512.0).abs() < 1e-9);
        assert!(StackConfig::hmc_like().with_vaults(0).is_err());
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let mut s = StackConfig::hmc_like();
        s.external_gbps = 0.0;
        assert!(s.validate().is_err());
        let mut s = StackConfig::hmc_like();
        s.host_cores = 0;
        assert!(s.validate().is_err());
    }
}
