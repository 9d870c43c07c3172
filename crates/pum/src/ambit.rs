//! Ambit (Seshadri+, MICRO 2017): bulk bitwise operations inside DRAM by
//! triple-row activation (majority-of-three charge sharing) plus
//! dual-contact rows for NOT.
//!
//! The engine is both *functional* (it computes the actual bit results, so
//! higher layers like the GRIM-Filter can run on it) and *costed* (every
//! operation is billed in AAP primitives with DRAM timing/energy), which
//! is what lets the harness reproduce the throughput/energy comparisons.

use std::collections::HashMap;

use ia_dram::{DramConfig, EnergyParams, TimingParams};

use crate::PumError;

/// Identifier of a DRAM row used as a bit-vector operand.
pub type RowId = u64;

/// A bulk bitwise operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BitwiseOp {
    /// dst = a AND b.
    And,
    /// dst = a OR b.
    Or,
    /// dst = NOT a.
    Not,
    /// dst = a NAND b.
    Nand,
    /// dst = a NOR b.
    Nor,
    /// dst = a XOR b.
    Xor,
    /// dst = a XNOR b.
    Xnor,
}

impl BitwiseOp {
    /// Number of AAP (ACTIVATE-ACTIVATE-PRECHARGE) primitives per
    /// row-sized operation, from the Ambit command sequences: AND/OR cost
    /// 4 AAPs (copy operands into the bitwise group, set control row,
    /// triple-activate), NOT costs 2, the negated ops add one, XOR/XNOR
    /// compose AND/OR/NOT.
    #[must_use]
    pub fn aap_count(self) -> u64 {
        match self {
            BitwiseOp::Not => 2,
            BitwiseOp::And | BitwiseOp::Or => 4,
            BitwiseOp::Nand | BitwiseOp::Nor => 5,
            BitwiseOp::Xor | BitwiseOp::Xnor => 7,
        }
    }

    /// All operations.
    #[must_use]
    pub fn all() -> [BitwiseOp; 7] {
        [
            BitwiseOp::And,
            BitwiseOp::Or,
            BitwiseOp::Not,
            BitwiseOp::Nand,
            BitwiseOp::Nor,
            BitwiseOp::Xor,
            BitwiseOp::Xnor,
        ]
    }

    /// Mnemonic.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BitwiseOp::And => "AND",
            BitwiseOp::Or => "OR",
            BitwiseOp::Not => "NOT",
            BitwiseOp::Nand => "NAND",
            BitwiseOp::Nor => "NOR",
            BitwiseOp::Xor => "XOR",
            BitwiseOp::Xnor => "XNOR",
        }
    }
}

/// Cost/throughput counters for the engine.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AmbitStats {
    /// AAP primitives executed.
    pub aaps: u64,
    /// Total DRAM cycles consumed.
    pub cycles: u64,
    /// Dynamic energy in picojoules.
    pub energy_pj: f64,
    /// Row-sized operations performed.
    pub ops: u64,
}

/// The in-DRAM bulk bitwise engine.
///
/// # Examples
///
/// ```
/// use ia_dram::DramConfig;
/// use ia_pum::{AmbitEngine, BitwiseOp};
///
/// # fn main() -> Result<(), ia_pum::PumError> {
/// let mut engine = AmbitEngine::new(&DramConfig::ddr3_1600());
/// engine.write_row(0, vec![0b1100; engine.row_words()])?;
/// engine.write_row(1, vec![0b1010; engine.row_words()])?;
/// engine.execute(BitwiseOp::And, 2, 0, Some(1))?;
/// assert_eq!(engine.read_row(2).expect("dst exists")[0], 0b1000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AmbitEngine {
    timing: TimingParams,
    energy: EnergyParams,
    row_words: usize,
    rows: HashMap<RowId, Vec<u64>>,
    stats: AmbitStats,
    /// Banks operating concurrently on a bulk operation — Ambit's key
    /// throughput lever (every bank's subarray computes independently).
    parallelism: usize,
}

impl AmbitEngine {
    /// Creates an engine with the device's row size and timing, operating
    /// across all banks of a rank in parallel.
    #[must_use]
    pub fn new(config: &DramConfig) -> Self {
        AmbitEngine {
            timing: config.timing,
            energy: config.energy,
            row_words: (config.geometry.row_bytes / 8) as usize,
            rows: HashMap::new(),
            stats: AmbitStats::default(),
            parallelism: config.geometry.banks_per_rank().max(1),
        }
    }

    /// Concurrent banks assumed for bulk throughput.
    #[must_use]
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Words (u64) per row.
    #[must_use]
    pub fn row_words(&self) -> usize {
        self.row_words
    }

    /// Row size in bytes.
    #[must_use]
    pub fn row_bytes(&self) -> u64 {
        self.row_words as u64 * 8
    }

    /// Engine statistics.
    #[must_use]
    pub fn stats(&self) -> &AmbitStats {
        &self.stats
    }

    /// Cycles of one AAP primitive.
    #[must_use]
    pub fn aap_cycles(&self) -> u64 {
        2 * self.timing.t_ras + self.timing.t_rp
    }

    /// Writes operand data into a row (free of engine cost: it models data
    /// already resident in memory).
    ///
    /// # Errors
    ///
    /// Returns [`PumError`] if `bits` is not exactly one row.
    pub fn write_row(&mut self, row: RowId, bits: Vec<u64>) -> Result<(), PumError> {
        if bits.len() != self.row_words {
            return Err(PumError::invalid("row data must be exactly one row wide"));
        }
        self.rows.insert(row, bits);
        Ok(())
    }

    /// Reads a row's bits, if present.
    #[must_use]
    pub fn read_row(&self, row: RowId) -> Option<&[u64]> {
        self.rows.get(&row).map(Vec::as_slice)
    }

    /// Executes `dst = op(a, b)` over full rows, updating cost counters.
    /// `b` is ignored for [`BitwiseOp::Not`].
    ///
    /// # Errors
    ///
    /// Returns [`PumError`] if an operand row is missing (or `b` is absent
    /// for a two-operand op).
    pub fn execute(
        &mut self,
        op: BitwiseOp,
        dst: RowId,
        a: RowId,
        b: Option<RowId>,
    ) -> Result<(), PumError> {
        let av = self.rows.get(&a).ok_or(PumError::MissingRow(a))?.clone();
        let result: Vec<u64> = match op {
            BitwiseOp::Not => av.iter().map(|x| !x).collect(),
            two_operand => {
                let b = b.ok_or_else(|| PumError::invalid("binary op needs a second operand"))?;
                let bv = self.rows.get(&b).ok_or(PumError::MissingRow(b))?;
                av.iter()
                    .zip(bv)
                    .map(|(&x, &y)| match two_operand {
                        BitwiseOp::And => x & y,
                        BitwiseOp::Or => x | y,
                        BitwiseOp::Nand => !(x & y),
                        BitwiseOp::Nor => !(x | y),
                        BitwiseOp::Xor => x ^ y,
                        BitwiseOp::Xnor => !(x ^ y),
                        BitwiseOp::Not => unreachable!("handled above"),
                    })
                    .collect()
            }
        };
        self.rows.insert(dst, result);
        let aaps = op.aap_count();
        self.stats.aaps += aaps;
        self.stats.cycles += aaps * self.aap_cycles();
        // Each AAP is two activates worth of energy; still no off-chip I/O.
        self.stats.energy_pj += aaps as f64 * 2.0 * self.energy.act_pre_pj;
        self.stats.ops += 1;
        Ok(())
    }

    /// In-DRAM bulk throughput for `op` in bytes per nanosecond (= GB/s),
    /// with all banks computing concurrently.
    #[must_use]
    pub fn throughput_gb_s(&self, op: BitwiseOp) -> f64 {
        let cycles = op.aap_count() * self.aap_cycles();
        self.row_bytes() as f64 * self.parallelism as f64 / (cycles as f64 * self.timing.tck_ns())
    }

    /// Energy per byte of `op` in picojoules.
    #[must_use]
    pub fn energy_pj_per_byte(&self, op: BitwiseOp) -> f64 {
        op.aap_count() as f64 * 2.0 * self.energy.act_pre_pj / self.row_bytes() as f64
    }
}

/// Cost of the CPU/channel baseline for a bulk bitwise op over `bytes`:
/// both operands cross the channel in, the result crosses back out, at
/// peak channel bandwidth, paying I/O energy for every byte.
///
/// Returns `(ns, energy_pj)`.
#[must_use]
pub fn cpu_bitwise_baseline(config: &DramConfig, op: BitwiseOp, bytes: u64) -> (f64, f64) {
    let t = config.timing;
    let e = config.energy;
    let line = config.geometry.column_bytes;
    let operands = if matches!(op, BitwiseOp::Not) { 1 } else { 2 };
    let lines_moved = bytes.div_ceil(line) * (operands + 1);
    // Peak bandwidth: one burst per tBL cycles per channel.
    let cycles = lines_moved * t.t_bl / config.geometry.channels as u64;
    let ns = cycles as f64 * t.tck_ns();
    // Row activations amortized over a full row of streaming.
    let rows_touched = (bytes.div_ceil(config.geometry.row_bytes)) * (operands + 1);
    let energy = lines_moved as f64 * (e.read_pj + e.io_pj_per_bit * (line * 8) as f64)
        + rows_touched as f64 * e.act_pre_pj;
    (ns, energy)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> AmbitEngine {
        AmbitEngine::new(&DramConfig::ddr3_1600())
    }

    fn row_of(engine: &AmbitEngine, word: u64) -> Vec<u64> {
        vec![word; engine.row_words()]
    }

    #[test]
    fn functional_correctness_of_all_ops() {
        let mut e = engine();
        let a = 0b1100_1010u64;
        let b = 0b1010_0110u64;
        e.write_row(0, row_of(&e, a)).unwrap();
        e.write_row(1, row_of(&e, b)).unwrap();
        let cases = [
            (BitwiseOp::And, a & b),
            (BitwiseOp::Or, a | b),
            (BitwiseOp::Nand, !(a & b)),
            (BitwiseOp::Nor, !(a | b)),
            (BitwiseOp::Xor, a ^ b),
            (BitwiseOp::Xnor, !(a ^ b)),
        ];
        for (op, expected) in cases {
            e.execute(op, 10, 0, Some(1)).unwrap();
            assert_eq!(e.read_row(10).unwrap()[0], expected, "{}", op.name());
        }
        e.execute(BitwiseOp::Not, 11, 0, None).unwrap();
        assert_eq!(e.read_row(11).unwrap()[0], !a);
    }

    #[test]
    fn missing_operands_are_errors() {
        let mut e = engine();
        assert!(matches!(
            e.execute(BitwiseOp::Not, 1, 99, None),
            Err(PumError::MissingRow(99))
        ));
        e.write_row(0, row_of(&e, 1)).unwrap();
        assert!(
            e.execute(BitwiseOp::And, 1, 0, None).is_err(),
            "AND needs two operands"
        );
        assert!(e.execute(BitwiseOp::And, 1, 0, Some(42)).is_err());
    }

    #[test]
    fn wrong_width_row_is_rejected() {
        let mut e = engine();
        assert!(e.write_row(0, vec![0; 3]).is_err());
    }

    #[test]
    fn costs_accumulate_per_op() {
        let mut e = engine();
        e.write_row(0, row_of(&e, 5)).unwrap();
        e.write_row(1, row_of(&e, 3)).unwrap();
        e.execute(BitwiseOp::And, 2, 0, Some(1)).unwrap();
        assert_eq!(e.stats().aaps, 4);
        assert_eq!(e.stats().cycles, 4 * e.aap_cycles());
        assert!(e.stats().energy_pj > 0.0);
        e.execute(BitwiseOp::Xor, 3, 0, Some(1)).unwrap();
        assert_eq!(e.stats().aaps, 11);
        assert_eq!(e.stats().ops, 2);
    }

    #[test]
    fn xor_costs_more_than_and() {
        assert!(BitwiseOp::Xor.aap_count() > BitwiseOp::And.aap_count());
        assert!(BitwiseOp::Not.aap_count() < BitwiseOp::And.aap_count());
    }

    #[test]
    fn ambit_beats_cpu_baseline_by_an_order_of_magnitude() {
        let cfg = DramConfig::ddr3_1600();
        let e = AmbitEngine::new(&cfg);
        for op in BitwiseOp::all() {
            let bytes = 1 << 20;
            let in_dram_ns = bytes as f64 / e.throughput_gb_s(op);
            let (cpu_ns, cpu_pj) = cpu_bitwise_baseline(&cfg, op, bytes);
            let speedup = cpu_ns / in_dram_ns;
            assert!(
                speedup > 5.0,
                "{}: expected >5x throughput, got {speedup:.1}x",
                op.name()
            );
            let in_dram_pj = e.energy_pj_per_byte(op) * bytes as f64;
            let energy_gain = cpu_pj / in_dram_pj;
            assert!(
                energy_gain > 5.0,
                "{}: expected >5x energy, got {energy_gain:.1}x",
                op.name()
            );
        }
    }

    #[test]
    fn throughput_scales_with_row_size() {
        let small = AmbitEngine::new(&DramConfig::ddr3_1600());
        let mut cfg = DramConfig::ddr3_1600();
        cfg.geometry.row_bytes = 16 * 1024;
        let large = AmbitEngine::new(&cfg);
        assert!(large.throughput_gb_s(BitwiseOp::And) > small.throughput_gb_s(BitwiseOp::And));
    }
}
