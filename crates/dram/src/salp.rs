//! Subarray-Level Parallelism (Kim+, ISCA 2012): a bank is physically
//! many subarrays, each with its own local row buffer; exposing them
//! lets accesses to *different subarrays of the same bank* overlap,
//! turning many row-buffer conflicts into (cheaper) subarray misses.
//!
//! This module models a single bank in both organizations:
//!
//! * conventional — one global row buffer, serialized tRC between any two
//!   activations;
//! * SALP (MASA variant) — per-subarray row state: activations to
//!   different subarrays are gated only by a short inter-subarray gap,
//!   and each subarray's open row keeps serving hits.

use crate::{Cycle, TimingParams};

/// How the bank exposes its subarrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BankOrganization {
    /// One logical row buffer: every conflicting activate pays full tRC.
    Conventional,
    /// Multiple activated subarrays (MASA): per-subarray row buffers.
    Salp,
}

/// A single-bank timing model at access granularity (the unit the SALP
/// paper evaluates), returning per-access service times.
#[derive(Debug, Clone)]
pub struct SalpBank {
    organization: BankOrganization,
    timing: TimingParams,
    subarrays: usize,
    rows_per_subarray: u64,
    /// Open row per subarray (conventional mode uses slot 0 for the single
    /// global row buffer).
    open: Vec<Option<u64>>,
    /// Earliest next activate, per subarray.
    next_act: Vec<Cycle>,
    /// Global activate gate (tRC in conventional mode; inter-subarray gap
    /// in SALP mode).
    global_gate: Cycle,
}

impl SalpBank {
    /// Creates a bank with `subarrays` subarrays of `rows_per_subarray`
    /// rows each.
    ///
    /// # Panics
    ///
    /// Panics if `subarrays == 0` or `rows_per_subarray == 0`.
    #[must_use]
    pub fn new(
        organization: BankOrganization,
        timing: TimingParams,
        subarrays: usize,
        rows_per_subarray: u64,
    ) -> Self {
        assert!(
            subarrays > 0 && rows_per_subarray > 0,
            "bank must have rows"
        );
        SalpBank {
            organization,
            timing,
            subarrays,
            rows_per_subarray,
            open: vec![None; subarrays],
            next_act: vec![Cycle::ZERO; subarrays],
            global_gate: Cycle::ZERO,
        }
    }

    /// The organization under test.
    #[must_use]
    pub fn organization(&self) -> BankOrganization {
        self.organization
    }

    fn slot_of(&self, row: u64) -> usize {
        match self.organization {
            BankOrganization::Conventional => 0,
            BankOrganization::Salp => ((row / self.rows_per_subarray) as usize) % self.subarrays,
        }
    }

    /// Serves a read of `row` no earlier than `now`; returns the cycle the
    /// data burst completes.
    pub fn read(&mut self, row: u64, now: Cycle) -> Cycle {
        let t = self.timing;
        let slot = self.slot_of(row);
        match self.open[slot] {
            Some(open) if open == row => {
                // Row hit: the open row serves immediately (column path
                // only; the activate gates do not apply to hits).
                now + (t.t_cl + t.t_bl)
            }
            Some(_) => {
                // Conflict: precharge + activate in this (sub)array. The
                // global gate is tRC-spaced in conventional mode but only
                // tRRD-spaced under SALP (set in `finish_activate`).
                let at = now.max(self.next_act[slot]).max(self.global_gate);
                let ready = at + (t.t_rp + t.t_rcd + t.t_cl + t.t_bl);
                self.finish_activate(slot, row, at + t.t_rp);
                ready
            }
            None => {
                let at = now.max(self.next_act[slot]).max(self.global_gate);
                let ready = at + (t.t_rcd + t.t_cl + t.t_bl);
                self.finish_activate(slot, row, at);
                ready
            }
        }
    }

    fn finish_activate(&mut self, slot: usize, row: u64, act_at: Cycle) {
        let t = self.timing;
        self.open[slot] = Some(row);
        // This (sub)array cannot re-activate before tRC.
        self.next_act[slot] = act_at + t.t_rc();
        self.global_gate = match self.organization {
            // Conventional: the whole bank serializes on tRC.
            BankOrganization::Conventional => act_at + t.t_rc(),
            // SALP/MASA: the shared global row-address latch only needs a
            // tRRD-class gap between subarray activations.
            BankOrganization::Salp => act_at + t.t_rrd,
        };
    }
}

/// Serves `rows` as dependent accesses (each waits for the previous) and
/// returns total cycles — the SALP paper's conflict-stream comparison.
pub fn serve_stream(bank: &mut SalpBank, rows: &[u64]) -> u64 {
    let mut now = Cycle::ZERO;
    for &row in rows {
        now = bank.read(row, now);
    }
    now.as_u64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DramConfig;

    fn timing() -> TimingParams {
        DramConfig::ddr3_1600().timing
    }

    fn bank(org: BankOrganization) -> SalpBank {
        SalpBank::new(org, timing(), 8, 512)
    }

    #[test]
    fn hits_cost_the_same_in_both_organizations() {
        for org in [BankOrganization::Conventional, BankOrganization::Salp] {
            let mut b = bank(org);
            let first = b.read(0, Cycle::ZERO);
            let second = b.read(0, first);
            assert_eq!(second - first, timing().t_cl + timing().t_bl, "{org:?}");
        }
    }

    #[test]
    fn salp_overlaps_cross_subarray_conflicts() {
        // Alternate rows in different subarrays (rows 0 and 512): the
        // conventional bank treats this as a conflict ping-pong at tRC
        // rate, SALP keeps both rows open after the first lap.
        let stream: Vec<u64> = (0..64).map(|i| if i % 2 == 0 { 0 } else { 512 }).collect();
        let conv = serve_stream(&mut bank(BankOrganization::Conventional), &stream);
        let salp = serve_stream(&mut bank(BankOrganization::Salp), &stream);
        assert!(
            (salp as f64) < conv as f64 * 0.6,
            "SALP {salp} should be far below conventional {conv}"
        );
        // SALP pays two misses for the first pair, then only row hits.
        let t = timing();
        assert_eq!(
            salp,
            2 * (t.t_rcd + t.t_cl + t.t_bl) + 62 * (t.t_cl + t.t_bl)
        );
    }

    #[test]
    fn same_subarray_conflicts_gain_nothing() {
        // Rows 0 and 1 share subarray 0: SALP cannot help.
        let stream: Vec<u64> = (0..32).map(|i| i % 2).collect();
        let conv = serve_stream(&mut bank(BankOrganization::Conventional), &stream);
        let salp = serve_stream(&mut bank(BankOrganization::Salp), &stream);
        assert_eq!(conv, salp, "intra-subarray conflicts are identical");
    }

    #[test]
    fn sequential_single_row_stream_is_identical() {
        let stream = vec![7u64; 50];
        let conv = serve_stream(&mut bank(BankOrganization::Conventional), &stream);
        let salp = serve_stream(&mut bank(BankOrganization::Salp), &stream);
        assert_eq!(conv, salp);
    }

    #[test]
    #[should_panic(expected = "bank must have rows")]
    fn zero_subarrays_panics() {
        let _ = SalpBank::new(BankOrganization::Salp, timing(), 0, 512);
    }
}
