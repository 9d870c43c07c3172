//! The reliability pipeline: the controller's closed
//! detect → correct → degrade loop.
//!
//! When attached ([`MemoryController::with_reliability`]), the
//! controller hands the pipeline every activate, read, write and rank
//! refresh right after the DRAM accepts it. The pipeline forwards each
//! one to an `ia-faults` [`Inject`] hook and runs every read's codeword
//! through `ia_reliability::ecc`:
//!
//! * **detect** — SECDED decode on each read; the pipeline knows the
//!   canonical stored word, so miscorrections (3+ flips aliasing to a
//!   valid-looking codeword) are classified as silent corruption, not
//!   success.
//! * **correct** — single-bit errors are corrected; detected-
//!   uncorrectable reads are retried (transient bus errors vanish on the
//!   second attempt).
//! * **degrade intelligently** — on the [`Mitigation::Full`] tier a
//!   corrected error triggers a scrub (write-back) and escalates the
//!   row's refresh rate through RAIDR-style [`RetentionBin`]s; a
//!   persistent uncorrectable triggers a remap to the spare-row pool;
//!   aggressor activity beyond the quarantine threshold retires the
//!   victim row preemptively. Spare-pool exhaustion is counted, not
//!   hidden — that is the graceful-degradation boundary.
//!
//! Every decision lands in [`ReliabilityStats`], which a closed-loop
//! run returns inside its [`ReliabilityReport`].
//!
//! [`MemoryController::with_reliability`]: crate::MemoryController::with_reliability

use ia_dram::{Command, Cycle, Geometry, Location};
use ia_faults::{rank_key, FaultPlan, FaultStats, Inject, RowKey, RowSite, SiteMap};
use ia_reliability::{decode, encode, inject_error, DecodeOutcome, EccWord, RetentionBin};

/// How much intelligence the controller applies to faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mitigation {
    /// No protection: flipped bits reach the requester unnoticed.
    None,
    /// SECDED decode + retry only: single-bit errors are corrected on
    /// the fly and transients retried, but the array is never repaired —
    /// soft flips accumulate until words carry two and become
    /// uncorrectable.
    EccOnly,
    /// The full closed loop: ECC + retry, plus scrub-on-correct,
    /// RAIDR-bin refresh escalation, spare-row remap on uncorrectable,
    /// and victim-row quarantine on RowHammer exposure.
    Full,
}

impl Mitigation {
    /// Short display label for experiment tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Mitigation::None => "none",
            Mitigation::EccOnly => "ecc-only",
            Mitigation::Full => "ecc+remap+quarantine",
        }
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct ReliabilityConfig {
    /// Mitigation tier.
    pub mitigation: Mitigation,
    /// Spare rows provisioned at the top of every bank (the remap pool).
    pub spare_rows_per_bank: u64,
    /// Neighbor-activation count at which a victim row is quarantined
    /// (remapped preemptively); `0` disables quarantine.
    pub quarantine_threshold: u64,
}

impl ReliabilityConfig {
    /// Full mitigation with a given quarantine threshold and 8 spares.
    #[must_use]
    pub fn full(quarantine_threshold: u64) -> Self {
        ReliabilityConfig {
            mitigation: Mitigation::Full,
            spare_rows_per_bank: 8,
            quarantine_threshold,
        }
    }

    /// The given tier with quarantine off and 8 spares.
    #[must_use]
    pub fn tier(mitigation: Mitigation) -> Self {
        ReliabilityConfig {
            mitigation,
            spare_rows_per_bank: 8,
            quarantine_threshold: 0,
        }
    }
}

/// Counters for the detect → correct → degrade loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliabilityStats {
    /// Reads that went through the pipeline.
    pub reads_checked: u64,
    /// Reads whose delivered data needed (and received) correction.
    pub corrected: u64,
    /// Reads retried after a detected-uncorrectable first attempt.
    pub retries: u64,
    /// Retries that recovered (the error was transient).
    pub retry_recovered: u64,
    /// Reads that delivered wrong or unrecoverable data: detected-
    /// uncorrectable after retry, silent corruption (no ECC), or
    /// miscorrection.
    pub uncorrected: u64,
    /// The silent subset of `uncorrected` under ECC: reads where the
    /// decoder claimed success but delivered wrong data (flips aliased
    /// to a valid codeword, or 3+ flips steered correction to the wrong
    /// neighbor). The fuzz harness's no-silent-corruption oracle pins
    /// this to zero under the full mitigation ladder.
    pub miscorrections: u64,
    /// Scrub write-backs issued by the pipeline after a correction.
    pub scrubs: u64,
    /// Rows remapped to the spare pool after persistent uncorrectables.
    pub remaps: u64,
    /// Remap attempts dropped because the bank's spare pool was empty.
    pub spare_exhausted: u64,
    /// Victim rows retired preemptively on RowHammer exposure.
    pub quarantines: u64,
    /// Refresh-rate escalations (row moved to a faster RAIDR bin).
    pub escalations: u64,
    /// Targeted row refreshes issued for escalated rows.
    pub escalated_refreshes: u64,
}

impl ReliabilityStats {
    /// Fraction of checked reads that delivered wrong data.
    #[must_use]
    pub fn uncorrected_rate(&self) -> f64 {
        if self.reads_checked == 0 {
            0.0
        } else {
            self.uncorrected as f64 / self.reads_checked as f64
        }
    }
}

/// The reliability outcome of a run: pipeline counters plus the fault
/// model's own injection counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliabilityReport {
    /// Mitigation tier that produced these numbers.
    pub mitigation: Mitigation,
    /// Pipeline decision counters.
    pub stats: ReliabilityStats,
    /// Injector-side fault counters.
    pub faults: FaultStats,
}

/// The controller-side reliability pipeline (see module docs).
/// `Clone` is a deep copy — including the boxed fault hook's full state —
/// so a warm controller carrying a pipeline can be forked mid-campaign.
#[derive(Debug, Clone)]
pub struct ReliabilityPipeline {
    config: ReliabilityConfig,
    injector: Box<dyn Inject>,
    rows_per_bank: u64,
    /// First spare row index: rows in `spare_floor..rows_per_bank`.
    spare_floor: u64,
    /// Reused buffer for the escalated rows one rank refresh services.
    due: Vec<RowKey>,
    /// Retired rows and the spare that replaced them.
    remap: SiteMap<RowKey, u64>,
    /// Spares consumed per bank, keyed by [`RowKey::bank`].
    spare_used: SiteMap<u64, u64>,
    /// Escalated rows and their current (faster-than-nominal) bin.
    bins: SiteMap<RowKey, RetentionBin>,
    /// Neighbor-activation exposure per potential victim row
    /// (CounterTRR-style, conservatively cumulative).
    exposure: SiteMap<RowKey, u64>,
    /// Rank-refresh events seen, per [`rank_key`] — the escalated
    /// service cadence counter.
    refresh_events: SiteMap<u64, u64>,
    stats: ReliabilityStats,
}

impl ReliabilityPipeline {
    /// Builds the pipeline from a fault plan, deriving the faultable
    /// geometry (and the immune spare pool) from the DRAM geometry so
    /// the injector and the remap logic agree on where spares live.
    #[must_use]
    pub fn new(config: ReliabilityConfig, plan: FaultPlan, geometry: &Geometry) -> Self {
        let rows_per_bank = geometry.rows_per_bank;
        let spare_floor = rows_per_bank.saturating_sub(config.spare_rows_per_bank);
        let words_per_row = (geometry.row_bytes / geometry.column_bytes.max(1)).max(1);
        let injector = plan
            .geometry(rows_per_bank, words_per_row)
            .spare_floor(spare_floor)
            .build();
        ReliabilityPipeline::with_hook(config, Box::new(injector), rows_per_bank)
    }

    /// Builds the pipeline around an arbitrary [`Inject`] hook. The hook
    /// must treat rows in the top `spare_rows_per_bank` of each bank as
    /// fault-immune for remapping to help.
    #[must_use]
    pub fn with_hook(
        config: ReliabilityConfig,
        injector: Box<dyn Inject>,
        rows_per_bank: u64,
    ) -> Self {
        let spare_floor = rows_per_bank.saturating_sub(config.spare_rows_per_bank);
        ReliabilityPipeline {
            config,
            injector,
            rows_per_bank,
            spare_floor,
            due: Vec::new(),
            remap: SiteMap::default(),
            spare_used: SiteMap::default(),
            bins: SiteMap::default(),
            exposure: SiteMap::default(),
            refresh_events: SiteMap::default(),
            stats: ReliabilityStats::default(),
        }
    }

    /// Pipeline decision counters.
    #[must_use]
    pub fn stats(&self) -> &ReliabilityStats {
        &self.stats
    }

    /// Injector-side fault counters.
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.injector.stats()
    }

    /// The mitigation tier in effect.
    #[must_use]
    pub fn mitigation(&self) -> Mitigation {
        self.config.mitigation
    }

    /// Combined report for run results.
    #[must_use]
    pub fn report(&self) -> ReliabilityReport {
        ReliabilityReport {
            mitigation: self.config.mitigation,
            stats: self.stats,
            faults: self.injector.stats(),
        }
    }

    /// Runs the loop for one command the DRAM accepted for `loc` at
    /// `at`; `bank` is the flat bank index within the rank. Called by
    /// the controller right after each successful issue. Rank refreshes
    /// arrive through [`on_refresh`](Self::on_refresh) instead.
    pub(crate) fn on_command(&mut self, loc: &Location, bank: usize, cmd: Command, at: Cycle) {
        match cmd {
            Command::Activate { row } => {
                self.handle_activate(at, loc.channel, loc.rank, bank, row);
            }
            Command::Read { column } => {
                self.handle_read(at, loc.channel, loc.rank, bank, loc.row, column);
            }
            Command::Write { column } => {
                let site = self.resolve(loc.channel, loc.rank, bank, loc.row);
                self.injector.on_write(&site, column, at.as_u64());
            }
            Command::Precharge | Command::Refresh => {}
        }
    }

    /// Applies the remap table: reads/writes of a retired row are routed
    /// to its spare. Until a row is retired there is nothing to look up.
    fn resolve(&self, channel: usize, rank: usize, bank: usize, row: u64) -> RowSite {
        let row = if self.remap.is_empty() {
            row
        } else {
            self.remap
                .get(&RowKey::new(channel, rank, bank, row))
                .copied()
                .unwrap_or(row)
        };
        RowSite {
            channel,
            rank,
            bank,
            row,
        }
    }

    /// Consumes one spare from `row`'s bank's pool, if any remain.
    fn take_spare(&mut self, row: RowKey) -> Option<u64> {
        let used = self.spare_used.entry(row.bank()).or_insert(0);
        let spare = self.spare_floor + *used;
        if spare >= self.rows_per_bank {
            self.stats.spare_exhausted += 1;
            return None;
        }
        *used += 1;
        Some(spare)
    }

    fn handle_activate(&mut self, at: Cycle, channel: usize, rank: usize, bank: usize, row: u64) {
        let site = self.resolve(channel, rank, bank, row);
        self.injector.on_activate(&site, at.as_u64());
        if self.config.mitigation != Mitigation::Full || self.config.quarantine_threshold == 0 {
            return;
        }
        // Victim-row care: count exposure on the aggressor's physical
        // neighbors; past the threshold, refresh the victim one last
        // time and retire it to a spare before disturbance can flip it.
        for neighbor in [row.checked_sub(1), row.checked_add(1)] {
            let Some(victim) = neighbor else { continue };
            if victim >= self.spare_floor {
                continue;
            }
            let key = RowKey::new(channel, rank, bank, victim);
            if self.remap.contains_key(&key) {
                continue;
            }
            let count = self.exposure.entry(key).or_insert(0);
            *count += 1;
            if *count < self.config.quarantine_threshold {
                continue;
            }
            self.exposure.remove(&key);
            let victim_site = RowSite {
                channel,
                rank,
                bank,
                row: victim,
            };
            self.injector.on_row_refresh(&victim_site, at.as_u64());
            if let Some(spare) = self.take_spare(key) {
                self.remap.insert(key, spare);
                self.stats.quarantines += 1;
            }
        }
    }

    fn handle_read(
        &mut self,
        at: Cycle,
        channel: usize,
        rank: usize,
        bank: usize,
        row: u64,
        column: u64,
    ) {
        let site = self.resolve(channel, rank, bank, row);
        let mask = self.injector.on_read(&site, column, at.as_u64());
        self.stats.reads_checked += 1;
        if self.config.mitigation == Mitigation::None {
            // No detection: any flipped bit is silent data corruption.
            if !mask.is_clean() {
                self.stats.uncorrected += 1;
            }
            return;
        }
        if mask.is_clean() {
            return;
        }
        let truth = canonical_word(&site, column);
        let stored = corrupt(encode(truth), mask.bits);
        match decode(stored) {
            DecodeOutcome::Clean(data) => {
                // Flips aliased to a valid codeword: undetectable, and
                // necessarily wrong (any flip changes the codeword).
                debug_assert_ne!(data, truth);
                self.stats.uncorrected += 1;
                self.stats.miscorrections += 1;
            }
            DecodeOutcome::Corrected(data) if data == truth => {
                self.stats.corrected += 1;
                self.repair(&site, column, at);
            }
            DecodeOutcome::Corrected(_) => {
                // Miscorrection: 3+ flips steered the decoder to the
                // wrong neighbor. Delivered data is wrong.
                self.stats.uncorrected += 1;
                self.stats.miscorrections += 1;
            }
            DecodeOutcome::DetectedUncorrectable => {
                // Retry: a second read does not see transient errors.
                self.stats.retries += 1;
                let retried = corrupt(encode(truth), mask.persistent());
                match decode(retried) {
                    DecodeOutcome::Clean(_) => {
                        self.stats.retry_recovered += 1;
                    }
                    DecodeOutcome::Corrected(data) if data == truth => {
                        self.stats.retry_recovered += 1;
                        self.stats.corrected += 1;
                        self.repair(&site, column, at);
                    }
                    DecodeOutcome::Corrected(_) => {
                        // A retry miscorrection is still silent wrong data.
                        self.stats.uncorrected += 1;
                        self.stats.miscorrections += 1;
                        self.retire(channel, rank, bank, row);
                    }
                    DecodeOutcome::DetectedUncorrectable => {
                        self.stats.uncorrected += 1;
                        self.retire(channel, rank, bank, row);
                    }
                }
            }
        }
    }

    /// Post-correction repair (Full tier): scrub the corrected word back
    /// to the array and escalate the row's refresh bin so a retention-
    /// weak row stops overrunning its limit.
    fn repair(&mut self, site: &RowSite, column: u64, at: Cycle) {
        if self.config.mitigation != Mitigation::Full {
            return;
        }
        self.injector.on_write(site, column, at.as_u64());
        self.stats.scrubs += 1;
        let key = site.key();
        let next = match self.bins.get(&key) {
            None => Some(RetentionBin::Ms128),
            Some(RetentionBin::Ms128) => Some(RetentionBin::Ms64),
            Some(_) => None,
        };
        if let Some(bin) = next {
            self.bins.insert(key, bin);
            self.stats.escalations += 1;
        }
    }

    /// Persistent-uncorrectable response (Full tier): retire the row to
    /// a spare. Data for the lost word is restored out-of-band (the
    /// uncorrected counter has already recorded the loss).
    fn retire(&mut self, channel: usize, rank: usize, bank: usize, row: u64) {
        if self.config.mitigation != Mitigation::Full {
            return;
        }
        let key = RowKey::new(channel, rank, bank, row);
        if self.remap.contains_key(&key) {
            return;
        }
        if let Some(spare) = self.take_spare(key) {
            self.remap.insert(key, spare);
            self.stats.remaps += 1;
        }
    }

    /// Rank refresh issued at `at`: forward to the injector, then
    /// service escalated rows at their bin's accelerated cadence (Ms64
    /// rows every slot, Ms128 rows every other slot). Called by the
    /// controller after each successful rank refresh.
    pub(crate) fn on_refresh(&mut self, at: Cycle, channel: usize, rank: usize) {
        self.injector.on_refresh(channel, rank, at.as_u64());
        if self.config.mitigation != Mitigation::Full || self.bins.is_empty() {
            return;
        }
        let rank = rank_key(channel, rank);
        let count = {
            let c = self.refresh_events.entry(rank).or_insert(0);
            *c += 1;
            *c
        };
        // Sorted for a deterministic service order regardless of map
        // iteration order: packed keys sort as their (channel, rank,
        // bank, row) tuples.
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        due.extend(
            self.bins
                .iter()
                .filter(|(key, bin)| {
                    key.rank() == rank
                        && match bin {
                            RetentionBin::Ms64 => true,
                            RetentionBin::Ms128 => count % 2 == 0,
                            RetentionBin::Ms256 => count % 4 == 0,
                        }
                })
                .map(|(key, _)| *key),
        );
        due.sort_unstable();
        for &key in &due {
            self.injector.on_row_refresh(&key.site(), at.as_u64());
            self.stats.escalated_refreshes += 1;
        }
        self.due = due;
    }
}

/// The canonical content of one stored word: a fixed hash of its
/// physical coordinates. Knowing ground truth is what lets the pipeline
/// classify miscorrections instead of trusting the decoder blindly.
fn canonical_word(site: &RowSite, column: u64) -> u64 {
    let mut z = (site.channel as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((site.rank as u64) << 48)
        .wrapping_add((site.bank as u64) << 32)
        .wrapping_add(site.row)
        .wrapping_add(column.wrapping_mul(0xD129_0B26_77A8_0F61));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Applies a flip mask (bit indices 0..72) to a codeword.
fn corrupt(word: EccWord, mask: u128) -> EccWord {
    let mut out = word;
    let mut m = mask;
    while m != 0 {
        let bit = m.trailing_zeros();
        // lint: allow(P001, FlipMask construction masks to the 72-bit codeword)
        out = inject_error(out, bit).expect("flip masks only carry bits < 72");
        m &= m - 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_faults::FlipMask;
    use std::sync::{Arc, Mutex};

    fn site0(row: u64) -> RowSite {
        RowSite {
            channel: 0,
            rank: 0,
            bank: 0,
            row,
        }
    }

    /// A scripted hook that returns queued masks for reads in order and
    /// logs targeted row refreshes where the test can still read them
    /// once the pipeline owns the hook.
    #[derive(Debug, Clone, Default)]
    struct QueuedMasks {
        masks: std::collections::VecDeque<FlipMask>,
        writes: Vec<(u64, u64)>,
        row_refreshes: Arc<Mutex<Vec<(u64, RowSite)>>>,
    }

    impl Inject for QueuedMasks {
        fn on_activate(&mut self, _site: &RowSite, _now: u64) {}
        fn on_read(&mut self, _site: &RowSite, _word: u64, _now: u64) -> FlipMask {
            self.masks.pop_front().unwrap_or(FlipMask::CLEAN)
        }
        fn on_write(&mut self, site: &RowSite, word: u64, _now: u64) {
            self.writes.push((site.row, word));
        }
        fn on_refresh(&mut self, _channel: usize, _rank: usize, _now: u64) {}
        fn on_row_refresh(&mut self, site: &RowSite, now: u64) {
            self.row_refreshes.lock().unwrap().push((now, *site));
        }
        fn clone_box(&self) -> Box<dyn Inject> {
            Box::new(self.clone())
        }
    }

    fn pipeline_with(mitigation: Mitigation, masks: Vec<FlipMask>) -> ReliabilityPipeline {
        let hook = QueuedMasks {
            masks: masks.into(),
            ..QueuedMasks::default()
        };
        let config = ReliabilityConfig {
            mitigation,
            spare_rows_per_bank: 2,
            quarantine_threshold: 0,
        };
        ReliabilityPipeline::with_hook(config, Box::new(hook), 1 << 10)
    }

    fn single_flip() -> FlipMask {
        FlipMask {
            bits: 1 << 7,
            transient: 0,
        }
    }

    fn double_flip() -> FlipMask {
        FlipMask {
            bits: (1 << 7) | (1 << 40),
            transient: 0,
        }
    }

    fn transient_flip() -> FlipMask {
        FlipMask {
            bits: (1 << 7) | (1 << 40),
            transient: 1 << 40,
        }
    }

    #[test]
    fn none_tier_counts_silent_corruption() {
        let mut p = pipeline_with(Mitigation::None, vec![single_flip()]);
        p.handle_read(Cycle::new(10), 0, 0, 0, 5, 3);
        assert_eq!(p.stats().uncorrected, 1);
        assert_eq!(p.stats().corrected, 0);
    }

    #[test]
    fn ecc_corrects_single_flip_without_repair() {
        let mut p = pipeline_with(Mitigation::EccOnly, vec![single_flip()]);
        p.handle_read(Cycle::new(10), 0, 0, 0, 5, 3);
        assert_eq!(p.stats().corrected, 1);
        assert_eq!(p.stats().uncorrected, 0);
        assert_eq!(p.stats().scrubs, 0, "ecc-only never repairs the array");
    }

    #[test]
    fn full_tier_scrubs_and_escalates_on_correction() {
        let mut p = pipeline_with(Mitigation::Full, vec![single_flip(), single_flip()]);
        p.handle_read(Cycle::new(10), 0, 0, 0, 5, 3);
        assert_eq!(p.stats().corrected, 1);
        assert_eq!(p.stats().scrubs, 1);
        assert_eq!(p.stats().escalations, 1, "row moved to Ms128");
        p.handle_read(Cycle::new(20), 0, 0, 0, 5, 3);
        assert_eq!(p.stats().escalations, 2, "second correction: Ms64");
        p.handle_read(Cycle::new(30), 0, 0, 0, 5, 3);
        assert_eq!(p.stats().escalations, 2, "already at the fastest bin");
    }

    #[test]
    fn double_flip_retries_then_remaps() {
        let mut p = pipeline_with(Mitigation::Full, vec![double_flip()]);
        p.handle_read(Cycle::new(10), 0, 0, 0, 5, 3);
        assert_eq!(p.stats().retries, 1);
        assert_eq!(p.stats().uncorrected, 1);
        assert_eq!(p.stats().remaps, 1);
        // Row 5 now resolves to the first spare (rows_per_bank - 2).
        assert_eq!(p.resolve(0, 0, 0, 5).row, (1 << 10) - 2);
    }

    #[test]
    fn transient_double_flip_recovers_on_retry() {
        let mut p = pipeline_with(Mitigation::Full, vec![transient_flip()]);
        p.handle_read(Cycle::new(10), 0, 0, 0, 5, 3);
        assert_eq!(p.stats().retries, 1);
        assert_eq!(p.stats().retry_recovered, 1);
        assert_eq!(p.stats().corrected, 1, "persistent single bit corrected");
        assert_eq!(p.stats().uncorrected, 0);
        assert_eq!(p.stats().remaps, 0);
    }

    #[test]
    fn spare_pool_exhaustion_is_counted_not_hidden() {
        let mut p = pipeline_with(
            Mitigation::Full,
            vec![double_flip(), double_flip(), double_flip()],
        );
        p.handle_read(Cycle::new(10), 0, 0, 0, 5, 0);
        p.handle_read(Cycle::new(20), 0, 0, 0, 6, 0);
        p.handle_read(Cycle::new(30), 0, 0, 0, 7, 0);
        assert_eq!(p.stats().remaps, 2, "pool had 2 spares");
        assert_eq!(p.stats().spare_exhausted, 1);
        assert_eq!(p.stats().uncorrected, 3);
    }

    #[test]
    fn quarantine_trips_at_threshold_and_row_refreshes_victim() {
        let hook = QueuedMasks::default();
        let config = ReliabilityConfig {
            mitigation: Mitigation::Full,
            spare_rows_per_bank: 4,
            quarantine_threshold: 10,
        };
        let mut p = ReliabilityPipeline::with_hook(config, Box::new(hook), 1 << 10);
        for n in 0..10u64 {
            p.handle_activate(Cycle::new(n), 0, 0, 0, 50);
        }
        assert_eq!(p.stats().quarantines, 2, "both neighbors of row 50");
        assert_ne!(p.resolve(0, 0, 0, 49).row, 49);
        assert_ne!(p.resolve(0, 0, 0, 51).row, 51);
        assert_eq!(p.resolve(0, 0, 0, 50).row, 50, "aggressor not remapped");
    }

    /// Escalates `rows` in the given order — one correction moves a row
    /// to Ms128, a second to Ms64 — then runs four refresh rounds over
    /// both ranks and returns every targeted refresh the hook saw.
    fn escalated_refresh_log(rows: &[(usize, usize, u64, bool)]) -> Vec<(u64, RowSite)> {
        let log = Arc::new(Mutex::new(Vec::new()));
        let corrections = rows.iter().map(|r| 1 + usize::from(r.3)).sum();
        let hook = QueuedMasks {
            masks: vec![single_flip(); corrections].into(),
            row_refreshes: Arc::clone(&log),
            ..QueuedMasks::default()
        };
        let mut p = ReliabilityPipeline::with_hook(
            ReliabilityConfig::tier(Mitigation::Full),
            Box::new(hook),
            1 << 10,
        );
        for &(rank, bank, row, twice) in rows {
            p.handle_read(Cycle::new(1), 0, rank, bank, row, 0);
            if twice {
                p.handle_read(Cycle::new(2), 0, rank, bank, row, 0);
            }
        }
        assert_eq!(p.stats().escalations, corrections as u64);
        for round in 0..4u64 {
            for rank in 0..2 {
                p.on_refresh(Cycle::new(100 + round * 10 + rank as u64), 0, rank);
            }
        }
        let log = log.lock().unwrap().clone();
        log
    }

    #[test]
    fn escalated_refresh_order_ignores_bin_insertion_order() {
        // 96 rows over two ranks and eight banks, every third one in the
        // fastest bin: enough keys that the map's probe sequences collide.
        let rows: Vec<(usize, usize, u64, bool)> = (0..96u64)
            .map(|i| {
                (
                    (i % 2) as usize,
                    (i / 2 % 8) as usize,
                    40 + i * 5,
                    i % 3 == 0,
                )
            })
            .collect();
        let reversed: Vec<_> = rows.iter().rev().copied().collect();
        let forward = escalated_refresh_log(&rows);
        assert_eq!(forward, escalated_refresh_log(&reversed));
        // Ms64 rows every refresh, Ms128 rows every other one.
        assert_eq!(forward.len(), 4 * 32 + 2 * 64);
        // Within one rank refresh, rows are serviced in key order.
        for pair in forward.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if a.0 == b.0 {
                assert!(
                    (a.1.bank, a.1.row) < (b.1.bank, b.1.row),
                    "{a:?} before {b:?}"
                );
            }
        }
    }

    #[test]
    fn canonical_word_is_stable_and_site_sensitive() {
        let a = canonical_word(&site0(1), 0);
        assert_eq!(a, canonical_word(&site0(1), 0));
        assert_ne!(a, canonical_word(&site0(2), 0));
        assert_ne!(a, canonical_word(&site0(1), 1));
    }

    #[test]
    fn corrupt_round_trips_through_decode() {
        let w = encode(0xDEAD_BEEF_0123_4567);
        assert_eq!(
            decode(corrupt(w, 1 << 10)),
            DecodeOutcome::Corrected(0xDEAD_BEEF_0123_4567)
        );
        assert_eq!(
            decode(corrupt(w, (1 << 10) | (1 << 33))),
            DecodeOutcome::DetectedUncorrectable
        );
    }
}
