//! The injector: executes a [`FaultPlan`] against the stream of DRAM
//! events and answers "which bits of this codeword are wrong right now?"

use std::fmt;

use crate::plan::{FaultKind, FaultPlan};
use crate::rng::{
    chance, fold, hash, hash_from, prefix, unit, STREAM_DECAY, STREAM_HAMMER, STREAM_STUCK,
    STREAM_TRANSIENT, STREAM_WEAK,
};
use crate::site::{rank_key, RowKey, SiteMap};

/// Bits per protected word: 64 data + 8 SECDED check bits. Flip masks
/// index the same 0..72 space as `ia_reliability::ecc::inject_error`.
pub const CODEWORD_BITS: u32 = 72;

/// Identity of one DRAM row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowSite {
    /// Channel index.
    pub channel: usize,
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank index within the rank.
    pub bank: usize,
    /// Row index within the bank.
    pub row: u64,
}

impl RowSite {
    /// The row's packed site-map key.
    ///
    /// # Panics
    ///
    /// Panics if a coordinate does not fit a [`RowKey`].
    #[must_use]
    #[inline]
    pub fn key(&self) -> RowKey {
        RowKey::new(self.channel, self.rank, self.bank, self.row)
    }

    fn folded(&self) -> u64 {
        fold(self.channel, self.rank, self.bank, self.row)
    }
}

/// One codeword: its row and its word index within the row.
type WordKey = (RowKey, u64);

/// What the injector tracks per row, in one map entry so that an
/// activate finds all of it with one probe.
#[derive(Debug, Clone, Copy)]
struct RowState {
    /// Last cycle the row was individually restored (activate, write, or
    /// targeted refresh); 0 until then.
    restored: u64,
    /// Aggressor activations absorbed since the row's last refresh.
    exposure: u64,
    /// Aggressor activations left until the next RowHammer threshold
    /// trip: `exposure` reaches a multiple of the threshold exactly when
    /// this counts down to zero. Reset with `exposure`.
    to_trip: u64,
    /// The row's retention limit in cycles, drawn once when the row is
    /// first seen; `None` when it is not retention-weak.
    limit: Option<u64>,
}

impl RowState {
    fn first_seen(plan: &FaultPlan, site: &RowSite) -> Self {
        RowState {
            restored: 0,
            exposure: 0,
            to_trip: plan.rowhammer_threshold,
            limit: retention_limit(plan, site),
        }
    }

    /// Clears the disturbance exposure (a row or rank-pass refresh).
    fn clear_exposure(&mut self, threshold: u64) {
        self.exposure = 0;
        self.to_trip = threshold;
    }
}

/// The [`prefix`] of each hash stream the injector draws from on every
/// event, computed once per injector.
#[derive(Debug, Clone, Copy)]
struct Streams {
    hammer: u64,
    transient: u64,
    stuck: u64,
    decay: u64,
}

impl Streams {
    fn new(seed: u64) -> Self {
        Streams {
            hammer: prefix(seed, STREAM_HAMMER),
            transient: prefix(seed, STREAM_TRANSIENT),
            stuck: prefix(seed, STREAM_STUCK),
            decay: prefix(seed, STREAM_DECAY),
        }
    }
}

/// What the injector tracks per codeword.
#[derive(Debug, Clone, Copy, Default)]
struct WordState {
    /// Soft (scrubbable) flips: RowHammer, retention, scripted soft
    /// faults.
    soft: u128,
    /// The stuck-at mask, materialized on the word's first read; `None`
    /// means "not yet examined", zero "examined, not stuck".
    stuck: Option<u128>,
}

/// The row's hash-drawn retention limit in cycles, or `None` if the row
/// is not retention-weak (or retention is disabled).
fn retention_limit(plan: &FaultPlan, site: &RowSite) -> Option<u64> {
    if plan.retention_weak_prob <= 0.0 || plan.refresh_window == 0 {
        return None;
    }
    let folded = site.folded();
    if !chance(
        hash(plan.seed, STREAM_WEAK, folded, 0),
        plan.retention_weak_prob,
    ) {
        return None;
    }
    // Weak limits span 25–90% of the nominal window: short enough to
    // overrun under baseline refresh, long enough that a 2x–4x
    // escalated rate always covers them.
    let frac = 0.25 + 0.65 * unit(hash(plan.seed, STREAM_WEAK, folded, 1));
    Some(((plan.refresh_window as f64 * frac) as u64).max(1))
}

/// Sets one soft flip bit. Returns true when the bit was new.
fn set_soft(words: &mut SiteMap<WordKey, WordState>, key: WordKey, bit: u32) -> bool {
    let word = words.entry(key).or_default();
    let mask = 1u128 << bit;
    let new = word.soft & mask == 0;
    word.soft |= mask;
    new
}

/// Which bits of a 72-bit codeword read back flipped, and which of those
/// are transient (absent on a retry of the same read).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlipMask {
    /// Every flipped bit, persistent and transient combined.
    pub bits: u128,
    /// The subset of `bits` that a retry does not see.
    pub transient: u128,
}

impl FlipMask {
    /// No flips at all.
    pub const CLEAN: FlipMask = FlipMask {
        bits: 0,
        transient: 0,
    };

    /// True when nothing flipped.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.bits == 0
    }

    /// The bits a retry still sees: stuck-at and uncorrected soft flips.
    #[must_use]
    pub fn persistent(&self) -> u128 {
        self.bits & !self.transient
    }

    /// Number of flipped bits.
    #[must_use]
    pub fn flipped(&self) -> u32 {
        self.bits.count_ones()
    }
}

/// Lifetime counters for one injector, broken out per mechanism.
/// `ia-memctrl`'s reliability pipeline exposes them through
/// `ReliabilityPipeline::fault_stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// RowHammer victim bits newly flipped.
    pub rowhammer_flips: u64,
    /// Retention bits newly flipped after a refresh-interval overrun.
    pub retention_flips: u64,
    /// Transient bus/command errors raised.
    pub transient_flips: u64,
    /// Stuck-at cells discovered (counted once each).
    pub stuck_cells: u64,
    /// Scripted faults that have manifested.
    pub scripted_applied: u64,
    /// Scrub writes observed (soft-flip clears).
    pub scrubs: u64,
    /// Targeted per-row refreshes observed (escalation/quarantine hook).
    pub row_refreshes: u64,
    /// Reads that returned a non-clean mask.
    pub reads_faulted: u64,
}

impl FaultStats {
    /// Total bits injected across every mechanism.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.rowhammer_flips
            + self.retention_flips
            + self.transient_flips
            + self.stuck_cells
            + self.scripted_applied
    }
}

impl fmt::Display for FaultStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} injected (rh {}, ret {}, bus {}, stuck {}, scripted {}), {} faulted reads, {} scrubs, {} row refreshes",
            self.injected(),
            self.rowhammer_flips,
            self.retention_flips,
            self.transient_flips,
            self.stuck_cells,
            self.scripted_applied,
            self.reads_faulted,
            self.scrubs,
            self.row_refreshes,
        )
    }
}

/// The hook a fault model exposes to the memory stack. `ia-dram` emits
/// the events; `ia-memctrl`'s reliability pipeline forwards them and
/// consumes the returned flip masks on reads.
///
/// The contract mirrors device physics:
///
/// * **activate** restores the opened row's charge (any overdue decay
///   materializes as flips *first*, because the decayed value is what
///   the sense amps latch) and disturbs the two neighbor rows.
/// * **read** returns the current flip mask for one codeword.
/// * **write** rewrites one codeword — the scrub path — clearing soft
///   flips but never stuck-at cells.
/// * **refresh** is the rank-level auto-refresh command stream.
/// * **row_refresh** is a targeted refresh of one row — the mitigation
///   feedback edge: refresh-rate escalation and victim-row care use it
///   to reset that row's decay clock and disturbance exposure.
pub trait Inject: fmt::Debug + Send {
    /// A row was activated at cycle `now`.
    fn on_activate(&mut self, site: &RowSite, now: u64);
    /// Word `word` of the given row is being read at cycle `now`.
    fn on_read(&mut self, site: &RowSite, word: u64, now: u64) -> FlipMask;
    /// Word `word` of the given row is being (re)written at cycle `now`.
    fn on_write(&mut self, site: &RowSite, word: u64, now: u64);
    /// A rank-level refresh command executed at cycle `now`.
    fn on_refresh(&mut self, channel: usize, rank: usize, now: u64);
    /// A targeted single-row refresh executed at cycle `now`.
    fn on_row_refresh(&mut self, site: &RowSite, now: u64);
    /// Lifetime injection counters.
    fn stats(&self) -> FaultStats {
        FaultStats::default()
    }
    /// Boxed deep copy — everything a fault process tracks (exposure,
    /// decay clocks, materialized flips, RNG position) — so the owning
    /// pipeline and controller can be snapshot/forked deterministically.
    fn clone_box(&self) -> Box<dyn Inject>;
}

impl Clone for Box<dyn Inject> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A hook that never injects anything — the "fault-free device".
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl Inject for NoFaults {
    fn on_activate(&mut self, _site: &RowSite, _now: u64) {}
    fn on_read(&mut self, _site: &RowSite, _word: u64, _now: u64) -> FlipMask {
        FlipMask::CLEAN
    }
    fn on_write(&mut self, _site: &RowSite, _word: u64, _now: u64) {}
    fn on_refresh(&mut self, _channel: usize, _rank: usize, _now: u64) {}
    fn on_row_refresh(&mut self, _site: &RowSite, _now: u64) {}
    fn clone_box(&self) -> Box<dyn Inject> {
        Box::new(*self)
    }
}

/// Executes a [`FaultPlan`]: tracks per-row disturbance exposure and
/// decay clocks, materializes flips per the plan's probabilistic model
/// plus its scripted list, and serves flip masks on reads.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    streams: Streams,
    /// Restore cycle, disturbance exposure and retention limit per row
    /// the injector has seen.
    rows: SiteMap<RowKey, RowState>,
    /// Soft flips and stuck-at mask per codeword.
    words: SiteMap<WordKey, WordState>,
    /// Last cycle a full refresh pass completed, per [`rank_key`].
    rank_epoch: SiteMap<u64, u64>,
    /// Rank-refresh commands seen so far, per [`rank_key`].
    refresh_calls: SiteMap<u64, u64>,
    /// Monotonic read counter — the transient-error decision key.
    reads: u64,
    /// Which scripted faults have manifested.
    scripted_done: Vec<bool>,
    stats: FaultStats,
}

impl FaultInjector {
    /// Builds an injector for the given plan (see [`FaultPlan::build`]).
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        let scripted_done = vec![false; plan.scripted.len()];
        FaultInjector {
            streams: Streams::new(plan.seed),
            plan,
            rows: SiteMap::default(),
            words: SiteMap::default(),
            rank_epoch: SiteMap::default(),
            refresh_calls: SiteMap::default(),
            reads: 0,
            scripted_done,
            stats: FaultStats::default(),
        }
    }

    /// The campaign this injector executes.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// True for rows in the fault-immune spare pool.
    fn immune(&self, row: u64) -> bool {
        self.plan.spare_floor.is_some_and(|floor| row >= floor)
    }

    /// Applies any scripted faults targeting this codeword that are due.
    fn apply_scripted(&mut self, site: &RowSite, key: WordKey, now: u64) -> u128 {
        let mut transient = 0u128;
        for i in 0..self.plan.scripted.len() {
            if self.scripted_done[i] {
                continue;
            }
            let f = self.plan.scripted[i];
            let matches = f.channel == site.channel
                && f.rank == site.rank
                && f.bank == site.bank
                && f.row == site.row
                && f.word == key.1
                && now >= f.at;
            if !matches {
                continue;
            }
            self.scripted_done[i] = true;
            self.stats.scripted_applied += 1;
            let bit = u32::from(f.bit) % CODEWORD_BITS;
            match f.kind {
                FaultKind::StuckAt => {
                    // Marks the word examined: no probabilistic stuck-at
                    // cell is drawn for it afterwards.
                    let word = self.words.entry(key).or_default();
                    word.stuck = Some(word.stuck.unwrap_or(0) | 1u128 << bit);
                }
                FaultKind::TransientBus => {
                    transient |= 1u128 << bit;
                }
                FaultKind::RowHammer | FaultKind::Retention => {
                    set_soft(&mut self.words, key, bit);
                }
            }
        }
        transient
    }

    /// Disturbs one neighbor of an activated aggressor row.
    fn hammer(&mut self, victim: RowSite) {
        if self.immune(victim.row) {
            return;
        }
        let key = victim.key();
        let row = self
            .rows
            .entry(key)
            .or_insert_with(|| RowState::first_seen(&self.plan, &victim));
        let threshold = self.plan.rowhammer_threshold;
        row.exposure += 1;
        row.to_trip -= 1;
        debug_assert_eq!(row.to_trip == 0, row.exposure.is_multiple_of(threshold));
        if row.to_trip > 0 {
            return;
        }
        row.to_trip = threshold;
        let trip = row.exposure / threshold;
        let folded = victim.folded();
        let stream = self.streams.hammer;
        let h = hash_from(stream, folded, trip);
        if !chance(h, self.plan.rowhammer_flip_prob) {
            return;
        }
        let word = hash_from(stream, folded ^ h, trip) % self.plan.words_per_row;
        let bit =
            (hash_from(stream, folded.wrapping_add(h), trip) % u64::from(CODEWORD_BITS)) as u32;
        if set_soft(&mut self.words, (key, word), bit) {
            self.stats.rowhammer_flips += 1;
        }
    }
}

impl Inject for FaultInjector {
    fn clone_box(&self) -> Box<dyn Inject> {
        Box::new(self.clone())
    }

    fn on_activate(&mut self, site: &RowSite, now: u64) {
        if self.immune(site.row) {
            return;
        }
        let key = site.key();
        let row = self
            .rows
            .entry(key)
            .or_insert_with(|| RowState::first_seen(&self.plan, site));
        // Retention: the decayed value is latched before the activate
        // restores charge, so an overrun materializes a flip first. The
        // charge was last known good at the later of the row's own
        // restore and its rank's last full refresh pass.
        if let Some(limit) = row.limit {
            let rank_pass = self.rank_epoch.get(&key.rank()).copied().unwrap_or(0);
            let restored = rank_pass.max(row.restored);
            if now.saturating_sub(restored) > limit {
                let folded = site.folded();
                let stream = self.streams.decay;
                let word = hash_from(stream, folded, restored) % self.plan.words_per_row;
                let bit = (hash_from(stream, folded ^ restored.wrapping_add(1), 1)
                    % u64::from(CODEWORD_BITS)) as u32;
                if set_soft(&mut self.words, (key, word), bit) {
                    self.stats.retention_flips += 1;
                }
            }
        }
        row.restored = now;
        // Disturbance: both physical neighbors absorb one exposure hit.
        if self.plan.rowhammer_threshold > 0 {
            if site.row > 0 {
                self.hammer(RowSite {
                    row: site.row - 1,
                    ..*site
                });
            }
            if site.row + 1 < self.plan.rows_per_bank {
                self.hammer(RowSite {
                    row: site.row + 1,
                    ..*site
                });
            }
        }
    }

    fn on_read(&mut self, site: &RowSite, word: u64, now: u64) -> FlipMask {
        if self.immune(site.row) {
            return FlipMask::CLEAN;
        }
        self.reads += 1;
        let key = (site.key(), word);
        let mut transient = self.apply_scripted(site, key, now);
        let mut bits = if self.plan.stuck_prob > 0.0 {
            // Materialize (or recall) the word's stuck-at mask.
            let state = self.words.entry(key).or_default();
            let stuck = *state.stuck.get_or_insert_with(|| {
                let folded = site.folded();
                let h = hash_from(self.streams.stuck, folded, word);
                if !chance(h, self.plan.stuck_prob) {
                    return 0;
                }
                let bit =
                    hash_from(self.streams.stuck, folded ^ h, word) % u64::from(CODEWORD_BITS);
                self.stats.stuck_cells += 1;
                1u128 << bit
            });
            stuck | state.soft
        } else {
            self.words
                .get(&key)
                .map_or(0, |state| state.stuck.unwrap_or(0) | state.soft)
        };
        if self.plan.transient_prob > 0.0 {
            let h = hash_from(self.streams.transient, self.reads, 0);
            if chance(h, self.plan.transient_prob) {
                let bit =
                    hash_from(self.streams.transient, self.reads, 1) % u64::from(CODEWORD_BITS);
                transient |= 1u128 << bit;
                self.stats.transient_flips += 1;
            }
        }
        bits |= transient;
        if bits != 0 {
            self.stats.reads_faulted += 1;
        }
        FlipMask { bits, transient }
    }

    fn on_write(&mut self, site: &RowSite, word: u64, now: u64) {
        if self.immune(site.row) {
            return;
        }
        let key = site.key();
        if let Some(state) = self.words.get_mut(&(key, word)) {
            if state.soft != 0 {
                state.soft = 0;
                self.stats.scrubs += 1;
            }
        }
        // Writing implies the row is open: its charge is restored.
        self.rows
            .entry(key)
            .or_insert_with(|| RowState::first_seen(&self.plan, site))
            .restored = now;
    }

    fn on_refresh(&mut self, channel: usize, rank: usize, now: u64) {
        let rank = rank_key(channel, rank);
        let calls = self.refresh_calls.entry(rank).or_insert(0);
        *calls += 1;
        if (*calls).is_multiple_of(self.plan.slots_per_window) {
            // A full pass completed: every row in the rank is restored
            // and its disturbance exposure cleared.
            self.rank_epoch.insert(rank, now);
            let threshold = self.plan.rowhammer_threshold;
            for (key, row) in &mut self.rows {
                if key.rank() == rank {
                    row.clear_exposure(threshold);
                }
            }
        }
    }

    fn on_row_refresh(&mut self, site: &RowSite, now: u64) {
        let row = self
            .rows
            .entry(site.key())
            .or_insert_with(|| RowState::first_seen(&self.plan, site));
        row.restored = now;
        row.clear_exposure(self.plan.rowhammer_threshold);
        self.stats.row_refreshes += 1;
    }

    fn stats(&self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ScriptedFault;

    fn site(row: u64) -> RowSite {
        RowSite {
            channel: 0,
            rank: 0,
            bank: 0,
            row,
        }
    }

    #[test]
    fn unconfigured_plan_injects_nothing() {
        let mut inj = FaultPlan::new(1).build();
        for row in 0..64 {
            inj.on_activate(&site(row), row * 10);
            for word in 0..8 {
                assert!(inj.on_read(&site(row), word, row * 10 + 1).is_clean());
            }
        }
        assert_eq!(inj.stats().injected(), 0);
    }

    #[test]
    fn rowhammer_flips_keyed_to_activation_counts() {
        let mut inj = FaultPlan::new(7)
            .geometry(1 << 10, 8)
            .rowhammer(100, 1.0)
            .build();
        // Hammer row 5: rows 4 and 6 are the victims.
        for n in 0..1_000u64 {
            inj.on_activate(&site(5), n);
        }
        // 1000 activations / threshold 100 = 10 trips per victim at
        // p=1.0; each trip flips one (possibly repeated) bit.
        assert!(inj.stats().rowhammer_flips >= 2, "{}", inj.stats());
        // Flips land in the victims, not the aggressor.
        let mut victim_hit = false;
        for word in 0..8 {
            assert!(inj.on_read(&site(5), word, 1_000).is_clean());
            victim_hit |= !inj.on_read(&site(4), word, 1_000).is_clean();
            victim_hit |= !inj.on_read(&site(6), word, 1_000).is_clean();
        }
        assert!(victim_hit, "victim rows carry the flips");
    }

    #[test]
    fn rowhammer_exposure_resets_on_row_refresh() {
        let mut a = FaultPlan::new(7)
            .geometry(1 << 10, 8)
            .rowhammer(100, 1.0)
            .build();
        let mut b = FaultPlan::new(7)
            .geometry(1 << 10, 8)
            .rowhammer(100, 1.0)
            .build();
        for n in 0..990u64 {
            a.on_activate(&site(5), n);
            b.on_activate(&site(5), n);
            if n % 50 == 0 {
                // b's victims get targeted refreshes well under the
                // threshold cadence: exposure never reaches 100.
                b.on_row_refresh(&site(4), n);
                b.on_row_refresh(&site(6), n);
            }
        }
        assert!(a.stats().rowhammer_flips > 0);
        assert_eq!(b.stats().rowhammer_flips, 0, "quarantined victims survive");
    }

    /// One step of a trip-cadence script on rank (0, 0), bank 0.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Act(u64),
        RowRefresh(u64),
        RankRefresh,
    }

    /// Runs `ops` through an injector and through a reference that trips
    /// whenever `exposure % threshold == 0`, and checks that both count the same
    /// flips and refreshes and serve the same mask for every word of the
    /// first 32 rows.
    fn check_trip_cadence(threshold: u64, flip_prob: f64, ops: &[Op]) -> FaultStats {
        use crate::rng::STREAM_HAMMER;
        use std::collections::BTreeMap;
        const ROWS: u64 = 1 << 10;
        const WORDS: u64 = 8;
        const SLOTS: u64 = 4;
        // Retention weak_prob 0: no row is weak, but SLOTS rank
        // refreshes complete a pass.
        let plan = FaultPlan::new(13)
            .geometry(ROWS, WORDS)
            .rowhammer(threshold, flip_prob)
            .retention(0.0, 1_000, SLOTS);
        let mut inj = plan.clone().build();
        let mut exposure = BTreeMap::<u64, u64>::new();
        let mut soft = BTreeMap::<(u64, u64), u128>::new();
        let mut want = FaultStats::default();
        let mut rank_refreshes = 0u64;
        for (now, &op) in (0u64..).zip(ops) {
            match op {
                Op::Act(row) => {
                    inj.on_activate(&site(row), now);
                    for victim in [row.checked_sub(1), Some(row + 1)].into_iter().flatten() {
                        if victim >= ROWS {
                            continue;
                        }
                        let e = exposure.entry(victim).or_insert(0);
                        *e += 1;
                        if !e.is_multiple_of(threshold) {
                            continue;
                        }
                        let trip = *e / threshold;
                        let folded = fold(0, 0, 0, victim);
                        let h = hash(plan.seed, STREAM_HAMMER, folded, trip);
                        if !chance(h, flip_prob) {
                            continue;
                        }
                        let word = hash(plan.seed, STREAM_HAMMER, folded ^ h, trip) % WORDS;
                        let bit = hash(plan.seed, STREAM_HAMMER, folded.wrapping_add(h), trip)
                            % u64::from(CODEWORD_BITS);
                        let mask = soft.entry((victim, word)).or_default();
                        if *mask & 1u128 << bit == 0 {
                            want.rowhammer_flips += 1;
                        }
                        *mask |= 1u128 << bit;
                    }
                }
                Op::RowRefresh(row) => {
                    inj.on_row_refresh(&site(row), now);
                    exposure.insert(row, 0);
                    want.row_refreshes += 1;
                }
                Op::RankRefresh => {
                    inj.on_refresh(0, 0, now);
                    rank_refreshes += 1;
                    if rank_refreshes.is_multiple_of(SLOTS) {
                        exposure.clear();
                    }
                }
            }
        }
        let got = inj.stats();
        assert_eq!(got, want, "threshold {threshold}");
        let at = ops.len() as u64;
        for row in 0..32 {
            for word in 0..WORDS {
                let want = soft.get(&(row, word)).copied().unwrap_or(0);
                let mask = inj.on_read(&site(row), word, at);
                assert_eq!(
                    mask.bits, want,
                    "threshold {threshold}, row {row}, word {word}"
                );
            }
        }
        got
    }

    #[test]
    fn rowhammer_trips_match_the_exposure_modulo_reference() {
        // Threshold 1: every victim hit is a trip. Row 0 has one
        // neighbour; rows 5 and 7 share victim 6.
        let mut ops = Vec::new();
        for _ in 0..40 {
            ops.extend([Op::Act(5), Op::Act(7), Op::Act(0)]);
        }
        ops.push(Op::RowRefresh(6));
        ops.extend([Op::Act(5), Op::Act(7)]);
        let stats = check_trip_cadence(1, 0.5, &ops);
        assert!(stats.rowhammer_flips > 0, "{stats}");

        // A threshold no exposure reaches: no trip at all.
        let ops = vec![Op::Act(5); 300];
        let stats = check_trip_cadence(1_000, 1.0, &ops);
        assert_eq!(stats.rowhammer_flips, 0, "{stats}");

        // Threshold 10 on victims 4 and 6 of row 5: a row refresh of 4
        // after its first trip, then a rank pass, both between trips.
        let mut ops = vec![Op::Act(5); 15];
        ops.push(Op::RowRefresh(4));
        ops.extend([Op::Act(5); 3]);
        ops.extend([Op::RankRefresh; 4]);
        ops.extend([Op::Act(5); 7]);
        ops.push(Op::RowRefresh(6));
        ops.extend([Op::Act(5); 13]);
        ops.extend([Op::RankRefresh; 3]);
        ops.extend([Op::Act(5); 12]);
        let stats = check_trip_cadence(10, 1.0, &ops);
        assert!(stats.rowhammer_flips > 0, "{stats}");
    }

    #[test]
    fn retention_flip_requires_an_overrun_and_scrub_clears_it() {
        // weak_prob 1.0: every row is weak, limit in 25–90% of 1000.
        let plan = FaultPlan::new(3)
            .geometry(1 << 10, 4)
            .retention(1.0, 1000, 1);
        let mut inj = plan.build();
        inj.on_activate(&site(9), 0); // restore at t=0
        inj.on_activate(&site(9), 100); // 100 < limit: no decay
        assert_eq!(inj.stats().retention_flips, 0);
        inj.on_activate(&site(9), 5_000); // way past any limit: flip
        assert_eq!(inj.stats().retention_flips, 1);
        let flipped: Vec<u64> = (0..4)
            .filter(|&w| !inj.on_read(&site(9), w, 5_001).is_clean())
            .collect();
        assert_eq!(flipped.len(), 1);
        // Scrub the word: the flip is gone and the clock reset.
        inj.on_write(&site(9), flipped[0], 5_002);
        assert!(inj.on_read(&site(9), flipped[0], 5_003).is_clean());
        inj.on_activate(&site(9), 5_100); // fresh again: no new flip
        assert_eq!(inj.stats().retention_flips, 1);
    }

    #[test]
    fn escalated_row_refresh_prevents_retention_overruns() {
        let mut inj = FaultPlan::new(3)
            .geometry(1 << 10, 4)
            .retention(1.0, 1000, 1)
            .build();
        // Refresh row 9 every 200 cycles (< 250, the minimum limit):
        // even a 10-window idle stretch decays nothing.
        for t in (0..10_000u64).step_by(200) {
            inj.on_row_refresh(&site(9), t);
        }
        inj.on_activate(&site(9), 10_050);
        assert_eq!(inj.stats().retention_flips, 0);
    }

    #[test]
    fn transient_errors_vanish_on_retry_semantics() {
        let mut inj = FaultPlan::new(11)
            .geometry(1 << 10, 8)
            .transient(1.0)
            .build();
        let mask = inj.on_read(&site(0), 0, 10);
        assert!(!mask.is_clean());
        assert_eq!(mask.bits, mask.transient, "pure transient");
        assert_eq!(mask.persistent(), 0);
    }

    #[test]
    fn stuck_cells_survive_scrubbing() {
        // stuck_prob 1.0: every word has a stuck bit.
        let mut inj = FaultPlan::new(5).geometry(1 << 10, 8).stuck(1.0).build();
        let before = inj.on_read(&site(3), 2, 10);
        assert!(!before.is_clean());
        assert_eq!(before.transient, 0);
        inj.on_write(&site(3), 2, 11);
        let after = inj.on_read(&site(3), 2, 12);
        assert_eq!(after.bits, before.bits, "write does not heal stuck-at");
        assert_eq!(inj.stats().stuck_cells, 1, "counted once");
    }

    #[test]
    fn spare_rows_are_immune() {
        let mut inj = FaultPlan::new(9)
            .geometry(1 << 10, 8)
            .spare_floor(1000)
            .rowhammer(1, 1.0)
            .retention(1.0, 100, 1)
            .transient(1.0)
            .stuck(1.0)
            .build();
        inj.on_activate(&site(1001), 50_000);
        for word in 0..8 {
            assert!(inj.on_read(&site(1000), word, 50_001).is_clean());
            assert!(inj.on_read(&site(1023), word, 50_001).is_clean());
        }
        assert_eq!(inj.stats().injected(), 0);
    }

    #[test]
    fn scripted_faults_fire_once_at_their_cycle() {
        let fault = ScriptedFault {
            at: 100,
            channel: 0,
            rank: 0,
            bank: 0,
            row: 7,
            word: 3,
            bit: 42,
            kind: FaultKind::Retention,
        };
        let mut inj = FaultPlan::new(1).geometry(1 << 10, 8).script(fault).build();
        assert!(inj.on_read(&site(7), 3, 50).is_clean(), "not due yet");
        let mask = inj.on_read(&site(7), 3, 150);
        assert_eq!(mask.bits, 1u128 << 42);
        assert_eq!(inj.stats().scripted_applied, 1);
        inj.on_write(&site(7), 3, 160);
        assert!(inj.on_read(&site(7), 3, 170).is_clean(), "soft kind scrubs");
    }

    #[test]
    fn decisions_are_order_independent() {
        // Same plan, rows touched in opposite orders: each row's fate is
        // identical because decisions key on identity, not sequence.
        let plan = FaultPlan::new(42)
            .geometry(1 << 10, 8)
            .rowhammer(10, 0.5)
            .stuck(0.1);
        let mut fwd = plan.clone().build();
        let mut rev = plan.build();
        let rows: Vec<u64> = (0..50).collect();
        for &r in &rows {
            for n in 0..30u64 {
                fwd.on_activate(&site(r), n);
            }
        }
        for &r in rows.iter().rev() {
            for n in 0..30u64 {
                rev.on_activate(&site(r), n);
            }
        }
        for &r in &rows {
            for w in 0..8 {
                assert_eq!(
                    fwd.on_read(&site(r), w, 10_000).bits,
                    rev.on_read(&site(r), w, 10_000).bits,
                    "row {r} word {w}"
                );
            }
        }
    }

    #[test]
    fn rank_refresh_pass_restores_rows() {
        let mut inj = FaultPlan::new(3)
            .geometry(1 << 10, 4)
            .retention(1.0, 1000, 4)
            .build();
        // 4 slots per window: passes complete on calls 4, 8, ...
        for (i, t) in (0..8u64).map(|i| (i, i * 250)).collect::<Vec<_>>() {
            inj.on_refresh(0, 0, t);
            let _ = i;
        }
        // Last pass completed at t=1750; an activate at 2000 is only 250
        // cycles later — under every possible limit, so no flip.
        inj.on_activate(&site(77), 2_000);
        assert_eq!(inj.stats().retention_flips, 0);
        // But 5000 cycles after the pass is past every limit (max 900).
        let mut stale = FaultPlan::new(3)
            .geometry(1 << 10, 4)
            .retention(1.0, 1000, 4)
            .build();
        for t in 0..8u64 {
            stale.on_refresh(0, 0, t * 250);
        }
        stale.on_activate(&site(77), 6_750);
        assert_eq!(stale.stats().retention_flips, 1);
    }
}
