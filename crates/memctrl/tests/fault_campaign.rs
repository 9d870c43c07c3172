//! Pinned fault campaigns over several channels, ranks and banks.
//!
//! The fault stack keys its per-row and per-rank state by site. These
//! campaigns touch every coordinate a key holds — two channels, two
//! ranks, eight banks, several words per row — with every mechanism on,
//! and pin what comes out against values recorded from an earlier,
//! independently keyed implementation: the injector's [`FaultStats`],
//! a closed-loop run's [`ReliabilityReport`], and a digest of every flip
//! mask the injector served. A key that drops or shifts a field (a rank
//! pass that clears another rank's exposure, a remap that lands in the
//! wrong bank) changes a flip somewhere and fails the pin.
//!
//! The single-rank, one-word-per-row benchmark workload cannot see such
//! a slip; these campaigns can.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ia_dram::{AddressMapping, DramConfig, Location};
use ia_faults::{
    FaultInjector, FaultKind, FaultPlan, FaultStats, FlipMask, Inject, RowSite, ScriptedFault,
};
use ia_memctrl::{
    run_closed_loop_with, Fcfs, MemRequest, MemoryController, Mitigation, RefreshMode,
    ReliabilityConfig, ReliabilityPipeline, ReliabilityReport, ReliabilityStats,
};

const CHANNELS: usize = 2;
const RANKS: usize = 2;
const BANKS: usize = 8;

/// Folds one value into a running digest (order-sensitive).
fn fold(digest: u64, value: u64) -> u64 {
    let mut z = (digest ^ value).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds one served read — where, which word, and its mask.
fn fold_read(digest: u64, site: &RowSite, word: u64, mask: FlipMask) -> u64 {
    let mut d = digest;
    for v in [
        site.channel as u64,
        site.rank as u64,
        site.bank as u64,
        site.row,
        word,
        mask.bits as u64,
        (mask.bits >> 64) as u64,
        mask.transient as u64,
        (mask.transient >> 64) as u64,
    ] {
        d = fold(d, v);
    }
    d
}

/// A scripted fault on bit `bit` of word `word` of `site`'s row.
fn scripted(at: u64, site: RowSite, word: u64, bit: u8, kind: FaultKind) -> ScriptedFault {
    ScriptedFault {
        at,
        channel: site.channel,
        rank: site.rank,
        bank: site.bank,
        row: site.row,
        word,
        bit,
        kind,
    }
}

fn site(channel: usize, rank: usize, bank: usize, row: u64) -> RowSite {
    RowSite {
        channel,
        rank,
        bank,
        row,
    }
}

#[test]
fn injector_campaign_over_channels_ranks_and_banks_is_pinned() {
    const ROWS: u64 = 1 << 10;
    const WORDS: u64 = 8;
    let mut plan = FaultPlan::new(0xC0FF_EE11)
        .geometry(ROWS, WORDS)
        .spare_floor(ROWS - 8)
        .rowhammer(12, 0.6)
        .retention(0.3, 2_400, 16)
        .transient(0.01)
        .stuck(0.01);
    for (i, kind) in [
        FaultKind::RowHammer,
        FaultKind::Retention,
        FaultKind::TransientBus,
        FaultKind::StuckAt,
    ]
    .into_iter()
    .enumerate()
    {
        let i64_ = i as u64;
        plan = plan.script(scripted(
            1_000 + i64_ * 5_000,
            site(i % CHANNELS, (i / 2) % RANKS, (3 * i) % BANKS, 40 + i64_),
            i64_ * 2 % WORDS,
            (i * 17 + 3) as u8,
            kind,
        ));
    }
    let targets: Vec<ScriptedFault> = plan.scripted.clone();
    let mut inj: FaultInjector = plan.build();
    let mut digest = 0u64;
    for i in 0..48_000u64 {
        let now = i * 3;
        let channel = (i % 2) as usize;
        let rank = ((i / 2) % 2) as usize;
        let bank = ((i / 4) % BANKS as u64) as usize;
        let round = i / 32;
        // One block is one pass through the sixteen phases below.
        let block = i / 64;
        match (i / 4) % 16 {
            // Double-sided hammer around row 300; channel 1 rank 1
            // hammers twice as hard as the other ranks.
            0..=5 => inj.on_activate(&site(channel, rank, bank, 299 + (i % 2) * 2), now),
            6 if channel == 1 && rank == 1 => {
                inj.on_activate(&site(channel, rank, bank, 301 + (i % 2) * 2), now);
            }
            // A strided scan that reads every word of its row.
            7 | 8 => {
                let row = 40 + (round % 48) * 5 + (i % 3);
                inj.on_activate(&site(channel, rank, bank, row), now);
                for word in 0..WORDS {
                    let s = site(channel, rank, bank, row);
                    let mask = inj.on_read(&s, word, now + 1);
                    digest = fold_read(digest, &s, word, mask);
                }
            }
            // Victim reads: the hammered neighbours and their neighbours.
            9 | 10 => {
                for row in [298u64, 300, 302, 304] {
                    let s = site(channel, rank, bank, row);
                    let word = (i + row) % WORDS;
                    let mask = inj.on_read(&s, word, now);
                    digest = fold_read(digest, &s, word, mask);
                }
            }
            // Scrub writes to the victims and the scan.
            11 => {
                inj.on_write(&site(channel, rank, bank, 300), round % WORDS, now);
                inj.on_write(
                    &site(channel, rank, bank, 40 + (round % 48) * 5),
                    i % WORDS,
                    now,
                );
            }
            // Rank refreshes: rank 0 of channel 0 once per block, the
            // others at their own cadences, so passes complete at
            // different times per rank.
            12 => {
                let cadence = 1 + channel as u64 + 2 * rank as u64;
                if block % cadence == 0 {
                    inj.on_refresh(channel, rank, now);
                }
            }
            // Targeted row refreshes of one victim, on one rank only.
            13 if rank == 0 && block % 3 == 0 => {
                inj.on_row_refresh(&site(channel, 0, bank, 302), now)
            }
            // Spare rows are immune whatever happens to them.
            14 => {
                let s = site(channel, rank, bank, ROWS - 2);
                inj.on_activate(&s, now);
                let mask = inj.on_read(&s, i % WORDS, now);
                digest = fold_read(digest, &s, i % WORDS, mask);
            }
            // The scripted targets, read now and then.
            15 if block % 8 == 0 => {
                for f in &targets {
                    let s = site(f.channel, f.rank, f.bank, f.row);
                    let mask = inj.on_read(&s, f.word, now);
                    digest = fold_read(digest, &s, f.word, mask);
                }
            }
            _ => {}
        }
    }
    let stats = inj.stats();
    for (name, v) in [
        ("rowhammer", stats.rowhammer_flips),
        ("retention", stats.retention_flips),
        ("transient", stats.transient_flips),
        ("stuck", stats.stuck_cells),
        ("scripted", stats.scripted_applied),
        ("scrubs", stats.scrubs),
        ("row refreshes", stats.row_refreshes),
        ("faulted reads", stats.reads_faulted),
    ] {
        assert!(v > 0, "{name} never fired: {stats:?}");
    }
    assert_eq!(
        stats,
        FaultStats {
            rowhammer_flips: 147,
            retention_flips: 1133,
            transient_flips: 754,
            stuck_cells: 14,
            scripted_applied: 4,
            scrubs: 59,
            row_refreshes: 500,
            reads_faulted: 14713,
        }
    );
    assert_eq!(digest, 0x268b_defa_aae6_b634, "a served flip mask moved");
}

/// An injector that folds every read it serves into a shared digest.
#[derive(Debug, Clone)]
struct Digesting {
    inner: FaultInjector,
    digest: Arc<AtomicU64>,
}

impl Inject for Digesting {
    fn on_activate(&mut self, site: &RowSite, now: u64) {
        self.inner.on_activate(site, now);
    }
    fn on_read(&mut self, site: &RowSite, word: u64, now: u64) -> FlipMask {
        let mask = self.inner.on_read(site, word, now);
        let d = self.digest.load(Ordering::Relaxed);
        self.digest
            .store(fold_read(d, site, word, mask), Ordering::Relaxed);
        mask
    }
    fn on_write(&mut self, site: &RowSite, word: u64, now: u64) {
        self.inner.on_write(site, word, now);
    }
    fn on_refresh(&mut self, channel: usize, rank: usize, now: u64) {
        self.inner.on_refresh(channel, rank, now);
    }
    fn on_row_refresh(&mut self, site: &RowSite, now: u64) {
        self.inner.on_row_refresh(site, now);
    }
    fn stats(&self) -> FaultStats {
        self.inner.stats()
    }
    fn clone_box(&self) -> Box<dyn Inject> {
        Box::new(self.clone())
    }
}

#[test]
fn full_mitigation_pipeline_over_two_channels_and_ranks_is_pinned() {
    let config = DramConfig::ddr3_1600()
        .to_builder()
        .channels(CHANNELS)
        .ranks(RANKS)
        .rows_per_bank(1 << 10)
        .row_bytes(512)
        .build()
        .expect("valid geometry");
    let geo = config.geometry;
    assert_eq!(geo.banks_per_rank(), BANKS);
    let words_per_row = geo.row_bytes / geo.column_bytes;
    let reliability = ReliabilityConfig {
        mitigation: Mitigation::Full,
        spare_rows_per_bank: 8,
        quarantine_threshold: 60,
    };
    let spare_floor = geo.rows_per_bank - reliability.spare_rows_per_bank;
    let plan = FaultPlan::new(0x0BAD_5EED)
        .geometry(geo.rows_per_bank, words_per_row)
        .spare_floor(spare_floor)
        .rowhammer(20, 0.7)
        .retention(0.25, 4 * config.timing.t_refi, 4)
        .transient(0.02)
        .stuck(0.02)
        // Two stuck cells in one word: a persistent uncorrectable that
        // only a remap answers.
        .script(scripted(0, site(1, 1, 5, 120), 3, 9, FaultKind::StuckAt))
        .script(scripted(0, site(1, 1, 5, 120), 3, 50, FaultKind::StuckAt))
        // A lone soft flip elsewhere: corrected, scrubbed, escalated.
        .script(scripted(0, site(0, 1, 2, 64), 1, 33, FaultKind::Retention));
    let digest = Arc::new(AtomicU64::new(0));
    let hook = Digesting {
        inner: plan.build(),
        digest: Arc::clone(&digest),
    };
    let pipeline = ReliabilityPipeline::with_hook(reliability, Box::new(hook), geo.rows_per_bank);
    let ctrl = MemoryController::new(config.clone(), Box::new(Fcfs::new()))
        .expect("valid config")
        .with_refresh_mode(RefreshMode::AllBank)
        .with_reliability(pipeline);

    let mapping = AddressMapping::default();
    let addr = |channel: usize, rank: usize, bank: usize, row: u64, column: u64| {
        let loc = Location {
            channel,
            rank,
            bank_group: 0,
            bank,
            subarray: geo.subarray_of_row(row),
            row,
            column,
        };
        let a = mapping.encode(&loc, &geo);
        assert_eq!(mapping.decode(a, &geo), loc);
        a.as_u64()
    };
    // Thread 0 hammers a pair in every (channel, rank, bank), harder on
    // channel 1 rank 1; thread 1 scans rows and reads every word.
    let mut hammer = Vec::new();
    let mut scan = Vec::new();
    for pass in 0..3u64 {
        for channel in 0..CHANNELS {
            for rank in 0..RANKS {
                for bank in 0..BANKS {
                    let reps = if channel == 1 && rank == 1 { 80 } else { 40 };
                    for n in 0..reps {
                        let row = 200 + (n % 2) * 2 + pass * 10;
                        hammer.push(MemRequest::read(addr(channel, rank, bank, row, n % 4), 0));
                    }
                }
            }
        }
        for row in 0..160u64 {
            let channel = (row % 2) as usize;
            let rank = ((row / 2) % 2) as usize;
            let bank = ((row / 4) % BANKS as u64) as usize;
            let target = if row % 40 == 0 {
                120
            } else {
                60 + (row * 7) % 150
            };
            for column in 0..words_per_row {
                scan.push(MemRequest::read(
                    addr(channel, rank, bank, target, column),
                    1,
                ));
            }
        }
        // The scripted victims, read on every pass.
        for column in 0..words_per_row {
            scan.push(MemRequest::read(addr(1, 1, 5, 120, column), 1));
            scan.push(MemRequest::read(addr(0, 1, 2, 64, column), 1));
        }
    }
    let report = run_closed_loop_with(ctrl, &[hammer, scan], 4, 200_000_000).expect("runs");
    let rel: ReliabilityReport = report.reliability.expect("pipeline attached");
    let digest = digest.load(Ordering::Relaxed);
    let s: ReliabilityStats = rel.stats;
    for (name, v) in [
        ("quarantines", s.quarantines),
        ("remaps", s.remaps),
        ("escalations", s.escalations),
        ("escalated refreshes", s.escalated_refreshes),
        ("scrubs", s.scrubs),
        ("retries", s.retries),
    ] {
        assert!(v > 0, "{name} never fired: {s:?}");
    }
    assert_eq!(report.cycles, 197_953);
    assert_eq!(
        rel,
        ReliabilityReport {
            mitigation: Mitigation::Full,
            stats: ReliabilityStats {
                reads_checked: 8688,
                corrected: 414,
                retries: 8,
                retry_recovered: 7,
                uncorrected: 1,
                miscorrections: 0,
                scrubs: 414,
                remaps: 1,
                spare_exhausted: 0,
                quarantines: 24,
                escalations: 251,
                escalated_refreshes: 2376,
            },
            faults: FaultStats {
                rowhammer_flips: 323,
                retention_flips: 46,
                transient_flips: 172,
                stuck_cells: 35,
                scripted_applied: 3,
                scrubs: 34,
                row_refreshes: 2400,
                reads_faulted: 415,
            },
        }
    );
    assert_eq!(digest, 0xedd8_bd90_38b5_4fea, "a served flip mask moved");
}
