//! The DRAM timing model against an independent per-command reference.
//!
//! The module derives every command gate from one composition of split
//! gates: a bank's `local_gates` and its rank's `shared_gates`, folded
//! together per command kind. This test shadows the issued command
//! stream with a second derivation, written straight from the JEDEC
//! constraints: it remembers when each command issued and computes each
//! kind's earliest cycle from those times.
//!
//! * ACT: tRC after the bank's last ACT, tRP after its last PRE, tRRD
//!   after the rank's last ACT, tFAW after its fourth-last ACT, and the
//!   refresh blackout.
//! * PRE: tRAS after the bank's last ACT, tRTP after its last RD, write
//!   recovery (tCWL + tBL + tWR) after its last WR.
//! * RD and WR: tRCD after the bank's last ACT, tCCD after its last
//!   column command, and the channel's burst gap after the last column
//!   command on the channel; RD also waits tWTR after the end of the
//!   channel's last write burst.
//! * REF: every bank of the rank past its activate gate (tRC, tRP and
//!   the blackout, no activate throttle).
//!
//! Every gate also waits out the rank's refresh blackout (tRFC). After
//! every step of a random legal command stream, refreshes included,
//! [`DramModule::ready_at`] and [`DramModule::bank_gates`] must equal
//! the reference for every bank and every command kind, and the chosen
//! command must fail one cycle before its gate with `TooEarly(gate)`.
//!
//! The fused probe is checked against the module's own two-call
//! derivation: after every step, for every bank and both access kinds,
//! [`DramModule::probe_next`] must equal [`DramModule::next_needed`]
//! and that command's [`DramModule::ready_at`]. This check runs under
//! every [`LatencyMode`]; the reference, written with nominal timing,
//! is compared only under [`LatencyMode::Standard`].

use ia_dram::{
    AccessKind, BankGates, Command, Cycle, DramConfig, DramModule, IssueErrorReason, LatencyMode,
    Location, TimingParams,
};
use proptest::prelude::*;

/// Every bank of the module, in flat-bank order.
fn all_banks(config: &DramConfig) -> Vec<Location> {
    let geo = config.geometry;
    let mut out = Vec::with_capacity(geo.total_banks());
    for channel in 0..geo.channels {
        for rank in 0..geo.ranks {
            for bank_group in 0..geo.bank_groups {
                for bank in 0..geo.banks_per_group {
                    out.push(Location {
                        channel,
                        rank,
                        bank_group,
                        bank,
                        subarray: 0,
                        row: 0,
                        column: 0,
                    });
                }
            }
        }
    }
    out
}

/// The issue cycles of one bank's most recent commands.
#[derive(Debug, Clone, Copy, Default)]
struct BankHistory {
    open_row: Option<u64>,
    act: Option<u64>,
    pre: Option<u64>,
    read: Option<u64>,
    write: Option<u64>,
}

/// A shadow of the issued command stream, keyed like the module: flat
/// bank, flat (channel, rank), channel.
#[derive(Debug, Clone)]
struct Reference {
    t: TimingParams,
    banks_per_rank: usize,
    ranks: usize,
    /// Whether a read waits tWTR after a write burst (the self-test
    /// turns it off to show the comparison notices).
    wtr: bool,
    banks: Vec<BankHistory>,
    /// Every activate issued to each rank, in issue order.
    rank_acts: Vec<Vec<u64>>,
    /// The last refresh of each rank.
    rank_refresh: Vec<Option<u64>>,
    /// The last column command on each channel: (cycle, is write).
    channel_col: Vec<Option<(u64, bool)>>,
}

/// `base + delta`, or no constraint when the event never happened.
fn after(base: Option<u64>, delta: u64) -> u64 {
    base.map_or(0, |b| b + delta)
}

impl Reference {
    fn new(config: &DramConfig, wtr: bool) -> Self {
        let geo = config.geometry;
        let ranks = geo.channels * geo.ranks;
        Reference {
            t: config.timing,
            banks_per_rank: geo.banks_per_rank(),
            ranks: geo.ranks,
            wtr,
            banks: vec![BankHistory::default(); geo.total_banks()],
            rank_acts: vec![Vec::new(); ranks],
            rank_refresh: vec![None; ranks],
            channel_col: vec![None; geo.channels],
        }
    }

    fn rank_of(&self, bank: usize) -> usize {
        bank / self.banks_per_rank
    }

    fn blackout(&self, rank: usize) -> u64 {
        after(self.rank_refresh[rank], self.t.t_rfc)
    }

    /// A bank's own activate constraints plus the blackout.
    fn bank_activate(&self, bank: usize) -> u64 {
        let h = &self.banks[bank];
        after(h.act, self.t.t_rc())
            .max(after(h.pre, self.t.t_rp))
            .max(self.blackout(self.rank_of(bank)))
    }

    /// Earliest cycle of `cmd`'s kind at flat `bank`.
    fn gate(&self, bank: usize, cmd: &Command) -> u64 {
        let t = &self.t;
        let rank = self.rank_of(bank);
        let channel = rank / self.ranks;
        let h = &self.banks[bank];
        let blackout = self.blackout(rank);
        match cmd {
            Command::Activate { .. } => {
                let acts = &self.rank_acts[rank];
                let faw = acts.len().checked_sub(4).map_or(0, |i| acts[i] + t.t_faw);
                self.bank_activate(bank)
                    .max(after(acts.last().copied(), t.t_rrd))
                    .max(faw)
            }
            Command::Precharge => after(h.act, t.t_ras)
                .max(after(h.read, t.t_rtp))
                .max(after(h.write, t.t_cwl + t.t_bl + t.t_wr))
                .max(blackout),
            Command::Read { .. } | Command::Write { .. } => {
                let last_col = h.read.max(h.write);
                let bus = self.channel_col[channel];
                let mut gate = after(h.act, t.t_rcd)
                    .max(after(last_col, t.t_ccd))
                    .max(after(bus.map(|(at, _)| at), t.t_bl.max(t.t_ccd)))
                    .max(blackout);
                if let (Command::Read { .. }, Some((at, true)), true) = (cmd, bus, self.wtr) {
                    gate = gate.max(at + t.t_cwl + t.t_bl + t.t_wtr);
                }
                gate
            }
            Command::Refresh => (rank * self.banks_per_rank..(rank + 1) * self.banks_per_rank)
                .map(|b| self.bank_activate(b))
                .max()
                .unwrap_or(0)
                .max(blackout),
        }
    }

    /// Records `cmd` issued to flat `bank` at `at`.
    fn issue(&mut self, bank: usize, cmd: Command, at: u64) {
        let rank = self.rank_of(bank);
        let channel = rank / self.ranks;
        let h = &mut self.banks[bank];
        match cmd {
            Command::Activate { row } => {
                h.open_row = Some(row);
                h.act = Some(at);
                self.rank_acts[rank].push(at);
            }
            Command::Precharge => {
                h.open_row = None;
                h.pre = Some(at);
            }
            Command::Read { .. } => {
                h.read = Some(at);
                self.channel_col[channel] = Some((at, false));
            }
            Command::Write { .. } => {
                h.write = Some(at);
                self.channel_col[channel] = Some((at, true));
            }
            Command::Refresh => {
                for b in
                    &mut self.banks[rank * self.banks_per_rank..(rank + 1) * self.banks_per_rank]
                {
                    b.open_row = None;
                }
                self.rank_refresh[rank] = Some(at);
            }
        }
    }

    /// What `DramModule::refresh_rank(.., earliest)` issues, in order:
    /// a precharge of every open bank of the rank at its gate (no
    /// earlier than `earliest`), then the refresh at its gate. Returns
    /// the refresh completion cycle.
    fn refresh_rank(&mut self, rank: usize, earliest: u64) -> u64 {
        for bank in rank * self.banks_per_rank..(rank + 1) * self.banks_per_rank {
            if self.banks[bank].open_row.is_some() {
                let at = self.gate(bank, &Command::Precharge).max(earliest);
                self.issue(bank, Command::Precharge, at);
            }
        }
        let first = rank * self.banks_per_rank;
        let at = self.gate(first, &Command::Refresh).max(earliest);
        self.issue(first, Command::Refresh, at);
        at + self.t.t_rfc
    }
}

/// The five command kinds (operands do not matter for timing).
const KINDS: [Command; 5] = [
    Command::Activate { row: 0 },
    Command::Precharge,
    Command::Read { column: 0 },
    Command::Write { column: 0 },
    Command::Refresh,
];

fn assert_matches(dram: &DramModule, reference: &Reference, banks: &[Location], step: usize) {
    for (flat, loc) in banks.iter().enumerate() {
        prop_assert_eq!(
            dram.open_row(loc),
            reference.banks[flat].open_row,
            "open row diverges at step {} for {:?}",
            step,
            loc
        );
        for cmd in &KINDS {
            prop_assert_eq!(
                dram.ready_at(loc, cmd).as_u64(),
                reference.gate(flat, cmd),
                "{} gate diverges from the reference at step {} for {:?}",
                cmd.mnemonic(),
                step,
                loc
            );
        }
        // The scheduler's one-probe view of the same gates.
        let gates = dram.bank_gates(loc);
        let want = BankGates {
            open_row: reference.banks[flat].open_row,
            read: Cycle::new(reference.gate(flat, &KINDS[2])),
            write: Cycle::new(reference.gate(flat, &KINDS[3])),
            activate: Cycle::new(reference.gate(flat, &KINDS[0])),
            precharge: Cycle::new(reference.gate(flat, &KINDS[1])),
        };
        prop_assert_eq!(gates, want, "bank gates diverge at step {}", step);
    }
}

/// For every bank and both access kinds, the fused probe equals the
/// next command and its gate asked for separately.
fn assert_probe_matches(dram: &DramModule, banks: &[Location], step: usize) {
    for bank in banks {
        // The open row (a hit) and its neighbour (a conflict), or two
        // misses on a closed bank.
        let open = dram.open_row(bank).unwrap_or(0);
        for row in [open, open + 1] {
            let loc = Location {
                row,
                column: 3,
                ..*bank
            };
            for kind in [AccessKind::Read, AccessKind::Write] {
                let cmd = dram.next_needed(&loc, kind);
                prop_assert_eq!(
                    dram.probe_next(&loc, kind),
                    (cmd, dram.ready_at(&loc, &cmd)),
                    "probe_next diverges at step {} for {:?} {:?}",
                    step,
                    kind,
                    loc
                );
            }
        }
    }
}

/// Issuing `cmd` one cycle before its gate fails with `TooEarly(gate)`.
fn assert_too_early(dram: &mut DramModule, loc: &Location, cmd: Command, gate: Cycle) {
    if gate > Cycle::ZERO {
        let err = dram
            .issue(loc, cmd, Cycle::new(gate.as_u64() - 1))
            .unwrap_err();
        prop_assert_eq!(
            err.reason(),
            IssueErrorReason::TooEarly(gate),
            "{} one cycle early",
            cmd
        );
    }
}

/// Drives `config` through `ops`: each op names a bank, a command
/// choice, a row and an extra delay. A closed bank gets an activate; an
/// open one a read, a write or a precharge; every 16th choice refreshes
/// the bank's rank instead. Each command issues at its first legal
/// cycle plus the delay. `wtr` selects the reference's tWTR rule. The
/// module runs in latency `mode`; the probe check runs in every mode,
/// the nominal-timing reference only in [`LatencyMode::Standard`].
fn run(config: DramConfig, mode: LatencyMode, ops: &[(usize, u8, u64, u64)], wtr: bool) {
    let mut dram = DramModule::new(config.clone())
        .unwrap()
        .with_latency_mode(mode);
    let nominal = mode == LatencyMode::Standard;
    let mut reference = Reference::new(&config, wtr);
    let banks = all_banks(&config);
    let mut now = Cycle::ZERO;
    let check = |dram: &DramModule, reference: &Reference, step: usize| {
        if nominal {
            assert_matches(dram, reference, &banks, step);
        }
        assert_probe_matches(dram, &banks, step);
    };
    check(&dram, &reference, 0);
    for (step, &(pick, choice, row, delay)) in ops.iter().enumerate() {
        let flat = pick % banks.len();
        let mut loc = banks[flat];
        if choice % 16 == 0 {
            let rank = reference.rank_of(flat);
            let idle = (0..banks.len())
                .filter(|&b| reference.rank_of(b) == rank)
                .all(|b| reference.banks[b].open_row.is_none());
            if idle {
                let gate = dram.ready_at(&loc, &Command::Refresh);
                assert_too_early(&mut dram, &loc, Command::Refresh, gate);
            }
            let done = dram.refresh_rank(loc.channel, loc.rank, now).unwrap();
            let want = reference.refresh_rank(rank, now.as_u64());
            if nominal {
                prop_assert_eq!(done.as_u64(), want);
            }
        } else {
            loc.row = row % config.geometry.rows_per_bank;
            loc.column = u64::from(choice) % config.geometry.columns_per_row();
            let cmd = match (dram.open_row(&loc), choice % 3) {
                (None, _) => Command::Activate { row: loc.row },
                (Some(_), 0) => Command::Read { column: loc.column },
                (Some(_), 1) => Command::Write { column: loc.column },
                (Some(_), _) => Command::Precharge,
            };
            let gate = dram.ready_at(&loc, &cmd);
            assert_too_early(&mut dram, &loc, cmd, gate);
            let at = gate.max(now) + delay;
            dram.issue(&loc, cmd, at).unwrap();
            reference.issue(flat, cmd, at.as_u64());
            now = at;
        }
        check(&dram, &reference, step + 1);
    }
}

/// Every latency mode: nominal timing, then the reduced modes, each
/// shortening a different set of activates: all of them (AL-DRAM),
/// reopened rows (ChargeCache), and rows below 32 (TL-DRAM's near
/// segment; `ops` draws rows 0..64).
fn latency_modes(config: &DramConfig) -> [LatencyMode; 4] {
    [
        LatencyMode::Standard,
        LatencyMode::AlDram { scale: 0.6 },
        LatencyMode::ChargeCache {
            entries_per_bank: 4,
            window: 100_000,
            scale: 0.6,
        },
        LatencyMode::TieredLatency {
            near_fraction: 32.0 / config.geometry.rows_per_bank as f64,
            near_scale: 0.5,
            far_scale: 1.2,
        },
    ]
}

/// [`run`] in every latency mode.
fn run_every_mode(config: DramConfig, ops: &[(usize, u8, u64, u64)]) {
    for mode in latency_modes(&config) {
        run(config.clone(), mode, ops, true);
    }
}

fn ops() -> impl Strategy<Value = Vec<(usize, u8, u64, u64)>> {
    prop::collection::vec((0usize..1024, any::<u8>(), 0u64..64, 0u64..6), 1..160)
}

fn two_ranks() -> DramConfig {
    DramConfig::ddr3_1600()
        .to_builder()
        .ranks(2)
        .name("DDR3-1600 2R")
        .build()
        .unwrap()
}

/// The comparison can fail: a reference that forgets the write-to-read
/// turnaround disagrees with the model's read gate right after a write
/// (activate bank 0, write it, then read it).
#[test]
#[should_panic(expected = "RD gate diverges from the reference")]
fn reference_without_twtr_is_caught() {
    run(
        DramConfig::ddr3_1600(),
        LatencyMode::Standard,
        &[(0, 1, 0, 0), (0, 1, 0, 0)],
        false,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One channel, one rank, eight banks.
    #[test]
    fn gates_match_reference_on_ddr3(ops in ops()) {
        run_every_mode(DramConfig::ddr3_1600(), &ops);
    }

    /// Four bank groups.
    #[test]
    fn gates_match_reference_on_ddr4(ops in ops()) {
        run_every_mode(DramConfig::ddr4_2400(), &ops);
    }

    /// Two channels: a column command on one must not move the other's
    /// bus gates.
    #[test]
    fn gates_match_reference_on_lpddr4(ops in ops()) {
        run_every_mode(DramConfig::lpddr4_3200(), &ops);
    }

    /// Two ranks on one channel: they share the data bus but not the
    /// refresh blackout or the activate throttle.
    #[test]
    fn gates_match_reference_on_two_ranks(ops in ops()) {
        run_every_mode(two_ranks(), &ops);
    }
}
