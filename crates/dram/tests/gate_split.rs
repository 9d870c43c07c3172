//! The split gate probe recombines exactly: after every command of a
//! random legal command stream, refreshes included, a bank's
//! [`DramModule::local_gates`] combined with its (channel, rank)'s
//! [`DramModule::shared_gates`] equals [`DramModule::bank_gates`], for
//! every bank of the module.

use ia_dram::{BankGates, Command, Cycle, DramConfig, DramModule, Location};
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

fn assert_split_matches(dram: &DramModule, banks: &[Location], step: usize) {
    for loc in banks {
        let split = BankGates::combine(
            &dram.local_gates(loc),
            &dram.shared_gates(loc.channel, loc.rank),
        );
        prop_assert_eq!(
            split,
            dram.bank_gates(loc),
            "split gates diverge at step {} for {:?}",
            step,
            loc
        );
    }
}

/// Drives `config` through `ops`: each op names a bank, a command
/// choice, a row and an extra delay. A closed bank gets an activate; an
/// open one a read, a write or a precharge; every 16th choice refreshes
/// the bank's rank instead. Each command issues at its first legal
/// cycle plus the delay.
fn run(config: DramConfig, ops: &[(usize, u8, u64, u64)]) {
    let mut dram = DramModule::new(config.clone()).unwrap();
    let banks = all_banks(&config);
    let mut now = Cycle::ZERO;
    assert_split_matches(&dram, &banks, 0);
    for (step, &(pick, choice, row, delay)) in ops.iter().enumerate() {
        let mut loc = banks[pick % banks.len()];
        if choice % 16 == 0 {
            dram.refresh_rank(loc.channel, loc.rank, now).unwrap();
        } else {
            loc.row = row % config.geometry.rows_per_bank;
            loc.column = u64::from(choice) % config.geometry.columns_per_row();
            let cmd = match (dram.open_row(&loc), choice % 3) {
                (None, _) => Command::Activate { row: loc.row },
                (Some(_), 0) => Command::Read { column: loc.column },
                (Some(_), 1) => Command::Write { column: loc.column },
                (Some(_), _) => Command::Precharge,
            };
            let at = dram.ready_at(&loc, &cmd).max(now) + delay;
            dram.issue(&loc, cmd, at).unwrap();
            now = at;
        }
        assert_split_matches(&dram, &banks, step + 1);
    }
}

fn ops() -> impl Strategy<Value = Vec<(usize, u8, u64, u64)>> {
    prop::collection::vec((0usize..1024, any::<u8>(), 0u64..64, 0u64..6), 1..160)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One channel, one rank, eight banks.
    #[test]
    fn split_gates_recombine_on_ddr3(ops in ops()) {
        run(DramConfig::ddr3_1600(), &ops);
    }

    /// Four bank groups.
    #[test]
    fn split_gates_recombine_on_ddr4(ops in ops()) {
        run(DramConfig::ddr4_2400(), &ops);
    }

    /// Two channels: a column command on one must not move the other's
    /// bus gates.
    #[test]
    fn split_gates_recombine_on_lpddr4(ops in ops()) {
        run(DramConfig::lpddr4_3200(), &ops);
    }

    /// Two ranks on one channel: they share the data bus but not the
    /// refresh blackout or the activate throttle.
    #[test]
    fn split_gates_recombine_on_two_ranks(ops in ops()) {
        let config = DramConfig::ddr3_1600()
            .to_builder()
            .ranks(2)
            .name("DDR3-1600 2R")
            .build()
            .unwrap();
        run(config, &ops);
    }
}
