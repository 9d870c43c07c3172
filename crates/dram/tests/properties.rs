//! Property-based tests of the DRAM substrate's core invariants.

use ia_dram::{
    AccessKind, AddressMapping, Command, Cycle, DramConfig, DramModule, Geometry, LatencyMode,
    Location, PhysAddr,
};
use proptest::prelude::*;

/// DDR3 (one channel, one rank), DDR4 (bank groups), LPDDR4 (two
/// channels) and a two-rank DDR3.
fn configs() -> Vec<DramConfig> {
    let two_ranks = DramConfig::ddr3_1600()
        .to_builder()
        .ranks(2)
        .name("DDR3-1600 2R")
        .build()
        .unwrap();
    vec![
        DramConfig::ddr3_1600(),
        DramConfig::ddr4_2400(),
        DramConfig::lpddr4_3200(),
        two_ranks,
    ]
}

/// Every latency mode, with scales below and above nominal.
fn modes() -> [LatencyMode; 4] {
    [
        LatencyMode::Standard,
        LatencyMode::AlDram { scale: 0.7 },
        LatencyMode::ChargeCache {
            entries_per_bank: 8,
            window: 100_000,
            scale: 0.6,
        },
        LatencyMode::TieredLatency {
            near_fraction: 0.25,
            near_scale: 0.6,
            far_scale: 1.1,
        },
    ]
}

/// `AddressMapping::decode` with a division and a remainder for every
/// radix: the reference the shift-and-mask decode must equal.
fn decode_by_division(mapping: AddressMapping, addr: u64, geo: &Geometry) -> Location {
    let split = |v: u64, radix: u64| (v % radix, v / radix);
    let columns = geo.row_bytes / geo.column_bytes;
    let (channel, rest) = split(addr / geo.column_bytes, geo.channels as u64);
    let (column, bank, bank_group, rank, rest) = match mapping {
        AddressMapping::RowInterleaved => {
            let (column, rest) = split(rest, columns);
            let (bank, rest) = split(rest, geo.banks_per_group as u64);
            let (bank_group, rest) = split(rest, geo.bank_groups as u64);
            let (rank, rest) = split(rest, geo.ranks as u64);
            (column, bank, bank_group, rank, rest)
        }
        AddressMapping::BankInterleaved => {
            let (bank, rest) = split(rest, geo.banks_per_group as u64);
            let (bank_group, rest) = split(rest, geo.bank_groups as u64);
            let (rank, rest) = split(rest, geo.ranks as u64);
            let (column, rest) = split(rest, columns);
            (column, bank, bank_group, rank, rest)
        }
    };
    let row = rest % geo.rows_per_bank;
    Location {
        channel: channel as usize,
        rank: rank as usize,
        bank_group: bank_group as usize,
        bank: bank as usize,
        subarray: (row / (geo.rows_per_bank / geo.subarrays_per_bank as u64)) as usize,
        row,
        column,
    }
}

/// Every preset, and geometries whose channel, rank, bank-group, bank
/// and subarray counts are not powers of two. The last one `validate()`
/// rejects (three subarrays do not divide a power-of-two row count); the
/// decode is defined for it all the same.
fn decode_geometries() -> Vec<Geometry> {
    let ddr4 = DramConfig::ddr4_2400().geometry;
    let odd = Geometry {
        channels: 3,
        ranks: 3,
        bank_groups: 3,
        banks_per_group: 5,
        ..ddr4
    };
    let geos = vec![
        Geometry::default(),
        DramConfig::ddr3_1600().geometry,
        ddr4,
        DramConfig::lpddr4_3200().geometry,
        odd,
        Geometry {
            channels: 6,
            ranks: 1,
            bank_groups: 1,
            banks_per_group: 7,
            ..odd
        },
        Geometry {
            channels: 2,
            ranks: 5,
            bank_groups: 2,
            banks_per_group: 12,
            subarrays_per_bank: 1,
            row_bytes: 2048,
            column_bytes: 32,
            ..odd
        },
        Geometry {
            subarrays_per_bank: 3,
            ..odd
        },
    ];
    for g in &geos[..geos.len() - 1] {
        g.validate().unwrap();
    }
    assert!(geos[geos.len() - 1].validate().is_err());
    geos
}

#[test]
fn decode_by_division_is_the_reference_on_the_default_geometry() {
    // The reference itself must agree with the documented example.
    let geo = Geometry::default();
    let loc = decode_by_division(AddressMapping::RowInterleaved, 64, &geo);
    assert_eq!((loc.row, loc.column), (0, 1));
}

proptest! {
    /// The shift-and-mask decode equals the division-only one, and the
    /// geometry helpers equal their divisions, for both mappings on
    /// addresses below 2^48.
    #[test]
    fn decode_matches_division(addrs in prop::collection::vec(0u64..(1 << 48), 64)) {
        for geo in decode_geometries() {
            prop_assert_eq!(geo.columns_per_row(), geo.row_bytes / geo.column_bytes);
            let per_subarray = geo.rows_per_bank / geo.subarrays_per_bank as u64;
            prop_assert_eq!(geo.rows_per_subarray(), per_subarray);
            for mapping in [AddressMapping::RowInterleaved, AddressMapping::BankInterleaved] {
                for &addr in &addrs {
                    let loc = mapping.decode(PhysAddr::new(addr), &geo);
                    prop_assert_eq!(loc, decode_by_division(mapping, addr, &geo));
                    prop_assert_eq!(geo.subarray_of_row(loc.row), (loc.row / per_subarray) as usize);
                }
            }
        }
    }
}

proptest! {
    /// Address decode/encode is a bijection on line-aligned addresses in
    /// capacity, for both mappings.
    #[test]
    fn address_mapping_roundtrips(line in 0u64..(1 << 26)) {
        let geo = Geometry::default();
        for mapping in [AddressMapping::RowInterleaved, AddressMapping::BankInterleaved] {
            let addr = PhysAddr::new(line * geo.column_bytes);
            let loc = mapping.decode(addr, &geo);
            prop_assert!(loc.row < geo.rows_per_bank);
            prop_assert!(loc.column < geo.columns_per_row());
            let back = mapping.encode(&loc, &geo);
            prop_assert_eq!(back, addr);
        }
    }

    /// Whatever `ready_at` returns for an access's next command is
    /// actually issuable at that cycle — under any interleaving of random
    /// reads and writes, on every geometry and in every latency mode.
    #[test]
    fn ready_at_is_always_issuable(
        addrs in prop::collection::vec(0u64..(1 << 24), 1..40),
        write_mask in 0u64..,
    ) {
        for config in configs() {
            for mode in modes() {
                let mut dram = DramModule::new(config.clone()).unwrap().with_latency_mode(mode);
                let mut now = Cycle::ZERO;
                for (i, &a) in addrs.iter().enumerate() {
                    let kind = if write_mask >> (i % 64) & 1 == 1 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    let loc = dram.decode(PhysAddr::new(a & !63));
                    let cmd = dram.next_needed(&loc, kind);
                    let at = dram.ready_at(&loc, &cmd).max(now);
                    prop_assert!(
                        dram.issue(&loc, cmd, at).is_ok(),
                        "{} {:?}: cmd {} at {}", config.name, mode, cmd, at
                    );
                    now = at;
                }
            }
        }
    }

    /// The open-page convenience interface always completes, data_ready
    /// strictly after issue, and never earlier than the requested cycle.
    #[test]
    fn access_completes_in_order(
        addrs in prop::collection::vec(0u64..(1 << 22), 1..30),
        write_mask in 0u32..,
    ) {
        let mut dram = DramModule::new(DramConfig::ddr3_1600()).unwrap();
        let mut now = Cycle::ZERO;
        for (i, a) in addrs.iter().enumerate() {
            let kind = if write_mask >> (i % 32) & 1 == 1 { AccessKind::Write } else { AccessKind::Read };
            let r = dram.access(PhysAddr::new(a & !63), kind, now).unwrap();
            prop_assert!(r.data_ready > r.issued_at);
            prop_assert!(r.issued_at >= now);
            now = r.data_ready;
        }
        let s = dram.stats();
        prop_assert_eq!(s.reads + s.writes, addrs.len() as u64);
    }

    /// Row-buffer classification counts partition the accesses.
    #[test]
    fn outcome_counts_partition(addrs in prop::collection::vec(0u64..(1 << 20), 1..50)) {
        let mut dram = DramModule::new(DramConfig::ddr3_1600()).unwrap();
        let mut now = Cycle::ZERO;
        for a in &addrs {
            let r = dram.access(PhysAddr::new(a & !63), AccessKind::Read, now).unwrap();
            now = r.data_ready;
        }
        let s = dram.stats();
        prop_assert_eq!(s.row_hits + s.row_misses + s.row_conflicts, addrs.len() as u64);
        let rate = s.row_hit_rate();
        prop_assert!((0.0..=1.0).contains(&rate));
    }

    /// Energy is monotone: every access strictly increases dynamic energy.
    #[test]
    fn energy_is_monotone(addrs in prop::collection::vec(0u64..(1 << 20), 2..20)) {
        let mut dram = DramModule::new(DramConfig::ddr3_1600()).unwrap();
        let mut now = Cycle::ZERO;
        let mut last = 0.0f64;
        for a in addrs {
            let r = dram.access(PhysAddr::new(a & !63), AccessKind::Read, now).unwrap();
            now = r.data_ready;
            let e = dram.energy().dynamic_pj();
            prop_assert!(e > last);
            last = e;
        }
    }

    /// A refresh never leaves a rank in a state that rejects future use.
    #[test]
    fn refresh_then_access_always_works(a in 0u64..(1 << 22), at in 0u64..10_000) {
        let mut dram = DramModule::new(DramConfig::ddr3_1600()).unwrap();
        let done = dram.refresh_rank(0, 0, Cycle::new(at)).unwrap();
        let r = dram.access(PhysAddr::new(a & !63), AccessKind::Read, done).unwrap();
        prop_assert!(r.data_ready > done);
    }
}

/// Issuing the same command twice at the same cycle must fail the second
/// time (the state machines are not idempotent).
#[test]
fn double_issue_is_rejected() {
    let mut dram = DramModule::new(DramConfig::ddr3_1600()).unwrap();
    let loc = dram.decode(PhysAddr::new(0));
    dram.issue(&loc, Command::Activate { row: loc.row }, Cycle::ZERO)
        .unwrap();
    assert!(dram
        .issue(&loc, Command::Activate { row: loc.row }, Cycle::ZERO)
        .is_err());
}
