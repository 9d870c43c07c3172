//! Fork equivalence: an injector cloned part-way through a campaign must
//! behave exactly like the original from then on. Warm-forked
//! controllers carry their fault hook through `clone_box`, so every
//! piece of per-site state — disturbance exposure, decay clocks, soft and
//! stuck masks, refresh counters, the read counter — has to survive the
//! copy.

use ia_faults::{FaultPlan, FlipMask, Inject, RowSite};

/// One event of a deterministic stream over two ranks and two banks: a
/// double-sided hammer pair around row 201, a strided row scan with
/// reads and scrubs, rank refreshes and targeted row refreshes. Returns
/// the read's flip mask for read events.
fn step(inj: &mut dyn Inject, i: u64) -> Option<FlipMask> {
    let now = i * 7;
    let round = i / 16;
    let rank = (round % 2) as usize;
    let bank = ((round / 2) % 2) as usize;
    let site = |row| RowSite {
        channel: 0,
        rank,
        bank,
        row,
    };
    let scan = site(16 + (round % 64) * 3);
    match i % 16 {
        0..=7 => {
            inj.on_activate(&site(200 + (i % 2) * 2), now);
            None
        }
        8 => {
            inj.on_activate(&scan, now);
            None
        }
        9..=11 => Some(inj.on_read(&scan, i % 4, now)),
        12 => Some(inj.on_read(&site(201), i % 4, now)),
        13 => {
            inj.on_write(&scan, round % 4, now);
            None
        }
        14 => {
            if round.is_multiple_of(4) {
                inj.on_refresh(0, rank, now);
            }
            None
        }
        _ => {
            if round.is_multiple_of(8) {
                inj.on_row_refresh(&site(199), now);
            }
            None
        }
    }
}

#[test]
fn clone_box_mid_campaign_matches_the_original() {
    let mut original: Box<dyn Inject> = Box::new(
        FaultPlan::new(0x5EED)
            .geometry(1 << 10, 4)
            .spare_floor((1 << 10) - 8)
            .rowhammer(24, 0.5)
            .retention(0.3, 4_000, 32)
            .transient(0.02)
            .stuck(0.02)
            .build(),
    );
    const PREFIX: u64 = 20_000;
    const REMAINDER: u64 = 20_000;
    for i in 0..PREFIX {
        let _ = step(original.as_mut(), i);
    }
    let at_fork = original.stats();
    // The fork must carry live state from every probabilistic mechanism.
    assert!(at_fork.rowhammer_flips > 0, "{at_fork}");
    assert!(at_fork.retention_flips > 0, "{at_fork}");
    assert!(at_fork.stuck_cells > 0, "{at_fork}");
    assert!(at_fork.transient_flips > 0, "{at_fork}");

    let mut fork = original.clone_box();
    assert_eq!(fork.stats(), at_fork);
    let mut faulted = 0u64;
    for i in PREFIX..PREFIX + REMAINDER {
        let a = step(original.as_mut(), i);
        let b = step(fork.as_mut(), i);
        assert_eq!(a, b, "event {i}: fork diverged");
        faulted += u64::from(a.is_some_and(|m| !m.is_clean()));
    }
    assert!(faulted > 0, "the remainder must read back flips");
    assert_eq!(original.stats(), fork.stats());
    assert!(
        original.stats().injected() > at_fork.injected(),
        "the remainder must inject new faults"
    );
}
