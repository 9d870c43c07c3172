//! Differential property test: the indexed per-(bank, class) ready
//! lists and their gate cache against the legacy linear scan.
//!
//! Drives a [`RequestQueue`] and a [`DramModule`] through random
//! enqueue / issue / touch / cancel interleavings. Every DRAM access is
//! followed by the [`RequestQueue::resync`] the controller makes after a
//! command. At every step the test checks that the indexed
//! [`RequestQueue::build_view`] agrees with the retired linear scan
//! (kept here as [`linear_issue_view`], the differential oracle) — same
//! candidate set, same row-hit count, and the same pick from every
//! scheduler policy — and that the wake-up bounds are exactly the first
//! cycle at which a tick could issue: [`RequestQueue::next_issue_at`] for
//! a view-building policy, the gate of [`RequestQueue::probe_head`] for a
//! Skip one, on DDR3, DDR4, LPDDR4 and a two-rank DDR3. The
//! queue is exact after a resync, not in any state: a self-test shows
//! that skipping the resync is caught.

use ia_dram::{AccessKind, Command, Cycle, DramConfig, DramModule, PhysAddr};
use ia_memctrl::{
    Atlas, Bliss, Fcfs, FrFcfs, IssueView, MemRequest, ParBs, Pending, ReqId, RequestQueue,
    RlScheduler, RlSchedulerConfig, Scheduler, Tcm, ViewMode,
};
use proptest::prelude::*;

const THREADS: usize = 4;

fn schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(Fcfs::new()),
        Box::new(FrFcfs::new()),
        Box::new(ParBs::new(THREADS)),
        Box::new(Atlas::new(THREADS, 10_000)),
        Box::new(Tcm::new(THREADS, 10_000, 1_000)),
        Box::new(Bliss::new()),
        Box::new(RlScheduler::new(RlSchedulerConfig::default())),
    ]
}

fn pending(
    dram: &DramModule,
    id: u64,
    addr: u64,
    write: bool,
    thread: usize,
    now: Cycle,
) -> Pending {
    let request = if write {
        MemRequest::write(addr, thread)
    } else {
        MemRequest::read(addr, thread)
    };
    Pending {
        id,
        loc: dram.decode(PhysAddr::new(addr)),
        request,
        arrival: now,
        batched: false,
        started: false,
    }
}

/// Per-cycle scheduling facts for a flat slice of requests, computed
/// by [`linear_issue_view`].
#[derive(Debug, Clone)]
struct LinearIssueView {
    /// Issuable request indices under the open-page rule (ascending),
    /// each with its row-hit flag.
    ready: Vec<(usize, bool)>,
    /// Number of queued requests (issuable or not) whose next command is
    /// a column command.
    row_hits: usize,
}

/// The linear scan the indexed queue replaced: probes the DRAM for
/// every request's next command, and keeps those issuable at `now`
/// minus row-closing precharges to banks that still have queued row
/// hits — the open-page rule (a row with outstanding hits is not closed
/// just because its next burst is a few cycles away).
fn linear_issue_view(queue: &[Pending], dram: &DramModule, now: Cycle) -> LinearIssueView {
    let geo = &dram.config().geometry;
    let mut ready: Vec<(usize, bool)> = Vec::with_capacity(queue.len());
    // Flat bank keys with at least one queued row hit.
    let mut hit_banks: Vec<usize> = Vec::new();
    let mut row_hits = 0usize;
    // Pass 1: classify every entry once (issuable? hit? precharge?).
    let mut pending_pre: Vec<(usize, usize)> = Vec::new(); // (index, flat bank)
    for (i, p) in queue.iter().enumerate() {
        let cmd = dram.next_needed(&p.loc, p.request.kind);
        let issuable = dram.ready_at(&p.loc, &cmd) <= now;
        match cmd {
            Command::Read { .. } | Command::Write { .. } => {
                row_hits += 1;
                let bank = p.loc.flat_bank(geo);
                if !hit_banks.contains(&bank) {
                    hit_banks.push(bank);
                }
                if issuable {
                    ready.push((i, true));
                }
            }
            Command::Precharge if issuable => pending_pre.push((i, p.loc.flat_bank(geo))),
            _ => {
                if issuable {
                    ready.push((i, false));
                }
            }
        }
    }
    // Pass 2: closing a bank is allowed only if no queued request hits
    // its currently-open row.
    for (i, bank) in pending_pre {
        if !hit_banks.contains(&bank) {
            ready.push((i, false));
        }
    }
    ready.sort_unstable_by_key(|&(i, _)| i);
    LinearIssueView { ready, row_hits }
}

/// Snapshot of the queue in iteration order, for the linear oracle.
fn flatten(queue: &RequestQueue) -> (Vec<ReqId>, Vec<Pending>) {
    queue.iter().map(|(id, p)| (id, *p)).unzip()
}

/// The candidate set as `(request id, row-hit)` pairs, order-erased.
fn as_set(view: &IssueView, queue: &RequestQueue) -> Vec<(u64, bool)> {
    let mut v: Vec<(u64, bool)> = view
        .ready
        .iter()
        .map(|&(h, hit)| (queue.req(h).id, hit))
        .collect();
    v.sort_unstable();
    v
}

/// First cycle `>= now` at which `issuable(t)` holds, scanning cycle by
/// cycle (`None` for an empty queue).
fn first_cycle(
    queue: &RequestQueue,
    now: Cycle,
    issuable: impl Fn(Cycle) -> bool,
) -> Option<Cycle> {
    if queue.is_empty() {
        return None;
    }
    let found = (now.as_u64()..now.as_u64() + 1_000_000)
        .map(Cycle::new)
        .find(|&t| issuable(t));
    assert!(
        found.is_some(),
        "no issuable cycle within 1M cycles of {now:?}"
    );
    found
}

/// The wake-up bound against per-cycle oracles, for every view mode.
fn check_wakeup(queue: &RequestQueue, dram: &DramModule, now: Cycle) {
    let (_, pendings) = flatten(queue);
    // Frontier and Full views are non-empty exactly when the linear
    // scan's open-page candidate set is.
    let view_ready = first_cycle(queue, now, |t| {
        !linear_issue_view(&pendings, dram, t).ready.is_empty()
    });
    prop_assert_eq!(
        queue.next_issue_at(now),
        view_ready,
        "the view wake-up bound is not the first issuable cycle after {:?}",
        now
    );
    // A Skip-mode policy serves only the head, and wakes at the gate of
    // its head probe.
    let head_ready = first_cycle(queue, now, |t| {
        let head = &pendings[0];
        let cmd = dram.next_needed(&head.loc, head.request.kind);
        dram.ready_at(&head.loc, &cmd) <= t
    });
    prop_assert_eq!(
        queue.probe_head(dram).map(|(_, _, gate)| gate.max(now)),
        head_ready,
        "Skip wake-up bound is not the head's first issuable cycle after {:?}",
        now
    );
}

/// One differential step: indexed view vs linear oracle on the current
/// queue and DRAM state.
fn check_step(queue: &RequestQueue, dram: &DramModule, now: Cycle) {
    check_wakeup(queue, dram, now);
    let (ids, pendings) = flatten(queue);
    let oracle = linear_issue_view(&pendings, dram, now);
    let reference = IssueView {
        ready: oracle.ready.iter().map(|&(i, hit)| (ids[i], hit)).collect(),
        row_hits: oracle.row_hits,
    };

    let mut full = IssueView::default();
    queue.build_view(now, ViewMode::Full, &mut full);
    prop_assert_eq!(
        as_set(&full, queue),
        as_set(&reference, queue),
        "candidate sets diverge at {:?}",
        now
    );
    prop_assert_eq!(full.row_hits, reference.row_hits, "row-hit counts diverge");

    // Every policy must pick identically from its own (possibly
    // frontier-only) indexed view and from the oracle's full view. The
    // pair starts from identical state, so stateful policies (and the
    // RL scheduler's RNG) stay in lockstep for the single select.
    for sched in schedulers() {
        let name = sched.name();
        let mut indexed_side = sched.clone_box();
        let mut oracle_side = sched;
        let mut view = IssueView::default();
        queue.build_view(now, indexed_side.view_mode(), &mut view);
        let indexed_pick = indexed_side.select(queue, &view);
        let oracle_pick = oracle_side.select(queue, &reference);
        prop_assert_eq!(
            indexed_pick.map(|h| queue.req(h).id),
            oracle_pick.map(|h| queue.req(h).id),
            "{} picks diverge at {:?}",
            name,
            now
        );
    }
}

/// Replays `ops` — `(addr, write, thread, op, gap)` tuples — through a
/// queue and a `config` DRAM module, running the differential check
/// after every op. Each DRAM access is followed by the controller's
/// resync unless `resync` is false.
fn replay(config: &DramConfig, ops: &[(u64, bool, usize, u8, u8)], resync: bool) {
    let mut dram = DramModule::new(config.clone()).unwrap();
    let mut queue = RequestQueue::new();
    let mut now = Cycle::ZERO;
    let mut next_id = 1u64;

    for &(addr, write, thread, op, gap) in ops {
        let addr = addr & !63;
        match op {
            // Enqueue (half the ops): a fresh request lands.
            0 | 1 => {
                let p = pending(&dram, next_id, addr, write, thread, now);
                next_id += 1;
                queue.insert(p, &dram);
            }
            // Issue: serve FR-FCFS's pick, mutating bank state the way a
            // real command stream does.
            2 => {
                let mut view = IssueView::default();
                queue.build_view(now, ViewMode::Frontier, &mut view);
                if let Some(id) = FrFcfs::new().select(&queue, &view) {
                    let p = queue.remove(id);
                    dram.access(p.request.addr, p.request.kind, now).unwrap();
                    if resync {
                        queue.resync(&dram, &p.loc);
                    }
                }
            }
            // Touch: open an arbitrary queued request's row without
            // serving it, so its bank's open row moves under it.
            3 => {
                let (_, pendings) = flatten(&queue);
                if !pendings.is_empty() {
                    let p = pendings[gap as usize % pendings.len()];
                    dram.access(p.request.addr, p.request.kind, now).unwrap();
                    if resync {
                        queue.resync(&dram, &p.loc);
                    }
                }
            }
            // Cancel: drop an arbitrary queued request.
            _ => {
                let (ids, _) = flatten(&queue);
                if !ids.is_empty() {
                    queue.remove(ids[gap as usize % ids.len()]);
                }
            }
        }
        now += u64::from(gap);
        check_step(&queue, &dram, now);
    }
}

/// The comparison can fail: touching a queued request's bank without
/// the resync leaves the queue classifying it against the old, closed
/// row, and the wake-up check catches it on the next step.
#[test]
#[should_panic(expected = "wake-up bound")]
fn skipped_resync_is_caught() {
    replay(
        &DramConfig::ddr3_1600(),
        &[(0, false, 0, 0, 0), (0, false, 0, 3, 0)],
        false,
    );
}

/// A fixed case: with row 0 of bank 0 open, an older request to
/// another row of that bank and a newer row hit. At every cycle the
/// indexed full view holds the linear scan's candidates, hit flags
/// included, and the same row-hit count.
#[test]
fn indexed_view_matches_linear_scan_on_a_fixed_queue() {
    let mut dram = DramModule::new(DramConfig::ddr3_1600()).unwrap();
    dram.access(PhysAddr::new(0), AccessKind::Read, Cycle::ZERO)
        .unwrap();
    let geo = dram.config().geometry;
    let row_stride = geo.row_bytes * geo.total_banks() as u64;
    let mut queue = RequestQueue::new();
    queue.insert(pending(&dram, 1, row_stride, false, 0, Cycle::ZERO), &dram);
    queue.insert(pending(&dram, 2, 128, false, 0, Cycle::new(5)), &dram);
    let (ids, pendings) = flatten(&queue);
    for now in [0u64, 20, 100, 10_000] {
        let now = Cycle::new(now);
        let want = linear_issue_view(&pendings, &dram, now);
        let reference = IssueView {
            ready: want.ready.iter().map(|&(i, hit)| (ids[i], hit)).collect(),
            row_hits: want.row_hits,
        };
        let mut got = IssueView::default();
        queue.build_view(now, ViewMode::Full, &mut got);
        assert_eq!(
            as_set(&got, &queue),
            as_set(&reference, &queue),
            "candidate sets diverge at {now:?}"
        );
        assert_eq!(got.row_hits, want.row_hits);
    }
    let mut late = IssueView::default();
    queue.build_view(Cycle::new(10_000), ViewMode::Full, &mut late);
    assert_eq!(
        as_set(&late, &queue),
        [(2, true)],
        "the open-page rule holds back the conflict's precharge"
    );
}

fn two_ranks() -> DramConfig {
    DramConfig::ddr3_1600()
        .to_builder()
        .ranks(2)
        .name("DDR3-1600 2R")
        .build()
        .unwrap()
}

fn ops() -> impl Strategy<Value = Vec<(u64, bool, usize, u8, u8)>> {
    prop::collection::vec(
        (
            0u64..(1 << 22),
            any::<bool>(),
            0usize..THREADS,
            0u8..5,
            0u8..12,
        ),
        1..50,
    )
}

proptest! {
    // Every case replays the full differential check (7 policies) at
    // every step of the interleaving. 32 cases are needed for a bank
    // with queued hits to meet a due precharge gate and a later column
    // gate, the state that catches a wake-up bound ignoring the
    // open-page rule; they still run in well under a second.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random enqueue/issue/touch/cancel interleavings: the indexed queue and
    /// the linear oracle agree on the candidate set, the wake-up bound,
    /// and every scheduler's pick at every step. One channel, one rank,
    /// eight banks.
    #[test]
    fn indexed_queue_matches_linear_scan_on_ddr3(ops in ops()) {
        replay(&DramConfig::ddr3_1600(), &ops, true);
    }

    /// Four bank groups.
    #[test]
    fn indexed_queue_matches_linear_scan_on_ddr4(ops in ops()) {
        replay(&DramConfig::ddr4_2400(), &ops, true);
    }

    /// Two channels: a command resyncs only its own channel's ranks.
    #[test]
    fn indexed_queue_matches_linear_scan_on_lpddr4(ops in ops()) {
        replay(&DramConfig::lpddr4_3200(), &ops, true);
    }

    /// Two ranks sharing one data bus.
    #[test]
    fn indexed_queue_matches_linear_scan_on_two_ranks(ops in ops()) {
        replay(&two_ranks(), &ops, true);
    }
}
