//! Memory-request schedulers: the fixed heuristic policies the paper
//! criticizes as "rigid and hardcoded by a human", plus the learning
//! alternative ([`rl::RlScheduler`]) it advocates.
//!
//! Since the indexed-queue refactor, schedulers no longer scan the raw
//! queue: the controller builds an [`IssueView`] from the slab-backed
//! [`RequestQueue`]'s per-bank ready lists (at the depth the policy's
//! [`Scheduler::view_mode`] asks for) and the policy picks among the
//! view's candidates by stable [`ReqId`] handle. The legacy linear scan
//! survives as [`linear_issue_view`] — the differential oracle the
//! queue-equivalence proptest replays both paths through.

mod fairness;
mod rl;

pub use fairness::{Atlas, Bliss, ParBs, Tcm};
pub use rl::{RlScheduler, RlSchedulerConfig};

use ia_dram::{Command, Cycle, DramModule};

use crate::pool::{IssueView, ReqId, RequestQueue, ViewMode};
use crate::request::{Completed, Pending};

/// A command scheduler for one memory channel.
///
/// Every cycle the controller builds an [`IssueView`] at the depth
/// requested by [`Scheduler::view_mode`] and presents it together with
/// the queue; the scheduler returns the handle of the request whose next
/// command should issue. Implementors should choose among the view's
/// candidates — the controller ignores selections that cannot issue this
/// cycle.
pub trait Scheduler: std::fmt::Debug + Send {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Boxed deep copy of the full policy state (epoch counters, batch
    /// marks, learned tables, RNG position), so a warm controller can be
    /// snapshot/forked for sweeps. `Box<dyn Scheduler>` implements
    /// `Clone` through this hook.
    fn clone_box(&self) -> Box<dyn Scheduler>;

    /// How much of an [`IssueView`] this policy needs per decision.
    ///
    /// [`ViewMode::Frontier`] (class-list heads only) is exact for any
    /// policy whose sort key is constant within a (bank, row-hit/miss,
    /// read/write) class; thread-keyed fairness policies need
    /// [`ViewMode::Full`]. [`ViewMode::Skip`] builds no view and promises
    /// that the policy serves only [`RequestQueue::head`]: the controller
    /// then sleeps until the head alone can issue, so a Skip policy that
    /// picked any other request would be woken late.
    fn view_mode(&self) -> ViewMode {
        ViewMode::Full
    }

    /// Picks a queued request to serve, or `None` to idle this cycle.
    fn select(&mut self, queue: &RequestQueue, view: &IssueView) -> Option<ReqId>;

    /// Pre-selection hook that may mutate queue metadata (PAR-BS batch
    /// marking). Called once per cycle before [`Scheduler::select`].
    fn prepare(&mut self, _queue: &mut RequestQueue) {}

    /// Notification that a command issued (and whether it was a column
    /// command, i.e. made data-bus progress).
    fn on_issue(&mut self, _column: bool, _now: Cycle) {}

    /// Notification that a request completed.
    fn on_complete(&mut self, _completed: &Completed, _now: Cycle) {}

    /// Per-cycle housekeeping (epoch counters).
    fn on_tick(&mut self, _now: Cycle) {}

    /// Bulk equivalent of calling [`Scheduler::on_tick`] once for every
    /// cycle in `from..to` — the hook the cycle-skipping simulation engine
    /// uses to fast-forward over idle spans without losing epoch state.
    ///
    /// The default implementation literally loops, which is correct for
    /// any scheduler but no faster than polling. Schedulers with
    /// per-cycle epoch state should override it with the closed form
    /// (see [`Atlas`]/[`Tcm`]/[`Bliss`]); stateless-per-cycle schedulers
    /// should override it with a no-op.
    fn on_advance(&mut self, from: Cycle, to: Cycle) {
        let mut n = from;
        while n < to {
            self.on_tick(n);
            n += 1;
        }
    }
}

/// Indices of queued requests whose next command can issue at `now`.
#[must_use]
pub fn issuable_now(queue: &[Pending], dram: &DramModule, now: Cycle) -> Vec<usize> {
    queue
        .iter()
        .enumerate()
        .filter(|(_, p)| {
            let cmd = dram.next_needed(&p.loc, p.request.kind);
            dram.ready_at(&p.loc, &cmd) <= now
        })
        .map(|(i, _)| i)
        .collect()
}

/// Whether the request's next command is a column command (row-buffer hit).
#[must_use]
pub fn is_row_hit(p: &Pending, dram: &DramModule) -> bool {
    matches!(
        dram.next_needed(&p.loc, p.request.kind),
        Command::Read { .. } | Command::Write { .. }
    )
}

/// Per-cycle scheduling facts for one queue as a flat slice, computed by
/// the legacy linear scan ([`linear_issue_view`]).
///
/// Superseded in the hot path by [`IssueView`] built from the indexed
/// [`RequestQueue`]; retained as the reference implementation that the
/// `scheduler_queue_equivalence` proptest checks the indexed path
/// against, decision by decision.
#[derive(Debug, Clone)]
pub struct LinearIssueView {
    /// Issuable request indices under the open-page rule (ascending),
    /// each with its row-hit flag.
    pub ready: Vec<(usize, bool)>,
    /// Number of queued requests (issuable or not) whose next command is
    /// a column command — the occupancy signal RL-class policies use.
    pub row_hits: usize,
}

/// Builds the [`LinearIssueView`] for `queue` at `now`: [`issuable_now`]
/// minus row-closing precharges to banks that still have pending row hits
/// in the queue — the open-page rule every locality-respecting scheduler
/// follows (a row with outstanding hits is not closed just because its
/// next burst is a few cycles away).
#[must_use]
pub fn linear_issue_view(queue: &[Pending], dram: &DramModule, now: Cycle) -> LinearIssueView {
    let geo = &dram.config().geometry;
    let mut ready: Vec<(usize, bool)> = Vec::with_capacity(queue.len());
    // Flat bank keys with at least one queued row hit; a handful of
    // entries at most, so a linear `contains` beats any hashing.
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

/// [`linear_issue_view`]'s issuable indices alone, for callers that do
/// not need the row-hit flags.
#[must_use]
pub fn issuable_open_page(queue: &[Pending], dram: &DramModule, now: Cycle) -> Vec<usize> {
    linear_issue_view(queue, dram, now)
        .ready
        .into_iter()
        .map(|(i, _)| i)
        .collect()
}

/// Strict in-order first-come first-served: always serves the oldest
/// request, idling while its next command is not yet legal — the naive
/// baseline the out-of-order scheduling literature (Rixner+, ISCA 2000)
/// measures against.
#[derive(Debug, Clone, Default)]
pub struct Fcfs;

impl Fcfs {
    /// Creates the scheduler.
    #[must_use]
    pub fn new() -> Self {
        Fcfs
    }
}

impl Clone for Box<dyn Scheduler> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl Scheduler for Fcfs {
    fn name(&self) -> &'static str {
        "FCFS"
    }

    fn clone_box(&self) -> Box<dyn Scheduler> {
        Box::new(self.clone())
    }

    fn view_mode(&self) -> ViewMode {
        // FCFS is the global list head; it needs no view at all.
        ViewMode::Skip
    }

    // lint: hot-path
    fn select(&mut self, queue: &RequestQueue, _view: &IssueView) -> Option<ReqId> {
        queue.head()
    }

    fn on_advance(&mut self, _from: Cycle, _to: Cycle) {}
}

/// First-ready FCFS (Rixner+, ISCA 2000): row-buffer hits first, then
/// oldest — the de-facto standard fixed policy.
#[derive(Debug, Clone, Default)]
pub struct FrFcfs;

impl FrFcfs {
    /// Creates the scheduler.
    #[must_use]
    pub fn new() -> Self {
        FrFcfs
    }
}

impl Scheduler for FrFcfs {
    fn name(&self) -> &'static str {
        "FR-FCFS"
    }

    fn clone_box(&self) -> Box<dyn Scheduler> {
        Box::new(self.clone())
    }

    fn view_mode(&self) -> ViewMode {
        // (!hit, arrival, id) is constant within a (bank, class) list, so
        // the class heads contain the winner.
        ViewMode::Frontier
    }

    // lint: hot-path
    fn select(&mut self, queue: &RequestQueue, view: &IssueView) -> Option<ReqId> {
        view.ready
            .iter()
            .min_by_key(|&&(h, hit)| {
                let p = queue.req(h);
                (!hit, p.arrival, p.request.id)
            })
            .map(|&(h, _)| h)
    }

    fn on_advance(&mut self, _from: Cycle, _to: Cycle) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::MemRequest;
    use ia_dram::{AccessKind, DramConfig, PhysAddr};

    fn mk(dram: &DramModule, id: u64, addr: u64, arrival: u64) -> Pending {
        Pending {
            request: MemRequest {
                id,
                ..MemRequest::read(addr, 0)
            },
            loc: dram.decode(PhysAddr::new(addr)),
            arrival: Cycle::new(arrival),
            batched: false,
            started: false,
        }
    }

    fn setup() -> (DramModule, RequestQueue) {
        let mut dram = DramModule::new(DramConfig::ddr3_1600()).unwrap();
        // Open row 0 of bank 0 by accessing address 0.
        dram.access(PhysAddr::new(0), AccessKind::Read, Cycle::ZERO)
            .unwrap();
        // Request 1: old, different row in same bank (conflict).
        // Request 2: newer, hits the open row.
        let geo = dram.config().geometry;
        let row_stride = geo.row_bytes
            * (geo.banks_per_group * geo.bank_groups * geo.ranks * geo.channels) as u64;
        let mut queue = RequestQueue::new();
        queue.insert(mk(&dram, 1, row_stride, 0), &dram);
        queue.insert(mk(&dram, 2, 128, 5), &dram);
        (dram, queue)
    }

    fn view_of(
        queue: &mut RequestQueue,
        dram: &DramModule,
        now: Cycle,
        mode: ViewMode,
    ) -> IssueView {
        let mut v = IssueView::default();
        queue.build_view(dram, now, mode, &mut v);
        v
    }

    #[test]
    fn fcfs_picks_oldest() {
        let (dram, mut queue) = setup();
        let view = view_of(&mut queue, &dram, Cycle::new(100), ViewMode::Skip);
        let pick = Fcfs::new().select(&queue, &view).unwrap();
        assert_eq!(
            queue.req(pick).request.id,
            1,
            "FCFS serves the older conflicting request first"
        );
    }

    #[test]
    fn frfcfs_prefers_row_hit() {
        let (dram, mut queue) = setup();
        let view = view_of(&mut queue, &dram, Cycle::new(100), ViewMode::Frontier);
        let pick = FrFcfs::new().select(&queue, &view).unwrap();
        let p = *queue.req(pick);
        assert_eq!(p.request.id, 2, "FR-FCFS serves the row hit first");
        assert!(is_row_hit(&p, &dram));
        let other = queue.iter().find(|(_, q)| q.request.id == 1).unwrap();
        assert!(!is_row_hit(other.1, &dram));
    }

    #[test]
    fn empty_queue_selects_nothing() {
        let (dram, _) = setup();
        let mut empty = RequestQueue::new();
        let view = view_of(&mut empty, &dram, Cycle::ZERO, ViewMode::Frontier);
        assert!(Fcfs::new().select(&empty, &view).is_none());
        assert!(FrFcfs::new().select(&empty, &view).is_none());
    }

    #[test]
    fn issuable_now_respects_timing() {
        let (dram, _) = setup();
        let geo = dram.config().geometry;
        let row_stride = geo.row_bytes
            * (geo.banks_per_group * geo.bank_groups * geo.ranks * geo.channels) as u64;
        let queue = vec![mk(&dram, 1, row_stride, 0), mk(&dram, 2, 128, 5)];
        // Immediately after the warm-up access, the bank is still within
        // tRAS/tRTP windows; at a late cycle everything is issuable.
        let late = issuable_now(&queue, &dram, Cycle::new(10_000));
        assert_eq!(late.len(), 2);
    }

    #[test]
    fn indexed_view_matches_linear_scan() {
        let (dram, mut queue) = setup();
        let linear: Vec<Pending> = queue.iter().map(|(_, p)| *p).collect();
        for now in [0u64, 20, 100, 10_000] {
            let now = Cycle::new(now);
            let want = linear_issue_view(&linear, &dram, now);
            let got = view_of(&mut queue, &dram, now, ViewMode::Full);
            let mut got_ids: Vec<(u64, bool)> = got
                .ready
                .iter()
                .map(|&(h, hit)| (queue.req(h).request.id, hit))
                .collect();
            got_ids.sort_unstable();
            let mut want_ids: Vec<(u64, bool)> = want
                .ready
                .iter()
                .map(|&(i, hit)| (linear[i].request.id, hit))
                .collect();
            want_ids.sort_unstable();
            assert_eq!(got_ids, want_ids, "candidate sets diverge at {now:?}");
            assert_eq!(got.row_hits, want.row_hits);
        }
    }
}
