//! Memory-request schedulers: the fixed heuristic policies the paper
//! criticizes as "rigid and hardcoded by a human", plus the learning
//! alternative ([`rl::RlScheduler`]) it advocates.
//!
//! Since the indexed-queue refactor, schedulers no longer scan the raw
//! queue: the controller builds an [`IssueView`] from the slab-backed
//! [`RequestQueue`]'s per-bank ready lists (at the depth the policy's
//! [`Scheduler::view_mode`] asks for) and the policy picks among the
//! view's candidates by stable [`ReqId`] handle. The legacy linear scan
//! lives on only in test code: `tests/scheduler_queue_equivalence.rs`
//! keeps it as the differential oracle both paths are replayed through.

mod fairness;
mod rl;

pub use fairness::{Atlas, Bliss, ParBs, Tcm};
pub use rl::{RlScheduler, RlSchedulerConfig};

use ia_dram::Cycle;

use crate::pool::{IssueView, ReqId, RequestQueue, ViewMode};
use crate::request::Completed;

/// A command scheduler for one memory channel.
///
/// Every cycle the controller builds an [`IssueView`] at the depth
/// requested by [`Scheduler::view_mode`] and presents it together with
/// the queue; the scheduler returns the handle of the request whose next
/// command should issue. A [`ViewMode::Skip`] policy is never called:
/// the controller serves the queue head for it. Implementors should choose among the view's
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
    /// [`ViewMode::Full`]. [`ViewMode::Skip`] hands the decision back to
    /// the controller, which serves [`RequestQueue::head`] itself: it
    /// builds no view and calls none of the policy's hooks
    /// ([`Scheduler::on_tick`], [`Scheduler::prepare`],
    /// [`Scheduler::select`], [`Scheduler::on_issue`],
    /// [`Scheduler::on_complete`], [`Scheduler::on_advance`]), so only a
    /// policy that is exactly "always the oldest request, nothing
    /// learned" may return it. The mode must not change over the
    /// policy's life: the controller reads it once, when the policy is
    /// installed, keeps the queue's gate cache in sync only for non-Skip
    /// modes, and resyncs it only when
    /// [`crate::MemoryController::with_scheduler`] swaps policies.
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
        // FCFS is the global list head and keeps no state, so the
        // controller serves the head itself and never calls `select`.
        ViewMode::Skip
    }

    // lint: hot-path
    fn select(&mut self, queue: &RequestQueue, _view: &IssueView) -> Option<ReqId> {
        queue.head()
    }
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
                (!hit, p.arrival, p.id)
            })
            .map(|&(h, _)| h)
    }

    fn on_advance(&mut self, _from: Cycle, _to: Cycle) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{MemRequest, Pending};
    use ia_dram::{AccessKind, DramConfig, DramModule, PhysAddr};

    fn mk(dram: &DramModule, id: u64, addr: u64, arrival: u64) -> Pending {
        Pending {
            id,
            request: MemRequest::read(addr, 0),
            loc: dram.decode(PhysAddr::new(addr)),
            arrival: Cycle::new(arrival),
            batched: false,
            started: false,
        }
    }

    fn setup() -> RequestQueue {
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
        queue
    }

    fn view_of(queue: &RequestQueue, now: Cycle, mode: ViewMode) -> IssueView {
        let mut v = IssueView::default();
        queue.build_view(now, mode, &mut v);
        v
    }

    #[test]
    fn fcfs_picks_oldest() {
        let queue = setup();
        let view = view_of(&queue, Cycle::new(100), ViewMode::Skip);
        let pick = Fcfs::new().select(&queue, &view).unwrap();
        assert_eq!(
            queue.req(pick).id,
            1,
            "FCFS serves the older conflicting request first"
        );
    }

    #[test]
    fn frfcfs_prefers_row_hit() {
        let queue = setup();
        let view = view_of(&queue, Cycle::new(100), ViewMode::Frontier);
        let pick = FrFcfs::new().select(&queue, &view).unwrap();
        assert_eq!(queue.req(pick).id, 2, "FR-FCFS serves the row hit first");
        assert!(
            view.ready.contains(&(pick, true)),
            "the view flags the pick as a row hit"
        );
        assert_eq!(view.row_hits, 1, "the conflicting request is no row hit");
    }

    #[test]
    fn empty_queue_selects_nothing() {
        let empty = RequestQueue::new();
        let view = view_of(&empty, Cycle::ZERO, ViewMode::Frontier);
        assert!(Fcfs::new().select(&empty, &view).is_none());
        assert!(FrFcfs::new().select(&empty, &view).is_none());
    }
}
