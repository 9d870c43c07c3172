//! **E4 — Self-optimizing (RL) memory controller.**
//!
//! Paper claim (§IV, Data-Driven): reinforcement-learning controllers
//! "can not only improve performance and efficiency under a wide variety
//! of conditions and workloads but also reduce the designer's burden"
//! (Ipek+, ISCA 2008 — ≈15-20% over FR-FCFS in their setup; crucially,
//! the learned policy must leave the naive fixed policy far behind).

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ia_dram::DramConfig;
use ia_memctrl::{
    run_closed_loop_with, Fcfs, FrFcfs, MemoryController, RlScheduler, RlSchedulerConfig, Scheduler,
};
use ia_sim::SnapshotState;

use crate::mixes::interference_mix;
use crate::ratio;
use crate::report::{Error, ExperimentReport};

/// Runs FCFS, FR-FCFS and the RL scheduler over one interference mix,
/// then the RL learning curve: one agent (shared Q-table) across
/// consecutive workload segments. Every run forks the same warm
/// controller ([`SnapshotState`]); a fork with a swapped policy is
/// bit-identical to a cold-built controller (see
/// [`MemoryController::with_scheduler`]).
pub fn report(quick: bool) -> Result<ExperimentReport, Error> {
    let n = if quick { 400 } else { 4000 };
    let warm = MemoryController::new(DramConfig::ddr3_1600(), Box::new(FrFcfs::new()))?;
    let traces = interference_mix(n, 7)?;
    let throughput_of = |scheduler: Box<dyn Scheduler>, traces: &[Vec<_>]| {
        run_closed_loop_with(
            warm.fork().with_scheduler(scheduler),
            traces,
            8,
            200_000_000,
        )
        .map(|r| r.throughput_rpkc())
    };
    let fcfs = throughput_of(Box::new(Fcfs::new()), &traces)?;
    let frfcfs = throughput_of(Box::new(FrFcfs::new()), &traces)?;
    let rl = throughput_of(
        Box::new(RlScheduler::new(RlSchedulerConfig::default())),
        &traces,
    )?;
    let mut rep = ExperimentReport::new("exp04_rl_memctrl", quick)
        .metric("rl_vs_fcfs", rl / fcfs)
        .metric("rl_vs_frfcfs", rl / frfcfs)
        .columns(&["scheduler", "req/kcycle", "vs FCFS"]);
    for (name, tp) in [
        ("FCFS", fcfs),
        ("FR-FCFS", frfcfs),
        ("RL (self-optimizing)", rl),
    ] {
        rep = rep.row(&[name.to_owned(), format!("{tp:.2}"), ratio(tp, fcfs)]);
    }

    // Learning curve: throughput should not degrade across segments, and
    // typically rises as the policy converges.
    let agent = Arc::new(Mutex::new(RlScheduler::new(RlSchedulerConfig::default())));
    let segments = if quick { 3 } else { 6 };
    for seg in 0..segments {
        let segment = interference_mix(n / 2, 100 + seg)?;
        let tp = throughput_of(Box::new(SharedRl(agent.clone())), &segment)?;
        rep = rep.row(&[
            format!("RL segment {seg}"),
            format!("{tp:.2}"),
            "-".to_owned(),
        ]);
    }
    Ok(rep.caption(format!(
        "E4: self-optimizing memory controller (paper: RL ≈ 15-20% over FR-FCFS-class fixed policies)\n\
         headline: RL/FCFS = {:.2}, RL/FR-FCFS = {:.2}\n\
         `RL segment k` rows: the RL learning curve across workload segments \
         (same agent, continuing to learn)",
        rl / fcfs,
        rl / frfcfs
    )))
}

/// A scheduler handle that shares one learning agent across several runs
/// (the harness takes ownership of its scheduler per run). `Arc<Mutex>`
/// rather than `Rc<RefCell>` because `Scheduler` is `Send`; the runs are
/// serial, so the lock is never contended.
#[derive(Debug)]
struct SharedRl(Arc<Mutex<RlScheduler>>);

impl SharedRl {
    fn agent(&self) -> MutexGuard<'_, RlScheduler> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl ia_memctrl::Scheduler for SharedRl {
    fn name(&self) -> &'static str {
        "RL (self-optimizing)"
    }
    fn clone_box(&self) -> Box<dyn ia_memctrl::Scheduler> {
        // A "clone" shares the same live agent: that is the type's point.
        Box::new(SharedRl(self.0.clone()))
    }
    fn view_mode(&self) -> ia_memctrl::ViewMode {
        self.agent().view_mode()
    }
    fn select(
        &mut self,
        queue: &ia_memctrl::RequestQueue,
        view: &ia_memctrl::IssueView,
    ) -> Option<ia_memctrl::ReqId> {
        self.agent().select(queue, view)
    }
    fn on_issue(&mut self, column: bool, now: ia_dram::Cycle) {
        self.agent().on_issue(column, now);
    }
    fn on_complete(&mut self, c: &ia_memctrl::Completed, now: ia_dram::Cycle) {
        self.agent().on_complete(c, now);
    }
    fn on_tick(&mut self, now: ia_dram::Cycle) {
        self.agent().on_tick(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rl_beats_fcfs_and_tracks_frfcfs() {
        let rep = report(true).unwrap();
        let vs_fcfs = rep.metric_value("rl_vs_fcfs").unwrap();
        let vs_frfcfs = rep.metric_value("rl_vs_frfcfs").unwrap();
        assert!(vs_fcfs > 1.02, "RL must beat naive FCFS, got {vs_fcfs:.3}");
        assert!(
            vs_frfcfs > 0.9,
            "RL must be competitive with FR-FCFS, got {vs_frfcfs:.3}"
        );
    }

    #[test]
    fn report_renders() {
        let s = report(true).unwrap().to_text();
        assert!(s.contains("FR-FCFS"));
        assert!(s.contains("learning curve"));
        assert!(s.contains("RL segment 2"));
    }
}
