//! Fairness- and QoS-oriented schedulers: PAR-BS, ATLAS, TCM, BLISS —
//! the succession of human-designed policies (Mutlu & Moscibroda ISCA'08;
//! Kim+ HPCA'10, MICRO'10; Subramanian+ ICCD'14) that the paper holds up
//! as evidence that each fixed heuristic handles some workloads and
//! mishandles others.
//!
//! All four rank by thread-keyed state, so their sort keys vary within a
//! (bank, class) ready list — they keep the default [`ViewMode::Full`]
//! view and pick among every issuable request, but the view itself is
//! now built from the indexed queue instead of a linear scan.
//!
//! [`ViewMode::Full`]: crate::pool::ViewMode::Full

use ia_dram::Cycle;

use super::Scheduler;
use crate::pool::{IssueView, ReqId, RequestQueue};
use crate::request::Completed;

/// Number of per-cycle boundary triggers a `now / interval` epoch check
/// fires over the cycle span whose epochs run `first..=last`, given the
/// scheduler last reacted to epoch `prior`.
///
/// Per-cycle schedulers run `if epoch > prior { prior = epoch; ... }`
/// every tick; over a skipped span the distinct epoch values are the
/// consecutive integers `first..=last`, of which exactly those greater
/// than `prior` trigger.
fn epoch_crossings(first: u64, last: u64, prior: u64) -> u64 {
    if last <= prior {
        0
    } else if first > prior {
        last - first + 1
    } else {
        last - prior
    }
}

/// Parallelism-Aware Batch Scheduling: requests are grouped into batches;
/// all requests of the current batch are served before any newer request,
/// with shortest-job-first thread ranking inside the batch (preserving
/// each thread's bank-level parallelism).
#[derive(Debug, Clone)]
pub struct ParBs {
    /// Max requests per (thread, bank) marked per batch.
    batch_cap: usize,
    /// Thread ranking for the current batch (rank[thread] = priority,
    /// lower is better).
    rank: Vec<usize>,
    /// Batch-formation scratch, reused across batches: requests marked
    /// per (thread, flat bank) at `thread * banks + bank`, grown on
    /// demand to the highest thread id queued (ids are dense indices,
    /// as the closed loop assigns them) and emptied at the start of
    /// every batch.
    marked: Vec<usize>,
    /// Marked requests per ranked thread.
    per_thread: Vec<usize>,
    /// Ranked threads in shortest-job-first order.
    order: Vec<usize>,
}

impl ParBs {
    /// Creates PAR-BS with the paper's marking cap of 5.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        ParBs {
            batch_cap: 5,
            rank: vec![0; threads],
            marked: Vec::new(),
            per_thread: vec![0; threads],
            order: Vec::with_capacity(threads),
        }
    }

    fn form_batch(&mut self, queue: &mut RequestQueue) {
        // Mark up to batch_cap oldest requests per (thread, bank). The
        // queue's global list is already in (arrival, id) order, so the
        // marking walk needs no sort and is independent of slab layout.
        let banks = queue.bank_count();
        self.marked.clear();
        self.per_thread.fill(0);
        queue.mark_batch(|p, bank| {
            let key = p.request.thread as usize * banks + bank;
            if key >= self.marked.len() {
                self.marked.resize(key + 1, 0);
            }
            if self.marked[key] >= self.batch_cap {
                return false;
            }
            self.marked[key] += 1;
            if let Some(n) = self.per_thread.get_mut(p.request.thread as usize) {
                *n += 1;
            }
            true
        });
        // Shortest job first: fewest marked requests → best (lowest) rank,
        // ties kept in thread order (a stable sort).
        self.order.clear();
        self.order.extend(0..self.rank.len());
        self.order.sort_by_key(|&t| self.per_thread[t]);
        for (priority, &t) in self.order.iter().enumerate() {
            self.rank[t] = priority;
        }
    }

    /// Called by the controller before selection so batching can mutate
    /// queue marks.
    pub fn maybe_form_batch(&mut self, queue: &mut RequestQueue) {
        if !queue.is_empty() && queue.all_unbatched() {
            self.form_batch(queue);
        }
    }
}

impl Scheduler for ParBs {
    fn name(&self) -> &'static str {
        "PAR-BS"
    }

    fn clone_box(&self) -> Box<dyn Scheduler> {
        Box::new(self.clone())
    }

    fn prepare(&mut self, queue: &mut RequestQueue) {
        self.maybe_form_batch(queue);
    }

    // lint: hot-path
    fn select(&mut self, queue: &RequestQueue, view: &IssueView) -> Option<ReqId> {
        view.ready
            .iter()
            .min_by_key(|&&(h, hit)| {
                let p = queue.req(h);
                let rank = self
                    .rank
                    .get(p.request.thread as usize)
                    .copied()
                    .unwrap_or(usize::MAX);
                (!p.batched, !hit, rank, p.arrival, p.id)
            })
            .map(|&(h, _)| h)
    }

    fn on_advance(&mut self, _from: Cycle, _to: Cycle) {}
}

/// ATLAS: least-attained-service thread ranking over long epochs — threads
/// that have received little memory service recently are prioritized.
#[derive(Debug, Clone)]
pub struct Atlas {
    attained: Vec<f64>,
    epoch_len: u64,
    last_epoch: u64,
    /// Exponential decay per epoch (the paper's α = 0.875).
    alpha: f64,
}

impl Atlas {
    /// Creates ATLAS for `threads` threads with the given epoch length in
    /// cycles.
    #[must_use]
    pub fn new(threads: usize, epoch_len: u64) -> Self {
        Atlas {
            attained: vec![0.0; threads],
            epoch_len: epoch_len.max(1),
            last_epoch: 0,
            alpha: 0.875,
        }
    }
}

impl Scheduler for Atlas {
    fn name(&self) -> &'static str {
        "ATLAS"
    }

    fn clone_box(&self) -> Box<dyn Scheduler> {
        Box::new(self.clone())
    }

    // lint: hot-path
    fn select(&mut self, queue: &RequestQueue, view: &IssueView) -> Option<ReqId> {
        view.ready
            .iter()
            .min_by_key(|&&(h, hit)| {
                let p = queue.req(h);
                // Order by attained service (scaled to integer for Ord),
                // then row hit, then age.
                let attained = self
                    .attained
                    .get(p.request.thread as usize)
                    .copied()
                    .unwrap_or(f64::MAX);
                ((attained * 1000.0) as u64, !hit, p.arrival, p.id)
            })
            .map(|&(h, _)| h)
    }

    fn on_complete(&mut self, completed: &Completed, _now: Cycle) {
        if let Some(a) = self.attained.get_mut(completed.request.thread as usize) {
            *a += 1.0;
        }
    }

    fn on_tick(&mut self, now: Cycle) {
        let epoch = now.as_u64() / self.epoch_len;
        if epoch > self.last_epoch {
            self.last_epoch = epoch;
            for a in &mut self.attained {
                *a *= self.alpha;
            }
        }
    }

    fn on_advance(&mut self, from: Cycle, to: Cycle) {
        if to <= from {
            return;
        }
        let first = from.as_u64() / self.epoch_len;
        let last = (to.as_u64() - 1) / self.epoch_len;
        let decays = epoch_crossings(first, last, self.last_epoch);
        if decays == 0 {
            return;
        }
        self.last_epoch = last;
        // One multiplication per crossed epoch, exactly as the per-cycle
        // ticks would apply it: repeated `*= alpha` is not bit-identical
        // to a single `powi`, and select() quantizes these floats.
        for _ in 0..decays {
            for a in &mut self.attained {
                *a *= self.alpha;
            }
        }
    }
}

/// Thread Cluster Memory scheduling: threads are split by memory intensity
/// into a latency-sensitive cluster (strictly prioritized) and a
/// bandwidth-heavy cluster (rank-shuffled for fairness).
#[derive(Debug, Clone)]
pub struct Tcm {
    /// Requests completed per thread in the current epoch.
    epoch_requests: Vec<u64>,
    /// Current cluster assignment: true = latency-sensitive.
    latency_cluster: Vec<bool>,
    /// Shuffled ranks for the bandwidth cluster.
    shuffle: Vec<usize>,
    epoch_len: u64,
    shuffle_len: u64,
    last_epoch: u64,
    last_shuffle: u64,
    /// Fraction of total traffic allowed into the latency cluster.
    cluster_fraction: f64,
}

impl Tcm {
    /// Creates TCM with the given clustering epoch and shuffle interval.
    #[must_use]
    pub fn new(threads: usize, epoch_len: u64, shuffle_len: u64) -> Self {
        Tcm {
            epoch_requests: vec![0; threads],
            latency_cluster: vec![true; threads],
            shuffle: (0..threads).collect(),
            epoch_len: epoch_len.max(1),
            shuffle_len: shuffle_len.max(1),
            last_epoch: 0,
            last_shuffle: 0,
            cluster_fraction: 0.2,
        }
    }

    fn recluster(&mut self) {
        let total: u64 = self.epoch_requests.iter().sum();
        if total == 0 {
            return;
        }
        // Least-intensive threads join the latency cluster until the
        // cluster holds `cluster_fraction` of traffic.
        let mut order: Vec<usize> = (0..self.epoch_requests.len()).collect();
        order.sort_by_key(|&t| self.epoch_requests[t]);
        let budget = (total as f64 * self.cluster_fraction) as u64;
        let mut used = 0u64;
        self.latency_cluster.iter_mut().for_each(|c| *c = false);
        for t in order {
            if used + self.epoch_requests[t] <= budget {
                used += self.epoch_requests[t];
                self.latency_cluster[t] = true;
            }
        }
        self.epoch_requests.iter_mut().for_each(|r| *r = 0);
    }
}

impl Scheduler for Tcm {
    fn name(&self) -> &'static str {
        "TCM"
    }

    fn clone_box(&self) -> Box<dyn Scheduler> {
        Box::new(self.clone())
    }

    // lint: hot-path
    fn select(&mut self, queue: &RequestQueue, view: &IssueView) -> Option<ReqId> {
        view.ready
            .iter()
            .min_by_key(|&&(h, hit)| {
                let p = queue.req(h);
                let t = p.request.thread as usize;
                let latency = self.latency_cluster.get(t).copied().unwrap_or(false);
                let rank = self
                    .shuffle
                    .iter()
                    .position(|&x| x == t)
                    .unwrap_or(usize::MAX);
                (!latency, rank, !hit, p.arrival, p.id)
            })
            .map(|&(h, _)| h)
    }

    fn on_complete(&mut self, completed: &Completed, _now: Cycle) {
        if let Some(r) = self
            .epoch_requests
            .get_mut(completed.request.thread as usize)
        {
            *r += 1;
        }
    }

    fn on_tick(&mut self, now: Cycle) {
        let epoch = now.as_u64() / self.epoch_len;
        if epoch > self.last_epoch {
            self.last_epoch = epoch;
            self.recluster();
        }
        let shuffle = now.as_u64() / self.shuffle_len;
        if shuffle > self.last_shuffle {
            self.last_shuffle = shuffle;
            self.shuffle.rotate_left(1);
        }
    }

    fn on_advance(&mut self, from: Cycle, to: Cycle) {
        if to <= from {
            return;
        }
        let from_c = from.as_u64();
        let last_c = to.as_u64() - 1;
        let last_epoch = last_c / self.epoch_len;
        if epoch_crossings(from_c / self.epoch_len, last_epoch, self.last_epoch) > 0 {
            self.last_epoch = last_epoch;
            // Only the first skipped boundary can do work: no completions
            // land mid-skip, so later reclusters would see zero traffic
            // and return unchanged.
            self.recluster();
        }
        let last_shuffle = last_c / self.shuffle_len;
        let rotations = epoch_crossings(from_c / self.shuffle_len, last_shuffle, self.last_shuffle);
        if rotations > 0 {
            self.last_shuffle = last_shuffle;
            let len = self.shuffle.len();
            if len > 0 {
                self.shuffle.rotate_left((rotations % len as u64) as usize);
            }
        }
    }
}

/// BLISS: blacklist any thread served four times consecutively; everyone
/// else outranks the blacklisted — "achieving high performance and
/// fairness at low cost" with two counters.
#[derive(Debug, Clone)]
pub struct Bliss {
    /// Blacklist flag per thread id, grown on demand to the highest id
    /// blacklisted (ids are dense indices, as the closed loop assigns
    /// them).
    blacklist: Vec<bool>,
    last_thread: Option<usize>,
    streak: u32,
    /// Streak length triggering blacklisting (paper: 4).
    threshold: u32,
    /// Blacklist clearing interval in cycles (paper: 10 000).
    clear_interval: u64,
    last_clear: u64,
}

impl Bliss {
    /// Creates BLISS with the published constants.
    #[must_use]
    pub fn new() -> Self {
        Bliss {
            blacklist: Vec::new(),
            last_thread: None,
            streak: 0,
            threshold: 4,
            clear_interval: 10_000,
            last_clear: 0,
        }
    }

    /// True while `thread` is blacklisted.
    #[must_use]
    pub fn is_blacklisted(&self, thread: usize) -> bool {
        self.blacklist.get(thread).copied().unwrap_or(false)
    }
}

impl Default for Bliss {
    fn default() -> Self {
        Bliss::new()
    }
}

impl Scheduler for Bliss {
    fn name(&self) -> &'static str {
        "BLISS"
    }

    fn clone_box(&self) -> Box<dyn Scheduler> {
        Box::new(self.clone())
    }

    // lint: hot-path
    fn select(&mut self, queue: &RequestQueue, view: &IssueView) -> Option<ReqId> {
        view.ready
            .iter()
            .min_by_key(|&&(h, hit)| {
                let p = queue.req(h);
                (
                    self.is_blacklisted(p.request.thread as usize),
                    !hit,
                    p.arrival,
                    p.id,
                )
            })
            .map(|&(h, _)| h)
    }

    fn on_complete(&mut self, completed: &Completed, _now: Cycle) {
        let t = completed.request.thread as usize;
        if self.last_thread == Some(t) {
            self.streak += 1;
            if self.streak >= self.threshold {
                if t >= self.blacklist.len() {
                    self.blacklist.resize(t + 1, false);
                }
                self.blacklist[t] = true;
            }
        } else {
            self.last_thread = Some(t);
            self.streak = 1;
        }
    }

    fn on_tick(&mut self, now: Cycle) {
        let window = now.as_u64() / self.clear_interval;
        if window > self.last_clear {
            self.last_clear = window;
            self.blacklist.fill(false);
            self.streak = 0;
        }
    }

    fn on_advance(&mut self, from: Cycle, to: Cycle) {
        if to <= from {
            return;
        }
        let first = from.as_u64() / self.clear_interval;
        let last = (to.as_u64() - 1) / self.clear_interval;
        if epoch_crossings(first, last, self.last_clear) > 0 {
            // Clearing twice is clearing once: nothing repopulates the
            // blacklist mid-skip.
            self.last_clear = last;
            self.blacklist.fill(false);
            self.streak = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ViewMode;
    use crate::request::{MemRequest, Pending};
    use ia_dram::{DramConfig, DramModule, PhysAddr};

    fn dram() -> DramModule {
        DramModule::new(DramConfig::ddr3_1600()).unwrap()
    }

    fn pending(id: u64, addr: u64, thread: usize, arrival: u64, dram: &DramModule) -> Pending {
        Pending {
            id,
            request: MemRequest::read(addr, thread),
            loc: dram.decode(PhysAddr::new(addr)),
            arrival: Cycle::new(arrival),
            batched: false,
            started: false,
        }
    }

    fn queue_of(d: &DramModule, ps: &[Pending]) -> RequestQueue {
        let mut q = RequestQueue::new();
        for &p in ps {
            q.insert(p, d);
        }
        q
    }

    fn full_view(q: &RequestQueue, now: Cycle) -> IssueView {
        let mut v = IssueView::default();
        q.build_view(now, ViewMode::Full, &mut v);
        v
    }

    #[test]
    fn parbs_batches_and_ranks_shortest_job_first() {
        let d = dram();
        let mut queue = queue_of(
            &d,
            &[
                pending(1, 0, 0, 0, &d),
                pending(2, 64, 0, 1, &d),
                pending(3, 128, 0, 2, &d),
                pending(4, 1 << 20, 1, 3, &d),
            ],
        );
        let mut parbs = ParBs::new(2);
        parbs.maybe_form_batch(&mut queue);
        assert!(queue.iter().all(|(_, p)| p.batched));
        // Thread 1 has fewer requests → better rank.
        assert!(parbs.rank[1] < parbs.rank[0]);
        let view = full_view(&queue, Cycle::new(1000));
        let pick = parbs.select(&queue, &view).unwrap();
        assert_eq!(
            queue.req(pick).request.thread,
            1,
            "shortest job served first"
        );
    }

    #[test]
    fn parbs_serves_batch_before_new_arrivals() {
        let d = dram();
        let mut queue = queue_of(&d, &[pending(1, 0, 0, 0, &d)]);
        let mut parbs = ParBs::new(2);
        parbs.maybe_form_batch(&mut queue);
        // A newer unbatched request from another thread arrives.
        queue.insert(pending(2, 1 << 20, 1, 50, &d), &d);
        let view = full_view(&queue, Cycle::new(1000));
        let pick = parbs.select(&queue, &view).unwrap();
        assert_eq!(queue.req(pick).id, 1, "batched request outranks unbatched");
    }

    #[test]
    fn atlas_prioritizes_least_attained_service() {
        let d = dram();
        let mut atlas = Atlas::new(2, 1000);
        // Thread 0 has received lots of service.
        for _ in 0..50 {
            atlas.on_complete(
                &Completed {
                    id: 1,
                    request: MemRequest::read(0, 0),
                    arrival: Cycle::ZERO,
                    finished: Cycle::new(10),
                },
                Cycle::new(10),
            );
        }
        let queue = queue_of(
            &d,
            &[pending(1, 0, 0, 0, &d), pending(2, 1 << 20, 1, 90, &d)],
        );
        let view = full_view(&queue, Cycle::new(1000));
        let pick = atlas.select(&queue, &view).unwrap();
        assert_eq!(
            queue.req(pick).request.thread,
            1,
            "starved thread outranks heavy thread"
        );
    }

    #[test]
    fn atlas_decays_attained_service_each_epoch() {
        let mut atlas = Atlas::new(1, 100);
        atlas.on_complete(
            &Completed {
                id: 1,
                request: MemRequest::read(0, 0),
                arrival: Cycle::ZERO,
                finished: Cycle::new(1),
            },
            Cycle::new(1),
        );
        let before = atlas.attained[0];
        atlas.on_tick(Cycle::new(250));
        assert!(atlas.attained[0] < before);
    }

    #[test]
    fn tcm_clusters_low_intensity_threads_as_latency_sensitive() {
        let d = dram();
        let mut tcm = Tcm::new(2, 100, 50);
        // Thread 1 is a bandwidth hog this epoch.
        for i in 0..100 {
            tcm.on_complete(
                &Completed {
                    id: 1,
                    request: MemRequest::read(0, 1),
                    arrival: Cycle::ZERO,
                    finished: Cycle::new(i),
                },
                Cycle::new(i),
            );
        }
        for i in 0..3 {
            tcm.on_complete(
                &Completed {
                    id: 1,
                    request: MemRequest::read(0, 0),
                    arrival: Cycle::ZERO,
                    finished: Cycle::new(i),
                },
                Cycle::new(i),
            );
        }
        tcm.on_tick(Cycle::new(150)); // epoch boundary → recluster
        assert!(tcm.latency_cluster[0]);
        assert!(!tcm.latency_cluster[1]);
        let queue = queue_of(
            &d,
            &[pending(1, 0, 1, 0, &d), pending(2, 1 << 20, 0, 90, &d)],
        );
        let view = full_view(&queue, Cycle::new(1000));
        let pick = tcm.select(&queue, &view).unwrap();
        assert_eq!(queue.req(pick).request.thread, 0, "latency cluster wins");
    }

    #[test]
    fn bliss_blacklists_streaks_and_clears() {
        let d = dram();
        let mut bliss = Bliss::new();
        for i in 0..4 {
            bliss.on_complete(
                &Completed {
                    id: 1,
                    request: MemRequest::read(0, 0),
                    arrival: Cycle::ZERO,
                    finished: Cycle::new(i),
                },
                Cycle::new(i),
            );
        }
        assert!(bliss.is_blacklisted(0));
        assert!(!bliss.is_blacklisted(1));
        let queue = queue_of(
            &d,
            &[pending(1, 0, 0, 0, &d), pending(2, 1 << 20, 1, 90, &d)],
        );
        let view = full_view(&queue, Cycle::new(1000));
        let pick = bliss.select(&queue, &view).unwrap();
        assert_eq!(
            queue.req(pick).request.thread,
            1,
            "non-blacklisted thread wins"
        );
        // Clearing interval resets the blacklist.
        bliss.on_tick(Cycle::new(20_000));
        assert!(!bliss.is_blacklisted(0));
    }

    #[test]
    fn scheduler_names() {
        assert_eq!(ParBs::new(1).name(), "PAR-BS");
        assert_eq!(Atlas::new(1, 1).name(), "ATLAS");
        assert_eq!(Tcm::new(1, 1, 1).name(), "TCM");
        assert_eq!(Bliss::new().name(), "BLISS");
    }
}
