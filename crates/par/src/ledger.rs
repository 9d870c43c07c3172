//! Accounting of parallel work, for observability.
//!
//! Every [`par_map_recorded`](crate::par_map_recorded) invocation
//! returns how many tasks it ran and, for parallel invocations, each
//! worker's busy time. The caller folds those into one [`ParLedger`]
//! per run ([`ParLedger::merge`]), and the bench CLI reports the totals
//! as *runtime diagnostics* on stderr. The numbers are wall-clock
//! derived, hence nondeterministic — they must never be folded into a
//! canonical report (`BENCH_PR.json` stays byte-identical across
//! `--threads` values precisely because they are not).

use std::time::Duration;

/// Aggregated parallel-execution accounting.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ParLedger {
    /// `par_map` invocations that ran on the inline serial path.
    pub serial_invocations: u64,
    /// `par_map` invocations that spawned a worker pool.
    pub parallel_invocations: u64,
    /// Total tasks executed (serial + parallel).
    pub tasks: u64,
    /// Largest worker-pool size observed.
    pub max_workers: usize,
    /// Sum of all workers' busy time.
    pub busy_total: Duration,
    /// Worst per-invocation imbalance: max worker busy time divided by
    /// mean worker busy time (`1.0` = perfectly balanced or serial).
    pub worst_imbalance: f64,
    /// Longest single task observed across all parallel invocations —
    /// the lower bound on any sweep's wall-clock, however many workers.
    pub slowest_task: Duration,
}

impl ParLedger {
    /// One serial (inline) invocation of `tasks` tasks.
    pub(crate) fn serial(tasks: usize) -> Self {
        ParLedger {
            serial_invocations: 1,
            tasks: tasks as u64,
            ..ParLedger::default()
        }
    }

    /// One pooled invocation: `workers` threads, per-worker busy time,
    /// and the longest single task.
    pub(crate) fn parallel(
        workers: usize,
        tasks: usize,
        busy: &[Duration],
        slowest: Duration,
    ) -> Self {
        let total: Duration = busy.iter().sum();
        let mean = total.as_secs_f64() / busy.len().max(1) as f64;
        let worst_imbalance = if mean > 0.0 {
            let max = busy.iter().max().copied().unwrap_or_default().as_secs_f64();
            max / mean
        } else {
            0.0
        };
        ParLedger {
            serial_invocations: 0,
            parallel_invocations: 1,
            tasks: tasks as u64,
            max_workers: workers,
            busy_total: total,
            worst_imbalance,
            slowest_task: slowest,
        }
    }

    /// Folds `other` into the totals: counts add, worst cases win.
    pub fn merge(&mut self, other: &ParLedger) {
        self.serial_invocations += other.serial_invocations;
        self.parallel_invocations += other.parallel_invocations;
        self.tasks += other.tasks;
        self.max_workers = self.max_workers.max(other.max_workers);
        self.busy_total += other.busy_total;
        self.worst_imbalance = self.worst_imbalance.max(other.worst_imbalance);
        self.slowest_task = self.slowest_task.max(other.slowest_task);
    }
}
