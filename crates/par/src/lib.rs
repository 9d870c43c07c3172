//! # ia-par — deterministic scoped worker pool
//!
//! A zero-dependency (std-only, no unsafe) fork/join primitive for the
//! experiment suite: [`par_map`] / [`par_map_indexed`] execute
//! independent closures across `N` worker threads but always return the
//! results **in input order**, so any reduction folded over the output
//! is byte-identical to the serial run. Determinism rules:
//!
//! * `threads <= 1` (or a single task) runs inline on the calling
//!   thread — exactly the serial path, no pool, no queue.
//! * With `threads > 1`, workers pull tasks from a shared queue in
//!   input order; which *worker* runs a task is scheduling-dependent,
//!   but the output slot is fixed by the task's index, so the returned
//!   `Vec` — and anything derived from it in order — never varies.
//! * A panicking task poisons the queue: workers stop pulling new
//!   tasks, the pool joins cleanly, and the payload of the
//!   lowest-indexed panic is re-raised on the caller (so even the
//!   propagated panic is deterministic).
//!
//! [`par_map_recorded`] also returns the invocation's wall-clock
//! accounting as a [`ParLedger`]; the bench harness folds those into
//! `par_threads` / `par_tasks` / `par_imbalance` runtime diagnostics.
//! Those numbers are timing-derived and therefore **never** enter the
//! canonical experiment reports — see `ia_bench::report`. The crate
//! holds no process-wide state: the worker count is always an argument.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

mod ledger;

pub use ledger::ParLedger;

/// Locks `m`, riding through poison: a worker panic must not deadlock
/// or double-panic the pool teardown.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Maps `f` over `items` on up to `threads` workers, returning results
/// in input order. See the crate docs for the determinism contract.
///
/// # Panics
///
/// Re-raises the panic of the lowest-indexed panicking task after the
/// pool has shut down cleanly.
pub fn par_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_indexed(threads, items, |_, item| f(item))
}

/// [`par_map`], with the task's input index passed to the closure —
/// handy for deriving per-task seeds or labels without capturing them
/// in the item type.
///
/// # Panics
///
/// Re-raises the panic of the lowest-indexed panicking task after the
/// pool has shut down cleanly. String payloads are prefixed with
/// `task <index> of <count>:` so the failing sweep cell is identifiable
/// from the panic message alone.
pub fn par_map_indexed<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    par_map_recorded(threads, items, f).0
}

/// [`par_map_indexed`], also returning the invocation's accounting —
/// tasks run, workers spawned, per-worker busy time — for the caller to
/// [`merge`](ParLedger::merge) into its own ledger.
///
/// # Panics
///
/// As [`par_map_indexed`].
pub fn par_map_recorded<T, R, F>(threads: usize, items: Vec<T>, f: F) -> (Vec<R>, ParLedger)
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let tasks = items.len();
    let workers = threads.max(1).min(tasks.max(1));
    if workers <= 1 {
        // The serial path: no pool, no queue, no catch_unwind — exactly
        // what the pre-`ia-par` code did. `--threads 1` lands here.
        let out: Vec<R> = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
        return (out, ParLedger::serial(tasks));
    }

    // Workers pull `(index, item)` pairs in input order; each keeps a
    // local `(index, result)` list so no lock is held while computing.
    let queue = Mutex::new(items.into_iter().enumerate());
    let poisoned = AtomicBool::new(false);
    let first_panic: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);

    let (mut collected, busy, slowest) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    let mut busy = Duration::ZERO;
                    let mut slowest = Duration::ZERO;
                    loop {
                        if poisoned.load(Ordering::Relaxed) {
                            break;
                        }
                        let next = lock_unpoisoned(&queue).next();
                        let Some((index, item)) = next else { break };
                        // lint: allow(D006, task timing feeds the par ledger whose values exit only through runtime_metric stderr diagnostics)
                        let start = Instant::now();
                        match catch_unwind(AssertUnwindSafe(|| f(index, item))) {
                            Ok(result) => {
                                let took = start.elapsed();
                                busy += took;
                                slowest = slowest.max(took);
                                local.push((index, result));
                            }
                            Err(payload) => {
                                let mut slot = lock_unpoisoned(&first_panic);
                                if slot.as_ref().is_none_or(|(i, _)| index < *i) {
                                    *slot = Some((index, payload));
                                }
                                poisoned.store(true, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                    (local, busy, slowest)
                })
            })
            .collect();
        let mut collected: Vec<(usize, R)> = Vec::with_capacity(tasks);
        let mut busy: Vec<Duration> = Vec::with_capacity(workers);
        let mut slowest = Duration::ZERO;
        for h in handles {
            // Workers never unwind — panics are captured above — so
            // join can only fail if the runtime itself is broken.
            let (local, worker_busy, worker_slowest) =
                // lint: allow(P001, worker closures catch_unwind every task; join failure means a broken runtime)
                h.join().expect("ia-par worker never unwinds");
            collected.extend(local);
            busy.push(worker_busy);
            slowest = slowest.max(worker_slowest);
        }
        (collected, busy, slowest)
    });

    if let Some((index, payload)) = lock_unpoisoned(&first_panic).take() {
        // Label string payloads with the task coordinates: "which of the
        // N sweep cells died" is exactly what the caller needs and is
        // otherwise lost with the worker's stack. Non-string payloads
        // are re-raised untouched.
        let labelled = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .map(|m| format!("task {index} of {tasks}: {m}"));
        match labelled {
            Some(m) => resume_unwind(Box::new(m)),
            None => resume_unwind(payload),
        }
    }

    // Reassemble in input order. Sorting by index is equivalent to
    // scattering into slots but keeps the code free of `Option` holes.
    collected.sort_unstable_by_key(|&(i, _)| i);
    debug_assert!(collected
        .iter()
        .enumerate()
        .all(|(slot, &(i, _))| slot == i));
    let ledger = ParLedger::parallel(workers, tasks, &busy, slowest);
    (collected.into_iter().map(|(_, r)| r).collect(), ledger)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        for threads in 1..=8 {
            let out = par_map(threads, (0..100u64).collect(), |x| x * 3);
            assert_eq!(out, (0..100u64).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn indexed_variant_sees_the_input_index() {
        let items = vec!["a", "b", "c", "d", "e"];
        let out = par_map_indexed(4, items, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn zero_threads_and_empty_input_are_fine() {
        assert_eq!(par_map(0, vec![1, 2], |x| x + 1), vec![2, 3]);
        assert_eq!(par_map(4, Vec::<u32>::new(), |x| x), Vec::<u32>::new());
    }

    #[test]
    fn panic_propagates_and_pool_shuts_down() {
        let result = std::panic::catch_unwind(|| {
            par_map(4, (0..32).collect::<Vec<i32>>(), |x| {
                assert!(x != 7, "boom at {x}");
                x
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .expect("assert! payload is a String");
        assert!(msg.contains("boom at 7"), "lowest-index panic wins: {msg}");
        assert!(
            msg.starts_with("task 7 of 32: "),
            "payload carries the task coordinates: {msg}"
        );
    }

    #[test]
    fn recorded_invocations_merge_into_one_ledger() {
        let (out, mut ledger) = par_map_recorded(1, vec![1u32, 2, 3], |_, x| x);
        assert_eq!(out, [1, 2, 3]);
        let (out, pooled) = par_map_recorded(2, (0..10u32).collect(), |_, x| x);
        assert_eq!(out.len(), 10);
        ledger.merge(&pooled);
        assert_eq!(ledger.serial_invocations, 1);
        assert_eq!(ledger.parallel_invocations, 1);
        assert_eq!(ledger.tasks, 13);
        assert_eq!(ledger.max_workers, 2);
        assert!(ledger.worst_imbalance >= 0.0);
        assert!(
            ledger.slowest_task <= ledger.busy_total,
            "one task cannot exceed total busy time: {ledger:?}"
        );
    }
}
