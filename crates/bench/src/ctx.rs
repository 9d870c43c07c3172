//! [`RunCtx`]: everything one experiment run is configured with, in one
//! value the run owns.
//!
//! A run's settings — worker count, trace capture, workload record or
//! replay — live here and nowhere else, so two runs in one process (two tests, or two
//! experiments of a suite) cannot see each other's settings. The
//! experiment entry points take `&RunCtx`; the library crates they
//! drive take only the plain value they use (a worker count, a traced
//! controller) and never see the context.
//!
//! Workload interception ([`RunCtx::intercept`]) runs **serially,
//! before any parallel fan-out**, so recording and replaying are
//! deterministic at every worker count, and a replayed run's canonical
//! report is byte-identical to the recorded run's. One artifact can
//! hold several workloads: each intercepted workload is a *segment*,
//! tagged through the trace records' `at` field. On replay, segments
//! are handed back in call order; if the run asks for more segments
//! than the artifact holds (or the artifact came from a different
//! experiment), the run falls back to generating — the workload seed
//! makes that equivalent — and says so on stderr.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use ia_memctrl::{MemRequest, MemoryController};
use ia_par::ParLedger;
use ia_trace::TraceLog;
use ia_tracefmt::{TraceReader, TraceWriter};

/// One per-thread controller workload (one request list per thread).
type Workload = Vec<Vec<MemRequest>>;

/// The workload record/replay state.
#[derive(Debug)]
enum Workloads {
    /// Every intercepted workload is generated.
    Generate,
    /// Generated workloads are captured with their seeds.
    Record(Mutex<Vec<(u64, Workload)>>),
    /// Workloads come from an artifact's segments, in call order;
    /// `next` counts the calls so far.
    Replay {
        segments: Vec<Workload>,
        next: AtomicUsize,
    },
}

/// One experiment run's configuration and sinks. See the module docs.
#[derive(Debug)]
pub struct RunCtx {
    threads: usize,
    ledger: Mutex<ParLedger>,
    trace: Option<Mutex<TraceLog>>,
    workloads: Workloads,
}

impl Default for RunCtx {
    /// The exact serial path with nothing captured: `RunCtx::new(1)`.
    fn default() -> Self {
        RunCtx::new(1)
    }
}

/// The host's available parallelism: the worker count a run gets when
/// none is asked for.
#[must_use]
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Locks `m`, riding through poison: every update made under these
/// locks is one push, merge or take, so the data stays valid even if a
/// panicking sweep task left the lock poisoned.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl RunCtx {
    /// A run on `threads` workers (`1` = the exact serial path; `0` is
    /// treated as `1`) that generates its workloads and captures no
    /// trace.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        RunCtx {
            threads: threads.max(1),
            ledger: Mutex::new(ParLedger::default()),
            trace: None,
            workloads: Workloads::Generate,
        }
    }

    /// Turns trace capture on: the run builds traced components and
    /// [`submit`](Self::submit)s their logs.
    #[must_use]
    pub fn with_trace(mut self) -> Self {
        self.trace = Some(Mutex::new(TraceLog::new()));
        self
    }

    /// Arms workload recording: every [`intercept`](Self::intercept)
    /// captures the workload it generates, and
    /// [`recorded_artifact`](Self::recorded_artifact) encodes them.
    #[must_use]
    pub fn recording(mut self) -> Self {
        self.workloads = Workloads::Record(Mutex::new(Vec::new()));
        self
    }

    /// Arms replay from a decoded artifact: each
    /// [`intercept`](Self::intercept) returns the artifact's next
    /// segment instead of generating.
    #[must_use]
    pub fn replaying(mut self, artifact: &TraceReader) -> Self {
        // Split the flat record list into segments on the `at` tag,
        // preserving file order within each.
        let segments = artifact
            .records()
            .chunk_by(|a, b| a.at == b.at)
            .map(ia_memctrl::workload_from_records)
            .collect();
        self.workloads = Workloads::Replay {
            segments,
            next: AtomicUsize::new(0),
        };
        self
    }

    /// The worker count parallel sweeps fan out on.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// [`ia_par::par_map`] on the run's workers, accounted in the run's
    /// ledger.
    pub fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        self.par_map_indexed(items, |_, item| f(item))
    }

    /// [`ia_par::par_map_indexed`] on the run's workers, accounted in
    /// the run's ledger.
    pub fn par_map_indexed<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let (out, ledger) = ia_par::par_map_recorded(self.threads, items, f);
        self.record_ledger(&ledger);
        out
    }

    /// Folds parallel work that a library fanned out on the run's
    /// worker count into the run's ledger.
    pub fn record_ledger(&self, ledger: &ParLedger) {
        lock(&self.ledger).merge(ledger);
    }

    /// Drains the parallel-work accounting gathered since the last call.
    #[must_use]
    pub fn take_ledger(&self) -> ParLedger {
        std::mem::take(&mut *lock(&self.ledger))
    }

    /// Whether the run captures a trace.
    #[must_use]
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// `ctrl`, with cycle tracing enabled when the run captures a trace;
    /// its closed-loop run then carries the log back in its report.
    #[must_use]
    pub fn traced(&self, mut ctrl: MemoryController) -> MemoryController {
        if self.tracing() {
            ctrl.enable_cycle_tracing(ia_trace::DEFAULT_EVENT_CAPACITY);
        }
        ctrl
    }

    /// Appends `log` to the run's trace. Call on the run's own thread in
    /// a deterministic order — parallel sweeps carry each task's log
    /// back with its result and submit after the join — so the merged
    /// trace is byte-identical at every worker count. Ignored when the
    /// run captures no trace.
    pub fn submit(&self, log: TraceLog) {
        if let Some(trace) = &self.trace {
            lock(trace).merge(log);
        }
    }

    /// Drains the trace submitted so far (empty when capture is off).
    #[must_use]
    pub fn take_trace(&self) -> TraceLog {
        self.trace
            .as_ref()
            .map(|t| std::mem::take(&mut *lock(t)))
            .unwrap_or_default()
    }

    /// The workload interception point: returns `make()` when the run
    /// generates or records (keeping a copy with `seed` in the latter
    /// case), or the artifact's next segment when it replays.
    ///
    /// # Errors
    ///
    /// Whatever `make` returns when the workload has to be generated.
    pub fn intercept<E>(
        &self,
        seed: u64,
        make: impl FnOnce() -> Result<Workload, E>,
    ) -> Result<Workload, E> {
        match &self.workloads {
            Workloads::Generate => make(),
            Workloads::Record(recorded) => {
                let workload = make()?;
                lock(recorded).push((seed, workload.clone()));
                Ok(workload)
            }
            Workloads::Replay { segments, next } => {
                match segments.get(next.fetch_add(1, Ordering::Relaxed)) {
                    Some(segment) => Ok(segment.clone()),
                    None => {
                        eprintln!(
                            "warning: replay trace has no segment for this workload \
                             (seed {seed:#x}); generating instead"
                        );
                        make()
                    }
                }
            }
        }
    }

    /// How many workloads the run has intercepted so far: recorded ones
    /// when recording, requested ones when replaying, `0` otherwise.
    #[must_use]
    pub fn intercepted(&self) -> usize {
        match &self.workloads {
            Workloads::Generate => 0,
            Workloads::Record(recorded) => lock(recorded).len(),
            Workloads::Replay { next, .. } => next.load(Ordering::Relaxed),
        }
    }

    /// The recorded workloads encoded as an `ia-tracefmt` artifact, one
    /// segment per intercepted workload; the header seed is the first
    /// workload's generator seed. Empty when the run is not recording.
    #[must_use]
    pub fn recorded_artifact(&self) -> Vec<u8> {
        let Workloads::Record(recorded) = &self.workloads else {
            return Vec::new();
        };
        let recorded = lock(recorded);
        let mut w = TraceWriter::new(recorded.first().map_or(0, |&(seed, _)| seed));
        for (i, (_, segment)) in recorded.iter().enumerate() {
            ia_memctrl::record_workload(segment, i as u64, &mut w);
        }
        w.finish()
    }
}
