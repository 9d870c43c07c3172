//! Record/replay glue: conversions between controller workloads and the
//! `ia-tracefmt` IR, plus the process-global replay context that failure
//! reports cite.
//!
//! The context exists for one reason: when a replayed or fuzzed run
//! fails (a watchdog stall, an oracle violation), the error message must
//! carry enough to reproduce it — the trace artifact driving the run and
//! the fault-plan seed perturbing it. [`CtrlError`](crate::CtrlError)'s
//! `Display` appends the active context automatically, so every consumer
//! of the error string gets the repro pointer for free.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

use ia_dram::AccessKind;
use ia_tracefmt::{TraceOp, TraceRecord, TraceWriter};

use crate::request::thread_index;
use crate::MemRequest;

/// What is driving the current run, for error attribution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayContext {
    /// Path of the trace artifact being replayed (or recorded).
    pub trace_path: Option<String>,
    /// Seed of the fault plan injected into the run, if any.
    pub fault_seed: Option<u64>,
}

impl ReplayContext {
    fn is_empty(&self) -> bool {
        self.trace_path.is_none() && self.fault_seed.is_none()
    }
}

static CONTEXT_SET: AtomicBool = AtomicBool::new(false);
static CONTEXT: Mutex<Option<ReplayContext>> = Mutex::new(None);

/// Installs the process-wide replay context. Pass what is known — a
/// trace path, a fault seed, or both; an all-`None` context clears.
pub fn set_replay_context(ctx: ReplayContext) {
    let empty = ctx.is_empty();
    *CONTEXT.lock().unwrap_or_else(PoisonError::into_inner) = if empty { None } else { Some(ctx) };
    CONTEXT_SET.store(!empty, Ordering::Release);
}

/// Clears the replay context.
pub fn clear_replay_context() {
    set_replay_context(ReplayContext::default());
}

/// The active replay context, if one is installed.
#[must_use]
pub fn replay_context() -> Option<ReplayContext> {
    if !CONTEXT_SET.load(Ordering::Acquire) {
        return None;
    }
    CONTEXT
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// The suffix error displays append: empty when no context is set. The
/// atomic fast path keeps the default (no record/replay) error path free
/// of lock traffic.
pub(crate) fn context_suffix() -> String {
    let Some(ctx) = replay_context() else {
        return String::new();
    };
    let mut out = String::from(" [");
    if let Some(path) = &ctx.trace_path {
        out.push_str("trace: ");
        out.push_str(path);
    }
    if let Some(seed) = ctx.fault_seed {
        if ctx.trace_path.is_some() {
            out.push_str("; ");
        }
        out.push_str(&format!("fault seed: {seed:#x}"));
    }
    out.push(']');
    out
}

/// Records a per-thread controller workload into `w`: `stream` = thread
/// index, `at` = the caller-chosen segment tag (the bench session uses
/// it to delimit successive workloads in one file). The inverse is
/// [`workload_from_records`].
pub fn record_workload(traces: &[Vec<MemRequest>], at: u64, w: &mut TraceWriter) {
    for (thread, list) in traces.iter().enumerate() {
        for req in list {
            let op = match req.kind {
                AccessKind::Read => TraceOp::Read,
                AccessKind::Write => TraceOp::Write,
            };
            w.push(&TraceRecord::new(
                req.addr.as_u64(),
                op,
                thread_index(thread),
                at,
            ));
        }
    }
}

/// Rebuilds a per-thread workload from decoded records: requests group
/// by `stream` (one `Vec` per stream id up to the maximum present),
/// preserving record order within each thread.
#[must_use]
pub fn workload_from_records(records: &[TraceRecord]) -> Vec<Vec<MemRequest>> {
    let threads = records
        .iter()
        .map(|r| r.stream as usize + 1)
        .max()
        .unwrap_or(0);
    let mut out = vec![Vec::new(); threads];
    for rec in records {
        let req = match rec.op {
            TraceOp::Read => MemRequest::read(rec.addr, rec.stream as usize),
            TraceOp::Write => MemRequest::write(rec.addr, rec.stream as usize),
        };
        out[rec.stream as usize].push(req);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_round_trips_through_the_ir() {
        let traces = vec![
            vec![MemRequest::read(0x1000, 0), MemRequest::write(0x1040, 0)],
            vec![MemRequest::read(0x2000, 1)],
        ];
        let mut w = TraceWriter::new(3);
        record_workload(&traces, 7, &mut w);
        let reader = ia_tracefmt::TraceReader::from_bytes(&w.finish()).unwrap();
        assert!(reader.records().iter().all(|r| r.at == 7));
        let back = workload_from_records(reader.records());
        // `id` is assigned on enqueue, so fresh requests compare equal.
        assert_eq!(back, traces);
    }

    #[test]
    fn context_suffix_reflects_what_is_set() {
        // This single test owns the global context (tests run in
        // parallel threads); start clean and leave clean.
        clear_replay_context();
        assert_eq!(context_suffix(), "");
        assert!(replay_context().is_none());

        set_replay_context(ReplayContext {
            trace_path: Some("runs/exp05.trace".into()),
            fault_seed: None,
        });
        assert_eq!(context_suffix(), " [trace: runs/exp05.trace]");

        set_replay_context(ReplayContext {
            trace_path: Some("f.trace".into()),
            fault_seed: Some(0xBEEF),
        });
        assert_eq!(context_suffix(), " [trace: f.trace; fault seed: 0xbeef]");

        set_replay_context(ReplayContext {
            trace_path: None,
            fault_seed: Some(5),
        });
        assert_eq!(context_suffix(), " [fault seed: 0x5]");

        // Errors carry the context while it is installed.
        set_replay_context(ReplayContext {
            trace_path: Some("repro.trace".into()),
            fault_seed: Some(1),
        });
        assert_eq!(
            crate::CtrlError::QueueFull.to_string(),
            "request queue is full [trace: repro.trace; fault seed: 0x1]"
        );

        clear_replay_context();
        assert_eq!(context_suffix(), "");
        assert_eq!(
            crate::CtrlError::QueueFull.to_string(),
            "request queue is full"
        );
    }
}
