//! Record/replay glue: conversions between controller workloads and the
//! `ia-tracefmt` IR.

use ia_dram::AccessKind;
use ia_tracefmt::{TraceOp, TraceRecord, TraceWriter};

use crate::request::thread_index;
use crate::MemRequest;

/// Records a per-thread controller workload into `w`: `stream` = thread
/// index, `at` = the caller-chosen segment tag (the bench `RunCtx` uses
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
}
