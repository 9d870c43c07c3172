//! **E17 — The prefetch-controller lineage.**
//!
//! Paper claim (§III): the prefetch controller is another fixed-policy
//! component that "sees a vast amount of data … yet is incapable of
//! learning from it". The cited lineage: stride/GHB heuristics
//! (Nesbit & Smith HPCA'04), feedback-directed throttling (Srinath+
//! HPCA'07), and perceptron-based filtering (Bhatia+ ISCA'19).
//! Expected shape: heuristics win on regular streams and pollute on
//! irregular ones; the adaptive generations keep the coverage while
//! recovering accuracy.

use ia_prefetch::{
    FeedbackDirected, GhbPrefetcher, NextLinePrefetcher, PerceptronFilter, PrefetchHarness,
    PrefetchMetrics, Prefetcher, StridePrefetcher,
};
use ia_workloads::{PointerChaseGen, StreamGen, TraceGenerator, ZipfGen};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::report::{Error, ExperimentReport};

fn prefetchers() -> Vec<Box<dyn Prefetcher>> {
    vec![
        Box::new(NextLinePrefetcher::new(2)),
        Box::new(StridePrefetcher::new(4)),
        Box::new(GhbPrefetcher::new(256, 4)),
        Box::new(FeedbackDirected::new(4)),
        Box::new(PerceptronFilter::new(StridePrefetcher::new(4))),
    ]
}

fn workloads(n: usize) -> Result<Vec<(&'static str, Vec<u64>)>, Error> {
    let mut rng = SmallRng::seed_from_u64(117);
    let stream = StreamGen::new(0, 64, 4 << 20, 0.0)?
        .generate(n, &mut rng)
        .into_iter()
        .map(|r| r.addr)
        .collect();
    let strided = StreamGen::new(1 << 26, 320, 4 << 20, 0.0)?
        .generate(n, &mut rng)
        .into_iter()
        .map(|r| r.addr)
        .collect();
    let zipf = ZipfGen::new(2 << 26, 8192, 4096, 1.0, 0.0)?
        .generate(n, &mut rng)
        .into_iter()
        .map(|r| r.addr)
        .collect();
    let mut chase_gen = PointerChaseGen::new(3 << 26, 128 * 1024, 64, &mut rng)?;
    let chase = chase_gen
        .generate(n, &mut rng)
        .into_iter()
        .map(|r| r.addr)
        .collect();
    Ok(vec![
        ("stream", stream),
        ("strided", strided),
        ("zipf", zipf),
        ("pointer-chase", chase),
    ])
}

/// One row of the result matrix: a workload name and its per-prefetcher
/// metrics.
type MatrixRow = (String, Vec<(String, PrefetchMetrics)>);

/// Metrics per (workload, prefetcher) cell over `n` demand accesses
/// per workload.
fn matrix(n: usize) -> Result<Vec<MatrixRow>, Error> {
    // Trace generation shares one RNG stream and stays serial; the 4×5
    // (workload, prefetcher) harness runs are independent, so flatten
    // the grid into tasks for the worker pool. `par_map` preserves the
    // row-major task order, so the reassembled matrix is identical to
    // the nested serial loops.
    let workloads = workloads(n)?;
    let lanes = prefetchers().len();
    let tasks: Vec<(usize, usize)> = (0..workloads.len())
        .flat_map(|wi| (0..lanes).map(move |pi| (wi, pi)))
        .collect();
    let cells = ia_par::par_map(ia_par::auto_threads(), tasks, |(wi, pi)| {
        let p = prefetchers().swap_remove(pi);
        let name = p.name().to_owned();
        let mut h = PrefetchHarness::new(64 * 1024, 64, 8, p)?;
        for &a in &workloads[wi].1 {
            h.demand(a);
        }
        Ok((name, *h.metrics()))
    })
    .into_iter()
    .collect::<Result<Vec<_>, Error>>()?;
    Ok(workloads
        .iter()
        .zip(cells.chunks(lanes))
        .map(|((wname, _), row)| ((*wname).to_owned(), row.to_vec()))
        .collect())
}

/// Runs five prefetchers over four workload classes; the headline is
/// the best coverage any prefetcher reaches.
pub fn report(quick: bool) -> Result<ExperimentReport, Error> {
    let n = if quick { 3_000 } else { 30_000 };
    let mut rep = ExperimentReport::new("exp17_prefetchers", quick)
        .columns(&["workload", "prefetcher", "coverage", "accuracy", "issued"])
        .caption(format!(
            "E17: prefetcher lineage across workload classes, {n} demand accesses per workload\n\
             (paper shape: heuristics cover streams but pollute on irregular traffic;\n\
             feedback/learning recover accuracy by throttling or filtering)"
        ));
    let mut best_coverage = 0.0f64;
    for (workload, cells) in matrix(n)? {
        for (prefetcher, m) in cells {
            best_coverage = best_coverage.max(m.coverage());
            rep = rep.row(&[
                workload.clone(),
                prefetcher,
                format!("{:.4}", m.coverage()),
                format!("{:.4}", m.accuracy()),
                m.issued.to_string(),
            ]);
        }
    }
    Ok(rep.metric("best_coverage", best_coverage))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(m: &[(String, Vec<(String, PrefetchMetrics)>)], w: &str, p: &str) -> PrefetchMetrics {
        m.iter()
            .find(|(n, _)| n == w)
            .expect("workload present")
            .1
            .iter()
            .find(|(n, _)| n.contains(p))
            .expect("prefetcher present")
            .1
    }

    #[test]
    fn stride_covers_regular_streams() {
        let m = matrix(3_000).unwrap();
        assert!(cell(&m, "stream", "stride").coverage() > 0.7);
        assert!(cell(&m, "strided", "stride").coverage() > 0.7);
        assert!(cell(&m, "stream", "GHB").coverage() > 0.5);
    }

    #[test]
    fn nothing_covers_pointer_chasing() {
        let m = matrix(3_000).unwrap();
        for p in ["next-line", "stride", "GHB"] {
            assert!(
                cell(&m, "pointer-chase", p).coverage() < 0.1,
                "{p} cannot prefetch dependent chains"
            );
        }
    }

    #[test]
    fn feedback_throttles_where_accuracy_dies() {
        let m = matrix(3_000).unwrap();
        let naive = cell(&m, "pointer-chase", "stride");
        let fd = cell(&m, "pointer-chase", "feedback");
        let naive_rate = naive.issued as f64 / naive.demands.max(1) as f64;
        let fd_rate = fd.issued as f64 / fd.demands.max(1) as f64;
        assert!(
            fd_rate <= naive_rate + 0.01,
            "feedback-directed must not issue more useless prefetches ({fd_rate:.3} vs {naive_rate:.3})"
        );
    }

    #[test]
    fn report_renders() {
        let s = report(true).unwrap().to_text();
        assert!(s.contains("stride"));
        assert!(s.contains("pointer-chase"));
    }
}
