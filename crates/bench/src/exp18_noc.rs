//! **E18 — Bufferless deflection routing vs buffered mesh.**
//!
//! Paper lineage (§III references [200, 205, 207]): "A Case for
//! Bufferless Routing in On-Chip Networks" (Moscibroda & Mutlu, ISCA
//! 2009) — at realistic loads a network with *no buffers at all* matches
//! the buffered mesh's latency while eliminating its dominant area/power
//! cost; the price is deflections and earlier saturation at high load.

use ia_core::Table;
use ia_noc::{simulate, simulate_traced, MeshConfig, NocReport, RouterKind, Traffic};

use crate::report::{Error, ExperimentReport};

/// Latency-vs-load series `(rate, buffered, bufferless)`.
fn sweep(quick: bool) -> Result<Vec<(f64, NocReport, NocReport)>, Error> {
    let mesh = MeshConfig::new(8, 8)?;
    let cycles = if quick { 2_000 } else { 20_000 };
    let rates = [0.02f64, 0.05, 0.10, 0.20, 0.30];
    // 5 rates × 2 router kinds = 10 independent simulations, each with
    // its own seeded RNG inside `simulate`; fan them out and zip the
    // order-preserved results back into per-rate rows. When the bench
    // CLI's `--trace`/`--profile` session capture is on, each task also
    // records a mesh-activity trace; the logs ride back with the
    // results and are submitted here in input order, keeping the
    // session trace byte-identical across `--threads`.
    let tracing = ia_trace::capture_enabled();
    let tasks: Vec<(f64, RouterKind)> = rates
        .iter()
        .flat_map(|&rate| {
            [
                (rate, RouterKind::Buffered),
                (rate, RouterKind::BufferlessDeflection),
            ]
        })
        .collect();
    let runs = ia_par::par_map(ia_par::auto_threads(), tasks, |(rate, kind)| {
        if tracing {
            simulate_traced(kind, mesh, Traffic::UniformRandom, rate, cycles, 11)
                .map(|(report, log)| (report, Some(log), rate, kind))
        } else {
            simulate(kind, mesh, Traffic::UniformRandom, rate, cycles, 11)
                .map(|report| (report, None, rate, kind))
        }
    });
    let reports = runs
        .into_iter()
        .map(|run| {
            let (report, log, rate, kind) = run?;
            if let Some(log) = log {
                let label = match kind {
                    RouterKind::Buffered => format!("buffered@{rate:.2}"),
                    RouterKind::BufferlessDeflection => format!("bufferless@{rate:.2}"),
                };
                ia_trace::submit(log.prefixed(&label));
            }
            Ok(report)
        })
        .collect::<Result<Vec<NocReport>, Error>>()?;
    Ok(rates
        .iter()
        .zip(reports.chunks(2))
        .map(|(&rate, pair)| (rate, pair[0], pair[1]))
        .collect())
}

/// Sweeps the injection rate on an 8x8 mesh under uniform-random
/// traffic, buffered XY against bufferless deflection routing.
pub fn report(quick: bool) -> Result<ExperimentReport, Error> {
    let data = sweep(quick)?;
    let mut side = Table::new(&["inj. rate", "peak buffers (buffered)"]);
    let mut rep = ExperimentReport::new("exp18_noc", quick).columns(&[
        "injection_rate",
        "buffered_latency",
        "bufferless_latency",
        "deflections_per_packet",
    ]);
    for (rate, buffered, bufferless) in &data {
        let defl = if bufferless.delivered == 0 {
            0.0
        } else {
            bufferless.deflections as f64 / bufferless.delivered as f64
        };
        side.row(&[format!("{rate:.2}"), buffered.peak_buffering.to_string()]);
        rep = rep.row(&[
            format!("{rate:.2}"),
            format!("{:.1}", buffered.avg_latency),
            format!("{:.1}", bufferless.avg_latency),
            format!("{defl:.2}"),
        ]);
    }
    if let Some((_, buffered, bufferless)) = data.last() {
        rep = rep
            .metric("peak_buffered_latency", buffered.avg_latency)
            .metric("peak_bufferless_latency", bufferless.avg_latency);
    }
    Ok(rep.caption(format!(
        "E18: 8x8 mesh, uniform-random traffic — buffered XY vs bufferless deflection\n\
         (paper shape: near-identical latency at low-to-medium load with zero buffers;\n\
         deflections grow as the bufferless network approaches saturation)\n{side}\n"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bufferless_is_competitive_at_low_load() {
        let s = sweep(true).unwrap();
        let (_, b, d) = &s[0];
        assert!(
            d.avg_latency < b.avg_latency + 3.0,
            "bufferless {:.1} vs buffered {:.1} at 2% load",
            d.avg_latency,
            b.avg_latency
        );
    }

    #[test]
    fn deflections_grow_with_load() {
        let s = sweep(true).unwrap();
        let low = s[0].2.deflections as f64 / s[0].2.delivered.max(1) as f64;
        let high = s.last().expect("non-empty").2.deflections as f64
            / s.last().expect("non-empty").2.delivered.max(1) as f64;
        assert!(
            high > low,
            "deflections/pkt must rise with load: {low:.3} -> {high:.3}"
        );
    }

    #[test]
    fn buffered_queues_grow_with_load() {
        let s = sweep(true).unwrap();
        assert!(s.last().expect("non-empty").1.peak_buffering > s[0].1.peak_buffering);
    }

    #[test]
    fn report_renders() {
        let out = report(true).unwrap().to_text();
        assert!(out.contains("deflections"));
        assert!(out.contains("0.02"));
    }
}
