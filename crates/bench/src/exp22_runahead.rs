//! **E22 — Runahead execution.**
//!
//! Paper citation \[154\] (Mutlu+, HPCA 2003), invoked as part of the
//! "top-down pull": tolerating memory latency from the core side.
//! Expected shape: large speedups on independent-miss workloads that grow
//! with the runahead window, collapsing to nothing on dependent
//! (pointer-chasing) chains — the gap PIM exists to fill.

use ia_prefetch::runahead::{build_trace, execute, CoreModel};

use crate::report::{Error, ExperimentReport};

/// Matrix rows `(dependence ‰, window, stall cycles, runahead cycles)`.
fn matrix(quick: bool) -> Vec<(u32, usize, u64, u64)> {
    let loads = if quick { 500 } else { 5000 };
    // The 3×3 (dependence, window) grid: every cell builds its own
    // trace and runs two core models — independent tasks for the
    // worker pool, returned in row-major grid order.
    let grid: Vec<(u32, usize)> = [0u32, 500, 1000]
        .into_iter()
        .flat_map(|dep| [16usize, 64, 256].into_iter().map(move |w| (dep, w)))
        .collect();
    ia_par::par_map(ia_par::auto_threads(), grid, |(dep, window)| {
        let trace = build_trace(loads, 5, dep);
        let stall = execute(
            &trace,
            CoreModel {
                miss_latency: 200,
                runahead_window: 0,
            },
        );
        let ra = execute(
            &trace,
            CoreModel {
                miss_latency: 200,
                runahead_window: window,
            },
        );
        (dep, window, stall, ra)
    })
}

/// Runs stall-on-miss and runahead cores over a (dependent-load
/// fraction × runahead window) grid; the headline is the best speedup.
pub fn report(quick: bool) -> Result<ExperimentReport, Error> {
    let data = matrix(quick);
    let max_speedup = data.iter().fold(0.0f64, |a, &(_, _, stall, ra)| {
        a.max(stall as f64 / ra.max(1) as f64)
    });
    let mut rep = ExperimentReport::new("exp22_runahead", quick)
        .metric("max_speedup", max_speedup)
        .columns(&[
            "dependent_load_permille",
            "runahead_window",
            "stall_cycles",
            "runahead_cycles",
            "speedup",
        ])
        .caption(
            "E22: runahead execution vs stall-on-miss\n\
             (paper shape: big wins on independent misses, growing with the window;\n\
             zero on fully dependent chains — which is where PIM takes over)",
        );
    for (dep, window, stall, ra) in &data {
        rep = rep.row(&[
            dep.to_string(),
            window.to_string(),
            stall.to_string(),
            ra.to_string(),
            format!("{:.2}", *stall as f64 / (*ra).max(1) as f64),
        ]);
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_misses_speed_up_with_window() {
        let m = matrix(true);
        let at = |dep: u32, w: usize| {
            m.iter()
                .find(|r| r.0 == dep && r.1 == w)
                .map(|r| r.2 as f64 / r.3 as f64)
                .expect("cell")
        };
        assert!(
            at(0, 64) > 3.0,
            "independent loads must overlap: {:.1}",
            at(0, 64)
        );
        assert!(at(0, 256) >= at(0, 16), "bigger windows help");
    }

    #[test]
    fn dependent_chains_gain_nothing() {
        let m = matrix(true);
        for r in m.iter().filter(|r| r.0 == 1000) {
            assert_eq!(r.2, r.3, "fully dependent chain must not speed up");
        }
    }

    #[test]
    fn half_dependent_sits_between() {
        let m = matrix(true);
        let s = |dep: u32| {
            m.iter()
                .find(|r| r.0 == dep && r.1 == 64)
                .map(|r| r.2 as f64 / r.3 as f64)
                .expect("cell")
        };
        assert!(s(500) > s(1000) - 1e-9);
        assert!(s(500) < s(0));
    }

    #[test]
    fn report_renders() {
        assert!(report(true).unwrap().to_text().contains("runahead_window"));
    }
}
