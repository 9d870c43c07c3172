//! Principle ablation: the paper's thesis, quantified — each principle
//! added to the processor-centric baseline should independently improve
//! the system, and the three compose.

use ia_par::ParLedger;
use ia_workloads::TraceRequest;
use ia_xmem::AtomRegistry;

use crate::error::CoreError;
use crate::principles::PrincipleSet;
use crate::system::{IntelligentSystem, SystemConfig, SystemReport};

/// One rung of the ablation ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Principles enabled at this rung.
    pub principles: PrincipleSet,
    /// Full-system report.
    pub report: SystemReport,
    /// Speedup vs. the baseline rung (cycles ratio).
    pub speedup: f64,
}

/// Runs the ablation ladder (baseline → +centric → +driven → all) over the
/// same trace and registry, returning one row per rung and the fan-out's
/// [`ParLedger`] for the caller's parallel-work accounting.
///
/// The four rungs are independent full-system simulations, so they fan
/// out on `threads` `ia-par` workers; the pool returns reports in
/// ladder order, so speedups — all relative to the rung-0 baseline —
/// are identical to the serial run (`threads = 1`).
///
/// # Errors
///
/// Propagates [`CoreError`] from the underlying runs (the error of the
/// lowest failing rung when several fail).
pub fn run_ablation(
    base_config: &SystemConfig,
    registry: &AtomRegistry,
    trace: &[TraceRequest],
    threads: usize,
) -> Result<(Vec<AblationRow>, ParLedger), CoreError> {
    let (reports, ledger) =
        ia_par::par_map_recorded(threads, PrincipleSet::ladder().to_vec(), |_, principles| {
            let config = SystemConfig {
                principles,
                ..base_config.clone()
            };
            let system = IntelligentSystem::new(config).with_registry(registry.clone());
            system.run(trace).map(|report| (principles, report))
        });
    let reports = reports.into_iter().collect::<Result<Vec<_>, _>>()?;

    let baseline_cycles = reports
        .first()
        .map_or(1, |(_, report)| report.cycles().max(1));
    let rows = reports
        .into_iter()
        .map(|(principles, report)| AblationRow {
            principles,
            speedup: baseline_cycles as f64 / report.cycles().max(1) as f64,
            report,
        })
        .collect();
    Ok((rows, ledger))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_workloads::{TraceGenerator, ZipfGen};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn ladder_produces_four_rows_with_baseline_unity() {
        let mut rng = SmallRng::seed_from_u64(9);
        let trace = ZipfGen::new(0, 2048, 4096, 1.1, 0.2)
            .unwrap()
            .generate(2500, &mut rng);
        let (rows, ledger) =
            run_ablation(&SystemConfig::default(), &AtomRegistry::new(), &trace, 2).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(ledger.tasks, 4, "one task per rung");
        assert!((rows[0].speedup - 1.0).abs() < 1e-12);
        assert_eq!(rows[0].principles.count(), 0);
        assert_eq!(rows[3].principles.count(), 3);
        // The full system should not be slower than the baseline.
        assert!(
            rows[3].speedup >= 0.95,
            "full system speedup {}",
            rows[3].speedup
        );
    }

    #[test]
    fn ablation_rejects_empty_trace() {
        assert!(run_ablation(&SystemConfig::default(), &AtomRegistry::new(), &[], 1).is_err());
    }
}
