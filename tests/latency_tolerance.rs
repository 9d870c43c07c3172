//! Cross-crate integration: the paper's latency-tolerance story end to
//! end — runahead helps exactly where prefetchers help (independent
//! misses), and the near-memory walkers take over exactly where both
//! fail (dependent chains).

use intelligent_arch::dram::{serve_stream, BankOrganization, DramConfig, SalpBank};
use intelligent_arch::memctrl::{standard_points, MemScaleGovernor};
use intelligent_arch::pnm::{traverse_host, traverse_pnm, LinkedChain, StackConfig};
use intelligent_arch::prefetch::runahead::{build_trace, execute, CoreModel};
use intelligent_arch::prefetch::{PrefetchHarness, StridePrefetcher};
use rand::SeedableRng;

#[test]
fn the_latency_tolerance_handoff() {
    // 1. Streaming misses: a prefetcher covers them.
    let mut h = PrefetchHarness::new(32 * 1024, 64, 8, Box::new(StridePrefetcher::new(4)))
        .expect("valid harness");
    for i in 0..5000u64 {
        h.demand(i * 64);
    }
    assert!(
        h.metrics().coverage() > 0.9,
        "streams belong to the prefetcher"
    );

    // 2. Independent random misses: runahead overlaps them.
    let independent = build_trace(1000, 5, 0);
    let stall = execute(
        &independent,
        CoreModel {
            miss_latency: 200,
            runahead_window: 0,
        },
    );
    let runahead = execute(
        &independent,
        CoreModel {
            miss_latency: 200,
            runahead_window: 64,
        },
    );
    assert!(
        stall as f64 / runahead as f64 > 4.0,
        "independent misses belong to runahead"
    );

    // 3. Dependent chains: both core-side techniques fail...
    let dependent = build_trace(1000, 5, 1000);
    let stall_dep = execute(
        &dependent,
        CoreModel {
            miss_latency: 200,
            runahead_window: 0,
        },
    );
    let runahead_dep = execute(
        &dependent,
        CoreModel {
            miss_latency: 200,
            runahead_window: 64,
        },
    );
    assert_eq!(
        stall_dep, runahead_dep,
        "runahead cannot touch dependent chains"
    );

    // ...and the near-memory walker picks them up.
    let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
    let chain = LinkedChain::random_cycle(4096, &mut rng).expect("valid chain");
    let stack = StackConfig::hmc_like();
    let host = traverse_host(&chain, &stack, 0, 10_000);
    let pnm = traverse_pnm(&chain, &stack, 0, 10_000);
    assert!(
        host.ns / pnm.ns > 2.0,
        "dependent chains belong to the memory-side walker"
    );
}

#[test]
fn salp_and_memscale_compose_in_the_same_story() {
    // SALP removes conflict serialization inside a bank...
    let timing = DramConfig::ddr3_1600().timing;
    let stream: Vec<u64> = (0..2000)
        .map(|i| if i % 2 == 0 { 0 } else { 512 })
        .collect();
    let mut conv = SalpBank::new(BankOrganization::Conventional, timing, 8, 512);
    let mut salp = SalpBank::new(BankOrganization::Salp, timing, 8, 512);
    let conv_cy = serve_stream(&mut conv, &stream);
    let salp_cy = serve_stream(&mut salp, &stream);
    assert!(salp_cy < conv_cy);

    // ...and the freed bandwidth headroom is exactly what MemScale can
    // convert into energy savings on low-demand epochs.
    let mut governor = MemScaleGovernor::new(standard_points().to_vec(), 0.10).expect("valid");
    let low_demand: Vec<f64> = vec![0.1; 50];
    let outcome = governor.run(&low_demand).expect("runs");
    assert!(outcome.energy < 0.6);
    assert!(outcome.slowdown <= 1.10 + 1e-9);
}
