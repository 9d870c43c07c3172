//! Property-based tests for the processing-near-memory models.

use ia_pnm::{
    concurrent_traversals, host_pagerank_ns, traverse_host, traverse_pnm, LinkedChain,
    PnmGraphEngine, StackConfig,
};
use ia_workloads::Graph;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Near-memory PageRank is bit-identical to the host reference on any
    /// random graph and vault count.
    #[test]
    fn pagerank_is_location_independent(seed in any::<u64>(), vaults in 1usize..32) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = Graph::uniform_random(128, 512, &mut rng).unwrap();
        let stack = StackConfig::hmc_like().with_vaults(vaults).unwrap();
        let engine = PnmGraphEngine::new(stack, &g).unwrap();
        let (ranks, report) = engine.pagerank(0.85, 8);
        prop_assert_eq!(ranks, g.pagerank(0.85, 8));
        prop_assert!(report.total_ns > 0.0);
        prop_assert!((0.0..=1.0).contains(&report.remote_edge_fraction));
        if vaults == 1 {
            prop_assert_eq!(report.remote_edge_fraction, 0.0);
        }
    }

    /// More vaults never slows the engine down (bulk-synchronous, load
    /// balanced by LPT).
    #[test]
    fn vault_scaling_is_monotone(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = Graph::rmat(512, 4096, &mut rng).unwrap();
        let mut last = f64::INFINITY;
        for vaults in [1usize, 2, 4, 8, 16] {
            let stack = StackConfig::hmc_like().with_vaults(vaults).unwrap();
            let (_, report) = PnmGraphEngine::new(stack, &g).unwrap().pagerank(0.85, 4);
            prop_assert!(
                report.total_ns <= last * 1.05,
                "{vaults} vaults: {} vs previous {last}",
                report.total_ns
            );
            last = report.total_ns;
        }
    }

    /// Pointer traversal: host and in-memory walkers always agree, the
    /// in-memory walker is never slower, and hop counts are exact.
    #[test]
    fn traversal_agreement(seed in any::<u64>(), start in 0u32..512, hops in 1u64..5000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let chain = LinkedChain::random_cycle(512, &mut rng).unwrap();
        let stack = StackConfig::hmc_like();
        let h = traverse_host(&chain, &stack, start, hops);
        let p = traverse_pnm(&chain, &stack, start, hops);
        prop_assert_eq!(h.end, p.end);
        prop_assert_eq!(h.hops, hops);
        prop_assert!(p.ns <= h.ns + stack.external_latency_ns);
    }

    /// Concurrent traversal times are monotone in streams and hops.
    #[test]
    fn concurrency_model_is_monotone(streams in 1u64..128, hops in 1u64..10_000) {
        let stack = StackConfig::hmc_like();
        let (h1, p1) = concurrent_traversals(&stack, streams, hops);
        let (h2, p2) = concurrent_traversals(&stack, streams + 1, hops);
        prop_assert!(h2 >= h1 * 0.99);
        prop_assert!(p2 >= p1 * 0.99);
        prop_assert!(h1 > 0.0 && p1 > 0.0);
    }

    /// Host PageRank time grows with iterations and edge count.
    #[test]
    fn host_model_is_monotone(seed in any::<u64>(), iters in 1usize..20) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = Graph::uniform_random(64, 256, &mut rng).unwrap();
        let stack = StackConfig::hmc_like();
        let a = host_pagerank_ns(&stack, &g, iters);
        let b = host_pagerank_ns(&stack, &g, iters + 1);
        prop_assert!(b > a);
    }
}
