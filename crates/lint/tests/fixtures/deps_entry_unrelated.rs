// path: crates/bench/src/exp93_fake.rs
// A bare call to `helper`: `bench` defines one (deps_bench_local.rs)
// and the unrelated crate `other` defines another that panics
// (deps_other.rs). `bench` does not depend on `other`, so no edge may
// reach it.
pub fn report(quick: bool) -> u32 {
    helper(quick)
}
