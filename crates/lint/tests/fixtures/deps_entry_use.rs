// path: crates/bench/src/exp94_fake.rs
// `pick` comes from the dependency `util` through a `use`: the bare
// call must reach it.
use ia_util::fake_pick::pick;

pub fn report(quick: bool) -> u32 {
    pick(quick)
}
