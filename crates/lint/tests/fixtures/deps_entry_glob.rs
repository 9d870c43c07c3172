// path: crates/bench/src/exp95_fake.rs
// The same as deps_entry_use.rs through a glob `use`.
use ia_util::fake_pick::*;

pub fn report(quick: bool) -> u32 {
    pick(quick)
}
