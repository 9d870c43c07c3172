// path: crates/bench/src/fake_helpers.rs
pub fn helper(quick: bool) -> u32 {
    u32::from(quick)
}
