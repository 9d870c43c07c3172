// path: crates/other/src/fake_helpers.rs
pub fn helper(quick: bool) -> u32 {
    Some(u32::from(quick)).unwrap()
}
