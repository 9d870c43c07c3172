// path: crates/util/src/fake_pick.rs
pub fn pick(quick: bool) -> u32 {
    Some(u32::from(quick)).unwrap()
}
