// path: crates/bench/src/bin/exp99_fake.rs
// OK: the binary routes through the shared CLI.
fn main() {
    ia_bench::report::cli(ia_bench::exp99_fake::report);
}
