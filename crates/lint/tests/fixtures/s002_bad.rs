// path: crates/bench/src/bin/exp99_fake.rs
// S002: experiment binary with its own ad-hoc CLI.
fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--quick") {
        ia_bench::exp99_fake::report(true);
    }
}
