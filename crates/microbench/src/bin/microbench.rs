//! CLI for the `ia-microbench` harness.
//!
//! ```text
//! microbench [--iters N] [--k N] [--json PATH]
//! ```
//!
//! Prints the median-of-k ns/op table to stdout; `--json` additionally
//! writes the byte-stable `BENCH_MICRO.json` document (deterministic
//! fields only — no wall-clock numbers). Every bench is single-threaded
//! by design. `--iters 1` is the CI smoke setting.

fn main() {
    let mut iters: u64 = 4_096;
    let mut k: usize = 5;
    let mut json: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {flag} expects a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--iters" => {
                let v = value("--iters");
                iters = v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
                    eprintln!("error: --iters expects a positive integer, got `{v}`");
                    std::process::exit(2);
                });
            }
            "--k" => {
                let v = value("--k");
                k = v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
                    eprintln!("error: --k expects a positive integer, got `{v}`");
                    std::process::exit(2);
                });
            }
            "--json" => json = Some(value("--json")),
            "--help" | "-h" => {
                println!("usage: microbench [--iters N] [--k N] [--json PATH]");
                return;
            }
            other => {
                eprintln!("error: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }

    let results = ia_microbench::run_all(iters, k);
    print!("{}", ia_microbench::to_table(&results));
    if let Some(path) = json {
        if let Err(e) = std::fs::write(&path, ia_microbench::to_json(&results)) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
}
