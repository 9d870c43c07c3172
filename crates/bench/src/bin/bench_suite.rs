// lint: allow(S002, suite runner drives every report() in-process; the per-binary cli wrapper does not apply)
//! All-experiments suite runner for the benchmark snapshot pipeline.
//!
//! Runs every experiment's report ([`ia_bench::EXPERIMENTS`]) in a
//! single process and writes each one to `<json-dir>/<bin-name>.json` —
//! the same bytes the standalone `exp*` binaries write with `--json`,
//! because the JSON carries only the deterministic report (caption and
//! runtime diagnostics are excluded by construction). An experiment that
//! fails prints `error: <name>: <cause>` and exits 1. One process
//! instead of twenty-four matters on the snapshot path: fork+exec costs
//! a couple of milliseconds per binary on a loaded host, which used to
//! charge the suite wall ~50 ms of pure process churn.
//!
//! Per-experiment wall times are printed to stdout as `<bin-name> <ms>`
//! lines for `scripts/bench_snapshot.sh` to fold into `BENCH_WALL.json`;
//! measuring inside the process keeps the per-bin rows free of fork
//! noise too.
//!
//! ```text
//! bench_suite [--quick] [--threads N] --json-dir DIR
//! ```

use ia_bench::report::attach_par_diagnostics;

fn main() {
    let mut quick = false;
    let mut json_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {flag} expects a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--quick" => quick = true,
            "--threads" => {
                let v = value("--threads");
                let n = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("error: --threads expects a positive integer, got `{v}`");
                        std::process::exit(2);
                    });
                ia_par::set_threads(n);
            }
            "--json-dir" => json_dir = Some(value("--json-dir")),
            "--help" | "-h" => {
                println!("usage: bench_suite [--quick] [--threads N] --json-dir DIR");
                return;
            }
            other => {
                eprintln!("error: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    let Some(dir) = json_dir else {
        eprintln!("error: --json-dir is required");
        std::process::exit(2);
    };

    for (name, report) in ia_bench::EXPERIMENTS {
        // Drain the ia-par ledger per experiment, exactly as each
        // standalone binary's entry point does, so the (JSON-excluded)
        // runtime diagnostics stay per-experiment.
        let _ = ia_par::ledger::take();
        // lint: allow(D002, per-bin wall rows are host diagnostics on stdout; the report JSON carries no timing)
        let start = std::time::Instant::now();
        let rep = attach_par_diagnostics(report(quick).unwrap_or_else(|e| {
            eprintln!("error: {name}: {e}");
            std::process::exit(1);
        }));
        let mut text = rep.to_json().render();
        text.push('\n');
        let path = format!("{dir}/{name}.json");
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(2);
        }
        println!("{name} {}", start.elapsed().as_millis());
    }
}
