// lint: allow(S002, the fuzz harness is a standalone robustness tool with its own CLI contract — cases/seed/repro-dir — not an experiment report)
//! `fuzz_stack` — full-stack fault-plan fuzzing with invariant oracles.
//!
//! Random workload traces are replayed under randomized fault plans
//! across all 7 schedulers × the 3-rung mitigation ladder, asserting
//! the four invariant oracles (no silent corruption under the full
//! ladder, no watchdog stall, request conservation, byte-identical
//! re-replay). The first violation is minimized to a repro trace and
//! reported with its seed tuple. Exit codes: 0 all green, 1 violation
//! found, 2 usage or harness error.

use std::path::PathBuf;
use std::process::ExitCode;

use ia_bench::fuzz::{run_fuzz, FuzzOptions};

const USAGE: &str = "usage: fuzz_stack [--cases <n>] [--seed <n|0xHEX>] \
                     [--repro-dir <dir>] [--inject-violation]";

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse(args: &[String]) -> Result<FuzzOptions, String> {
    let mut opts = FuzzOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cases" => {
                let v = it.next().ok_or("--cases expects a value")?;
                opts.cases = v
                    .parse::<u32>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("--cases expects a positive integer, got `{v}`"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed expects a value")?;
                opts.seed = parse_u64(v).ok_or_else(|| {
                    format!("--seed expects an integer (decimal or 0x hex), got `{v}`")
                })?;
            }
            "--repro-dir" => {
                let v = it.next().ok_or("--repro-dir expects a value")?;
                opts.repro_dir = PathBuf::from(v);
            }
            "--inject-violation" => opts.inject_violation = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run_fuzz(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match outcome.violation {
        None => {
            println!(
                "fuzz_stack: {} cases across 7 schedulers x 3 mitigation rungs, \
                 all 4 oracles green (seed {:#x})",
                outcome.cases_run, opts.seed
            );
            ExitCode::SUCCESS
        }
        Some(v) => {
            println!("fuzz_stack: VIOLATION — oracle `{}` failed", v.oracle);
            println!("  {}", v.detail);
            println!(
                "  case {}: scheduler={} mitigation={} master_seed={:#x} fault_seed={:#x}",
                v.case_idx, v.scheduler, v.mitigation, opts.seed, v.fault_seed
            );
            println!(
                "  minimized {} -> {} request(s); repro written to {}",
                v.original_requests,
                v.minimized_requests,
                v.repro_path.display()
            );
            println!(
                "  reproduce: fuzz_stack --seed {:#x} --cases {}{}",
                opts.seed,
                v.case_idx + 1,
                if opts.inject_violation {
                    " --inject-violation"
                } else {
                    ""
                }
            );
            ExitCode::from(1)
        }
    }
}
