//! `ia-bench`: the one entry binary of the experiment harness.
//!
//! ```text
//! ia-bench <experiment> [flags]
//! ia-bench suite [--quick] [--threads <n>] --json-dir <dir>
//! ia-bench fuzz [--cases <n>] [--seed <n|0xHEX>] [--repro-dir <dir>] [--inject-violation]
//! ```
//!
//! `<experiment>` is a name in `ia_bench::EXPERIMENTS`; every flag is
//! documented once, in `ia_bench::report`. A missing or unknown command
//! exits `2` and lists every command on stderr, so a typo never runs a
//! default experiment.

#![forbid(unsafe_code)]

use ia_bench::{report, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, flags)) = args.split_first() else {
        usage_error("no command given")
    };
    match command.as_str() {
        "suite" => report::suite(flags),
        "fuzz" => report::fuzz(flags),
        name => match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
            Some(&(name, run)) => report::cli(name, run, flags),
            None => usage_error(&format!("unknown command `{name}`")),
        },
    }
}

/// Prints `error: <problem>` and every command to stderr, then exits `2`.
fn usage_error(problem: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    eprintln!("error: {problem}");
    eprintln!(
        "usage: ia-bench <command> [flags], where <command> is suite, fuzz or an experiment:\n  {}",
        names.join("\n  ")
    );
    std::process::exit(2);
}
