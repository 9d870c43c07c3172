//! `ia-lint` CLI: the workspace determinism & invariant gate.
//!
//! ```text
//! cargo run -q -p ia-lint -- --check            # CI gate (text output)
//! cargo run -q -p ia-lint -- --json             # machine-readable output
//! cargo run -q -p ia-lint -- --list             # print the lint catalog
//! ```
//!
//! Exit codes: `0` clean, `1` any finding (accept one only with an
//! in-place `// lint: allow(ID, reason)` waiver), `2` usage or I/O error.

#![forbid(unsafe_code)]

use ia_lint::{analyze, CATALOG};
use std::path::PathBuf;

struct Options {
    root: PathBuf,
    json: bool,
    list: bool,
}

fn usage() -> &'static str {
    "usage: ia-lint [--check] [--json] [--list] [--root <dir>]"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        json: false,
        list: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--check" => {}
            "--json" => opts.json = true,
            "--list" => opts.list = true,
            "--root" => {
                i += 1;
                let dir = args.get(i).ok_or("--root expects a directory")?;
                opts.root = PathBuf::from(dir);
            }
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
        i += 1;
    }
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    std::process::exit(run(&opts));
}

fn run(opts: &Options) -> i32 {
    if opts.list {
        for l in CATALOG {
            println!("{}  {:32} {}", l.id, l.name, normalize_ws(l.summary));
        }
        return 0;
    }
    if !opts.root.join("crates").is_dir() {
        eprintln!(
            "error: `{}` does not look like the workspace root (no crates/ directory); \
             pass --root",
            opts.root.display()
        );
        return 2;
    }
    let analysis = match analyze(&opts.root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: scanning workspace: {e}");
            return 2;
        }
    };
    let render = if opts.json {
        ia_lint::output::json
    } else {
        ia_lint::output::text
    };
    print!("{}", render(&analysis.findings, analysis.files_scanned));
    i32::from(!analysis.findings.is_empty())
}

/// Collapses the multi-line catalog summaries for one-line `--list` rows.
fn normalize_ws(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}
