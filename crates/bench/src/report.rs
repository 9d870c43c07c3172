//! Machine-readable experiment reports and the shared CLI runner.
//!
//! Every experiment module exposes one entry point,
//! `report(quick, &RunCtx) -> Result<ExperimentReport, Error>`: the
//! run's params, metrics and result table, plus a human caption.
//!
//! ## Command-line flags
//!
//! This is the one place the flags are documented. One binary,
//! `ia-bench`, takes three kinds of command, and one parser reads the
//! flags of all three:
//!
//! ```text
//! ia-bench <experiment> [flags]
//! ia-bench suite [--quick] [--threads <n>] --json-dir <dir>
//! ia-bench fuzz [--cases <n>] [--seed <n|0xHEX>] [--repro-dir <dir>] [--inject-violation]
//! ```
//!
//! `<experiment>` is a name in [`EXPERIMENTS`](crate::EXPERIMENTS).
//! [`cli`] builds one [`RunCtx`] from the flags, prints
//! [`ExperimentReport::to_text`] and understands:
//!
//! * `--quick` — run the reduced-size configuration;
//! * `--threads <n>` — worker count for parallel sweeps (`ia-par`);
//!   `1` is the exact serial path, the default is the host's available
//!   parallelism;
//! * `--json <path>` — write the report as JSON;
//! * `--csv <path>` — write the report's table as CSV;
//! * `--trace <path>` — write an `ia-trace` Chrome trace-event JSON
//!   file of the run (cycle-exact, byte-identical across `--threads`);
//!   only exp05, exp18 and exp24 record trace events, and on any other
//!   experiment the flag is a usage error;
//! * `--profile` — print the cycle-attribution profile and its
//!   `[trace] trace.profile.*` summary lines to stderr;
//! * `--record-trace <path>` — record the run's generated workloads as
//!   an `ia-tracefmt` artifact (see `crates/tracefmt/FORMAT.md`);
//! * `--replay-trace <path>` — drive the run from a recorded artifact
//!   instead of generating workloads (mutually exclusive with
//!   `--record-trace`). A failure in a replayed run names the artifact.
//!
//! Only experiments that generate memory-request workloads (exp04,
//! exp05, exp13, exp24) can record or replay; on any other experiment
//! either flag is a usage error. Unknown flags, flags missing their
//! value, a non-positive `--threads`, an unreadable replay artifact,
//! `--trace` on an experiment that records no trace events and an
//! unwritable output path all exit with status `2` and a message on
//! stderr, so sweep scripts fail loudly instead of silently running a
//! default configuration. A failing experiment exits `1` after
//! `error: <experiment>: <cause>`, followed by ` [trace: <path>]` when
//! the run replayed an artifact.
//!
//! [`suite`] runs all 24 reports in one process, each on a fresh
//! [`RunCtx`] built from the same `--quick`/`--threads` flags, and
//! writes `<dir>/<experiment>.json` for each (`--help` prints its usage).
//! [`fuzz`] runs the full-stack fault-plan fuzzer (see [`crate::fuzz`])
//! and exits `1` on a violation, citing the failing case's fault seed.
//! Both share the experiment commands' exit codes for usage errors.
//!
//! Reports round-trip through `ia-telemetry`'s own JSON parser — see
//! [`ExperimentReport::from_json`] — so downstream tooling can consume
//! `BENCH_PR.json` without serde (the build is offline by design).
//!
//! ## Determinism vs. observability
//!
//! Everything in the canonical report (params, metrics, table) must be
//! byte-identical across `--threads` settings. Wall-clock-derived
//! numbers — `par_threads`, `par_tasks`, `par_imbalance` — therefore
//! live in a separate [`runtime`](ExperimentReport::runtime) section
//! that is *excluded* from the JSON/CSV emitters and printed to stderr
//! instead. The report's `caption` is text for people and stays out of
//! JSON/CSV too.

use ia_telemetry::{csv, JsonValue};

use crate::fuzz::FuzzOptions;
use crate::RunCtx;

/// The error an experiment's report returns: whatever failed in the
/// crates it drives, boxed.
pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// One experiment's single entry point, parameterized by `--quick` and
/// the run's context.
pub type ReportFn = fn(bool, &RunCtx) -> Result<ExperimentReport, Error>;

/// A structured record of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Experiment name (the module name, e.g. `exp02_rowclone`).
    pub name: String,
    /// Run parameters as key/value strings (`quick`, sizes, seeds…).
    pub params: Vec<(String, String)>,
    /// Headline scalar metrics (speedups, rates, energies).
    pub metrics: Vec<(String, f64)>,
    /// Column headers of the result table (may be empty).
    pub headers: Vec<String>,
    /// Result-table rows, one `Vec` of cells per row.
    pub rows: Vec<Vec<String>>,
    /// Human caption printed above the table: the paper claim, the
    /// headline line, and any side table. Excluded from JSON/CSV.
    pub caption: String,
    /// Runtime-only diagnostics (`par_threads`, `par_imbalance`, …):
    /// wall-clock derived and nondeterministic, so excluded from
    /// [`to_json`](ExperimentReport::to_json) /
    /// [`to_csv`](ExperimentReport::to_csv) and reported on stderr.
    pub runtime: Vec<(String, f64)>,
}

impl ExperimentReport {
    /// Starts a report for `name`; records `quick` as the first param.
    #[must_use]
    pub fn new(name: &str, quick: bool) -> Self {
        ExperimentReport {
            name: name.to_owned(),
            params: vec![("quick".to_owned(), quick.to_string())],
            metrics: Vec::new(),
            headers: Vec::new(),
            rows: Vec::new(),
            caption: String::new(),
            runtime: Vec::new(),
        }
    }

    /// Sets the human caption (chainable).
    #[must_use]
    pub fn caption(mut self, text: impl Into<String>) -> Self {
        self.caption = text.into();
        self
    }

    /// Adds a run parameter (chainable).
    #[must_use]
    pub fn param(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.params.push((key.to_owned(), value.to_string()));
        self
    }

    /// Adds a headline metric (chainable).
    #[must_use]
    pub fn metric(mut self, key: &str, value: f64) -> Self {
        self.metrics.push((key.to_owned(), value));
        self
    }

    /// Adds a runtime-only diagnostic (chainable). Unlike
    /// [`metric`](ExperimentReport::metric), the value never enters the
    /// JSON/CSV output: it is timing-derived and would break the
    /// byte-identity of reports across `--threads` settings.
    #[must_use]
    pub fn runtime_metric(mut self, key: &str, value: f64) -> Self {
        self.runtime.push((key.to_owned(), value));
        self
    }

    /// Sets the result-table headers (chainable).
    #[must_use]
    pub fn columns(mut self, headers: &[&str]) -> Self {
        self.headers = headers.iter().map(|h| (*h).to_owned()).collect();
        self
    }

    /// Appends a result-table row (chainable).
    #[must_use]
    pub fn row(mut self, cells: &[String]) -> Self {
        self.rows.push(cells.to_vec());
        self
    }

    /// Looks up a headline metric by name.
    #[must_use]
    pub fn metric_value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Renders the report as a JSON value.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let params = self
            .params
            .iter()
            .map(|(k, v)| (k.clone(), JsonValue::Str(v.clone())))
            .collect();
        let metrics = self
            .metrics
            .iter()
            .map(|(k, v)| (k.clone(), JsonValue::Num(*v)))
            .collect();
        let headers = self
            .headers
            .iter()
            .map(|h| JsonValue::Str(h.clone()))
            .collect();
        let rows = self
            .rows
            .iter()
            .map(|r| JsonValue::Arr(r.iter().map(|c| JsonValue::Str(c.clone())).collect()))
            .collect();
        JsonValue::obj(vec![
            ("name", JsonValue::Str(self.name.clone())),
            ("params", JsonValue::Obj(params)),
            ("metrics", JsonValue::Obj(metrics)),
            ("headers", JsonValue::Arr(headers)),
            ("rows", JsonValue::Arr(rows)),
        ])
    }

    /// Reconstructs a report from the JSON emitted by
    /// [`to_json`](ExperimentReport::to_json).
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(v: &JsonValue) -> Result<Self, String> {
        let name = match v.get("name") {
            Some(JsonValue::Str(s)) => s.clone(),
            _ => return Err("missing string field `name`".to_owned()),
        };
        let params = match v.get("params") {
            Some(JsonValue::Obj(entries)) => entries
                .iter()
                .map(|(k, v)| match v {
                    JsonValue::Str(s) => Ok((k.clone(), s.clone())),
                    _ => Err(format!("param `{k}` is not a string")),
                })
                .collect::<Result<_, _>>()?,
            _ => return Err("missing object field `params`".to_owned()),
        };
        let metrics = match v.get("metrics") {
            Some(JsonValue::Obj(entries)) => entries
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| format!("metric `{k}` is not a number"))
                })
                .collect::<Result<_, _>>()?,
            _ => return Err("missing object field `metrics`".to_owned()),
        };
        let headers = match v.get("headers") {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(|h| match h {
                    JsonValue::Str(s) => Ok(s.clone()),
                    _ => Err("non-string header".to_owned()),
                })
                .collect::<Result<_, _>>()?,
            _ => return Err("missing array field `headers`".to_owned()),
        };
        let rows = match v.get("rows") {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(|r| match r {
                    JsonValue::Arr(cells) => cells
                        .iter()
                        .map(|c| match c {
                            JsonValue::Str(s) => Ok(s.clone()),
                            _ => Err("non-string cell".to_owned()),
                        })
                        .collect::<Result<Vec<_>, _>>(),
                    _ => Err("non-array row".to_owned()),
                })
                .collect::<Result<_, _>>()?,
            _ => return Err("missing array field `rows`".to_owned()),
        };
        Ok(ExperimentReport {
            name,
            params,
            metrics,
            headers,
            rows,
            // Caption and runtime diagnostics are never serialized, so a
            // parsed report always comes back without them.
            caption: String::new(),
            runtime: Vec::new(),
        })
    }

    /// Renders the report for people: the caption, then the result
    /// table.
    #[must_use]
    pub fn to_text(&self) -> String {
        let headers: Vec<&str> = self.headers.iter().map(String::as_str).collect();
        let mut table = ia_core::Table::new(&headers);
        for row in &self.rows {
            table.row(row);
        }
        format!("{}\n{table}\n", self.caption)
    }

    /// Renders the report's result table as CSV.
    #[must_use]
    pub fn to_csv(&self) -> String {
        csv::render(&self.headers, &self.rows)
    }
}

/// The three kinds of `ia-bench` command. Each accepts its own
/// [flags](Command::flags), and all three parse into one [`CliOptions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    /// `ia-bench <experiment>`: one report, through [`cli`].
    Experiment,
    /// `ia-bench suite`: every report in one process, through [`suite`].
    Suite,
    /// `ia-bench fuzz`: the full-stack fuzzer, through [`fuzz`].
    Fuzz,
}

impl Command {
    /// The flags this command accepts, each followed by its value's
    /// placeholder if it takes one, in the order a usage error lists
    /// them.
    fn flags(self) -> &'static [&'static str] {
        match self {
            Command::Experiment => &[
                "--quick",
                "--threads <n>",
                "--json <path>",
                "--csv <path>",
                "--trace <path>",
                "--record-trace <path>",
                "--replay-trace <path>",
                "--profile",
            ],
            Command::Suite => &[
                "--quick",
                "--threads <n>",
                "--json-dir <dir>",
                "--help",
                "-h",
            ],
            Command::Fuzz => &[
                "--cases <n>",
                "--seed <n|0xHEX>",
                "--repro-dir <dir>",
                "--inject-violation",
            ],
        }
    }
}

/// One parsed command line. Every command parses into this one set;
/// each reads only the fields its own flags set.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct CliOptions {
    quick: bool,
    threads: Option<usize>,
    json: Option<String>,
    csv: Option<String>,
    trace: Option<String>,
    record_trace: Option<String>,
    replay_trace: Option<String>,
    profile: bool,
    json_dir: Option<String>,
    help: bool,
    fuzz: FuzzOptions,
}

/// Strictly parses `args`, the arguments after the command name, against
/// `cmd`'s flags. Every flag must be one of them and every value-taking
/// flag must have a valid value — anything else is an error, so a typo
/// can't silently run a default configuration. A help flag ends the
/// parse.
fn parse(cmd: Command, args: &[String]) -> Result<CliOptions, String> {
    let mut opts = CliOptions::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(spec) = cmd
            .flags()
            .iter()
            .find(|spec| spec.split(' ').next() == Some(arg))
        else {
            let expected = cmd.flags().join(", ");
            return Err(format!("unknown flag `{arg}` (expected {expected})"));
        };
        let (flag, value) = match spec.split_once(' ') {
            Some((flag, _)) => {
                let value = args
                    .next()
                    .ok_or_else(|| format!("{flag} expects a value"))?;
                (flag, value.as_str())
            }
            None => (*spec, ""),
        };
        match flag {
            "--quick" => opts.quick = true,
            "--profile" => opts.profile = true,
            "--threads" => opts.threads = Some(positive(flag, value)?),
            "--json" => opts.json = Some(value.to_owned()),
            "--csv" => opts.csv = Some(value.to_owned()),
            "--trace" => opts.trace = Some(value.to_owned()),
            "--record-trace" => opts.record_trace = Some(value.to_owned()),
            "--replay-trace" => opts.replay_trace = Some(value.to_owned()),
            "--json-dir" => opts.json_dir = Some(value.to_owned()),
            "--help" | "-h" => {
                opts.help = true;
                return Ok(opts);
            }
            "--cases" => opts.fuzz.cases = positive(flag, value)?,
            "--seed" => {
                opts.fuzz.seed = parse_seed(value).ok_or_else(|| {
                    format!("--seed expects an integer (decimal or 0x hex), got `{value}`")
                })?;
            }
            "--repro-dir" => opts.fuzz.repro_dir = value.into(),
            "--inject-violation" => opts.fuzz.inject_violation = true,
            other => return Err(format!("flag `{other}` has no parser")),
        }
    }
    if opts.record_trace.is_some() && opts.replay_trace.is_some() {
        return Err(
            "--record-trace and --replay-trace are mutually exclusive (a run either \
             produces the artifact or consumes it)"
                .to_owned(),
        );
    }
    Ok(opts)
}

/// Parses `flag`'s `value` as a positive integer.
fn positive<T: std::str::FromStr + Default + PartialOrd>(
    flag: &str,
    value: &str,
) -> Result<T, String> {
    value
        .parse::<T>()
        .ok()
        .filter(|n| *n > T::default())
        .ok_or_else(|| format!("{flag} expects a positive integer, got `{value}`"))
}

/// Parses a seed written in decimal or as `0x` hex.
fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

impl CliOptions {
    /// The run context these options ask for: `--threads` workers (the
    /// host's parallelism by default), trace capture for `--trace` or
    /// `--profile`, and workload replay or recording.
    ///
    /// # Errors
    ///
    /// The `--replay-trace` artifact cannot be read or decoded.
    fn run_ctx(&self) -> Result<RunCtx, String> {
        let threads = self.threads.unwrap_or_else(crate::ctx::host_threads);
        let mut ctx = RunCtx::new(threads);
        if self.trace.is_some() || self.profile {
            ctx = ctx.with_trace();
        }
        if let Some(path) = &self.replay_trace {
            let artifact = ia_tracefmt::TraceReader::from_path(path)
                .map_err(|e| format!("loading replay trace {path}: {e}"))?;
            ctx = ctx.replaying(&artifact);
        }
        if self.record_trace.is_some() {
            ctx = ctx.recording();
        }
        Ok(ctx)
    }
}

/// Prints `error: <msg>` to stderr and exits with `code`: `2` for a
/// usage or output error, `1` for a failed run.
fn exit_with(code: i32, msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(code);
}

/// `ia-bench <name> [flags]`: builds the run's [`RunCtx`] from the flags
/// (see the module docs), runs experiment `name`'s `report` once, prints
/// its [text](ExperimentReport::to_text), writes the requested artifacts,
/// and prints the run's parallel-execution diagnostics to stderr.
///
/// # Exits
///
/// With status `2` on a usage error or an unwritable output, and with
/// status `1` after `error: <name>: <cause>` if the experiment fails; a
/// replayed run's cause names the artifact.
pub fn cli(name: &str, report: ReportFn, args: &[String]) {
    let opts = parse(Command::Experiment, args).unwrap_or_else(|msg| exit_with(2, &msg));
    let ctx = opts.run_ctx().unwrap_or_else(|msg| exit_with(2, &msg));
    let rep = report(opts.quick, &ctx).unwrap_or_else(|e| {
        let trace = opts.replay_trace.as_ref();
        let cite = trace.map_or_else(String::new, |path| format!(" [trace: {path}]"));
        exit_with(1, &format!("{name}: {e}{cite}"))
    });
    for (flag, path) in [
        ("--record-trace", &opts.record_trace),
        ("--replay-trace", &opts.replay_trace),
    ] {
        if path.is_some() && ctx.intercepted() == 0 {
            exit_with(
                2,
                &format!("{flag}: {name} generates no memory-request workload to record or replay"),
            );
        }
    }
    let log = ctx.tracing().then(|| ctx.take_trace());
    if opts.trace.is_some() && log.as_ref().is_none_or(ia_trace::TraceLog::is_empty) {
        exit_with(2, &format!("--trace: {name} records no trace events"));
    }
    if let Some(path) = &opts.record_trace {
        write_or_exit(path, ctx.recorded_artifact());
    }
    if let Some(log) = &log {
        if let Some(path) = &opts.trace {
            write_or_exit(path, ia_trace::chrome::render_chrome(log));
        }
        if opts.profile {
            eprint!("{}", profile_text(log));
        }
    }
    let rep = attach_par_diagnostics(rep, &ctx);
    print!("{}", rep.to_text());
    eprintln!("{}", par_diagnostics_from(&rep));
    if let Some(path) = &opts.json {
        write_or_exit(path, json_file(&rep));
    }
    if let Some(path) = &opts.csv {
        write_or_exit(path, rep.to_csv());
    }
}

/// `ia-bench suite [flags]`: runs every report in
/// [`EXPERIMENTS`](crate::EXPERIMENTS) order in this one process, each on
/// a fresh [`RunCtx`], and writes each to `<json-dir>/<name>.json` — the
/// bytes `ia-bench <name> --json` writes, since the JSON carries only the
/// deterministic report. After each experiment it prints a `<name> <µs>`
/// wall line to stdout, in whole microseconds (whole milliseconds would
/// read `0` for the fastest experiments), timed in-process so the row is
/// free of fork noise.
///
/// # Exits
///
/// With status `2` on a usage error, a missing `--json-dir` or an
/// unwritable report file, and with status `1` after
/// `error: <name>: <cause>` if an experiment fails.
pub fn suite(args: &[String]) {
    let opts = parse(Command::Suite, args).unwrap_or_else(|msg| exit_with(2, &msg));
    if opts.help {
        println!("usage: ia-bench suite [--quick] [--threads <n>] --json-dir <dir>");
        return;
    }
    let Some(dir) = &opts.json_dir else {
        exit_with(2, "--json-dir is required")
    };
    for (name, report) in crate::EXPERIMENTS {
        // lint: allow(D002, per-experiment wall rows are host diagnostics on stdout; the report JSON carries no timing)
        let start = std::time::Instant::now();
        let ctx = opts.run_ctx().unwrap_or_else(|msg| exit_with(2, &msg));
        let rep =
            report(opts.quick, &ctx).unwrap_or_else(|e| exit_with(1, &format!("{name}: {e}")));
        write_or_exit(&format!("{dir}/{name}.json"), json_file(&rep));
        println!("{name} {}", start.elapsed().as_micros());
    }
}

/// `ia-bench fuzz [flags]`: runs the full-stack fault-plan fuzzer (see
/// [`crate::fuzz`]) and prints its verdict: one green line, or the first
/// violation with its seed tuple, its minimized repro artifact and the
/// command that reproduces it.
///
/// # Exits
///
/// With status `1` when an oracle fails, and with status `2` on a usage
/// or harness error.
pub fn fuzz(args: &[String]) {
    let opts = parse(Command::Fuzz, args)
        .unwrap_or_else(|msg| exit_with(2, &msg))
        .fuzz;
    let outcome = crate::fuzz::run_fuzz(&opts).unwrap_or_else(|e| exit_with(2, &e));
    let Some(v) = outcome.violation else {
        println!(
            "fuzz_stack: {} cases across 7 schedulers x 3 mitigation rungs, \
             all 4 oracles green (seed {:#x})",
            outcome.cases_run, opts.seed
        );
        return;
    };
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
        "  reproduce: ia-bench fuzz --seed {:#x} --cases {}{}",
        opts.seed,
        v.case_idx + 1,
        if opts.inject_violation {
            " --inject-violation"
        } else {
            ""
        }
    );
    std::process::exit(1);
}

/// A report's `--json` file bytes: its JSON, newline-terminated.
fn json_file(rep: &ExperimentReport) -> String {
    let mut text = rep.to_json().render();
    text.push('\n');
    text
}

/// Renders the cycle-attribution profile of `log` plus its
/// `[trace] trace.profile.*` summary lines, for the `--profile` stderr
/// block.
fn profile_text(log: &ia_trace::TraceLog) -> String {
    let p = ia_trace::Profile::from_log(log);
    let mut out = p.to_text();
    let mut lines = vec![
        ("attributed_cycles", p.total_attributed),
        ("tracks", p.components.len() as u64),
        ("phases", p.rows.len() as u64),
        ("spans", p.span_count),
        ("instants", p.instant_count),
        ("events_recorded", p.events_recorded),
        ("events_dropped", p.events_dropped),
    ];
    if let Some((_, hottest)) = p.components.first() {
        lines.push(("hottest_component_cycles", *hottest));
    }
    for (name, value) in lines {
        out.push_str(&format!("[trace] trace.profile.{name}={value}\n"));
    }
    out
}

/// Writes `bytes` to `path`, or reports the failure on stderr and exits
/// with status `2` — a clean error for callers instead of a panic
/// backtrace.
fn write_or_exit(path: &str, bytes: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, bytes) {
        exit_with(2, &format!("writing {path}: {e}"));
    }
}

/// Drains `ctx`'s `ia-par` ledger into the report's runtime section:
/// `par_threads` (configured workers), `par_tasks` (tasks executed since
/// the last drain), `par_imbalance` (worst max/mean worker busy time, `1` =
/// balanced or serial), `par_busy_ms` (total worker busy time) and
/// `par_slowest_ms` (longest single task — the wall-clock floor of the
/// sweep no matter how many workers are added).
#[must_use]
fn attach_par_diagnostics(rep: ExperimentReport, ctx: &RunCtx) -> ExperimentReport {
    let ledger = ctx.take_ledger();
    let imbalance = if ledger.parallel_invocations == 0 {
        1.0
    } else {
        ledger.worst_imbalance.max(1.0)
    };
    rep.runtime_metric("par_threads", ctx.threads() as f64)
        .runtime_metric("par_tasks", ledger.tasks as f64)
        .runtime_metric("par_imbalance", imbalance)
        .runtime_metric("par_busy_ms", ledger.busy_total.as_secs_f64() * 1e3)
        .runtime_metric("par_slowest_ms", ledger.slowest_task.as_secs_f64() * 1e3)
}

/// Renders the runtime diagnostics of `rep` as a one-line stderr note.
fn par_diagnostics_from(rep: &ExperimentReport) -> String {
    let get = |k: &str| {
        rep.runtime
            .iter()
            .find(|(n, _)| n == k)
            .map_or(0.0, |(_, v)| *v)
    };
    format!(
        "[par] threads={} tasks={} imbalance={:.2} busy={:.1}ms slowest={:.1}ms",
        get("par_threads"),
        get("par_tasks"),
        get("par_imbalance"),
        get("par_busy_ms"),
        get("par_slowest_ms"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentReport {
        ExperimentReport::new("exp99_sample", true)
            .param("bytes", 4096)
            .metric("speedup", 11.6)
            .metric("energy_gain", 74.4)
            .columns(&["size", "speedup"])
            .row(&["4 KiB".to_owned(), "11.6x".to_owned()])
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let rep = sample();
        let text = rep.to_json().render();
        let parsed = JsonValue::parse(&text).expect("own output parses");
        let back = ExperimentReport::from_json(&parsed).expect("well-formed");
        assert_eq!(back, rep);
    }

    #[test]
    fn metric_lookup_and_quick_param() {
        let rep = sample();
        assert_eq!(rep.metric_value("speedup"), Some(11.6));
        assert_eq!(rep.metric_value("missing"), None);
        assert!(rep
            .params
            .contains(&("quick".to_owned(), "true".to_owned())));
    }

    #[test]
    fn csv_renders_the_table() {
        assert!(sample().to_csv().starts_with("size,speedup"));
    }

    #[test]
    fn runtime_metrics_and_caption_stay_out_of_json_and_csv() {
        let rep = sample()
            .caption("E99: sample caption")
            .runtime_metric("par_threads", 4.0)
            .runtime_metric("par_imbalance", 1.31);
        let json = rep.to_json().render();
        assert!(!json.contains("par_threads"), "runtime leaked into JSON");
        assert!(!json.contains("E99"), "caption leaked into JSON");
        assert!(!rep.to_csv().contains("par_imbalance"));
        assert!(!rep.to_csv().contains("E99"));
        let parsed = JsonValue::parse(&json).unwrap();
        let back = ExperimentReport::from_json(&parsed).unwrap();
        assert!(back.runtime.is_empty() && back.caption.is_empty());
        // Byte-identity: the canonical output ignores runtime entirely.
        assert_eq!(json, sample().to_json().render());
    }

    #[test]
    fn text_is_the_caption_then_the_table() {
        let text = sample().caption("E99: sample\nheadline: 11.6x").to_text();
        assert_eq!(
            text,
            "E99: sample\nheadline: 11.6x\n\
             +-------+---------+\n\
             | size  | speedup |\n\
             +-------+---------+\n\
             | 4 KiB | 11.6x   |\n\
             +-------+---------+\n"
        );
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().copied().map(str::to_owned).collect()
    }

    fn parse_cli(args: &[String]) -> Result<CliOptions, String> {
        parse(Command::Experiment, args)
    }

    #[test]
    fn parse_cli_accepts_every_documented_flag() {
        let opts = parse_cli(&argv(&[
            "--quick",
            "--threads",
            "4",
            "--json",
            "a.json",
            "--csv",
            "b.csv",
            "--trace",
            "t.json",
            "--record-trace",
            "w.trace",
            "--profile",
        ]))
        .expect("all flags are valid");
        assert!(opts.quick && opts.profile);
        assert_eq!(opts.threads, Some(4));
        assert_eq!(opts.json.as_deref(), Some("a.json"));
        assert_eq!(opts.csv.as_deref(), Some("b.csv"));
        assert_eq!(opts.trace.as_deref(), Some("t.json"));
        assert_eq!(opts.record_trace.as_deref(), Some("w.trace"));
        assert_eq!(opts.replay_trace, None);
        let opts = parse_cli(&argv(&["--replay-trace", "w.trace"])).expect("valid");
        assert_eq!(opts.replay_trace.as_deref(), Some("w.trace"));
        assert_eq!(parse_cli(&argv(&[])).unwrap(), CliOptions::default());
    }

    #[test]
    fn parse_cli_rejects_unknown_flags_and_missing_values() {
        let err = parse_cli(&argv(&["--qiuck"])).unwrap_err();
        assert_eq!(
            err,
            "unknown flag `--qiuck` (expected --quick, --threads <n>, \
             --json <path>, --csv <path>, --trace <path>, \
             --record-trace <path>, --replay-trace <path>, --profile)"
        );
        for flag in [
            "--threads",
            "--json",
            "--csv",
            "--trace",
            "--record-trace",
            "--replay-trace",
        ] {
            let err = parse_cli(&argv(&[flag])).unwrap_err();
            assert!(err.contains("expects a value"), "{flag}: {err}");
        }
        // A stray positional argument is as suspect as a typoed flag.
        assert!(parse_cli(&argv(&["quick"])).is_err());
    }

    #[test]
    fn parse_cli_rejects_record_and_replay_together() {
        let err = parse_cli(&argv(&[
            "--record-trace",
            "a.trace",
            "--replay-trace",
            "b.trace",
        ]))
        .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn each_command_accepts_only_its_own_flags() {
        let err = parse(Command::Suite, &argv(&["--json", "a.json"])).unwrap_err();
        assert_eq!(
            err,
            "unknown flag `--json` (expected --quick, --threads <n>, \
             --json-dir <dir>, --help, -h)"
        );
        assert!(parse_cli(&argv(&["--json-dir", "d"])).is_err());
        assert!(parse(Command::Fuzz, &argv(&["--quick"])).is_err());
        let opts = parse(
            Command::Suite,
            &argv(&["--quick", "--threads", "3", "--json-dir", "d"]),
        )
        .expect("valid suite flags");
        assert!(opts.quick);
        assert_eq!(opts.threads, Some(3));
        assert_eq!(opts.json_dir.as_deref(), Some("d"));
        // The same flag is parsed, and refused, the same way everywhere.
        for cmd in [Command::Experiment, Command::Suite] {
            let err = parse(cmd, &argv(&["--threads", "0"])).unwrap_err();
            assert_eq!(err, "--threads expects a positive integer, got `0`");
        }
    }

    #[test]
    fn help_ends_the_suite_parse() {
        let opts = parse(Command::Suite, &argv(&["--quick", "-h", "--bogus"])).expect("help");
        assert!(opts.help && opts.quick);
        assert!(parse_cli(&argv(&["--help"])).is_err());
    }

    #[test]
    fn fuzz_flags_fill_the_fuzz_options() {
        let opts = parse(
            Command::Fuzz,
            &argv(&[
                "--cases",
                "5",
                "--seed",
                "0xFF",
                "--repro-dir",
                "r",
                "--inject-violation",
            ]),
        )
        .expect("valid fuzz flags")
        .fuzz;
        assert_eq!(opts.cases, 5);
        assert_eq!(opts.seed, 255);
        assert_eq!(opts.repro_dir, std::path::PathBuf::from("r"));
        assert!(opts.inject_violation);
        let seed = |v: &str| parse(Command::Fuzz, &argv(&["--seed", v])).map(|o| o.fuzz.seed);
        assert_eq!(seed("42"), Ok(42));
        assert!(seed("0xZZ").unwrap_err().contains("decimal or 0x hex"));
        let err = parse(Command::Fuzz, &argv(&["--cases", "0"])).unwrap_err();
        assert_eq!(err, "--cases expects a positive integer, got `0`");
        assert_eq!(
            parse(Command::Fuzz, &argv(&[])).unwrap().fuzz,
            FuzzOptions::default()
        );
    }

    #[test]
    fn profile_text_reports_attribution_and_telemetry() {
        let mut tracer = ia_trace::Tracer::new("ctrl", 16);
        tracer.mark("sched.issue", 0);
        tracer.mark_n("dram.burst", 1, 9);
        let mut log = ia_trace::TraceLog::new();
        log.push(tracer.take());
        let text = profile_text(&log);
        assert!(
            text.contains("[profile] attributed 10 simulated cycles"),
            "{text}"
        );
        let trace_block: Vec<&str> = text.lines().filter(|l| l.starts_with("[trace] ")).collect();
        assert_eq!(
            trace_block,
            [
                "[trace] trace.profile.attributed_cycles=10",
                "[trace] trace.profile.tracks=1",
                "[trace] trace.profile.phases=2",
                "[trace] trace.profile.spans=0",
                "[trace] trace.profile.instants=0",
                "[trace] trace.profile.events_recorded=2",
                "[trace] trace.profile.events_dropped=0",
                "[trace] trace.profile.hottest_component_cycles=10",
            ],
            "{text}"
        );
        assert!(text.ends_with("[trace] trace.profile.hottest_component_cycles=10\n"));
        // An empty log has no hottest component, so that line is absent.
        let empty = profile_text(&ia_trace::TraceLog::new());
        assert!(empty.contains("[trace] trace.profile.events_dropped=0\n"));
        assert!(!empty.contains("hottest_component_cycles"), "{empty}");
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        let v = JsonValue::parse("{\"name\": 3}").unwrap();
        assert!(ExperimentReport::from_json(&v).is_err());
        let v = JsonValue::parse("{\"name\": \"x\"}").unwrap();
        assert!(ExperimentReport::from_json(&v).is_err());
    }
}
