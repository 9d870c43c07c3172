//! Machine-readable experiment reports and the shared CLI runner.
//!
//! Every experiment module exposes one entry point,
//! `report(quick) -> Result<ExperimentReport, Error>`: the run's params,
//! metrics and result table, plus a human caption. The `expNN_*`
//! binaries route it through [`cli`], which prints
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
//! * `--record-trace <path>` — record the run's generated workloads as
//!   an `ia-tracefmt` artifact (see `crates/tracefmt/FORMAT.md`);
//! * `--replay-trace <path>` — drive the run from a recorded artifact
//!   instead of generating workloads (mutually exclusive with
//!   `--record-trace`);
//! * `--profile` — print the cycle-attribution profile and a `trace.*`
//!   telemetry snapshot to stderr.
//!
//! Unknown flags and flags missing their value are rejected with exit
//! status `2`, so sweep scripts fail loudly instead of silently running
//! a default configuration.
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

/// The error an experiment's report returns: whatever failed in the
/// crates it drives, boxed.
pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// One experiment's single entry point, parameterized by `--quick`.
pub type ReportFn = fn(bool) -> Result<ExperimentReport, Error>;

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

/// Parsed command-line options shared by every experiment binary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct CliOptions {
    quick: bool,
    threads: Option<String>,
    json: Option<String>,
    csv: Option<String>,
    trace: Option<String>,
    record_trace: Option<String>,
    replay_trace: Option<String>,
    profile: bool,
}

/// Strictly parses `args` (`args[0]` is the binary name). Every flag
/// must be recognized and every value-taking flag must have a value —
/// anything else is an error, so a typo can't silently run a default
/// configuration.
fn parse_cli(args: &[String]) -> Result<CliOptions, String> {
    let mut opts = CliOptions::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => opts.quick = true,
            "--profile" => opts.profile = true,
            flag @ ("--threads" | "--json" | "--csv" | "--trace" | "--record-trace"
            | "--replay-trace") => {
                i += 1;
                let Some(value) = args.get(i) else {
                    return Err(format!("{flag} expects a value"));
                };
                let slot = match flag {
                    "--threads" => &mut opts.threads,
                    "--json" => &mut opts.json,
                    "--csv" => &mut opts.csv,
                    "--record-trace" => &mut opts.record_trace,
                    "--replay-trace" => &mut opts.replay_trace,
                    _ => &mut opts.trace,
                };
                *slot = Some(value.clone());
            }
            other => {
                return Err(format!(
                    "unknown flag `{other}` (expected --quick, --threads <n>, \
                     --json <path>, --csv <path>, --trace <path>, \
                     --record-trace <path>, --replay-trace <path>, --profile)"
                ))
            }
        }
        i += 1;
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

/// Shared experiment-binary entry point: runs `report` once, prints
/// its [text](ExperimentReport::to_text) and, when `--json <path>` /
/// `--csv <path>` are given, writes the machine-readable report.
/// `--quick` selects the reduced configuration; `--threads <n>` sets
/// the `ia-par` worker count for the whole process (`1` = the exact
/// serial path, default = available parallelism). `--trace <path>`
/// records an `ia-trace` session during the run and writes it as
/// Chrome trace-event JSON; `--profile` additionally prints the
/// cycle-attribution profile to stderr. `--record-trace <path>`
/// captures the run's workloads as an `ia-tracefmt` artifact and
/// `--replay-trace <path>` drives the run from one (mutually exclusive
/// — rejected with exit status `2`). Parallel-execution diagnostics for
/// the invocation are printed to stderr and attached to the report as
/// [runtime metrics](ExperimentReport::runtime_metric).
///
/// # Exits
///
/// Exits with status `2` (after a message on stderr, no backtrace) if
/// an argument is not recognized, `--threads` is not a positive
/// integer, or a requested output file cannot be written — an
/// experiment binary has nothing sensible to do with any of those, and
/// callers (CI, sweep scripts) key off the exit code. Exits with status
/// `1` after `error: <experiment>: <cause>` if the experiment fails.
pub fn cli(report: ReportFn) {
    let args: Vec<String> = std::env::args().collect();
    let opts = parse_cli(&args).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    });
    if let Some(t) = &opts.threads {
        let n = t
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                eprintln!("error: --threads expects a positive integer, got `{t}`");
                std::process::exit(2);
            });
        ia_par::set_threads(n);
    }
    if let Some(path) = &opts.replay_trace {
        if let Err(e) = crate::replay::start_replay(path) {
            eprintln!("error: loading replay trace {path}: {e}");
            std::process::exit(2);
        }
    }
    if opts.record_trace.is_some() {
        crate::replay::start_record();
    }
    let tracing = opts.trace.is_some() || opts.profile;
    let _ = ia_par::ledger::take();
    if tracing {
        let _ = ia_trace::session::take();
        ia_trace::set_capture(true);
    }
    let rep = report(opts.quick).unwrap_or_else(|e| {
        let bin = std::path::Path::new(args.first().map_or("", String::as_str));
        let name = bin.file_stem().unwrap_or_default().to_string_lossy();
        eprintln!("error: {name}: {e}");
        std::process::exit(1);
    });
    if let Some(path) = &opts.record_trace {
        if let Err(e) = crate::replay::finish_record(path) {
            eprintln!("error: writing recorded trace {path}: {e}");
            std::process::exit(2);
        }
    }
    if tracing {
        ia_trace::set_capture(false);
        let log = ia_trace::session::take();
        if let Some(path) = &opts.trace {
            write_or_exit(path, &ia_trace::chrome::render_chrome(&log));
        }
        if opts.profile {
            eprint!("{}", profile_text(&log));
        }
    }
    let rep = attach_par_diagnostics(rep);
    print!("{}", rep.to_text());
    eprintln!("{}", par_diagnostics_from(&rep));
    if let Some(path) = opts.json {
        let mut text = rep.to_json().render();
        text.push('\n');
        write_or_exit(&path, &text);
    }
    if let Some(path) = opts.csv {
        write_or_exit(&path, &rep.to_csv());
    }
}

/// Renders the cycle-attribution profile of `log` plus a `trace.*`
/// telemetry snapshot, for the `--profile` stderr block.
fn profile_text(log: &ia_trace::TraceLog) -> String {
    let profile = ia_trace::Profile::from_log(log);
    let mut reg = ia_telemetry::Registry::new();
    reg.collect("trace.profile", &profile);
    let mut out = profile.to_text();
    for (name, value) in reg.iter() {
        out.push_str(&format!("[trace] {name}={}\n", value.scalar()));
    }
    out
}

/// Writes `text` to `path`, or reports the failure on stderr and exits
/// with status `2` — a clean error for callers instead of a panic
/// backtrace.
fn write_or_exit(path: &str, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("error: writing {path}: {e}");
        std::process::exit(2);
    }
}

/// Drains the `ia-par` ledger into the report's runtime section:
/// `par_threads` (configured workers), `par_tasks` (tasks executed this
/// invocation), `par_imbalance` (worst max/mean worker busy time, `1` =
/// balanced or serial), `par_busy_ms` (total worker busy time) and
/// `par_slowest_ms` (longest single task — the wall-clock floor of the
/// sweep no matter how many workers are added).
#[must_use]
pub fn attach_par_diagnostics(rep: ExperimentReport) -> ExperimentReport {
    let ledger = ia_par::ledger::take();
    let imbalance = if ledger.parallel_invocations == 0 {
        1.0
    } else {
        ledger.worst_imbalance.max(1.0)
    };
    rep.runtime_metric("par_threads", ia_par::auto_threads() as f64)
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
        std::iter::once("exp99_sample")
            .chain(parts.iter().copied())
            .map(str::to_owned)
            .collect()
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
        assert_eq!(opts.threads.as_deref(), Some("4"));
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
        assert!(err.contains("unknown flag `--qiuck`"), "{err}");
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
        assert!(
            text.contains("[trace] trace.profile.attributed_cycles=10"),
            "{text}"
        );
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        let v = JsonValue::parse("{\"name\": 3}").unwrap();
        assert!(ExperimentReport::from_json(&v).is_err());
        let v = JsonValue::parse("{\"name\": \"x\"}").unwrap();
        assert!(ExperimentReport::from_json(&v).is_err());
    }
}
