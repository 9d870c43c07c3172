//! The `ia-bench` CLI's error contract, tested against the real binary
//! (`exp05_scheduler_suite` stands in for all 24 experiments): a missing
//! or unknown command, bad arguments and unwritable output paths must
//! exit with status `2` and a message on stderr — never a panic
//! backtrace, never a silent default run — and the happy-path `--trace`
//! output must be valid Chrome trace-event JSON.

use std::process::{Command, Output};

use ia_tracefmt::{TraceOp, TraceRecord, TraceWriter};

/// Runs `ia-bench <command> <args>`.
fn run(command: &str, args: &[&str]) -> Output {
    ia_bench(&[&[command], args].concat())
}

fn ia_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ia-bench"))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn ia-bench: {e}"))
}

fn exp05(args: &[&str]) -> Output {
    run("exp05_scheduler_suite", args)
}

/// `exp02_rowclone` generates no memory-request workload.
fn exp02(args: &[&str]) -> Output {
    run("exp02_rowclone", args)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ia-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("mkdir: {e}"));
    dir
}

fn assert_usage_error(args: &[&str], needle: &str) {
    assert_usage_failure(&exp05(args), args, needle);
}

fn assert_usage_failure(out: &Output, args: &[&str], needle: &str) {
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit 2, got {:?}",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(needle),
        "{args:?}: stderr missing `{needle}`:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{args:?} must not panic:\n{stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{args:?} must not run the experiment before failing"
    );
}

#[test]
fn unknown_flag_is_a_usage_error() {
    assert_usage_error(&["--qiuck"], "unknown flag `--qiuck`");
    assert_usage_error(&["--quick", "extra"], "unknown flag `extra`");
}

#[test]
fn value_flags_require_a_value() {
    assert_usage_error(&["--threads"], "--threads expects a value");
    assert_usage_error(&["--quick", "--trace"], "--trace expects a value");
    assert_usage_error(&["--json"], "--json expects a value");
    assert_usage_error(&["--csv"], "--csv expects a value");
    assert_usage_error(&["--record-trace"], "--record-trace expects a value");
    assert_usage_error(&["--replay-trace"], "--replay-trace expects a value");
}

#[test]
fn record_and_replay_together_are_a_usage_error() {
    assert_usage_error(
        &["--record-trace", "a.trace", "--replay-trace", "b.trace"],
        "mutually exclusive",
    );
    // Order must not matter.
    assert_usage_error(
        &[
            "--quick",
            "--replay-trace",
            "b.trace",
            "--record-trace",
            "a.trace",
        ],
        "mutually exclusive",
    );
}

#[test]
fn replaying_a_missing_trace_exits_2_with_a_structured_error() {
    let out = exp05(&[
        "--quick",
        "--replay-trace",
        "/nonexistent-dir/missing.trace",
    ]);
    assert_eq!(out.status.code(), Some(2), "got {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: loading replay trace /nonexistent-dir/missing.trace"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "must not run the experiment with a bad replay artifact"
    );
}

#[test]
fn recorded_trace_replays_byte_identically() {
    let dir = std::env::temp_dir().join(format!("ia-cli-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("mkdir: {e}"));
    let trace = dir.join("exp05.trace");
    let trace = trace.to_str().unwrap_or("bad-path");
    let rec = exp05(&["--quick", "--record-trace", trace]);
    assert!(rec.status.success(), "record run failed: {:?}", rec.status);
    assert!(!rec.stdout.is_empty(), "record run must still report");
    let rep = exp05(&["--quick", "--replay-trace", trace]);
    assert!(rep.status.success(), "replay run failed: {:?}", rep.status);
    assert_eq!(
        rec.stdout, rep.stdout,
        "replayed report must be byte-identical to the recorded run's"
    );
    // The artifact itself must be a valid v1 trace.
    let bytes = std::fs::read(trace).unwrap_or_else(|e| panic!("read trace: {e}"));
    let reader = ia_tracefmt::TraceReader::from_bytes(&bytes)
        .unwrap_or_else(|e| panic!("recorded artifact must decode: {e}"));
    assert!(!reader.records().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn record_or_replay_on_an_experiment_without_workloads_is_a_usage_error() {
    let dir = temp_dir("no-workload");
    let path = dir.join("exp02.trace");
    let path = path.to_str().unwrap_or("bad-path");
    let args = ["--quick", "--record-trace", path];
    assert_usage_failure(
        &exp02(&args),
        &args,
        "--record-trace: exp02_rowclone generates no memory-request workload",
    );
    assert!(
        !std::path::Path::new(path).exists(),
        "no empty artifact may be written"
    );
    // A valid artifact from an experiment that has workloads is still
    // refused, not silently ignored.
    let rec = exp05(&["--quick", "--record-trace", path]);
    assert!(rec.status.success(), "record run failed: {:?}", rec.status);
    let args = ["--quick", "--replay-trace", path];
    assert_usage_failure(
        &exp02(&args),
        &args,
        "--replay-trace: exp02_rowclone generates no memory-request workload",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_on_an_experiment_without_trace_events_is_a_usage_error() {
    let dir = temp_dir("no-trace");
    let path = dir.join("exp04.json");
    let path = path.to_str().unwrap_or("bad-path");
    let args = ["--quick", "--trace", path];
    assert_usage_failure(
        &run("exp04_rl_memctrl", &args),
        &args,
        "--trace: exp04_rl_memctrl records no trace events",
    );
    assert!(
        !std::path::Path::new(path).exists(),
        "no empty trace may be written"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failing_replayed_run_names_its_artifact() {
    // Streams 0 and 2 but none for thread 1: the replayed workload has
    // an empty thread, which the closed-loop runner rejects.
    let dir = temp_dir("bad-replay");
    let path = dir.join("holey.trace");
    let path = path.to_str().unwrap_or("bad-path");
    let mut w = TraceWriter::new(11);
    w.push(&TraceRecord::new(0x40, TraceOp::Read, 0, 0));
    w.push(&TraceRecord::new(0x80, TraceOp::Read, 2, 0));
    w.write_to_path(path)
        .unwrap_or_else(|e| panic!("write artifact: {e}"));
    let out = exp05(&["--quick", "--replay-trace", path]);
    assert_eq!(out.status.code(), Some(1), "got {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!(
            "error: exp05_scheduler_suite: trace must contain at least one request [trace: {path}]"
        )),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn threads_must_be_a_positive_integer() {
    assert_usage_error(&["--threads", "0"], "positive integer");
    assert_usage_error(&["--threads", "lots"], "positive integer");
}

#[test]
fn suite_parses_threads_like_every_experiment() {
    let args = ["--threads", "0"];
    let suite = run("suite", &args);
    let msg = "error: --threads expects a positive integer, got `0`\n";
    assert_usage_failure(&suite, &args, msg);
    assert_eq!(
        String::from_utf8_lossy(&suite.stderr),
        String::from_utf8_lossy(&exp05(&args).stderr),
        "suite and an experiment must refuse a bad --threads with one message"
    );
}

#[test]
fn suite_and_fuzz_refuse_bad_flags_before_running() {
    let cases = [
        ("suite", &["--quick"][..], "error: --json-dir is required"),
        ("suite", &["--json", "a.json"][..], "unknown flag `--json`"),
        (
            "fuzz",
            &["--cases", "0"][..],
            "--cases expects a positive integer",
        ),
        ("fuzz", &["--seed", "0xZZ"][..], "decimal or 0x hex"),
        ("fuzz", &["--quick"][..], "unknown flag `--quick`"),
    ];
    for (command, args, needle) in cases {
        assert_usage_failure(&run(command, args), args, needle);
    }
}

/// A missing or unknown command exits 2 with nothing on stdout and
/// lists every command on stderr.
fn assert_lists_every_command(args: &[&str], needle: &str) {
    let out = ia_bench(args);
    assert_usage_failure(&out, args, needle);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let words: Vec<&str> = stderr
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .collect();
    let commands = ["suite", "fuzz"].into_iter();
    for command in commands.chain(ia_bench::EXPERIMENTS.iter().map(|(n, _)| *n)) {
        assert!(
            words.contains(&command),
            "{args:?}: stderr must list `{command}`:\n{stderr}"
        );
    }
}

#[test]
fn no_command_is_a_usage_error() {
    assert_lists_every_command(&[], "error: no command given");
}

#[test]
fn an_unknown_command_never_runs_a_default_experiment() {
    assert_lists_every_command(
        &["exp05_scheduler_suit", "--quick"],
        "error: unknown command `exp05_scheduler_suit`",
    );
    assert_lists_every_command(&["--quick"], "error: unknown command `--quick`");
}

#[test]
fn unwritable_output_paths_exit_2_consistently() {
    // The run itself succeeds (stdout has the table); the write fails
    // afterwards, uniformly for every output kind.
    for flag in ["--json", "--csv", "--trace"] {
        let out = exp05(&["--quick", flag, "/nonexistent-dir/out.file"]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} to unwritable path must exit 2, got {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error: writing /nonexistent-dir/out.file"),
            "{flag}: {stderr}"
        );
    }
}

#[test]
fn trace_smoke_writes_valid_chrome_json() {
    let dir = std::env::temp_dir().join(format!("ia-cli-errors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("mkdir: {e}"));
    let path = dir.join("exp05.trace.json");
    let out = exp05(&["--quick", "--trace", path.to_str().unwrap_or("bad-path")]);
    assert!(out.status.success(), "trace run failed: {:?}", out.status);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read trace: {e}"));
    let json = ia_telemetry::JsonValue::parse(&text)
        .unwrap_or_else(|e| panic!("trace output must parse as JSON: {e:?}"));
    let events = match json.get("traceEvents") {
        Some(ia_telemetry::JsonValue::Arr(events)) => events,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert!(!events.is_empty(), "trace must contain events");
    // Spot-check the Chrome trace-event shape: every event has a name
    // and a phase, and the first events are thread-name metadata.
    for ev in events {
        assert!(ev.get("name").is_some() && ev.get("ph").is_some());
    }
    assert_eq!(
        events[0].get("ph"),
        Some(&ia_telemetry::JsonValue::Str("M".to_owned()))
    );
    let _ = std::fs::remove_dir_all(&dir);
}
