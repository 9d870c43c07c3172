//! End-to-end check of the machine-readable report pipeline: run the
//! RowClone experiment through the report path `ia-bench exp02_rowclone`
//! uses, write the JSON to disk, and parse it back with
//! `ia-telemetry`'s own parser — the same loop `scripts/bench_snapshot.sh`
//! and any downstream tooling rely on.

use ia_bench::report::ExperimentReport;
use ia_telemetry::JsonValue;

#[test]
fn exp02_report_round_trips_through_json_on_disk() {
    let rep =
        ia_bench::exp02_rowclone::report(true, &ia_bench::RunCtx::default()).expect("exp02 runs");

    // Write exactly what `ia-bench exp02_rowclone --json <path>` writes.
    let mut text = rep.to_json().render();
    text.push('\n');
    let path = std::env::temp_dir().join("ia_bench_exp02_report.json");
    std::fs::write(&path, &text).expect("report written");

    let read_back = std::fs::read_to_string(&path).expect("report read");
    let parsed = JsonValue::parse(&read_back).expect("emitted JSON parses with our own parser");
    let back = ExperimentReport::from_json(&parsed).expect("well-formed report");
    std::fs::remove_file(&path).ok();

    // The caption is for people and stays out of the JSON.
    assert!(!rep.caption.is_empty());
    assert_eq!(back, rep.clone().caption(""));
    assert_eq!(back.name, "exp02_rowclone");
    assert!(back
        .params
        .contains(&("quick".to_owned(), "true".to_owned())));

    // The headline RowClone result must survive the trip: in-DRAM copy
    // is an order of magnitude faster than copying over the channel.
    let speedup = back
        .metric_value("fpm_speedup")
        .expect("headline metric present");
    assert!(
        speedup > 1.0,
        "FPM speedup should beat the channel: {speedup:.2}"
    );
}

#[test]
fn every_experiment_report_names_itself_and_records_quick() {
    // Names match their registry key's experiment number, the quick param is
    // recorded and every report carries its table, so BENCH_PR.json
    // entries are self-describing.
    for (bin, report) in ia_bench::EXPERIMENTS {
        let rep =
            report(true, &ia_bench::RunCtx::default()).unwrap_or_else(|e| panic!("{bin}: {e}"));
        assert_eq!(rep.name[..6], bin[..6], "{bin} reports as {}", rep.name);
        assert!(
            rep.params
                .contains(&("quick".to_owned(), "true".to_owned())),
            "{bin}"
        );
        assert!(!rep.headers.is_empty() && !rep.rows.is_empty(), "{bin}");
        assert!(!rep.metrics.is_empty(), "{bin}");
    }
}

#[test]
fn registry_holds_24_unique_names_in_ascending_order() {
    // `ia-bench suite` runs, and bench_snapshot.sh writes BENCH_PR.json
    // in, registry order: exp01 .. exp24, one entry each.
    let names: Vec<&str> = ia_bench::EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    assert_eq!(names.len(), 24);
    for (i, name) in names.iter().enumerate() {
        assert!(
            name.starts_with(&format!("exp{:02}_", i + 1)),
            "entry {i} is `{name}`, expected an exp{:02}_ name",
            i + 1
        );
    }
    assert!(
        names.windows(2).all(|w| w[0] < w[1]),
        "names must be unique and strictly ascending: {names:?}"
    );
}
