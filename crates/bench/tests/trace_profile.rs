//! The tentpole acceptance check for `ia-trace`: capturing exp05's
//! scheduler suite must yield a cycle-attribution profile whose
//! controller tracks sum exactly to the runs' simulated cycles, name
//! the hottest components, and render byte-stably.

use ia_bench::RunCtx;

/// exp05's quick report and the trace its own context captured.
fn captured_exp05() -> (ia_bench::report::ExperimentReport, ia_trace::TraceLog) {
    let ctx = RunCtx::new(2).with_trace();
    let report = ia_bench::exp05_scheduler_suite::report(true, &ctx).expect("exp05 runs");
    (report, ctx.take_trace())
}

#[test]
fn exp05_profile_attributes_every_simulated_cycle() {
    let (report, log) = captured_exp05();
    let profile = ia_trace::Profile::from_log(&log);

    // Each shared run's controller track partitions that run's cycles
    // into phases; across the suite the ctrl tracks must therefore sum
    // to exactly the total simulated cycles of the seven runs, which
    // the report's runtime section carries.
    let total_cycles = report
        .runtime
        .iter()
        .find(|(k, _)| k == "sim_cycles")
        .map(|&(_, v)| v as u64)
        .expect("exp05 reports its simulated cycles");
    assert!(total_cycles > 0);
    let ctrl_attributed: u64 = log
        .components
        .iter()
        .filter(|c| c.track.ends_with("/ctrl"))
        .map(ia_trace::ComponentTrace::attributed)
        .sum();
    assert_eq!(
        ctrl_attributed, total_cycles,
        "controller tracks must attribute every simulated cycle"
    );
    // Marks only ever come from the controller, so the whole profile's
    // attribution equals the same total.
    assert_eq!(profile.total_attributed, total_cycles);

    // The profile names the top components, hottest first.
    let top = profile.top_components(3);
    assert_eq!(top.len(), 3, "suite has engine, ctrl and dram components");
    assert_eq!(top[0].0, "ctrl", "marks make ctrl the hottest component");
    assert!(top[0].1 >= top[1].1 && top[1].1 >= top[2].1);
    let text = profile.to_text();
    assert!(text.contains("top components: ctrl"), "{text}");
}

#[test]
fn exp05_trace_renders_byte_stably_and_parses() {
    let (_, first_log) = captured_exp05();
    let first = ia_trace::chrome::render_chrome(&first_log);
    let (_, second_log) = captured_exp05();
    let second = ia_trace::chrome::render_chrome(&second_log);
    assert_eq!(first, second, "repeat captures must render identically");
    let parsed = ia_telemetry::JsonValue::parse(&first).unwrap_or_else(|e| panic!("parses: {e:?}"));
    assert!(matches!(
        parsed.get("traceEvents"),
        Some(ia_telemetry::JsonValue::Arr(_))
    ));
    // Profile JSON is byte-stable too.
    assert_eq!(
        ia_trace::Profile::from_log(&first_log).to_json().render(),
        ia_trace::Profile::from_log(&second_log).to_json().render()
    );
}
