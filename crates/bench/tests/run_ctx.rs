//! `RunCtx` on its own: workload record/replay round-trips, and the
//! trace and ledger sinks belong to one context. Every test builds its
//! own contexts, so none of them can disturb another.

use ia_bench::RunCtx;
use ia_memctrl::MemRequest;
use ia_tracefmt::TraceReader;

fn intercept(
    ctx: &RunCtx,
    seed: u64,
    make: impl Fn() -> Vec<Vec<MemRequest>>,
) -> Vec<Vec<MemRequest>> {
    ctx.intercept(seed, || Ok::<_, ()>(make()))
        .unwrap_or_else(|()| panic!("generation cannot fail here"))
}

#[test]
fn record_then_replay_round_trips_segments_in_order() {
    let seg_a = vec![
        vec![MemRequest::read(0x1000, 0), MemRequest::write(0x1040, 0)],
        vec![MemRequest::read(0x2000, 1)],
    ];
    let seg_b = vec![vec![MemRequest::write(0x4000, 0)]];

    // Generating: pass-through, nothing counted or recorded.
    let plain = RunCtx::default();
    assert_eq!(intercept(&plain, 1, || seg_a.clone()), seg_a);
    assert_eq!(plain.intercepted(), 0);
    assert!(plain.recorded_artifact().is_empty());

    let recorder = RunCtx::default().recording();
    assert_eq!(intercept(&recorder, 0xAA, || seg_a.clone()), seg_a);
    assert_eq!(intercept(&recorder, 0xBB, || seg_b.clone()), seg_b);
    assert_eq!(recorder.intercepted(), 2);
    let artifact = TraceReader::from_bytes(&recorder.recorded_artifact())
        .unwrap_or_else(|e| panic!("artifact decodes: {e}"));
    assert_eq!(artifact.seed(), 0xAA, "header carries the first seed");

    let replayer = RunCtx::default().replaying(&artifact);
    // Replay ignores the generator entirely.
    assert_eq!(intercept(&replayer, 0xAA, || unreachable!()), seg_a);
    assert_eq!(intercept(&replayer, 0xBB, || unreachable!()), seg_b);
    // Exhausted: falls back to generating.
    assert_eq!(intercept(&replayer, 0xCC, || seg_b.clone()), seg_b);
    assert_eq!(replayer.intercepted(), 3);
}

#[test]
fn trace_and_ledger_belong_to_their_context() {
    let traced = RunCtx::new(2).with_trace();
    let untraced = RunCtx::new(2);
    assert!(traced.tracing() && !untraced.tracing());
    for ctx in [&traced, &untraced] {
        let mut tracer = ia_trace::Tracer::new("ctrl", 4);
        tracer.mark("busy", 0);
        let mut log = ia_trace::TraceLog::new();
        log.push(tracer.take());
        ctx.submit(log);
    }
    assert_eq!(traced.take_trace().components.len(), 1);
    assert!(traced.take_trace().is_empty(), "take drains the trace");
    assert!(
        untraced.take_trace().is_empty(),
        "capture off keeps nothing"
    );

    let out = traced.par_map((0..10u32).collect(), |x| x * 2);
    assert_eq!(out, (0..10u32).map(|x| x * 2).collect::<Vec<_>>());
    let ledger = traced.take_ledger();
    assert_eq!((ledger.tasks, ledger.max_workers), (10, 2));
    assert_eq!(untraced.take_ledger().tasks, 0, "ledgers are per context");
    assert_eq!(traced.take_ledger().tasks, 0, "take drains the ledger");
}

#[test]
fn library_fan_outs_reach_the_run_ledger() {
    // exp16's ladder fans out inside ia-core, which never sees the
    // context; its four rungs must still show up in the run's ledger.
    let ctx = RunCtx::new(2);
    ia_bench::exp16_ablation::report(true, &ctx).unwrap_or_else(|e| panic!("exp16 runs: {e}"));
    assert_eq!(ctx.take_ledger().tasks, 4, "one task per ladder rung");
}
