//! End-to-end observability: running a `Study` populates the global
//! registry with the pipeline's phase spans and counters, and the Chrome
//! trace exporter emits strictly valid JSON (checked with
//! `lp_obs::validate_json`, the shared recursive-descent validator,
//! since the workspace has no serde).

use loopapalooza::Study;
use lp_obs::Counter;
use lp_suite::Scale;

#[test]
fn study_populates_spans_counters_and_valid_chrome_trace() {
    let reg = lp_obs::registry();
    reg.reset();

    let bench = lp_suite::find("181.mcf").expect("registered benchmark");
    let module = bench.build(Scale::Test);
    let study = Study::of(&module).expect("study runs");
    let rows = study.table2_rows();
    assert_eq!(rows.len(), 14);

    // Phase spans from every pipeline stage.
    let spans = reg.spans();
    for phase in ["verify", "analyze", "profile", "evaluate"] {
        assert!(
            spans.iter().any(|s| s.name == phase),
            "missing span {phase:?} in {:?}",
            spans.iter().map(|s| s.name).collect::<Vec<_>>()
        );
    }
    // The profile span must bracket the work: it is the longest of the
    // profiling-side phases and every evaluate span starts after it ends.
    let profile = spans.iter().find(|s| s.name == "profile").unwrap();
    for ev in spans.iter().filter(|s| s.name == "evaluate") {
        assert!(ev.start_ns >= profile.end_ns);
    }

    // Counters flushed by the profiler and evaluator.
    let c = reg.counters();
    assert!(c.get(Counter::EventsConsumed) > 0);
    assert!(c.get(Counter::BlocksEntered) > 0);
    assert!(c.get(Counter::RegionsCreated) > 0);
    assert!(c.get(Counter::LoopInstances) > 0);
    assert_eq!(c.get(Counter::ProfilesTaken), 1);
    assert_eq!(c.get(Counter::EvalsPerformed), 14);

    // Exporters produce strictly valid JSON.
    let snapshot = lp_obs::snapshot::capture(reg, "obs_pipeline").to_json();
    lp_obs::validate_json(&snapshot).expect("snapshot output");
    let trace = lp_obs::chrome_trace(reg, "obs_pipeline");
    lp_obs::validate_json(&trace).expect("chrome trace output");
    for needle in [
        "\"name\":\"profile\"",
        "\"name\":\"evaluate\"",
        "\"ph\":\"M\"",
        "\"ph\":\"X\"",
        "\"events_consumed\"",
    ] {
        assert!(trace.contains(needle), "missing {needle} in trace");
    }

    reg.reset();
}
