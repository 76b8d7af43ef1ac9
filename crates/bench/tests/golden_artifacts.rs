//! Golden tests pinning the captured `results/` quickstart artifacts:
//! regenerating them through the `lpstudy` binary must reproduce the
//! committed files — byte-for-byte where the content is deterministic
//! (the explain JSON and collapsed stacks), structurally where wall
//! clock timings are embedded (the Chrome trace's span-name sequence).
//!
//! To refresh after an intentional pipeline change:
//!
//! ```text
//! cargo run --release -p lp-bench --bin lpstudy -- explain \
//!   --explain-out results/explain-quickstart.json
//! cargo run --release -p lp-bench --bin lpstudy -- --trace-out results/trace-quickstart.json
//! cargo run --release -p lp-bench --bin lpstudy -- replay test --jobs 2 \
//!   --replay-out results/replay-quickstart.json
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/bench; results/ sits at the workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

fn lpstudy(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_lpstudy"))
        .args(args)
        .env("LP_LOG", "off")
        .output()
        .expect("lpstudy runs");
    assert!(
        out.status.success(),
        "lpstudy {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn explain_quickstart_json_regenerates_byte_identically() {
    let dir = std::env::temp_dir();
    let json = dir.join(format!("lp-golden-explain-{}.json", std::process::id()));
    lpstudy(&[
        "explain",
        "--quiet",
        "--explain-out",
        json.to_str().unwrap(),
    ]);
    let fresh = std::fs::read_to_string(&json).unwrap();
    let golden =
        std::fs::read_to_string(repo_root().join("results/explain-quickstart.json")).unwrap();
    assert_eq!(
        fresh, golden,
        "explain-quickstart.json drifted — if the change is intentional, \
         regenerate it (see this test's module docs)"
    );
    let fresh_collapsed = std::fs::read_to_string(json.with_extension("collapsed")).unwrap();
    let golden_collapsed =
        std::fs::read_to_string(repo_root().join("results/explain-quickstart.collapsed")).unwrap();
    assert_eq!(
        fresh_collapsed, golden_collapsed,
        "explain-quickstart.collapsed drifted"
    );
    let _ = std::fs::remove_file(&json);
    let _ = std::fs::remove_file(json.with_extension("collapsed"));
}

/// The tree walk pins to the *same* golden file: the test above runs
/// the default bytecode engine, and `--engine tree` must reproduce
/// `results/explain-quickstart.*` byte-for-byte, because the engines are
/// observationally identical and the explain pipeline is deterministic.
#[test]
fn explain_quickstart_json_is_engine_invariant() {
    let dir = std::env::temp_dir();
    let json = dir.join(format!(
        "lp-golden-explain-tree-{}.json",
        std::process::id()
    ));
    lpstudy(&[
        "explain",
        "--quiet",
        "--engine",
        "tree",
        "--explain-out",
        json.to_str().unwrap(),
    ]);
    let fresh = std::fs::read_to_string(&json).unwrap();
    let golden =
        std::fs::read_to_string(repo_root().join("results/explain-quickstart.json")).unwrap();
    assert_eq!(
        fresh, golden,
        "explain-quickstart.json differs under --engine tree — the tree \
         walk must be observationally identical to the bytecode engine"
    );
    let fresh_collapsed = std::fs::read_to_string(json.with_extension("collapsed")).unwrap();
    let golden_collapsed =
        std::fs::read_to_string(repo_root().join("results/explain-quickstart.collapsed")).unwrap();
    assert_eq!(
        fresh_collapsed, golden_collapsed,
        "explain-quickstart.collapsed differs under --engine tree"
    );
    let _ = std::fs::remove_file(&json);
    let _ = std::fs::remove_file(json.with_extension("collapsed"));
}

/// The ordered `"name"` values of a Chrome trace — the structural
/// skeleton that survives timing jitter.
fn span_names(trace: &str) -> Vec<String> {
    lp_obs::validate_json(trace).expect("trace must be valid JSON");
    let mut names = Vec::new();
    let mut rest = trace;
    while let Some(at) = rest.find("\"name\":\"") {
        let tail = &rest[at + 8..];
        let end = tail.find('"').expect("terminated name");
        names.push(tail[..end].to_string());
        rest = &tail[end..];
    }
    names
}

/// Masks the wall-clock-derived values of an `lp-replay-v1` document
/// (`serial_ns`, `parallel_ns`, `measured_speedup`) so the rest — the
/// schema, loop/rejection structure, iteration counts, and predicted
/// speedups — can be compared byte-for-byte.
fn mask_replay_timings(json: &str) -> String {
    lp_obs::validate_json(json).expect("lp-replay-v1 must be valid JSON");
    json.lines()
        .map(|line| {
            let trimmed = line.trim_start();
            for key in [
                "\"serial_ns\":",
                "\"parallel_ns\":",
                "\"measured_speedup\":",
            ] {
                if trimmed.starts_with(key) {
                    let indent = &line[..line.len() - trimmed.len()];
                    let comma = if trimmed.trim_end().ends_with(',') {
                        ","
                    } else {
                        ""
                    };
                    return format!("{indent}{key} <t>{comma}");
                }
            }
            line.to_string()
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// `(name, tid, start, end)` of every complete (`"ph":"X"`) event of a
/// Chrome trace, in microseconds.
fn trace_spans(trace: &str) -> Vec<(String, u64, f64, f64)> {
    let doc = lp_obs::export::JsonValue::parse(trace).expect("trace must be valid JSON");
    doc.get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .map(|e| {
            let num = |k: &str| e.get(k).and_then(|v| v.as_f64()).expect("numeric field");
            (
                e.get("name").and_then(|n| n.as_str()).unwrap().to_string(),
                e.get("tid").and_then(|t| t.as_u64()).unwrap(),
                num("ts"),
                num("ts") + num("dur"),
            )
        })
        .collect()
}

#[test]
fn replay_quickstart_has_stable_schema_and_loop_structure() {
    let dir = std::env::temp_dir();
    let json = dir.join(format!("lp-golden-replay-{}.json", std::process::id()));
    let trace = dir.join(format!(
        "lp-golden-replay-trace-{}.json",
        std::process::id()
    ));
    lpstudy(&[
        "replay",
        "test",
        "--quiet",
        "--jobs",
        "2",
        "--replay-out",
        json.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    let fresh = std::fs::read_to_string(&json).unwrap();
    let golden =
        std::fs::read_to_string(repo_root().join("results/replay-quickstart.json")).unwrap();
    assert_eq!(
        mask_replay_timings(&fresh),
        mask_replay_timings(&golden),
        "replay-quickstart.json structure drifted — if the change is \
         intentional, regenerate it (see this test's module docs)"
    );

    // Every replay stage shows up in the trace, nested under a `replay`
    // span on the same thread.
    let spans = trace_spans(&std::fs::read_to_string(&trace).unwrap());
    for stage in ["replay-witness", "replay-run", "replay-compare"] {
        let mut seen = 0;
        for (_, tid, start, end) in spans.iter().filter(|s| s.0 == stage) {
            seen += 1;
            assert!(
                spans
                    .iter()
                    .any(|(name, ptid, pstart, pend)| name == "replay"
                        && ptid == tid
                        && *pstart <= start + 1e-3
                        && end - 1e-3 <= *pend),
                "{stage} span at {start}µs is not nested under a replay span"
            );
        }
        assert!(seen > 0, "no {stage} span in the replay trace");
    }
    let _ = std::fs::remove_file(&json);
    let _ = std::fs::remove_file(&trace);
}

/// As above, through the tree walk: everything but wall clock in
/// `results/replay-quickstart.json` must match the committed golden
/// when the replay pipeline runs under `--engine tree` (the tests above
/// run the default bytecode engine).
#[test]
fn replay_quickstart_is_engine_invariant() {
    let dir = std::env::temp_dir();
    let json = dir.join(format!("lp-golden-replay-tree-{}.json", std::process::id()));
    lpstudy(&[
        "replay",
        "test",
        "--quiet",
        "--engine",
        "tree",
        "--jobs",
        "2",
        "--replay-out",
        json.to_str().unwrap(),
    ]);
    let fresh = std::fs::read_to_string(&json).unwrap();
    let golden =
        std::fs::read_to_string(repo_root().join("results/replay-quickstart.json")).unwrap();
    assert_eq!(
        mask_replay_timings(&fresh),
        mask_replay_timings(&golden),
        "replay-quickstart.json structure differs under --engine tree"
    );
    let _ = std::fs::remove_file(&json);
}

#[test]
fn trace_quickstart_has_stable_span_structure() {
    let dir = std::env::temp_dir();
    let trace = dir.join(format!("lp-golden-trace-{}.json", std::process::id()));
    lpstudy(&["--quiet", "--trace-out", trace.to_str().unwrap()]);
    let fresh = std::fs::read_to_string(&trace).unwrap();
    let golden =
        std::fs::read_to_string(repo_root().join("results/trace-quickstart.json")).unwrap();
    assert_eq!(
        span_names(&fresh),
        span_names(&golden),
        "trace-quickstart.json span structure drifted — if the change is \
         intentional, regenerate it (see this test's module docs)"
    );
    let _ = std::fs::remove_file(&trace);
}
