//! The flight journal of a threaded replay: chunk workers are not sweep
//! tasks, so `lpstudy replay --suite eembc --jobs 4 --flight-out F` must
//! leave no `sweep_task_done` record in F — only the witnessed runs'
//! `run_completed` breadcrumbs — while the verdict stays exactly what CI
//! pins.

use lp_obs::export::JsonValue;
use std::process::Command;

const VERDICT: &str = "replay: 37 loop(s) certified and replayed, 22 rejected, 0 divergence(s)";

#[test]
fn replay_chunks_journal_no_sweep_tasks() {
    let dump = std::env::temp_dir().join(format!("lp-replay-flight-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_lpstudy"))
        .args(["replay", "--suite", "eembc", "--jobs", "4", "--quiet"])
        .arg("--flight-out")
        .arg(&dump)
        .env("LP_LOG", "off")
        .output()
        .expect("spawn lpstudy");
    assert!(
        out.status.success(),
        "lpstudy replay failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert_eq!(stdout.lines().last(), Some(VERDICT));

    let text = std::fs::read_to_string(&dump).expect("flight dump written");
    let _ = std::fs::remove_file(&dump);
    let doc = JsonValue::parse(&text).expect("flight dump is JSON");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("lp-journal-v1")
    );
    let kinds: Vec<&str> = doc
        .get("records")
        .and_then(JsonValue::as_array)
        .expect("records array")
        .iter()
        .map(|r| r.get("kind").and_then(JsonValue::as_str).expect("kind"))
        .collect();
    let count = |kind: &str| kinds.iter().filter(|&&k| k == kind).count();
    assert_eq!(count("sweep_task_done"), 0, "records: {kinds:?}");
    // One witnessed run per EEMBC kernel still journals its completion.
    assert_eq!(count("run_completed"), 10, "records: {kinds:?}");
}
