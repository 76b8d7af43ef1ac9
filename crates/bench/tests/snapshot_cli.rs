//! End-to-end contract of `--snapshot-out` and `lpstudy diff`: two
//! runs of the same deterministic workload must diff to silence, while
//! a run whose profile-store cache goes from cold to warm must surface
//! `store_hits`/`store_misses` at the top of the ranking — the diff
//! separating real behaviour changes from run-to-run noise.

use lp_obs::export::JsonValue;
use std::path::PathBuf;
use std::process::{Command, Output};

fn lpstudy(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lpstudy"))
        .args(args)
        .env("LP_LOG", "off")
        .output()
        .expect("spawn lpstudy")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lp-snapcli-{name}-{}", std::process::id()))
}

fn capture(snapshot: &str, extra: &[&str]) {
    let mut args = vec![
        "--bench",
        "eembc.matrix01",
        "--quiet",
        "--snapshot-out",
        snapshot,
    ];
    args.extend_from_slice(extra);
    let out = lpstudy(&args);
    assert!(
        out.status.success(),
        "lpstudy failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn same_seed_runs_diff_to_zero_significant_divergences() {
    let a = tmp("same-a.json");
    let b = tmp("same-b.json");
    capture(a.to_str().unwrap(), &[]);
    capture(b.to_str().unwrap(), &[]);

    let out = lpstudy(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "diff failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("0 significant"),
        "same-seed runs diverged:\n{stdout}"
    );

    // The snapshots themselves audit clean, too.
    let out = lpstudy(&["audit", a.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "audit failed: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
}

#[test]
fn cold_vs_warm_profile_cache_ranks_store_counters_on_top() {
    let cache = tmp("cache-dir");
    let _ = std::fs::remove_dir_all(&cache);
    let cold = tmp("cold.json");
    let warm = tmp("warm.json");
    // First run populates the store (all misses), second replays it
    // (all hits) — the one intended behaviour change between the runs.
    capture(
        cold.to_str().unwrap(),
        &["--profile-cache", cache.to_str().unwrap()],
    );
    capture(
        warm.to_str().unwrap(),
        &["--profile-cache", cache.to_str().unwrap()],
    );

    // One bench run performs exactly one store lookup, so the flip is
    // a ±1 counter move — lower the absolute noise floor to see it.
    let out = lpstudy(&[
        "diff",
        cold.to_str().unwrap(),
        warm.to_str().unwrap(),
        "--json",
        "--noise-floor",
        "1",
    ]);
    assert!(
        out.status.success(),
        "diff failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = JsonValue::parse(&String::from_utf8_lossy(&out.stdout))
        .expect("diff --json emits valid JSON");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("lp-diff-v1")
    );
    let counters = doc
        .get("counters")
        .and_then(JsonValue::as_array)
        .expect("counters array");

    let pos = |name: &str| {
        counters
            .iter()
            .position(|c| c.get("name").and_then(JsonValue::as_str) == Some(name))
            .unwrap_or_else(|| panic!("{name} missing from the diff"))
    };
    let hits = pos("store_hits");
    let misses = pos("store_misses");
    for i in [hits, misses] {
        assert_eq!(
            counters[i].get("significant").and_then(JsonValue::as_bool),
            Some(true),
            "store counter not flagged: {:?}",
            counters[i]
        );
    }
    // The ranking puts the cache flip at the top: anything sorted above
    // the store counters can only be an equally-maximal divergence
    // (relative delta 1.0 — appeared from or vanished to zero).
    for entry in &counters[..hits.max(misses)] {
        let rel = entry.get("rel").and_then(JsonValue::as_f64).unwrap_or(0.0);
        assert!(
            (rel - 1.0).abs() < 1e-9,
            "non-maximal divergence outranks the cache flip: {entry:?}"
        );
    }

    let _ = std::fs::remove_file(&cold);
    let _ = std::fs::remove_file(&warm);
    let _ = std::fs::remove_dir_all(&cache);
}
