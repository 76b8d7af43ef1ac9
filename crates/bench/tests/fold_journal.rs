//! The flight journal of a benchmark fold: every finished kernel leaves
//! one `kernel_folded` record carrying its index, whether the kernels ran
//! serially or on workers, so a dump cut mid-run says how far it got.

use lp_obs::export::JsonValue;
use std::process::Command;

/// `(index, total)` of every `kernel_folded` record that
/// `lpstudy --suite eembc test --jobs N` leaves in its flight dump.
fn folded_kernels(jobs: &str) -> Vec<(u64, u64)> {
    let dump =
        std::env::temp_dir().join(format!("lp-fold-flight-{}-{jobs}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_lpstudy"))
        .args(["--suite", "eembc", "test", "--quiet", "--jobs", jobs])
        .arg("--flight-out")
        .arg(&dump)
        .env("LP_LOG", "off")
        .output()
        .expect("spawn lpstudy");
    assert!(
        out.status.success(),
        "lpstudy failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&dump).expect("flight dump written");
    let _ = std::fs::remove_file(&dump);
    let doc = JsonValue::parse(&text).expect("flight dump is JSON");
    let field = |r: &JsonValue, key: &str| r.get(key).and_then(JsonValue::as_u64).expect(key);
    doc.get("records")
        .and_then(JsonValue::as_array)
        .expect("records array")
        .iter()
        .filter(|r| r.get("kind").and_then(JsonValue::as_str) == Some("kernel_folded"))
        .map(|r| (field(r, "a"), field(r, "b")))
        .collect()
}

#[test]
fn every_kernel_of_a_fold_is_journaled_at_any_job_count() {
    for jobs in ["1", "4"] {
        let mut folded = folded_kernels(jobs);
        // Workers finish in any order; the serial fold goes in order.
        if jobs == "1" {
            assert!(folded.windows(2).all(|w| w[0].0 < w[1].0), "{folded:?}");
        }
        folded.sort_unstable();
        let want: Vec<(u64, u64)> = (0..10).map(|i| (i, 10)).collect();
        assert_eq!(folded, want, "--jobs {jobs}");
    }
}
