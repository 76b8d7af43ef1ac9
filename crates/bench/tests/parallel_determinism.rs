//! Differential determinism tests for the per-kernel fold at the binary
//! surface: the same run with `--jobs 1`, `--jobs 2`, and `--jobs 8` must
//! produce **byte-identical** stdout — CSV from the `sweep` binary, the
//! human report from `lpstudy --suite`, and every figure and table built
//! on the fold alike — and byte-identical `--explain-out` JSON. Worker
//! scheduling may interleave stderr heartbeats, but the index-ordered
//! merge keeps every report stable.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        // The explicit --jobs flag must win over any ambient LP_JOBS.
        .env("LP_JOBS", "3")
        .env("LP_LOG", "off")
        .output()
        .expect("binary runs")
}

fn stdout_for_jobs(bin: &str, args: &[&str], jobs: &str) -> String {
    let mut full: Vec<&str> = args.to_vec();
    full.extend_from_slice(&["--jobs", jobs]);
    let out = run(bin, &full);
    assert!(
        out.status.success(),
        "{bin} --jobs {jobs} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn sweep_csv_is_byte_identical_across_job_counts() {
    let bin = env!("CARGO_BIN_EXE_sweep");
    let args = ["test", "--suite", "eembc", "--quiet"];
    let serial = stdout_for_jobs(bin, &args, "1");
    // 10 EEMBC benchmarks × 3 models × 32 configs + header.
    assert_eq!(serial.lines().count(), 1 + 10 * 3 * 32);
    assert!(serial.starts_with("program,model,config,"));
    for jobs in ["2", "8"] {
        let parallel = stdout_for_jobs(bin, &args, jobs);
        assert_eq!(serial, parallel, "sweep CSV diverged at --jobs {jobs}");
    }
}

#[test]
fn lpstudy_suite_report_is_byte_identical_across_job_counts() {
    let out = assert_explain_identical_across_job_counts(
        env!("CARGO_BIN_EXE_lpstudy"),
        "lpstudy",
        &["--suite", "eembc"],
    );
    assert!(out.contains("suite eembc — 10 benchmarks"));
    assert!(out.contains("(GEOMEAN)"));
}

/// Asserts that `bin test --quiet` prints the same bytes at jobs 1, 2
/// and 8, and returns the serial output.
fn assert_identical_across_job_counts(bin: &str, name: &str) -> String {
    let args = ["test", "--quiet"];
    let serial = stdout_for_jobs(bin, &args, "1");
    for jobs in ["2", "8"] {
        let parallel = stdout_for_jobs(bin, &args, jobs);
        assert_eq!(serial, parallel, "{name} diverged at --jobs {jobs}");
    }
    serial
}

#[test]
fn fig2_output_is_byte_identical_across_job_counts() {
    let out = assert_identical_across_job_counts(env!("CARGO_BIN_EXE_fig2"), "fig2");
    assert!(out.starts_with("Figure 2"));
}

#[test]
fn fig3_output_is_byte_identical_across_job_counts() {
    let out = assert_identical_across_job_counts(env!("CARGO_BIN_EXE_fig3"), "fig3");
    assert!(out.starts_with("Figure 3"));
}

#[test]
fn table1_output_is_byte_identical_across_job_counts() {
    let out = assert_identical_across_job_counts(env!("CARGO_BIN_EXE_table1"), "table1");
    assert!(out.starts_with("Table I"));
    assert!(out.contains("[all suites]"));
}

#[test]
fn scaling_output_is_byte_identical_across_job_counts() {
    let out = assert_identical_across_job_counts(env!("CARGO_BIN_EXE_scaling"), "scaling");
    assert!(out.starts_with("GEOMEAN speedup vs core count"));
}

/// Asserts that `bin test --quiet --explain-out F [extra]` prints the
/// same bytes and writes the same JSON at jobs 1, 2 and 8, and returns
/// the serial stdout.
fn assert_explain_identical_across_job_counts(bin: &str, name: &str, extra: &[&str]) -> String {
    let dir = std::env::temp_dir().join(format!("lp-{name}-jobs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let mut outputs: Vec<(String, Vec<u8>)> = Vec::new();
    for jobs in ["1", "2", "8"] {
        let json = dir.join(format!("explain-{jobs}.json"));
        let json_arg = json.to_str().expect("utf-8 path").to_string();
        let mut args = vec!["test", "--quiet", "--explain-out", &json_arg];
        args.extend_from_slice(extra);
        let stdout = stdout_for_jobs(bin, &args, jobs);
        let bytes = std::fs::read(&json).expect("explain JSON written");
        outputs.push((stdout, bytes));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let (serial_stdout, serial_json) = &outputs[0];
    assert!(serial_json.starts_with(b"{\"attributions\":[{"));
    for (i, jobs) in ["2", "8"].iter().enumerate() {
        let (stdout, json) = &outputs[i + 1];
        assert_eq!(
            stdout, serial_stdout,
            "{name} stdout diverged at --jobs {jobs}"
        );
        assert_eq!(
            json, serial_json,
            "{name} explain JSON diverged at --jobs {jobs}"
        );
    }
    outputs.swap_remove(0).0
}

#[test]
fn fig4_and_explain_json_are_byte_identical_across_job_counts() {
    let out = assert_explain_identical_across_job_counts(env!("CARGO_BIN_EXE_fig4"), "fig4", &[]);
    assert!(out.starts_with("Figure 4"));
}

#[test]
fn fig5_and_explain_json_are_byte_identical_across_job_counts() {
    let out = assert_explain_identical_across_job_counts(env!("CARGO_BIN_EXE_fig5"), "fig5", &[]);
    assert!(out.starts_with("Figure 5"));
}

#[test]
fn jobs_flag_rejects_garbage() {
    let bin = env!("CARGO_BIN_EXE_sweep");
    for bad in [&["--jobs"][..], &["--jobs", "many"]] {
        let mut args = vec!["test", "--suite", "eembc", "--quiet"];
        args.extend_from_slice(bad);
        let out = run(bin, &args);
        assert_eq!(out.status.code(), Some(2), "args {bad:?} must be rejected");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--jobs requires a non-negative integer"),
            "args {bad:?} must explain the usage"
        );
    }
}

#[test]
fn jobs_zero_clamps_to_serial_with_warning() {
    // An explicit `--jobs 0` is degenerate but not an error: it runs the
    // serial engine (identical output to `--jobs 1`) and warns.
    let bin = env!("CARGO_BIN_EXE_sweep");
    let args = ["test", "--suite", "eembc", "--quiet"];
    let serial = stdout_for_jobs(bin, &args, "1");
    // No --quiet here: the clamp warning must be visible on stderr.
    let out = Command::new(bin)
        .args(["test", "--suite", "eembc", "--jobs", "0"])
        .env("LP_JOBS", "3")
        .env("LP_LOG", "info")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "--jobs 0 must not be an error");
    assert_eq!(
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        serial,
        "--jobs 0 must take the serial path"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("clamping to 1 worker"),
        "--jobs 0 must warn about the clamp"
    );
}

#[test]
fn lp_jobs_zero_env_clamps_to_serial_with_warning() {
    let bin = env!("CARGO_BIN_EXE_sweep");
    let args = ["test", "--suite", "eembc", "--quiet"];
    let serial = stdout_for_jobs(bin, &args, "1");
    // No --quiet here: the clamp warning must be visible on stderr.
    let out = Command::new(bin)
        .args(["test", "--suite", "eembc"])
        .env("LP_JOBS", "0")
        .env("LP_LOG", "info")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "LP_JOBS=0 must not be an error");
    assert_eq!(
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        serial,
        "LP_JOBS=0 must take the serial path"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("LP_JOBS=0 requested; clamping to 1 worker"),
        "LP_JOBS=0 must warn about the clamp"
    );
}

#[test]
fn sweep_rejects_unknown_suite() {
    let bin = env!("CARGO_BIN_EXE_sweep");
    let out = run(bin, &["test", "--suite", "nope", "--quiet"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown suite"));
}
