//! Pins the command-line contract of every experiment binary (the
//! `FlagSpec` table): unknown or misplaced flags exit with status 2 and
//! the exact historical diagnostics. A drift here breaks scripts that
//! drive the binaries, so the messages are asserted byte-for-byte.

use std::process::{Command, Output};

/// The explain-capable binaries (per `FLAG_SPECS`).
const EXPLAIN_OK: &[&str] = &["lpstudy", "fig4", "fig5"];

/// Binary name → path, via the paths Cargo bakes into integration tests.
fn exe(binary: &str) -> &'static str {
    match binary {
        "table1" => env!("CARGO_BIN_EXE_table1"),
        "table2" => env!("CARGO_BIN_EXE_table2"),
        "fig1" => env!("CARGO_BIN_EXE_fig1"),
        "fig2" => env!("CARGO_BIN_EXE_fig2"),
        "fig3" => env!("CARGO_BIN_EXE_fig3"),
        "fig4" => env!("CARGO_BIN_EXE_fig4"),
        "fig5" => env!("CARGO_BIN_EXE_fig5"),
        "ablations" => env!("CARGO_BIN_EXE_ablations"),
        "scaling" => env!("CARGO_BIN_EXE_scaling"),
        "sweep" => env!("CARGO_BIN_EXE_sweep"),
        "lpstudy" => env!("CARGO_BIN_EXE_lpstudy"),
        "lpbench" => env!("CARGO_BIN_EXE_lpbench"),
        other => panic!("unknown binary {other:?}"),
    }
}

fn run(binary: &str, args: &[&str]) -> Output {
    Command::new(exe(binary))
        .args(args)
        .env("LP_LOG", "off")
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {binary}: {e}"))
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("stderr is UTF-8")
}

#[test]
fn unknown_argument_exits_2_with_the_pinned_message() {
    let rejecting = [
        "table1",
        "table2",
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "ablations",
        "scaling",
    ];
    // A retired flag is as unknown as any other.
    for binary in rejecting {
        for args in [&["--bogus"][..], &["--sample-hz", "997"][..]] {
            let out = run(binary, args);
            assert_eq!(out.status.code(), Some(2), "{binary} {args:?}");
            assert_eq!(
                stderr_of(&out),
                format!(
                    "unknown argument {:?} (expected test|small|default, --jobs N, \
                     --engine tree|bc, --trace-out FILE, --explain-out FILE, \
                     --profile-cache DIR, --flight-out FILE, --snapshot-out FILE, --quiet)\n",
                    args[0]
                ),
                "{binary} {args:?}"
            );
        }
    }
}

#[test]
fn explain_out_is_rejected_where_unsupported() {
    let all = [
        "table1",
        "table2",
        "fig1",
        "fig2",
        "fig3",
        "ablations",
        "scaling",
        "sweep",
    ];
    for binary in all {
        assert!(!EXPLAIN_OK.contains(&binary));
        let out = run(binary, &["--explain-out", "/tmp/never-written.json"]);
        assert_eq!(out.status.code(), Some(2), "{binary}");
        assert_eq!(
            stderr_of(&out),
            format!("{binary} does not support --explain-out (use lpstudy, fig4, or fig5)\n"),
        );
    }
}

#[test]
fn sweep_rejects_extras_with_its_own_positional_list() {
    for args in [&["--bogus"][..], &["--sample-hz", "997"][..]] {
        let out = run("sweep", args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert_eq!(
            stderr_of(&out),
            format!(
                "unknown argument {:?} (expected test|small|default, --suite NAME, \
                 --jobs N, --engine tree|bc, --trace-out FILE, --profile-cache DIR, \
                 --flight-out FILE, --snapshot-out FILE, --quiet)\n",
                args[0]
            ),
            "{args:?}"
        );
    }
}

#[test]
fn lpstudy_and_lpbench_reject_unknown_input_with_exit_2() {
    for (binary, args, prefix) in [
        ("lpstudy", &["--bogus"][..], "usage: lpstudy"),
        // Removed subcommands: lpstudy reads a bare word as a kernel
        // file, lpbench accepts no bare word.
        (
            "lpstudy",
            &["dispatch-heat"][..],
            "cannot read dispatch-heat: ",
        ),
        ("lpbench", &["trend"][..], "usage: lpbench"),
    ] {
        let out = run(binary, args);
        assert_eq!(out.status.code(), Some(2), "{binary} {args:?}");
        let err = stderr_of(&out);
        assert!(err.starts_with(prefix), "{binary} {args:?} got: {err}");
        if prefix.starts_with("usage:") {
            assert!(err.contains("--jobs N"), "got: {err}");
        }
    }
}

/// Runs `lpbench test --bench eembc.matrix01 --reps REPS` and returns
/// its report's text.
fn lpbench_report(reps: &str) -> String {
    let path = std::env::temp_dir().join(format!("lp-lpbench-{}-{reps}.json", std::process::id()));
    let out = run(
        "lpbench",
        &[
            "test",
            "--bench",
            "eembc.matrix01",
            "--reps",
            reps,
            "--out",
            path.to_str().unwrap(),
            "--quiet",
        ],
    );
    assert!(out.status.success(), "lpbench: {}", stderr_of(&out));
    let text = std::fs::read_to_string(&path).expect("--out writes the report");
    let _ = std::fs::remove_file(&path);
    text
}

#[test]
fn lpbench_report_records_a_positive_rep_count() {
    let text = lpbench_report("1");
    let doc = lp_obs::JsonValue::parse(&text).expect("report is JSON");
    assert_eq!(doc.get("reps").and_then(|v| v.as_u64()), Some(1));
    let counters = doc.get("counters").and_then(|c| c.entries()).unwrap();
    assert!(!counters.is_empty(), "counters must ride along");
    let total = |text: &str, key: &str| {
        lp_obs::JsonValue::parse(text)
            .expect("report is JSON")
            .get("totals")
            .and_then(|t| t.get(key))
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("totals.{key} missing: {text}"))
    };
    assert!(
        total(&text, "profile_mips") > 0.0,
        "throughput missing: {text}"
    );

    // The timing claim takes the best of five reps per side. One rep of
    // each is a few milliseconds, and the tests running beside this one
    // can preempt the interpreter's single rep for longer than the
    // profiler's whole cost.
    let text = lpbench_report("5");
    assert!(
        total(&text, "interp_mips") > total(&text, "profile_mips"),
        "profiling must cost something: {text}"
    );

    // Zero reps measure nothing; the report must never claim them.
    for reps in ["0", "many"] {
        let out = run("lpbench", &["test", "--reps", reps, "--quiet"]);
        assert_eq!(out.status.code(), Some(2), "--reps {reps}");
        assert_eq!(
            stderr_of(&out),
            "--reps requires a positive integer argument\n"
        );
    }
}

#[test]
fn flags_missing_their_operand_exit_2() {
    for (args, message) in [
        (
            &["--profile-cache"][..],
            "--profile-cache requires a directory argument\n",
        ),
        (
            &["--trace-out"][..],
            "--trace-out requires a file argument\n",
        ),
        (
            &["--jobs", "zero"][..],
            "--jobs requires a non-negative integer argument\n",
        ),
        (
            &["--flight-out"][..],
            "--flight-out requires a file argument\n",
        ),
        (
            &["--snapshot-out"][..],
            "--snapshot-out requires a file argument\n",
        ),
        (
            &["--engine"][..],
            "--engine requires an argument (tree|bc)\n",
        ),
        (
            &["--engine", "llvm"][..],
            "--engine \"llvm\" is not an engine (expected tree|bc)\n",
        ),
    ] {
        let out = run("fig1", args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert_eq!(stderr_of(&out), message, "{args:?}");
    }
}

#[test]
fn quiet_silences_stderr_byte_exactly_across_every_binary() {
    // --quiet must suppress heartbeats and lp_warn! alike, in every one
    // of the 12 binaries. The profile cache is pointed at a regular
    // file, so ProfileStore::open fails and emits an lp_warn! — a quiet
    // run must swallow even that.
    let dir = std::env::temp_dir();
    let bad_cache = dir.join(format!("lp-quiet-cache-{}", std::process::id()));
    std::fs::write(&bad_cache, b"not a directory").unwrap();
    let cache = bad_cache.to_str().unwrap().to_string();

    let standard = [
        "table1",
        "table2",
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "ablations",
        "scaling",
    ];
    let mut invocations: Vec<(&str, Vec<String>)> = standard
        .iter()
        .map(|&b| {
            let args = ["test", "--quiet", "--profile-cache", &cache]
                .map(String::from)
                .to_vec();
            (b, args)
        })
        .collect();
    invocations.push((
        "sweep",
        [
            "test",
            "--suite",
            "eembc",
            "--quiet",
            "--profile-cache",
            &cache,
        ]
        .map(String::from)
        .to_vec(),
    ));
    invocations.push((
        "lpstudy",
        ["--bench", "eembc.matrix01", "--quiet"]
            .map(String::from)
            .to_vec(),
    ));
    invocations.push((
        "lpbench",
        [
            "test",
            "--bench",
            "eembc.matrix01",
            "--reps",
            "1",
            "--quiet",
        ]
        .map(String::from)
        .to_vec(),
    ));
    assert_eq!(invocations.len(), 12, "cover every binary");

    for (binary, args) in &invocations {
        let out = Command::new(exe(binary))
            .args(args)
            .env_remove("LP_LOG")
            .output()
            .unwrap_or_else(|e| panic!("cannot spawn {binary}: {e}"));
        assert!(
            out.status.success(),
            "{binary} failed under --quiet: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            out.stderr,
            b"",
            "{binary} wrote to stderr under --quiet: {:?}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_file(&bad_cache);
}

#[test]
fn snapshot_out_names_every_counter_and_hist() {
    let path = std::env::temp_dir().join(format!("lp-snapshot-{}.json", std::process::id()));
    let out = run(
        "fig1",
        &["test", "--quiet", "--snapshot-out", path.to_str().unwrap()],
    );
    assert!(out.status.success(), "fig1: {}", stderr_of(&out));
    let snap = lp_obs::RunSnapshot::read(&path).expect("--snapshot-out must be a valid snapshot");
    let _ = std::fs::remove_file(&path);
    assert_eq!(snap.process, "fig1");
    for (_, name) in lp_obs::Counter::ALL {
        assert!(
            snap.counters.iter().any(|(n, _)| *n == name),
            "counter {name} missing from snapshot"
        );
    }
    for (_, name) in lp_obs::Hist::ALL {
        assert!(
            snap.hist(name).is_some(),
            "histogram {name} missing from snapshot"
        );
    }
}

/// `ablations` profiles with the cactus stack off as well as on, which
/// the figure binaries never do; its snapshot must satisfy every
/// conservation law too.
#[test]
fn cactus_off_ablations_snapshot_passes_the_audit() {
    let path = std::env::temp_dir().join(format!("lp-ablations-{}.json", std::process::id()));
    let path = path.to_str().unwrap();
    let out = run("ablations", &["test", "--quiet", "--snapshot-out", path]);
    assert!(out.status.success(), "ablations: {}", stderr_of(&out));
    let audit = run("lpstudy", &["audit", path]);
    let _ = std::fs::remove_file(path);
    let report = String::from_utf8(audit.stdout).expect("audit report is UTF-8");
    assert_eq!(audit.status.code(), Some(0), "{report}");
    assert!(report.ends_with(" 0 failed\n"), "{report}");
}

#[test]
fn sweep_into_a_closed_pipe_ends_quietly_and_still_finishes() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let trace = std::env::temp_dir().join(format!("lp-sweep-pipe-{}.json", std::process::id()));
    let mut child = Command::new(exe("sweep"))
        .args(["test", "--quiet", "--trace-out", trace.to_str().unwrap()])
        .env("LP_LOG", "off")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sweep");
    // Read the header, then close the pipe: the rows that follow are far
    // more than a pipe buffer holds, so the writer must meet EPIPE.
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read the header");
    assert!(first.starts_with("program,model,config,"), "{first:?}");
    let out = child.wait_with_output().expect("wait for sweep");
    let stderr = stderr_of(&out);
    assert!(
        out.status.success(),
        "sweep exited {}: {stderr}",
        out.status
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    // `cli.finish` still ran: the trace exists and covers the export.
    let json = std::fs::read_to_string(&trace).expect("--trace-out written");
    let _ = std::fs::remove_file(&trace);
    assert!(json.contains("\"name\":\"export\""), "no export span");
}
