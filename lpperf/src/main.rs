//! lpperf — end-to-end and per-layer benchmark of the Loopapalooza
//! reproduction. See README.md next to this package for the workloads,
//! the metrics and how to compare two sets of runs.
//!
//! ```text
//! lpperf run   --workload W --seed S [--seconds N] [--out F]
//! lpperf trace --workload W --seed S [--seconds N] [--out F]
//! lpperf --workload W --seed S --seconds N --trace 0|1
//! lpperf compare A.json B.json
//! ```
//!
//! `run` and `trace` print one `workload metric value unit` line per
//! metric, then one JSON result line; `--out F` adds the report, with
//! every sample, to the `lpperf-v1` document `F`.

mod alloc;
mod child;
mod compare;
mod mix;
mod report;
mod run;
mod stats;
mod trace;

use report::{Mode, Report, Workload};
use std::path::{Path, PathBuf};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Measuring time of one run when `--seconds` is not given (the
/// `run_seconds` of BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 25.0;

fn usage() -> ! {
    eprintln!(
        "usage: lpperf [run|trace] --workload figures|lattice|replay|mix --seed S \
         [--seconds N] [--trace 0|1] [--out FILE]\n\
         \x20      lpperf compare A.json B.json"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("lpperf: {msg}");
    std::process::exit(1);
}

struct Args {
    mode: Mode,
    workload: Workload,
    seed: u64,
    seconds: f64,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Args {
    let mut mode = None;
    let mut rest = args;
    if let Some(first) = args.first() {
        mode = match first.as_str() {
            "run" => Some(Mode::Run),
            "trace" => Some(Mode::Trace),
            _ => None,
        };
        if mode.is_some() {
            rest = &args[1..];
        }
    }
    let (mut workload, mut seed, mut seconds, mut out) = (None, None, DEFAULT_SECONDS, None);
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).unwrap_or_else(|| usage())),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage())),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = s,
                _ => usage(),
            },
            "--trace" => {
                let traced = match value.as_str() {
                    "0" => Mode::Run,
                    "1" => Mode::Trace,
                    _ => usage(),
                };
                if mode.is_some_and(|m| m != traced) {
                    usage();
                }
                mode = Some(traced);
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    Args {
        mode: mode.unwrap_or(Mode::Run),
        workload: workload.unwrap_or_else(|| usage()),
        seed: seed.unwrap_or_else(|| usage()),
        seconds,
        out,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else { usage() };
        match compare::compare(Path::new("BENCHMARK.json"), Path::new(a), Path::new(b)) {
            Ok(code) => std::process::exit(code),
            Err(e) => fail(&e),
        }
    }
    let args = parse(&args);
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("no executable path: {e}")));
    let bins = exe.parent().map_or_else(PathBuf::new, Path::to_path_buf);
    // Scratch files live next to the build, e.g. target/lpperf/run-mix-7/.
    let work = bins.parent().unwrap_or(&bins).join("lpperf").join(format!(
        "{}-{}-{}",
        args.mode.name(),
        args.workload.name(),
        args.seed
    ));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work)
        .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", work.display())));
    let result = match args.mode {
        Mode::Run => run::run(
            args.workload,
            args.seed,
            args.seconds,
            &run::Dirs { bins, work },
        ),
        Mode::Trace => trace::trace(args.workload, args.seed, args.seconds, &work),
    };
    let report = result.unwrap_or_else(|e| fail(&e));
    emit(&report, args.out.as_deref());
}

fn emit(report: &Report, out: Option<&Path>) {
    if let Some(path) = out {
        report::merge_into(path, report).unwrap_or_else(|e| fail(&e));
    }
    for line in report.lines() {
        println!("{line}");
    }
    println!("{}", report.result_line());
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{Metric, END_TO_END, PER_LAYER};

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_emitted_name_is_plain() {
        let names = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|&(n, _)| n)
            .chain(Workload::ALL.iter().map(|w| w.name()))
            .chain(["fail_share", "pass_cpu_s", "replay_speedup"]);
        let mut seen = std::collections::HashSet::new();
        for name in names {
            assert!(valid_name(name), "{name:?}");
            assert!(seen.insert(name), "{name:?} used twice");
        }
        for &(_, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit:?}"
            );
        }
    }

    fn sample_report(mode: Mode) -> Report {
        let catalogue: &[(&'static str, &'static str)] = match mode {
            Mode::Run => &END_TO_END,
            Mode::Trace => &PER_LAYER,
        };
        Report {
            workload: Workload::Mix,
            mode,
            seed: 3,
            attempted: 12,
            failed: 0,
            metrics: catalogue
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    unit,
                    value: 0.123_456_789,
                    samples: vec![0.1, 0.123_456_789, 2.5e-7],
                })
                .collect(),
            info: vec![("fail_share", "ratio", 0.0)],
        }
    }

    #[test]
    fn output_validates_and_carries_every_declared_metric() {
        for mode in [Mode::Run, Mode::Trace] {
            let r = sample_report(mode);
            let line = r.result_line();
            let doc = lp_obs::JsonValue::parse(&line).expect("result line is JSON");
            let keys: Vec<&str> = doc
                .entries()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = doc.get("metrics").unwrap().entries().unwrap();
            assert_eq!(metrics.len(), r.metrics.len());
            for (name, m) in metrics {
                assert_eq!(
                    m.get("value").unwrap().as_f64(),
                    Some(0.123_456_789),
                    "{name}"
                );
            }
            lp_obs::validate_json(&r.to_json()).unwrap();
            assert!(r.lines().iter().all(|l| l.split(' ').count() >= 4));
        }
    }

    #[test]
    fn reports_merge_into_one_document() {
        let path = std::env::temp_dir().join(format!("lpperf-doc-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        report::merge_into(&path, &sample_report(Mode::Run)).unwrap();
        report::merge_into(&path, &sample_report(Mode::Trace)).unwrap();
        report::merge_into(&path, &sample_report(Mode::Run)).unwrap();
        let entries = report::read_document(&path).unwrap();
        assert_eq!(entries.len(), 2, "a rerun replaces its earlier entry");
        let code = compare::compare(
            &Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
            &path,
            &path,
        )
        .unwrap();
        assert_eq!(code, 0, "a document compared with itself has nothing worse");
        let _ = std::fs::remove_file(&path);
    }
}
