//! `lpperf run`: the end-to-end metrics, measured from outside with tracing
//! off. Each workload is a list of child runs of the unmodified release
//! binaries; a pass runs the list once, one child at a time, and checks
//! every child's output.

use crate::child::{self, Outcome};
use crate::mix::{self, SplitMix64};
use crate::report::{Metric, Mode, Report, Workload, END_TO_END};
use crate::stats;
use lp_obs::JsonValue;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How many times set-up runs; `setup_s` is the median.
const SETUPS: usize = 5;

/// Hard stop for the timed passes, whatever `--seconds` and
/// [`stats::MIN_PASSES`] ask, so a run ends well inside three minutes
/// even on a badly regressed build.
const PASS_CAP: Duration = Duration::from_secs(120);

/// The figure and table binaries, as in the "Reproducing everything"
/// loop of EXPERIMENTS.md.
const FIGURES: [&str; 8] = [
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "table1",
    "table2",
    "ablations",
];

/// How many times one pass runs the workload's list of children. The
/// short workloads repeat it, so that every pass takes close to a second.
/// The shared host has slow phases of a second or more; with passes that
/// long, one phase slows few passes, and `pass_tail_s`, which has ten
/// passes beyond it, does not swing with every phase.
fn repeats(workload: Workload) -> usize {
    match workload {
        Workload::Figures | Workload::Mix => 1,
        Workload::Lattice => 3,
        Workload::Replay => 4,
    }
}

/// Where `lattice` keeps its profile stores, under the scratch directory.
const STORES: &str = "stores";

/// What `lpstudy replay --suite eembc` must report at default scale.
const REPLAY_SUMMARY: &str =
    "replay: 37 loop(s) certified and replayed, 22 rejected, 0 divergence(s)";

/// Where a run finds the binaries and keeps its files.
#[derive(Debug, Clone)]
pub struct Dirs {
    /// Directory of the release binaries (the one `lpperf` runs from).
    pub bins: PathBuf,
    /// Scratch directory of this run.
    pub work: PathBuf,
}

enum Expect {
    /// Exit status 0 is all that is checked (the `mix` oracle runs).
    Success,
    /// Stdout must equal these bytes.
    Bytes(Vec<u8>),
    /// The replay summary line, and the predicted speedups of the first
    /// set-up run (`None` while that run has not happened).
    Replay {
        out: PathBuf,
        predicted: Option<Vec<String>>,
    },
}

struct Job {
    label: String,
    program: PathBuf,
    args: Vec<String>,
    expect: Expect,
}

/// Child runs attempted and failed so far.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn fail(&mut self, label: &str, why: &str) {
        self.failed += 1;
        eprintln!("lpperf: {label}: {why}");
    }
}

/// What a checked child run yields besides pass/fail.
struct Ran {
    outcome: Option<Outcome>,
    /// Replay only: Σ serial / Σ parallel over the replayed loops.
    speedup: Option<f64>,
}

fn exec(job: &mut Job, tally: &mut Tally) -> Ran {
    tally.attempted += 1;
    let outcome = match child::run(&job.program, &job.args) {
        Ok(o) => o,
        Err(e) => {
            tally.fail(&job.label, &e);
            return Ran {
                outcome: None,
                speedup: None,
            };
        }
    };
    let mut speedup = None;
    let verdict = if outcome.succeeded() {
        match &mut job.expect {
            Expect::Success => Ok(()),
            Expect::Bytes(want) if outcome.stdout == *want => Ok(()),
            Expect::Bytes(_) => Err("stdout differs from the expected bytes".to_string()),
            Expect::Replay { out, predicted } => {
                check_replay(&outcome.stdout, out, predicted).map(|s| speedup = Some(s))
            }
        }
    } else {
        Err(format!("exit status {:?}", outcome.code))
    };
    if let Err(why) = verdict {
        tally.fail(&job.label, &why);
    }
    Ran {
        outcome: Some(outcome),
        speedup,
    }
}

/// Checks one replay child: summary line, and predicted speedups equal to
/// the first set-up run's (recorded on the first call). Returns the
/// measured Σ serial / Σ parallel ratio.
fn check_replay(
    stdout: &[u8],
    out: &Path,
    predicted: &mut Option<Vec<String>>,
) -> Result<f64, String> {
    let text = String::from_utf8_lossy(stdout);
    if text.lines().last() != Some(REPLAY_SUMMARY) {
        return Err(format!("last line is not {REPLAY_SUMMARY:?}"));
    }
    let json = std::fs::read_to_string(out).map_err(|e| format!("replay document: {e}"))?;
    let doc = JsonValue::parse(&json).map_err(|e| format!("replay document: {e}"))?;
    let loops: Vec<&JsonValue> = doc
        .get("benchmarks")
        .and_then(JsonValue::as_array)
        .unwrap_or_default()
        .iter()
        .flat_map(|b| {
            b.get("loops")
                .and_then(JsonValue::as_array)
                .unwrap_or_default()
        })
        .collect();
    let raw = |l: &JsonValue, key: &str| match l.get(key) {
        Some(JsonValue::Num(n)) => n.clone(),
        _ => String::new(),
    };
    let speedups: Vec<String> = loops.iter().map(|l| raw(l, "predicted_speedup")).collect();
    match predicted {
        None => *predicted = Some(speedups),
        Some(first) if *first == speedups => {}
        Some(_) => return Err("predicted speedups differ from the warm-up pass".to_string()),
    }
    let sum = |key: &str| -> f64 {
        loops
            .iter()
            .filter_map(|l| l.get(key).and_then(JsonValue::as_f64))
            .sum()
    };
    Ok(sum("serial_ns") / sum("parallel_ns").max(1.0))
}

fn arg_list(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| (*s).to_string()).collect()
}

/// Set-up durations and the jobs every timed pass runs.
struct Prepared {
    setup_secs: Vec<f64>,
    jobs: Vec<Job>,
}

fn golden(name: &str) -> Result<Vec<u8>, String> {
    let path = Path::new("results").join(name);
    std::fs::read(&path).map_err(|e| {
        format!(
            "cannot read {} ({e}); run lpperf from the repository root",
            path.display()
        )
    })
}

fn timed(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

fn prepare(
    workload: Workload,
    seed: u64,
    dirs: &Dirs,
    tally: &mut Tally,
) -> Result<Prepared, String> {
    let bin = |name: &str| dirs.bins.join(name);
    let mut setup_secs = Vec::with_capacity(SETUPS);
    let jobs = match workload {
        Workload::Figures => {
            // Set-up is a warm-up pass.
            let mut jobs = Vec::new();
            for b in FIGURES {
                jobs.push(Job {
                    label: b.to_string(),
                    program: bin(b),
                    args: arg_list(&["default", "--jobs", "1", "--quiet"]),
                    expect: Expect::Bytes(golden(&format!("{b}.txt"))?),
                });
            }
            for _ in 0..SETUPS {
                setup_secs.push(timed(|| jobs.iter_mut().for_each(|j| drop(exec(j, tally)))));
            }
            jobs
        }
        Workload::Lattice => {
            // Set-up fills a fresh profile store cold; the passes only
            // read it.
            let csv = golden("sweep.csv")?;
            let sweep = |dir: &Path| Job {
                label: "sweep".to_string(),
                program: bin("sweep"),
                args: vec![
                    "default".into(),
                    "--jobs".into(),
                    "1".into(),
                    "--quiet".into(),
                    "--profile-cache".into(),
                    dir.display().to_string(),
                ],
                expect: Expect::Bytes(csv.clone()),
            };
            let mut dir = PathBuf::new();
            for i in 0..SETUPS {
                if i > 0 {
                    let _ = std::fs::remove_dir_all(&dir);
                }
                dir = dirs.work.join(STORES).join(i.to_string());
                let mut fill = sweep(&dir);
                setup_secs.push(timed(|| drop(exec(&mut fill, tally))));
            }
            vec![sweep(&dir)]
        }
        Workload::Replay => {
            let out = dirs.work.join("replay.json");
            let mut job = Job {
                label: "lpstudy replay".to_string(),
                program: bin("lpstudy"),
                args: vec![
                    "replay".into(),
                    "default".into(),
                    "--suite".into(),
                    "eembc".into(),
                    "--jobs".into(),
                    "2".into(),
                    "--quiet".into(),
                    "--replay-out".into(),
                    out.display().to_string(),
                ],
                expect: Expect::Replay {
                    out,
                    predicted: None,
                },
            };
            for _ in 0..SETUPS {
                setup_secs.push(timed(|| drop(exec(&mut job, tally))));
            }
            vec![job]
        }
        Workload::Mix => {
            // Set-up generates the kernels, writes their text, and records
            // the reference engine's output as the oracle.
            let kernels_dir = dirs.work.join("mix");
            std::fs::create_dir_all(&kernels_dir)
                .map_err(|e| format!("cannot create {}: {e}", kernels_dir.display()))?;
            let mut jobs: Vec<Job> = Vec::new();
            for round in 0..SETUPS {
                let t0 = Instant::now();
                let mut round_jobs = Vec::new();
                for k in mix::generate(seed, 0) {
                    let path = kernels_dir.join(format!("{}.lp", k.name));
                    std::fs::write(&path, &k.text)
                        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                    let file = path.display().to_string();
                    let study = |extra: &[&str]| {
                        let mut args =
                            vec![file.clone(), "--quiet".into(), "--jobs".into(), "1".into()];
                        args.extend(extra.iter().map(|s| (*s).to_string()));
                        args
                    };
                    let mut oracle = Job {
                        label: format!("{} --engine tree", k.name),
                        program: bin("lpstudy"),
                        args: study(&["--engine", "tree"]),
                        expect: Expect::Success,
                    };
                    let expected = exec(&mut oracle, tally)
                        .outcome
                        .filter(Outcome::succeeded)
                        .map(|o| o.stdout)
                        .unwrap_or_default();
                    round_jobs.push(Job {
                        label: k.name.clone(),
                        program: bin("lpstudy"),
                        args: study(&[]),
                        expect: Expect::Bytes(expected),
                    });
                }
                setup_secs.push(t0.elapsed().as_secs_f64());
                if round == 0 {
                    jobs = round_jobs;
                } else if round_jobs
                    .iter()
                    .zip(&jobs)
                    .any(|(a, b)| !same_expect(a, b))
                {
                    tally.fail(
                        "mix set-up",
                        "regeneration gave different kernels or oracle output",
                    );
                }
            }
            jobs
        }
    };
    Ok(Prepared { setup_secs, jobs })
}

fn same_expect(a: &Job, b: &Job) -> bool {
    match (&a.expect, &b.expect) {
        (Expect::Bytes(x), Expect::Bytes(y)) => x == y && a.args == b.args,
        _ => false,
    }
}

/// One timed pass.
struct Pass {
    secs: f64,
    peak_kb: u64,
    cpu_s: f64,
    speedup: Option<f64>,
}

/// Runs `workload` end to end: set-up, one discarded warm-up pass, then
/// timed passes for `seconds` (and at least [`stats::MIN_PASSES`]).
///
/// # Errors
/// Returns a message when the run cannot start: a missing golden file or
/// an unwritable scratch directory. Failing children are counted, not
/// errors.
pub fn run(workload: Workload, seed: u64, seconds: f64, dirs: &Dirs) -> Result<Report, String> {
    let mut tally = Tally::default();
    let Prepared {
        setup_secs,
        mut jobs,
    } = prepare(workload, seed, dirs, &mut tally)?;
    // The seed shuffles the order of each pass's children.
    let mut rng = SplitMix64::new(seed);
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    let mut warm = true;
    loop {
        let t0 = Instant::now();
        let mut pass = Pass {
            secs: 0.0,
            peak_kb: 0,
            cpu_s: 0.0,
            speedup: None,
        };
        for _ in 0..repeats(workload) {
            rng.shuffle(&mut order);
            for &j in &order {
                let ran = exec(&mut jobs[j], &mut tally);
                if let Some(o) = ran.outcome {
                    pass.peak_kb = pass.peak_kb.max(o.maxrss_kb);
                    pass.cpu_s += o.cpu_s;
                }
                pass.speedup = pass.speedup.or(ran.speedup);
            }
        }
        pass.secs = t0.elapsed().as_secs_f64();
        if warm {
            warm = false;
        } else {
            passes.push(pass);
        }
        let elapsed = start.elapsed();
        if (elapsed.as_secs_f64() >= seconds && passes.len() >= stats::MIN_PASSES)
            || elapsed >= PASS_CAP
        {
            break;
        }
    }
    // The store is the only large scratch file; kernels and documents stay
    // for inspection.
    let _ = std::fs::remove_dir_all(dirs.work.join(STORES));
    let secs: Vec<f64> = passes.iter().map(|p| p.secs).collect();
    let peaks: Vec<f64> = passes.iter().map(|p| p.peak_kb as f64 / 1024.0).collect();
    let values = [
        (stats::median(&setup_secs), setup_secs.clone()),
        (stats::median(&secs), secs.clone()),
        // Below MIN_PASSES (only when PASS_CAP cut the run short) the
        // slowest pass stands in for the tail.
        (
            stats::tail(&secs).or_else(|| secs.iter().copied().reduce(f64::max)),
            secs.clone(),
        ),
        (stats::median(&peaks), peaks),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| Metric {
            name,
            unit,
            value: value.unwrap_or(0.0),
            samples,
        })
        .collect();
    let cpu: Vec<f64> = passes.iter().map(|p| p.cpu_s).collect();
    let mut info = vec![
        (
            "fail_share",
            "ratio",
            tally.failed as f64 / tally.attempted.max(1) as f64,
        ),
        ("pass_cpu_s", "s", stats::median(&cpu).unwrap_or(0.0)),
    ];
    let speedups: Vec<f64> = passes.iter().filter_map(|p| p.speedup).collect();
    if let Some(s) = stats::median(&speedups) {
        info.push(("replay_speedup", "x", s));
    }
    Ok(Report {
        workload,
        mode: Mode::Run,
        seed,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        info,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_golden_byte_counts_as_a_failure() {
        let mut golden = b"golden output\n".to_vec();
        let mut job = Job {
            label: "echo".to_string(),
            program: PathBuf::from("sh"),
            args: arg_list(&["-c", "printf 'golden output\\n'"]),
            expect: Expect::Bytes(golden.clone()),
        };
        let mut tally = Tally::default();
        exec(&mut job, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (1, 0));
        golden[3] ^= 1;
        job.expect = Expect::Bytes(golden);
        let ran = exec(&mut job, &mut tally);
        assert!(ran.outcome.is_some_and(|o| o.succeeded()));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }

    #[test]
    fn a_failing_exit_status_counts_as_a_failure() {
        let mut job = Job {
            label: "false".to_string(),
            program: PathBuf::from("sh"),
            args: arg_list(&["-c", "exit 1"]),
            expect: Expect::Bytes(Vec::new()),
        };
        let mut tally = Tally::default();
        exec(&mut job, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (1, 1));
    }
}
