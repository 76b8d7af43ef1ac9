//! # lp-bench — experiment regeneration harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §5):
//!
//! | target | regenerates |
//! |---|---|
//! | `table1` | Table I (ordering-constraint census) |
//! | `table2` | Table II (configuration flags) |
//! | `fig1` | Fig. 1 (execution-model timelines) |
//! | `fig2` | Fig. 2 (GEOMEAN speedups, non-numeric) |
//! | `fig3` | Fig. 3 (GEOMEAN speedups, numeric) |
//! | `fig4` | Fig. 4 (per-benchmark best PDOALL vs best HELIX) |
//! | `fig5` | Fig. 5 (dynamic coverage) |
//! | `ablations` | DESIGN.md ablations (cactus stack, DOACROSS deltas, predictors) |
//!
//! Every binary accepts an optional scale argument (`test`, `small`,
//! `default`), a `--jobs N` worker count for the per-kernel fold
//! (default: `LP_JOBS` or the machine's available parallelism; output is
//! byte-identical for any value), a `--profile-cache DIR` persistent
//! profile store (see `lp_runtime::store`; without the flag no store is
//! used), plus the shared observability flags
//! `--trace-out FILE` (Chrome `trace_event` JSON), `--explain-out FILE`
//! (limiter-attribution JSON, where supported), `--snapshot-out FILE`
//! (cross-run registry snapshot, diffable with `lpstudy diff`), and
//! `--quiet`; the
//! `LP_LOG` environment variable (`off`, `info`, `debug`) filters
//! progress output.

#![forbid(unsafe_code)]

use loopapalooza::Study;
use lp_obs::{lp_debug, lp_info, lp_warn, EventKind};
use lp_runtime::{
    Attribution, Config, EvalReport, ExecModel, Export, Jobs, Profile, ProfileStore, StoreMode,
};
use lp_suite::{Benchmark, Scale, SuiteId};
use std::path::{Path, PathBuf};

/// How a binary treats arguments the shared [`Cli`] parser did not
/// consume (see [`FlagSpec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtraArgs {
    /// Leftover arguments are a usage error (exit 2).
    Rejected,
    /// Leftover arguments are the binary's own positionals ([`Cli::rest`]).
    Passthrough,
}

/// Declarative per-binary command-line contract. One row per experiment
/// binary, checked by [`Cli::enforce`] — replacing the old ad-hoc
/// `reject_explain_out` / `expect_no_extra_args` call pairs whose
/// correctness depended on call order in every `main`.
#[derive(Debug, Clone, Copy)]
pub struct FlagSpec {
    /// Binary name as invoked (and as printed in usage errors).
    pub binary: &'static str,
    /// Whether the binary has a limiter attribution to export
    /// (`--explain-out`).
    pub explain_out: bool,
    /// What happens to unconsumed arguments.
    pub extra: ExtraArgs,
}

/// The command-line contract of every experiment binary, in one place.
pub const FLAG_SPECS: &[FlagSpec] = &[
    FlagSpec {
        binary: "table1",
        explain_out: false,
        extra: ExtraArgs::Rejected,
    },
    FlagSpec {
        binary: "table2",
        explain_out: false,
        extra: ExtraArgs::Rejected,
    },
    FlagSpec {
        binary: "fig1",
        explain_out: false,
        extra: ExtraArgs::Rejected,
    },
    FlagSpec {
        binary: "fig2",
        explain_out: false,
        extra: ExtraArgs::Rejected,
    },
    FlagSpec {
        binary: "fig3",
        explain_out: false,
        extra: ExtraArgs::Rejected,
    },
    FlagSpec {
        binary: "fig4",
        explain_out: true,
        extra: ExtraArgs::Rejected,
    },
    FlagSpec {
        binary: "fig5",
        explain_out: true,
        extra: ExtraArgs::Rejected,
    },
    FlagSpec {
        binary: "ablations",
        explain_out: false,
        extra: ExtraArgs::Rejected,
    },
    FlagSpec {
        binary: "scaling",
        explain_out: false,
        extra: ExtraArgs::Rejected,
    },
    FlagSpec {
        binary: "sweep",
        explain_out: false,
        extra: ExtraArgs::Passthrough,
    },
    FlagSpec {
        binary: "lpstudy",
        explain_out: true,
        extra: ExtraArgs::Passthrough,
    },
    FlagSpec {
        binary: "lpbench",
        explain_out: false,
        extra: ExtraArgs::Passthrough,
    },
];

impl FlagSpec {
    /// Looks up the contract of one binary.
    #[must_use]
    pub fn of(binary: &str) -> Option<&'static FlagSpec> {
        FLAG_SPECS.iter().find(|s| s.binary == binary)
    }
}

/// Shared command line of the experiment binaries: an optional scale
/// positional (`test`, `small`, `default`) plus the observability flags.
/// Anything unrecognized lands in [`Cli::rest`]; each binary's
/// [`FlagSpec`] (enforced via [`Cli::enforce`]) says whether that is a
/// usage error or its own positionals (`lpstudy`, `sweep`).
#[derive(Debug, Clone)]
pub struct Cli {
    /// Benchmark scale (default [`Scale::Default`]).
    pub scale: Scale,
    /// Where to write the Chrome `trace_event` JSON, if requested.
    pub trace_out: Option<PathBuf>,
    /// Where to write the limiter-attribution JSON (`--explain-out`), if
    /// requested. Binaries that support it also write a
    /// flamegraph-compatible collapsed-stack file next to it.
    pub explain_out: Option<PathBuf>,
    /// `--quiet` suppresses all progress logging.
    pub quiet: bool,
    /// Explicit `--jobs N` worker count, if given (see [`Cli::jobs`]).
    pub jobs: Option<usize>,
    /// Explicit `--profile-cache DIR` store directory, if given (see
    /// [`Cli::store`]).
    pub profile_cache: Option<PathBuf>,
    /// Where to dump the flight-recorder journal (`--flight-out`), if
    /// requested. The journal is also dumped there on panic.
    pub flight_out: Option<PathBuf>,
    /// Where to write the cross-run registry snapshot
    /// (`--snapshot-out`, schema `lp-snapshot-v1`), if requested — the
    /// input format of `lpstudy diff` and `lpstudy audit`.
    pub snapshot_out: Option<PathBuf>,
    /// Interpreter engine: `--engine tree|bc`, default `bc`.
    /// Output is byte-identical for either engine — `tree` is the
    /// reference oracle, `bc` only trades compile time for dispatch
    /// speed.
    pub engine: lp_interp::Engine,
    /// Arguments this parser did not consume, in order.
    pub rest: Vec<String>,
}

impl Cli {
    /// Default on-disk budget for the profile cache, enforced by a gc
    /// pass every time a store is opened: 256 MiB holds thousands of
    /// EEMBC-sized entries while bounding unattended growth.
    pub const STORE_GC_BUDGET_BYTES: u64 = 256 * 1024 * 1024;

    /// Parses `std::env::args()` and initializes the log filter
    /// (`--quiet` wins over `LP_LOG`).
    #[must_use]
    pub fn parse() -> Cli {
        Cli::parse_from(std::env::args().skip(1))
    }

    /// As [`Cli::parse`] over explicit arguments (tests).
    ///
    /// # Panics
    /// Exits the process when `--trace-out` is missing its file operand.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Cli {
        let mut cli = Cli {
            scale: Scale::Default,
            trace_out: None,
            explain_out: None,
            quiet: false,
            jobs: None,
            profile_cache: None,
            flight_out: None,
            snapshot_out: None,
            engine: lp_interp::Engine::default(),
            rest: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quiet" => cli.quiet = true,
                "--trace-out" => match args.next() {
                    Some(path) => cli.trace_out = Some(PathBuf::from(path)),
                    None => {
                        eprintln!("--trace-out requires a file argument");
                        std::process::exit(2);
                    }
                },
                "--explain-out" => match args.next() {
                    Some(path) => cli.explain_out = Some(PathBuf::from(path)),
                    None => {
                        eprintln!("--explain-out requires a file argument");
                        std::process::exit(2);
                    }
                },
                "--jobs" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => cli.jobs = Some(n),
                    // An explicit zero clamps to serial (with a warning
                    // from `Jobs::resolve`) rather than erroring out:
                    // scripts that compute a worker count can floor at 0
                    // without special-casing. Non-numeric input is still
                    // a usage error.
                    Some(0) => cli.jobs = Some(0),
                    _ => {
                        eprintln!("--jobs requires a non-negative integer argument");
                        std::process::exit(2);
                    }
                },
                "--profile-cache" => match args.next() {
                    Some(dir) => cli.profile_cache = Some(PathBuf::from(dir)),
                    None => {
                        eprintln!("--profile-cache requires a directory argument");
                        std::process::exit(2);
                    }
                },
                "--flight-out" => match args.next() {
                    Some(path) => cli.flight_out = Some(PathBuf::from(path)),
                    None => {
                        eprintln!("--flight-out requires a file argument");
                        std::process::exit(2);
                    }
                },
                "--snapshot-out" => match args.next() {
                    Some(path) => cli.snapshot_out = Some(PathBuf::from(path)),
                    None => {
                        eprintln!("--snapshot-out requires a file argument");
                        std::process::exit(2);
                    }
                },
                "--engine" => match args.next().as_deref().map(lp_interp::Engine::parse) {
                    Some(Ok(engine)) => cli.engine = engine,
                    Some(Err(bad)) => {
                        eprintln!("--engine {bad:?} is not an engine (expected tree|bc)");
                        std::process::exit(2);
                    }
                    None => {
                        eprintln!("--engine requires an argument (tree|bc)");
                        std::process::exit(2);
                    }
                },
                "test" => cli.scale = Scale::Test,
                "small" => cli.scale = Scale::Small,
                "default" => cli.scale = Scale::Default,
                _ => cli.rest.push(arg),
            }
        }
        lp_obs::log::init(cli.quiet);
        if let Some(path) = &cli.flight_out {
            // Arms the panic hook in addition to the end-of-run dump in
            // `Cli::finish`.
            lp_obs::journal::arm(path);
        }
        cli
    }

    /// The machine configuration this command line asked for: defaults
    /// plus the selected `--engine`.
    #[must_use]
    pub fn machine_config(&self) -> lp_interp::MachineConfig {
        lp_interp::MachineConfig {
            engine: self.engine,
            ..lp_interp::MachineConfig::default()
        }
    }

    /// The resolved sweep worker count: explicit `--jobs N`, else the
    /// `LP_JOBS` environment variable, else the machine's available
    /// parallelism (see [`Jobs::resolve`]). Output is byte-identical for
    /// any value — the knob only trades wall-clock time.
    #[must_use]
    pub fn jobs(&self) -> Jobs {
        Jobs::resolve(self.jobs)
    }

    /// The persistent profile store requested on this command line: a
    /// read-write store in `DIR` when `--profile-cache DIR` was given,
    /// else none — no binary touches the filesystem unless asked. A
    /// store that cannot be opened degrades to `None` with a warning —
    /// never an error exit.
    #[must_use]
    pub fn store(&self) -> Option<ProfileStore> {
        let dir = self.profile_cache.as_ref()?;
        match ProfileStore::open(dir, StoreMode::ReadWrite) {
            Ok(store) => {
                // Bound the cache on every open so it cannot grow without
                // limit across runs. Under budget this is one metadata
                // sweep (counted as `store_gc_skipped`); failures only
                // warn — a full disk should not fail the study run.
                match store.gc(Self::STORE_GC_BUDGET_BYTES) {
                    Ok(0) => {}
                    Ok(n) => lp_info!("profile store: gc reclaimed {n} bytes"),
                    Err(e) => {
                        lp_warn!("profile store gc failed in {} ({e})", dir.display());
                    }
                }
                Some(store)
            }
            Err(e) => {
                lp_warn!(
                    "cannot open profile store {} ({e}); running without a cache",
                    dir.display()
                );
                None
            }
        }
    }

    fn fail_extra_args(&self) {
        if let Some(extra) = self.rest.first() {
            eprintln!(
                "unknown argument {extra:?} (expected test|small|default, --jobs N, \
                 --engine tree|bc, --trace-out FILE, --explain-out FILE, \
                 --profile-cache DIR, --flight-out FILE, --snapshot-out FILE, --quiet)"
            );
            std::process::exit(2);
        }
    }

    fn fail_explain_out(&self, binary: &str) {
        if self.explain_out.is_some() {
            eprintln!("{binary} does not support --explain-out (use lpstudy, fig4, or fig5)");
            std::process::exit(2);
        }
    }

    /// Checks this command line against the binary's [`FlagSpec`] table
    /// row: leftover arguments first (when [`ExtraArgs::Rejected`]), then
    /// `--explain-out` support — the same order the binaries used to
    /// hand-roll, so the diagnostics are unchanged.
    ///
    /// # Panics
    /// Panics when `binary` has no [`FLAG_SPECS`] row (a programming
    /// error, not a user one); exits the process with a usage error (2)
    /// when the command line violates the spec.
    pub fn enforce(&self, binary: &str) -> &'static FlagSpec {
        let spec = FlagSpec::of(binary)
            .unwrap_or_else(|| panic!("binary {binary:?} has no FLAG_SPECS row"));
        if spec.extra == ExtraArgs::Rejected {
            self.fail_extra_args();
        }
        if !spec.explain_out {
            self.fail_explain_out(spec.binary);
        }
        spec
    }

    /// End-of-run hook: dumps the observability summary at debug level
    /// and writes the Chrome trace (`--trace-out`), the registry snapshot
    /// (`--snapshot-out`), and the flight-recorder journal
    /// (`--flight-out`) when requested.
    pub fn finish(&self, process: &str) {
        if lp_obs::log::enabled(lp_obs::Level::Debug) {
            eprint!("{}", lp_obs::summary(lp_obs::registry()));
        }
        if let Some(path) = &self.trace_out {
            match lp_obs::write_chrome_trace(path, process) {
                Ok(()) => lp_info!("wrote Chrome trace to {}", path.display()),
                Err(e) => {
                    eprintln!("cannot write trace to {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        if let Some(path) = &self.snapshot_out {
            match lp_obs::snapshot::capture_global(process).write(path) {
                Ok(()) => lp_info!("wrote registry snapshot to {}", path.display()),
                Err(e) => {
                    eprintln!("cannot write snapshot to {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        if let Some(path) = &self.flight_out {
            match lp_obs::journal::global().write_dump(path) {
                Ok(()) => lp_info!("wrote flight-recorder dump to {}", path.display()),
                Err(e) => {
                    eprintln!("cannot write flight dump to {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
    }
}

/// Writes the limiter-attribution export requested via `--explain-out`:
/// `path` receives `{"attributions": [...]}` — hand-rolled JSON, one
/// object per evaluated `(model, config)` pair — and, when a profile is
/// supplied, a flamegraph-compatible collapsed-stack rendering of the
/// *last* attribution is written next to it under the `collapsed`
/// extension.
///
/// # Panics
/// Exits the process when a file cannot be written (mirrors the trace
/// handling in [`Cli::finish`]).
pub fn write_explain(path: &Path, attrs: &[Attribution], profile: Option<&Profile>) {
    let parts: Vec<String> = attrs.iter().map(Export::to_json).collect();
    let json = format!("{{\"attributions\":[{}]}}\n", parts.join(","));
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("cannot write explain JSON to {}: {e}", path.display());
        std::process::exit(1);
    }
    lp_info!("wrote limiter attribution to {}", path.display());
    if let (Some(profile), Some(attr)) = (profile, attrs.last()) {
        let collapsed_path = path.with_extension("collapsed");
        if let Err(e) = std::fs::write(&collapsed_path, lp_runtime::collapsed_stacks(profile, attr))
        {
            eprintln!(
                "cannot write collapsed stacks to {}: {e}",
                collapsed_path.display()
            );
            std::process::exit(1);
        }
        lp_info!("wrote collapsed stacks to {}", collapsed_path.display());
    }
}

/// One profiled benchmark.
#[derive(Debug)]
pub struct SuiteRun {
    /// Benchmark name (e.g. `429.mcf`).
    pub name: &'static str,
    /// Owning suite.
    pub suite: SuiteId,
    /// The profiled study, ready for evaluation.
    pub study: Study,
}

/// The benchmarks of the given suites, in registry order.
#[must_use]
pub fn suite_benchmarks(ids: &[SuiteId]) -> Vec<Benchmark> {
    lp_suite::registry()
        .into_iter()
        .filter(|b| ids.contains(&b.suite))
        .collect()
}

/// Profiles each benchmark on `jobs` workers, hands the profiled
/// [`SuiteRun`] to `f`, and drops the study before the task returns:
/// at most `jobs` studies (profile, analysis, run result) are alive at
/// once, whatever the number of benchmarks, and only what `f` keeps
/// outlives its kernel. Results come back in `benchmarks` order for any
/// worker count.
///
/// Each benchmark is profiled exactly once, with a heartbeat
/// (`[i/total] name — elapsed, insts/s`) at `info` level; heartbeats on
/// stderr may interleave, stdout output never does. Each finished
/// kernel journals a `kernel_folded` record with its index, so a flight
/// dump says how far the fold got at any `jobs`. When a persistent
/// [`ProfileStore`] is supplied (see [`Cli::store`]), each benchmark
/// warm-starts from a cached profile when one exists and persists its
/// fresh profile otherwise.
///
/// # Panics
/// Panics if a benchmark fails to build or run — they are fixed program
/// text, covered by the suite's tests.
pub fn fold_benchmarks<T, F>(
    benchmarks: &[Benchmark],
    scale: Scale,
    jobs: Jobs,
    store: Option<&ProfileStore>,
    engine: lp_interp::Engine,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(&SuiteRun) -> T + Sync,
{
    let total = benchmarks.len();
    let reg = lp_obs::registry();
    lp_runtime::parallel_map(benchmarks, jobs, |i, b| {
        lp_debug!("profiling {} ({}/{})", b.name, i + 1, total);
        let t0 = reg.now_ns();
        let module = b.build(scale);
        let config = lp_interp::MachineConfig {
            engine,
            ..lp_interp::MachineConfig::default()
        };
        let study = Study::with_store(&module, config, store)
            .unwrap_or_else(|e| panic!("benchmark {} failed: {e}", b.name));
        drop(module);
        let secs = reg.now_ns().saturating_sub(t0) as f64 / 1e9;
        lp_info!(
            "[{}/{}] profiled {:<18} {:>6.2}s  {:>6.1}M insts/s",
            i + 1,
            total,
            b.name,
            secs,
            study.run_result().cost as f64 / 1e6 / secs.max(1e-9)
        );
        let out = f(&SuiteRun {
            name: b.name,
            suite: b.suite,
            study,
        });
        lp_obs::journal::record(EventKind::KernelFolded, i as u64, total as u64);
        out
    })
}

impl SuiteRun {
    /// Evaluates `rows` against this run's profile, in row order.
    #[must_use]
    pub fn evaluate_rows(&self, rows: &[(ExecModel, Config)]) -> Vec<EvalReport> {
        rows.iter()
            .map(|&(model, config)| self.study.evaluate(model, config))
            .collect()
    }
}

/// What a figure keeps of one kernel: its speedup and coverage under
/// each of the figure's rows.
#[derive(Debug, Clone, PartialEq)]
pub struct RowResults {
    /// Benchmark name.
    pub name: &'static str,
    /// Owning suite.
    pub suite: SuiteId,
    /// Speedup per row.
    pub speedup: Vec<f64>,
    /// Dynamic coverage (percent) per row.
    pub coverage: Vec<f64>,
}

impl RowResults {
    /// Evaluates `rows` for one run and keeps speedup and coverage.
    #[must_use]
    pub fn of(run: &SuiteRun, rows: &[(ExecModel, Config)]) -> RowResults {
        let reports = run.evaluate_rows(rows);
        RowResults {
            name: run.name,
            suite: run.suite,
            speedup: reports.iter().map(|r| r.speedup).collect(),
            coverage: reports.iter().map(|r| r.coverage).collect(),
        }
    }
}

/// Geometric-mean speedup over the kernels of one suite for one row.
#[must_use]
pub fn geomean_speedup(results: &[RowResults], suite: SuiteId, row: usize) -> f64 {
    let values: Vec<f64> = results
        .iter()
        .filter(|r| r.suite == suite)
        .map(|r| r.speedup[row])
        .collect();
    lp_runtime::geomean(&values)
}

/// Geometric-mean coverage over the kernels of one suite for one row
/// (each coverage floored at 0.01% so an uncovered kernel does not zero
/// the mean).
#[must_use]
pub fn geomean_coverage(results: &[RowResults], suite: SuiteId, row: usize) -> f64 {
    let values: Vec<f64> = results
        .iter()
        .filter(|r| r.suite == suite)
        .map(|r| r.coverage[row].max(0.01))
        .collect();
    lp_runtime::geomean(&values)
}

/// Renders a log-scale ASCII bar for a speedup figure (the figures in the
/// paper use a logarithmic axis).
#[must_use]
pub fn log_bar(value: f64, max: f64, width: usize) -> String {
    let v = value.max(1.0).ln();
    let m = max.max(1.0 + 1e-9).ln();
    let filled = ((v / m) * width as f64).round() as usize;
    let mut bar = "#".repeat(filled.min(width));
    if bar.is_empty() && value > 1.0 {
        bar.push('#');
    }
    bar
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_parses_flags_scale_and_rest() {
        let cli = Cli::parse_from(
            [
                "--quiet",
                "small",
                "--trace-out",
                "/tmp/t.json",
                "--explain-out",
                "/tmp/e.json",
                "--jobs",
                "3",
                "--profile-cache",
                "/tmp/lp-cache",
                "--snapshot-out",
                "/tmp/s.json",
                "--engine",
                "tree",
                "--bench",
                "x.lp",
            ]
            .map(String::from),
        );
        assert!(cli.quiet);
        assert_eq!(cli.scale, Scale::Small);
        assert_eq!(cli.engine, lp_interp::Engine::Tree);
        assert_eq!(cli.machine_config().engine, lp_interp::Engine::Tree);
        assert_eq!(cli.jobs, Some(3));
        assert_eq!(cli.jobs().get(), 3);
        assert_eq!(
            cli.profile_cache.as_deref(),
            Some(std::path::Path::new("/tmp/lp-cache"))
        );
        assert_eq!(
            cli.trace_out.as_deref(),
            Some(std::path::Path::new("/tmp/t.json"))
        );
        assert_eq!(
            cli.explain_out.as_deref(),
            Some(std::path::Path::new("/tmp/e.json"))
        );
        assert_eq!(
            cli.snapshot_out.as_deref(),
            Some(std::path::Path::new("/tmp/s.json"))
        );
        assert_eq!(cli.rest, vec!["--bench".to_string(), "x.lp".to_string()]);

        // With no flag the default engine is the bytecode fast path.
        let cli = Cli::parse_from(std::iter::empty());
        assert_eq!(cli.scale, Scale::Default);
        assert_eq!(cli.engine, lp_interp::Engine::Bc);
        assert!(!cli.quiet && cli.trace_out.is_none() && cli.rest.is_empty());
        assert!(cli.explain_out.is_none());
        assert!(cli.jobs.is_none());
        assert!(cli.jobs().get() >= 1);
        assert!(cli.profile_cache.is_none());
        assert!(cli.flight_out.is_none());
        assert!(cli.snapshot_out.is_none());
        // Restore logging for the rest of the test process.
        lp_obs::log::set_level(lp_obs::Level::Off);
    }

    #[test]
    fn flag_specs_cover_every_binary_once() {
        let mut seen = std::collections::HashSet::new();
        for spec in FLAG_SPECS {
            assert!(seen.insert(spec.binary), "duplicate row {:?}", spec.binary);
        }
        assert_eq!(FLAG_SPECS.len(), 12);
        // The explain-capable binaries named in the usage message.
        for binary in ["lpstudy", "fig4", "fig5"] {
            assert!(FlagSpec::of(binary).unwrap().explain_out, "{binary}");
        }
        // Binaries with their own positionals pass extras through.
        for binary in ["lpstudy", "sweep", "lpbench"] {
            assert_eq!(
                FlagSpec::of(binary).unwrap().extra,
                ExtraArgs::Passthrough,
                "{binary}"
            );
        }
        assert!(FlagSpec::of("nonesuch").is_none());
    }

    #[test]
    fn store_is_off_unless_requested() {
        // Without the flag: no store, no filesystem side effects.
        let cli = Cli::parse_from(std::iter::empty());
        lp_obs::log::set_level(lp_obs::Level::Off);
        assert!(cli.store().is_none());
        // With the flag: a store rooted at the given path.
        let dir = std::env::temp_dir().join(format!("lp-bench-store-{}", std::process::id()));
        let cli = Cli::parse_from(["--profile-cache".to_string(), dir.display().to_string()]);
        lp_obs::log::set_level(lp_obs::Level::Off);
        let store = cli.store().expect("flag enables the store");
        assert_eq!(store.dir(), dir.as_path());
        assert!(dir.is_dir(), "opening the store creates the directory");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn log_bar_is_monotone() {
        let short = log_bar(2.0, 100.0, 40).len();
        let long = log_bar(50.0, 100.0, 40).len();
        assert!(long > short);
        assert!(log_bar(1.0, 100.0, 40).is_empty());
        assert_eq!(log_bar(100.0, 100.0, 40).len(), 40);
    }

    #[test]
    fn write_explain_emits_valid_json_and_collapsed_stacks() {
        let bench = lp_suite::find("181.mcf").unwrap();
        let module = bench.build(Scale::Test);
        let study = Study::of(&module).unwrap();
        let (model, config) = lp_runtime::best_helix();
        let (_, attr) = study.explain(model, config);
        let path =
            std::env::temp_dir().join(format!("lp-bench-explain-{}.json", std::process::id()));
        write_explain(&path, std::slice::from_ref(&attr), Some(study.profile()));
        let json = std::fs::read_to_string(&path).unwrap();
        lp_obs::validate_json(&json).expect("explain JSON must be well-formed");
        assert!(json.contains("\"attributions\":["));
        let collapsed = std::fs::read_to_string(path.with_extension("collapsed")).unwrap();
        assert!(!collapsed.is_empty());
        for line in collapsed.lines() {
            let (_, weight) = line.rsplit_once(' ').expect("frames <space> weight");
            weight.parse::<u64>().expect("integer weight");
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("collapsed"));
    }

    #[test]
    fn fold_runs_one_suite() {
        let benchmarks = suite_benchmarks(&[SuiteId::Eembc]);
        assert_eq!(benchmarks.len(), 10);
        let (model, config) = lp_runtime::best_pdoall();
        let speedups = fold_benchmarks(
            &benchmarks,
            Scale::Test,
            Jobs::serial(),
            None,
            lp_interp::Engine::Bc,
            |run| run.study.evaluate(model, config).speedup,
        );
        assert_eq!(speedups.len(), 10);
        assert!(lp_runtime::geomean(&speedups) >= 1.0);
    }

    #[test]
    fn fold_matches_pointwise_evaluation_at_any_job_count() {
        let benchmarks: Vec<Benchmark> = ["eembc.matrix01", "eembc.rspeed01"]
            .iter()
            .map(|n| lp_suite::find(n).unwrap())
            .collect();
        let rows = lp_runtime::table2_rows();
        let fold = |jobs: usize| {
            fold_benchmarks(
                &benchmarks,
                Scale::Test,
                Jobs::new(jobs),
                None,
                lp_interp::Engine::default(),
                |run| {
                    let pointwise: Vec<EvalReport> = rows
                        .iter()
                        .map(|&(model, config)| run.study.evaluate(model, config))
                        .collect();
                    (run.name, run.evaluate_rows(&rows), pointwise)
                },
            )
        };
        let serial = fold(1);
        let parallel = fold(8);
        // Results come back in benchmark order at any worker count.
        assert_eq!(serial[0].0, "eembc.matrix01");
        assert_eq!(serial[1].0, "eembc.rspeed01");
        for ((name, reports, pointwise), (par_name, par_reports, _)) in serial.iter().zip(&parallel)
        {
            assert_eq!(name, par_name);
            assert_eq!(reports.len(), rows.len());
            assert_eq!(
                format!("{pointwise:?}"),
                format!("{reports:?}"),
                "{name} (serial)"
            );
            assert_eq!(
                format!("{reports:?}"),
                format!("{par_reports:?}"),
                "{name} (jobs=8)"
            );
        }
        let results = fold_benchmarks(
            &benchmarks,
            Scale::Test,
            Jobs::new(2),
            None,
            lp_interp::Engine::default(),
            |run| RowResults::of(run, &rows),
        );
        for (j, _) in rows.iter().enumerate() {
            let speedups: Vec<f64> = serial.iter().map(|(_, r, _)| r[j].speedup).collect();
            assert_eq!(
                geomean_speedup(&results, SuiteId::Eembc, j).to_bits(),
                lp_runtime::geomean(&speedups).to_bits()
            );
            assert!(geomean_coverage(&results, SuiteId::Eembc, j) >= 0.01);
        }
    }

    /// The fold's memory bound: a kernel's study is gone before the next
    /// kernel reaches the closure at `--jobs 1`, at most `jobs - 1` other
    /// studies are alive while a closure runs, and none outlives the fold.
    #[test]
    fn fold_drops_each_study_before_the_next_kernel() {
        let benchmarks = suite_benchmarks(&[SuiteId::Eembc]);
        for jobs in [1, 2] {
            let seen: std::sync::Mutex<Vec<std::sync::Weak<Profile>>> =
                std::sync::Mutex::new(Vec::new());
            let alive_at_entry = fold_benchmarks(
                &benchmarks,
                Scale::Test,
                Jobs::new(jobs),
                None,
                lp_interp::Engine::Bc,
                |run| {
                    let mut seen = seen.lock().unwrap();
                    let alive = seen.iter().filter(|w| w.strong_count() > 0).count();
                    seen.push(std::sync::Arc::downgrade(&run.study.shared_profile()));
                    alive
                },
            );
            assert_eq!(alive_at_entry.len(), benchmarks.len());
            assert!(
                alive_at_entry.iter().all(|&n| n < jobs),
                "jobs={jobs}: studies alive at closure entry {alive_at_entry:?}"
            );
            let seen = seen.into_inner().unwrap();
            assert_eq!(seen.len(), benchmarks.len());
            assert!(
                seen.iter().all(|w| w.strong_count() == 0),
                "jobs={jobs}: a study outlived the fold"
            );
        }
    }
}
