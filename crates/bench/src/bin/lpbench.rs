//! lpbench — wall-clock throughput harness for the profiler inner loop.
//!
//! Measures, per benchmark, the plain interpreter (NullSink) and the
//! fully instrumented profiler run (best of `--reps` repetitions), plus
//! one end-to-end sweep (profile + full Table II evaluation lattice),
//! and emits a machine-readable `BENCH_profiler.json`:
//!
//! ```text
//! cargo run --release -p lp-bench --bin lpbench -- small --out results/BENCH_profiler.json
//! ```
//!
//! `--baseline FILE` embeds the totals of a previous lpbench run into
//! the new report (the before/after record the perf trajectory keeps);
//! `--check FILE` compares the current *slowdown ratio* (interpreter
//! throughput ÷ profiler throughput — hardware-independent, unlike raw
//! instructions/sec) against a checked-in baseline and exits 1 when the
//! profiler regressed more than 30%, which is what the CI smoke job
//! gates on. Each benchmark is additionally profiled with the
//! flight-recorder journal disabled; `--check` also fails when the
//! always-on journaling overhead (`journal_overhead` in `totals`, the
//! median over per-rep aggregates) exceeds 3% beyond its own MAD-based
//! noise allowance. The process counters (event tallies, shadow and
//! witness pages, predictor hits) ride along in the `counters` object,
//! and `--check` compares the deterministic ones among them
//! ([`EXACT_COUNTERS`]) exactly against the baseline's, refusing a
//! baseline taken with a different `--reps`.

use lp_analysis::analyze_module;
use lp_bench::{fold_benchmarks, Cli};
use lp_interp::{Engine, Exec, ExecUnit, MachineConfig};
use lp_obs::{lp_info, Counter, JsonValue, JsonWriter, PredictorKind};
use lp_suite::{Benchmark, Scale, SuiteId};
use std::path::PathBuf;

/// Allowed relative slowdown-ratio regression before `--check` fails.
const CHECK_TOLERANCE: f64 = 0.30;

/// Allowed always-on flight-recorder overhead (profiler run with the
/// journal enabled vs disabled) before `--check` fails.
const JOURNAL_TOLERANCE: f64 = 0.03;

/// The work counts `--check` compares exactly with the baseline's
/// `counters` (an absent counter reads 0): events by kind, the conflicts
/// and loop instances the tracker found, the tables it grew, and the
/// predictor misses. Each repeats exactly for the same benchmarks, scale
/// and `--reps`, so any difference is a change in the work done.
const EXACT_COUNTERS: [Counter; 16] = [
    Counter::EventsConsumed,
    Counter::BlocksEntered,
    Counter::Loads,
    Counter::Stores,
    Counter::PhisResolved,
    Counter::FuncsEntered,
    Counter::BuiltinCalls,
    Counter::ValueDefs,
    Counter::RawConflicts,
    Counter::LoopInstances,
    Counter::ShadowPages,
    Counter::FcmEntries,
    Counter::FcmEntriesMax,
    Counter::FcmEntriesRetired,
    Counter::PredictorMiss(PredictorKind::Fcm),
    Counter::PredictorMiss(PredictorKind::Hybrid),
];

/// `(name, baseline, now)` per [`EXACT_COUNTERS`] entry, read from the
/// two `(name, value)` lists.
fn exact_counts(
    baseline: &[(String, u64)],
    now: &[(String, u64)],
) -> Vec<(&'static str, u64, u64)> {
    let value = |counters: &[(String, u64)], name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    };
    EXACT_COUNTERS
        .iter()
        .map(|c| (c.name(), value(baseline, c.name()), value(now, c.name())))
        .collect()
}

/// One `counter: baseline → now` line per [`EXACT_COUNTERS`] entry whose
/// value differs between the two `(name, value)` lists.
fn counter_mismatches(baseline: &[(String, u64)], now: &[(String, u64)]) -> Vec<String> {
    exact_counts(baseline, now)
        .into_iter()
        .filter(|(_, was, is)| was != is)
        .map(|(name, was, is)| format!("{name}: {was} → {is}"))
        .collect()
}

/// The line `--check` prints on stdout for each gate it evaluates:
/// `gate <name> <measured> <bound> <pass|fail>`.
fn gate_line(name: &str, measured: &str, bound: &str, pass: bool) -> String {
    let verdict = if pass { "pass" } else { "fail" };
    format!("gate {name} {measured} {bound} {verdict}")
}

/// Per-benchmark measurement: dynamic instructions, the best wall-clock
/// time of each pipeline stage, and every per-rep sample behind it (the
/// robust gates work on medians over the rep vectors, not the minima).
struct Row {
    name: &'static str,
    insts: u64,
    interp_ns: u64,
    profile_ns: u64,
    /// Profiler run with the flight-recorder journal disabled — the
    /// reference the always-on journaling overhead gate compares against.
    profile_nojournal_ns: u64,
    /// Per-rep samples, index = rep.
    interp_reps: Vec<u64>,
    profile_reps: Vec<u64>,
    profile_nojournal_reps: Vec<u64>,
}

/// Median of `values` (sorts in place; 0 when empty).
fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Median absolute deviation of `values` around `center`.
fn mad(values: &[f64], center: f64) -> f64 {
    let mut devs: Vec<f64> = values.iter().map(|v| (v - center).abs()).collect();
    median(&mut devs)
}

/// Millions of instructions per second (0 when the clock read 0).
fn mips(insts: u64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        insts as f64 / ns as f64 * 1e3
    }
}

fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Small => "small",
        Scale::Default => "default",
    }
}

/// The baseline summary lifted out of a previous lpbench report.
#[derive(Debug, PartialEq)]
struct Baseline {
    interp_mips: f64,
    profile_mips: f64,
    slowdown: f64,
    /// `(name, profile_mips)` per benchmark present in the baseline.
    per_bench: Vec<(String, f64)>,
    /// The `--reps` the baseline was taken with.
    reps: Option<u64>,
    /// The baseline's process counters, `(name, value)`.
    counters: Vec<(String, u64)>,
}

/// Parses a previous lpbench report; `None` unless it is JSON with the
/// three totals the gates read. `counters` is empty when absent.
fn parse_baseline(text: &str) -> Option<Baseline> {
    let doc = JsonValue::parse(text).ok()?;
    let totals = doc.get("totals")?;
    let total = |key| totals.get(key).and_then(JsonValue::as_f64);
    let per_bench = doc
        .get("benchmarks")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|b| {
            let name = b.get("name")?.as_str()?;
            Some((name.to_string(), b.get("profile_mips")?.as_f64()?))
        })
        .collect();
    let counters = doc
        .get("counters")
        .and_then(JsonValue::entries)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(name, v)| Some((name.clone(), v.as_u64()?)))
        .collect();
    Some(Baseline {
        interp_mips: total("interp_mips")?,
        profile_mips: total("profile_mips")?,
        slowdown: total("slowdown")?,
        per_bench,
        reps: doc.get("reps").and_then(JsonValue::as_u64),
        counters,
    })
}

fn read_baseline(path: &PathBuf) -> Option<Baseline> {
    parse_baseline(&std::fs::read_to_string(path).ok()?)
}

/// Times one closure, returning `(wall_ns, result)`.
fn timed<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let reg = lp_obs::registry();
    let t0 = reg.now_ns();
    let r = f();
    (reg.now_ns().saturating_sub(t0), r)
}

fn measure(bench: &Benchmark, scale: Scale, reps: u32, engine: Engine) -> Row {
    let module = bench.build(scale);
    let analysis = analyze_module(&module);
    let config = MachineConfig {
        engine,
        ..MachineConfig::default()
    };
    // Compile once, execute `reps` times: the ExecUnit lifecycle the
    // plain-interpreter column measures (bytecode translation happens
    // here, outside the timed region, exactly as a study run amortizes
    // it across evaluations).
    let unit = ExecUnit::with_engine(&module, engine);
    let mut insts = 0;
    let mut interp_reps = Vec::with_capacity(reps as usize);
    let mut profile_reps = Vec::with_capacity(reps as usize);
    let mut profile_nojournal_reps = Vec::with_capacity(reps as usize);
    let journal = lp_obs::journal::global();
    for _ in 0..reps {
        let (ns, result) = timed(|| Exec::new(&unit).run(&[]));
        let result = result.unwrap_or_else(|e| panic!("benchmark {} failed: {e}", bench.name));
        insts = result.result.cost;
        interp_reps.push(ns);

        let (ns, result) =
            timed(|| lp_runtime::profile_module(&module, &analysis, &[], config.clone()));
        result.unwrap_or_else(|e| panic!("benchmark {} failed under profiling: {e}", bench.name));
        profile_reps.push(ns);

        journal.set_enabled(false);
        let (ns, result) =
            timed(|| lp_runtime::profile_module(&module, &analysis, &[], config.clone()));
        journal.set_enabled(true);
        result.unwrap_or_else(|e| panic!("benchmark {} failed under profiling: {e}", bench.name));
        profile_nojournal_reps.push(ns);
    }
    Row {
        name: bench.name,
        insts,
        interp_ns: interp_reps.iter().copied().min().unwrap_or(u64::MAX),
        profile_ns: profile_reps.iter().copied().min().unwrap_or(u64::MAX),
        profile_nojournal_ns: profile_nojournal_reps
            .iter()
            .copied()
            .min()
            .unwrap_or(u64::MAX),
        interp_reps,
        profile_reps,
        profile_nojournal_reps,
    }
}

fn usage_exit() -> ! {
    eprintln!(
        "usage: lpbench [test|small|default] [--engine tree|bc] [--bench NAME]... [--reps N] \
         [--out FILE] [--baseline FILE] [--check FILE] [--jobs N] [--quiet]"
    );
    std::process::exit(2);
}

fn main() {
    let cli = Cli::parse();
    cli.enforce("lpbench");
    let mut reps: u32 = 3;
    let mut out: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut check_path: Option<PathBuf> = None;
    let mut picked: Vec<Benchmark> = Vec::new();
    let mut rest = cli.rest.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--bench" => match rest.next().map(|n| lp_suite::find(n)) {
                Some(Some(b)) => picked.push(b),
                Some(None) => {
                    eprintln!("unknown benchmark (see lp_suite::registry)");
                    std::process::exit(2);
                }
                None => usage_exit(),
            },
            "--reps" => match rest.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => reps = n,
                _ => {
                    eprintln!("--reps requires a positive integer argument");
                    std::process::exit(2);
                }
            },
            "--out" => match rest.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => usage_exit(),
            },
            "--baseline" => match rest.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => usage_exit(),
            },
            "--check" => match rest.next() {
                Some(p) => check_path = Some(PathBuf::from(p)),
                None => usage_exit(),
            },
            _ => usage_exit(),
        }
    }
    if picked.is_empty() {
        picked = lp_suite::suite(SuiteId::Eembc);
    }
    let jobs = cli.jobs();

    let rows: Vec<Row> = picked
        .iter()
        .map(|b| {
            let row = measure(b, cli.scale, reps, cli.engine);
            lp_info!(
                "{:<18} {:>12} insts  interp {:>8.2} Mi/s  profile {:>8.2} Mi/s  ({:.2}x slowdown)",
                row.name,
                row.insts,
                mips(row.insts, row.interp_ns),
                mips(row.insts, row.profile_ns),
                row.profile_ns as f64 / row.interp_ns.max(1) as f64
            );
            row
        })
        .collect();

    // End-to-end: profile every picked benchmark once and evaluate the
    // Table II rows against its profile before the next one starts.
    let (sweep_ns, n_points) = timed(|| {
        let table_rows = lp_runtime::table2_rows();
        fold_benchmarks(&picked, cli.scale, jobs, None, cli.engine, |run| {
            run.evaluate_rows(&table_rows).len()
        })
        .into_iter()
        .sum::<usize>()
    });

    let t_insts: u64 = rows.iter().map(|r| r.insts).sum();
    let t_interp: u64 = rows.iter().map(|r| r.interp_ns).sum();
    let t_profile: u64 = rows.iter().map(|r| r.profile_ns).sum();
    let t_nojournal: u64 = rows.iter().map(|r| r.profile_nojournal_ns).sum();
    let cur_slowdown = t_profile as f64 / t_interp.max(1) as f64;

    // Robust per-rep statistics: rep r's aggregate is the sum across
    // benchmarks of that rep's sample, so the rep vectors line up into
    // `reps` paired aggregate observations of each pipeline stage.
    let nreps = reps as usize;
    let agg = |pick: &dyn Fn(&Row) -> &Vec<u64>| -> Vec<f64> {
        (0..nreps)
            .map(|r| rows.iter().map(|row| pick(row)[r]).sum::<u64>() as f64)
            .collect()
    };
    let interp_agg = agg(&|row| &row.interp_reps);
    let profile_agg = agg(&|row| &row.profile_reps);
    let nojournal_agg = agg(&|row| &row.profile_nojournal_reps);
    let interp_med_ns = median(&mut interp_agg.clone());
    let profile_med_ns = median(&mut profile_agg.clone());
    let nojournal_med_ns = median(&mut nojournal_agg.clone());
    // Relative cost of always-on journaling, per rep (pairing reps
    // cancels slow-machine moments that hit both runs alike); the point
    // estimate is the median so one noisy rep cannot trip the gate, and
    // the MAD feeds the gate's noise allowance. Negative values are
    // timer noise — the journal cannot speed a run up.
    let mut overheads: Vec<f64> = profile_agg
        .iter()
        .zip(&nojournal_agg)
        .map(|(p, n)| p / n.max(1.0) - 1.0)
        .collect();
    let journal_overhead = median(&mut overheads);
    let journal_overhead_mad = mad(&overheads, journal_overhead);

    let mut w = JsonWriter::compact();
    w.begin_object();
    w.key("schema");
    w.string("lpbench-v1");
    w.key("scale");
    w.string(scale_label(cli.scale));
    w.key("engine");
    w.string(cli.engine.name());
    w.key("reps");
    w.uint(u64::from(reps));
    w.key("jobs");
    w.uint(jobs.get() as u64);
    w.key("benchmarks");
    w.begin_array();
    for r in &rows {
        w.begin_object();
        w.key("name");
        w.string(r.name);
        w.key("insts");
        w.uint(r.insts);
        w.key("interp_ns");
        w.uint(r.interp_ns);
        w.key("profile_ns");
        w.uint(r.profile_ns);
        w.key("profile_nojournal_ns");
        w.uint(r.profile_nojournal_ns);
        w.key("interp_mips");
        w.fixed(mips(r.insts, r.interp_ns), 3);
        w.key("profile_mips");
        w.fixed(mips(r.insts, r.profile_ns), 3);
        w.key("slowdown");
        w.fixed(r.profile_ns as f64 / r.interp_ns.max(1) as f64, 3);
        w.end_object();
    }
    w.end_array();
    w.key("totals");
    w.begin_object();
    w.key("insts");
    w.uint(t_insts);
    w.key("interp_ns");
    w.uint(t_interp);
    w.key("profile_ns");
    w.uint(t_profile);
    w.key("profile_nojournal_ns");
    w.uint(t_nojournal);
    w.key("interp_mips");
    w.fixed(mips(t_insts, t_interp), 3);
    w.key("profile_mips");
    w.fixed(mips(t_insts, t_profile), 3);
    w.key("slowdown");
    w.fixed(cur_slowdown, 3);
    w.key("interp_med_ns");
    w.fixed(interp_med_ns, 0);
    w.key("profile_med_ns");
    w.fixed(profile_med_ns, 0);
    w.key("profile_nojournal_med_ns");
    w.fixed(nojournal_med_ns, 0);
    w.key("journal_overhead");
    w.fixed(journal_overhead, 4);
    w.key("journal_overhead_mad");
    w.fixed(journal_overhead_mad, 4);
    w.end_object();
    w.key("sweep");
    w.begin_object();
    w.key("benchmarks");
    w.uint(picked.len() as u64);
    w.key("points");
    w.uint(n_points as u64);
    w.key("wall_ns");
    w.uint(sweep_ns);
    w.end_object();
    // Taken before `--check` profiles again for its engine comparison.
    let counters = lp_obs::counters().snapshot();
    w.key("counters");
    w.begin_object();
    for (name, value) in &counters {
        w.key(name);
        w.uint(*value);
    }
    w.end_object();
    if let Some(path) = &baseline_path {
        match read_baseline(path) {
            Some(base) => {
                w.key("baseline");
                w.begin_object();
                w.key("interp_mips");
                w.fixed(base.interp_mips, 3);
                w.key("profile_mips");
                w.fixed(base.profile_mips, 3);
                w.key("slowdown");
                w.fixed(base.slowdown, 3);
                w.key("profile_speedup");
                w.fixed(mips(t_insts, t_profile) / base.profile_mips.max(1e-9), 3);
                w.key("slowdown_ratio");
                w.fixed(base.slowdown / cur_slowdown.max(1e-9), 3);
                w.key("per_bench");
                w.begin_array();
                for r in &rows {
                    let Some((_, base_pm)) = base.per_bench.iter().find(|(n, _)| n == r.name)
                    else {
                        continue;
                    };
                    w.begin_object();
                    w.key("name");
                    w.string(r.name);
                    w.key("baseline_profile_mips");
                    w.fixed(*base_pm, 3);
                    w.key("profile_mips");
                    w.fixed(mips(r.insts, r.profile_ns), 3);
                    w.key("profile_speedup");
                    w.fixed(mips(r.insts, r.profile_ns) / base_pm.max(1e-9), 3);
                    w.end_object();
                }
                w.end_array();
                w.end_object();
            }
            None => {
                eprintln!("cannot read lpbench baseline {}", path.display());
                std::process::exit(2);
            }
        }
    }
    w.end_object();
    let json = w.finish() + "\n";

    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            lp_info!("wrote {}", path.display());
        }
        None => print!("{json}"),
    }

    let mut check_failed = false;
    if let Some(path) = &check_path {
        let Some(base) = read_baseline(path) else {
            eprintln!("cannot read lpbench baseline {}", path.display());
            std::process::exit(2);
        };
        // Work-count gate: the counters accumulate over every rep, so
        // they compare only with a baseline taken at the same `--reps`.
        if base.reps != Some(u64::from(reps)) {
            eprintln!(
                "lpbench check refused: baseline {} was taken with --reps {}, this run with \
                 --reps {reps}",
                path.display(),
                base.reps.map_or("(unknown)".to_string(), |r| r.to_string())
            );
            std::process::exit(2);
        }
        // Every gate is evaluated and printed, so one run's lines say
        // which gates tripped and by how much; the run fails after the
        // registry snapshot and flight dump are written.
        let mut passed = true;
        let mut gate = |name: &str, measured: &str, bound: &str, pass: bool| {
            println!("{}", gate_line(name, measured, bound, pass));
            passed &= pass;
        };
        for (name, was, is) in exact_counts(&base.counters, &counters) {
            gate(
                &format!("counter.{name}"),
                &is.to_string(),
                &was.to_string(),
                was == is,
            );
        }
        let mismatches = counter_mismatches(&base.counters, &counters);
        if mismatches.is_empty() {
            lp_info!(
                "work-count check passed: {} counters match the baseline exactly",
                EXACT_COUNTERS.len()
            );
        } else {
            eprintln!(
                "lpbench check FAILED: {} work count(s) differ from baseline {}:",
                mismatches.len(),
                path.display()
            );
            for line in &mismatches {
                eprintln!("  {line}");
            }
        }
        // Engine equivalence gate: profile every picked benchmark under
        // both engines and byte-compare the serialized profile cache
        // entries (profile + run result). Any divergence — result, cost,
        // region tree, conflict census, LCD classes — flips a byte.
        let diverging: Vec<&str> = picked
            .iter()
            .filter(|b| {
                let module = b.build(cli.scale);
                let analysis = analyze_module(&module);
                let encoded = |engine: Engine| {
                    let config = MachineConfig {
                        engine,
                        ..MachineConfig::default()
                    };
                    let (p, r) = lp_runtime::profile_module(&module, &analysis, &[], config)
                        .unwrap_or_else(|e| panic!("benchmark {} failed: {e}", b.name));
                    lp_runtime::encode_entry(&p, &r)
                };
                encoded(Engine::Tree) != encoded(Engine::Bc)
            })
            .map(|b| b.name)
            .collect();
        gate(
            "engine_identity",
            &diverging.len().to_string(),
            "0",
            diverging.is_empty(),
        );
        for name in &diverging {
            eprintln!("lpbench check FAILED: {name} profiles diverge between --engine tree and bc");
        }
        if diverging.is_empty() {
            lp_info!(
                "engine check passed: {} benchmark(s) profile byte-identically under tree and bc",
                picked.len()
            );
        }
        // The slowdown ratio (profiler time per instruction over plain
        // interpreter time per instruction) cancels out the machine's
        // absolute speed, so a checked-in baseline transfers across CI
        // runners; raw insts/sec would not.
        let limit = base.slowdown * (1.0 + CHECK_TOLERANCE);
        gate(
            "slowdown",
            &format!("{cur_slowdown:.3}"),
            &format!("{limit:.3}"),
            cur_slowdown <= limit,
        );
        if cur_slowdown > limit {
            eprintln!(
                "lpbench check FAILED: profiler slowdown {cur_slowdown:.3}x exceeds baseline \
                 {:.3}x by more than {:.0}% (limit {limit:.3}x)",
                base.slowdown,
                CHECK_TOLERANCE * 100.0
            );
        }
        // Median-of-reps overhead, discounted by its own scaled MAD: the
        // gate only fires when even the measurement's noise band cannot
        // explain the excess, so a single slow rep no longer flakes CI.
        let overhead_floor = journal_overhead - 1.4826 * journal_overhead_mad;
        gate(
            "journal_overhead",
            &format!("{overhead_floor:.4}"),
            &format!("{JOURNAL_TOLERANCE:.4}"),
            overhead_floor <= JOURNAL_TOLERANCE,
        );
        if overhead_floor > JOURNAL_TOLERANCE {
            eprintln!(
                "lpbench check FAILED: always-on journaling overhead {:.1}% (median of {nreps} \
                 rep(s), MAD {:.2}%) exceeds {:.0}% beyond measurement noise",
                journal_overhead * 100.0,
                journal_overhead_mad * 100.0,
                JOURNAL_TOLERANCE * 100.0
            );
        }
        if passed {
            lp_info!(
                "lpbench check passed: slowdown {:.3}x vs baseline {:.3}x (limit {:.3}x), \
                 journal overhead {:.2}% (MAD {:.2}%)",
                cur_slowdown,
                base.slowdown,
                limit,
                journal_overhead * 100.0,
                journal_overhead_mad * 100.0
            );
        }
        check_failed = !passed;
    }
    cli.finish("lpbench");
    if check_failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad_are_robust() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0]), 3.0);
        assert_eq!(median(&mut [1.0, 9.0]), 5.0);
        // One wild outlier barely moves the median and not the MAD.
        let values = [10.0, 10.2, 9.9, 10.1, 500.0];
        let mut sorted = values.to_vec();
        let m = median(&mut sorted);
        assert_eq!(m, 10.1);
        assert!((mad(&values, m) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn committed_baselines_parse_to_their_totals() {
        let tree = parse_baseline(include_str!("../../../../results/BENCH_ci_baseline.json"))
            .expect("the tree baseline parses");
        assert_eq!(
            (tree.interp_mips, tree.profile_mips, tree.slowdown),
            (56.863, 41.617, 1.366)
        );
        assert_eq!(tree.per_bench, vec![("eembc.matrix01".to_string(), 41.617)]);
        let bc = parse_baseline(include_str!(
            "../../../../results/BENCH_ci_baseline_bc.json"
        ))
        .expect("the bc baseline parses");
        assert_eq!(
            (bc.interp_mips, bc.profile_mips, bc.slowdown),
            (108.720, 56.447, 1.926)
        );
        assert_eq!(bc.per_bench, vec![("eembc.matrix01".to_string(), 56.447)]);
        // The CI steps run the tree baseline at --reps 5 and the bc one
        // at --reps 20, and each baseline holds every exact counter the
        // gate reads on matrix01 (which calls no builtin).
        assert_eq!((tree.reps, bc.reps), (Some(5), Some(20)));
        for base in [&tree, &bc] {
            let names: Vec<&str> = base.counters.iter().map(|(n, _)| n.as_str()).collect();
            for c in EXACT_COUNTERS {
                assert!(
                    names.contains(&c.name()) || c == Counter::BuiltinCalls,
                    "baseline lacks {}",
                    c.name()
                );
            }
        }
        assert_eq!(parse_baseline("{\"totals\":{\"slowdown\":1}}"), None);
        assert_eq!(parse_baseline("not json"), None);
    }

    #[test]
    fn counter_mismatches_name_each_differing_exact_counter() {
        let counters = |pairs: &[(&str, u64)]| -> Vec<(String, u64)> {
            pairs.iter().map(|&(n, v)| (n.to_string(), v)).collect()
        };
        let base = counters(&[("loads", 10), ("fcm_entries", 7), ("profiles_taken", 3)]);
        assert!(counter_mismatches(&base, &base).is_empty());
        // Counters outside the list never trip; an absent counter is 0.
        let now = counters(&[
            ("loads", 10),
            ("fcm_entries", 6),
            ("profiles_taken", 4),
            ("builtin_calls", 2),
        ]);
        assert_eq!(
            counter_mismatches(&base, &now),
            ["builtin_calls: 0 → 2", "fcm_entries: 7 → 6"]
        );
        let fcm = exact_counts(&base, &now)
            .into_iter()
            .find(|&(name, _, _)| name == "fcm_entries")
            .unwrap();
        assert_eq!(fcm, ("fcm_entries", 7, 6));
    }

    #[test]
    fn gate_lines_name_the_gate_its_numbers_and_the_verdict() {
        assert_eq!(
            gate_line("counter.fcm_entries", "6", "7", false),
            "gate counter.fcm_entries 6 7 fail"
        );
        assert_eq!(
            gate_line("slowdown", "1.262", "1.776", true),
            "gate slowdown 1.262 1.776 pass"
        );
    }
}
