//! The parallel sweep engine: profile-once / evaluate-many across
//! worker threads, with deterministic merging.
//!
//! The paper's headline figures need up to `3 models × 32 configs = 96`
//! evaluations per benchmark (Figs 2–5, Table II). Profiling — the
//! instrumented interpreter run — is the expensive step and depends only
//! on the program, so the engine profiles each benchmark **once**, wraps
//! the immutable [`Profile`] in an [`Arc`], and fans the
//! `(benchmark × model × config)` work-list out over scoped worker
//! threads pulling from an atomic work-stealing index:
//!
//! - [`Jobs`] resolves the worker count (`--jobs N` flag, then the
//!   `LP_JOBS` environment variable, then the machine's available
//!   parallelism);
//! - [`parallel_map`] is the deterministic fan-out primitive: results
//!   come back **in input order** no matter which worker finished which
//!   task when, so every downstream report is byte-identical to the
//!   serial run;
//! - [`sweep`] / [`sweep_points`] evaluate a work-list of
//!   [`SweepPoint`]s against shared profiles, counting profile-cache
//!   hits ([`lp_obs::Counter::SweepProfileCacheHits`]);
//! - workers write observability straight into the global registry
//!   (one `sweep-worker` span each) and journal every finished task as
//!   it finishes, so a flight dump cut mid-phase still shows how far
//!   the phase got.
//!
//! `jobs = 1` takes a plain in-order loop on the calling thread — the
//! exact code path the serial pipeline always took — which is what the
//! determinism differential tests compare the parallel path against.

use crate::config::{Config, ExecModel};
use crate::eval::{evaluate_with, EvalOptions, EvalReport};
use crate::profile::Profile;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Worker-count knob for the sweep engine.
///
/// The engine never spawns more workers than tasks, so over-asking is
/// harmless; `Jobs::new(0)` clamps to 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Jobs(usize);

impl Jobs {
    /// Exactly `n` workers (clamped to at least 1).
    #[must_use]
    pub fn new(n: usize) -> Jobs {
        Jobs(n.max(1))
    }

    /// The serial engine: one worker, plain in-order loop.
    #[must_use]
    pub const fn serial() -> Jobs {
        Jobs(1)
    }

    /// One worker per available hardware thread.
    #[must_use]
    pub fn available() -> Jobs {
        Jobs(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
    }

    /// Resolves the worker count with the binaries' precedence:
    /// an explicit `--jobs N` flag wins, else a numeric `LP_JOBS`
    /// environment variable, else [`Jobs::available`].
    ///
    /// A zero from either source is an explicit-but-degenerate request:
    /// it clamps to one worker with a warning rather than silently
    /// falling back to full parallelism (running wide when the caller
    /// asked for "none" is the more surprising failure mode).
    #[must_use]
    pub fn resolve(flag: Option<usize>) -> Jobs {
        if let Some(n) = flag {
            if n == 0 {
                lp_obs::lp_warn!("--jobs 0 requested; clamping to 1 worker");
            }
            return Jobs::new(n);
        }
        if let Ok(v) = std::env::var("LP_JOBS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n == 0 {
                    lp_obs::lp_warn!("LP_JOBS=0 requested; clamping to 1 worker");
                }
                return Jobs::new(n);
            }
        }
        Jobs::available()
    }

    /// The resolved worker count (always ≥ 1).
    #[must_use]
    pub fn get(self) -> usize {
        self.0
    }

    /// Effective fan-out width for a work-list of `items` tasks: the
    /// worker count clamped so no thread is spawned without work. This
    /// is where [`parallel_map`], and through it the sweep engine and
    /// the per-kernel fold of the figure binaries, computes its width —
    /// in particular `items < jobs` narrows the
    /// pool to `items` real threads, it does **not** serialize (only
    /// `effective ≤ 1` takes the in-order serial path).
    #[must_use]
    pub fn effective(self, items: usize) -> usize {
        self.0.min(items)
    }
}

impl Default for Jobs {
    fn default() -> Jobs {
        Jobs::available()
    }
}

impl std::fmt::Display for Jobs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One named program in a sweep: a profile taken once and shared by
/// every `(model, config)` evaluation via [`Arc`].
#[derive(Debug, Clone)]
pub struct SweepUnit {
    /// Display name (usually the benchmark name, e.g. `429.mcf`).
    pub name: String,
    /// The shared immutable profile.
    pub profile: Arc<Profile>,
}

impl SweepUnit {
    /// Wraps an already-shared profile.
    #[must_use]
    pub fn new(name: impl Into<String>, profile: Arc<Profile>) -> SweepUnit {
        SweepUnit {
            name: name.into(),
            profile,
        }
    }

    /// Takes ownership of a freshly-taken profile, naming the unit after
    /// the profiled program.
    #[must_use]
    pub fn from_profile(profile: Profile) -> SweepUnit {
        SweepUnit {
            name: profile.program.clone(),
            profile: Arc::new(profile),
        }
    }
}

/// One `(unit, model, config)` evaluation point of a sweep work-list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPoint {
    /// Index into the sweep's unit slice.
    pub unit: usize,
    /// Execution model to evaluate.
    pub model: ExecModel,
    /// Configuration to evaluate.
    pub config: Config,
}

/// The full cross-product work-list in stable `(unit, model, config)`
/// order — the deterministic merge key: results are always reported in
/// this order regardless of which worker computed what.
#[must_use]
pub fn grid(units: usize, models: &[ExecModel], configs: &[Config]) -> Vec<SweepPoint> {
    let mut points = Vec::with_capacity(units * models.len() * configs.len());
    for unit in 0..units {
        for &model in models {
            for &config in configs {
                points.push(SweepPoint {
                    unit,
                    model,
                    config,
                });
            }
        }
    }
    points
}

/// Deterministic parallel map: applies `f` to every item using `jobs`
/// scoped workers pulling indices from a shared atomic counter, and
/// returns the results **in input order**.
///
/// `f` receives `(index, &item)`. With `jobs = 1` (or ≤ 1 item) no
/// thread is spawned and the items are mapped by a plain in-order loop
/// on the calling thread, so the serial path is bit-for-bit the code
/// the pipeline always ran.
///
/// Each worker times itself with a `sweep-worker` span, recorded into
/// the global registry when it runs out of work. Every finished task is
/// journaled at once as [`lp_obs::EventKind::SweepTaskDone`]
/// `(done, total)`; the record's timestamp gives the phase's progress
/// rate.
///
/// # Panics
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn parallel_map<T, R, F>(items: &[T], jobs: Jobs, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = jobs.effective(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let reg = lp_obs::registry();
    let total = items.len() as u64;

    let mut harvests: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let completed = &completed;
                let f = &f;
                scope.spawn(move || {
                    let mut out: Vec<(usize, R)> = Vec::new();
                    let start_ns = reg.now_ns();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, f(i, &items[i])));
                        let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                        lp_obs::journal::record(
                            lp_obs::EventKind::SweepTaskDone,
                            done as u64,
                            total,
                        );
                    }
                    reg.record_span(lp_obs::SpanRecord {
                        name: "sweep-worker",
                        start_ns,
                        end_ns: reg.now_ns(),
                        depth: 0,
                        tid: lp_obs::span::thread_tid(),
                    });
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });

    // Deterministic reduction: every index was claimed by exactly one
    // worker, so placing results by index reconstructs input order no
    // matter the completion schedule.
    for (i, r) in harvests.drain(..).flatten() {
        debug_assert!(slots[i].is_none(), "index {i} claimed twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| panic!("index {i} never claimed")))
        .collect()
}

/// Evaluates an explicit work-list of [`SweepPoint`]s against shared
/// profiles on `jobs` workers. Results come back in `points` order —
/// byte-identical whatever the worker count.
///
/// Every evaluation of a unit beyond its first is a profile-cache hit
/// (the profile is shared, not re-taken); the engine credits them to
/// [`lp_obs::Counter::SweepProfileCacheHits`].
///
/// # Panics
/// Panics if a point's `unit` index is out of bounds for `units`.
#[must_use]
pub fn sweep_points(
    units: &[SweepUnit],
    points: &[SweepPoint],
    jobs: Jobs,
    options: EvalOptions,
) -> Vec<EvalReport> {
    let _span = lp_obs::span!("sweep");
    lp_obs::journal::record(
        lp_obs::EventKind::SweepStarted,
        points.len() as u64,
        jobs.get() as u64,
    );
    let reports = parallel_map(points, jobs, |_, p| {
        evaluate_with(&units[p.unit].profile, p.model, p.config, options)
    });
    let distinct: std::collections::HashSet<usize> = points.iter().map(|p| p.unit).collect();
    lp_obs::counters().add(
        lp_obs::Counter::SweepProfileCacheHits,
        (points.len() - distinct.len()) as u64,
    );
    lp_obs::journal::record(
        lp_obs::EventKind::SweepCompleted,
        points.len() as u64,
        distinct.len() as u64,
    );
    reports
}

/// Evaluates the full `units × models × configs` lattice on `jobs`
/// workers (the [`grid`] order: unit-major, then model, then config).
#[must_use]
pub fn sweep(
    units: &[SweepUnit],
    models: &[ExecModel],
    configs: &[Config],
    jobs: Jobs,
    options: EvalOptions,
) -> Vec<EvalReport> {
    sweep_points(units, &grid(units.len(), models, configs), jobs, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DepMode, FnMode, ReducMode};
    use crate::eval::evaluate;
    use crate::tracker::profile_module;
    use lp_analysis::analyze_module;
    use lp_interp::MachineConfig;
    use lp_ir::builder::FunctionBuilder;
    use lp_ir::{Global, IcmpPred, Module, Type};

    fn tiny_program(name: &str, n: i64) -> Module {
        let mut m = Module::new(name);
        let g = m.add_global(Global::zeroed("a", n as u64 + 1));
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let nn = fb.const_i64(n);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let base = fb.global_addr(g);
        let header = fb.create_block("header");
        let body = fb.create_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let c = fb.icmp(IcmpPred::Slt, i, nn);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let addr = fb.gep(base, i, 8, 0);
        let v = fb.mul(i, i);
        fb.store(v, addr);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, lp_ir::BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, body, i2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(zero));
        m.add_function(fb.finish().unwrap());
        m
    }

    fn unit_of(name: &str, n: i64) -> SweepUnit {
        let m = tiny_program(name, n);
        let analysis = analyze_module(&m);
        let (p, _) = profile_module(&m, &analysis, &[], MachineConfig::default()).unwrap();
        SweepUnit::from_profile(p)
    }

    #[test]
    fn jobs_resolution_precedence() {
        assert_eq!(Jobs::new(0).get(), 1);
        assert_eq!(Jobs::new(7).get(), 7);
        assert_eq!(Jobs::serial().get(), 1);
        assert!(Jobs::available().get() >= 1);
        assert_eq!(Jobs::resolve(Some(3)).get(), 3);
        // An explicit zero clamps to the serial engine, not to the
        // machine's full parallelism.
        assert_eq!(Jobs::resolve(Some(0)).get(), 1);
        // The flag wins even when LP_JOBS is set; with neither, the
        // machine decides. (Environment manipulation is avoided here —
        // LP_JOBS handling is covered by the bench CLI tests.)
        assert!(Jobs::resolve(None).get() >= 1);
        assert_eq!(Jobs::default().get(), Jobs::available().get());
        assert_eq!(Jobs::new(4).to_string(), "4");
    }

    #[test]
    fn grid_is_unit_major_and_complete() {
        let models = [ExecModel::Doall, ExecModel::Helix];
        let configs = Config::all();
        let points = grid(3, &models, &configs);
        assert_eq!(points.len(), 3 * 2 * 32);
        // Stable lexicographic order over (unit, model, config).
        assert_eq!(points[0].unit, 0);
        assert_eq!(points[0].model, ExecModel::Doall);
        assert_eq!(points.last().unwrap().unit, 2);
        assert_eq!(points.last().unwrap().model, ExecModel::Helix);
        for w in points.windows(2) {
            assert!(w[0].unit <= w[1].unit);
        }
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..997).collect();
        for jobs in [1, 2, 3, 8] {
            let out = parallel_map(&items, Jobs::new(jobs), |i, &x| {
                assert_eq!(i as u64, x);
                x * x
            });
            assert_eq!(out.len(), items.len());
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, (i * i) as u64, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, Jobs::new(8), |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[5u32], Jobs::new(8), |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn effective_width_clamps_to_work_not_to_serial() {
        assert_eq!(Jobs::new(8).effective(3), 3);
        assert_eq!(Jobs::new(2).effective(100), 2);
        assert_eq!(Jobs::new(8).effective(0), 0);
        // Jobs::new(0) itself clamps to one worker at construction.
        assert_eq!(Jobs::new(0).effective(5), 1);
    }

    /// Pins that `items.len() < jobs` narrows the pool rather than
    /// serializing: with two items and eight requested workers, both
    /// items must be in flight *concurrently* (the barrier only opens
    /// when two distinct threads reach it; a serial fallback would
    /// deadlock here, failing the test by timeout) on distinct spawned
    /// threads.
    #[test]
    fn parallel_map_runs_concurrently_when_items_below_jobs() {
        use std::sync::{Barrier, Mutex};
        let barrier = Barrier::new(2);
        let tids = Mutex::new(Vec::new());
        let items = [0u32, 1];
        let out = parallel_map(&items, Jobs::new(8), |i, &x| {
            barrier.wait();
            tids.lock().unwrap().push(std::thread::current().id());
            assert_eq!(i as u32, x);
            x + 10
        });
        assert_eq!(out, vec![10, 11]);
        let tids = tids.into_inner().unwrap();
        assert_eq!(tids.len(), 2);
        assert_ne!(tids[0], tids[1], "both items must run on distinct workers");
        assert!(
            !tids.contains(&std::thread::current().id()),
            "workers are spawned threads, not the caller"
        );
    }

    #[test]
    fn sweep_matches_serial_evaluate_for_every_point() {
        let units = [unit_of("alpha", 40), unit_of("beta", 25)];
        let models = ExecModel::all();
        let configs = Config::all();
        let points = grid(units.len(), &models, &configs);
        let parallel = sweep_points(&units, &points, Jobs::new(8), EvalOptions::default());
        assert_eq!(parallel.len(), points.len());
        for (p, report) in points.iter().zip(&parallel) {
            let reference = evaluate(&units[p.unit].profile, p.model, p.config);
            assert_eq!(
                format!("{reference:?}"),
                format!("{report:?}"),
                "{} {} {}",
                units[p.unit].name,
                p.model,
                p.config
            );
        }
    }

    #[test]
    fn sweep_output_is_identical_across_job_counts() {
        let units = [unit_of("a", 30), unit_of("b", 20), unit_of("c", 10)];
        let models = ExecModel::all();
        let configs = Config::all();
        let serial = sweep(
            &units,
            &models,
            &configs,
            Jobs::serial(),
            EvalOptions::default(),
        );
        for jobs in [2, 4, 8] {
            let par = sweep(
                &units,
                &models,
                &configs,
                Jobs::new(jobs),
                EvalOptions::default(),
            );
            assert_eq!(
                format!("{serial:?}"),
                format!("{par:?}"),
                "jobs={jobs} diverged"
            );
        }
    }

    #[test]
    fn sweep_journals_progress_breadcrumbs() {
        let units = [unit_of("bread", 12)];
        let points = grid(1, &ExecModel::all(), &Config::all());
        let journal = lp_obs::journal::global();
        let (before, _) = journal.snapshot();
        let _ = sweep_points(&units, &points, Jobs::new(4), EvalOptions::default());
        let (after, records) = journal.snapshot();
        assert!(after > before);
        let kinds: Vec<lp_obs::EventKind> = records.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&lp_obs::EventKind::SweepStarted));
        assert!(kinds.contains(&lp_obs::EventKind::SweepCompleted));
        assert!(kinds.contains(&lp_obs::EventKind::SweepTaskDone));
        // Per-task breadcrumbs carry (done, total) with done <= total.
        let done_recs: Vec<_> = records
            .iter()
            .filter(|r| r.kind == lp_obs::EventKind::SweepTaskDone)
            .collect();
        assert!(done_recs.iter().all(|r| r.a >= 1 && r.a <= r.b));
        assert!(done_recs
            .iter()
            .any(|r| r.b == points.len() as u64 && r.a == r.b));
    }

    #[test]
    fn sweep_counts_profile_cache_hits() {
        let units = [unit_of("solo", 15)];
        let before = lp_obs::counters().get(lp_obs::Counter::SweepProfileCacheHits);
        let cfg = Config::new(ReducMode::Reduc0, DepMode::Dep0, FnMode::Fn0);
        let points: Vec<SweepPoint> = ExecModel::all()
            .into_iter()
            .map(|model| SweepPoint {
                unit: 0,
                model,
                config: cfg,
            })
            .collect();
        let reports = sweep_points(&units, &points, Jobs::serial(), EvalOptions::default());
        assert_eq!(reports.len(), 3);
        let after = lp_obs::counters().get(lp_obs::Counter::SweepProfileCacheHits);
        // Three evaluations of one shared profile: two cache hits.
        assert_eq!(after - before, 2);
    }
}
