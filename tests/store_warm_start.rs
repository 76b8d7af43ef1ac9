//! Warm-start differential for the persistent profile store: a sweep
//! whose profiles came out of `results/.lp-cache`-style storage must
//! export a **byte-identical** CSV (the `sweep` binary's writer) to a
//! cold, freshly-profiled sweep — at 1, 2, and 8 workers — while
//! actually hitting the store (`store.hits` counters advance). This is
//! the end-to-end contract of `--profile-cache`: the cache can change
//! wall-clock time, never a figure.

use loopapalooza::prelude::*;
use lp_analysis::analyze_module;
use lp_interp::MachineConfig;
use lp_runtime::export::{report_header, report_row};
use lp_runtime::{profile_module_cached, sweep_points, EvalOptions, ProfilerOptions, SweepPoint};
use lp_suite::Scale;

const BENCHES: [&str; 3] = ["eembc.matrix01", "eembc.rspeed01", "181.mcf"];

fn scratch_dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("lp-warm-start-{}", std::process::id()))
}

fn units_with(store: Option<&ProfileStore>) -> Vec<SweepUnit> {
    BENCHES
        .iter()
        .map(|name| {
            let bench = lp_suite::find(name).expect("registered benchmark");
            let module = bench.build(Scale::Test);
            let analysis = analyze_module(&module);
            let (profile, _) = profile_module_cached(
                &module,
                &analysis,
                MachineConfig::default(),
                ProfilerOptions::default(),
                store,
            )
            .expect("benchmark runs");
            SweepUnit::from_profile(profile)
        })
        .collect()
}

#[test]
fn warm_start_sweep_is_byte_identical_to_cold_at_any_job_count() {
    let dir = scratch_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let store = ProfileStore::open(&dir, StoreMode::ReadWrite).expect("open store");
    let counters = lp_obs::registry().counters();

    // Cold reference: no store at all.
    let cold_units = units_with(None);
    let mut points = Vec::new();
    for unit in 0..BENCHES.len() {
        for model in ExecModel::all() {
            for config in Config::all() {
                points.push(SweepPoint {
                    unit,
                    model,
                    config,
                });
            }
        }
    }
    let run = |units: &[SweepUnit], jobs: usize| {
        let mut csv = report_header();
        csv.push('\n');
        for r in sweep_points(units, &points, Jobs::new(jobs), EvalOptions::default()) {
            csv.push_str(&report_row(&r));
            csv.push('\n');
        }
        csv
    };
    let cold_csv = run(&cold_units, 1);

    // First pass against the empty store: misses, then persists.
    let misses_before = counters.get(lp_obs::Counter::StoreMisses);
    let first_units = units_with(Some(&store));
    assert!(
        counters.get(lp_obs::Counter::StoreMisses) >= misses_before + BENCHES.len() as u64,
        "first pass must miss once per benchmark"
    );
    let first_csv = run(&first_units, 1);
    assert_eq!(cold_csv, first_csv, "populating pass diverged from cold");

    // Warm passes: profiles come from disk, output must not move a byte.
    for jobs in [1usize, 2, 8] {
        let hits_before = counters.get(lp_obs::Counter::StoreHits);
        let warm_units = units_with(Some(&store));
        assert!(
            counters.get(lp_obs::Counter::StoreHits) >= hits_before + BENCHES.len() as u64,
            "warm pass must hit once per benchmark (jobs={jobs})"
        );
        let warm_csv = run(&warm_units, jobs);
        assert_eq!(cold_csv, warm_csv, "CSV diverged warm at jobs={jobs}");
    }
    assert_eq!(
        counters.get(lp_obs::Counter::StoreCorruptDiscarded),
        0,
        "no entry may be discarded in a clean warm start"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
