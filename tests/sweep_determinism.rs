//! Library-level determinism differential for `sweep_points`: the full
//! `(benchmark × model × config)` lattice evaluated with 1, 2, and 8
//! workers must produce a **byte-identical** CSV (the `sweep` binary's
//! writer, `report_header` + `report_row`), equal to pointwise
//! `evaluate`, and every report must equal one evaluated on an
//! independently taken profile. This is the contract the binaries
//! inherit — if it holds here, `--jobs` can never change a figure.

use lp_analysis::analyze_module;
use lp_interp::MachineConfig;
use lp_runtime::export::{report_header, report_row};
use lp_runtime::{
    evaluate, profile_module, sweep_points, Config, EvalOptions, EvalReport, ExecModel, Jobs,
    Profile, SweepPoint, SweepUnit,
};
use lp_suite::Scale;

const BENCHES: [&str; 3] = ["eembc.matrix01", "eembc.rspeed01", "181.mcf"];

fn profile_of(name: &str) -> Profile {
    let bench = lp_suite::find(name).expect("registered benchmark");
    let module = bench.build(Scale::Test);
    let analysis = analyze_module(&module);
    let (profile, _) =
        profile_module(&module, &analysis, &[], MachineConfig::default()).expect("benchmark runs");
    profile
}

fn units() -> Vec<SweepUnit> {
    BENCHES
        .iter()
        .map(|name| SweepUnit::from_profile(profile_of(name)))
        .collect()
}

/// Every `(unit, model, config)` point, unit-major.
fn lattice(units: usize) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for unit in 0..units {
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
    points
}

fn csv(reports: &[EvalReport]) -> String {
    let mut out = report_header();
    out.push('\n');
    for r in reports {
        out.push_str(&report_row(r));
        out.push('\n');
    }
    out
}

#[test]
fn sweep_exports_are_byte_identical_across_job_counts() {
    let units = units();
    let points = lattice(units.len());
    let pointwise: Vec<EvalReport> = points
        .iter()
        .map(|p| evaluate(&units[p.unit].profile, p.model, p.config))
        .collect();
    let reference = csv(&pointwise);
    for jobs in [1, 2, 8] {
        let swept = sweep_points(&units, &points, Jobs::new(jobs), EvalOptions::default());
        assert_eq!(swept.len(), points.len());
        assert_eq!(reference, csv(&swept), "CSV diverged at jobs={jobs}");
    }
}

#[test]
fn shared_profile_evaluations_match_fresh_serial_references() {
    let units = units();
    let points = lattice(units.len());
    let swept = sweep_points(&units, &points, Jobs::new(4), EvalOptions::default());
    let fresh: Vec<Profile> = BENCHES.iter().map(|name| profile_of(name)).collect();
    for (p, report) in points.iter().zip(&swept) {
        let reference = evaluate(&fresh[p.unit], p.model, p.config);
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
