//! Differential: the plan-based evaluator against the naive reference
//! fold in `oracle/`, over every suite kernel at test scale, all three
//! models, all 32 configurations, and each evaluator option set. Reports
//! and attributions must agree bit for bit (compared through `Debug`).

mod oracle;

use lp_interp::MachineConfig;
use lp_runtime::{
    evaluate_explained_with, evaluate_with, profile_module, Config, EvalOptions, ExecModel, Profile,
};
use lp_suite::Scale;
use std::sync::OnceLock;

/// Every suite kernel's profile at test scale, taken once per test binary.
fn suite_profiles() -> &'static [Profile] {
    static PROFILES: OnceLock<Vec<Profile>> = OnceLock::new();
    PROFILES.get_or_init(|| {
        lp_suite::registry()
            .iter()
            .map(|b| {
                let module = b.build(Scale::Test);
                let analysis = lp_analysis::analyze_module(&module);
                profile_module(&module, &analysis, &[], MachineConfig::default())
                    .unwrap_or_else(|e| panic!("{}: {e}", b.name))
                    .0
            })
            .collect()
    })
}

fn matches_oracle_everywhere(options: EvalOptions) {
    for profile in suite_profiles() {
        for model in ExecModel::all() {
            for config in Config::all() {
                let want = oracle::evaluate_explained(profile, model, config, options);
                let plain = evaluate_with(profile, model, config, options);
                assert_eq!(
                    format!("{plain:?}"),
                    format!("{:?}", want.0),
                    "{} {model} {config} {options:?}: report",
                    profile.program
                );
                let explained = evaluate_explained_with(profile, model, config, options);
                assert_eq!(
                    format!("{explained:?}"),
                    format!("{want:?}"),
                    "{} {model} {config} {options:?}: attribution",
                    profile.program
                );
            }
        }
    }
}

#[test]
fn default_options_match_the_oracle() {
    matches_oracle_everywhere(EvalOptions::default());
}

#[test]
fn doacross_single_sync_matches_the_oracle() {
    matches_oracle_everywhere(EvalOptions {
        doacross_single_sync: true,
        ..EvalOptions::default()
    });
}

#[test]
fn one_core_matches_the_oracle() {
    matches_oracle_everywhere(EvalOptions {
        cores: Some(1),
        ..EvalOptions::default()
    });
}

#[test]
fn four_cores_match_the_oracle() {
    matches_oracle_everywhere(EvalOptions {
        cores: Some(4),
        ..EvalOptions::default()
    });
}

#[test]
fn the_plan_is_built_once_and_stays_out_of_debug() {
    let module = lp_suite::find("181.mcf")
        .expect("registered")
        .build(Scale::Test);
    let analysis = lp_analysis::analyze_module(&module);
    let (profile, _) = profile_module(&module, &analysis, &[], MachineConfig::default()).unwrap();
    let before = format!("{profile:?}");
    let _ = evaluate_with(
        &profile,
        ExecModel::Helix,
        Config::all()[0],
        EvalOptions::default(),
    );
    let plan: *const _ = profile.eval_plan();
    let _ = evaluate_with(
        &profile,
        ExecModel::Doall,
        Config::all()[0],
        EvalOptions::default(),
    );
    assert!(std::ptr::eq(plan, profile.eval_plan()));
    assert_eq!(before, format!("{profile:?}"));
}
