//! Ablations for the design choices called out in DESIGN.md:
//!
//! 1. **Cactus-stack filter** (§II-E): profile call-heavy suites with and
//!    without treating per-iteration frames as iteration-local, showing
//!    how much loop-level parallelism the structural call-stack hazard
//!    destroys on a conventional stack.
//! 2. **HELIX vs classic DOACROSS**: combine synchronization deltas by
//!    per-LCD sync points (HELIX) vs one sync point from the last producer
//!    to the first consumer (classic DOACROSS), quantifying the benefit
//!    of generalized DOACROSS.
//! 3. **Hybrid vs individual value predictors** on the suite's traced
//!    register-LCD streams (dep2 sensitivity, §III-C).
//!
//! ```text
//! cargo run --release -p lp-bench --bin ablations [test|small|default]
//! ```

use lp_analysis::analyze_module;
use lp_bench::Cli;
use lp_runtime::{
    evaluate_with, geomean, parallel_map, profile_module_cached, EvalOptions, Profile,
    ProfilerOptions,
};
use lp_suite::{Benchmark, SuiteId};

fn main() {
    let cli = Cli::parse();
    cli.enforce("ablations");
    let scale = cli.scale;
    let jobs = cli.jobs();
    let store = cli.store();
    let store = store.as_ref();
    // The profiler option is part of the ProfileKey, so the two cactus
    // settings cache under distinct entries.
    let profile = |b: &Benchmark, cactus_stack: bool| -> Profile {
        let module = b.build(scale);
        let analysis = analyze_module(&module);
        profile_module_cached(
            &module,
            &analysis,
            cli.machine_config(),
            ProfilerOptions { cactus_stack },
            store,
        )
        .expect("benchmark runs")
        .0
    };
    // Ablation 2's HELIX and classic DOACROSS speedups on one profile.
    let (hx_model, hx_config) = lp_runtime::best_helix();
    let helix_vs_doacross = |profile: &Profile| {
        let speedup = |doacross_single_sync| {
            let options = EvalOptions {
                doacross_single_sync,
                ..EvalOptions::default()
            };
            evaluate_with(profile, hx_model, hx_config, options).speedup
        };
        (speedup(false), speedup(true))
    };

    // ---- 1. cactus-stack filter --------------------------------------
    println!("Ablation 1 — cactus-stack frame filter (PDOALL reduc1-dep2-fn2)\n");
    println!(
        "{:<12} {:>12} {:>14}",
        "suite", "with cactus", "without cactus"
    );
    let (model, config) = lp_runtime::best_pdoall();
    // Ablation 2 needs CINT2000's default (cactus-stack) profiles too, so
    // it takes its pairs from this pass instead of profiling again.
    let mut cint2000_helix = Vec::new();
    for suite in [SuiteId::Eembc, SuiteId::Cint2000] {
        let also_helix = suite == SuiteId::Cint2000;
        // This ablation re-profiles on purpose (the profiler option under
        // test changes the profile), so the benchmarks fan out instead.
        let rows = parallel_map(&lp_suite::suite(suite), jobs, |_, b| {
            let with_cactus = profile(b, true);
            let with = evaluate_with(&with_cactus, model, config, EvalOptions::default()).speedup;
            let helix = also_helix.then(|| helix_vs_doacross(&with_cactus));
            drop(with_cactus);
            let without =
                evaluate_with(&profile(b, false), model, config, EvalOptions::default()).speedup;
            (with, without, helix)
        });
        let with: Vec<f64> = rows.iter().map(|r| r.0).collect();
        let without: Vec<f64> = rows.iter().map(|r| r.1).collect();
        cint2000_helix.extend(rows.iter().filter_map(|r| r.2));
        println!(
            "{:<12} {:>11.2}x {:>13.2}x",
            suite.label(),
            geomean(&with),
            geomean(&without)
        );
    }
    println!("\n=> without disjoint (cactus) stack frames, loops containing calls serialize");
    println!("   on reused frame addresses — the structural hazard of paper §II-E.\n");

    // ---- 2. HELIX (max) vs classic DOACROSS (sum) ---------------------
    println!("Ablation 2 — HELIX per-LCD sync (max delta) vs DOACROSS chain (sum)\n");
    println!("{:<12} {:>10} {:>12}", "suite", "HELIX", "DOACROSS");
    let cint2006_helix = parallel_map(&lp_suite::suite(SuiteId::Cint2006), jobs, |_, b| {
        helix_vs_doacross(&profile(b, true))
    });
    for (suite, pairs) in [
        (SuiteId::Cint2000, cint2000_helix),
        (SuiteId::Cint2006, cint2006_helix),
    ] {
        let (helix, doacross): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        println!(
            "{:<12} {:>9.2}x {:>11.2}x",
            suite.label(),
            geomean(&helix),
            geomean(&doacross)
        );
    }
    println!("\n=> HELIX's per-LCD synchronization dominates a single DOACROSS sync point.\n");

    // ---- 3. predictors ------------------------------------------------
    println!("Ablation 3 — value predictor components on characteristic LCD streams\n");
    use lp_predict::{Fcm, LastValue, Predictor, Stride, TwoDeltaStride};
    let streams: [(&str, Vec<u64>); 4] = [
        ("constant", vec![9; 512]),
        ("strided", (0..512).map(|i| 40 + 3 * i).collect()),
        (
            "mostly-strided",
            (0..512u64)
                .scan(0u64, |x, i| {
                    *x += if i % 64 == 0 { 17 } else { 3 };
                    Some(*x)
                })
                .collect(),
        ),
        (
            "chaotic",
            (0..512u64)
                .scan(0x2545F4914F6CDD1Du64, |x, _| {
                    *x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    Some(*x >> 33)
                })
                .collect(),
        ),
    ];
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "stream", "last", "stride", "2delta", "fcm", "hybrid"
    );
    for (name, stream) in &streams {
        let acc = |mut p: Box<dyn Predictor>| -> f64 {
            let mut hits = 0usize;
            for &v in stream {
                if p.predict() == Some(v) {
                    hits += 1;
                }
                p.update(v);
            }
            100.0 * hits as f64 / stream.len() as f64
        };
        let mut hybrid = lp_predict::HybridPredictor::new();
        for &v in stream {
            hybrid.observe(v);
        }
        println!(
            "{:<16} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%",
            name,
            acc(Box::new(LastValue::new())),
            acc(Box::new(Stride::new())),
            acc(Box::new(TwoDeltaStride::new())),
            acc(Box::new(Fcm::new())),
            100.0 * hybrid.stats().accuracy(),
        );
    }
    cli.finish("ablations");
}
