//! Core-count scaling curves — the bridge from the paper's
//! infinite-resource limit study to the finite-core systems its related
//! work reports against (HELIX-RC: 6.5× on 16 cores for CINT;
//! SWARM/T4: 19× on 64 cores): evaluate the best HELIX and best PDOALL
//! configurations with the core count bounded.
//!
//! ```text
//! cargo run --release -p lp-bench --bin scaling [test|small|default]
//! ```

use lp_bench::{fold_benchmarks, suite_benchmarks, Cli};
use lp_runtime::{best_helix, best_pdoall, geomean, EvalOptions};
use lp_suite::SuiteId;

const CORES: [Option<u32>; 7] = [
    Some(2),
    Some(4),
    Some(8),
    Some(16),
    Some(32),
    Some(64),
    None,
];

fn main() {
    let cli = Cli::parse();
    cli.enforce("scaling");
    let scale = cli.scale;
    let store = cli.store();
    let suites = SuiteId::all();
    let curves = [
        ("best HELIX (reduc1-dep1-fn2)", best_helix()),
        ("best PDOALL (reduc1-dep2-fn2)", best_pdoall()),
    ];
    // Per kernel: its speedup for each curve at each core count.
    let speedups = fold_benchmarks(
        &suite_benchmarks(&suites),
        scale,
        cli.jobs(),
        store.as_ref(),
        cli.engine,
        |run| {
            let at: Vec<[f64; CORES.len()]> = curves
                .iter()
                .map(|&(_, (model, config))| {
                    CORES.map(|cores| {
                        lp_runtime::evaluate_with(
                            run.study.profile(),
                            model,
                            config,
                            EvalOptions {
                                cores,
                                ..EvalOptions::default()
                            },
                        )
                        .speedup
                    })
                })
                .collect();
            (run.suite, at)
        },
    );

    for (curve, (label, _)) in curves.iter().enumerate() {
        println!("GEOMEAN speedup vs core count — {label} ({scale:?} scale)");
        print!("{:<10}", "suite");
        for c in CORES {
            match c {
                Some(p) => print!(" {p:>7}"),
                None => print!(" {:>7}", "inf"),
            }
        }
        println!();
        for suite in suites {
            print!("{:<10}", suite.label());
            for c in 0..CORES.len() {
                let values: Vec<f64> = speedups
                    .iter()
                    .filter(|(s, _)| *s == suite)
                    .map(|(_, at)| at[curve][c])
                    .collect();
                print!(" {:>6.2}x", geomean(&values));
            }
            println!();
        }
        println!();
    }
    println!("reference points from the paper's related work: HELIX-RC reached 6.5x");
    println!("on 16 cores for SpecINT2006; SWARM/T4 19x on 64 cores (no frequent LCDs).");
    cli.finish("scaling");
}
