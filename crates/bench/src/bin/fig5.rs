//! Figure 5: GEOMEAN dynamic coverage (percent of dynamic IR
//! instructions inside parallel loops) for the three configurations the
//! paper highlights: `reduc0-dep0-fn2` PDOALL, `reduc0-dep0-fn2` HELIX,
//! and `reduc0-dep1-fn2` HELIX.
//!
//! Profiles each benchmark once on `--jobs N` workers and evaluates its
//! rows (and, under `--explain-out`, its attribution) before the next
//! kernel starts; the printed figure is byte-identical for any worker
//! count.
//!
//! ```text
//! cargo run --release -p lp-bench --bin fig5 [test|small|default] [--jobs N]
//! ```

use lp_bench::{
    fold_benchmarks, geomean_coverage, suite_benchmarks, write_explain, Cli, RowResults,
};
use lp_runtime::{Config, ExecModel};
use lp_suite::SuiteId;

fn main() {
    let cli = Cli::parse();
    cli.enforce("fig5");
    let scale = cli.scale;
    let jobs = cli.jobs();
    let store = cli.store();
    let suites = SuiteId::all();
    let rows: [(&str, ExecModel, Config); 3] = [
        (
            "PDOALL reduc0-dep0-fn2",
            ExecModel::PartialDoall,
            "reduc0-dep0-fn2".parse().unwrap(),
        ),
        (
            "HELIX  reduc0-dep0-fn2",
            ExecModel::Helix,
            "reduc0-dep0-fn2".parse().unwrap(),
        ),
        (
            "HELIX  reduc0-dep1-fn2",
            ExecModel::Helix,
            "reduc0-dep1-fn2".parse().unwrap(),
        ),
    ];
    let table_rows: Vec<(ExecModel, Config)> = rows.iter().map(|&(_, m, c)| (m, c)).collect();
    // Attribute under the most permissive highlighted row — what still
    // limits coverage after dep1 HELIX lifts the register LCDs.
    let (_, explain_model, explain_config) = rows[2];
    let results = fold_benchmarks(
        &suite_benchmarks(&suites),
        scale,
        jobs,
        store.as_ref(),
        cli.engine,
        |run| {
            let attr = cli
                .explain_out
                .as_ref()
                .map(|_| run.study.explain(explain_model, explain_config).1);
            (RowResults::of(run, &table_rows), attr)
        },
    );
    let (results, attrs): (Vec<RowResults>, Vec<_>) = results.into_iter().unzip();

    println!("Figure 5 — GEOMEAN dynamic coverage, percent ({scale:?} scale)");
    print!("{:<24}", "configuration");
    for s in suites {
        print!(" {:>9}", s.label());
    }
    println!();
    for (j, (label, _, _)) in rows.iter().enumerate() {
        print!("{label:<24}");
        for s in suites {
            let cov = geomean_coverage(&results, s, j);
            print!(" {cov:>8.1}%");
        }
        println!();
    }
    println!("\npaper reference (Fig. 5): coverage rises dramatically from dep0-fn2 PDOALL");
    println!("to dep0-fn2 HELIX to dep1-fn2 HELIX, especially for the non-numeric suites.");
    if let Some(path) = &cli.explain_out {
        let attrs: Vec<_> = attrs.into_iter().flatten().collect();
        write_explain(path, &attrs, None);
    }
    cli.finish("fig5");
}
