//! Figure 2: GEOMEAN limit speedups for the non-numeric suites
//! (SPEC CINT2000 & CINT2006) under the 14 paper configurations.
//!
//! Profiles each benchmark once on `--jobs N` workers and evaluates its
//! rows before the next kernel starts, keeping only speedup and coverage;
//! the printed figure is byte-identical for any worker count.
//!
//! ```text
//! cargo run --release -p lp-bench --bin fig2 [test|small|default] [--jobs N]
//! ```

use lp_bench::{fold_benchmarks, geomean_speedup, log_bar, suite_benchmarks, Cli, RowResults};
use lp_runtime::table2_rows;
use lp_suite::SuiteId;

fn main() {
    let cli = Cli::parse();
    cli.enforce("fig2");
    let scale = cli.scale;
    let jobs = cli.jobs();
    let store = cli.store();
    let rows = table2_rows();
    let results = fold_benchmarks(
        &suite_benchmarks(&[SuiteId::Cint2000, SuiteId::Cint2006]),
        scale,
        jobs,
        store.as_ref(),
        cli.engine,
        |run| RowResults::of(run, &rows),
    );

    println!("Figure 2 — GEOMEAN speedups, non-numeric benchmarks ({scale:?} scale)");
    println!(
        "{:<14} {:<18} {:>9} {:>9}   (log-scale bars: cint2006)",
        "model", "config", "cint2000", "cint2006"
    );
    let max = (0..rows.len())
        .map(|j| geomean_speedup(&results, SuiteId::Cint2006, j))
        .fold(1.0f64, f64::max);
    for (j, (model, config)) in rows.into_iter().enumerate() {
        let s2000 = geomean_speedup(&results, SuiteId::Cint2000, j);
        let s2006 = geomean_speedup(&results, SuiteId::Cint2006, j);
        println!(
            "{:<14} {:<18} {:>8.2}x {:>8.2}x   {}",
            model.to_string(),
            config.to_string(),
            s2000,
            s2006,
            log_bar(s2006, max, 36)
        );
    }
    println!("\npaper reference (Fig. 2): best HELIX reduc1-dep1-fn2 = 4.6x (2000) / 7.2x (2006)");
    cli.finish("fig2");
}
