//! Figure 3: GEOMEAN limit speedups for the numeric suites
//! (EEMBC, SPEC CFP2000 & CFP2006) under the 14 paper configurations.
//!
//! Profiles each benchmark once on `--jobs N` workers and evaluates its
//! rows before the next kernel starts, keeping only speedup and coverage;
//! the printed figure is byte-identical for any worker count.
//!
//! ```text
//! cargo run --release -p lp-bench --bin fig3 [test|small|default] [--jobs N]
//! ```

use lp_bench::{fold_benchmarks, geomean_speedup, log_bar, suite_benchmarks, Cli, RowResults};
use lp_runtime::table2_rows;
use lp_suite::SuiteId;

fn main() {
    let cli = Cli::parse();
    cli.enforce("fig3");
    let scale = cli.scale;
    let jobs = cli.jobs();
    let store = cli.store();
    let suites = [SuiteId::Eembc, SuiteId::Cfp2000, SuiteId::Cfp2006];
    let rows = table2_rows();
    let results = fold_benchmarks(
        &suite_benchmarks(&suites),
        scale,
        jobs,
        store.as_ref(),
        cli.engine,
        |run| RowResults::of(run, &rows),
    );

    println!("Figure 3 — GEOMEAN speedups, numeric benchmarks ({scale:?} scale)");
    println!(
        "{:<14} {:<18} {:>9} {:>9} {:>9}   (log-scale bars: cfp2000)",
        "model", "config", "eembc", "cfp2000", "cfp2006"
    );
    let max = (0..rows.len())
        .map(|j| geomean_speedup(&results, SuiteId::Cfp2000, j))
        .fold(1.0f64, f64::max);
    for (j, (model, config)) in rows.into_iter().enumerate() {
        let eembc = geomean_speedup(&results, SuiteId::Eembc, j);
        let cfp2000 = geomean_speedup(&results, SuiteId::Cfp2000, j);
        let cfp2006 = geomean_speedup(&results, SuiteId::Cfp2006, j);
        println!(
            "{:<14} {:<18} {:>8.2}x {:>8.2}x {:>8.2}x   {}",
            model.to_string(),
            config.to_string(),
            eembc,
            cfp2000,
            cfp2006,
            log_bar(cfp2000, max, 36)
        );
    }
    println!("\npaper reference (Fig. 3): best HELIX reduc1-dep1-fn2 = 21.6x-50.6x across numeric suites");
    cli.finish("fig3");
}
