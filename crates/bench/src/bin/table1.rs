//! Table I: the ordering-constraint census — how many register LCDs are
//! computable / reduction / predictable / unpredictable, how many loops
//! carry frequent vs infrequent memory LCDs, and how many loops contain
//! calls (the structural constraint), per suite and overall.
//!
//! Each benchmark's census is taken as soon as it is profiled; the
//! suite rows and the overall row are sums of those per-kernel counts.
//!
//! ```text
//! cargo run --release -p lp-bench --bin table1 [test|small|default]
//! ```

use lp_bench::{fold_benchmarks, suite_benchmarks, Cli};
use lp_runtime::Census;
use lp_suite::SuiteId;

fn main() {
    let cli = Cli::parse();
    cli.enforce("table1");
    let scale = cli.scale;
    let store = cli.store();
    let censuses = fold_benchmarks(
        &suite_benchmarks(&SuiteId::all()),
        scale,
        cli.jobs(),
        store.as_ref(),
        cli.engine,
        |run| (run.suite, run.study.census()),
    );

    println!("Table I — ordering constraints and dependencies, quantified ({scale:?} scale)\n");
    for suite in SuiteId::all() {
        let census: Census = censuses
            .iter()
            .filter(|(s, _)| *s == suite)
            .map(|&(_, c)| c)
            .sum();
        println!("[{suite}]");
        println!("{census}\n");
    }
    let total: Census = censuses.iter().map(|&(_, c)| c).sum();
    println!("[all suites]");
    println!("{total}");
    cli.finish("table1");
}
