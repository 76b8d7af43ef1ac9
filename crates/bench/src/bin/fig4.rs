//! Figure 4: per-benchmark speedups across all SPEC suites for the best
//! realistic PDOALL (`reduc1-dep2-fn2`) and best HELIX (`reduc1-dep1-fn2`)
//! configurations, with the winner marked.
//!
//! Profiles each benchmark once on `--jobs N` workers and evaluates both
//! rows (and, under `--explain-out`, the winner's attribution) before the
//! next kernel starts; the printed figure is byte-identical for any
//! worker count.
//!
//! ```text
//! cargo run --release -p lp-bench --bin fig4 [test|small|default] [--jobs N]
//! ```

use lp_bench::{fold_benchmarks, log_bar, suite_benchmarks, write_explain, Cli, RowResults};
use lp_runtime::{best_helix, best_pdoall, geomean};
use lp_suite::SuiteId;

fn main() {
    let cli = Cli::parse();
    cli.enforce("fig4");
    let scale = cli.scale;
    let jobs = cli.jobs();
    let store = cli.store();
    let spec = [
        SuiteId::Cint2000,
        SuiteId::Cfp2000,
        SuiteId::Cint2006,
        SuiteId::Cfp2006,
    ];
    let (pd_model, pd_config) = best_pdoall();
    let (hx_model, hx_config) = best_helix();
    let rows = [(pd_model, pd_config), (hx_model, hx_config)];
    let results = fold_benchmarks(
        &suite_benchmarks(&spec),
        scale,
        jobs,
        store.as_ref(),
        cli.engine,
        |run| {
            let result = RowResults::of(run, &rows);
            // Attribute under each benchmark's winning configuration.
            let attr = cli.explain_out.as_ref().map(|_| {
                let (model, config) = if result.speedup[0] > result.speedup[1] {
                    rows[0]
                } else {
                    rows[1]
                };
                run.study.explain(model, config).1
            });
            (result, attr)
        },
    );

    println!("Figure 4 — per-benchmark speedups, all SPEC ({scale:?} scale)");
    println!(
        "{:<18} {:>12} {:>12}  winner  (log-scale bar: winner)",
        "benchmark", "PDOALL", "HELIX"
    );
    let mut pd_all = Vec::new();
    let mut hx_all = Vec::new();
    let max = results
        .iter()
        .map(|(r, _)| r.speedup[0].max(r.speedup[1]))
        .fold(1.0f64, f64::max);
    let mut pdoall_wins = 0usize;
    let mut attrs = Vec::new();
    for (result, attr) in results {
        let (pd, hx) = (result.speedup[0], result.speedup[1]);
        pd_all.push(pd);
        hx_all.push(hx);
        let winner = if pd > hx { "PDOALL" } else { "HELIX" };
        if pd > hx {
            pdoall_wins += 1;
        }
        attrs.extend(attr);
        println!(
            "{:<18} {:>11.2}x {:>11.2}x  {:<6}  {}",
            result.name,
            pd,
            hx,
            winner,
            log_bar(pd.max(hx), max, 30)
        );
    }
    if let Some(path) = &cli.explain_out {
        write_explain(path, &attrs, None);
    }
    println!(
        "\nGEOMEAN: PDOALL {:.2}x, HELIX {:.2}x; PDOALL wins {} of {} benchmarks",
        geomean(&pd_all),
        geomean(&hx_all),
        pdoall_wins,
        pd_all.len()
    );
    println!("paper reference (Fig. 4): PDOALL wins on 179.art, 450.soplex, 482.sphinx3, 429.mcf");
    cli.finish("fig4");
}
