//! Full-lattice sweep: every benchmark × every execution model × all 32
//! configurations, exported as CSV for external plotting. The
//! machine-readable superset of Figures 2–4.
//!
//! Benchmarks fan out over `--jobs N` workers (default: `LP_JOBS` or the
//! machine's available parallelism). Each is profiled **once**, its 96
//! `(model, config)` points are evaluated and rendered as CSV rows, and
//! its profile is dropped before the worker takes the next benchmark, so
//! at most `N` profiles are alive at once. The CSV on stdout is
//! byte-identical for any worker count. `--suite NAME` (repeatable)
//! restricts the sweep to one or more suites. The rows go out through one
//! buffered writer inside an `export` span; a reader that closes the pipe
//! early (`sweep default | head -n 1`) ends the output, not the run.
//!
//! ```text
//! cargo run --release -p lp-bench --bin sweep -- default > results/sweep.csv
//! cargo run --release -p lp-bench --bin sweep -- test --suite eembc --jobs 4
//! ```

use lp_bench::{fold_benchmarks, suite_benchmarks, Cli};
use lp_obs::{lp_info, span};
use lp_runtime::export::{report_header, report_row};
use lp_runtime::{Config, ExecModel};
use lp_suite::SuiteId;
use std::io::{self, BufWriter, Write};

fn parse_suite(name: &str) -> SuiteId {
    SuiteId::all()
        .into_iter()
        .find(|s| s.label() == name)
        .unwrap_or_else(|| {
            eprintln!(
                "unknown suite {name:?} (expected one of: {})",
                SuiteId::all().map(|s| s.label()).join(", ")
            );
            std::process::exit(2);
        })
}

/// Writes the CSV header and each benchmark's rendered rows to stdout.
fn write_csv(kernels: &[String]) -> io::Result<()> {
    let mut out = BufWriter::new(io::stdout().lock());
    writeln!(out, "{}", report_header())?;
    for rows in kernels {
        out.write_all(rows.as_bytes())?;
    }
    out.flush()
}

fn main() {
    let cli = Cli::parse();
    cli.enforce("sweep");
    let mut suites: Vec<SuiteId> = Vec::new();
    let mut rest = cli.rest.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--suite" => match rest.next() {
                Some(name) => suites.push(parse_suite(name)),
                None => {
                    eprintln!("--suite requires a suite name argument");
                    std::process::exit(2);
                }
            },
            extra => {
                eprintln!(
                    "unknown argument {extra:?} (expected test|small|default, --suite NAME, \
                     --jobs N, --engine tree|bc, --trace-out FILE, --profile-cache DIR, \
                     --flight-out FILE, --snapshot-out FILE, --quiet)"
                );
                std::process::exit(2);
            }
        }
    }
    if suites.is_empty() {
        suites.extend(SuiteId::all());
    }
    let jobs = cli.jobs();
    let store = cli.store();
    let reg = lp_obs::registry();
    let t0 = reg.now_ns();
    let models = ExecModel::all();
    let configs = Config::all();
    let rows: Vec<_> = models
        .iter()
        .flat_map(|&m| configs.iter().map(move |&c| (m, c)))
        .collect();
    let kernels = fold_benchmarks(
        &suite_benchmarks(&suites),
        cli.scale,
        jobs,
        store.as_ref(),
        cli.engine,
        |run| {
            let mut csv = String::new();
            for report in run.evaluate_rows(&rows) {
                csv.push_str(&report_row(&report));
                csv.push('\n');
            }
            csv
        },
    );
    let written = {
        let _export = span!("export");
        write_csv(&kernels)
    };
    match written {
        Ok(()) => lp_info!(
            "wrote {} rows ({} benchmarks x {} models x {} configs) on {jobs} worker(s), {:.2}s",
            kernels.len() * rows.len(),
            kernels.len(),
            models.len(),
            configs.len(),
            reg.now_ns().saturating_sub(t0) as f64 / 1e9
        ),
        // The reader has all it wanted; the run still finishes normally.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
            lp_info!("stdout closed early; stopped writing rows");
        }
        Err(e) => {
            eprintln!("cannot write CSV to stdout: {e}");
            std::process::exit(1);
        }
    }
    cli.finish("sweep");
}
