//! `lpstudy` — study your own kernel from the command line.
//!
//! Reads a textual-IR module (see `lp_ir::parser` for the format, or
//! print any suite benchmark with `--dump`), runs the Loopapalooza
//! pipeline, and reports per-configuration limit speedups plus per-loop
//! detail for the headline configuration. With no input, studies a
//! built-in demo kernel (round-tripped through the textual parser, so
//! the full parse → verify → analyze → profile → evaluate pipeline runs).
//!
//! The `explain` subcommand goes one step further and *attributes* the
//! remaining gap: for each loop it ranks the limiters (memory RAW
//! conflicts, register LCDs, reductions, value-prediction misses, call
//! gates) that kept the loop away from its ideal conflict-free cost,
//! with counterfactual "lifting this alone unlocks ≤N×" bounds.
//!
//! ```text
//! cargo run --release -p lp-bench --bin lpstudy -- path/to/kernel.lp
//! cargo run --release -p lp-bench --bin lpstudy -- --dump 181.mcf   # print a benchmark as text
//! cargo run --release -p lp-bench --bin lpstudy -- --bench 456.hmmer
//! cargo run --release -p lp-bench --bin lpstudy -- --trace-out trace.json
//! cargo run --release -p lp-bench --bin lpstudy -- explain --explain-out explain.json
//! ```

use loopapalooza::Study;
use lp_bench::{
    fold_benchmarks, geomean_coverage, geomean_speedup, suite_benchmarks, write_explain, Cli,
    RowResults,
};
use lp_obs::{lp_info, span};
use lp_runtime::{best_helix, best_pdoall, geomean, ExecModel, Export, RejectReason};
use lp_suite::{Scale, SuiteId};

/// Benchmark the no-input demo round-trips through the textual parser.
const DEMO_BENCH: &str = "181.mcf";

fn usage() -> ! {
    eprintln!("usage: lpstudy [<file.lp> | --bench <name> | --suite <name> | --dump <name>");
    eprintln!("                | --analyze <file.lp|name> | explain [<file.lp|name>]");
    eprintln!("                | replay [--suite <name>] [--replay-out FILE]");
    eprintln!("                | diff <a.json> <b.json> [--json] [--include-timing]");
    eprintln!("                       [--noise-floor N] | audit <snap.json>]");
    eprintln!("               [--jobs N] [--engine tree|bc] [--profile-cache DIR]");
    eprintln!("               [--trace-out FILE] [--explain-out FILE] [--flight-out FILE]");
    eprintln!("               [--snapshot-out FILE] [--quiet]");
    eprintln!("  <file.lp>          study a textual-IR module");
    eprintln!("  --bench NAME       study a registered benchmark (e.g. 456.hmmer)");
    eprintln!("  --suite NAME       study a whole suite (eembc, cint2000, cfp2000, ...)");
    eprintln!("  --dump NAME        print a registered benchmark as textual IR");
    eprintln!("  --analyze WHAT     print the compile-time analysis (loops, LCD classes)");
    eprintln!("  explain [WHAT]     rank, per loop, the limiters that block further speedup");
    eprintln!("  replay             execute certified DOALL loops across real threads and");
    eprintln!("                     byte-compare every run against a serial reference;");
    eprintln!("                     prints measured vs predicted speedup per loop and ends");
    eprintln!("                     with `N divergence(s)` (exit 1 on any divergence)");
    eprintln!("  --replay-out FILE  write the lp-replay-v1 JSON document (replay only)");
    eprintln!("  diff A B           rank counter/histogram divergences between two");
    eprintln!("                     --snapshot-out captures (last line: N significant ...)");
    eprintln!("  audit SNAP         check cross-counter conservation laws over a snapshot");
    eprintln!("                     (exit 1 on any violation)");
    eprintln!("  (no input)         study a built-in demo kernel ({DEMO_BENCH})");
    eprintln!("  --jobs N           sweep worker count (default: LP_JOBS or all cores;");
    eprintln!("                     the printed output is identical for any value)");
    eprintln!("  --engine tree|bc   interpreter engine (default bc; tree is the reference");
    eprintln!("                     walk, and the output is identical for either)");
    eprintln!("  --profile-cache DIR persist profiles under DIR and warm-start from them");
    eprintln!("                     (LP_PROFILE_CACHE=off|ro|rw selects the mode)");
    eprintln!("  --trace-out FILE   write a Chrome trace_event JSON of the run");
    eprintln!("  --explain-out FILE write limiter-attribution JSON (+ .collapsed stacks)");
    eprintln!("  --flight-out FILE  dump the flight-recorder journal (also on panic)");
    eprintln!("  --snapshot-out FILE write the cross-run registry snapshot (diff/audit input)");
    eprintln!("  --quiet            suppress progress logging (see also LP_LOG=off|info|debug)");
    std::process::exit(2);
}

/// Rejects any rest argument beyond the `consumed` count — unknown flags
/// and stray operands get the usage text, not silence.
fn expect_consumed(args: &[String], consumed: usize) {
    if let Some(extra) = args.get(consumed) {
        eprintln!("unexpected extra argument {extra:?}");
        usage();
    }
}

fn parse_text(text: &str) -> lp_ir::Module {
    let _span = span!("parse");
    lp_ir::parser::parse_module(text).unwrap_or_else(|e| {
        eprintln!("parse error: {e}");
        std::process::exit(1);
    })
}

fn load(what: &str) -> lp_ir::Module {
    if let Some(bench) = lp_suite::find(what) {
        let _span = span!("parse");
        return bench.build(Scale::Test);
    }
    let text = std::fs::read_to_string(what).unwrap_or_else(|e| {
        eprintln!("{what:?} is neither a benchmark name nor a readable file: {e}");
        std::process::exit(2);
    });
    parse_text(&text)
}

/// Round-trips the demo benchmark through the textual printer/parser so
/// the whole pipeline (including a genuine parse phase) is exercised.
fn demo_module(doing: &str) -> lp_ir::Module {
    lp_info!("no input given — {doing} the built-in demo kernel {DEMO_BENCH}");
    let bench = lp_suite::find(DEMO_BENCH).expect("demo benchmark registered");
    let text = lp_ir::printer::print_module(&bench.build(Scale::Test));
    parse_text(&text)
}

/// The `--suite` mode: profile every benchmark of one suite (each
/// exactly once, fanned over `--jobs` workers), evaluate the 14 paper
/// rows for each before its profile is dropped, and print a per-row
/// GEOMEAN table plus a per-benchmark summary under the best HELIX
/// configuration. Output is byte-identical for any worker count.
fn run_suite(cli: &Cli, name: &str) {
    let Some(suite) = SuiteId::all().into_iter().find(|s| s.label() == name) else {
        eprintln!("unknown suite {name:?}; expected one of:");
        for s in SuiteId::all() {
            eprintln!("  {}", s.label());
        }
        std::process::exit(2);
    };
    let jobs = cli.jobs();
    let store = cli.store();
    let rows = lp_runtime::table2_rows();
    let (model, config) = best_helix();
    let hx_row = rows
        .iter()
        .position(|&row| row == (model, config))
        .expect("paper rows include best HELIX");
    let results = fold_benchmarks(
        &suite_benchmarks(&[suite]),
        cli.scale,
        jobs,
        store.as_ref(),
        cli.engine,
        |run| {
            let attr = cli
                .explain_out
                .as_ref()
                .map(|_| run.study.explain(model, config).1);
            (RowResults::of(run, &rows), attr)
        },
    );
    let (results, attrs): (Vec<RowResults>, Vec<_>) = results.into_iter().unzip();

    println!(
        "suite {} — {} benchmarks, {} rows each ({:?} scale)\n",
        suite.label(),
        results.len(),
        rows.len(),
        cli.scale
    );
    println!(
        "{:<14} {:<18} {:>9} {:>9}",
        "model", "config", "speedup", "coverage"
    );
    for (j, (model, config)) in rows.iter().enumerate() {
        println!(
            "{:<14} {:<18} {:>8.2}x {:>8.1}%",
            model.to_string(),
            config.to_string(),
            geomean_speedup(&results, suite, j),
            geomean_coverage(&results, suite, j)
        );
    }
    println!("\nper-benchmark speedup under best HELIX:");
    let mut speedups = Vec::with_capacity(results.len());
    for r in &results {
        println!(
            "  {:<18} {:>8.2}x  coverage {:>5.1}%",
            r.name, r.speedup[hx_row], r.coverage[hx_row]
        );
        speedups.push(r.speedup[hx_row]);
    }
    println!("  {:<18} {:>8.2}x  (GEOMEAN)", "all", geomean(&speedups));
    if let Some(path) = &cli.explain_out {
        let attrs: Vec<_> = attrs.into_iter().flatten().collect();
        write_explain(path, &attrs, None);
    }
    cli.finish("lpstudy");
}

/// The `explain` subcommand: evaluate the baseline DOALL row plus the
/// best-realistic PDOALL and HELIX rows, printing the ranked
/// limiter-attribution table for each and honouring `--explain-out`.
fn run_explain(cli: &Cli, module: &lp_ir::Module) {
    let store = cli.store();
    let study =
        Study::with_store(module, cli.machine_config(), store.as_ref()).unwrap_or_else(|e| {
            eprintln!("study failed: {e}");
            std::process::exit(1);
        });
    let rows = [
        (
            ExecModel::Doall,
            "reduc0-dep0-fn0".parse().expect("valid config"),
        ),
        best_pdoall(),
        best_helix(),
    ];
    let mut attrs = Vec::with_capacity(rows.len());
    for (i, (model, config)) in rows.into_iter().enumerate() {
        let (_, attr) = study.explain(model, config);
        if i > 0 {
            println!();
        }
        print!("{}", attr.render_table());
        attrs.push(attr);
    }
    if let Some(path) = &cli.explain_out {
        write_explain(path, &attrs, Some(study.profile()));
    }
    cli.finish("lpstudy");
}

/// The `replay` subcommand: certify DOALL loops statically, gate them on
/// the run-time independence witness, execute the survivors' iterations
/// across real worker threads, and differentially validate every
/// replayed run against the serial reference (the witnessed run). Prints a
/// measured-vs-predicted speedup table per benchmark; the last line is
/// always the `... N divergence(s)` verdict, which CI compares exactly. Any
/// divergence is a hard failure (exit 1) naming the culprit loop.
fn run_replay(cli: &Cli, args: &[String]) {
    let mut suite_name = "eembc".to_string();
    let mut out: Option<std::path::PathBuf> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--suite" => match args.get(i + 1) {
                Some(name) => {
                    suite_name = name.clone();
                    i += 2;
                }
                None => {
                    eprintln!("--suite requires a suite name");
                    std::process::exit(2);
                }
            },
            "--replay-out" => match args.get(i + 1) {
                Some(path) => {
                    out = Some(std::path::PathBuf::from(path));
                    i += 2;
                }
                None => {
                    eprintln!("--replay-out requires a file argument");
                    std::process::exit(2);
                }
            },
            _ => usage(),
        }
    }
    let Some(suite) = SuiteId::all().into_iter().find(|s| s.label() == suite_name) else {
        eprintln!("unknown suite {suite_name:?}; expected one of:");
        for s in SuiteId::all() {
            eprintln!("  {}", s.label());
        }
        std::process::exit(2);
    };
    let jobs = cli.jobs();
    println!(
        "parallel DOALL replay: suite {}, {} worker(s)",
        suite.label(),
        jobs.get()
    );

    let mut benches = Vec::new();
    for b in lp_suite::suite(suite) {
        let module = {
            let _span = span!("parse");
            b.build(cli.scale)
        };
        let r =
            lp_runtime::replay_module_with(&module, &[], jobs, cli.engine).unwrap_or_else(|e| {
                eprintln!("replay of {} failed: {e}", b.name);
                std::process::exit(1);
            });
        println!(
            "\n{}: {} loop(s) replayed, {} rejected",
            b.name,
            r.loops.len(),
            r.rejected.len()
        );
        if !r.loops.is_empty() {
            println!(
                "  {:<22} {:>8} {:>6} {:>10} {:>10} {:>10}",
                "function", "header", "insts", "iters", "predicted", "measured"
            );
            for l in &r.loops {
                println!(
                    "  {:<22} {:>8} {:>6} {:>10} {:>9.2}x {:>9.2}x",
                    l.func_name,
                    l.header.to_string(),
                    l.instances,
                    l.iterations,
                    l.predicted_speedup,
                    l.measured_speedup()
                );
            }
        }
        for rej in &r.rejected {
            match &rej.reason {
                RejectReason::Violation(v) => println!(
                    "  rejected {}:{} — witness {} conflict at {:#x} (iterations {} and {})",
                    rej.func_name,
                    rej.header,
                    v.kind.tag(),
                    v.addr,
                    v.earlier_iter,
                    v.later_iter
                ),
                RejectReason::NeverExecuted => println!(
                    "  rejected {}:{} — never executed, no witness",
                    rej.func_name, rej.header
                ),
            }
        }
        if let Some(d) = &r.divergence {
            println!("  DIVERGENCE {d}");
        }
        benches.push(r);
    }

    let replayed: usize = benches.iter().map(|b| b.loops.len()).sum();
    let rejected: usize = benches.iter().map(|b| b.rejected.len()).sum();
    let divergences = benches.iter().filter(|b| b.divergence.is_some()).count();
    if let Some(path) = &out {
        let doc = lp_runtime::ReplayExport {
            suite: suite.label(),
            jobs: jobs.get(),
            benches: &benches,
        };
        if let Err(e) = std::fs::write(path, doc.to_json_pretty()) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        lp_info!("wrote lp-replay-v1 document to {}", path.display());
    }
    println!(
        "\nreplay: {replayed} loop(s) certified and replayed, {rejected} rejected, \
         {divergences} divergence(s)"
    );
    cli.finish("lpstudy");
    if divergences > 0 {
        std::process::exit(1);
    }
}

fn read_snapshot(path: &str) -> lp_obs::RunSnapshot {
    lp_obs::RunSnapshot::read(std::path::Path::new(path)).unwrap_or_else(|e| {
        eprintln!("cannot load snapshot: {e}");
        std::process::exit(1);
    })
}

/// The `diff` subcommand: load two `--snapshot-out` captures and print
/// the ranked divergences (human by default, `--json` for the
/// `lp-diff-v1` document). The human report always ends with
/// `N significant divergence(s)` so CI can `grep '^0 significant'`.
fn run_diff(args: &[String]) {
    let mut paths = Vec::new();
    let mut opts = lp_obs::DiffOptions::default();
    let mut json = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                json = true;
                i += 1;
            }
            "--include-timing" => {
                opts.include_timing = true;
                i += 1;
            }
            "--noise-floor" => match args.get(i + 1).and_then(|n| n.parse::<u64>().ok()) {
                Some(n) => {
                    opts.noise_floor = n;
                    i += 2;
                }
                None => {
                    eprintln!("--noise-floor requires an integer argument");
                    std::process::exit(2);
                }
            },
            flag if flag.starts_with("--") => usage(),
            path => {
                paths.push(path.to_string());
                i += 1;
            }
        }
    }
    let [a, b] = paths.as_slice() else { usage() };
    let diff = lp_obs::diff::diff(&read_snapshot(a), &read_snapshot(b), &opts);
    if json {
        println!("{}", diff.to_json());
    } else {
        print!("{}", diff.render());
    }
}

/// The `audit` subcommand: assert the cross-counter conservation laws
/// over one snapshot; any violated law is a non-zero exit.
fn run_audit(args: &[String]) {
    let path = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
    expect_consumed(args, 2);
    let snap = read_snapshot(path);
    let checks = lp_runtime::audit_snapshot(&snap);
    print!("{}", lp_runtime::render_audit(&checks));
    if lp_runtime::audit::failures(&checks) > 0 {
        std::process::exit(1);
    }
}

fn main() {
    let cli = Cli::parse();
    let args = &cli.rest;
    let module = match args.first().map(String::as_str) {
        Some("diff") => {
            run_diff(args);
            return;
        }
        Some("audit") => {
            run_audit(args);
            return;
        }
        Some("--dump") => {
            let name = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            expect_consumed(args, 2);
            let bench = lp_suite::find(name).unwrap_or_else(|| {
                eprintln!("unknown benchmark {name:?}; try one of:");
                for b in lp_suite::registry() {
                    eprintln!("  {}", b.name);
                }
                std::process::exit(2);
            });
            print!(
                "{}",
                lp_ir::printer::print_module(&bench.build(Scale::Test))
            );
            return;
        }
        Some("--analyze") => {
            let what = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            expect_consumed(args, 2);
            let module = load(what);
            let analysis = lp_analysis::analyze_module(&module);
            print!("{}", lp_analysis::dump_module(&module, &analysis));
            return;
        }
        Some("--suite") => {
            let name = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            expect_consumed(args, 2);
            run_suite(&cli, name);
            return;
        }
        Some("--bench") => {
            let name = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            expect_consumed(args, 2);
            let bench = lp_suite::find(name).unwrap_or_else(|| {
                eprintln!("unknown benchmark {name:?}");
                std::process::exit(2);
            });
            let _span = span!("parse");
            bench.build(cli.scale)
        }
        Some("replay") => {
            run_replay(&cli, args);
            return;
        }
        Some("explain") => {
            let module = match args.get(1).map(String::as_str) {
                Some(what) if !what.starts_with("--") => {
                    expect_consumed(args, 2);
                    load(what)
                }
                Some(_) => usage(),
                None => demo_module("explaining"),
            };
            run_explain(&cli, &module);
            return;
        }
        Some(path) if !path.starts_with("--") => {
            expect_consumed(args, 1);
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            });
            parse_text(&text)
        }
        Some(_) => usage(),
        None => demo_module("studying"),
    };

    let store = cli.store();
    let study =
        Study::with_store(&module, cli.machine_config(), store.as_ref()).unwrap_or_else(|e| {
            eprintln!("study failed: {e}");
            std::process::exit(1);
        });
    println!(
        "program {} ran: result = {}, sequential cost = {} dynamic IR instructions\n",
        module.name,
        study.run_result().ret,
        study.run_result().cost
    );
    println!(
        "{:<14} {:<18} {:>9} {:>9}",
        "model", "config", "speedup", "coverage"
    );
    for r in study.table2_rows() {
        println!(
            "{:<14} {:<18} {:>8.2}x {:>8.1}%",
            r.model.to_string(),
            r.config.to_string(),
            r.speedup,
            r.coverage
        );
    }
    let (model, config) = best_helix();
    let report = study.evaluate(model, config);
    println!("\nper-loop detail under {model} {config}:");
    for lp in &report.loops {
        println!(
            "  {}@{} depth {} — {} instance(s), {} iteration(s), {:.2}x ({} parallel)",
            lp.func_name,
            lp.header,
            lp.depth,
            lp.instances,
            lp.iterations,
            lp.speedup(),
            lp.parallel_instances
        );
    }
    println!("\n{}", study.census());
    if let Some(path) = &cli.explain_out {
        let (_, attr) = study.explain(model, config);
        write_explain(path, std::slice::from_ref(&attr), Some(study.profile()));
    }
    cli.finish("lpstudy");
}
