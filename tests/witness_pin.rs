//! Pins the independence witness of every EEMBC kernel at test scale,
//! field for field, against `tests/golden/witness_eembc_test.txt`.
//!
//! Every natural loop is armed as a target, so nested targets keep
//! several witness instances active at once. Each completed instance
//! renders as one line: kernel, function, loop, iterations, distinct
//! words, reads, writes, cactus-exempt accesses and the first violation
//! (address, earlier and later iteration, kind) or `holds`. Replay's
//! accept/reject decision reads only `holds`; the counts pin the
//! witness's storage so that a change to how it records words cannot
//! drift unseen.
//!
//! On a mismatch the fresh rendering is written to the system temp
//! directory and its path is printed; copy it over the golden file only
//! when the change is meant to move a witness.

use lp_analysis::analyze_module;
use lp_interp::MachineConfig;
use lp_runtime::{profile_module_witnessed, WitnessReport};
use lp_suite::{Scale, SuiteId};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/witness_eembc_test.txt");

fn render(kernel: &str, report: &WitnessReport, out: &mut String) {
    for w in &report.witnesses {
        let verdict = match w.violation {
            None => "holds".to_string(),
            Some(v) => format!(
                "{} addr={:#x} earlier={} later={}",
                v.kind.tag(),
                v.addr,
                v.earlier_iter,
                v.later_iter
            ),
        };
        writeln!(
            out,
            "{kernel} f{} L{} iters={} words={} reads={} writes={} exempt={} {verdict}",
            w.func.0,
            w.loop_id.0,
            w.iterations,
            w.distinct_words,
            w.reads,
            w.writes,
            w.cactus_exempt
        )
        .unwrap();
    }
}

#[test]
fn eembc_witness_reports_match_the_golden_file() {
    let mut fresh = String::new();
    for b in lp_suite::registry() {
        if b.suite != SuiteId::Eembc {
            continue;
        }
        let module = b.build(Scale::Test);
        let analysis = analyze_module(&module);
        let mut targets = Vec::new();
        for (fid, _) in module.iter_functions() {
            for (lid, _) in analysis.function(fid).loops.iter() {
                targets.push((fid, lid));
            }
        }
        let (_, _, report) =
            profile_module_witnessed(&module, &analysis, &[], MachineConfig::default(), &targets)
                .unwrap_or_else(|e| panic!("{}: witnessed run trapped: {e}", b.name));
        render(b.name, &report, &mut fresh);
    }
    if fresh != GOLDEN {
        let path = std::env::temp_dir().join("witness_eembc_test.fresh.txt");
        std::fs::write(&path, &fresh).unwrap();
        let first = fresh
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(fresh.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "witness reports moved (first differing line {}; {} fresh vs {} golden lines); \
             fresh rendering written to {}",
            first + 1,
            fresh.lines().count(),
            GOLDEN.lines().count(),
            path.display()
        );
    }
}
