//! CSV, JSON, and collapsed-stack export of evaluation results — the
//! machine-readable companions to the pretty-printing binaries, for
//! plotting the figures (and flamegraphs) with external tools.
//!
//! Everything JSON goes through [`lp_obs::JsonWriter`] (the workspace's
//! single escaper) behind the [`Export`] trait: an exportable value
//! streams itself into a writer, and `to_json` / `to_json_pretty` pick
//! the rendering.

use crate::eval::EvalReport;
use crate::explain::{Attribution, Limiter};
use crate::profile::{Profile, RegionKind};
use lp_obs::JsonWriter;
use std::fmt::Write;

/// A value that can render itself as a JSON document through the shared
/// [`JsonWriter`].
///
/// Implementors stream exactly one JSON value into the writer; the
/// provided methods wrap that in a compact (machine, byte-stable) or
/// pretty (human) document.
pub trait Export {
    /// Streams `self` into `w` as one JSON value.
    fn write_json(&self, w: &mut JsonWriter);

    /// Renders the compact document (no whitespace; byte-identical to
    /// the historical hand-rolled emitters).
    #[must_use]
    fn to_json(&self) -> String {
        let mut w = JsonWriter::compact();
        self.write_json(&mut w);
        w.finish()
    }

    /// Renders the indented document for human inspection.
    #[must_use]
    fn to_json_pretty(&self) -> String {
        let mut w = JsonWriter::pretty();
        self.write_json(&mut w);
        w.finish()
    }
}

/// Escapes one CSV field (quotes when needed).
fn field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Header row for [`report_row`].
#[must_use]
pub fn report_header() -> String {
    "program,model,config,total_cost,best_cost,speedup,coverage_pct".to_string()
}

/// One CSV row for an evaluation report.
#[must_use]
pub fn report_row(report: &EvalReport) -> String {
    format!(
        "{},{},{},{},{},{:.6},{:.3}",
        field(&report.program),
        report.model,
        report.config,
        report.total_cost,
        report.best_cost,
        report.speedup,
        report.coverage
    )
}

fn write_limiter(w: &mut JsonWriter, lim: &Limiter, best: u64) {
    w.begin_object();
    w.key("kind");
    w.string(lim.kind.name());
    w.key("weight");
    w.uint(lim.weight);
    w.key("savings");
    w.uint(lim.savings);
    w.key("instances");
    w.uint(lim.instances);
    w.key("unlock_factor");
    w.fixed(lim.unlock_factor(best), 4);
    w.key("describes");
    w.string(lim.kind.describe());
    w.end_object();
}

/// `explain.json`: the full attribution document. Validates against
/// [`lp_obs::validate_json`].
impl Export for Attribution {
    fn write_json(&self, w: &mut JsonWriter) {
        let speedup = self.total_cost.max(1) as f64 / self.best_cost.max(1) as f64;
        w.begin_object();
        w.key("program");
        w.string(&self.program);
        w.key("model");
        w.string(&self.model.to_string());
        w.key("config");
        w.string(&self.config.to_string());
        w.key("total_cost");
        w.uint(self.total_cost);
        w.key("best_cost");
        w.uint(self.best_cost);
        w.key("speedup");
        w.fixed(speedup, 6);
        w.key("total_gap");
        w.uint(self.total_gap());
        w.key("limiters");
        w.begin_array();
        for lim in &self.limiters {
            write_limiter(w, lim, self.best_cost);
        }
        w.end_array();
        w.key("loops");
        w.begin_array();
        for l in &self.loops {
            w.begin_object();
            w.key("function");
            w.string(&l.func_name);
            w.key("header");
            w.string(&l.header.to_string());
            w.key("depth");
            w.uint(u64::from(l.depth));
            w.key("verdict");
            w.string(l.verdict());
            w.key("instances");
            w.uint(l.instances);
            w.key("parallel_instances");
            w.uint(l.parallel_instances);
            w.key("serial_cost");
            w.uint(l.serial_cost);
            w.key("best_cost");
            w.uint(l.best_cost);
            w.key("ideal_cost");
            w.uint(l.ideal_cost);
            w.key("gap");
            w.uint(l.gap);
            w.key("limiters");
            w.begin_array();
            for lim in &l.limiters {
                write_limiter(w, lim, l.best_cost);
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
}

/// Sanitizes one collapsed-stack frame name (the format reserves `;` as
/// the frame separator and the final space as the weight separator).
fn frame(s: &str) -> String {
    s.replace([';', ' '], "_")
}

/// Flamegraph-compatible collapsed stacks of the dynamic region tree:
/// one line per region, `frame;frame;... weight`, where frames are the
/// function/loop-header nesting, the weight is the region's *exclusive*
/// dynamic IR instructions, and each loop frame is annotated
/// `_[serial]`/`_[parallel]` from the attribution's per-region verdict.
/// Exclusive weights telescope: the emitted weights sum to the profile's
/// `total_cost`, making coverage (Fig. 5) visually inspectable in any
/// flamegraph viewer.
#[must_use]
pub fn collapsed_stacks(profile: &Profile, attr: &Attribution) -> String {
    let mut out = String::new();
    let mut stack: Vec<String> = Vec::new();
    emit_region(profile, attr, 0, &mut stack, &mut out);
    out
}

fn emit_region(
    profile: &Profile,
    attr: &Attribution,
    idx: usize,
    stack: &mut Vec<String>,
    out: &mut String,
) {
    let region = &profile.regions[idx];
    let name = match &region.kind {
        RegionKind::Call { func } => frame(
            profile
                .func_names
                .get(func.index())
                .map_or("<unknown>", String::as_str),
        ),
        RegionKind::Loop(inst) => {
            let meta = &profile.loop_meta[inst.meta];
            let verdict = if attr.region_parallel.get(idx).copied().unwrap_or(false) {
                "parallel"
            } else {
                "serial"
            };
            format!(
                "loop@{}:{}_[{verdict}]",
                frame(&meta.func_name),
                meta.header
            )
        }
    };
    stack.push(name);
    let child_cost: u64 = region
        .children
        .iter()
        .map(|c| profile.regions[c.index()].serial_cost())
        .sum();
    let exclusive = region.serial_cost().saturating_sub(child_cost);
    if exclusive > 0 {
        let _ = writeln!(out, "{} {exclusive}", stack.join(";"));
    }
    for c in &region.children {
        emit_region(profile, attr, c.index(), stack, out);
    }
    stack.pop();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, ExecModel};
    use crate::eval::evaluate;
    use crate::tracker::profile_module;
    use lp_analysis::analyze_module;
    use lp_interp::MachineConfig;
    use lp_ir::builder::FunctionBuilder;
    use lp_ir::{IcmpPred, Module, Type};

    fn tiny_report() -> EvalReport {
        let mut m = Module::new("csv,program"); // comma forces quoting
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let n = fb.const_i64(4);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let header = fb.create_block("header");
        let body = fb.create_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let c = fb.icmp(IcmpPred::Slt, i, n);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, lp_ir::BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, body, i2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(i));
        m.add_function(fb.finish().unwrap());
        let analysis = analyze_module(&m);
        let (p, _) = profile_module(&m, &analysis, &[], MachineConfig::default()).unwrap();
        evaluate(&p, ExecModel::Doall, Config::all()[0])
    }

    #[test]
    fn csv_rows_have_matching_column_counts() {
        let r = tiny_report();
        // The quoted program name contains a comma; count naive splits on
        // the header only and check the data row by parsing quotes.
        assert_eq!(report_header().split(',').count(), 7);
        let row = report_row(&r);
        assert!(row.starts_with("\"csv,program\""), "{row}");
        assert!(row.contains("DOALL"));
    }

    #[test]
    fn pretty_export_is_valid_json_with_same_content() {
        let (_, attr) = tiny_explained();
        let pretty = attr.to_json_pretty();
        lp_obs::validate_json(&pretty).expect("pretty explain.json must be valid");
        // Same document modulo whitespace: stripping all spaces/newlines
        // outside strings is overkill here — the field set is enough.
        assert!(pretty.contains("\"limiters\": ["));
        assert_eq!(
            pretty.matches("\"kind\"").count(),
            attr.to_json().matches("\"kind\"").count()
        );
    }

    fn tiny_explained() -> (crate::profile::Profile, Attribution) {
        let mut m = Module::new("explain");
        let g = m.add_global(lp_ir::Global::zeroed("cell", 1));
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let n = fb.const_i64(8);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let cell = fb.global_addr(g);
        let header = fb.create_block("header");
        let body = fb.create_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let c = fb.icmp(IcmpPred::Slt, i, n);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let v = fb.load(Type::I64, cell);
        let v2 = fb.add(v, one);
        fb.store(v2, cell);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, lp_ir::BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, body, i2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(i));
        m.add_function(fb.finish().unwrap());
        let analysis = analyze_module(&m);
        let (p, _) = profile_module(&m, &analysis, &[], MachineConfig::default()).unwrap();
        let (_, attr) = crate::eval::evaluate_explained(&p, ExecModel::Doall, Config::all()[0]);
        (p, attr)
    }

    #[test]
    fn attribution_json_is_valid_and_names_the_limiter() {
        let (_, attr) = tiny_explained();
        let json = attr.to_json();
        lp_obs::validate_json(&json).expect("explain.json must be valid");
        assert!(json.contains("\"kind\":\"memory-raw\""), "{json}");
        assert!(json.contains("\"verdict\":\"serial\""), "{json}");
        assert!(json.contains("\"function\":\"main\""), "{json}");
    }

    #[test]
    fn collapsed_stacks_weights_sum_to_total_cost() {
        let (p, attr) = tiny_explained();
        let collapsed = collapsed_stacks(&p, &attr);
        let mut sum = 0u64;
        for line in collapsed.lines() {
            let (stack, weight) = line.rsplit_once(' ').expect("frame weight");
            assert!(!stack.is_empty());
            sum += weight.parse::<u64>().unwrap();
        }
        assert_eq!(sum, p.total_cost, "exclusive weights must telescope");
        assert!(collapsed.starts_with("main "), "{collapsed}");
        assert!(
            collapsed.contains("main;loop@main:b1_[serial] "),
            "{collapsed}"
        );
    }

    #[test]
    fn field_escaping() {
        assert_eq!(field("plain"), "plain");
        assert_eq!(field("a,b"), "\"a,b\"");
        assert_eq!(field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
