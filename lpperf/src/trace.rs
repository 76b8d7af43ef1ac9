//! `lpperf trace`: the per-layer metrics. One traced pass walks every
//! kernel of the workload's inputs through each layer's public entry
//! points in turn, recording a span around each call, plus the work the
//! layer did as exact counts.

use crate::alloc;
use crate::mix::{self, Kernel};
use crate::report::{Metric, Mode, Report, Workload, PER_LAYER};
use crate::stats;
use lp_analysis::{analyze_module, certify_module, verify_ssa, ModuleAnalysis};
use lp_interp::{CountingSink, Engine, EventSink, Exec, ExecUnit, MachineConfig, Value};
use lp_ir::{BlockId, FuncId, Module, ValueId};
use lp_obs::JsonWriter;
use lp_predict::HybridPredictor;
use lp_runtime::{
    best_helix, best_pdoall, decode_entry, encode_entry, evaluate_explained, profile_module,
    profile_module_witnessed, replay_module_with, sweep_points, Config, EvalOptions, ExecModel,
    Jobs, ProfileKey, ProfileStore, ProfilerOptions, StoreMode, SweepPoint, SweepUnit,
};
use lp_suite::{Scale, SuiteId};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Hard stop for the traced passes (see `run::PASS_CAP`).
const PASS_CAP: Duration = Duration::from_secs(120);

/// Replay worker count: the machine this benchmark was written for has
/// two cores.
const REPLAY_JOBS: usize = 2;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// Index into the kernel names, for spans about one kernel.
    kernel: Option<usize>,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder; does nothing but run the closure when off.
struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            on: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn enter(&mut self, name: &'static str, kernel: Option<usize>) {
        if self.on {
            self.spans.push(Span {
                name,
                kernel,
                parent: self.open.last().copied(),
                start_ns: self.now(),
                end_ns: 0,
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    fn exit(&mut self) {
        if self.on {
            let i = self.open.pop().expect("exit matches an enter");
            self.spans[i].end_ns = self.now();
        }
    }

    /// Runs `f` inside a span.
    fn span<R>(&mut self, name: &'static str, kernel: Option<usize>, f: impl FnOnce() -> R) -> R {
        self.enter(name, kernel);
        let r = f();
        self.exit();
        r
    }

    /// Self time per span name over `spans[from..]`, in nanoseconds: each
    /// span's duration minus its children's.
    fn self_ns(&self, from: usize) -> BTreeMap<&'static str, u64> {
        let spans = &self.spans[from..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p >= from) {
                child_ns[p - from] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    /// The spans as Chrome `trace_event` JSON.
    fn chrome_trace(&self, kernels: &[String]) -> String {
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.key("traceEvents");
        w.begin_array();
        for s in &self.spans {
            w.begin_object();
            w.key("name");
            w.string(s.name);
            w.key("cat");
            w.string("lpperf");
            w.key("ph");
            w.string("X");
            w.key("ts");
            w.float(s.start_ns as f64 / 1e3);
            w.key("dur");
            w.float((s.end_ns - s.start_ns) as f64 / 1e3);
            w.key("pid");
            w.uint(1);
            w.key("tid");
            w.uint(1);
            w.key("args");
            w.begin_object();
            w.key("kernel");
            w.string(s.kernel.map_or("", |k| kernels[k].as_str()));
            w.key("parent");
            match s.parent {
                Some(p) => w.string(self.spans[p].name),
                None => w.null(),
            }
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// Records, per traced phi, the values the profiler's predictors see:
/// every resolution of a non-computable header phi of a single-latch
/// loop, in execution order.
struct PhiRecorder {
    /// Per function, per value: stream index, or `usize::MAX`.
    slots: Vec<Vec<usize>>,
    streams: Vec<Vec<u64>>,
}

impl PhiRecorder {
    fn new(module: &Module, analysis: &ModuleAnalysis) -> PhiRecorder {
        let mut slots = Vec::new();
        let mut n = 0;
        for (fid, func) in module.iter_functions() {
            let fa = analysis.function(fid);
            let mut row = vec![usize::MAX; func.values.len()];
            for (lid, lp) in fa.loops.iter() {
                if lp.latches.len() != 1 {
                    continue;
                }
                for &(phi, class) in &fa.lcds[lid.index()].phis {
                    if !class.is_computable() {
                        row[phi.index()] = n;
                        n += 1;
                    }
                }
            }
            slots.push(row);
        }
        PhiRecorder {
            slots,
            streams: vec![Vec::new(); n],
        }
    }
}

impl EventSink for PhiRecorder {
    fn phi_resolved(
        &mut self,
        func: FuncId,
        _block: BlockId,
        phi: ValueId,
        value: Value,
        _now: u64,
    ) {
        if let Some(&slot) = self.slots[func.index()].get(phi.index()) {
            if slot != usize::MAX {
                self.streams[slot].push(value.fingerprint());
            }
        }
    }
}

/// Work counts of one pass; identical on every pass of one seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Counts {
    parse_bytes: u64,
    insts: u64,
    events: u64,
    tracker_allocs: u64,
    tracker_bytes: u64,
    observations: u64,
    hits: u64,
    predict_allocs: u64,
    predict_bytes: u64,
    replay_loops: u64,
    divergences: u64,
    points: u64,
    eval_allocs: u64,
    store_bytes: u64,
}

/// Timing-derived figures of one pass that are not span self times.
#[derive(Debug, Clone, Copy, Default)]
struct Timings {
    serial_ns: u64,
    parallel_ns: u64,
}

/// The workload's kernels and its lattice rows.
fn inputs(workload: Workload, seed: u64) -> (Vec<Kernel>, Vec<(ExecModel, Config)>) {
    let suite = |benches: Vec<lp_suite::Benchmark>| {
        benches
            .into_iter()
            .map(|b| {
                let text = lp_ir::printer::print_module(&b.build(Scale::Default));
                Kernel {
                    name: b.name.to_string(),
                    text,
                }
            })
            .collect()
    };
    let kernels = match workload {
        Workload::Figures | Workload::Lattice => suite(lp_suite::registry()),
        Workload::Replay => suite(lp_suite::suite(SuiteId::Eembc)),
        Workload::Mix => mix::generate(seed, 0),
    };
    let rows = if workload == Workload::Lattice {
        ExecModel::all()
            .into_iter()
            .flat_map(|m| Config::all().into_iter().map(move |c| (m, c)))
            .collect()
    } else {
        lp_runtime::table2_rows()
    };
    (kernels, rows)
}

/// Checks failed on one pass, with a reason each.
type Failures = Vec<String>;

/// One traced pass over every kernel.
fn pass(
    rec: &mut Recorder,
    kernels: &[Kernel],
    rows: &[(ExecModel, Config)],
    store_dir: &Path,
) -> (Counts, Timings, Failures) {
    let mut c = Counts::default();
    let mut t = Timings::default();
    let mut failures = Failures::new();
    let _ = std::fs::remove_dir_all(store_dir);
    let store = match ProfileStore::open(store_dir, StoreMode::ReadWrite) {
        Ok(s) => Some(s),
        Err(e) => {
            failures.push(format!("cannot open store {}: {e}", store_dir.display()));
            None
        }
    };
    let config = MachineConfig::default();
    let mut units = Vec::with_capacity(kernels.len());
    rec.enter("pass", None);
    for (k, Kernel { name, text }) in kernels.iter().enumerate() {
        let k = Some(k);
        let mut fail = |why: String| failures.push(format!("{name}: {why}"));
        c.parse_bytes += text.len() as u64;
        let module = match rec.span("ir.parse", k, || lp_ir::parser::parse_module(text)) {
            Ok(m) => m,
            Err(e) => {
                fail(format!("parse error: {e}"));
                continue;
            }
        };
        if let Err(e) = rec.span("ir.verify", k, || {
            lp_ir::verify_module(&module).and_then(|()| verify_ssa(&module))
        }) {
            fail(format!("verifier: {e}"));
            continue;
        }
        let (analysis, certified) = rec.span("analysis", k, || {
            let a = analyze_module(&module);
            let cert = certify_module(&module, &a);
            (a, cert)
        });
        let unit = rec.span("interp.compile", k, || {
            ExecUnit::with_engine(&module, Engine::Bc)
        });
        let inert = match rec.span("interp.run", k, || Exec::new(&unit).run(&[])) {
            Ok(out) => out.result,
            Err(e) => {
                fail(format!("inert run: {e}"));
                continue;
            }
        };
        c.insts += inert.cost;
        let mut sink = CountingSink::default();
        if let Err(e) = rec.span("interp.observe", k, || {
            Exec::new(&unit).sink(&mut sink).run(&[])
        }) {
            fail(format!("observing run: {e}"));
        }
        c.events += sink.blocks + sink.phis + sink.loads + sink.stores + sink.calls + sink.builtins;
        let (profiled, allocs, bytes) = rec.span("tracker", k, || {
            alloc::counted(|| profile_module(&module, &analysis, &[], config.clone()))
        });
        c.tracker_allocs += allocs;
        c.tracker_bytes += bytes;
        let (profile, run) = match profiled {
            Ok(p) => p,
            Err(e) => {
                fail(format!("profiled run: {e}"));
                continue;
            }
        };
        if run.ret != inert.ret || run.cost != inert.cost {
            fail("profiled run differs from the inert run".into());
        }

        // The predictor rung: the profiler's own traced-phi streams,
        // recorded outside any layer span, replayed into fresh hybrids.
        let mut phis = PhiRecorder::new(&module, &analysis);
        if let Err(e) = Exec::new(&unit).sink(&mut phis).run(&[]) {
            fail(format!("recording run: {e}"));
        }
        let (hits, allocs, bytes) = rec.span("predict", k, || {
            alloc::counted(|| {
                let mut hits = 0u64;
                for stream in &phis.streams {
                    let mut p = HybridPredictor::new();
                    hits += stream.iter().filter(|&&v| p.observe(v)).count() as u64;
                }
                hits
            })
        });
        let observed: u64 = phis.streams.iter().map(|s| s.len() as u64).sum();
        let (want_obs, want_hits) = profile
            .loop_instances()
            .flat_map(|(_, _, inst)| &inst.lcds)
            .fold((0, 0), |(o, h), l| (o + l.observed, h + l.predicted));
        if (observed, hits) != (want_obs, want_hits) {
            fail(format!(
                "predictor replay saw {observed} observations / {hits} hits, \
                 the profile {want_obs} / {want_hits}"
            ));
        }
        c.observations += observed;
        c.hits += hits;
        c.predict_allocs += allocs;
        c.predict_bytes += bytes;
        drop(phis);

        let targets: Vec<_> = certified.iter().map(|l| (l.func, l.loop_id)).collect();
        if let Err(e) = rec.span("witness", k, || {
            profile_module_witnessed(&module, &analysis, &[], config.clone(), &targets)
        }) {
            fail(format!("witnessed run: {e}"));
        }
        match rec.span("replay", k, || {
            replay_module_with(&module, &[], Jobs::new(REPLAY_JOBS), Engine::Bc)
        }) {
            Ok(r) => {
                c.replay_loops += r.loops.len() as u64;
                c.divergences += u64::from(r.divergence.is_some());
                t.serial_ns += r.loops.iter().map(|l| l.serial_ns).sum::<u64>();
                t.parallel_ns += r.loops.iter().map(|l| l.parallel_ns).sum::<u64>();
                if let Some(d) = &r.divergence {
                    fail(format!("replay divergence: {d}"));
                }
            }
            Err(e) => fail(format!("replay: {e}")),
        }
        rec.span("explain", k, || {
            for (model, cfg) in [best_pdoall(), best_helix()] {
                std::hint::black_box(evaluate_explained(&profile, model, cfg));
            }
        });

        let bytes = rec.span("store.encode", k, || encode_entry(&profile, &run));
        c.store_bytes += bytes.len() as u64;
        match rec.span("store.decode", k, || decode_entry(&bytes)) {
            Ok((p, r)) if encode_entry(&p, &r) == bytes => {}
            Ok(_) => fail("decoded entry re-encodes differently".into()),
            Err(e) => fail(format!("decode: {e}")),
        }
        if let Some(store) = &store {
            let key = ProfileKey::of(&module, &config, &ProfilerOptions::default());
            rec.span("store.put", k, || store.put(key, &profile, &run));
            match rec.span("store.get", k, || store.get(key)) {
                Some((p, r)) if encode_entry(&p, &r) == bytes => {}
                _ => fail("store did not return the entry it was given".into()),
            }
        }
        units.push(SweepUnit::from_profile(profile));
    }
    let points: Vec<SweepPoint> = (0..units.len())
        .flat_map(|unit| {
            rows.iter().map(move |&(model, config)| SweepPoint {
                unit,
                model,
                config,
            })
        })
        .collect();
    c.points = points.len() as u64;
    let (reports, allocs, _) = rec.span("eval", None, || {
        alloc::counted(|| sweep_points(&units, &points, Jobs::serial(), EvalOptions::default()))
    });
    std::hint::black_box(reports);
    c.eval_allocs = allocs;
    rec.exit();
    let _ = std::fs::remove_dir_all(store_dir);
    (c, t, failures)
}

/// `num / den`, 0 when the denominator is.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

const MB: f64 = 1024.0 * 1024.0;

/// The per-layer values of one recorded pass (all but `trace.overhead`),
/// in catalogue order.
fn layer_values(self_ns: &BTreeMap<&'static str, u64>, c: &Counts, t: Timings) -> Vec<f64> {
    let ms = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let mips = |name: &str| ratio(c.insts as f64 / 1e3, ms(name));
    let mb_per_s = |bytes: u64, name: &str| ratio(bytes as f64 / MB * 1e3, ms(name));
    vec![
        ms("ir.parse"),
        mb_per_s(c.parse_bytes, "ir.parse"),
        ms("ir.verify"),
        ms("analysis"),
        ms("interp.compile"),
        ms("interp.run"),
        mips("interp.run"),
        c.insts as f64,
        ms("interp.observe"),
        mips("interp.observe"),
        c.events as f64,
        ms("tracker"),
        mips("tracker"),
        ratio(ms("tracker"), ms("interp.run")),
        ms("tracker") - ms("interp.observe"),
        c.tracker_allocs as f64,
        c.tracker_bytes as f64 / MB,
        ms("predict"),
        ratio(ms("predict") * 1e6, c.observations as f64),
        c.observations as f64,
        ratio(c.hits as f64, c.observations as f64),
        c.predict_allocs as f64,
        c.predict_bytes as f64 / MB,
        ms("witness"),
        mips("witness"),
        ms("replay"),
        t.serial_ns as f64 / 1e6,
        t.parallel_ns as f64 / 1e6,
        c.replay_loops as f64,
        c.divergences as f64,
        ms("eval"),
        c.points as f64,
        ratio(c.points as f64 * 1e3, ms("eval")),
        c.eval_allocs as f64,
        ms("explain"),
        ms("store.encode"),
        mb_per_s(c.store_bytes, "store.encode"),
        ms("store.decode"),
        mb_per_s(c.store_bytes, "store.decode"),
        ms("store.put"),
        ms("store.get"),
        c.store_bytes as f64,
    ]
}

/// Runs the traced passes of `workload`: one discarded warm-up pass, then
/// passes alternating span recording on and off for `seconds` (at least
/// two recorded and one unrecorded). Writes the recorded spans to
/// `work/trace.json`.
///
/// # Errors
/// Returns a message when the trace file cannot be written.
pub fn trace(workload: Workload, seed: u64, seconds: f64, work: &Path) -> Result<Report, String> {
    lp_obs::log::set_level(lp_obs::Level::Off);
    let (kernels, rows) = inputs(workload, seed);
    let names: Vec<String> = kernels.iter().map(|k| k.name.clone()).collect();
    let store_dir = work.join("trace-store");
    let mut rec = Recorder::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut first: Option<Counts> = None;
    let mut on_values: Vec<Vec<f64>> = Vec::new();
    let mut on_secs = Vec::new();
    let mut off_secs = Vec::new();
    let start = Instant::now();
    for i in 0.. {
        // Pass 0 is the warm-up; then odd passes record, even ones do not.
        rec.on = i % 2 == 1 || i == 0;
        let from = rec.spans.len();
        // The library's own span buffer keeps its capacity across passes,
        // so it stops allocating after the warm-up pass.
        lp_obs::registry().reset();
        let t0 = Instant::now();
        let (counts, timings, failures) = pass(&mut rec, &kernels, &rows, &store_dir);
        let secs = t0.elapsed().as_secs_f64();
        attempted += kernels.len() as u64;
        failed += failures.len() as u64;
        for f in &failures {
            eprintln!("lpperf: {f}");
        }
        // The warm-up pass also pays one-time allocations; the counts of
        // every later pass must repeat exactly.
        match &first {
            _ if i == 0 => {}
            None => first = Some(counts.clone()),
            Some(c) if *c != counts => {
                failed += 1;
                eprintln!("lpperf: pass {i} counted {counts:?}, pass 1 {c:?}");
            }
            Some(_) => {}
        }
        if i == 0 {
            rec.spans.clear();
        } else if rec.on {
            on_values.push(layer_values(&rec.self_ns(from), &counts, timings));
            on_secs.push(secs);
        } else {
            off_secs.push(secs);
        }
        let elapsed = start.elapsed();
        let enough = on_secs.len() >= 2 && !off_secs.is_empty();
        if (enough && elapsed.as_secs_f64() >= seconds) || elapsed >= PASS_CAP {
            break;
        }
    }
    let path = work.join("trace.json");
    std::fs::write(&path, rec.chrome_trace(&names))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    let overhead = match (stats::median(&on_secs), stats::median(&off_secs)) {
        (Some(on), Some(off)) => ratio(on, off) - 1.0,
        _ => 0.0,
    };
    let metrics = PER_LAYER
        .iter()
        .enumerate()
        .map(|(j, &(name, unit))| {
            let samples: Vec<f64> = if name == "trace.overhead" {
                vec![overhead]
            } else {
                on_values.iter().map(|v| v[j]).collect()
            };
            Metric {
                name,
                unit,
                value: stats::median(&samples).unwrap_or(0.0),
                samples,
            }
        })
        .collect();
    Ok(Report {
        workload,
        mode: Mode::Trace,
        seed,
        attempted,
        failed,
        metrics,
        info: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new();
        rec.spans = vec![
            Span {
                name: "pass",
                kernel: None,
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "tracker",
                kernel: Some(0),
                parent: Some(0),
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                name: "tracker",
                kernel: Some(1),
                parent: Some(0),
                start_ns: 50,
                end_ns: 70,
            },
        ];
        let s = rec.self_ns(0);
        assert_eq!(s["pass"], 50);
        assert_eq!(s["tracker"], 50);
        let names = ["a".to_string(), "b".to_string()];
        lp_obs::validate_json(&rec.chrome_trace(&names)).unwrap();
    }

    #[test]
    fn one_layer_value_per_catalogue_entry_but_the_overhead() {
        let v = layer_values(&BTreeMap::new(), &Counts::default(), Timings::default());
        assert_eq!(v.len() + 1, PER_LAYER.len());
        assert_eq!(PER_LAYER.last().unwrap().0, "trace.overhead");
    }

    #[test]
    fn a_reduced_mix_pass_checks_out() {
        let kernels = mix::generate(5, 6);
        let dir = std::env::temp_dir().join(format!("lpperf-trace-test-{}", std::process::id()));
        let mut rec = Recorder::new();
        let (c1, _, failures) = pass(&mut rec, &kernels, &lp_runtime::table2_rows(), &dir);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(c1.observations > 0 && c1.insts > 0 && c1.store_bytes > 0);
        assert_eq!(c1.points, 6 * 14);
        let (c2, _, _) = pass(&mut rec, &kernels, &lp_runtime::table2_rows(), &dir);
        // Other tests allocate concurrently, so only the work counts are
        // compared here; the benchmark itself is single-threaded.
        let work = |c: Counts| Counts {
            tracker_allocs: 0,
            tracker_bytes: 0,
            predict_allocs: 0,
            predict_bytes: 0,
            eval_allocs: 0,
            ..c
        };
        assert_eq!(work(c1), work(c2), "exact counts repeat");
    }
}
