//! Metric catalogue, per-run reports, and the `lpperf-v1` result document.

use lp_obs::{JsonValue, JsonWriter};
use std::path::Path;

/// End-to-end metrics of `lpperf run`: `(name, unit)`, as declared in
/// `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("pass_tail_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of `lpperf trace`: `(name, unit)`, as declared in
/// `BENCHMARK.json`. Unit `count` marks an exact count that must repeat
/// bit for bit.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("ir.parse.self_ms", "ms"),
    ("ir.parse.mb_per_s", "MB/s"),
    ("ir.verify.self_ms", "ms"),
    ("analysis.self_ms", "ms"),
    ("interp.compile.self_ms", "ms"),
    ("interp.run.self_ms", "ms"),
    ("interp.run.mips", "Mi/s"),
    ("interp.insts", "count"),
    ("interp.observe.self_ms", "ms"),
    ("interp.observe.mips", "Mi/s"),
    ("interp.events", "count"),
    ("tracker.self_ms", "ms"),
    ("tracker.mips", "Mi/s"),
    ("tracker.slowdown", "x"),
    ("tracker.marginal_ms", "ms"),
    ("tracker.allocs", "count"),
    ("tracker.alloc_mb", "MB"),
    ("predict.self_ms", "ms"),
    ("predict.ns_per_obs", "ns"),
    ("predict.observations", "count"),
    ("predict.hit_rate", "ratio"),
    ("predict.allocs", "count"),
    ("predict.alloc_mb", "MB"),
    ("witness.self_ms", "ms"),
    ("witness.mips", "Mi/s"),
    ("replay.self_ms", "ms"),
    ("replay.serial_ms", "ms"),
    ("replay.parallel_ms", "ms"),
    ("replay.loops", "count"),
    ("replay.divergences", "count"),
    ("eval.self_ms", "ms"),
    ("eval.points", "count"),
    ("eval.points_per_s", "1/s"),
    ("eval.allocs", "count"),
    ("explain.self_ms", "ms"),
    ("store.encode.self_ms", "ms"),
    ("store.encode.mb_per_s", "MB/s"),
    ("store.decode.self_ms", "ms"),
    ("store.decode.mb_per_s", "MB/s"),
    ("store.put.self_ms", "ms"),
    ("store.get.self_ms", "ms"),
    ("store.bytes", "count"),
    ("trace.overhead", "ratio"),
];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The figure and table binaries: the paper's product.
    Figures,
    /// The full configuration lattice evaluated from a warm profile store.
    Lattice,
    /// Threaded DOALL replay of the EEMBC suite.
    Replay,
    /// Seeded kernels the suite lacks, through the text parser.
    Mix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Figures,
        Workload::Lattice,
        Workload::Replay,
        Workload::Mix,
    ];

    /// The workload's name on the command line and in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Figures => "figures",
            Workload::Lattice => "lattice",
            Workload::Replay => "replay",
            Workload::Mix => "mix",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which half of the benchmark produced a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end, tracing off, spawning the release binaries.
    Run,
    /// Per-layer, in process, with spans.
    Trace,
}

impl Mode {
    /// `run` or `trace`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mode::Run => "run",
            Mode::Trace => "trace",
        }
    }
}

/// One reported metric with the samples behind its value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Unit, as declared.
    pub unit: &'static str,
    /// The reported value (a median over `samples`, or an exact count).
    pub value: f64,
    /// One value per pass (per set-up for `setup_s`).
    pub samples: Vec<f64>,
}

/// Everything one `lpperf run` or `lpperf trace` measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload measured.
    pub workload: Workload,
    /// Run or trace.
    pub mode: Mode,
    /// The input seed.
    pub seed: u64,
    /// Checked operations: child runs (run) or kernel ladders (trace).
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
    /// The catalogue metrics, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Ungated figures printed alongside (`fail_share`, `pass_cpu_s`,
    /// `replay_speedup`).
    pub info: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// One `workload metric value unit` line per metric; end-to-end lines
    /// carry their sample count.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        let w = self.workload.name();
        let mut out: Vec<String> = self
            .metrics
            .iter()
            .map(|m| match self.mode {
                Mode::Run => format!(
                    "{w} {} {} {} n={}",
                    m.name,
                    m.value,
                    m.unit,
                    m.samples.len()
                ),
                Mode::Trace => format!("{w} {} {} {}", m.name, m.value, m.unit),
            })
            .collect();
        out.extend(
            self.info
                .iter()
                .map(|(name, unit, v)| format!("{w} {name} {v} {unit}")),
        );
        out
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`, and
    /// every catalogue metric as `{"value", "unit"}`.
    #[must_use]
    pub fn result_line(&self) -> String {
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.key("correct");
        w.boolean(self.correct());
        w.key("attempted");
        w.uint(self.attempted);
        w.key("failed");
        w.uint(self.failed);
        w.key("metrics");
        w.begin_object();
        for m in &self.metrics {
            w.key(m.name);
            w.begin_object();
            w.key("value");
            w.float(m.value);
            w.key("unit");
            w.string(m.unit);
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }

    fn write(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("workload");
        w.string(self.workload.name());
        w.key("mode");
        w.string(self.mode.name());
        w.key("seed");
        w.uint(self.seed);
        w.key("correct");
        w.boolean(self.correct());
        w.key("attempted");
        w.uint(self.attempted);
        w.key("failed");
        w.uint(self.failed);
        w.key("metrics");
        w.begin_array();
        for m in &self.metrics {
            w.begin_object();
            w.key("name");
            w.string(m.name);
            w.key("unit");
            w.string(m.unit);
            w.key("value");
            w.float(m.value);
            w.key("samples");
            w.begin_array();
            for &s in &m.samples {
                w.float(s);
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.key("info");
        w.begin_object();
        for (name, _, v) in &self.info {
            w.key(name);
            w.float(*v);
        }
        w.end_object();
        w.end_object();
    }

    /// The report as a standalone JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::pretty();
        self.write(&mut w);
        w.finish()
    }
}

/// Adds `report` to the `lpperf-v1` document at `path`, replacing an
/// earlier entry for the same workload and mode, so one file collects a
/// full set of runs for `lpperf compare`.
///
/// # Errors
/// Returns a message when the file exists but is not an `lpperf-v1`
/// document, or cannot be written.
pub fn merge_into(path: &Path, report: &Report) -> Result<(), String> {
    let mut entries: Vec<String> = Vec::new();
    if path.exists() {
        let doc = read_document(path)?;
        for entry in doc {
            let same = entry.get("workload").and_then(JsonValue::as_str)
                == Some(report.workload.name())
                && entry.get("mode").and_then(JsonValue::as_str) == Some(report.mode.name());
            if !same {
                entries.push(reserialize(&entry));
            }
        }
    }
    entries.push(report.to_json());
    let text = format!(
        "{{\"schema\":\"lpperf-v1\",\"results\":[\n{}\n]}}\n",
        entries.join(",\n")
    );
    lp_obs::validate_json(&text).map_err(|e| format!("internal: result document invalid: {e}"))?;
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The result entries of an `lpperf-v1` document.
///
/// # Errors
/// Returns a message when the file cannot be read or is not such a
/// document.
pub fn read_document(path: &Path) -> Result<Vec<JsonValue>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("schema").and_then(JsonValue::as_str) != Some("lpperf-v1") {
        return Err(format!("{} is not an lpperf-v1 document", path.display()));
    }
    doc.get("results")
        .and_then(JsonValue::as_array)
        .map(<[JsonValue]>::to_vec)
        .ok_or_else(|| format!("{} has no results array", path.display()))
}

fn reserialize(value: &JsonValue) -> String {
    fn emit(w: &mut JsonWriter, v: &JsonValue) {
        match v {
            JsonValue::Null => w.null(),
            JsonValue::Bool(b) => w.boolean(*b),
            // Integers round-trip exactly through u64, other numbers through
            // f64's shortest round-trip form.
            JsonValue::Num(raw) => match raw.parse::<u64>() {
                Ok(u) => w.uint(u),
                Err(_) => w.float(raw.parse().unwrap_or(f64::NAN)),
            },
            JsonValue::Str(s) => w.string(s),
            JsonValue::Arr(items) => {
                w.begin_array();
                for item in items {
                    emit(w, item);
                }
                w.end_array();
            }
            JsonValue::Obj(entries) => {
                w.begin_object();
                for (k, item) in entries {
                    w.key(k);
                    emit(w, item);
                }
                w.end_object();
            }
        }
    }
    let mut w = JsonWriter::pretty();
    emit(&mut w, value);
    w.finish()
}
