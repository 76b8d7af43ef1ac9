//! `lpperf compare A.json B.json`: judges B against A, per (metric,
//! workload), with the bounds declared in `BENCHMARK.json`.

use crate::report;
use crate::stats;
use lp_obs::JsonValue;
use std::path::Path;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Allowed relative worsening (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The metric declarations of a `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    /// `end_to_end`, in file order.
    pub end_to_end: Vec<Declared>,
    /// `per_layer`, in file order.
    pub per_layer: Vec<Declared>,
    /// `workloads[].name`, in file order.
    pub workloads: Vec<String>,
}

/// Reads the metric declarations of a `BENCHMARK.json`.
///
/// # Errors
/// Returns a message when the file is unreadable or malformed.
pub fn read_spec(path: &Path) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| -> Result<Vec<Declared>, String> {
        let items = doc
            .get(key)
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("{}: no {key} array", path.display()))?;
        items
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(JsonValue::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("{}: {key} entry without {f}", path.display()))
                };
                Ok(Declared {
                    name: field("name")?,
                    unit: field("unit")?,
                    higher_is_better: field("better")? == "higher",
                    bound: m.get("bound").and_then(JsonValue::as_f64),
                })
            })
            .collect()
    };
    let workloads = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{}: no workloads array", path.display()))?
        .iter()
        .filter_map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .map(str::to_string)
        })
        .collect();
    Ok(Spec {
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
        workloads,
    })
}

/// A metric's value and samples inside one result entry.
fn metric(entry: &JsonValue, name: &str) -> Option<(f64, Vec<f64>)> {
    let m = entry
        .get("metrics")?
        .as_array()?
        .iter()
        .find(|m| m.get("name").and_then(JsonValue::as_str) == Some(name))?;
    let samples = m
        .get("samples")?
        .as_array()?
        .iter()
        .filter_map(JsonValue::as_f64)
        .collect();
    Some((m.get("value")?.as_f64()?, samples))
}

fn find<'a>(entries: &'a [JsonValue], workload: &str, mode: &str) -> Option<&'a JsonValue> {
    entries.iter().find(|e| {
        e.get("workload").and_then(JsonValue::as_str) == Some(workload)
            && e.get("mode").and_then(JsonValue::as_str) == Some(mode)
    })
}

/// The verdict on one end-to-end (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A by more than the bound.
    Better,
    /// B is worse than A by more than the bound.
    Worse,
    /// The medians differ by no more than the bound.
    Unchanged,
    /// One side's quartile spread exceeds the bound, and the samples do
    /// not separate cleanly.
    Unresolved,
}

/// Judges B's reported value `vb` against A's `va` under `bound`; the
/// samples behind each value measure its noise.
#[must_use]
pub fn judge(
    (va, sa): (f64, &[f64]),
    (vb, sb): (f64, &[f64]),
    higher_is_better: bool,
    bound: f64,
) -> Verdict {
    // Positive `worse` means B is worse than A, as a share of A.
    let worse = if higher_is_better { va - vb } else { vb - va } / va.abs().max(f64::MIN_POSITIVE);
    let noisy = [sa, sb]
        .iter()
        .any(|s| stats::spread(s).is_none_or(|sp| sp > bound));
    let better_everywhere = |x: &[f64], y: &[f64]| {
        let lo = |s: &[f64]| s.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = |s: &[f64]| s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if higher_is_better {
            lo(y) > hi(x)
        } else {
            hi(y) < lo(x)
        }
    };
    if noisy {
        // Only a clean separation of every sample survives the noise.
        if worse < -bound && better_everywhere(sa, sb) {
            return Verdict::Better;
        }
        if worse > bound && better_everywhere(sb, sa) {
            return Verdict::Worse;
        }
        return Verdict::Unresolved;
    }
    if worse > bound {
        Verdict::Worse
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// Prints the comparison; returns the exit code: 0 when nothing got worse
/// and every exact count matches, 1 otherwise.
///
/// # Errors
/// Returns a message when an input file is unreadable or malformed.
pub fn compare(spec_path: &Path, a_path: &Path, b_path: &Path) -> Result<i32, String> {
    let spec = read_spec(spec_path)?;
    let a = report::read_document(a_path)?;
    let b = report::read_document(b_path)?;
    let mut bad = 0;
    for w in &spec.workloads {
        match (find(&a, w, "run"), find(&b, w, "run")) {
            (Some(ea), Some(eb)) => {
                for m in &spec.end_to_end {
                    let bound = m.bound.unwrap_or(0.0);
                    let (Some((va, sa)), Some((vb, sb))) =
                        (metric(ea, &m.name), metric(eb, &m.name))
                    else {
                        println!("{w:<8} {:<12} missing", m.name);
                        continue;
                    };
                    let verdict = judge((va, &sa), (vb, &sb), m.higher_is_better, bound);
                    bad += usize::from(verdict == Verdict::Worse);
                    println!(
                        "{w:<8} {:<12} A {va:.4} B {vb:.4} {}  {:+.1}% (bound {:.0}%, spread A {:.1}% B {:.1}%)  {verdict:?}",
                        m.name,
                        m.unit,
                        (vb - va) / va.abs().max(f64::MIN_POSITIVE) * 100.0,
                        bound * 100.0,
                        stats::spread(&sa).unwrap_or(0.0) * 100.0,
                        stats::spread(&sb).unwrap_or(0.0) * 100.0,
                    );
                }
            }
            _ => println!("{w:<8} run: not in both documents"),
        }
        match (find(&a, w, "trace"), find(&b, w, "trace")) {
            (Some(ea), Some(eb)) => {
                for m in spec.per_layer.iter().filter(|m| m.unit == "count") {
                    let va = metric(ea, &m.name).map(|(v, _)| v);
                    let vb = metric(eb, &m.name).map(|(v, _)| v);
                    if va != vb {
                        bad += 1;
                        println!("{w:<8} {:<24} ERROR exact count A {va:?} B {vb:?}", m.name);
                    }
                }
            }
            _ => println!("{w:<8} trace: not in both documents"),
        }
    }
    Ok(i32::from(bad > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let judged = |a: &[f64], b: &[f64], higher: bool| {
            let med = |s: &[f64]| stats::median(s).unwrap();
            judge((med(a), a), (med(b), b), higher, 0.1)
        };
        let a = [1.0, 1.01, 0.99, 1.0, 1.02];
        let slower = [1.2, 1.21, 1.19, 1.2, 1.22];
        let faster = [0.8, 0.81, 0.79, 0.8, 0.82];
        let same = [1.01, 1.0, 1.02, 0.99, 1.0];
        assert_eq!(judged(&a, &slower, false), Verdict::Worse);
        assert_eq!(judged(&a, &faster, false), Verdict::Better);
        assert_eq!(judged(&a, &same, false), Verdict::Unchanged);
        // Higher-is-better flips the reading.
        assert_eq!(judged(&a, &slower, true), Verdict::Better);
        // A spread past the bound without clean separation is unresolved.
        let noisy = [0.5, 1.5, 0.7, 1.3, 1.0];
        assert_eq!(judged(&a, &noisy, false), Verdict::Unresolved);
        // The reported value is judged, not the median of its samples: a
        // tail statistic can move while the median stays put.
        assert_eq!(judge((1.0, &a), (1.2, &a), false, 0.1), Verdict::Worse);
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let spec = read_spec(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json parses with lp_obs");
        let pairs = |d: &[Declared]| -> Vec<(String, String)> {
            d.iter().map(|m| (m.name.clone(), m.unit.clone())).collect()
        };
        let catalogue = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs(&spec.end_to_end), catalogue(&report::END_TO_END));
        assert_eq!(pairs(&spec.per_layer), catalogue(&report::PER_LAYER));
        let names: Vec<&str> = report::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, names);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.unwrap() <= setup.bound.unwrap()));
    }
}
