//! Ranked comparison of two [`RunSnapshot`]s.
//!
//! `diff(a, b)` aligns every counter and histogram by name and ranks
//! the divergences: counters get an absolute and a relative delta
//! (`|b − a| / max(a, b)`, so an appear/vanish is exactly 1.0),
//! histograms get a per-bucket z-score against the pooled count.
//! A divergence is **significant** only when it clears both the
//! relative threshold and an absolute noise floor — tiny counters
//! flapping by one event don't page anyone. Wall-clock histograms
//! (`*_nanos`) and inherently racy counters (span drops under
//! concurrent recording) are reported but never significant unless explicitly
//! included, so same-seed CI diffs converge to zero.
//!
//! Surfaced as `lpstudy diff A.json B.json [--json]`.

use crate::export::JsonWriter;
use crate::snapshot::RunSnapshot;

/// Schema tag of the JSON diff report.
pub const DIFF_SCHEMA: &str = "lp-diff-v1";

/// Counters whose values legitimately vary between identical runs
/// (scheduling races); never significant.
pub const NOISY_COUNTERS: &[&str] = &["spans_dropped"];

/// Tuning knobs for significance.
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Minimum relative delta for a counter to be significant.
    pub rel_threshold: f64,
    /// Minimum absolute delta (events) for counters and buckets.
    pub noise_floor: u64,
    /// Minimum per-bucket |z| for a histogram to be significant.
    pub z_threshold: f64,
    /// Treat timing histograms (`*_nanos`) like any other.
    pub include_timing: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            rel_threshold: 0.05,
            noise_floor: 16,
            z_threshold: 3.0,
            include_timing: false,
        }
    }
}

/// One counter that differs between the two snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterDelta {
    pub name: String,
    pub a: u64,
    pub b: u64,
    /// `|b − a| / max(a, b)` — in `[0, 1]`, 1.0 for appear/vanish.
    pub rel: f64,
    pub significant: bool,
}

/// One histogram bucket whose count moved.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketDelta {
    /// log2 bucket index.
    pub bucket: usize,
    pub a: u64,
    pub b: u64,
    /// `(b − a) / sqrt(max(1, (a + b) / 2))` — Poisson-ish z-score.
    pub z: f64,
}

/// One histogram that differs between the two snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct HistDelta {
    pub name: String,
    pub count_a: u64,
    pub count_b: u64,
    /// Buckets with any movement, largest |z| first.
    pub buckets: Vec<BucketDelta>,
    /// Largest |z| over all buckets.
    pub max_z: f64,
    pub significant: bool,
}

/// The full comparison, ranked most-divergent first.
#[derive(Debug, Clone, PartialEq)]
pub struct Diff {
    pub counters: Vec<CounterDelta>,
    pub hists: Vec<HistDelta>,
}

fn rel_delta(a: u64, b: u64) -> f64 {
    let hi = a.max(b);
    if hi == 0 {
        return 0.0;
    }
    (a.abs_diff(b)) as f64 / hi as f64
}

fn union_names<'a, T>(a: &'a [(String, T)], b: &'a [(String, T)]) -> Vec<&'a str> {
    let mut names: Vec<&str> = a.iter().map(|(n, _)| n.as_str()).collect();
    for (n, _) in b {
        if !names.iter().any(|have| have == n) {
            names.push(n);
        }
    }
    names
}

/// Compares two snapshots under `opts`. Entries with no movement are
/// omitted; the rest are ranked significant-first, then by relative
/// delta (counters) / max |z| (histograms), then absolute delta, then
/// name, so the output order is total and deterministic.
#[must_use]
pub fn diff(a: &RunSnapshot, b: &RunSnapshot, opts: &DiffOptions) -> Diff {
    let mut counters = Vec::new();
    for name in union_names(&a.counters, &b.counters) {
        let (va, vb) = (a.counter(name), b.counter(name));
        if va == vb {
            continue;
        }
        let rel = rel_delta(va, vb);
        let noisy = NOISY_COUNTERS.contains(&name);
        let significant =
            !noisy && rel >= opts.rel_threshold && va.abs_diff(vb) >= opts.noise_floor;
        counters.push(CounterDelta {
            name: name.to_string(),
            a: va,
            b: vb,
            rel,
            significant,
        });
    }
    counters.sort_by(|x, y| {
        y.significant
            .cmp(&x.significant)
            .then(y.rel.total_cmp(&x.rel))
            .then(y.a.abs_diff(y.b).cmp(&x.a.abs_diff(x.b)))
            .then(x.name.cmp(&y.name))
    });

    let empty = crate::metrics::Histogram::default();
    let mut hists = Vec::new();
    for name in union_names(&a.hists, &b.hists) {
        let ha = a.hist(name).unwrap_or(&empty);
        let hb = b.hist(name).unwrap_or(&empty);
        if ha.buckets == hb.buckets && ha.count == hb.count {
            continue;
        }
        let mut buckets = Vec::new();
        let mut max_z = 0.0f64;
        let mut any_bucket_significant = false;
        for k in 0..64 {
            let (ba, bb) = (ha.buckets[k], hb.buckets[k]);
            if ba == bb {
                continue;
            }
            let pooled = ((ba + bb) / 2).max(1) as f64;
            let z = (bb as f64 - ba as f64) / pooled.sqrt();
            if z.abs() > max_z {
                max_z = z.abs();
            }
            if z.abs() > opts.z_threshold && ba.abs_diff(bb) > opts.noise_floor {
                any_bucket_significant = true;
            }
            buckets.push(BucketDelta {
                bucket: k,
                a: ba,
                b: bb,
                z,
            });
        }
        buckets.sort_by(|x, y| {
            y.z.abs()
                .total_cmp(&x.z.abs())
                .then(x.bucket.cmp(&y.bucket))
        });
        let timing = name.ends_with("_nanos") && !opts.include_timing;
        hists.push(HistDelta {
            name: name.to_string(),
            count_a: ha.count,
            count_b: hb.count,
            buckets,
            max_z,
            significant: any_bucket_significant && !timing,
        });
    }
    hists.sort_by(|x, y| {
        y.significant
            .cmp(&x.significant)
            .then(y.max_z.total_cmp(&x.max_z))
            .then(x.name.cmp(&y.name))
    });

    Diff { counters, hists }
}

impl Diff {
    /// Number of significant divergences (counters + histograms).
    #[must_use]
    pub fn significant(&self) -> usize {
        self.counters.iter().filter(|c| c.significant).count()
            + self.hists.iter().filter(|h| h.significant).count()
    }

    /// True when nothing moved at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty()
    }

    /// Human-readable report. The final line is always
    /// `N significant divergence(s)` so scripts can `grep '^0 significant'`.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("snapshots are identical\n");
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for c in &self.counters {
                let mark = if c.significant { "!" } else { " " };
                let delta = c.b as i128 - c.a as i128;
                out.push_str(&format!(
                    " {mark} {:<28} {:>14} -> {:<14} ({delta:+}, {:.1}%)\n",
                    c.name,
                    c.a,
                    c.b,
                    c.rel * 100.0
                ));
            }
        }
        if !self.hists.is_empty() {
            out.push_str("histograms:\n");
            for h in &self.hists {
                let mark = if h.significant { "!" } else { " " };
                out.push_str(&format!(
                    " {mark} {:<28} count {} -> {} (max |z| {:.2})\n",
                    h.name, h.count_a, h.count_b, h.max_z
                ));
                for b in h.buckets.iter().take(4) {
                    out.push_str(&format!(
                        "     bucket 2^{:<2} {:>14} -> {:<14} (z {:+.2})\n",
                        b.bucket, b.a, b.b, b.z
                    ));
                }
            }
        }
        out.push_str(&format!(
            "{} significant divergence(s)\n",
            self.significant()
        ));
        out
    }

    /// Machine-readable report (schema `lp-diff-v1`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.key("schema");
        w.string(DIFF_SCHEMA);
        w.key("significant");
        w.uint(self.significant() as u64);
        w.key("counters");
        w.begin_array();
        for c in &self.counters {
            w.begin_object();
            w.key("name");
            w.string(&c.name);
            w.key("a");
            w.uint(c.a);
            w.key("b");
            w.uint(c.b);
            w.key("rel");
            w.fixed(c.rel, 6);
            w.key("significant");
            w.boolean(c.significant);
            w.end_object();
        }
        w.end_array();
        w.key("histograms");
        w.begin_array();
        for h in &self.hists {
            w.begin_object();
            w.key("name");
            w.string(&h.name);
            w.key("count_a");
            w.uint(h.count_a);
            w.key("count_b");
            w.uint(h.count_b);
            w.key("max_z");
            w.fixed(h.max_z, 3);
            w.key("significant");
            w.boolean(h.significant);
            w.key("buckets");
            w.begin_array();
            for b in &h.buckets {
                w.begin_object();
                w.key("bucket");
                w.uint(b.bucket as u64);
                w.key("a");
                w.uint(b.a);
                w.key("b");
                w.uint(b.b);
                w.key("z");
                w.fixed(b.z, 3);
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Counter, Hist};
    use crate::registry::Registry;
    use crate::snapshot::capture;

    fn snap(build: impl Fn(&Registry)) -> RunSnapshot {
        let reg = Registry::new();
        build(&reg);
        capture(&reg, "diff-test")
    }

    #[test]
    fn self_diff_is_empty() {
        let s = snap(|r| {
            r.counters().add(Counter::Loads, 12345);
            r.record_hist(Hist::LoopIterations, 99);
        });
        let d = diff(&s, &s, &DiffOptions::default());
        assert!(d.is_empty());
        assert_eq!(d.significant(), 0);
        assert!(d.render().contains("snapshots are identical"));
        assert!(d.render().ends_with("0 significant divergence(s)\n"));
    }

    #[test]
    fn counter_divergence_is_ranked_and_marked() {
        let a = snap(|r| {
            r.counters().add(Counter::Loads, 1000);
            r.counters().add(Counter::StoreHits, 100);
        });
        let b = snap(|r| {
            r.counters().add(Counter::Loads, 1002); // 0.2% — below threshold
            r.counters().add(Counter::StoreMisses, 100); // hits vanish, misses appear
        });
        let d = diff(&a, &b, &DiffOptions::default());
        assert_eq!(d.significant(), 2);
        // Appear/vanish (rel 1.0) outrank the small drift.
        assert_eq!(d.counters[0].rel, 1.0);
        assert_eq!(d.counters[1].rel, 1.0);
        assert!(d.counters[0].significant && d.counters[1].significant);
        let loads = d.counters.iter().find(|c| c.name == "loads").unwrap();
        assert!(!loads.significant, "0.2% drift is below the 5% threshold");
    }

    #[test]
    fn noise_floor_and_noisy_counters_stay_quiet() {
        let a = snap(|r| r.counters().add(Counter::SpansDropped, 4));
        let b = snap(|r| r.counters().add(Counter::SpansDropped, 900));
        let d = diff(&a, &b, &DiffOptions::default());
        assert_eq!(d.counters.len(), 1);
        assert!(!d.counters[0].significant, "span drops are declared noisy");

        let a = snap(|r| r.counters().add(Counter::StoreHits, 2));
        let b = snap(|r| r.counters().add(Counter::StoreHits, 9));
        let d = diff(&a, &b, &DiffOptions::default());
        assert!(
            !d.counters[0].significant,
            "rel 0.78 but |delta|=7 < noise floor 16"
        );
    }

    #[test]
    fn histogram_shift_is_significant_but_timing_is_excluded() {
        let a = snap(|r| {
            for _ in 0..500 {
                r.record_hist(Hist::LoopIterations, 8);
                r.record_hist(Hist::ProfileNanos, 1 << 10);
            }
        });
        let b = snap(|r| {
            for _ in 0..500 {
                r.record_hist(Hist::LoopIterations, 1 << 20);
                r.record_hist(Hist::ProfileNanos, 1 << 14);
            }
        });
        let d = diff(&a, &b, &DiffOptions::default());
        let iters = d
            .hists
            .iter()
            .find(|h| h.name == "loop_iterations")
            .unwrap();
        assert!(iters.significant);
        assert!(iters.max_z > 3.0);
        assert_eq!(iters.buckets[0].z.abs(), iters.max_z);
        let timing = d.hists.iter().find(|h| h.name == "profile_nanos").unwrap();
        assert!(!timing.significant, "wall-clock hists excluded by default");
        let all = diff(
            &a,
            &b,
            &DiffOptions {
                include_timing: true,
                ..DiffOptions::default()
            },
        );
        let timing = all
            .hists
            .iter()
            .find(|h| h.name == "profile_nanos")
            .unwrap();
        assert!(timing.significant, "--include-timing lifts the exclusion");
    }

    #[test]
    fn diff_is_antisymmetric() {
        let a = snap(|r| {
            r.counters().add(Counter::Loads, 5000);
            r.record_hist(Hist::LoopIterations, 3);
        });
        let b = snap(|r| {
            r.counters().add(Counter::Loads, 9000);
            r.record_hist(Hist::LoopIterations, 300);
        });
        let ab = diff(&a, &b, &DiffOptions::default());
        let ba = diff(&b, &a, &DiffOptions::default());
        assert_eq!(ab.significant(), ba.significant());
        for (x, y) in ab.counters.iter().zip(&ba.counters) {
            assert_eq!(x.name, y.name);
            assert_eq!((x.a, x.b), (y.b, y.a));
            assert_eq!(x.rel, y.rel);
        }
        for (x, y) in ab.hists.iter().zip(&ba.hists) {
            assert_eq!(x.name, y.name);
            for (bx, by) in x.buckets.iter().zip(&y.buckets) {
                assert_eq!((bx.a, bx.b), (by.b, by.a));
                assert_eq!(bx.z, -by.z);
            }
        }
    }

    #[test]
    fn json_report_is_valid_and_tagged() {
        let a = snap(|r| r.counters().add(Counter::Loads, 100));
        let b = snap(|r| r.counters().add(Counter::Loads, 900));
        let d = diff(&a, &b, &DiffOptions::default());
        let json = d.to_json();
        crate::export::validate_json(&json).unwrap();
        assert!(json.contains("\"schema\":\"lp-diff-v1\""));
        assert!(json.contains("\"significant\":1"));
    }
}
