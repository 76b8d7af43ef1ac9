//! Conservation-law audit over a registry snapshot.
//!
//! The pipeline's counters are not independent: every cross-iteration
//! RAW edge records a conflict-distance sample, every instrumented run
//! records a profile-time sample, every predictor kind sees the same
//! prediction stream. [`audit_snapshot`] asserts those implied
//! invariants over an `lp-snapshot-v1` document so silent telemetry
//! bit-rot (a counter that stops being incremented, a histogram that
//! drifts from its twin) becomes a failing check instead of a slowly
//! wrong dashboard. Surfaced as `lpstudy audit SNAP.json` (exit 1 on
//! any violation).
//!
//! Checks whose inputs are all zero report [`Verdict::Skip`] — a run
//! that never touched the profile store can't validate store
//! accounting, and skipping is not passing silently: the report says
//! so.

use lp_obs::snapshot::RunSnapshot;

/// Outcome of one invariant check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The invariant holds.
    Pass,
    /// The invariant is violated.
    Fail,
    /// Every input was zero; the invariant is vacuous for this run.
    Skip,
}

/// One named invariant with its outcome and the numbers behind it.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub verdict: Verdict,
    pub detail: String,
}

fn check(name: &'static str, holds: bool, vacuous: bool, detail: String) -> Check {
    let verdict = if vacuous {
        Verdict::Skip
    } else if holds {
        Verdict::Pass
    } else {
        Verdict::Fail
    };
    Check {
        name,
        verdict,
        detail,
    }
}

/// Hist sample count by name (0 when the histogram is absent).
fn hist_count(snap: &RunSnapshot, name: &str) -> u64 {
    snap.hist(name).map_or(0, |h| h.count)
}

/// Runs every conservation-law check over `snap`.
#[must_use]
pub fn audit_snapshot(snap: &RunSnapshot) -> Vec<Check> {
    let c = |name: &str| snap.counter(name);
    let mut checks = Vec::new();

    // Every predictor kind classifies the same prediction stream, so
    // hits + misses must agree across all five kinds exactly.
    let kinds = ["last_value", "stride", "two_delta_stride", "fcm", "hybrid"];
    let totals: Vec<u64> = kinds
        .iter()
        .map(|k| c(&format!("predictor_hit_{k}")) + c(&format!("predictor_miss_{k}")))
        .collect();
    checks.push(check(
        "predictor_stream_balance",
        totals.windows(2).all(|w| w[0] == w[1]),
        totals.iter().all(|&t| t == 0),
        format!(
            "hits+misses per kind: {}",
            kinds
                .iter()
                .zip(&totals)
                .map(|(k, t)| format!("{k}={t}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    ));

    // Exact histogram/counter twins: the profiler records one sample
    // per loop instance / instrumented run / evaluation / RAW edge.
    let twins = [
        (
            "loop_iterations_per_instance",
            "loop_iterations",
            "loop_instances",
        ),
        ("profile_time_per_run", "profile_nanos", "profiles_taken"),
        ("eval_time_per_eval", "eval_nanos", "evals_performed"),
        (
            "conflict_distance_per_raw_edge",
            "conflict_distance",
            "raw_conflicts",
        ),
    ];
    for (name, hist, counter) in twins {
        let (hc, cv) = (hist_count(snap, hist), c(counter));
        checks.push(check(
            name,
            hc == cv,
            hc == 0 && cv == 0,
            format!("{hist}.count={hc} {counter}={cv}"),
        ));
    }

    // events_consumed is the sink-side total; the per-kind event
    // counters partition a subset of it (loop exits carry no counter).
    let kinds_sum = c("blocks_entered")
        + c("loads")
        + c("stores")
        + c("phis_resolved")
        + c("funcs_entered")
        + c("builtin_calls")
        + c("value_defs");
    let consumed = c("events_consumed");
    checks.push(check(
        "event_kinds_within_consumed",
        consumed >= kinds_sum,
        consumed == 0 && kinds_sum == 0,
        format!("events_consumed={consumed} sum(per-kind)={kinds_sum}"),
    ));

    // Store accounting: corrupt entries are a subset of misses, and a
    // miss always falls back to a fresh instrumented run.
    let (hits, misses, corrupt) = (
        c("store_hits"),
        c("store_misses"),
        c("store_corrupt_discarded"),
    );
    checks.push(check(
        "store_corrupt_within_misses",
        corrupt <= misses,
        hits == 0 && misses == 0 && corrupt == 0,
        format!("store_corrupt_discarded={corrupt} store_misses={misses}"),
    ));
    checks.push(check(
        "store_misses_within_profiles",
        misses <= c("profiles_taken"),
        misses == 0,
        format!(
            "store_misses={misses} profiles_taken={}",
            c("profiles_taken")
        ),
    ));

    // Footprint gauges. An FCM observation inserts at most one context
    // entry, so the tables can't hold more entries than the hybrid saw
    // values. A stack-push time is written only alongside a shadow store
    // time for the same word, so its pages are a subset of the shadow's.
    let fcm = c("fcm_entries");
    let observed = c("predictor_hit_hybrid") + c("predictor_miss_hybrid");
    checks.push(check(
        "fcm_entries_within_observations",
        fcm <= observed,
        fcm == 0 && observed == 0,
        format!("fcm_entries={fcm} hybrid hits+misses={observed}"),
    ));
    let fcm_max = c("fcm_entries_max");
    checks.push(check(
        "fcm_entries_max_within_fcm_entries",
        fcm_max <= fcm,
        fcm_max == 0 && fcm == 0,
        format!("fcm_entries_max={fcm_max} fcm_entries={fcm}"),
    ));
    // A freed table's entries stay counted in `fcm_entries`.
    let retired = c("fcm_entries_retired");
    checks.push(check(
        "fcm_entries_retired_within_fcm_entries",
        retired <= fcm,
        retired == 0 && fcm == 0,
        format!("fcm_entries_retired={retired} fcm_entries={fcm}"),
    ));
    // Every run of a timeline covers at least one iteration.
    let runs = c("timeline_runs");
    let iterations = snap.hist("loop_iterations").map_or(0, |h| h.sum);
    checks.push(check(
        "timeline_runs_within_iterations",
        runs <= iterations,
        runs == 0 && iterations == 0,
        format!("timeline_runs={runs} loop_iterations.sum={iterations}"),
    ));
    let (push_pages, shadow_pages) = (c("stack_push_pages"), c("shadow_pages"));
    checks.push(check(
        "stack_push_pages_within_shadow",
        push_pages <= shadow_pages,
        push_pages == 0 && shadow_pages == 0,
        format!("stack_push_pages={push_pages} shadow_pages={shadow_pages}"),
    ));

    // Journal ring occupancy: retained records can't exceed the ring
    // capacity or the all-time total, and nothing is evicted before
    // the ring fills.
    let (total, retained) = (snap.journal_total, snap.journal_retained);
    let cap = lp_obs::JOURNAL_CAP as u64;
    let holds = retained <= cap.min(total) && (total > cap || retained == total);
    checks.push(check(
        "journal_ring_occupancy",
        holds,
        total == 0 && retained == 0,
        format!("total={total} retained={retained} cap={cap}"),
    ));

    checks
}

/// Number of failed checks.
#[must_use]
pub fn failures(checks: &[Check]) -> usize {
    checks.iter().filter(|c| c.verdict == Verdict::Fail).count()
}

/// Human-readable report; last line is
/// `audit: N check(s), P passed, S skipped, F failed`.
#[must_use]
pub fn render_audit(checks: &[Check]) -> String {
    let mut out = String::new();
    for c in checks {
        let tag = match c.verdict {
            Verdict::Pass => "pass",
            Verdict::Fail => "FAIL",
            Verdict::Skip => "skip",
        };
        out.push_str(&format!("{tag}  {:<32} {}\n", c.name, c.detail));
    }
    let passed = checks.iter().filter(|c| c.verdict == Verdict::Pass).count();
    let skipped = checks.iter().filter(|c| c.verdict == Verdict::Skip).count();
    out.push_str(&format!(
        "audit: {} check(s), {passed} passed, {skipped} skipped, {} failed\n",
        checks.len(),
        failures(checks)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_obs::metrics::{Counter, Hist, PredictorKind};
    use lp_obs::registry::Registry;
    use lp_obs::snapshot::capture;

    fn consistent_registry() -> Registry {
        let reg = Registry::new();
        let c = reg.counters();
        c.add(Counter::EventsConsumed, 100);
        c.add(Counter::BlocksEntered, 40);
        c.add(Counter::Loads, 30);
        c.add(Counter::Stores, 20);
        c.add(Counter::LoopInstances, 2);
        c.add(Counter::ProfilesTaken, 1);
        c.add(Counter::EvalsPerformed, 3);
        c.add(Counter::RawConflicts, 2);
        for kind in PredictorKind::ALL {
            c.add(Counter::PredictorHit(kind), 5);
            c.add(Counter::PredictorMiss(kind), 5);
        }
        reg.record_hist(Hist::LoopIterations, 10);
        reg.record_hist(Hist::LoopIterations, 20);
        reg.record_hist(Hist::ProfileNanos, 1234);
        for _ in 0..3 {
            reg.record_hist(Hist::EvalNanos, 99);
        }
        reg.record_hist(Hist::ConflictDistance, 1);
        reg.record_hist(Hist::ConflictDistance, 4);
        c.add(Counter::FcmEntries, 7);
        c.max(Counter::FcmEntriesMax, 4);
        c.add(Counter::FcmEntriesRetired, 5);
        c.add(Counter::TimelineRuns, 12);
        c.add(Counter::ShadowPages, 3);
        c.add(Counter::StackPushPages, 1);
        reg
    }

    #[test]
    fn consistent_snapshot_passes_without_failures() {
        let snap = capture(&consistent_registry(), "audit-test");
        let checks = audit_snapshot(&snap);
        assert_eq!(failures(&checks), 0, "{}", render_audit(&checks));
        assert!(checks.iter().any(|c| c.verdict == Verdict::Skip));
        assert!(checks
            .iter()
            .any(|c| c.name == "predictor_stream_balance" && c.verdict == Verdict::Pass));
    }

    #[test]
    fn empty_snapshot_skips_everything() {
        let snap = capture(&Registry::new(), "audit-empty");
        let checks = audit_snapshot(&snap);
        assert_eq!(failures(&checks), 0);
        // journal occupancy may legitimately pass (the process journal
        // is live in tests); every counter-law must be vacuous.
        for c in &checks {
            if c.name != "journal_ring_occupancy" {
                assert_eq!(c.verdict, Verdict::Skip, "{} not skipped", c.name);
            }
        }
    }

    #[test]
    fn violations_are_detected() {
        let reg = consistent_registry();
        // Break the predictor balance and the histogram twin.
        reg.counters()
            .add(Counter::PredictorHit(PredictorKind::Fcm), 1);
        reg.counters().add(Counter::LoopInstances, 7);
        let snap = capture(&reg, "audit-broken");
        let checks = audit_snapshot(&snap);
        assert_eq!(failures(&checks), 2, "{}", render_audit(&checks));
        let broken = |name: &str| {
            checks
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.verdict == Verdict::Fail)
                .unwrap()
        };
        assert!(broken("predictor_stream_balance"));
        assert!(broken("loop_iterations_per_instance"));
        let report = render_audit(&checks);
        assert!(report.contains("2 failed"));
    }

    #[test]
    fn footprint_laws_catch_impossible_states() {
        let verdict = |reg: &Registry, name: &str| {
            let checks = audit_snapshot(&capture(reg, "audit-footprint"));
            checks.iter().find(|c| c.name == name).unwrap().verdict
        };
        let reg = consistent_registry();
        assert_eq!(
            verdict(&reg, "fcm_entries_within_observations"),
            Verdict::Pass
        );
        assert_eq!(
            verdict(&reg, "stack_push_pages_within_shadow"),
            Verdict::Pass
        );
        // 10 hybrid observations can't leave 11 FCM entries behind.
        reg.counters().add(Counter::FcmEntries, 4);
        assert_eq!(
            verdict(&reg, "fcm_entries_within_observations"),
            Verdict::Fail
        );
        reg.counters().add(Counter::StackPushPages, 3);
        assert_eq!(
            verdict(&reg, "stack_push_pages_within_shadow"),
            Verdict::Fail
        );
        // One phi's table can't outgrow all of them together (11 now).
        assert_eq!(
            verdict(&reg, "fcm_entries_max_within_fcm_entries"),
            Verdict::Pass
        );
        reg.counters().max(Counter::FcmEntriesMax, 12);
        assert_eq!(
            verdict(&reg, "fcm_entries_max_within_fcm_entries"),
            Verdict::Fail
        );
        // Freed tables held 5 of the 11 entries; 12 can't have been freed.
        assert_eq!(
            verdict(&reg, "fcm_entries_retired_within_fcm_entries"),
            Verdict::Pass
        );
        reg.counters().add(Counter::FcmEntriesRetired, 7);
        assert_eq!(
            verdict(&reg, "fcm_entries_retired_within_fcm_entries"),
            Verdict::Fail
        );
        // 30 iterations can't fill 31 runs.
        assert_eq!(
            verdict(&reg, "timeline_runs_within_iterations"),
            Verdict::Pass
        );
        reg.counters().add(Counter::TimelineRuns, 19);
        assert_eq!(
            verdict(&reg, "timeline_runs_within_iterations"),
            Verdict::Fail
        );
    }

    #[test]
    fn store_and_journal_laws_catch_impossible_states() {
        let reg = Registry::new();
        reg.counters().add(Counter::StoreCorruptDiscarded, 5);
        reg.counters().add(Counter::StoreMisses, 2);
        let snap = capture(&reg, "audit-store");
        let checks = audit_snapshot(&snap);
        assert!(checks
            .iter()
            .any(|c| c.name == "store_corrupt_within_misses" && c.verdict == Verdict::Fail));

        // Hand-forge an impossible journal occupancy.
        let mut snap = snap;
        snap.journal_total = 10;
        snap.journal_retained = 11;
        let checks = audit_snapshot(&snap);
        assert!(checks
            .iter()
            .any(|c| c.name == "journal_ring_occupancy" && c.verdict == Verdict::Fail));
    }
}
