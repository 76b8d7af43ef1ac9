//! Loom-free stress tests for concurrent recording: N worker threads,
//! each writing M increments, histogram samples and spans straight into
//! one shared registry, must sum **exactly** — no lost updates, no
//! double counts — and spans recorded concurrently past the registry's
//! capacity must each be either retained or counted as dropped.

use lp_obs::{Counter, Hist, Registry, SpanRecord};

const WORKERS: usize = 8;
const INCREMENTS: u64 = 10_000;

fn span(name: &'static str, i: u64, tid: usize) -> SpanRecord {
    SpanRecord {
        name,
        start_ns: i,
        end_ns: i + 1,
        depth: 0,
        tid: tid as u64,
    }
}

#[test]
fn n_threads_times_m_increments_sum_exactly() {
    let reg = Registry::new();
    std::thread::scope(|scope| {
        for worker in 0..WORKERS {
            let reg = &reg;
            scope.spawn(move || {
                for i in 0..INCREMENTS {
                    reg.counters().add(Counter::EvalsPerformed, 1);
                    reg.counters().add(Counter::StoreHits, 2);
                    reg.record_hist(Hist::EvalNanos, i % 1024);
                    if i % 1000 == 0 {
                        reg.record_span(span("stress", i, worker));
                    }
                }
            });
        }
    });
    let n = WORKERS as u64;
    assert_eq!(reg.counters().get(Counter::EvalsPerformed), n * INCREMENTS);
    assert_eq!(reg.counters().get(Counter::StoreHits), 2 * n * INCREMENTS);
    let hist = reg.hist(Hist::EvalNanos);
    assert_eq!(hist.count, n * INCREMENTS);
    // Each worker's samples are 0..M mod 1024, so the total is exactly
    // N times one worker's arithmetic series.
    let per_worker: u64 = (0..INCREMENTS).map(|i| i % 1024).sum();
    assert_eq!(hist.sum, n * per_worker);
    assert_eq!(hist.min, 0);
    assert_eq!(hist.max, 1023);
    // One span per 1000 increments per worker, all retained.
    assert_eq!(reg.spans().len(), WORKERS * (INCREMENTS as usize / 1000));
    assert_eq!(reg.span_count(), reg.spans().len());
    assert_eq!(reg.counters().get(Counter::SpansDropped), 0);
}

#[test]
fn concurrent_span_records_past_capacity_drop_and_count_exactly() {
    const CAP: usize = 1_000;
    const PER_WORKER: u64 = 300;
    let reg = Registry::with_capacity(CAP);
    std::thread::scope(|scope| {
        for w in 0..WORKERS {
            let reg = &reg;
            scope.spawn(move || {
                for i in 0..PER_WORKER {
                    reg.record_span(span("capped", i, w));
                }
            });
        }
    });
    let total = WORKERS * PER_WORKER as usize;
    assert_eq!(reg.spans().len(), CAP, "capacity must bound retention");
    assert_eq!(reg.span_count(), CAP);
    assert_eq!(
        reg.counters().get(Counter::SpansDropped) as usize,
        total - CAP,
        "every span is either retained or counted dropped"
    );
}
