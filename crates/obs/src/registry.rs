//! The global observability registry.
//!
//! One process-wide [`Registry`] owns the monotonic epoch, the completed
//! spans, the counter bank, and the histograms. Everything is reachable
//! through [`global`]; tests may also build private [`Registry`] values.

use crate::metrics::{CounterBank, Hist, Histogram};
use crate::span::SpanRecord;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans retained before overflow increments `SpansDropped`.
pub const MAX_SPANS: usize = 1 << 18;

/// The observability state for one process (or one test).
#[derive(Debug)]
pub struct Registry {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    span_cap: usize,
    counters: CounterBank,
    hists: Mutex<[Histogram; Hist::ALL.len()]>,
    /// Lossy running span count (cheap length check before locking).
    span_len: AtomicUsize,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::with_capacity(MAX_SPANS)
    }
}

impl Registry {
    /// A fresh registry whose epoch is "now".
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// A fresh registry retaining at most `span_cap` spans.
    #[must_use]
    pub fn with_capacity(span_cap: usize) -> Registry {
        Registry {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            span_cap,
            counters: CounterBank::default(),
            hists: Mutex::new(std::array::from_fn(|_| Histogram::default())),
            span_len: AtomicUsize::new(0),
        }
    }

    /// Monotonic nanoseconds since this registry was created.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Appends a completed span (drops it when at capacity).
    pub fn record_span(&self, record: SpanRecord) {
        if self.span_len.load(Ordering::Relaxed) >= self.span_cap {
            self.counters.add(crate::Counter::SpansDropped, 1);
            return;
        }
        let mut spans = self.spans.lock().expect("span registry poisoned");
        if spans.len() >= self.span_cap {
            drop(spans);
            self.counters.add(crate::Counter::SpansDropped, 1);
            return;
        }
        spans.push(record);
        self.span_len.store(spans.len(), Ordering::Relaxed);
    }

    /// A copy of the retained spans, in completion order.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span registry poisoned").clone()
    }

    /// The counter bank.
    #[must_use]
    pub fn counters(&self) -> &CounterBank {
        &self.counters
    }

    /// Records one histogram sample.
    pub fn record_hist(&self, hist: Hist, value: u64) {
        self.hists.lock().expect("hist registry poisoned")[hist.slot()].record(value);
    }

    /// Merges a locally-accumulated histogram into a global slot in one
    /// lock acquisition. Hot paths (e.g. the tracker's per-conflict
    /// distance samples) record into a private [`Histogram`] and publish
    /// it here at flush time instead of locking per sample.
    pub fn merge_hist(&self, hist: Hist, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.hists.lock().expect("hist registry poisoned")[hist.slot()].merge(other);
    }

    /// A copy of one histogram.
    #[must_use]
    pub fn hist(&self, hist: Hist) -> Histogram {
        self.hists.lock().expect("hist registry poisoned")[hist.slot()].clone()
    }

    /// A coherent copy of every histogram slot under **one** lock
    /// acquisition (the freeze used by [`crate::snapshot::capture`]).
    #[must_use]
    pub fn hists_snapshot(&self) -> [Histogram; Hist::ALL.len()] {
        self.hists.lock().expect("hist registry poisoned").clone()
    }

    /// Number of retained spans (lossy fast read, no lock).
    #[must_use]
    pub fn span_count(&self) -> usize {
        self.span_len.load(Ordering::Relaxed)
    }

    /// Clears spans, counters, and histograms (the epoch is preserved so
    /// timestamps from before and after a reset stay comparable).
    pub fn reset(&self) {
        self.spans.lock().expect("span registry poisoned").clear();
        self.span_len.store(0, Ordering::Relaxed);
        self.counters.reset();
        for h in self
            .hists
            .lock()
            .expect("hist registry poisoned")
            .iter_mut()
        {
            *h = Histogram::default();
        }
    }
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_is_monotonic() {
        let r = Registry::new();
        let a = r.now_ns();
        let b = r.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn merge_hist_folds_local_accumulator_in() {
        let r = Registry::new();
        r.record_hist(Hist::LoopIterations, 4);
        let mut local = Histogram::default();
        local.record(16);
        local.record(2);
        r.merge_hist(Hist::LoopIterations, &local);
        // Merging an empty histogram is a no-op (no lock churn).
        r.merge_hist(Hist::LoopIterations, &Histogram::default());
        let h = r.hist(Hist::LoopIterations);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 22);
        assert_eq!((h.min, h.max), (2, 16));
    }

    #[test]
    fn span_capacity_is_enforced() {
        let r = Registry::with_capacity(2);
        for i in 0..5u64 {
            r.record_span(SpanRecord {
                name: "s",
                start_ns: i,
                end_ns: i + 1,
                depth: 0,
                tid: 0,
            });
        }
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.counters().get(crate::Counter::SpansDropped), 3);
        r.reset();
        assert!(r.spans().is_empty());
        assert_eq!(r.counters().get(crate::Counter::SpansDropped), 0);
    }
}
