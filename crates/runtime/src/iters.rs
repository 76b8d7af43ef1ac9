//! Per-iteration data of a loop instance: when each iteration started
//! ([`IterTimeline`]) and which iterations had some property
//! ([`IterSet`]: memory conflicts, value mispredictions).
//!
//! Both are held as runs, because loops repeat themselves: most
//! iterations of most loops take exactly as long as the one before, and
//! conflicts and mispredictions come in streaks (DESIGN.md §17). A run
//! is written once, by its first element and a side-table entry; the
//! side entry is made only for a run long enough to pay for it, so a
//! loop without any repetition costs what one entry per iteration cost,
//! plus the empty side table.

use crate::model::Segment;
use std::ops::Range;

/// Fewest iterations a timeline run must cover to get a side entry: its
/// 8-byte start plus the 24-byte [`StepRun`] then cost no more than the
/// 8-byte stamps they replace.
const MIN_STEP_RUN: u32 = 4;

/// Fewest members an [`IterSet`] interval must cover to get a side
/// entry: its 4-byte first member plus the 8-byte [`Interval`] then cost
/// no more than the 4-byte members they replace.
const MIN_INTERVAL: u32 = 3;

/// Iterations `first .. first + count` of a timeline, starting at
/// `starts[at] + j × step` for `j < count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StepRun {
    /// Length of every iteration of the run but its last, whose length
    /// runs up to the next start (or the region end).
    pub(crate) step: u64,
    /// Position of the run's first start in the timeline's start list.
    pub(crate) at: u32,
    /// Iteration number of the run's first iteration.
    first: u32,
    /// Iterations in the run (at least [`MIN_STEP_RUN`]).
    pub(crate) count: u32,
}

/// The start stamps of one loop instance's iterations, in order, held as
/// runs of equal-length iterations.
///
/// Iteration `k` spans `start(k) .. start(k + 1)`; the last one ends at
/// the region end, which the timeline does not hold. Every entry of the
/// start list opens a run; the runs of more than one iteration are
/// described by a [`StepRun`] in a side table, the others are single
/// iterations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IterTimeline {
    /// First start stamp of every run, in order.
    starts: Vec<u64>,
    /// The runs of [`MIN_STEP_RUN`] or more iterations, in order.
    runs: Vec<StepRun>,
    /// Iterations held.
    len: u32,
}

impl IterTimeline {
    /// Rebuilds a timeline from its runs (as the profile store holds
    /// them). `runs` gives `(at, count, step)` for each long run.
    ///
    /// # Errors
    /// Names the first broken rule: runs out of order or too short,
    /// stamps that go backwards or overflow, more than `u32::MAX`
    /// iterations.
    pub(crate) fn from_runs(
        starts: Vec<u64>,
        runs: impl IntoIterator<Item = (u32, u32, u64)>,
    ) -> Result<IterTimeline, &'static str> {
        let mut side = Vec::new();
        let mut len = 0u32;
        let mut next_at = 0usize;
        for (at, count, step) in runs {
            let i = at as usize;
            if i < next_at || i >= starts.len() {
                return Err("timeline run out of order");
            }
            if count < MIN_STEP_RUN {
                return Err("timeline run too short");
            }
            let first = u32::try_from(i - next_at)
                .ok()
                .and_then(|singles| len.checked_add(singles))
                .ok_or("timeline too long")?;
            len = first.checked_add(count).ok_or("timeline too long")?;
            side.push(StepRun {
                step,
                at,
                first,
                count,
            });
            next_at = i + 1;
        }
        let singles = u32::try_from(starts.len() - next_at).map_err(|_| "timeline too long")?;
        len = len.checked_add(singles).ok_or("timeline too long")?;
        let timeline = IterTimeline {
            starts,
            runs: side,
            len,
        };
        // Each run must end at or before the next one begins.
        let mut r = 0;
        for (i, &s) in timeline.starts.iter().enumerate() {
            let last = match timeline.runs.get(r) {
                Some(run) if run.at as usize == i => {
                    r += 1;
                    run.step
                        .checked_mul(u64::from(run.count - 1))
                        .and_then(|d| d.checked_add(s))
                        .ok_or("timeline stamp overflows")?
                }
                _ => s,
            };
            if timeline.starts.get(i + 1).is_some_and(|&next| next < last) {
                return Err("timeline stamps go backwards");
            }
        }
        Ok(timeline)
    }

    /// Appends the next iteration's start stamp: it extends the last run
    /// when it keeps that run's step, and otherwise opens a new one.
    ///
    /// # Panics
    /// Panics in debug builds if `start` precedes the last stamp.
    pub(crate) fn push(&mut self, start: u64) {
        debug_assert!(self.last_start().is_none_or(|l| l <= start));
        self.len += 1;
        if let Some(run) = self.runs.last_mut() {
            if run.at as usize + 1 == self.starts.len() {
                let next = run
                    .step
                    .checked_mul(u64::from(run.count))
                    .and_then(|d| d.checked_add(self.starts[run.at as usize]));
                if next == Some(start) {
                    run.count += 1;
                    return;
                }
            }
        }
        self.starts.push(start);
        // The single iterations since the last long run become a run of
        // their own once enough of them share a step.
        let singles_from = self.runs.last().map_or(0, |r| r.at as usize + 1);
        let n = MIN_STEP_RUN as usize;
        let m = self.starts.len();
        if m - singles_from >= n {
            let tail = &self.starts[m - n..];
            let step = tail[1] - tail[0];
            if tail.windows(2).all(|w| w[1] - w[0] == step) {
                self.starts.truncate(m - n + 1);
                self.runs.push(StepRun {
                    step,
                    at: (m - n) as u32,
                    first: self.len - MIN_STEP_RUN,
                    count: MIN_STEP_RUN,
                });
            }
        }
    }

    /// Number of iterations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no iteration started.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Runs held: one per entry of the start list, whether it covers one
    /// iteration or many.
    #[must_use]
    pub(crate) fn runs(&self) -> usize {
        self.starts.len()
    }

    /// The start list and the long runs, as the profile store writes
    /// them.
    #[must_use]
    pub(crate) fn parts(&self) -> (&[u64], &[StepRun]) {
        (&self.starts, &self.runs)
    }

    fn last_start(&self) -> Option<u64> {
        match self.runs.last() {
            Some(run) if run.at as usize + 1 == self.starts.len() => {
                Some(self.starts[run.at as usize] + run.step * u64::from(run.count - 1))
            }
            _ => self.starts.last().copied(),
        }
    }

    /// Start stamp of iteration `k`.
    ///
    /// # Panics
    /// Panics if `k >= self.len()`.
    #[must_use]
    pub fn start(&self, k: usize) -> u64 {
        assert!(k < self.len(), "iteration {k} of {}", self.len);
        let k = k as u32;
        let r = self.runs.partition_point(|run| run.first <= k);
        let Some(run) = r.checked_sub(1).map(|r| self.runs[r]) else {
            return self.starts[k as usize];
        };
        let base = self.starts[run.at as usize];
        if k - run.first < run.count {
            base + run.step * u64::from(k - run.first)
        } else {
            self.starts[(run.at + 1 + (k - run.first - run.count)) as usize]
        }
    }

    /// Every start stamp, in order.
    pub fn starts(&self) -> impl Iterator<Item = u64> + '_ {
        let mut runs = self.runs.iter().peekable();
        self.starts.iter().enumerate().flat_map(move |(i, &s)| {
            let (count, step) = runs
                .next_if(|run| run.at as usize == i)
                .map_or((1, 0), |run| (run.count, run.step));
            (0..u64::from(count)).map(move |j| s + j * step)
        })
    }

    /// Every iteration's length on the cost axis, up to the next start or
    /// to `end` (the region end) for the last one, as [`Segment`]s: a
    /// long run gives its step for all its iterations but the last, then
    /// the last on its own; a single start gives one iteration.
    #[must_use]
    pub fn segments(&self, end: u64) -> Segments<'_> {
        Segments {
            starts: &self.starts,
            runs: &self.runs,
            elem: 0,
            run: 0,
            last: None,
            end,
        }
    }

    /// The last iteration starting at or before `t`, with its start
    /// stamp; `None` when `t` precedes the first iteration. A binary
    /// search over the runs, then one division inside the run.
    #[must_use]
    pub fn iteration_of(&self, t: u64) -> Option<(u32, u64)> {
        let e = self.starts.partition_point(|&s| s <= t).checked_sub(1)?;
        let s = self.starts[e];
        let r = self.runs.partition_point(|run| run.at as usize <= e);
        let Some(run) = r.checked_sub(1).map(|r| self.runs[r]) else {
            return Some((e as u32, s));
        };
        if run.at as usize != e {
            let k = run.first + run.count + (e - run.at as usize - 1) as u32;
            return Some((k, s));
        }
        // A run of empty iterations starts all of them at `s`.
        let last = u64::from(run.count - 1);
        let j = (t - s).checked_div(run.step).map_or(last, |j| j.min(last));
        Some((run.first + j as u32, s + j * run.step))
    }

    /// Keeps the first `n` iterations.
    pub fn truncate(&mut self, n: usize) {
        if n >= self.len() {
            return;
        }
        let kept: Vec<u64> = self.starts().take(n).collect();
        *self = kept.into_iter().collect();
    }
}

impl FromIterator<u64> for IterTimeline {
    fn from_iter<I: IntoIterator<Item = u64>>(starts: I) -> IterTimeline {
        let mut t = IterTimeline::default();
        for s in starts {
            t.push(s);
        }
        t
    }
}

/// Iterator over a timeline's iteration lengths as segments
/// ([`IterTimeline::segments`]). It yields no empty segment.
#[derive(Debug, Clone)]
pub struct Segments<'a> {
    starts: &'a [u64],
    runs: &'a [StepRun],
    /// Position in the start list of the next run to open.
    elem: usize,
    /// The next long run to open.
    run: usize,
    /// Start of the open long run's last iteration, not yet yielded.
    last: Option<u64>,
    end: u64,
}

impl Segments<'_> {
    /// Length of the iteration starting at `start`, the last one before
    /// the next run opens.
    fn up_to_next(&self, start: u64) -> u64 {
        let stop = self.starts.get(self.elem).copied().unwrap_or(self.end);
        stop.saturating_sub(start)
    }
}

impl Iterator for Segments<'_> {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        if let Some(start) = self.last.take() {
            return Some((self.up_to_next(start), 1));
        }
        let &start = self.starts.get(self.elem)?;
        self.elem += 1;
        match self.runs.get(self.run) {
            Some(run) if run.at as usize + 1 == self.elem => {
                self.run += 1;
                self.last = Some(start + run.step * u64::from(run.count - 1));
                Some((run.step, run.count - 1))
            }
            _ => Some((self.up_to_next(start), 1)),
        }
    }
}

/// Members `lo .. lo + count` of an [`IterSet`], where `lo` is
/// `firsts[at]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interval {
    /// Position of the interval's first member in the set's first list.
    pub(crate) at: u32,
    /// Members in the interval (at least [`MIN_INTERVAL`]).
    pub(crate) count: u32,
}

/// A set of iteration numbers, built in ascending order and held as
/// intervals of consecutive members.
///
/// Every entry of the first list opens an interval; the intervals of
/// more than one member are described by an [`Interval`] in a side
/// table, the others are single members.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IterSet {
    /// First member of every interval, ascending.
    firsts: Vec<u32>,
    /// The intervals of [`MIN_INTERVAL`] or more members, in order.
    intervals: Vec<Interval>,
    /// Members held.
    len: u32,
}

impl IterSet {
    /// Rebuilds a set from its intervals (as the profile store holds
    /// them). `intervals` gives `(at, count)` for each long interval.
    ///
    /// # Errors
    /// Names the first broken rule: intervals out of order or too short,
    /// members out of order or past `u32::MAX`.
    pub(crate) fn from_intervals(
        firsts: Vec<u32>,
        intervals: impl IntoIterator<Item = (u32, u32)>,
    ) -> Result<IterSet, &'static str> {
        let mut side: Vec<Interval> = Vec::new();
        for (at, count) in intervals {
            if side.last().is_some_and(|l| at <= l.at) || at as usize >= firsts.len() {
                return Err("iteration interval out of order");
            }
            if count < MIN_INTERVAL {
                return Err("iteration interval too short");
            }
            side.push(Interval { at, count });
        }
        let mut len = 0u32;
        let mut r = 0;
        for (i, &lo) in firsts.iter().enumerate() {
            let count = match side.get(r) {
                Some(iv) if iv.at as usize == i => {
                    r += 1;
                    iv.count
                }
                _ => 1,
            };
            let past = lo.checked_add(count).ok_or("iteration past u32::MAX")?;
            if firsts.get(i + 1).is_some_and(|&next| next < past) {
                return Err("iteration intervals out of order");
            }
            len = len.checked_add(count).ok_or("iteration set too large")?;
        }
        Ok(IterSet {
            firsts,
            intervals: side,
            len,
        })
    }

    /// Adds iteration `k`, which must not precede the largest member;
    /// adding the largest member again changes nothing.
    ///
    /// # Panics
    /// Panics in debug builds if `k` precedes the largest member.
    pub(crate) fn insert(&mut self, k: u32) {
        if let Some(last) = self.last() {
            if last == k {
                return;
            }
            debug_assert!(last < k, "iteration {k} inserted after {last}");
        }
        self.len += 1;
        if let Some(iv) = self.intervals.last_mut() {
            if iv.at as usize + 1 == self.firsts.len()
                && self.firsts[iv.at as usize].checked_add(iv.count) == Some(k)
            {
                iv.count += 1;
                return;
            }
        }
        self.firsts.push(k);
        // The single members since the last long interval become an
        // interval of their own once enough of them are consecutive.
        let singles_from = self.intervals.last().map_or(0, |iv| iv.at as usize + 1);
        let n = MIN_INTERVAL as usize;
        let m = self.firsts.len();
        if m - singles_from >= n && self.firsts[m - 1] - self.firsts[m - n] == MIN_INTERVAL - 1 {
            self.firsts.truncate(m - n + 1);
            self.intervals.push(Interval {
                at: (m - n) as u32,
                count: MIN_INTERVAL,
            });
        }
    }

    /// The largest member.
    fn last(&self) -> Option<u32> {
        match self.intervals.last() {
            Some(iv) if iv.at as usize + 1 == self.firsts.len() => {
                Some(self.firsts[iv.at as usize] + iv.count - 1)
            }
            _ => self.firsts.last().copied(),
        }
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The first list and the long intervals, as the profile store
    /// writes them.
    #[must_use]
    pub(crate) fn parts(&self) -> (&[u32], &[Interval]) {
        (&self.firsts, &self.intervals)
    }

    /// Whether iteration `k` is a member.
    #[must_use]
    pub fn contains(&self, k: u32) -> bool {
        let Some(e) = self.firsts.partition_point(|&lo| lo <= k).checked_sub(1) else {
            return false;
        };
        let lo = self.firsts[e];
        match self.intervals.binary_search_by_key(&e, |iv| iv.at as usize) {
            Ok(i) => k - lo < self.intervals[i].count,
            Err(_) => k == lo,
        }
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.ranges().flatten()
    }

    /// The members as ascending, disjoint ranges of consecutive
    /// iterations, one per entry of the first list (ranges that merely
    /// touch are not merged).
    pub fn ranges(&self) -> impl Iterator<Item = Range<u32>> + '_ {
        let mut intervals = self.intervals.iter().peekable();
        self.firsts.iter().enumerate().map(move |(i, &lo)| {
            let count = intervals
                .next_if(|iv| iv.at as usize == i)
                .map_or(1, |iv| iv.count);
            lo..lo + count
        })
    }
}

impl FromIterator<u32> for IterSet {
    fn from_iter<I: IntoIterator<Item = u32>>(members: I) -> IterSet {
        let mut s = IterSet::default();
        for k in members {
            s.insert(k);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Stamps from segments of equal-length iterations: `(length, count)`.
    fn stamps(first: u64, segments: &[(u64, usize)]) -> Vec<u64> {
        let mut out = Vec::new();
        let mut s = first;
        for &(len, count) in segments {
            for _ in 0..count {
                out.push(s);
                s += len;
            }
        }
        out
    }

    /// Members from segments of consecutive iterations: `(gap, count)`.
    fn members(segments: &[(u32, u32)]) -> Vec<u32> {
        let mut out = Vec::new();
        let mut k = 0u32;
        for &(gap, count) in segments {
            k += gap;
            for _ in 0..count {
                out.push(k);
                k += 1;
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn timeline_matches_a_vec_model(
            first in 0u64..1000,
            segments in prop::collection::vec((0u64..6, 1usize..9), 0..12),
            tail in 0u64..7,
            cut in 0usize..80
        ) {
            let model = stamps(first, &segments);
            let end = model.last().map_or(first, |&s| s + tail);
            let t: IterTimeline = model.iter().copied().collect();
            prop_assert_eq!(t.len(), model.len());
            prop_assert_eq!(t.is_empty(), model.is_empty());
            prop_assert!(t.runs() <= model.len());
            prop_assert_eq!(t.starts().count(), model.len());
            prop_assert_eq!(t.starts().collect::<Vec<_>>(), model.clone());
            for (k, &s) in model.iter().enumerate() {
                prop_assert_eq!(t.start(k), s);
            }
            let lens: Vec<u64> = (0..model.len())
                .map(|k| model.get(k + 1).copied().unwrap_or(end) - model[k])
                .collect();
            let segments: Vec<Segment> = t.segments(end).collect();
            prop_assert!(segments.iter().all(|&(_, count)| count > 0));
            prop_assert!(segments.len() <= t.runs() + t.parts().1.len());
            let expanded: Vec<u64> = segments
                .iter()
                .flat_map(|&(len, count)| std::iter::repeat_n(len, count as usize))
                .collect();
            prop_assert_eq!(expanded, lens);
            // Every stamp boundary, and one either side of it.
            for &s in &model {
                for probe in [s.saturating_sub(1), s, s + 1] {
                    let want = model
                        .partition_point(|&x| x <= probe)
                        .checked_sub(1)
                        .map(|k| (k as u32, model[k]));
                    prop_assert_eq!(t.iteration_of(probe), want, "t = {}", probe);
                }
            }
            prop_assert_eq!(t.iteration_of(end + 100).map(|(k, _)| k as usize), model.len().checked_sub(1));
            // The parts the store writes rebuild the same timeline.
            let (starts, runs) = t.parts();
            let rebuilt = IterTimeline::from_runs(
                starts.to_vec(),
                runs.iter().map(|r| (r.at, r.count, r.step)),
            );
            prop_assert_eq!(rebuilt.as_ref(), Ok(&t));
            // Truncation keeps a prefix, held as pushing it would hold it.
            let mut cut_t = t.clone();
            let n = cut.min(model.len());
            cut_t.truncate(n);
            prop_assert_eq!(cut_t, model[..n].iter().copied().collect::<IterTimeline>());
        }

        #[test]
        fn iter_set_matches_a_vec_model(
            segments in prop::collection::vec((1u32..4, 1u32..8), 0..12),
            repeat_last in any::<bool>()
        ) {
            let model = members(&segments);
            let mut set = IterSet::default();
            for &k in &model {
                set.insert(k);
                if repeat_last {
                    set.insert(k);
                }
            }
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
            prop_assert_eq!(set.last(), model.last().copied());
            prop_assert_eq!(set.iter().count(), model.len());
            prop_assert_eq!(set.iter().collect::<Vec<_>>(), model.clone());
            let ranges: Vec<Range<u32>> = set.ranges().collect();
            prop_assert!(ranges.windows(2).all(|w| w[0].end <= w[1].start));
            prop_assert_eq!(ranges.into_iter().flatten().collect::<Vec<_>>(), model.clone());
            let top = model.last().map_or(3, |&k| k + 3);
            for k in 0..=top {
                prop_assert_eq!(set.contains(k), model.contains(&k), "k = {}", k);
            }
            let (firsts, intervals) = set.parts();
            let rebuilt = IterSet::from_intervals(
                firsts.to_vec(),
                intervals.iter().map(|iv| (iv.at, iv.count)),
            );
            prop_assert_eq!(rebuilt.as_ref(), Ok(&set));
            prop_assert_eq!(model.into_iter().collect::<IterSet>(), set);
        }
    }

    #[test]
    fn equal_lengths_fold_into_one_run() {
        let t: IterTimeline = (0..1000).map(|k| 7 + 3 * k).collect();
        assert_eq!(t.runs(), 1);
        assert_eq!(t.iteration_of(7 + 3 * 500 + 2), Some((500, 7 + 3 * 500)));
        let s: IterSet = (5..900).collect();
        assert_eq!(s.parts().0, &[5]);
        assert!(s.contains(899) && !s.contains(900) && !s.contains(4));
    }

    #[test]
    fn runs_too_short_to_pay_stay_single() {
        let t: IterTimeline = [0, 2, 4, 10, 11, 13, 16].into_iter().collect();
        assert!(t.parts().1.is_empty());
        let s: IterSet = [1, 2, 4, 5, 7].into_iter().collect();
        assert!(s.parts().1.is_empty());
    }

    #[test]
    fn malformed_parts_are_rejected() {
        assert!(IterTimeline::from_runs(vec![5, 10], [(0, 4, 2)]).is_err()); // overlaps 10
        assert!(IterTimeline::from_runs(vec![5, 20], [(0, 3, 2)]).is_err()); // too short
        assert!(IterTimeline::from_runs(vec![5], [(1, 4, 2)]).is_err()); // past the list
        assert!(IterTimeline::from_runs(vec![5, 20], [(1, 4, 2), (0, 4, 1)]).is_err());
        assert!(IterTimeline::from_runs(vec![9, 5], []).is_err());
        assert!(IterTimeline::from_runs(vec![u64::MAX - 1], [(0, 4, 1)]).is_err());
        assert!(IterSet::from_intervals(vec![1, 3], [(0, 3)]).is_err()); // overlaps 3
        assert!(IterSet::from_intervals(vec![1, 9], [(0, 2)]).is_err()); // too short
        assert!(IterSet::from_intervals(vec![4, 4], []).is_err());
        assert!(IterSet::from_intervals(vec![u32::MAX - 1], [(0, 3)]).is_err());
    }
}
