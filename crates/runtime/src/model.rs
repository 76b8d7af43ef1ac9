//! Parallel-execution cost models (paper §III-B, Fig. 1).
//!
//! All three models read the (inner-savings-adjusted) iteration lengths
//! of one loop instance as [`Segment`]s, `count` consecutive iterations
//! of the same length, in iteration order, and return the modelled
//! parallel cost, or `None` when the model marks the loop sequential.
//! The caller compares against the loop's sequential cost and keeps the
//! minimum — loops where parallel execution would not help are "marked
//! as serial" exactly as in the paper.
//!
//! Every formula is a function of the lengths alone, so a segment is
//! worth `count` copies of one iteration and the cost is exact whatever
//! way the lengths are cut into segments:
//!
//! - unbounded cores: DOALL is the largest length, HELIX the largest
//!   length plus `delta × n`, and Partial-DOALL the sum over phases of
//!   each phase's largest length, walking segments and conflict ranges
//!   together;
//! - bounded cores: waves of `cores` iterations fill across segment
//!   boundaries (a segment fills the open wave, then closes whole waves
//!   in one step), and the HELIX simulation steps through the iterations
//!   of each segment, keeping the last `min(cores, n)` finish times.
//!
//! A caller holding one length per iteration passes one-iteration
//! segments.

use std::collections::VecDeque;
use std::ops::Range;

/// `count` consecutive iterations of length `len`, as `(len, count)`.
pub type Segment = (u64, u32);

/// Fraction of conflicting iterations above which Partial-DOALL marks the
/// loop sequential (paper §III-B: 80 %).
pub const PDOALL_CONFLICT_LIMIT: f64 = 0.8;

/// DOALL: all iterations start together; any conflict abandons
/// parallelization. Iterations are dispatched in order in waves of
/// `cores`, and the loop cost is the sum over waves of the slowest
/// iteration in each wave; `cores = None` means unbounded (the limit
/// study), where the loop cost is the slowest iteration.
///
/// `forced_serial` covers non-computable register LCDs and disallowed
/// calls; `has_conflicts` covers memory RAW conflicts.
#[must_use]
pub fn doall_cost(
    segments: impl IntoIterator<Item = Segment>,
    has_conflicts: bool,
    forced_serial: bool,
    cores: Option<u32>,
) -> Option<u64> {
    if forced_serial || has_conflicts {
        return None;
    }
    let mut waves = Waves::new(cores);
    for (len, count) in segments {
        waves.push(len, count.into());
    }
    (waves.iterations > 0).then(|| waves.close())
}

/// Partial-DOALL: a conflict at iteration `k` delays the start of `k` (and
/// everything younger) to the end of the previous conflict-free phase;
/// tracking then restarts. Wave scheduling over `cores` applies within
/// each phase (`None`: unbounded, a phase costs its slowest iteration).
///
/// `conflicts` are the conflicting iterations as ascending, disjoint
/// ranges (they may touch); members at or past the last iteration start
/// no phase but still count. Returns `None` (sequential) when the
/// conflicting iterations exceed [`PDOALL_CONFLICT_LIMIT`] of the total.
#[must_use]
pub fn pdoall_cost(
    segments: impl IntoIterator<Item = Segment>,
    conflicts: &[Range<u32>],
    forced_serial: bool,
    cores: Option<u32>,
) -> Option<u64> {
    if forced_serial {
        return None;
    }
    let members: u64 = conflicts.iter().map(|c| u64::from(c.end - c.start)).sum();
    let mut cost = 0u64;
    let mut phase = Waves::new(cores);
    let mut ahead = conflicts.iter().peekable();
    // The first iteration not yet placed in a phase.
    let mut k = 0u64;
    for (len, count) in segments {
        let end = k + u64::from(count);
        while k < end {
            while ahead.next_if(|c| u64::from(c.end) <= k).is_some() {}
            match ahead.peek() {
                // Iteration `k` conflicts, and so do the ones after it up
                // to the range's end: each closes the phase before it, so
                // all but the last make a phase of their own.
                Some(c) if u64::from(c.start) <= k => {
                    let stop = end.min(u64::from(c.end));
                    cost += phase.close() + (stop - k - 1) * len;
                    phase.push(len, 1);
                    k = stop;
                }
                next => {
                    let stop = next.map_or(end, |c| end.min(u64::from(c.start)));
                    phase.push(len, stop - k);
                    k = stop;
                }
            }
        }
    }
    if k == 0 || members as f64 > PDOALL_CONFLICT_LIMIT * k as f64 {
        return None;
    }
    Some(cost + phase.close())
}

/// HELIX-style generalized DOACROSS. Unbounded (`cores = None`), the
/// paper's formula: `cost = slowest_iteration + delta_largest ×
/// num_iterations`. With `cores`, iteration `i` starts no earlier than
/// `i × delta` (synchronization) and no earlier than the finish of
/// iteration `i − cores` (core reuse).
///
/// `delta_largest` is the largest producer→consumer timestamp skew over
/// all manifesting LCDs (memory RAW edges, plus register LCDs lowered to
/// memory under `dep1`).
#[must_use]
pub fn helix_cost(
    segments: impl IntoIterator<Item = Segment>,
    delta_largest: u64,
    forced_serial: bool,
    cores: Option<u32>,
) -> Option<u64> {
    if forced_serial {
        return None;
    }
    let mut n = 0u64;
    let Some(p) = cores else {
        let mut slowest = 0u64;
        for (len, count) in segments.into_iter().filter(|&(_, count)| count > 0) {
            slowest = slowest.max(len);
            n += u64::from(count);
        }
        return (n > 0).then(|| slowest + delta_largest * n);
    };
    let p = p.max(1) as usize;
    // The finish times of the last `min(p, n)` iterations, oldest first.
    let mut finish: VecDeque<u64> = VecDeque::new();
    let mut latest = 0u64;
    for (len, count) in segments {
        for _ in 0..count {
            let core_ready = if finish.len() == p {
                finish.pop_front().unwrap_or(0)
            } else {
                0
            };
            let f = (n * delta_largest).max(core_ready) + len;
            finish.push_back(f);
            latest = latest.max(f);
            n += 1;
        }
    }
    (n > 0).then_some(latest)
}

/// In-order waves of `cores` iterations (unbounded: one wave), filled
/// segment by segment: the cost of a conflict-free parallel region.
struct Waves {
    /// Iterations per wave.
    cores: u64,
    /// Iterations in the open wave, fewer than `cores`.
    filled: u64,
    /// Longest iteration in the open wave.
    slowest: u64,
    /// Cost of the closed waves.
    closed: u64,
    /// Iterations pushed in all.
    iterations: u64,
}

impl Waves {
    fn new(cores: Option<u32>) -> Waves {
        Waves {
            cores: cores.map_or(u64::MAX, |p| u64::from(p.max(1))),
            filled: 0,
            slowest: 0,
            closed: 0,
            iterations: 0,
        }
    }

    /// Dispatches `count` more iterations of length `len`.
    fn push(&mut self, len: u64, count: u64) {
        let mut left = count;
        if left == 0 {
            return;
        }
        self.iterations += left;
        if self.filled > 0 {
            let take = left.min(self.cores - self.filled);
            self.slowest = self.slowest.max(len);
            self.filled += take;
            left -= take;
            if self.filled < self.cores {
                return;
            }
            self.closed += self.slowest;
            self.filled = 0;
        }
        // The open wave is empty: whole waves of `len`, then the rest.
        if left >= self.cores {
            self.closed += left / self.cores * len;
            left %= self.cores;
        }
        self.filled = left;
        self.slowest = len;
    }

    /// The cost of every wave so far, the open one included; starts over
    /// with no wave.
    fn close(&mut self) -> u64 {
        let cost = self.closed + if self.filled > 0 { self.slowest } else { 0 };
        self.closed = 0;
        self.filled = 0;
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One segment per length.
    fn each(lens: &[u64]) -> impl Iterator<Item = Segment> + '_ {
        lens.iter().map(|&len| (len, 1))
    }

    /// One range per conflicting iteration.
    fn at(iters: &[u32]) -> Vec<Range<u32>> {
        iters.iter().map(|&k| k..k + 1).collect()
    }

    #[test]
    fn doall_takes_slowest_iteration() {
        assert_eq!(doall_cost(each(&[5, 9, 3]), false, false, None), Some(9));
        assert_eq!(doall_cost(each(&[5, 9, 3]), true, false, None), None);
        assert_eq!(doall_cost(each(&[5, 9, 3]), false, true, None), None);
        assert_eq!(doall_cost(each(&[]), false, false, None), None);
    }

    #[test]
    fn pdoall_no_conflicts_equals_doall() {
        let lens = [4u64, 7, 2, 6];
        assert_eq!(
            pdoall_cost(each(&lens), &[], false, None),
            doall_cost(each(&lens), false, false, None)
        );
    }

    #[test]
    fn pdoall_phases_add_up() {
        // Iterations of length 10 each; conflicts at iterations 2 and 4 of
        // 6 total: phases {0,1}, {2,3}, {4,5} -> 3 phases x 10.
        let lens = [10u64; 6];
        assert_eq!(
            pdoall_cost(each(&lens), &at(&[2, 4]), false, None),
            Some(30)
        );
        // The same six iterations as one segment.
        assert_eq!(pdoall_cost([(10, 6)], &at(&[2, 4]), false, None), Some(30));
    }

    #[test]
    fn pdoall_conflict_at_first_tracked_iteration() {
        // A conflict at iteration 0 cannot happen (nothing older), but at
        // iteration 1 the first phase is just iteration 0.
        let lens = [5u64, 5, 5];
        assert_eq!(pdoall_cost(each(&lens), &at(&[1]), false, None), Some(10));
    }

    #[test]
    fn pdoall_eighty_percent_rule() {
        let lens = [1u64; 10];
        let conflicts: Vec<u32> = (1..=8).collect(); // exactly 80%: allowed
        assert!(pdoall_cost(each(&lens), &at(&conflicts), false, None).is_some());
        let conflicts: Vec<u32> = (1..=9).collect(); // 90%: sequential
        assert_eq!(pdoall_cost(each(&lens), &at(&conflicts), false, None), None);
        // The same members as one range.
        assert_eq!(pdoall_cost(each(&lens), &[1..5, 5..10], false, None), None);
    }

    #[test]
    fn pdoall_every_iteration_conflicting_degenerates_to_serial_sum() {
        // With conflicts on all of 1..n, each phase is one iteration: the
        // cost equals the serial sum (before the 80% rule would even fire
        // for small n). For n=3, 2 conflicts of 3 iterations = 66% < 80%.
        let lens = [7u64, 7, 7];
        assert_eq!(
            pdoall_cost(each(&lens), &at(&[1, 2]), false, None),
            Some(21)
        );
    }

    #[test]
    fn helix_formula() {
        // slowest 9, delta 2, 4 iterations -> 9 + 8 = 17.
        assert_eq!(helix_cost(each(&[5, 9, 3, 7]), 2, false, None), Some(17));
        assert_eq!(helix_cost(each(&[5, 9, 3, 7]), 0, false, None), Some(9));
        assert_eq!(helix_cost(each(&[5, 9]), 1, true, None), None);
    }

    #[test]
    fn bounded_doall_waves() {
        let lens = [3u64, 5, 2, 4, 1];
        // Unbounded: slowest iteration.
        assert_eq!(doall_cost(each(&lens), false, false, None), Some(5));
        // 2 cores: waves {3,5},{2,4},{1} -> 5 + 4 + 1.
        assert_eq!(doall_cost(each(&lens), false, false, Some(2)), Some(10));
        // 1 core: serial sum.
        assert_eq!(doall_cost(each(&lens), false, false, Some(1)), Some(15));
        // Enough cores == unbounded.
        assert_eq!(
            doall_cost(each(&lens), false, false, Some(8)),
            doall_cost(each(&lens), false, false, None)
        );
        // A wave fills across segments: {3,3,3},{3,9,9},{9} -> 3 + 9 + 9.
        assert_eq!(
            doall_cost([(3, 4), (9, 3)], false, false, Some(3)),
            Some(21)
        );
    }

    #[test]
    fn bounded_pdoall_phases_and_waves() {
        let lens = [10u64; 6];
        // conflict at 3: phases {0,1,2},{3,4,5}; with 2 cores each phase
        // is 2 waves of 10 -> 20; total 40.
        assert_eq!(
            pdoall_cost(each(&lens), &at(&[3]), false, Some(2)),
            Some(40)
        );
        assert_eq!(pdoall_cost(each(&lens), &at(&[3]), false, None), Some(20));
    }

    #[test]
    fn bounded_helix_respects_sync_and_core_reuse() {
        let lens = [10u64; 8];
        // Unbounded: 10 + 2*8 = 26.
        assert_eq!(helix_cost(each(&lens), 2, false, None), Some(26));
        // With delta 2 and 2 cores: core reuse dominates.
        let two = helix_cost(each(&lens), 2, false, Some(2)).unwrap();
        assert!(two > 26, "2 cores must be slower: {two}");
        // With huge delta, cores don't matter (sync dominates); the exact
        // simulation is slightly tighter than the paper's closed formula
        // (`delta × n` vs `delta × (n−1) + last`), so bound, not equality.
        let sim = helix_cost(each(&lens), 100, false, Some(2)).unwrap();
        let formula = helix_cost(each(&lens), 100, false, None).unwrap();
        assert!(sim <= formula && sim >= formula - 100);
        // Monotone in cores.
        let p4 = helix_cost(each(&lens), 2, false, Some(4)).unwrap();
        assert!(p4 <= two);
    }

    #[test]
    fn helix_with_large_delta_exceeds_serial() {
        // The caller is responsible for comparing with serial; verify the
        // raw number grows past the serial sum.
        let lens = [10u64; 4];
        let cost = helix_cost(each(&lens), 20, false, None).unwrap();
        assert!(cost > lens.iter().sum::<u64>());
    }
}
