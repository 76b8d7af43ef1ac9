//! Parallel-execution cost models (paper §III-B, Fig. 1).
//!
//! All three models consume the per-iteration (inner-savings-adjusted)
//! lengths of one loop instance and return the modelled parallel cost, or
//! `None` when the model marks the loop sequential. The caller compares
//! against the loop's sequential cost and keeps the minimum — loops where
//! parallel execution would not help are "marked as serial" exactly as in
//! the paper.

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
    iter_lens: &[u64],
    has_conflicts: bool,
    forced_serial: bool,
    cores: Option<u32>,
) -> Option<u64> {
    if forced_serial || has_conflicts || iter_lens.is_empty() {
        return None;
    }
    Some(wave_cost(iter_lens, cores))
}

/// Partial-DOALL: a conflict at iteration `k` delays the start of `k` (and
/// everything younger) to the end of the previous conflict-free phase;
/// tracking then restarts. Wave scheduling over `cores` applies within
/// each phase (`None`: unbounded, a phase costs its slowest iteration).
///
/// `conflicts` must be sorted ascending and free of duplicates
/// (iteration indices, as `ConflictSet::iters` yields them). Returns
/// `None` (sequential) when conflicting iterations exceed
/// [`PDOALL_CONFLICT_LIMIT`] of the total.
#[must_use]
pub fn pdoall_cost(
    iter_lens: &[u64],
    conflicts: &[u32],
    forced_serial: bool,
    cores: Option<u32>,
) -> Option<u64> {
    if forced_serial || iter_lens.is_empty() {
        return None;
    }
    let n = iter_lens.len();
    if conflicts.len() as f64 > PDOALL_CONFLICT_LIMIT * n as f64 {
        return None;
    }
    // Each phase is the run of iterations from one conflict up to the next.
    let mut cost = 0u64;
    let mut phase_start = 0usize;
    for &k in conflicts {
        let k = k as usize;
        if k > phase_start && k < n {
            cost += wave_cost(&iter_lens[phase_start..k], cores);
            phase_start = k;
        }
    }
    Some(cost + wave_cost(&iter_lens[phase_start..], cores))
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
    iter_lens: &[u64],
    delta_largest: u64,
    forced_serial: bool,
    cores: Option<u32>,
) -> Option<u64> {
    if forced_serial || iter_lens.is_empty() {
        return None;
    }
    let Some(p) = cores else {
        let slowest = iter_lens.iter().copied().max().unwrap_or(0);
        return Some(slowest + delta_largest * iter_lens.len() as u64);
    };
    let p = p.max(1) as usize;
    let mut finish: Vec<u64> = Vec::with_capacity(iter_lens.len());
    let mut latest = 0u64;
    for (i, &len) in iter_lens.iter().enumerate() {
        let sync_ready = i as u64 * delta_largest;
        let core_ready = if i >= p { finish[i - p] } else { 0 };
        let start = sync_ready.max(core_ready);
        let f = start + len;
        finish.push(f);
        latest = latest.max(f);
    }
    Some(latest)
}

/// Dispatches `lens` in order over waves of `cores` (unbounded when
/// `None`): the cost of a conflict-free parallel region.
fn wave_cost(lens: &[u64], cores: Option<u32>) -> u64 {
    if lens.is_empty() {
        return 0;
    }
    match cores {
        None => lens.iter().copied().max().unwrap_or(0),
        Some(p) => {
            let p = p.max(1) as usize;
            lens.chunks(p)
                .map(|wave| wave.iter().copied().max().unwrap_or(0))
                .sum()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doall_takes_slowest_iteration() {
        assert_eq!(doall_cost(&[5, 9, 3], false, false, None), Some(9));
        assert_eq!(doall_cost(&[5, 9, 3], true, false, None), None);
        assert_eq!(doall_cost(&[5, 9, 3], false, true, None), None);
        assert_eq!(doall_cost(&[], false, false, None), None);
    }

    #[test]
    fn pdoall_no_conflicts_equals_doall() {
        let lens = [4u64, 7, 2, 6];
        assert_eq!(
            pdoall_cost(&lens, &[], false, None),
            doall_cost(&lens, false, false, None)
        );
    }

    #[test]
    fn pdoall_phases_add_up() {
        // Iterations of length 10 each; conflicts at iterations 2 and 4 of
        // 6 total: phases {0,1}, {2,3}, {4,5} -> 3 phases x 10.
        let lens = [10u64; 6];
        assert_eq!(pdoall_cost(&lens, &[2, 4], false, None), Some(30));
    }

    #[test]
    fn pdoall_conflict_at_first_tracked_iteration() {
        // A conflict at iteration 0 cannot happen (nothing older), but at
        // iteration 1 the first phase is just iteration 0.
        let lens = [5u64, 5, 5];
        assert_eq!(pdoall_cost(&lens, &[1], false, None), Some(10));
    }

    #[test]
    fn pdoall_eighty_percent_rule() {
        let lens = [1u64; 10];
        let conflicts: Vec<u32> = (1..=8).collect(); // exactly 80%: allowed
        assert!(pdoall_cost(&lens, &conflicts, false, None).is_some());
        let conflicts: Vec<u32> = (1..=9).collect(); // 90%: sequential
        assert_eq!(pdoall_cost(&lens, &conflicts, false, None), None);
    }

    #[test]
    fn pdoall_every_iteration_conflicting_degenerates_to_serial_sum() {
        // With conflicts on all of 1..n, each phase is one iteration: the
        // cost equals the serial sum (before the 80% rule would even fire
        // for small n). For n=3, 2 conflicts of 3 iterations = 66% < 80%.
        let lens = [7u64, 7, 7];
        assert_eq!(pdoall_cost(&lens, &[1, 2], false, None), Some(21));
    }

    #[test]
    fn helix_formula() {
        // slowest 9, delta 2, 4 iterations -> 9 + 8 = 17.
        assert_eq!(helix_cost(&[5, 9, 3, 7], 2, false, None), Some(17));
        assert_eq!(helix_cost(&[5, 9, 3, 7], 0, false, None), Some(9));
        assert_eq!(helix_cost(&[5, 9], 1, true, None), None);
    }

    #[test]
    fn bounded_doall_waves() {
        let lens = [3u64, 5, 2, 4, 1];
        // Unbounded: slowest iteration.
        assert_eq!(doall_cost(&lens, false, false, None), Some(5));
        // 2 cores: waves {3,5},{2,4},{1} -> 5 + 4 + 1.
        assert_eq!(doall_cost(&lens, false, false, Some(2)), Some(10));
        // 1 core: serial sum.
        assert_eq!(doall_cost(&lens, false, false, Some(1)), Some(15));
        // Enough cores == unbounded.
        assert_eq!(
            doall_cost(&lens, false, false, Some(8)),
            doall_cost(&lens, false, false, None)
        );
    }

    #[test]
    fn bounded_pdoall_phases_and_waves() {
        let lens = [10u64; 6];
        // conflict at 3: phases {0,1,2},{3,4,5}; with 2 cores each phase
        // is 2 waves of 10 -> 20; total 40.
        assert_eq!(pdoall_cost(&lens, &[3], false, Some(2)), Some(40));
        assert_eq!(pdoall_cost(&lens, &[3], false, None), Some(20));
    }

    #[test]
    fn bounded_helix_respects_sync_and_core_reuse() {
        let lens = [10u64; 8];
        // Unbounded: 10 + 2*8 = 26.
        assert_eq!(helix_cost(&lens, 2, false, None), Some(26));
        // With delta 2 and 2 cores: core reuse dominates.
        let two = helix_cost(&lens, 2, false, Some(2)).unwrap();
        assert!(two > 26, "2 cores must be slower: {two}");
        // With huge delta, cores don't matter (sync dominates); the exact
        // simulation is slightly tighter than the paper's closed formula
        // (`delta × n` vs `delta × (n−1) + last`), so bound, not equality.
        let sim = helix_cost(&lens, 100, false, Some(2)).unwrap();
        let formula = helix_cost(&lens, 100, false, None).unwrap();
        assert!(sim <= formula && sim >= formula - 100);
        // Monotone in cores.
        let p4 = helix_cost(&lens, 2, false, Some(4)).unwrap();
        assert!(p4 <= two);
    }

    #[test]
    fn helix_with_large_delta_exceeds_serial() {
        // The caller is responsible for comparing with serial; verify the
        // raw number grows past the serial sum.
        let lens = [10u64; 4];
        let cost = helix_cost(&lens, 20, false, None).unwrap();
        assert!(cost > lens.iter().sum::<u64>());
    }
}
