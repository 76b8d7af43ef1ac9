//! The flight recorder sees a parallel phase while it runs: every
//! `parallel_map` worker journals each finished task at once, so a dump
//! cut by a panic or a hang in the middle of a phase still shows how far
//! it got.

use lp_obs::EventKind;
use lp_runtime::{parallel_map, Jobs};

const ITEMS: u64 = 37;

/// `SweepTaskDone` records of a 37-task phase in the global journal.
fn task_done_records() -> usize {
    let (_, records) = lp_obs::journal::global().snapshot();
    records
        .iter()
        .filter(|r| r.kind == EventKind::SweepTaskDone && r.b == ITEMS)
        .count()
}

#[test]
fn finished_tasks_are_journaled_while_the_phase_runs() {
    let items: Vec<u64> = (0..ITEMS).collect();
    let seen = parallel_map(&items, Jobs::new(2), |i, _| {
        (i as u64 == ITEMS - 1).then(task_done_records)
    });
    // Of the 36 earlier tasks, only the other worker's current one can
    // still be in flight when a worker claims the last index.
    let seen = seen.into_iter().flatten().next().expect("last index ran");
    assert!(
        seen >= 35,
        "only {seen} task(s) journaled before the last one"
    );
    assert_eq!(task_done_records(), ITEMS as usize);
}
