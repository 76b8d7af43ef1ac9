//! Ring wraparound under concurrent writers: once the flight recorder
//! has wrapped several times over, the dump must still be well-formed
//! JSON, the bookkeeping totals must be exact, and each writer's
//! retained records must form the *contiguous tail* of its own sequence
//! (the ring drops oldest-first, so no writer's history can have holes).

use lp_obs::export::JsonValue;
use lp_obs::journal::{EventKind, Journal, JournalRecord, JOURNAL_CAP};
use std::sync::{Arc, Barrier};

/// Writers and per-writer record count, chosen so the ring wraps twice.
const WRITERS: usize = 8;
const PER_WRITER: usize = JOURNAL_CAP / 4 * 3; // 8 * 3072 = 24576 >> 4096

#[test]
fn concurrent_writers_past_capacity_keep_the_dump_coherent() {
    let journal = Arc::new(Journal::with_capacity(JOURNAL_CAP));
    let start = Arc::new(Barrier::new(WRITERS));
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let journal = Arc::clone(&journal);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for seq in 0..PER_WRITER {
                    journal.record(JournalRecord {
                        ms: 0,
                        tid: w as u16,
                        kind: EventKind::SweepTaskDone,
                        a: seq as u64,
                        b: w as u64,
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer thread panicked");
    }

    let (total, records) = journal.snapshot();
    assert_eq!(total, (WRITERS * PER_WRITER) as u64);
    assert_eq!(records.len(), JOURNAL_CAP);

    // Per-writer coherence: eviction is strictly oldest-first in global
    // insertion order, and each writer's records enter in sequence
    // order — so whatever a writer still has must be a contiguous run
    // of its sequence numbers ending at its last write. (A writer that
    // finished long before the others may legitimately have nothing
    // left.) A hole or an out-of-order pair would mean the wraparound
    // dropped records from the middle instead of the front.
    let mut survivors = 0;
    for w in 0..WRITERS {
        let seqs: Vec<u64> = records
            .iter()
            .filter(|r| r.tid == w as u16)
            .map(|r| r.a)
            .collect();
        if seqs.is_empty() {
            continue;
        }
        survivors += 1;
        for pair in seqs.windows(2) {
            assert_eq!(pair[1], pair[0] + 1, "writer {w} has a hole: {pair:?}");
        }
        assert_eq!(
            *seqs.last().expect("non-empty"),
            (PER_WRITER - 1) as u64,
            "writer {w} lost its newest records"
        );
    }
    assert!(survivors >= 1, "a full ring must retain someone's records");

    // The dump must stay machine-readable and agree with the snapshot.
    let dump = journal.dump_json();
    let doc = JsonValue::parse(&dump).expect("dump is valid JSON");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("lp-journal-v1")
    );
    assert_eq!(
        doc.get("total_recorded").and_then(JsonValue::as_u64),
        Some(total)
    );
    assert_eq!(
        doc.get("retained").and_then(JsonValue::as_u64),
        Some(JOURNAL_CAP as u64)
    );
    let dumped = doc
        .get("records")
        .and_then(JsonValue::as_array)
        .expect("records array");
    assert_eq!(dumped.len(), JOURNAL_CAP);
    // Spot-check the dump preserves snapshot order record-for-record.
    for (rec, json) in records.iter().zip(dumped) {
        assert_eq!(
            json.get("tid").and_then(JsonValue::as_u64),
            Some(u64::from(rec.tid))
        );
        assert_eq!(json.get("a").and_then(JsonValue::as_u64), Some(rec.a));
    }
}

#[test]
fn exactly_full_ring_reports_every_record_once() {
    let journal = Journal::with_capacity(JOURNAL_CAP);
    for seq in 0..JOURNAL_CAP {
        journal.record(JournalRecord {
            ms: 0,
            tid: 0,
            kind: EventKind::SweepTaskDone,
            a: seq as u64,
            b: 0,
        });
    }
    let (total, records) = journal.snapshot();
    assert_eq!(total, JOURNAL_CAP as u64);
    let seqs: Vec<u64> = records.iter().map(|r| r.a).collect();
    assert_eq!(seqs, (0..JOURNAL_CAP as u64).collect::<Vec<_>>());
}
