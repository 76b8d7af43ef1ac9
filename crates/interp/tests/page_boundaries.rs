//! Page-boundary behavior of the paged memory: accesses that land on the
//! last/first words of adjacent pages, unaligned addresses that would
//! straddle a boundary, far-region pages behind the fallback map, and
//! exact page allocation on cross-page access patterns.
//!
//! The geometry constant mirrors `memory.rs` (512-word / 4096-byte
//! pages); the page counts pin that layout on purpose — they are the
//! contract DESIGN.md §10 documents.

use lp_interp::{InterpError, Memory, GLOBAL_BASE, HEAP_BASE, STACK_BASE};

const PAGE_BYTES: u64 = 4096;

#[test]
fn last_and_first_words_of_adjacent_pages_are_distinct() {
    let mut mem = Memory::new();
    // GLOBAL_BASE is page-aligned, so `boundary` is the first byte of
    // the second page and `boundary - 8` the last word of the first.
    let boundary = GLOBAL_BASE + PAGE_BYTES;
    mem.write(boundary - 8, 0xAAAA).unwrap();
    mem.write(boundary, 0xBBBB).unwrap();
    assert_eq!(mem.read(boundary - 8).unwrap(), 0xAAAA);
    assert_eq!(mem.read(boundary).unwrap(), 0xBBBB);
    // Two pages were materialized, not one.
    assert_eq!(mem.pages(), 2);
}

#[test]
fn unaligned_accesses_trap_including_page_straddlers() {
    let mut mem = Memory::new();
    // An x86-style 8-byte access at page_end - 4 would straddle two
    // pages; the word-granular model rejects it as unaligned instead.
    let straddler = GLOBAL_BASE + PAGE_BYTES - 4;
    assert_eq!(
        mem.write(straddler, 1),
        Err(InterpError::Unaligned(straddler))
    );
    assert_eq!(mem.read(straddler), Err(InterpError::Unaligned(straddler)));
    // Every non-multiple-of-8 offset traps, not just the straddling one.
    for off in [1, 2, 3, 5, 7] {
        let addr = HEAP_BASE + off;
        assert_eq!(mem.read(addr), Err(InterpError::Unaligned(addr)));
    }
    // Nothing was allocated by the rejected accesses.
    assert_eq!(mem.pages(), 0);
}

#[test]
fn unwritten_words_of_a_partially_written_page_read_zero() {
    let mut mem = Memory::new();
    mem.write(STACK_BASE + 8, 7).unwrap();
    // Same page, different word: zero. Next page, never written: zero
    // without allocating.
    assert_eq!(mem.read(STACK_BASE).unwrap(), 0);
    assert_eq!(mem.read(STACK_BASE + PAGE_BYTES).unwrap(), 0);
    assert_eq!(mem.pages(), 1);
}

#[test]
fn sequential_walk_allocates_each_page_once() {
    let mut mem = Memory::new();
    let pages = 5u64;
    for w in 0..(pages * PAGE_BYTES / 8) {
        mem.write(HEAP_BASE + w * 8, w).unwrap();
    }
    assert_eq!(mem.pages(), pages);
    for w in 0..(pages * PAGE_BYTES / 8) {
        assert_eq!(mem.read(HEAP_BASE + w * 8).unwrap(), w);
    }
    assert_eq!(mem.pages(), pages);
}

#[test]
fn alternating_pages_keep_their_own_values() {
    // Adjacent pages, and pages p and p+8 with none touched between.
    for gap in [1, 8] {
        let mut mem = Memory::new();
        let a = HEAP_BASE;
        let b = HEAP_BASE + gap * PAGE_BYTES;
        mem.write(a, 1).unwrap();
        mem.write(b, 2).unwrap();
        for _ in 0..100 {
            assert_eq!(mem.read(a).unwrap(), 1);
            assert_eq!(mem.read(b).unwrap(), 2);
        }
        assert_eq!(mem.pages(), 2, "gap {gap}");
    }
}

#[test]
fn far_pages_round_trip_through_the_fallback_map() {
    let mut mem = Memory::new();
    // Function-pointer-region addresses sit far above the dense
    // directory's 4 GiB coverage and take the hashed fallback path.
    let far = 0xF000_0000_0000u64 | 0x10;
    mem.write(far, 0xDEAD).unwrap();
    assert_eq!(mem.read(far).unwrap(), 0xDEAD);
    // A boundary-adjacent far page is a distinct allocation.
    let far2 = far + PAGE_BYTES;
    assert_eq!(mem.read(far2).unwrap(), 0);
    mem.write(far2, 0xBEEF).unwrap();
    assert_eq!(mem.read(far).unwrap(), 0xDEAD);
    assert_eq!(mem.read(far2).unwrap(), 0xBEEF);
    assert_eq!(mem.pages(), 2);
}

#[test]
fn reading_unwritten_words_allocates_no_page() {
    let mem = Memory::new();
    // Globals, heap, stack, both sides of a page boundary, and a far
    // function-pointer-region address: every one reads zero.
    let boundary = GLOBAL_BASE + PAGE_BYTES;
    let far = 0xF000_0000_0000u64 | 0x10;
    for addr in [boundary - 8, boundary, HEAP_BASE, STACK_BASE + 8, far] {
        assert_eq!(mem.read(addr).unwrap(), 0);
    }
    assert_eq!(mem.pages(), 0);
}
