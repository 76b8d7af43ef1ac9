//! Flat, paged, word-granular memory.
//!
//! The address space is split into three regions so the run-time component
//! can distinguish access classes:
//!
//! - **globals** at [`GLOBAL_BASE`] — statically laid out at machine
//!   construction;
//! - **heap** at [`HEAP_BASE`] — bump-allocated by `malloc` (free is a
//!   no-op, as in many real allocators' fast paths; addresses are never
//!   reused, which keeps heap conflict tracking exact);
//! - **stack** at [`STACK_BASE`] — LIFO frames that *do* reuse addresses
//!   across calls, which is precisely the structural call-stack hazard of
//!   paper §II-E.
//!
//! All accesses are 8-byte words; unaligned or null-page accesses trap.
//!
//! # Hot-path layout
//!
//! Every dynamic load and store resolves an address here, so the page
//! lookup must not hash (see DESIGN.md §10). A [`PageTable`] keeps its
//! pages in an arena (`Vec<Box<[T; 512]>>`) and locates them through a
//! **two-level page directory**: the bounded dense directory covers every
//! page below 4 GiB — which contains all three allocator regions — with
//! two array indexes, and a small Fx-hashed fallback map catches
//! anything above it (e.g. synthetic function-pointer addresses). Every
//! lookup walks the directory; lookups mutate nothing, so reads take
//! `&self`. [`Memory`] is a `PageTable<u64>`; so are the profiler's
//! last-writer shadow memory (a store time per word) and its stack-push
//! times, and the independence witness keeps a `PageTable` of word
//! records per nesting level.

use crate::{InterpError, Result};
use lp_ir::fx::FxHashMap;

/// Base address of the globals region.
pub const GLOBAL_BASE: u64 = 0x1000_0000;
/// Base address of the heap region.
pub const HEAP_BASE: u64 = 0x4000_0000;
/// Base address of the stack region.
pub const STACK_BASE: u64 = 0x8000_0000;

const PAGE_WORDS: usize = 512;
const PAGE_BYTES: u64 = (PAGE_WORDS as u64) * 8;

/// Pages per second-level directory node (and the number of first-level
/// slots), giving `1024 × 1024` directly mapped pages.
const L2_LEN: usize = 1024;
const L2_BITS: u64 = 10;
const L2_MASK: u64 = (L2_LEN as u64) - 1;

/// First page number outside the dense directory (addresses ≥ 4 GiB).
/// Globals, heap, and stack all start well below this; only synthetic
/// far pointers (function addresses) fall through to the fallback map.
const DIRECT_LIMIT: u64 = (L2_LEN as u64) * (L2_LEN as u64);

/// Sentinel directory entry: page not allocated.
const NO_PAGE: u32 = u32::MAX;

/// A sparse map from 8-byte-aligned addresses to one `T` per word.
///
/// Unwritten words read as the `empty` value given to
/// [`PageTable::new`]; a write allocates its 4 KiB page of address space
/// on first touch. The table traps nothing: an address names the word
/// that contains it, and [`Memory`] rejects null and unaligned addresses
/// before they reach its table.
#[derive(Debug, Clone)]
pub struct PageTable<T: Copy> {
    /// Page arena; directory entries hold indexes into it, so growing
    /// the arena never invalidates a directory entry.
    pages: Vec<Box<[T; PAGE_WORDS]>>,
    /// First directory level, densely covering pages `0..DIRECT_LIMIT`.
    l1: Vec<Option<Box<[u32; L2_LEN]>>>,
    /// Fallback for pages at or above [`DIRECT_LIMIT`].
    far: FxHashMap<u64, u32>,
    empty: T,
}

impl<T: Copy> PageTable<T> {
    /// An empty table whose every word reads as `empty`.
    #[must_use]
    pub fn new(empty: T) -> PageTable<T> {
        let mut l1 = Vec::new();
        l1.resize_with(L2_LEN, || None);
        PageTable {
            pages: Vec::new(),
            l1,
            far: FxHashMap::default(),
            empty,
        }
    }

    /// Resolves `page` to its arena index, or `None` if unallocated.
    #[inline]
    fn lookup(&self, page: u64) -> Option<u32> {
        let idx = if page < DIRECT_LIMIT {
            match &self.l1[(page >> L2_BITS) as usize] {
                Some(l2) => l2[(page & L2_MASK) as usize],
                None => NO_PAGE,
            }
        } else {
            self.far.get(&page).copied().unwrap_or(NO_PAGE)
        };
        (idx != NO_PAGE).then_some(idx)
    }

    /// As [`PageTable::lookup`], allocating the page if absent.
    #[inline]
    fn lookup_or_alloc(&mut self, page: u64) -> u32 {
        if let Some(idx) = self.lookup(page) {
            return idx;
        }
        let idx = self.pages.len() as u32;
        assert!(idx != NO_PAGE, "page arena exhausted");
        self.pages.push(Box::new([self.empty; PAGE_WORDS]));
        if page < DIRECT_LIMIT {
            let l2 = self.l1[(page >> L2_BITS) as usize]
                .get_or_insert_with(|| Box::new([NO_PAGE; L2_LEN]));
            l2[(page & L2_MASK) as usize] = idx;
        } else {
            self.far.insert(page, idx);
        }
        idx
    }

    /// The word at `addr`, or `empty` if it was never written.
    #[inline]
    pub fn get(&self, addr: u64) -> T {
        let slot = ((addr % PAGE_BYTES) / 8) as usize;
        match self.lookup(addr / PAGE_BYTES) {
            Some(idx) => self.pages[idx as usize][slot],
            None => self.empty,
        }
    }

    /// Stores `v` at `addr`, allocating its page if absent.
    ///
    /// # Panics
    /// Panics when the arena already holds `u32::MAX` pages.
    #[inline]
    pub fn set(&mut self, addr: u64, v: T) {
        let slot = ((addr % PAGE_BYTES) / 8) as usize;
        let idx = self.lookup_or_alloc(addr / PAGE_BYTES);
        self.pages[idx as usize][slot] = v;
    }

    /// Page numbers of every allocated page, in no particular order.
    fn allocated_pages(&self) -> impl Iterator<Item = u64> + '_ {
        let dense = self.l1.iter().enumerate().flat_map(|(hi, l2)| {
            l2.iter().flat_map(move |l2| {
                l2.iter().enumerate().filter_map(move |(lo, &idx)| {
                    (idx != NO_PAGE).then_some(((hi as u64) << L2_BITS) | lo as u64)
                })
            })
        });
        dense.chain(self.far.keys().copied())
    }

    /// Pages allocated so far.
    #[must_use]
    pub fn pages(&self) -> u64 {
        self.pages.len() as u64
    }
}

/// Paged word memory with region allocators.
#[derive(Debug, Clone)]
pub struct Memory {
    table: PageTable<u64>,
    heap_top: u64,
    stack_top: u64,
    /// When armed, every successful [`Memory::write`] appends
    /// `(addr, word)` here in program order. Replay workers run on a
    /// clone of the parent memory with the log enabled, so the log *is*
    /// the chunk's memory delta and can be re-applied deterministically.
    write_log: Option<Vec<(u64, u64)>>,
}

impl Default for Memory {
    fn default() -> Memory {
        Memory::new()
    }
}

impl Memory {
    /// An empty memory with both allocators at their region bases.
    #[must_use]
    pub fn new() -> Memory {
        Memory {
            table: PageTable::new(0),
            heap_top: HEAP_BASE,
            stack_top: STACK_BASE,
            write_log: None,
        }
    }

    /// Starts recording every subsequent write into the delta log,
    /// discarding any previously recorded entries.
    pub fn enable_write_log(&mut self) {
        self.write_log = Some(Vec::new());
    }

    /// Stops logging and returns the recorded `(addr, word)` writes in
    /// program order. Returns an empty log if logging was never enabled.
    pub fn take_write_log(&mut self) -> Vec<(u64, u64)> {
        self.write_log.take().unwrap_or_default()
    }

    fn check(addr: u64) -> Result<()> {
        if addr < 0x1000 {
            return Err(InterpError::NullDeref(addr));
        }
        if !addr.is_multiple_of(8) {
            return Err(InterpError::Unaligned(addr));
        }
        Ok(())
    }

    /// Reads the word at `addr`.
    ///
    /// # Errors
    /// Traps on unaligned or null-page addresses. Unwritten words read as
    /// zero.
    pub fn read(&self, addr: u64) -> Result<u64> {
        Self::check(addr)?;
        Ok(self.table.get(addr))
    }

    /// Writes the word at `addr`.
    ///
    /// # Errors
    /// Traps on unaligned or null-page addresses.
    pub fn write(&mut self, addr: u64, word: u64) -> Result<()> {
        Self::check(addr)?;
        self.table.set(addr, word);
        if let Some(log) = &mut self.write_log {
            log.push((addr, word));
        }
        Ok(())
    }

    /// Compares the global and heap regions of two memories word by
    /// word, returning the first differing `(addr, self_word, other_word)`
    /// in address order, or `None` when byte-identical. Unallocated
    /// pages read as zero on either side; the stack region is excluded
    /// (frames are dead after the run and reuse addresses freely).
    ///
    /// This is the replay engine's divergence oracle: a parallel replay
    /// is correct iff its final image is identical to the serial run's.
    #[must_use]
    pub fn first_difference(&self, other: &Memory) -> Option<(u64, u64, u64)> {
        let (a, b) = (&self.table, &other.table);
        let mut pages: Vec<u64> = a
            .allocated_pages()
            .chain(b.allocated_pages())
            .filter(|&p| p * PAGE_BYTES < STACK_BASE)
            .collect();
        pages.sort_unstable();
        pages.dedup();
        for page in pages {
            let ia = a.lookup(page);
            let ib = b.lookup(page);
            for slot in 0..PAGE_WORDS {
                let wa = ia.map_or(0, |idx| a.pages[idx as usize][slot]);
                let wb = ib.map_or(0, |idx| b.pages[idx as usize][slot]);
                if wa != wb {
                    return Some((page * PAGE_BYTES + (slot as u64) * 8, wa, wb));
                }
            }
        }
        None
    }

    /// Pages of memory allocated so far.
    #[must_use]
    pub fn pages(&self) -> u64 {
        self.table.pages()
    }

    /// Bump-allocates `bytes` on the heap (rounded up to whole words),
    /// returning the base address. Zero-byte allocations return a unique,
    /// valid address.
    pub fn heap_alloc(&mut self, bytes: u64) -> u64 {
        let words = bytes.div_ceil(8).max(1);
        let base = self.heap_top;
        self.heap_top += words * 8;
        base
    }

    /// Current top of the stack region.
    #[must_use]
    pub fn stack_top(&self) -> u64 {
        self.stack_top
    }

    /// Pushes `words` stack slots, returning the base address of the new
    /// allocation. Used for `alloca`.
    pub fn stack_alloc(&mut self, words: u64) -> u64 {
        let base = self.stack_top;
        self.stack_top += words * 8;
        base
    }

    /// Pops the stack back to `mark` (a value previously returned by
    /// [`Memory::stack_top`]). Addresses above the mark become reusable —
    /// deliberately *without* clearing their contents, mirroring a real
    /// call stack.
    pub fn stack_release(&mut self, mark: u64) {
        debug_assert!(mark <= self.stack_top);
        self.stack_top = mark;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut m = Memory::new();
        m.write(GLOBAL_BASE, 0xDEAD).unwrap();
        assert_eq!(m.read(GLOBAL_BASE).unwrap(), 0xDEAD);
        assert_eq!(m.read(GLOBAL_BASE + 8).unwrap(), 0, "unwritten reads zero");
    }

    #[test]
    fn traps() {
        let mut m = Memory::new();
        assert_eq!(m.read(0), Err(InterpError::NullDeref(0)));
        assert_eq!(
            m.read(GLOBAL_BASE + 4),
            Err(InterpError::Unaligned(GLOBAL_BASE + 4))
        );
        assert_eq!(m.write(12, 1), Err(InterpError::NullDeref(12)));
    }

    #[test]
    fn heap_never_reuses() {
        let mut m = Memory::new();
        let a = m.heap_alloc(16);
        let b = m.heap_alloc(0);
        let c = m.heap_alloc(1);
        assert!(a < b && b < c);
        assert_eq!(a % 8, 0);
    }

    #[test]
    fn stack_is_lifo_and_reuses_addresses() {
        let mut m = Memory::new();
        let mark = m.stack_top();
        let a = m.stack_alloc(4);
        m.write(a, 7).unwrap();
        m.stack_release(mark);
        let b = m.stack_alloc(4);
        assert_eq!(a, b, "released stack slots are reused");
        assert_eq!(m.read(b).unwrap(), 7, "contents are not cleared");
    }

    #[test]
    fn cross_page_writes() {
        let mut m = Memory::new();
        let base = HEAP_BASE + PAGE_BYTES - 8;
        m.write(base, 1).unwrap();
        m.write(base + 8, 2).unwrap();
        assert_eq!(m.read(base).unwrap(), 1);
        assert_eq!(m.read(base + 8).unwrap(), 2);
    }

    #[test]
    fn write_log_records_in_program_order() {
        let mut m = Memory::new();
        m.write(GLOBAL_BASE, 1).unwrap(); // not logged
        m.enable_write_log();
        m.write(GLOBAL_BASE + 8, 2).unwrap();
        m.write(GLOBAL_BASE, 3).unwrap();
        let log = m.take_write_log();
        assert_eq!(log, vec![(GLOBAL_BASE + 8, 2), (GLOBAL_BASE, 3)]);
        // Taking the log disarms it.
        m.write(GLOBAL_BASE + 16, 4).unwrap();
        assert!(m.take_write_log().is_empty());
    }

    #[test]
    fn first_difference_finds_lowest_divergent_address() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        a.write(GLOBAL_BASE, 1).unwrap();
        b.write(GLOBAL_BASE, 1).unwrap();
        assert_eq!(a.first_difference(&b), None);
        b.write(HEAP_BASE + 24, 9).unwrap();
        b.write(GLOBAL_BASE + 8, 5).unwrap();
        assert_eq!(
            a.first_difference(&b),
            Some((GLOBAL_BASE + 8, 0, 5)),
            "lowest differing address wins even against unallocated pages"
        );
        // Stack divergence is ignored: frames are dead after the run.
        let mut c = a.clone();
        c.write(STACK_BASE + 64, 77).unwrap();
        b.write(GLOBAL_BASE + 8, 0).unwrap();
        b.write(HEAP_BASE + 24, 0).unwrap();
        assert_eq!(a.first_difference(&c), None);
    }

    #[test]
    fn clone_is_independent() {
        let mut a = Memory::new();
        a.write(HEAP_BASE, 11).unwrap();
        let mut b = a.clone();
        b.write(HEAP_BASE, 22).unwrap();
        assert_eq!(a.read(HEAP_BASE).unwrap(), 11);
        assert_eq!(b.read(HEAP_BASE).unwrap(), 22);
    }

    /// Every `PageTable` contract, checked for one element type: unwritten
    /// words read `empty`, reads allocate nothing, far pages round-trip
    /// through the map, pages `p` and `p + 8` keep their own values, and
    /// `pages` counts exactly.
    fn exercise_page_table<T: Copy + PartialEq + std::fmt::Debug>(empty: T, val: fn(u64) -> T) {
        let mut t = PageTable::new(empty);
        assert_eq!(t.get(GLOBAL_BASE), empty, "unallocated page");
        assert_eq!(t.pages(), 0, "reading an unwritten word allocates no page");
        t.set(GLOBAL_BASE, val(3));
        t.set(GLOBAL_BASE, val(9));
        assert_eq!(t.get(GLOBAL_BASE), val(9));
        assert_eq!(t.get(GLOBAL_BASE + 8), empty, "unwritten word");
        assert_eq!(t.get(GLOBAL_BASE + PAGE_BYTES), empty);
        assert_eq!(t.pages(), 1);

        // The last dense page, the first far page (4 GiB), and a
        // synthetic function-pointer-like address far above both.
        let last_dense = DIRECT_LIMIT * PAGE_BYTES - 8;
        let first_far = DIRECT_LIMIT * PAGE_BYTES;
        let fn_ptr = 0xF000_0000_0000u64 | 0x18;
        t.set(last_dense, val(1));
        t.set(first_far, val(2));
        t.set(fn_ptr, val(3));
        assert_eq!(t.far.len(), 2, "only pages at or above 4 GiB go to the map");
        assert_eq!(t.get(fn_ptr + 8), empty);
        assert_eq!(t.get(last_dense), val(1));
        assert_eq!(t.get(first_far), val(2));
        assert_eq!(t.get(fn_ptr), val(3));
        assert_eq!(t.pages(), 4);

        // Pages p and p + 8, read alternately, keep their own values.
        let (a, b) = (HEAP_BASE, HEAP_BASE + 8 * PAGE_BYTES);
        t.set(a, val(4));
        t.set(b, val(5));
        for _ in 0..4 {
            assert_eq!(t.get(a), val(4));
            assert_eq!(t.get(b), val(5));
        }
        assert_eq!(t.pages(), 6);
    }

    #[test]
    fn page_table_of_words() {
        exercise_page_table(0u64, |i| i + 1);
    }

    /// A two-word record per word, as the independence witness keeps,
    /// with `u64::MAX` as the empty time.
    #[test]
    fn page_table_of_stamps() {
        exercise_page_table((u64::MAX, 0u64), |i| (i, 3 * i));
    }
}
