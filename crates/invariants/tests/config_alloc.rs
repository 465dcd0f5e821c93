//! What a narrow `Config` costs the allocator — the planner's case: every
//! path step is a clone plus a small delta of a configuration no wider
//! than one chunk, and the plan cache holds nothing else. Building one is
//! one allocation; a clone is none; a delta that changes the value is one,
//! however many bits it changes; one that changes nothing is none.
//!
//! Hand mutations of `config.rs` this fails under (each was run): the
//! flat layout ending at 64 components or just short of 4 096 (a spine and
//! a chunk: two allocations and more); `from_ids` collecting its ids before
//! writing them.
//!
//! `Config::set_word` is how a search writes a node's words back into its
//! scratch configuration: a word written over storage of its own is no
//! allocation, and restating a word is none even on shared storage.
//! Mutations it fails under (each was run): `set_word` calling
//! `Arc::make_mut` before comparing the word (a restated word on a shared
//! buffer copies it); a chunked `set_word` copying every chunk.
//!
//! A binary of its own, each test counting on its own thread only: the
//! harness's other threads allocate when they please.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sada_expr::{oracle, CompId, Config};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell` with no destructor, so touching it neither allocates nor runs
// during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocator calls this thread makes while `f` runs.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

#[test]
fn a_narrow_configuration_is_one_allocation_and_so_is_a_delta_on_a_clone() {
    let id = CompId::from_index;
    for width in [7, 64, 65, 4_096] {
        let ids = [id(0), id(width / 2), id(width - 1)];
        let (n, base) = allocs_in(|| Config::from_ids(width, ids));
        assert_eq!(n, 1, "from_ids at width {width}");
        assert_eq!(allocs_in(|| Config::empty(width)).0, 1, "empty at width {width}");

        let (n, mut next) = allocs_in(|| base.clone());
        assert_eq!(n, 0, "clone at width {width}");
        let restate = allocs_in(|| next.apply_delta(&[id(1)], &[id(0)])).0;
        assert_eq!(restate, 0, "a delta that changes nothing, width {width}");
        let flip = allocs_in(|| next.apply_delta(&[id(0), id(width - 1)], &[id(1), id(2)])).0;
        assert_eq!(flip, 1, "a four-bit delta on a shared buffer, width {width}");
        assert_eq!(allocs_in(|| next.insert(id(4))).0, 0, "the buffer is now its own");
        assert_eq!(base.len(), 3, "and the original never saw either write");
    }
}

#[test]
fn set_word_copies_shared_storage_once_and_a_restated_word_never() {
    let id = CompId::from_index;
    for width in [130, 8_200] {
        let base = Config::from_ids(width, [id(1), id(64), id(width - 1)]);
        let mut scratch = base.clone();
        assert_eq!(allocs_in(|| scratch.set_word(1, 1)).0, 0, "a restated word, width {width}");
        assert!(oracle::shares_storage(&scratch, &base));
        // Flat: the buffer; chunked: the spine and the one chunk written.
        let first_write = if width > 4_096 { 2 } else { 1 };
        assert_eq!(allocs_in(|| scratch.set_word(1, 0b110)).0, first_write, "width {width}");
        assert_eq!(allocs_in(|| scratch.set_word(0, 1 << 9)).0, 0, "now its own, width {width}");
        assert_eq!(scratch.iter().collect::<Vec<_>>(), [id(9), id(65), id(66), id(width - 1)]);
        assert_eq!(oracle::shared_chunks(&scratch, &base), width.div_ceil(4_096) - 1);
        assert_eq!(base.len(), 3, "the original never saw a write");
    }
}
