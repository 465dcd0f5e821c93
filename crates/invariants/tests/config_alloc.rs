//! What a narrow `Config` costs the allocator — the planner's case: every
//! search node is a clone plus a small delta of a configuration no wider
//! than one chunk, and the arena, the heap and the plan cache hold nothing
//! else. Building one is one allocation; a clone is none; a delta that
//! changes the value is one, however many bits it changes; one that
//! changes nothing is none.
//!
//! Hand mutations of `config.rs` this fails under (each was run): the
//! flat layout ending at 64 components or just short of 4 096 (a spine and
//! a chunk: two allocations and more); `from_ids` collecting its ids before
//! writing them.
//!
//! `Config::assign` is the search's other half: overwriting a buffer nobody
//! else reads is no allocation at all, and everything else is the clone it
//! always was. Mutations it fails under (each was run): `assign` always
//! cloning (the unique case shares storage); `assign` copying into a
//! buffer a clone still reads through `Arc::make_mut` (an allocation where
//! a handle copy does).
//!
//! A binary of its own, each test counting on its own thread only: the
//! harness's other threads allocate when they please.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use sada_expr::{CompId, Config};

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
fn assign_overwrites_a_buffer_of_its_own_and_clones_otherwise() {
    let id = CompId::from_index;
    let hash_of = |cfg: &Config| {
        let mut h = DefaultHasher::new();
        cfg.hash(&mut h);
        h.finish()
    };
    let from = Config::from_ids(130, [id(1), id(64), id(129)]);

    // Unique, same flat width: the words are copied over, nothing is shared.
    let mut own = Config::from_ids(130, [id(0), id(128)]);
    assert_eq!(allocs_in(|| own.assign(&from)).0, 0, "a buffer of its own is reused");
    assert!(!Config::shares_storage(&own, &from));
    assert_eq!((&own, hash_of(&own)), (&from, hash_of(&from)));
    assert_eq!(allocs_in(|| own.insert(id(2))).0, 0, "and stays its own");
    assert!(!from.contains(id(2)));

    // A buffer a clone still reads is left to the clone.
    let mut shared = Config::from_ids(130, [id(7)]);
    let sibling = shared.clone();
    assert_eq!(allocs_in(|| shared.assign(&from)).0, 0, "a handle copy");
    assert!(Config::shares_storage(&shared, &from));
    assert_eq!(sibling, Config::from_ids(130, [id(7)]), "the sibling never saw the write");

    // Another width, and the chunked layout on either side: handle copies.
    let wide = Config::from_ids(8_200, [id(5), id(8_199)]);
    let cases = [
        (Config::empty(64), &from),
        (Config::empty(130), &wide),
        (Config::empty(8_200), &from),
        (Config::from_ids(8_200, [id(4_100)]), &wide),
    ];
    for (mut target, from) in cases {
        let was = target.width();
        assert_eq!(allocs_in(|| target.assign(from)).0, 0, "width {was} <- {}", from.width());
        assert!(Config::shares_storage(&target, from), "width {was} <- {}", from.width());
        assert_eq!((&target, hash_of(&target)), (from, hash_of(from)));
    }
}
