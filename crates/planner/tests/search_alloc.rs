//! What a lazy search costs the allocator: a query pays for a node when it
//! *discovers* one — one buffer, three growing tables — not for every
//! candidate it looks at. One scratch successor per query is overwritten
//! candidate after candidate (`Config::assign` + `Action::apply_to`), and
//! only a candidate the arena has never seen gives its buffer away.
//!
//! Hand mutations of `lazy.rs` / `config.rs` these fail under (each was
//! run): `search` building each candidate with `Action::apply` (one buffer
//! per candidate: 19 000 allocations and more); `Config::assign` always
//! cloning (the same); `assign` rebuilding a chunked configuration from
//! `from`'s components instead of copying the handle (the scoped plan's
//! steps share no chunk with the caller's source).
//!
//! A binary of its own, each test counting on its own thread only: the
//! harness's other threads allocate when they please.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sada_expr::{oracle, CompId, Config, InvariantSet, Universe};
use sada_plan::{Action, Search};

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

/// `groups` independent `one_of(Old, New)` pairs with a flip action each
/// way at cost 1 (what `sada_bench::grouped_flip_workload` builds), every
/// group booted at `Old`.
fn grouped_flip(groups: usize) -> (Universe, InvariantSet, Vec<Action>, Config) {
    let mut u = Universe::with_capacity(2 * groups);
    let mut actions = Vec::with_capacity(2 * groups);
    for g in 0..groups {
        let old = u.intern(&format!("Old{g}"));
        let new = u.intern(&format!("New{g}"));
        let id = 2 * g as u32;
        actions.push(Action::from_ids(id, &format!("fwd{g}"), [old], [new], 1));
        actions.push(Action::from_ids(id + 1, &format!("back{g}"), [new], [old], 1));
    }
    let sources: Vec<String> = (0..groups).map(|g| format!("one_of(Old{g}, New{g})")).collect();
    let sources: Vec<&str> = sources.iter().map(String::as_str).collect();
    let inv = InvariantSet::parse(&sources, &mut u).expect("generated invariants parse");
    let boot = Config::from_ids(u.len(), (0..groups).map(|g| actions[2 * g].removes()[0]));
    (u, inv, actions, boot)
}

/// `from` with `groups` flipped forward.
fn flipped(from: &Config, actions: &[Action], groups: impl IntoIterator<Item = usize>) -> Config {
    groups.into_iter().fold(from.clone(), |cfg, g| actions[2 * g].apply(&cfg))
}

/// Allocations one uniform-cost query over the 24-component workload may
/// make: 1 586 expansions discover about 2 500 nodes, each one buffer, and
/// the arena's tables, its map and the heap grow by doubling. Measured
/// 2 567; building a buffer per candidate is 19 032 and more.
const UCS_24_ALLOC_CEILING: u64 = 3_000;

#[test]
fn a_query_allocates_per_discovered_node_not_per_candidate() {
    let (u, inv, actions, src) = grouped_flip(12);
    let dst = flipped(&src, &actions, 0..6);
    let search = Search::new(&inv, &actions, u.len());
    let (first, (path, stats)) = allocs_in(|| search.plan(&src, &dst));
    assert_eq!(path.expect("six flips away").len(), 6);
    assert_eq!((stats.generated, stats.expanded), (19_032, 1_586), "the workload the pin is for");
    assert!(
        first < UCS_24_ALLOC_CEILING,
        "{first} allocations for {} candidates (ceiling {UCS_24_ALLOC_CEILING})",
        stats.generated
    );
    let (second, _) = allocs_in(|| search.plan(&src, &dst));
    assert_eq!(second, first, "the same query allocates the same number of times");
}

#[test]
fn a_scoped_plan_over_a_wide_world_shares_its_chunks_with_the_callers_source() {
    // 8 400 components are three chunks behind a spine; groups 1 and 2 050
    // live in the first and the second.
    let (u, inv, actions, src) = grouped_flip(4_200);
    let chunks = u.len().div_ceil(4_096);
    assert_eq!(chunks, 3);
    let dst = flipped(&src, &actions, [1, 2_050]);
    let search = Search::new(&inv, &actions, u.len());
    let mut scope: Vec<CompId> =
        [1, 2_050].iter().flat_map(|&g| actions[2 * g].touched().iter().copied()).collect();
    scope.sort_unstable();
    let (path, _) = search.plan_scoped(&src, &dst, &search.scoped_action_ixs(&scope));
    let path = path.expect("two flips away");
    assert_eq!(path.len(), 2);
    assert!(oracle::shares_storage(&path.steps[0].from, &src), "the caller's own spine");
    assert!(oracle::shares_storage(&path.steps[1].to, &dst));
    // One flipped group is one copied chunk, the second another.
    assert_eq!(oracle::shared_chunks(&path.steps[0].to, &src), chunks - 1);
    assert_eq!(oracle::shared_chunks(&path.steps[1].to, &src), chunks - 2);
}
