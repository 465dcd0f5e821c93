//! The reference search that tests and benchmarks compare the production
//! [`Search`] against. Not part of the planning API.

use std::sync::Arc;

use sada_expr::InvariantSet;

use crate::action::Action;
use crate::lazy::{Mode, Search};

/// The pre-compilation search — full tree-walked invariant checks and a
/// linear action scan — on the identical search skeleton. Candidate
/// generation, tie-breaking and results match [`Search::new`] exactly; only
/// the per-candidate work differs. This is the "before" leg of
/// `bench_planning` and the oracle for equivalence tests.
pub fn tree_walk_search(inv: &InvariantSet, actions: &[Action], width: usize) -> Search {
    Search::build(inv, Arc::from(actions), width, Mode::TreeWalk(inv.clone()))
}
