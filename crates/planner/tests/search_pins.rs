//! What the lazy search returns, pinned: for each query, one FNV-1a over
//! the path (every step's action id and cost, then the total; a marker
//! when there is none) and over every [`LazyStats`] field. Any change to
//! candidate order, tie-breaking, the node store or the counters moves a
//! pin; a change to how a node is stored must move none.
//!
//! The queries: uniform-cost and A* over grouped flips at 24 and 32
//! components, the tree-walk oracle at 16, scoped plans over a world of
//! three chunks (8 400 components), a scoped target the scoped actions
//! cannot reach, a scoped query with no actions, and a uniform-cost query
//! whose endpoints differ in width.
//!
//! The backward half of the scoped-plans pin was re-captured once, when
//! the search took eager Dijkstra's tie rule: its two groups now flip back
//! in component order, group 2 050 first.

use sada_expr::{CompId, Config, InvariantSet, Universe};
use sada_plan::{Action, LazyStats, Path, Search};

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in words.into_iter().flat_map(u64::to_le_bytes) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The pin of one query's result.
fn pin((path, stats): &(Option<Path>, LazyStats)) -> u64 {
    let path_words: Vec<u64> = match path {
        Some(p) => {
            p.steps.iter().flat_map(|s| [u64::from(s.action.0), s.cost]).chain([p.cost]).collect()
        }
        None => vec![u64::MAX],
    };
    let LazyStats { expanded, generated, safety_checks, pred_evals, probed } = *stats;
    fnv1a(path_words.into_iter().chain([expanded, generated, safety_checks, pred_evals, probed]))
}

/// `groups` independent `one_of(Old, New)` pairs with a flip action each
/// way at cost 1, every group booted at `Old`.
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

/// The sorted components of `groups`.
fn scope_of(actions: &[Action], groups: &[usize]) -> Vec<CompId> {
    let mut scope: Vec<CompId> =
        groups.iter().flat_map(|&g| actions[2 * g].touched().iter().copied()).collect();
    scope.sort_unstable();
    scope
}

#[test]
fn uniform_cost_and_a_star_over_grouped_flips() {
    let want = [
        (24, 0xbd73_0c96_df21_c77f, 0x7f4d_59b3_e95f_f1ef),
        (32, 0xcd20_2213_d5b8_54dc, 0x82f5_a131_5230_4331),
    ];
    for (width, ucs, astar) in want {
        let (u, inv, actions, src) = grouped_flip(width / 2);
        let dst = flipped(&src, &actions, 0..width / 4);
        let search = Search::new(&inv, &actions, u.len());
        let got = (pin(&search.plan(&src, &dst)), pin(&search.plan_astar(&src, &dst)));
        assert_eq!(got, (ucs, astar), "{width} components: {:#018x}, {:#018x}", got.0, got.1);
    }
}

#[test]
fn the_tree_walk_oracle_at_sixteen_components() {
    let (u, inv, actions, src) = grouped_flip(8);
    let dst = flipped(&src, &actions, 0..4);
    let oracle = sada_plan::oracle::tree_walk_search(&inv, &actions, u.len());
    let got = pin(&oracle.plan(&src, &dst));
    assert_eq!(got, 0x0900_2d80_5247_b1b0, "{got:#018x}");
}

#[test]
fn scoped_plans_across_two_chunks_of_a_wide_world() {
    let (u, inv, actions, src) = grouped_flip(4_200);
    let dst = flipped(&src, &actions, [1, 2_050]);
    let search = Search::new(&inv, &actions, u.len());
    let scoped = search.scoped_action_ixs(&scope_of(&actions, &[1, 2_050]));
    let got = (
        pin(&search.plan_scoped(&src, &dst, &scoped)),
        pin(&search.plan_scoped(&dst, &src, &scoped)),
    );
    assert_eq!(
        got,
        (0x40bc_37e1_597d_2706, 0x0c08_b14b_f8e4_bc86),
        "{:#018x}, {:#018x}",
        got.0,
        got.1
    );
}

#[test]
fn a_scoped_target_outside_the_scoped_reach_is_none() {
    let (u, inv, actions, src) = grouped_flip(4_200);
    let dst = flipped(&src, &actions, [1, 2_050]);
    let search = Search::new(&inv, &actions, u.len());
    let scoped = search.scoped_action_ixs(&scope_of(&actions, &[1]));
    let result = search.plan_scoped(&src, &dst, &scoped);
    assert_eq!(result.0, None, "group 2 050 lies outside the scope");
    let got = pin(&result);
    assert_eq!(got, 0x9ca1_b74e_b2dc_87ef, "{got:#018x}");
}

#[test]
fn a_scoped_query_with_no_actions() {
    let (u, inv, actions, src) = grouped_flip(12);
    let dst = flipped(&src, &actions, [3]);
    let search = Search::new(&inv, &actions, u.len());
    let result = search.plan_scoped(&src, &dst, &[]);
    assert_eq!(result.0, None);
    let got = pin(&result);
    assert_eq!(got, 0x9ccc_9fe2_6cde_5466, "{got:#018x}");
}

#[test]
fn a_uniform_cost_query_between_two_widths_is_none() {
    let (u, inv, actions, src) = grouped_flip(12);
    // The same components over one more slot: safe, and equal to nothing
    // the search can reach from `src`.
    let dst = Config::from_ids(u.len() + 1, flipped(&src, &actions, [0]).iter());
    let search = Search::new(&inv, &actions, u.len());
    assert!(search.is_safe(&dst));
    let result = search.plan(&src, &dst);
    assert_eq!(result.0, None);
    let got = pin(&result);
    assert_eq!(got, 0x0b9e_f3fd_aead_a457, "{got:#018x}");
}
