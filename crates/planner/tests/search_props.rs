//! Property corpus for the compiled search: over random worlds and random
//! endpoints, the kernel+index hot path must reproduce the tree-walk
//! baseline exactly — identical paths, identical exploration, identical
//! candidate sequences — and the action index must only ever skip actions a
//! linear scan would have rejected. Over random invariant sets and random
//! configuration sequences, the memoised safety check must answer exactly
//! like the invariant set itself.

use proptest::prelude::*;

use sada_expr::{CompId, Config, Expr, InvariantSet, Universe};
use sada_plan::{Action, ActionIndex, SafeMemo, Search};

/// A grouped world: `groups` one_of(Old, New) pairs with flip actions both
/// ways at the given costs, plus one free component with insert/remove
/// actions (exercising the index's required-absence buckets).
#[derive(Debug, Clone)]
struct World {
    universe: Universe,
    inv: InvariantSet,
    actions: Vec<Action>,
}

fn build_world(costs: &[(u64, u64)], free_cost: u64) -> World {
    let groups = costs.len();
    let mut u = Universe::with_capacity(2 * groups + 1);
    let mut srcs = Vec::new();
    for g in 0..groups {
        u.intern(&format!("Old{g}"));
        u.intern(&format!("New{g}"));
        srcs.push(format!("one_of(Old{g}, New{g})"));
    }
    u.intern("Free");
    let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
    let inv = InvariantSet::parse(&refs, &mut u).unwrap();
    let mut actions = Vec::new();
    for (g, &(fwd, back)) in costs.iter().enumerate() {
        let old = u.config_of(&[&format!("Old{g}")]);
        let new = u.config_of(&[&format!("New{g}")]);
        actions.push(Action::replace(actions.len() as u32, &format!("fwd{g}"), &old, &new, fwd));
        actions.push(Action::replace(actions.len() as u32, &format!("back{g}"), &new, &old, back));
    }
    let free = u.config_of(&["Free"]);
    actions.push(Action::insert(actions.len() as u32, "+Free", &free, free_cost));
    actions.push(Action::remove(actions.len() as u32, "-Free", &free, free_cost));
    World { universe: u, inv, actions }
}

/// A configuration choosing one member per group plus the free bit.
fn assignment(w: &World, bits: u32, free: bool) -> Config {
    let groups = (w.universe.len() - 1) / 2;
    let mut names = Vec::new();
    for g in 0..groups {
        names.push(if bits & (1 << g) != 0 { format!("New{g}") } else { format!("Old{g}") });
    }
    if free {
        names.push("Free".to_string());
    }
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    w.universe.config_of(&refs)
}

fn arb_world() -> impl Strategy<Value = World> {
    (prop::collection::vec((1u64..10, 1u64..10), 2..5), 1u64..10)
        .prop_map(|(costs, free_cost)| build_world(&costs, free_cost))
}

/// Variables the random invariants of the memo property range over.
const NVARS: usize = 8;

fn arb_invariant() -> BoxedStrategy<Expr> {
    let leaf = (0usize..NVARS).prop_map(|ix| Expr::var(CompId::from_index(ix)));
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(Expr::not),
            prop::collection::vec(inner.clone(), 1..4).prop_map(Expr::or),
            prop::collection::vec(inner.clone(), 1..4).prop_map(Expr::exactly_one),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.implies(b)),
            (inner.clone(), inner).prop_map(|(a, b)| a.iff(b)),
        ]
    })
    .boxed()
}

proptest! {
    /// Safe and unsafe configurations interleaved, over the invariants' own
    /// width and two wider slot spaces (one spilling into a second word):
    /// every memoised answer equals `InvariantSet::satisfied_by`, a pass
    /// moves the slot, and a failure leaves it where it was.
    #[test]
    fn memoised_safety_check_equals_the_invariant_set(
        exprs in prop::collection::vec(arb_invariant(), 0..4),
        seq in prop::collection::vec((any::<u8>(), 0usize..3), 1..32),
    ) {
        let mut inv = InvariantSet::new();
        for e in exprs {
            inv.push(e);
        }
        let search = Search::new(&inv, &[], NVARS);
        let mut memo = SafeMemo::default();
        for (bits, w) in seq {
            let mut cfg = Config::empty([NVARS, NVARS + 3, NVARS + 64][w]);
            for ix in (0..NVARS).filter(|ix| bits & (1 << ix) != 0) {
                cfg.insert(CompId::from_index(ix));
            }
            let want = inv.satisfied_by(&cfg);
            let before = memo.proved().cloned();
            prop_assert_eq!(search.is_safe_memo(&cfg, &mut memo).is_some(), want, "memoised, {}", cfg);
            prop_assert_eq!(search.is_safe(&cfg), want, "full, {}", cfg);
            prop_assert_eq!(memo.proved().cloned(), if want { Some(cfg) } else { before });
        }
    }

    #[test]
    fn indexed_kernel_search_equals_linear_tree_walk(
        w in arb_world(),
        src_bits in any::<u32>(),
        dst_bits in any::<u32>(),
        src_free in any::<bool>(),
        dst_free in any::<bool>(),
        astar in any::<bool>(),
    ) {
        let src = assignment(&w, src_bits, src_free);
        let dst = assignment(&w, dst_bits, dst_free);
        let kernel = Search::new(&w.inv, &w.actions, w.universe.len());
        let baseline = Search::tree_walk_baseline(&w.inv, &w.actions, w.universe.len());
        let ((kp, ks), (bp, bs)) = if astar {
            (kernel.plan_astar(&src, &dst), baseline.plan_astar(&src, &dst))
        } else {
            (kernel.plan(&src, &dst), baseline.plan(&src, &dst))
        };
        prop_assert_eq!(kp, bp, "identical plans");
        prop_assert_eq!(ks.expanded, bs.expanded);
        prop_assert_eq!(ks.generated, bs.generated);
        prop_assert_eq!(ks.safety_checks, bs.safety_checks);
        prop_assert!(ks.probed <= bs.probed, "index probes {} vs scan {}", ks.probed, bs.probed);
        prop_assert!(ks.pred_evals <= bs.pred_evals);
    }

    #[test]
    fn probe_is_sorted_dedup_superset_of_applicable(
        w in arb_world(),
        bits in any::<u32>(),
        free in any::<bool>(),
    ) {
        let cfg = assignment(&w, bits, free);
        let index = ActionIndex::new(w.universe.len(), &w.actions);
        let mut probed = Vec::new();
        index.probe(&cfg, &mut probed);
        prop_assert!(probed.windows(2).all(|p| p[0] < p[1]), "sorted, no dups: {:?}", probed);
        for (ix, action) in w.actions.iter().enumerate() {
            if action.applicable(&cfg) {
                prop_assert!(probed.contains(&(ix as u32)), "missing {}", action.name());
            }
        }
        prop_assert!(probed.len() <= w.actions.len());
    }
}
