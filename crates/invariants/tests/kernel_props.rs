//! Property corpus for the compiled invariant kernels: random `Expr` trees
//! × random `Config`s must evaluate exactly like the tree walk, and the
//! support-masked incremental check must agree with the full check after
//! random action applications.

use proptest::prelude::*;

use sada_expr::{CompId, CompiledExpr, CompiledInvariants, Config, Expr, InvariantSet};

/// Width shared by every generated expression and configuration.
const NVARS: usize = 8;

fn arb_expr() -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(Expr::Const),
        (0usize..NVARS).prop_map(|ix| Expr::var(CompId::from_index(ix))),
    ];
    leaf.prop_recursive(4, 48, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(Expr::not),
            prop::collection::vec(inner.clone(), 0..4).prop_map(Expr::and),
            prop::collection::vec(inner.clone(), 0..4).prop_map(Expr::or),
            prop::collection::vec(inner.clone(), 0..4).prop_map(Expr::xor),
            prop::collection::vec(inner.clone(), 0..4).prop_map(Expr::exactly_one),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.implies(b)),
            (inner.clone(), inner).prop_map(|(a, b)| a.iff(b)),
        ]
    })
}

fn config_from_bits(bits: u8) -> Config {
    let mut cfg = Config::empty(NVARS);
    for ix in 0..NVARS {
        if bits & (1 << ix) != 0 {
            cfg.insert(CompId::from_index(ix));
        }
    }
    cfg
}

proptest! {
    #[test]
    fn compiled_kernel_matches_tree_walk(e in arb_expr(), bits in any::<u8>()) {
        let cfg = config_from_bits(bits);
        let compiled = CompiledExpr::compile(&e, NVARS);
        prop_assert_eq!(compiled.eval(&cfg), e.eval(&cfg), "{} on {}", e, cfg);
    }

    #[test]
    fn flips_outside_the_support_never_change_the_verdict(
        e in arb_expr(),
        bits in any::<u8>(),
        flip in 0usize..NVARS,
    ) {
        let compiled = CompiledExpr::compile(&e, NVARS);
        prop_assume!(!compiled.support().contains(&CompId::from_index(flip)));
        let cfg = config_from_bits(bits);
        let flipped = config_from_bits(bits ^ (1 << flip));
        prop_assert_eq!(compiled.eval(&cfg), compiled.eval(&flipped), "{}", e);
    }

    #[test]
    fn incremental_check_matches_full_check_after_actions(
        exprs in prop::collection::vec(arb_expr(), 1..4),
        pre_bits in any::<u8>(),
        touched_bits in any::<u8>(),
    ) {
        let mut inv = InvariantSet::new();
        for e in exprs {
            inv.push(e);
        }
        let pre = config_from_bits(pre_bits);
        // The incremental check's contract assumes a safe predecessor; an
        // action application toggles exactly its touched components.
        prop_assume!(inv.satisfied_by(&pre));
        let next = config_from_bits(pre_bits ^ touched_bits);
        let touched = config_from_bits(touched_bits);

        let compiled = CompiledInvariants::compile(&inv, NVARS);
        prop_assert!(compiled.satisfied_by(&pre));
        let mut evals = 0u64;
        let incremental = compiled.still_satisfied_after_counting(&next, &touched, &mut evals);
        prop_assert_eq!(incremental, inv.satisfied_by(&next), "incremental vs tree walk");
        prop_assert_eq!(incremental, compiled.satisfied_by(&next), "incremental vs full kernel");
        prop_assert!(evals <= compiled.len() as u64);
        // The affected set is exactly the predicates sharing support.
        for ix in compiled.affected_by(&touched) {
            let support = compiled.support_of(ix as usize);
            prop_assert!(support.iter().any(|&c| touched.contains(c)));
        }
        // The inverted index finds the same affected set from a sparse list.
        let touched_ids: Vec<CompId> = touched.iter().collect();
        prop_assert_eq!(compiled.affected_by_ids(&touched_ids), compiled.affected_by(&touched));
    }
}
