//! Property-based validation of the core invariants, including the paper's
//! Section 3.3 safety theorem under randomized failures.

use proptest::prelude::*;

use sada_expr::{enumerate, CompId, Config, Expr, InvariantSet, Universe};
use sada_plan::{lazy, Action, Sag, Search};

const N_VARS: usize = 6;

fn universe_n(n: usize) -> Universe {
    let mut u = Universe::new();
    for i in 0..n {
        u.intern(&format!("C{i}"));
    }
    u
}

/// Random invariant expression over `C0..C{N_VARS}`.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0..N_VARS).prop_map(|i| Expr::var(CompId::from_index(i))),
        any::<bool>().prop_map(Expr::Const),
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

fn config_from_bits(n: usize, bits: u32) -> Config {
    let mut c = Config::empty(n);
    for i in 0..n {
        if bits & (1 << i) != 0 {
            c.insert(CompId::from_index(i));
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Pruned three-valued enumeration is exactly brute force.
    #[test]
    fn pruned_enumeration_equals_exhaustive(exprs in prop::collection::vec(arb_expr(), 0..4)) {
        let u = universe_n(N_VARS);
        let mut inv = InvariantSet::new();
        for e in exprs {
            inv.push(e);
        }
        let pruned = enumerate::safe_configs(&u, &inv);
        let brute = enumerate::safe_configs_exhaustive(&u, &inv);
        prop_assert_eq!(pruned, brute);
    }

    /// Three-valued evaluation agrees with two-valued on complete inputs.
    #[test]
    fn eval3_complete_matches_eval(e in arb_expr(), bits in 0u32..64) {
        let u = universe_n(N_VARS);
        let cfg = config_from_bits(u.len(), bits);
        let mut pa = sada_expr::PartialAssignment::new(u.len());
        for i in 0..u.len() {
            pa.assign(CompId::from_index(i), cfg.contains(CompId::from_index(i)));
        }
        let tri = e.eval3(&pa);
        let b = e.eval(&cfg);
        prop_assert_eq!(tri == sada_expr::Tri::True, b);
    }

    /// Simplification preserves semantics on every configuration and is
    /// idempotent.
    #[test]
    fn simplify_preserves_semantics(e in arb_expr()) {
        let s = e.simplify();
        for bits in 0..(1u32 << N_VARS) {
            let cfg = config_from_bits(N_VARS, bits);
            prop_assert_eq!(e.eval(&cfg), s.eval(&cfg), "{} vs {} on {}", e, s, cfg);
        }
        prop_assert_eq!(s.simplify(), s.clone(), "idempotent: {}", s);
    }

    /// Parser round-trip: displaying a parsed expression and re-parsing it
    /// yields the same semantics on all configurations.
    #[test]
    fn parse_display_round_trip(e in arb_expr()) {
        let mut u = universe_n(N_VARS);
        let rendered = e.display(&u).to_string();
        let reparsed = sada_expr::parse_expr(&rendered, &mut u).unwrap();
        for bits in 0..(1u32 << N_VARS) {
            let cfg = config_from_bits(N_VARS, bits);
            prop_assert_eq!(e.eval(&cfg), reparsed.eval(&cfg), "expr {} on {}", rendered, cfg);
        }
    }
}

/// Random action table over a one_of(N) world: replacements between
/// component pairs with random costs.
fn arb_actions() -> impl Strategy<Value = Vec<(usize, usize, u64)>> {
    prop::collection::vec(
        (0..N_VARS, 0..N_VARS, 1u64..100).prop_filter("distinct", |(a, b, _)| a != b),
        1..10,
    )
}

fn build_world(raw: &[(usize, usize, u64)]) -> (Universe, InvariantSet, Vec<Action>) {
    let mut u = universe_n(N_VARS);
    let names: Vec<String> = (0..N_VARS).map(|i| format!("C{i}")).collect();
    let all: Vec<&str> = names.iter().map(String::as_str).collect();
    let inv = InvariantSet::parse(&[&format!("one_of({})", all.join(", "))], &mut u).unwrap();
    let actions: Vec<Action> = raw
        .iter()
        .enumerate()
        .map(|(ix, &(a, b, cost))| {
            Action::replace(
                ix as u32,
                &format!("C{a}->C{b}"),
                &u.config_of(&[&format!("C{a}")]),
                &u.config_of(&[&format!("C{b}")]),
                cost,
            )
        })
        .collect();
    (u, inv, actions)
}

/// Brute-force cheapest simple path on the safe-singleton graph.
fn brute_force_cost(actions: &[Action], from: &Config, to: &Config) -> Option<u64> {
    fn dfs(
        actions: &[Action],
        cur: &Config,
        to: &Config,
        visited: &mut Vec<Config>,
        spent: u64,
        best: &mut Option<u64>,
    ) {
        if cur == to {
            *best = Some(best.map_or(spent, |b: u64| b.min(spent)));
            return;
        }
        for a in actions {
            if a.applicable(cur) {
                let next = a.apply(cur);
                if next.len() == 1 && !visited.contains(&next) {
                    visited.push(next.clone());
                    dfs(actions, &next, to, visited, spent + a.cost(), best);
                    visited.pop();
                }
            }
        }
    }
    let mut best = None;
    let mut visited = vec![from.clone()];
    dfs(actions, from, to, &mut visited, 0, &mut best);
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dijkstra over the eager SAG, the lazy planner, and brute force all
    /// agree on the MAP cost.
    #[test]
    fn planners_agree_with_brute_force(raw in arb_actions(), src in 0..N_VARS, dst in 0..N_VARS) {
        let (u, inv, actions) = build_world(&raw);
        let from = u.config_of(&[&format!("C{src}")]);
        let to = u.config_of(&[&format!("C{dst}")]);
        let sag = Sag::build(enumerate::safe_configs(&u, &inv), &actions);
        let eager = sag.shortest_path(&from, &to).map(|p| p.cost);
        let lazy_cost = lazy::plan(&inv, &actions, &from, &to).map(|p| p.cost);
        let astar_cost = Search::new(&inv, &actions, from.width()).plan_astar(&from, &to).0.map(|p| p.cost);
        let brute = brute_force_cost(&actions, &from, &to);
        prop_assert_eq!(eager, brute);
        prop_assert_eq!(lazy_cost, brute);
        prop_assert_eq!(astar_cost, brute);
    }

    /// Yen's ranking: sorted by cost, pairwise distinct, loopless, and the
    /// first one is the Dijkstra MAP.
    #[test]
    fn yen_ranking_properties(raw in arb_actions(), src in 0..N_VARS, dst in 0..N_VARS) {
        let (u, inv, actions) = build_world(&raw);
        let from = u.config_of(&[&format!("C{src}")]);
        let to = u.config_of(&[&format!("C{dst}")]);
        let sag = Sag::build(enumerate::safe_configs(&u, &inv), &actions);
        let paths = sag.k_shortest_paths(&from, &to, 6);
        if let Some(map) = sag.shortest_path(&from, &to) {
            prop_assert_eq!(&paths[0], &map);
        } else {
            prop_assert!(paths.is_empty());
        }
        for w in paths.windows(2) {
            prop_assert!(w[0].cost <= w[1].cost);
            prop_assert_ne!(&w[0], &w[1]);
        }
        for p in &paths {
            prop_assert!(p.is_well_formed());
            let cfgs = p.configs();
            let mut seen = std::collections::HashSet::new();
            for c in &cfgs {
                prop_assert!(seen.insert(c.clone()), "loop in {}", p);
            }
        }
    }
}

mod protocol_theorem {
    use super::*;
    use sada_core::casestudy::case_study;
    use sada_core::{run_adaptation, RunConfig};
    use sada_simnet::{LinkConfig, SimDuration};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Section 3.3 under fire: whatever the loss rate, latency, and
        /// fail-to-reset pattern, the case-study adaptation always resolves
        /// and always lands in a *safe* configuration.
        #[test]
        fn adaptation_always_lands_safe(
            seed in 0u64..1000,
            loss in 0.0f64..0.35,
            latency_ms in 1u64..20,
            fail_handheld in any::<bool>(),
            fail_laptop in any::<bool>(),
        ) {
            let cs = case_study();
            let mut fail = Vec::new();
            if fail_handheld { fail.push(1); }
            if fail_laptop { fail.push(2); }
            let cfg = RunConfig {
                seed,
                link: LinkConfig::lossy(SimDuration::from_millis(latency_ms), loss),
                fail_to_reset: fail,
                ..RunConfig::default()
            };
            let report = run_adaptation(&cs.spec, &cs.source, &cs.target, &cfg);
            prop_assert!(
                cs.spec.is_safe(&report.outcome.final_config),
                "unsafe final config {} (seed {seed}, loss {loss:.2})",
                report.outcome.final_config
            );
            // The manager always resolves — and a non-success either backs
            // out to the source or explicitly gives up and waits for the
            // user (ladder rung 4); it never strands the system silently.
            prop_assert!(
                report.outcome.success
                    || report.outcome.gave_up
                    || report.outcome.final_config == cs.source,
                "unresolved failure state {} (seed {seed})",
                report.outcome.final_config
            );
        }
    }
}
