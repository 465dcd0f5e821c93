//! Satellite property: scope-disjoint sessions *commute* — running them
//! concurrently (interleaved barriers and all) reaches exactly the fleet
//! configuration the serial baseline reaches — while overlapping sessions
//! are provably serialized by the scope locks and compose in admission
//! order. The fleet plan cache must be invisible to all of this: a plan
//! served from a (scope-normalized) cache entry is bit-for-bit the plan a
//! fresh search would return.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use sada_fleet::{run_fleet, FleetScenario, FleetWorld, PlanCache, ScopedLazyPlanner, SessionSpec};
use sada_proto::AdaptationPlanner;
use sada_simnet::SimDuration;

/// A random disjoint workload: each group is assigned to at most one
/// session; sessions flip their groups in a random direction and submit at
/// random instants within the first 5 ms.
fn arb_disjoint_workload() -> impl Strategy<Value = (usize, Vec<SessionSpec>)> {
    (2usize..6, proptest::collection::vec((0u8..3, any::<bool>(), 0u64..5000), 2..5)).prop_map(
        |(groups, raw)| {
            let sessions: Vec<SessionSpec> = raw
                .iter()
                .enumerate()
                .filter_map(|(i, &(prio, to_new, at))| {
                    // Session i owns every group g with g % raw.len() == i;
                    // ownership partitions the groups, so scopes are disjoint.
                    let flips: Vec<(usize, bool)> =
                        (0..groups).filter(|g| g % raw.len() == i).map(|g| (g, to_new)).collect();
                    if flips.is_empty() {
                        return None;
                    }
                    Some(SessionSpec {
                        id: i as u64 + 1,
                        flips,
                        priority: prio,
                        submit_at: SimDuration::from_micros(at),
                        cancel_at: None,
                    })
                })
                .collect();
            (groups, sessions)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Disjoint-scope sessions reach the same final fleet configuration
    /// whether admitted concurrently or forced through the one-at-a-time
    /// serial baseline, and every session succeeds either way.
    #[test]
    fn disjoint_sessions_commute_with_serial_execution(
        (groups, sessions) in arb_disjoint_workload(),
    ) {
        prop_assume!(!sessions.is_empty());
        let parallel = run_fleet(&FleetScenario::new(groups, sessions.clone()));
        let mut serial_scenario = FleetScenario::new(groups, sessions.clone());
        serial_scenario.serialize = true;
        let serial = run_fleet(&serial_scenario);

        for s in &sessions {
            prop_assert!(
                parallel.session(s.id).unwrap().success,
                "parallel session {} failed: {:?}", s.id, parallel.results,
            );
            prop_assert!(
                serial.session(s.id).unwrap().success,
                "serial session {} failed: {:?}", s.id, serial.results,
            );
        }
        prop_assert_eq!(
            &parallel.final_config, &serial.final_config,
            "interleaving changed the outcome",
        );
        // No-op flips complete the instant they are admitted, so the peak
        // can legitimately be 0; it must just never exceed 1.
        prop_assert!(serial.max_concurrent <= 1, "baseline must be serial");
    }

    /// Sessions over the *same* group never run concurrently: their
    /// admitted→completed intervals are disjoint, and the fleet
    /// configuration equals the admission-order fold of their flips.
    #[test]
    fn overlapping_sessions_are_serialized_and_fold_in_admission_order(
        dirs in proptest::collection::vec(any::<bool>(), 2..5),
        stagger_us in 0u64..2000,
    ) {
        let groups = 2usize;
        // Every session flips group 0 (plus group 1 for even ids), so all
        // scopes pairwise overlap on group 0's resources.
        let sessions: Vec<SessionSpec> = dirs
            .iter()
            .enumerate()
            .map(|(i, &to_new)| SessionSpec {
                id: i as u64 + 1,
                flips: if i % 2 == 0 {
                    vec![(0, to_new), (1, to_new)]
                } else {
                    vec![(0, to_new)]
                },
                priority: 0,
                submit_at: SimDuration::from_micros(i as u64 * stagger_us),
                cancel_at: None,
            })
            .collect();
        let report = run_fleet(&FleetScenario::new(groups, sessions.clone()));

        let mut spans: Vec<(u64, u64, u64)> = Vec::new(); // (admit, done, id)
        for s in &sessions {
            let r = report.session(s.id).unwrap();
            prop_assert!(r.success, "session {} failed: {:?}", s.id, report.results);
            spans.push((r.admitted_at.unwrap(), r.completed_at.unwrap(), s.id));
        }
        for a in &spans {
            for b in &spans {
                if a.2 < b.2 {
                    prop_assert!(
                        a.1 <= b.0 || b.1 <= a.0,
                        "sessions {} and {} overlapped: {:?} vs {:?}", a.2, b.2, a, b,
                    );
                }
            }
        }
        prop_assert!(report.max_concurrent <= 1);

        // Replay the flips in admission order against a fresh world.
        let world = FleetWorld::build(groups);
        spans.sort_unstable();
        let mut expect = world.initial_config();
        for &(_, _, id) in &spans {
            let spec = sessions.iter().find(|s| s.id == id).unwrap();
            expect = world.target_for(&expect, &spec.flips);
        }
        prop_assert_eq!(report.final_config, expect.to_bit_string());
    }

    /// Cached plans equal fresh plans, and fresh plans equal whole-world
    /// plans. A wave of same-shape sessions over disjoint group ranges
    /// shares one cache: after the first session seeds it, every later
    /// session is answered from the cache, and each answer must be
    /// identical to what an uncached planner computes for the same
    /// endpoints — which, on the video world (its one cluster class placed
    /// once per group), plans inside the class for a one-group scope and on
    /// a scope-sized search across placements for a wider one, and must
    /// equal the scoped search on the world's rendered view. Every group
    /// starts opposite its wave's direction, so a wave sent back flips
    /// several groups back. One more wave sits on groups 31 and 32, whose
    /// scope straddles the first two words of the configuration, and one on
    /// groups 2047 and 2048, whose scope straddles its first two 4 096-
    /// component chunks. The word wave catches the search ordering ties by
    /// derived `Config` order (word 0 first) instead of component order:
    /// when its two groups move the same way, its cached plan, relabelled
    /// onto one word, takes the two flips in the other order than its
    /// fresh plan. The view comparison catches an instance base off by one
    /// placement (the slice a one-group session plans on, or the base its
    /// plan is replayed at): the plan then moves a neighbouring group, or
    /// none.
    #[test]
    fn cached_plans_are_identical_to_fresh_plans(
        waves in 2usize..5,
        span in 1usize..3,
        dirs in proptest::collection::vec(any::<bool>(), 1..3),
    ) {
        // Wave i < waves owns groups i * span.., the last two groups 31..
        // and 2047..; every wave poses the same problem over its own
        // groups. `wave(first, true)` sends its groups where `dirs` says,
        // and `wave(first, false)` the other way, where they start.
        let firsts: Vec<usize> = (0..waves).map(|i| i * span).chain([31, 2047]).collect();
        let world = Rc::new(FleetWorld::build(2047 + span));
        let cache = Rc::new(RefCell::new(PlanCache::new(64)));
        let wave = |first: usize, to: bool| -> Vec<(usize, bool)> {
            (0..span).map(|j| (first + j, dirs[j % dirs.len()] == to)).collect()
        };
        let boot: Vec<(usize, bool)> = firsts.iter().flat_map(|&f| wave(f, false)).collect();
        let src = world.target_for(&world.initial_config(), &boot);
        for (i, &first) in firsts.iter().enumerate() {
            let flips = wave(first, true);
            let scope = world.scope_comps(&flips);
            let dst = world.target_for(&src, &flips);
            let mut cached = ScopedLazyPlanner::new(Rc::clone(&world), &scope)
                .with_cache(Rc::clone(&cache), i as u64 + 1);
            let mut fresh = ScopedLazyPlanner::new(Rc::clone(&world), &scope);
            let got = fresh.paths(&src, &dst, 4);
            prop_assert_eq!(
                cached.paths(&src, &dst, 4),
                got.clone(),
                "session {} diverged from the fresh planner", i,
            );
            let ixs = world.search.scoped_action_ixs(&scope);
            let whole: Vec<_> = world.search.plan_scoped(&src, &dst, &ixs).0.into_iter().collect();
            prop_assert_eq!(got, whole, "session {} diverged from the whole world", i);
        }
        let stats = cache.borrow().stats();
        prop_assert_eq!(stats.misses, 1, "only the first session misses: {:?}", stats);
        prop_assert_eq!(stats.hits as usize, waves + 1, "{:?}", stats);
        // Hit rate over a disjoint wave is (n-1)/n: at least 50%.
        prop_assert!(stats.hits * 2 >= (stats.hits + stats.misses));
    }
}
