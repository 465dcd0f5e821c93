//! The validity pass: every scenario handed to the fleet must already be
//! known-good.
//!
//! A spec that does not compile is rejected with the
//! [`FleetWorld::try_from_spec`] error's text: duplicate names, out-of-range
//! indices, an invariant that does not parse, components outside any
//! cluster, an unsafe boot, or a cluster that is not a *confined*
//! collaborative set (an invariant or action reaching outside it).
//!
//! On the compiled world, [`validate`] re-establishes, from first
//! principles, the properties the generator promises by construction — it
//! never trusts the construction:
//!
//! 1. every cluster's scope is accepted by the plan cache's normalizer
//!    (in-scope invariants normalize cleanly), as its planner reports;
//! 2. every emitted goal is reachable: each cluster's `on_true` mode can
//!    be planned to from the boot mode *and back*, through the same
//!    scope-restricted lazy planner and [`PlanCache`] the control plane
//!    uses — one cache for the pass, holding every query. It vets an
//!    endpoint by its diff from the last configuration it proved safe,
//!    and an isomorphic cluster replays a cached plan, so every plan
//!    is checked step by step: it runs from the query's source to its
//!    target, and each step is a repertoire action applied to its `from`
//!    at that action's cost, and invariant-safe. Per step, the tree walk
//!    ([`sada_expr::Expr::eval`], not the kernels it polices) runs over
//!    exactly the invariants that mention a component on which the step
//!    differs from the boot configuration — the plan's own diff, a subset
//!    of the cluster's scope. That is exact: any other invariant reads in
//!    the step what it read at boot, where the compile checked all of them;
//! 3. the session workload is well-formed (unique nonzero ids, in-range
//!    non-duplicate flips).

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use sada_expr::Config;
use sada_fleet::{FleetWorld, PlanCache, ScopedLazyPlanner};
use sada_plan::Path;
use sada_proto::AdaptationPlanner;

use crate::gen::GeneratedScenario;

/// Compiles the spec and checks the three validity properties; `Err`
/// carries the first failure.
pub fn validate(scenario: &GeneratedScenario) -> Result<(), String> {
    let world = FleetWorld::try_from_spec(scenario.spec.clone()).map_err(|e| e.to_string())?;
    let world = Rc::new(world);
    let init = world.initial_config();
    // Room for both queries of every cluster, so no LRU scan ever runs.
    let cache = Rc::new(RefCell::new(PlanCache::new(2 * world.groups.max(1))));
    for g in 0..world.groups {
        let scope = world.scope_comps(&[(g, true)]);
        let mut planner = ScopedLazyPlanner::new(Rc::clone(&world), &scope)
            .with_cache(Rc::clone(&cache), g as u64);
        if !planner.normalizes() {
            return Err(format!("cluster {g}: scope does not normalize (cache-ineligible)"));
        }
        // Reachability, both directions, with per-step safety.
        let there = world.target_for(&init, &[(g, true)]);
        for (label, src, dst) in [("forward", &init, &there), ("backward", &there, &init)] {
            let paths = planner.paths(src, dst, 1);
            let Some(path) = paths.first() else {
                return Err(format!("cluster {g}: {label} goal unreachable"));
            };
            check_plan(&world, &init, &planner, (src, dst), path)
                .map_err(|why| format!("cluster {g}: {label} {why}"))?;
        }
    }
    let mut ids = BTreeSet::new();
    for s in &scenario.sessions {
        if s.id == 0 {
            return Err("session id 0 is reserved for solo runs".into());
        }
        if !ids.insert(s.id) {
            return Err(format!("duplicate session id {}", s.id));
        }
        if s.flips.is_empty() {
            return Err(format!("session {} flips nothing", s.id));
        }
        let mut groups = BTreeSet::new();
        for &(g, _) in &s.flips {
            if g >= world.groups {
                return Err(format!("session {}: cluster {g} out of range", s.id));
            }
            if !groups.insert(g) {
                return Err(format!("session {}: cluster {g} flipped twice", s.id));
            }
        }
    }
    Ok(())
}

/// Property 2 for one plan answering `from → to` in `planner`'s scope,
/// given that `init` satisfies every invariant of `world`. The plan may be
/// a cache replay, so nothing in it is taken on trust: it is well-formed
/// and runs from `from` to `to`; per step, the tree walk passes every
/// invariant whose support meets the step's diff against `init`, and the
/// step is an action of the repertoire applied to its `from`, at its cost.
fn check_plan(
    world: &FleetWorld,
    init: &Config,
    planner: &ScopedLazyPlanner,
    (from, to): (&Config, &Config),
    path: &Path,
) -> Result<(), &'static str> {
    if !path.is_well_formed() {
        return Err("plan is malformed");
    }
    let starts = path.steps.first().map_or(from == to, |step| step.from == *from);
    if !starts || path.steps.last().is_some_and(|step| step.to != *to) {
        return Err("plan misses its goal");
    }
    let (compiled, exprs) = (world.search.compiled(), world.inv.exprs());
    let safe = |cfg: &Config| {
        let moved = init.diff_ids(cfg);
        compiled.affected_by_ids(&moved).iter().all(|&p| exprs[p as usize].eval(cfg))
    };
    if !path.steps.iter().all(|step| safe(&step.to)) {
        return Err("plan passes through unsafe state");
    }
    for step in &path.steps {
        let Some(action) = planner.scoped_action(step.action) else {
            return Err("plan step is outside its scope");
        };
        if step.cost != action.cost()
            || !action.applicable(&step.from)
            || action.apply(&step.from) != step.to
        {
            return Err("plan step is not its action");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sada_fleet::WorldSpec;
    use sada_plan::{ActionId, PathStep};

    /// The planner never returns an unsafe step, so the plans here are made
    /// by hand: two `Old`/`New` pairs booted at `Old`, and one-step "plans"
    /// by `fwd0` (action 0, cost 1) that end wherever the case says.
    #[test]
    fn a_plan_that_is_not_a_safe_path_for_its_query_is_rejected() {
        let world = Rc::new(FleetWorld::from_spec(WorldSpec::video(2)));
        let init = world.initial_config();
        let planner =
            |g| ScopedLazyPlanner::new(Rc::clone(&world), &world.scope_comps(&[(g, true)]));
        let (scope0, scope1) = (planner(0), planner(1));
        let id = |name: &str| world.universe.id(name).expect("video names its components");
        let plan_to = |to: &Config| {
            let step =
                PathStep { from: init.clone(), to: to.clone(), action: ActionId(0), cost: 1 };
            Path { steps: vec![step], cost: 1 }
        };
        let check =
            |to: &Config, plan: &Path| check_plan(&world, &init, &scope0, (&init, to), plan);
        let flipped = world.target_for(&init, &[(0, true)]);
        assert_eq!(check(&flipped, &plan_to(&flipped)), Ok(()));

        let mut both = init.clone();
        both.insert(id("New0"));
        let unsafe_state = Err("plan passes through unsafe state");
        assert_eq!(check(&both, &plan_to(&both)), unsafe_state, "inside the scope");
        // A step that strays from its cluster meets the other cluster's
        // invariant through its own diff, whatever the scope was.
        let mut strayed = flipped.clone();
        strayed.insert(id("New1"));
        assert_eq!(check(&strayed, &plan_to(&strayed)), unsafe_state, "outside it");

        let miscounted = Path { cost: 2, ..plan_to(&flipped) };
        assert_eq!(check(&flipped, &miscounted), Err("plan is malformed"));

        // A replayed plan is checked against the query it answers.
        let other = world.target_for(&init, &[(1, true)]);
        assert_eq!(check(&flipped, &plan_to(&other)), Err("plan misses its goal"));
        let not_its_action = Err("plan step is not its action");
        assert_eq!(check(&other, &plan_to(&other)), not_its_action, "fwd0 does not flip 1");
        let mut overpriced = plan_to(&flipped);
        (overpriced.steps[0].cost, overpriced.cost) = (2, 2);
        assert_eq!(check(&flipped, &overpriced), not_its_action, "fwd0 costs 1");
        let elsewhere = check_plan(&world, &init, &scope1, (&init, &flipped), &plan_to(&flipped));
        assert_eq!(elsewhere, Err("plan step is outside its scope"), "fwd0 is cluster 0's");
    }
}
