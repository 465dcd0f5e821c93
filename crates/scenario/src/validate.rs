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
//! 1. every cluster's scope is accepted by the plan cache's
//!    [`ScopeNormalizer`] (in-scope invariants normalize cleanly);
//! 2. every emitted goal is reachable: each cluster's `on_true` mode can
//!    be planned to from the boot mode *and back*, through the same
//!    scope-restricted lazy planner the control plane uses, and every
//!    step of those plans is invariant-safe. Per step, the tree walk
//!    ([`sada_expr::Expr::eval`], not the kernels it polices) runs over
//!    exactly the invariants that mention a component on which the step
//!    differs from the boot configuration — the plan's own diff, a subset
//!    of the cluster's scope. That is exact: any other invariant reads in
//!    the step what it read at boot, where the compile checked all of them;
//! 3. the session workload is well-formed (unique nonzero ids, in-range
//!    non-duplicate flips).

use std::collections::BTreeSet;
use std::rc::Rc;

use sada_expr::Config;
use sada_fleet::{FleetWorld, ScopeNormalizer, ScopedLazyPlanner};
use sada_plan::Path;
use sada_proto::AdaptationPlanner;

use crate::gen::GeneratedScenario;

/// Compiles the spec and checks the three validity properties; `Err`
/// carries the first failure.
pub fn validate(scenario: &GeneratedScenario) -> Result<(), String> {
    let world = FleetWorld::try_from_spec(scenario.spec.clone()).map_err(|e| e.to_string())?;
    let world = Rc::new(world);
    let init = world.initial_config();
    for g in 0..world.groups {
        let scope = world.scope_comps(&[(g, true)]);
        // The same scoped action filter the control plane applies.
        let scoped_ixs = world.search.scoped_action_ixs(&scope);
        let scoped = scoped_ixs.iter().map(|&ix| &world.actions[ix as usize]);
        if ScopeNormalizer::from_compiled(&world.inv, world.search.compiled(), &scope, scoped)
            .is_none()
        {
            return Err(format!("cluster {g}: scope does not normalize (cache-ineligible)"));
        }
        // Reachability, both directions, with per-step safety.
        let mut planner = ScopedLazyPlanner::new(Rc::clone(&world), &scope);
        let there = world.target_for(&init, &[(g, true)]);
        for (label, src, dst) in [("forward", &init, &there), ("backward", &there, &init)] {
            let paths = planner.paths(src, dst, 1);
            let Some(path) = paths.first() else {
                return Err(format!("cluster {g}: {label} goal unreachable"));
            };
            check_plan(&world, &init, path).map_err(|why| format!("cluster {g}: {label} {why}"))?;
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

/// Property 2 for one plan, given that `init` satisfies every invariant of
/// `world`: the plan is well-formed, and per step the tree walk passes every
/// invariant whose support meets the step's diff against `init`.
fn check_plan(world: &FleetWorld, init: &Config, path: &Path) -> Result<(), &'static str> {
    if !path.is_well_formed() {
        return Err("plan is malformed");
    }
    let (compiled, exprs) = (world.search.compiled(), world.inv.exprs());
    let safe = |cfg: &Config| {
        let moved = init.diff_ids(cfg);
        compiled.affected_by_ids(&moved).iter().all(|&p| exprs[p as usize].eval(cfg))
    };
    if !path.steps.iter().all(|step| safe(&step.to)) {
        return Err("plan passes through unsafe state");
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
    /// for cluster 0 that end wherever the case says.
    #[test]
    fn a_plan_through_an_unsafe_state_is_rejected_inside_its_scope_and_outside() {
        let world = FleetWorld::from_spec(WorldSpec::video(2));
        let init = world.initial_config();
        let id = |name: &str| world.universe.id(name).expect("video names its components");
        let plan_to = |to: &Config| {
            let step =
                PathStep { from: init.clone(), to: to.clone(), action: ActionId(0), cost: 1 };
            Path { steps: vec![step], cost: 1 }
        };
        let flipped = world.target_for(&init, &[(0, true)]);
        assert_eq!(check_plan(&world, &init, &plan_to(&flipped)), Ok(()));

        let mut both = init.clone();
        both.insert(id("New0"));
        let unsafe_state = Err("plan passes through unsafe state");
        assert_eq!(check_plan(&world, &init, &plan_to(&both)), unsafe_state, "inside the scope");
        // A step that strays from its cluster meets the other cluster's
        // invariant through its own diff, whatever the scope was.
        let mut strayed = flipped.clone();
        strayed.insert(id("New1"));
        assert_eq!(check_plan(&world, &init, &plan_to(&strayed)), unsafe_state, "outside it");

        let miscounted = Path { cost: 2, ..plan_to(&flipped) };
        assert_eq!(check_plan(&world, &init, &miscounted), Err("plan is malformed"));
    }
}
