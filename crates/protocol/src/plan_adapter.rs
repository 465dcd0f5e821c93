//! Bridges the lazy search into the manager's [`AdaptationPlanner`]
//! interface and compiles paths into per-process steps.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};

use sada_expr::{CompId, Config};
use sada_model::SystemModel;
use sada_plan::{Action, ActionId, Path, PathStep, Search};

use crate::manager::{AdaptationPlanner, PlannedStep};
use crate::messages::LocalAction;

/// An [`AdaptationPlanner`] over a compiled [`Search`] of the implicit SAG,
/// whose Yen ranking supplies the failure ladder's alternatives, and a
/// [`SystemModel`] for participant assignment.
pub struct SearchPlanner {
    search: Search,
    model: SystemModel,
    drain_actions: HashSet<ActionId>,
}

impl SearchPlanner {
    /// A planner over `search` (its action table indexed by [`ActionId`]).
    /// `model` places every component an action touches, agent `p` driving
    /// process `p`; `drain_actions` need the stream drained for their global
    /// safe condition (the paper's encoder/decoder pairs, A6–A15).
    pub fn new(search: Search, model: SystemModel, drain_actions: HashSet<ActionId>) -> Self {
        SearchPlanner { search, model, drain_actions }
    }
}

impl AdaptationPlanner for SearchPlanner {
    /// [`Search::k_paths`]: a pure, prefix-stable function of `(from, to,
    /// k)`, as [`ManagerCore::restore`](crate::ManagerCore::restore) needs to
    /// re-derive a journaled `PathSelected` by asking again.
    fn paths(&mut self, from: &Config, to: &Config, k: usize) -> Vec<Path> {
        self.search.k_paths(from, to, k)
    }

    fn compile(&mut self, path: &Path) -> Vec<PlannedStep> {
        let action = |id: ActionId| Cow::Borrowed(&self.search.actions()[id.index()]);
        let agent = |comp| self.model.host_of(comp).map(|p| p.index());
        let drains = |a| self.drain_actions.contains(&a);
        compile_steps(path, action, agent, drains)
    }
}

/// Compiles `path` into per-process steps: each step's action (`action`
/// looks it up by id) is split by the process hosting each component it
/// touches, and each share goes to the agent driving that process — agent
/// `p` for process `p`, which `agent` gives. `drains` names the actions
/// whose global safe condition requires the stream to drain.
pub fn compile_steps<'a>(
    path: &Path,
    action: impl Fn(ActionId) -> Cow<'a, Action>,
    agent: impl Fn(CompId) -> Option<usize>,
    drains: impl Fn(ActionId) -> bool,
) -> Vec<PlannedStep> {
    let agent = |comp| agent(comp).expect("touched component must be placed");
    let locals_for = |action: &Action| {
        let mut per_agent: BTreeMap<usize, (Vec<CompId>, Vec<CompId>)> = BTreeMap::new();
        for &comp in action.removes() {
            per_agent.entry(agent(comp)).or_default().0.push(comp);
        }
        for &comp in action.adds() {
            per_agent.entry(agent(comp)).or_default().1.push(comp);
        }
        let needs_global_drain = drains(action.id());
        let local = |(agent, (removes, adds))| {
            (agent, LocalAction { action: action.id(), removes, adds, needs_global_drain })
        };
        per_agent.into_iter().map(local).collect()
    };
    let step = |s: &PathStep| PlannedStep {
        action: s.action,
        from: s.from.clone(),
        to: s.to.clone(),
        cost: s.cost,
        locals: locals_for(&action(s.action)),
    };
    path.steps.iter().map(step).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sada_expr::{InvariantSet, Universe};

    fn setup() -> (Universe, SearchPlanner) {
        let mut u = Universe::new();
        for n in ["E1", "E2", "D1", "D2"] {
            u.intern(n);
        }
        let inv =
            InvariantSet::parse(&["one_of(E1, E2)", "one_of(D1, D2)", "E2 => D2"], &mut u).unwrap();
        let actions = vec![
            Action::replace(0, "D1->D2", &u.config_of(&["D1"]), &u.config_of(&["D2"]), 10),
            Action::replace(1, "E1->E2", &u.config_of(&["E1"]), &u.config_of(&["E2"]), 10),
            Action::replace(
                2,
                "(E1,D1)->(E2,D2)",
                &u.config_of(&["E1", "D1"]),
                &u.config_of(&["E2", "D2"]),
                100,
            ),
        ];
        let search = Search::new(&inv, &actions, u.len());
        let mut model = SystemModel::new();
        let server = model.add_process();
        let client = model.add_process();
        model.place_all(&u, &[("E1", server), ("E2", server), ("D1", client), ("D2", client)]);
        let drain: HashSet<ActionId> = [ActionId(2)].into();
        let planner = SearchPlanner::new(search, model, drain);
        (u, planner)
    }

    #[test]
    fn paths_ranked_by_cost() {
        let (u, mut p) = setup();
        let src = u.config_of(&["E1", "D1"]);
        let dst = u.config_of(&["E2", "D2"]);
        let paths = p.paths(&src, &dst, 4);
        assert!(paths.len() >= 2);
        assert_eq!(paths[0].cost, 20, "two single replaces beat the pair");
        assert!(paths[1].cost >= paths[0].cost);
    }

    #[test]
    fn compile_assigns_participants_by_placement() {
        let (u, mut p) = setup();
        let src = u.config_of(&["E1", "D1"]);
        let dst = u.config_of(&["E2", "D2"]);
        let path = p.paths(&src, &dst, 1).remove(0);
        let steps = p.compile(&path);
        assert_eq!(steps.len(), 2);
        for step in &steps {
            assert_eq!(step.locals.len(), 1, "single replaces touch one process");
        }
        // D1->D2 runs on the client (agent 1), E1->E2 on the server (agent 0).
        let agents: HashSet<usize> =
            steps.iter().flat_map(|s| s.locals.iter().map(|(a, _)| *a)).collect();
        assert_eq!(agents, [0usize, 1].into());
    }

    #[test]
    fn compound_action_spans_processes_and_drains() {
        let (u, mut p) = setup();
        let pair = Path {
            steps: vec![sada_plan::PathStep {
                from: u.config_of(&["E1", "D1"]),
                to: u.config_of(&["E2", "D2"]),
                action: ActionId(2),
                cost: 100,
            }],
            cost: 100,
        };
        let steps = p.compile(&pair);
        assert_eq!(steps[0].locals.len(), 2, "both processes participate");
        for (_, la) in &steps[0].locals {
            assert!(la.needs_global_drain, "pair actions require draining");
            assert_eq!(la.removes.len(), 1);
            assert_eq!(la.adds.len(), 1);
        }
    }

    #[test]
    fn path_ranking_is_deterministic_across_queries() {
        // Journal replay after a manager crash re-asks the planner for the
        // same candidates; repeated queries must return the identical list.
        let (u, mut p) = setup();
        let src = u.config_of(&["E1", "D1"]);
        let dst = u.config_of(&["E2", "D2"]);
        let first = p.paths(&src, &dst, 8);
        for _ in 0..3 {
            assert_eq!(p.paths(&src, &dst, 8), first, "ranking must be stable");
        }
        let (_, mut fresh) = setup();
        assert_eq!(fresh.paths(&src, &dst, 8), first, "and identical across incarnations");
    }
}
