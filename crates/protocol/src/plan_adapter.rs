//! Bridges the eager SAG planner into the manager's [`AdaptationPlanner`]
//! interface and compiles paths into per-process steps.

use std::collections::{BTreeMap, HashSet};

use sada_expr::{CompId, Config};
use sada_model::SystemModel;
use sada_plan::{Action, ActionId, Path, Sag};

use crate::manager::{AdaptationPlanner, PlannedStep};
use crate::messages::LocalAction;

/// An [`AdaptationPlanner`] backed by a fully-built SAG (Yen's algorithm
/// supplies the ranked alternatives the failure ladder consumes) and a
/// [`SystemModel`] for participant assignment.
pub struct SagPlanner {
    sag: Sag,
    actions: Vec<Action>,
    model: SystemModel,
    /// Maps a process (by [`SystemModel`] id index) to the agent index the
    /// manager addresses. Usually the identity.
    agent_of_process: Vec<usize>,
    drain_actions: HashSet<ActionId>,
}

impl SagPlanner {
    /// Builds a planner.
    ///
    /// * `sag` — the safe adaptation graph for this adaptation's scope.
    /// * `actions` — the full action table (indexed by [`ActionId`]).
    /// * `model` — component placement; every component any action touches
    ///   must be placed.
    /// * `agent_of_process` — agent index per process id index.
    /// * `drain_actions` — actions whose global safe condition requires the
    ///   stream to drain (the paper's expensive encoder/decoder compound
    ///   actions, A6–A15 in Table 2).
    pub fn new(
        sag: Sag,
        actions: Vec<Action>,
        model: SystemModel,
        agent_of_process: Vec<usize>,
        drain_actions: HashSet<ActionId>,
    ) -> Self {
        assert_eq!(agent_of_process.len(), model.process_count(), "one agent mapping per process");
        SagPlanner { sag, actions, model, agent_of_process, drain_actions }
    }

    fn locals_for(&self, action: &Action) -> Vec<(usize, LocalAction)> {
        let needs_drain = self.drain_actions.contains(&action.id());
        let mut per_agent: BTreeMap<usize, (Vec<CompId>, Vec<CompId>)> = BTreeMap::new();
        for &comp in action.removes() {
            let p = self.model.host_of(comp).expect("touched component must be placed");
            per_agent.entry(self.agent_of_process[p.index()]).or_default().0.push(comp);
        }
        for &comp in action.adds() {
            let p = self.model.host_of(comp).expect("touched component must be placed");
            per_agent.entry(self.agent_of_process[p.index()]).or_default().1.push(comp);
        }
        per_agent
            .into_iter()
            .map(|(agent, (removes, adds))| {
                (
                    agent,
                    LocalAction {
                        action: action.id(),
                        removes,
                        adds,
                        needs_global_drain: needs_drain,
                    },
                )
            })
            .collect()
    }
}

impl AdaptationPlanner for SagPlanner {
    /// Candidate paths, cheapest first. This ranking must be a pure function
    /// of `(from, to, k)`: [`ManagerCore::restore`] re-derives a journaled
    /// `PathSelected` decision by re-querying the planner, so a
    /// non-deterministic ranking would make a crashed manager unrecoverable.
    /// Yen's algorithm over the eager SAG satisfies this — ties are broken
    /// by deterministic vertex order, never by iteration over unordered
    /// maps.
    ///
    /// [`ManagerCore::restore`]: crate::ManagerCore::restore
    fn paths(&mut self, from: &Config, to: &Config, k: usize) -> Vec<Path> {
        self.sag.k_shortest_paths(from, to, k)
    }

    fn compile(&mut self, path: &Path) -> Vec<PlannedStep> {
        path.steps
            .iter()
            .map(|s| {
                let action = &self.actions[s.action.index()];
                PlannedStep {
                    action: s.action,
                    from: s.from.clone(),
                    to: s.to.clone(),
                    cost: s.cost,
                    locals: self.locals_for(action),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sada_expr::{enumerate, InvariantSet, Universe};

    fn setup() -> (Universe, SagPlanner) {
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
        let sag = Sag::build(enumerate::safe_configs(&u, &inv), &actions);
        let mut model = SystemModel::new();
        let server = model.add_process();
        let client = model.add_process();
        model.place_all(&u, &[("E1", server), ("E2", server), ("D1", client), ("D2", client)]);
        let drain: HashSet<ActionId> = [ActionId(2)].into();
        let planner = SagPlanner::new(sag, actions, model, vec![0, 1], drain);
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

    use sada_plan::Path;

    #[test]
    #[should_panic(expected = "one agent mapping per process")]
    fn mismatched_agent_table_panics() {
        let (_u, p) = setup();
        let SagPlanner { sag, actions, model, .. } = p;
        let _ = SagPlanner::new(sag, actions, model, vec![0], HashSet::new());
    }
}
