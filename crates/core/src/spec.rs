//! The analysis-phase data structure *P = (S, I, T, R, A)* (Section 4.1).

use std::collections::HashSet;

use sada_expr::{enumerate, Config, InvariantSet, Universe};
use sada_model::SystemModel;
use sada_plan::{Action, ActionId, Path, Sag};
use sada_proto::SagPlanner;

/// Everything the developers prepare at development time (Section 4.1):
///
/// * *S* — the configuration space, implied by the component [`Universe`];
/// * *I* — the conjunction of dependency-relationship predicates;
/// * *T* — the set of adaptive [`Action`]s;
/// * *R* — the mapping from actions to implementation code, represented
///   here by per-process [`LocalAction`]s compiled for the runtime (the
///   actual reconfiguration code lives with the application's agents);
/// * *A* — the fixed cost of each action (carried on [`Action`]).
///
/// Plus the deployment information the runtime needs: which process hosts
/// which component ([`SystemModel`]) and which actions require draining
/// in-flight traffic before their global safe state holds.
///
/// [`LocalAction`]: sada_proto::LocalAction
#[derive(Debug)]
pub struct AdaptationSpec {
    universe: Universe,
    invariants: InvariantSet,
    actions: Vec<Action>,
    model: SystemModel,
    drain_actions: HashSet<ActionId>,
}

impl AdaptationSpec {
    /// Bundles a fully-specified system.
    ///
    /// # Panics
    ///
    /// Panics if action ids are not the dense sequence `0..n` (the planner
    /// indexes the table by id).
    pub fn new(
        universe: Universe,
        invariants: InvariantSet,
        actions: Vec<Action>,
        model: SystemModel,
        drain_actions: HashSet<ActionId>,
    ) -> Self {
        for (ix, a) in actions.iter().enumerate() {
            assert_eq!(a.id().index(), ix, "action ids must be dense and ordered");
        }
        AdaptationSpec { universe, invariants, actions, model, drain_actions }
    }

    /// The component universe.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The dependency invariants *I*.
    pub fn invariants(&self) -> &InvariantSet {
        &self.invariants
    }

    /// The adaptive action table *T* (with costs *A*).
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Component placement and process structure.
    pub fn model(&self) -> &SystemModel {
        &self.model
    }

    /// Actions whose global safe condition requires draining the stream.
    pub(crate) fn drain_actions(&self) -> &HashSet<ActionId> {
        &self.drain_actions
    }

    /// Detection-and-setup step 1: the safe configuration set.
    pub fn safe_configs(&self) -> Vec<Config> {
        enumerate::safe_configs(&self.universe, &self.invariants)
    }

    /// Detection-and-setup step 2: the safe adaptation graph.
    pub fn build_sag(&self) -> Sag {
        Sag::build(self.safe_configs(), &self.actions)
    }

    /// Detection-and-setup step 3: the minimum adaptation path, or `None`
    /// when no safe path connects the configurations.
    pub fn minimum_adaptation_path(&self, source: &Config, target: &Config) -> Option<Path> {
        self.build_sag().shortest_path(source, target)
    }

    /// Builds the runtime planner handed to the adaptation manager.
    pub fn runtime_planner(&self) -> SagPlanner {
        SagPlanner::new(
            self.build_sag(),
            self.actions.clone(),
            self.model.clone(),
            self.drain_actions.clone(),
        )
    }

    /// True when `cfg` satisfies every dependency invariant.
    pub fn is_safe(&self, cfg: &Config) -> bool {
        self.invariants.satisfied_by(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sada_expr::InvariantSet;

    fn tiny() -> AdaptationSpec {
        let mut u = Universe::new();
        for n in ["A", "B"] {
            u.intern(n);
        }
        let inv = InvariantSet::parse(&["one_of(A, B)"], &mut u).unwrap();
        let actions =
            vec![Action::replace(0, "A->B", &u.config_of(&["A"]), &u.config_of(&["B"]), 3)];
        let mut model = SystemModel::new();
        let p = model.add_process();
        model.place_all(&u, &[("A", p), ("B", p)]);
        AdaptationSpec::new(u, inv, actions, model, HashSet::new())
    }

    #[test]
    fn phases_fit_together() {
        let spec = tiny();
        assert_eq!(spec.safe_configs().len(), 2);
        let sag = spec.build_sag();
        assert_eq!(sag.node_count(), 2);
        assert_eq!(sag.edge_count(), 1);
        let u = spec.universe();
        let map = spec.minimum_adaptation_path(&u.config_of(&["A"]), &u.config_of(&["B"])).unwrap();
        assert_eq!(map.cost, 3);
        let lazy = sada_plan::lazy::plan(
            spec.invariants(),
            spec.actions(),
            &u.config_of(&["A"]),
            &u.config_of(&["B"]),
        )
        .unwrap();
        assert_eq!(lazy.cost, map.cost);
        assert!(spec.is_safe(&u.config_of(&["A"])));
        assert!(!spec.is_safe(&u.config_of(&["A", "B"])));
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn non_dense_action_ids_rejected() {
        let mut u = Universe::new();
        u.intern("A");
        let inv = InvariantSet::new();
        let actions = vec![Action::insert(5, "+A", &u.config_of(&["A"]), 1)];
        let model = SystemModel::new();
        let _ = AdaptationSpec::new(u, inv, actions, model, HashSet::new());
    }
}
