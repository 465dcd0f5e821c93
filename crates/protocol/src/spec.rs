//! The analysis-phase product *P = (S, I, T, R, A)* (Section 4.1) and
//! [`SpecBuilder`], the one compiler of it: the spec-file syntax, the case
//! study and every fleet world are pushed through it, and a bad entry is a
//! [`SpecError`], never a panic.

use std::collections::HashSet;
use std::fmt;

use sada_expr::{enumerate, is_component_name, CompId, Config, Expr, InvariantSet, Universe};
use sada_model::{ProcessId, SystemModel};
use sada_plan::{Action, ActionId, Path, Sag, Search};

use crate::plan_adapter::SearchPlanner;

/// Why a specification does not compile (see [`SpecBuilder`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(String);

impl SpecError {
    /// `Ok` when `holds`, otherwise the error `why` describes.
    pub fn ensure(holds: bool, why: impl FnOnce() -> String) -> Result<(), SpecError> {
        if holds {
            Ok(())
        } else {
            Err(SpecError(why()))
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

impl From<String> for SpecError {
    fn from(why: String) -> Self {
        SpecError(why)
    }
}

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
/// which component and which channels connect them ([`SystemModel`]), and
/// which actions require draining in-flight traffic before their global
/// safe state holds. Only [`SpecBuilder::finish`] makes one.
///
/// [`LocalAction`]: crate::LocalAction
#[derive(Debug, Default)]
pub struct AdaptationSpec {
    universe: Universe,
    invariants: InvariantSet,
    actions: Vec<Action>,
    model: SystemModel,
    drain_actions: HashSet<ActionId>,
}

impl AdaptationSpec {
    /// The component universe.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The dependency invariants *I*.
    pub fn invariants(&self) -> &InvariantSet {
        &self.invariants
    }

    /// The adaptive action table *T* (with costs *A*); an action's id is
    /// its index.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Component placement, process structure and channels.
    pub fn model(&self) -> &SystemModel {
        &self.model
    }

    /// Actions whose global safe condition requires draining the stream.
    pub fn drain_actions(&self) -> &HashSet<ActionId> {
        &self.drain_actions
    }

    /// The universe, invariants, actions and model, without the drain set.
    pub fn into_parts(self) -> (Universe, InvariantSet, Vec<Action>, SystemModel) {
        (self.universe, self.invariants, self.actions, self.model)
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

    /// The runtime planner handed to the adaptation manager: the lazy
    /// search, which enumerates no safe configuration and builds no SAG.
    pub fn runtime_planner(&self) -> SearchPlanner {
        let search = Search::new(&self.invariants, &self.actions, self.universe.len());
        SearchPlanner::new(search, self.model.clone(), self.drain_actions.clone())
    }

    /// True when `cfg` satisfies every dependency invariant.
    pub fn is_safe(&self, cfg: &Config) -> bool {
        self.invariants.satisfied_by(cfg)
    }
}

/// The one specification compiler. Processes are declared first, then
/// each component by name on a declared process; invariants may mention
/// declared components only; actions name components by index and get the
/// next dense id. Every entry is checked as it arrives, so what compiles
/// is well-formed by construction.
#[derive(Debug, Default)]
pub struct SpecBuilder(AdaptationSpec);

impl SpecBuilder {
    /// An empty specification with room for `[components, invariants,
    /// actions]`.
    pub fn with_capacity(sizes: [usize; 3]) -> Self {
        let [comps, invariants, actions] = sizes;
        SpecBuilder(AdaptationSpec {
            universe: Universe::with_capacity(comps),
            invariants: InvariantSet::with_capacity(invariants),
            actions: Vec::with_capacity(actions),
            model: SystemModel::with_capacity(comps),
            drain_actions: HashSet::new(),
        })
    }

    /// A builder holding `spec`'s components, invariants, placement and
    /// channels, and none of its actions.
    pub fn system_of(spec: &AdaptationSpec) -> Self {
        SpecBuilder(AdaptationSpec {
            universe: spec.universe.clone(),
            invariants: spec.invariants.clone(),
            model: spec.model.clone(),
            ..AdaptationSpec::default()
        })
    }

    /// Declares `n` more processes; the next one declared is process
    /// [`SystemModel::process_count`].
    pub fn processes(&mut self, n: usize) {
        for _ in 0..n {
            self.0.model.add_process();
        }
    }

    /// Declares the next component: `name`, hosted on `process`. Refuses a
    /// name no invariant could mention or one declared before, and a
    /// process not declared.
    pub fn comp(&mut self, name: &str, process: usize) -> Result<CompId, SpecError> {
        SpecError::ensure(is_component_name(name), || {
            format!("{name:?} is not a component name an invariant can mention")
        })?;
        SpecError::ensure(process < self.0.model.process_count(), || {
            format!("component {name}: process {process} out of range")
        })?;
        let declared = self.0.universe.len();
        let id = self.0.universe.intern(name);
        SpecError::ensure(id.index() == declared, || {
            format!("component names must be unique: {name} is declared twice")
        })?;
        self.0.model.place(id, ProcessId(process as u32));
        Ok(id)
    }

    /// The index of the declared component `name`, if there is one.
    pub fn comp_index(&self, name: &str) -> Result<usize, SpecError> {
        let id = self.0.universe.id(name);
        id.map(CompId::index).ok_or_else(|| SpecError(format!("undeclared component {name:?}")))
    }

    /// Parses `sources` as the next invariants, over the declared
    /// components only; an error names the first failing source by its
    /// index among all the invariants.
    pub fn parse_invariants(&mut self, sources: &[&str]) -> Result<(), SpecError> {
        let declared = self.0.universe.len();
        self.0.invariants.extend_parsed(sources, &mut self.0.universe).map_err(|e| {
            SpecError(format!("invariant {} does not parse: {e}", self.0.invariants.exprs().len()))
        })?;
        SpecError::ensure(self.0.universe.len() == declared, || {
            let name = self.0.universe.name(CompId::from_index(declared));
            format!("invariants may only mention declared components, not {name}")
        })
    }

    /// Adds `e`, over the declared components only, as the next invariant.
    pub fn push_invariant(&mut self, e: Expr) -> Result<(), SpecError> {
        let mut top = None;
        e.for_each_var(&mut |c| top = top.max(Some(c.index())));
        SpecError::ensure(top.is_none_or(|c| c < self.0.universe.len()), || {
            format!(
                "invariant {} mentions an undeclared component",
                self.0.invariants.exprs().len()
            )
        })?;
        self.0.invariants.push(e);
        Ok(())
    }

    /// Adds the next action: its name, the indices of the components it
    /// removes and adds, its cost, and whether its global safe condition
    /// requires draining in-flight traffic. Refuses an index out of range,
    /// a component both removed and added, a cost of 0 (the runtime
    /// planner's tie rule needs positive costs, see [`sada_plan::lazy`]),
    /// and more actions than `u32` ids.
    pub fn action(
        &mut self,
        name: &str,
        removes: &[usize],
        adds: &[usize],
        cost: u64,
        drain: bool,
    ) -> Result<ActionId, SpecError> {
        let width = self.0.universe.len();
        for (list, comps) in [("removes", removes), ("adds", adds)] {
            SpecError::ensure(comps.iter().all(|&c| c < width), || {
                format!("action {name}: {list} out of range")
            })?;
        }
        let overlap = removes.iter().any(|c| adds.contains(c));
        SpecError::ensure(!overlap, || format!("action {name}: removes and adds overlap"))?;
        SpecError::ensure(cost > 0, || format!("action {name}: cost 0"))?;
        let id = u32::try_from(self.0.actions.len())
            .map_err(|_| SpecError(format!("action {name}: past u32 action ids")))?;
        self.0.actions.push(Action::from_ids(id, name, ids(removes), ids(adds), cost));
        if drain {
            self.0.drain_actions.insert(ActionId(id));
        }
        Ok(ActionId(id))
    }

    /// Adds the directed channel `from → to` between two declared
    /// components.
    pub fn channel(&mut self, from: usize, to: usize) -> Result<(), SpecError> {
        let width = self.0.universe.len();
        SpecError::ensure(from < width && to < width, || {
            format!("channel {from} -> {to}: out of range")
        })?;
        self.0.model.connect(CompId::from_index(from), CompId::from_index(to));
        Ok(())
    }

    /// The compiled specification.
    pub fn finish(self) -> AdaptationSpec {
        self.0
    }
}

/// Component indices as ids.
fn ids(comps: &[usize]) -> impl Iterator<Item = CompId> + '_ {
    comps.iter().map(|&c| CompId::from_index(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `one_of(A, B)` on one process with the action `A -> B`.
    fn tiny() -> AdaptationSpec {
        let mut b = SpecBuilder::default();
        b.processes(1);
        b.comp("A", 0).unwrap();
        b.comp("B", 0).unwrap();
        b.parse_invariants(&["one_of(A, B)"]).unwrap();
        b.action("A->B", &[0], &[1], 3, false).unwrap();
        b.finish()
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

    /// Each entry is refused where it arrives, with the builder's wording.
    #[test]
    fn bad_entries_are_errors() {
        let mut b = SpecBuilder::default();
        b.processes(1);
        let refused = |r: Result<CompId, SpecError>| r.unwrap_err().to_string();
        assert_eq!(refused(b.comp("A", 1)), "component A: process 1 out of range");
        assert_eq!(
            refused(b.comp("A-1", 0)),
            "\"A-1\" is not a component name an invariant can mention"
        );
        b.comp("A", 0).unwrap();
        assert_eq!(refused(b.comp("A", 0)), "component names must be unique: A is declared twice");
        assert_eq!(b.comp_index("B").unwrap_err().to_string(), "undeclared component \"B\"");
        let bad_var = Expr::var(CompId::from_index(1));
        assert!(b.push_invariant(bad_var).is_err());
        assert_eq!(
            b.action("a", &[0], &[1], 1, false).unwrap_err().to_string(),
            "action a: adds out of range"
        );
        assert_eq!(
            b.action("a", &[0], &[0], 1, true).unwrap_err().to_string(),
            "action a: removes and adds overlap"
        );
        assert_eq!(b.action("a", &[0], &[], 0, false).unwrap_err().to_string(), "action a: cost 0");
        assert_eq!(b.channel(0, 1).unwrap_err().to_string(), "channel 0 -> 1: out of range");
        assert_eq!(b.action("-A", &[0], &[], 1, true), Ok(ActionId(0)));
        assert!(b.finish().drain_actions().contains(&ActionId(0)));
    }
}
