//! The fleet world: component clusters, each its own collaborative set,
//! hosted across agent processes.
//!
//! Historically this module hard-coded one shape — the paper's video
//! multicast cloned `N` times (`Old{g}`/`New{g}` under
//! `one_of(Old{g}, New{g})`). That shape is now just one [`WorldSpec`]:
//! a declarative description of components, invariants, actions with
//! *two* cost columns (milliseconds and watts), cluster structure, and
//! placement, from which [`FleetWorld::from_spec`] compiles the runtime
//! world. The seeded scenario generator (`sada-scenario`) emits specs for
//! the serverless codec-fleet and IaaS-migration domains through the same
//! entry point, so every domain runs on the identical safety machinery.
//!
//! A **cluster** is the unit the fleet drivers flip: a set of components
//! with two named modes (`on_false`, the boot mode, and `on_true`, the
//! alternate). Session flips `(g, to_true)` move cluster `g` between its
//! modes. Generators must keep each cluster's invariants and actions
//! confined to the cluster's components so clusters remain independent
//! collaborative sets — the property region partitioning and the plan
//! cache's scope normalizer rely on.
//!
//! A compiled world is flat tables end to end, so that compiling and
//! dropping one costs a few dozen allocations per *table*, not per group:
//! the invariant kernels, the search's affected-predicate lists, touch
//! index and action-index buckets, and the collaborative-set partition are
//! `Csr`s or plain vectors ([`sada_expr::CompiledInvariants`],
//! [`sada_plan::Search`], [`sada_plan::CollabIndex`]); placement is a dense
//! component → process vector and process names are one string table
//! ([`sada_model::SystemModel`]). What is left per group is what a world
//! *returns*: its spec, one shared name per component, one operand list
//! per invariant, and a name and an id list per action. The action table
//! has one owner, [`CompiledWorld::actions`] (`Arc<[Action]>`); the
//! world's `search` holds a second handle on that allocation, not a copy.

use std::ops::Deref;
use std::sync::Arc;

use sada_expr::{CompId, Config, InvariantSet, Universe};
use sada_model::SystemModel;
use sada_plan::{Action, CollabIndex, Search};

/// Which adaptation domain a world models. Tagged into the observability
/// stream (non-video domains) so event consumers can tell workloads apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// The paper's video-multicast case study, cloned per group.
    Video,
    /// Serverless fleet: per-function codecs hot-swapped under load.
    Serverless,
    /// IaaS migration: live VM/host reconfiguration with network-bound
    /// costs and an optional energy objective.
    Iaas,
}

impl Domain {
    /// Stable numeric tag used by the observability codec.
    pub fn tag(self) -> u32 {
        match self {
            Domain::Video => 0,
            Domain::Serverless => 1,
            Domain::Iaas => 2,
        }
    }

    /// Human-readable label.
    pub fn name(self) -> &'static str {
        match self {
            Domain::Video => "video",
            Domain::Serverless => "serverless",
            Domain::Iaas => "iaas",
        }
    }
}

/// Which of an action's two cost columns MAP minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Minimize milliseconds of adaptation disruption (the paper's model).
    LatencyMs,
    /// Minimize watts drawn by the reconfiguration (energy-aware IaaS).
    EnergyWatts,
}

impl Objective {
    /// Stable numeric tag used by the observability codec.
    pub fn tag(self) -> u32 {
        match self {
            Objective::LatencyMs => 0,
            Objective::EnergyWatts => 1,
        }
    }

    /// Human-readable label.
    pub fn name(self) -> &'static str {
        match self {
            Objective::LatencyMs => "latency_ms",
            Objective::EnergyWatts => "energy_watts",
        }
    }
}

/// One component: a unique name and the process hosting it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompSpec {
    /// Unique component name (interned into the universe in declaration
    /// order, so indices into `WorldSpec::comps` are `CompId` indices).
    pub name: String,
    /// Hosting process index. Processes are created densely `0..=max`.
    pub process: usize,
}

/// One adaptive action over component indices, with both cost columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionSpec {
    /// Human-readable label, e.g. `"vm3: hostA -> transit"`.
    pub name: String,
    /// Component indices removed by the action.
    pub removes: Vec<usize>,
    /// Component indices added by the action.
    pub adds: Vec<usize>,
    /// Latency cost column (paper's "Cost (ms)").
    pub cost_ms: u64,
    /// Energy cost column (watts drawn during the step).
    pub cost_watts: u64,
}

/// A flip unit: the components of one cluster and its two modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpec {
    /// All component indices of the cluster (one collaborative set).
    pub comps: Vec<usize>,
    /// Components present in the boot mode (flip direction `false`).
    pub on_false: Vec<usize>,
    /// Components present in the alternate mode (flip direction `true`).
    pub on_true: Vec<usize>,
}

/// Declarative description of a fleet world, compiled by
/// [`FleetWorld::from_spec`]. The video clone, the serverless codec fleet
/// and the IaaS-migration domain are all instances of this one shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldSpec {
    /// Which domain the spec models (observability tag).
    pub domain: Domain,
    /// Which cost column MAP minimizes.
    pub objective: Objective,
    /// Components in interning order.
    pub comps: Vec<CompSpec>,
    /// Invariant sources over component names (parsed as one set).
    pub invariants: Vec<String>,
    /// Action repertoire; an action's **position is its id** (the planner
    /// compiles `ActionId` indices back into this table).
    pub actions: Vec<ActionSpec>,
    /// Flip units. Every component belongs to exactly one cluster.
    pub clusters: Vec<ClusterSpec>,
}

impl WorldSpec {
    /// The classic video world: `groups` independent `Old/New` pairs, one
    /// `one_of` invariant and a forward/backward replace pair per group,
    /// each component on its own process.
    pub fn video(groups: usize) -> Self {
        assert!(groups > 0, "a fleet needs at least one group");
        let mut comps = Vec::with_capacity(2 * groups);
        let mut invariants = Vec::with_capacity(groups);
        let mut actions = Vec::with_capacity(2 * groups);
        let mut clusters = Vec::with_capacity(groups);
        for g in 0..groups {
            comps.push(CompSpec { name: format!("Old{g}"), process: 2 * g });
            comps.push(CompSpec { name: format!("New{g}"), process: 2 * g + 1 });
            invariants.push(format!("one_of(Old{g}, New{g})"));
            actions.push(ActionSpec {
                name: format!("fwd{g}"),
                removes: vec![2 * g],
                adds: vec![2 * g + 1],
                cost_ms: 1,
                cost_watts: 1,
            });
            actions.push(ActionSpec {
                name: format!("back{g}"),
                removes: vec![2 * g + 1],
                adds: vec![2 * g],
                cost_ms: 1,
                cost_watts: 1,
            });
            clusters.push(ClusterSpec {
                comps: vec![2 * g, 2 * g + 1],
                on_false: vec![2 * g],
                on_true: vec![2 * g + 1],
            });
        }
        WorldSpec {
            domain: Domain::Video,
            objective: Objective::LatencyMs,
            comps,
            invariants,
            actions,
            clusters,
        }
    }

    /// Number of hosting processes (dense `0..=max` over `comps`).
    pub(crate) fn process_count(&self) -> usize {
        self.comps.iter().map(|c| c.process + 1).max().unwrap_or(0)
    }
}

/// Static description of a fleet: universe, invariants, actions, placement,
/// the collaborative-set index used for scope extraction, and the spec the
/// world was compiled from. These are the products of the paper's analysis
/// phase (§4.1): fixed before the first adaptation request and only read
/// afterwards, so nothing in here is ever mutated — or mutable.
pub struct CompiledWorld {
    /// Component universe, interned in `spec.comps` order.
    pub universe: Universe,
    /// Compiled invariant set.
    pub inv: InvariantSet,
    /// Action table; **an action's id equals its index** (the planner
    /// relies on this when mapping plan steps back to actions). The world
    /// owns the table; `search` reads this same allocation through a second
    /// handle rather than a copy of its own.
    pub actions: Arc<[Action]>,
    /// Placement of components onto agent processes.
    pub model: SystemModel,
    /// Process id index → agent index (identity here).
    pub(crate) agent_of_process: Vec<usize>,
    /// Collaborative-set partition (one set per cluster).
    pub index: CollabIndex,
    /// The compiled planning context over the whole world — invariant
    /// kernels, action index, inverted touch index — built **once** here
    /// and shared by every session of every control plane of a run (scoped
    /// planners restrict it to their action subset instead of compiling
    /// their own).
    pub search: Search,
    /// Number of flip units (`spec.clusters.len()`).
    pub groups: usize,
    /// The declarative spec this world was compiled from.
    pub spec: WorldSpec,
}

/// A handle on one compiled world: cloning it is a reference-count bump,
/// and every clone reads the same [`CompiledWorld`] allocation. A run
/// compiles its world once and hands a clone to every control plane —
/// across threads in the sharded driver, which is why the data behind the
/// handle must stay `Send + Sync` (asserted below).
#[derive(Clone)]
pub struct FleetWorld(Arc<CompiledWorld>);

// An `Rc`, `Cell` or `RefCell` anywhere inside the shared world must fail
// the build here, not a benchmark three PRs later.
const _: fn() = || {
    fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<FleetWorld>();
};

impl Deref for FleetWorld {
    type Target = CompiledWorld;

    fn deref(&self) -> &CompiledWorld {
        &self.0
    }
}

impl FleetWorld {
    /// Whether `a` and `b` are handles on the same compiled allocation.
    #[cfg(test)]
    pub(crate) fn ptr_eq(a: &FleetWorld, b: &FleetWorld) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// Builds the classic video world of `groups` independent groups.
    pub fn build(groups: usize) -> Self {
        Self::from_spec(WorldSpec::video(groups))
    }

    /// Compiles a [`WorldSpec`] into a runtime world, choosing the action
    /// cost column named by the spec's objective.
    ///
    /// # Panics
    ///
    /// Panics on malformed specs: duplicate component names, invariants
    /// mentioning undeclared components, out-of-range action or cluster
    /// indices, a component in zero or multiple clusters, or an initial
    /// configuration that violates the invariants.
    pub fn from_spec(spec: WorldSpec) -> Self {
        assert!(!spec.comps.is_empty(), "a world needs at least one component");
        assert!(!spec.clusters.is_empty(), "a world needs at least one cluster");
        let mut universe = Universe::with_capacity(spec.comps.len());
        for c in &spec.comps {
            universe.intern(&c.name);
        }
        assert_eq!(universe.len(), spec.comps.len(), "component names must be unique");
        let refs: Vec<&str> = spec.invariants.iter().map(String::as_str).collect();
        let inv = InvariantSet::parse(&refs, &mut universe).expect("world invariants parse");
        assert_eq!(
            universe.len(),
            spec.comps.len(),
            "invariants may only mention declared components"
        );
        let comp = |a: &ActionSpec, c: usize, list: &str| {
            assert!(c < spec.comps.len(), "action {}: {list} out of range", a.name);
            CompId::from_index(c)
        };
        // Sparse construction: a dense `Config` round trip here cost
        // O(actions × width) — gigabytes of churn at 100k groups — and the
        // id lists go straight into each action's one boxed slice.
        let actions: Arc<[Action]> = spec
            .actions
            .iter()
            .enumerate()
            .map(|(ix, a)| {
                let cost = match spec.objective {
                    Objective::LatencyMs => a.cost_ms,
                    Objective::EnergyWatts => a.cost_watts,
                }
                .max(1);
                let id = u32::try_from(ix).expect("action ids are u32");
                let removes = a.removes.iter().map(|&c| comp(a, c, "removes"));
                let adds = a.adds.iter().map(|&c| comp(a, c, "adds"));
                Action::from_ids(id, &a.name, removes, adds, cost)
            })
            .collect();
        let process_count = spec.process_count();
        let mut model = SystemModel::with_capacity(spec.comps.len());
        let procs: Vec<_> = (0..process_count).map(|_| model.add_process()).collect();
        for (ix, c) in spec.comps.iter().enumerate() {
            model.place(CompId::from_index(ix), procs[c.process]);
        }
        let agent_of_process: Vec<usize> = (0..process_count).collect();
        // Every component must belong to exactly one cluster: region
        // ownership and distillation cover the universe exactly once.
        let mut owner = vec![usize::MAX; spec.comps.len()];
        for (g, cl) in spec.clusters.iter().enumerate() {
            assert!(!cl.comps.is_empty(), "cluster {g} is empty");
            for &c in &cl.comps {
                assert!(c < spec.comps.len(), "cluster {g}: comp out of range");
                assert_eq!(owner[c], usize::MAX, "comp {c} in multiple clusters");
                owner[c] = g;
            }
            for &c in cl.on_false.iter().chain(cl.on_true.iter()) {
                assert!(cl.comps.contains(&c), "cluster {g}: mode comp outside cluster");
            }
        }
        assert!(owner.iter().all(|&g| g != usize::MAX), "every comp needs a cluster");
        let index = CollabIndex::new(&universe, &inv, &actions);
        let search = Search::sharing(&inv, Arc::clone(&actions), universe.len());
        let groups = spec.clusters.len();
        let world = CompiledWorld {
            universe,
            inv,
            actions,
            model,
            agent_of_process,
            index,
            search,
            groups,
            spec,
        };
        assert!(
            world.inv.satisfied_by(&world.initial_config()),
            "initial configuration violates the invariants"
        );
        FleetWorld(Arc::new(world))
    }
}

/// Sets each listed component of `cfg` to its paired value, as one delta:
/// `cfg` is copied at most once, and not at all when it already holds
/// every value (see [`Config::apply_delta`]).
pub(crate) fn assign(cfg: &mut Config, values: impl IntoIterator<Item = (CompId, bool)>) {
    let (mut removes, mut adds) = (Vec::new(), Vec::new());
    for (comp, present) in values {
        if present { &mut adds } else { &mut removes }.push(comp);
    }
    cfg.apply_delta(&removes, &adds);
}

impl CompiledWorld {
    /// The spec's domain.
    pub fn domain(&self) -> Domain {
        self.spec.domain
    }

    /// The spec's cost objective.
    pub fn objective(&self) -> Objective {
        self.spec.objective
    }

    /// Component indices of cluster `g` (the flip unit's full membership).
    pub fn cluster_comps(&self, g: usize) -> &[usize] {
        &self.spec.clusters[g].comps
    }

    /// The agent index driving `c`'s hosting process, if placed.
    pub(crate) fn agent_for(&self, c: CompId) -> Option<usize> {
        self.model.host_of(c).map(|p| self.agent_of_process[p.0 as usize])
    }

    /// The boot configuration: every cluster in its `on_false` mode.
    pub fn initial_config(&self) -> Config {
        let boot = self.spec.clusters.iter().flat_map(|cl| &cl.on_false);
        Config::from_ids(self.universe.len(), boot.map(|&c| CompId::from_index(c)))
    }

    /// `current` with each flipped cluster moved to its `on_true` (`true`)
    /// or `on_false` (`false`) mode; unflipped clusters keep their
    /// membership.
    ///
    /// The result shares `current`'s storage until a flip really changes a
    /// bit (a flip toward the mode a cluster is already in never does);
    /// however many clusters flip, what they change is copied once and the
    /// chunks they leave alone stay `current`'s.
    pub fn target_for(&self, current: &Config, flips: &[(usize, bool)]) -> Config {
        let mut cfg = current.clone();
        for &(g, to_true) in flips {
            let cl = &self.spec.clusters[g];
            let mode = if to_true { &cl.on_true } else { &cl.on_false };
            assign(&mut cfg, cl.comps.iter().map(|&c| (CompId::from_index(c), mode.contains(&c))));
        }
        cfg
    }

    /// The adaptation scope of a flip set: every flipped cluster's
    /// components, expanded to full collaborative sets (sorted,
    /// deduplicated).
    pub fn scope_comps(&self, flips: &[(usize, bool)]) -> Vec<CompId> {
        self.index.expand(
            flips
                .iter()
                .flat_map(|&(g, _)| self.spec.clusters[g].comps.iter().copied())
                .map(CompId::from_index),
        )
    }

    /// The lock resources of a scope: the component ids themselves plus the
    /// hosting processes (offset past the component id space so the two
    /// namespaces cannot collide). Locking hosts as well as components means
    /// two sessions can never concurrently drive the *same agent process*
    /// through conflicting barriers.
    pub fn resources_for(&self, scope: &[CompId]) -> Vec<u32> {
        let offset = self.universe.len() as u32;
        let mut out: Vec<u32> = Vec::with_capacity(scope.len() * 2);
        for &c in scope {
            out.push(c.index() as u32);
            if let Some(p) = self.model.host_of(c) {
                out.push(offset + p.0);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `Old{g}` component of a video world.
    fn old(w: &CompiledWorld, g: usize) -> CompId {
        w.universe.id(&format!("Old{g}")).expect("group in range")
    }

    /// The `New{g}` component of a video world.
    fn newer(w: &CompiledWorld, g: usize) -> CompId {
        w.universe.id(&format!("New{g}")).expect("group in range")
    }

    #[test]
    fn groups_are_independent_collaborative_sets() {
        let w = FleetWorld::build(4);
        assert_eq!(w.index.set_count(), 4);
        assert_eq!(w.universe.len(), 8);
        assert_eq!(w.model.process_count(), 8);
        assert_ne!(w.index.set_of(old(&w, 0)), w.index.set_of(old(&w, 1)));
        assert_eq!(w.index.set_of(old(&w, 2)), w.index.set_of(newer(&w, 2)));
        assert_eq!(w.domain(), Domain::Video);
        assert_eq!(w.objective(), Objective::LatencyMs);
    }

    #[test]
    fn initial_config_is_safe_and_targets_flip() {
        let w = FleetWorld::build(3);
        let init = w.initial_config();
        assert!(w.inv.satisfied_by(&init));
        let t = w.target_for(&init, &[(1, true)]);
        assert!(w.inv.satisfied_by(&t));
        assert!(t.contains(newer(&w, 1)) && !t.contains(old(&w, 1)));
        assert!(t.contains(old(&w, 0)) && t.contains(old(&w, 2)));
        let back = w.target_for(&t, &[(1, false)]);
        assert_eq!(back, init);
    }

    #[test]
    fn scopes_and_resources_are_disjoint_across_groups() {
        let w = FleetWorld::build(5);
        let a = w.resources_for(&w.scope_comps(&[(0, true)]));
        let b = w.resources_for(&w.scope_comps(&[(1, true), (2, true)]));
        assert_eq!(a.len(), 4, "two comps + two hosts");
        assert_eq!(b.len(), 8);
        assert!(a.iter().all(|r| !b.contains(r)));
        // Same group from either direction yields the same scope.
        assert_eq!(w.scope_comps(&[(3, true)]), w.scope_comps(&[(3, false)]));
    }

    /// A three-mode migration cluster sharing hosts: the spec compiler must
    /// handle multi-comp clusters, shared processes, and the energy column.
    fn migration_spec(objective: Objective) -> WorldSpec {
        WorldSpec {
            domain: Domain::Iaas,
            objective,
            comps: vec![
                CompSpec { name: "vm0_src".into(), process: 0 },
                CompSpec { name: "vm0_transit".into(), process: 0 },
                CompSpec { name: "vm0_dst".into(), process: 1 },
            ],
            invariants: vec!["one_of(vm0_src, vm0_transit, vm0_dst)".into()],
            actions: vec![
                ActionSpec {
                    name: "precopy".into(),
                    removes: vec![0],
                    adds: vec![1],
                    cost_ms: 40,
                    cost_watts: 9,
                },
                ActionSpec {
                    name: "switch".into(),
                    removes: vec![1],
                    adds: vec![2],
                    cost_ms: 15,
                    cost_watts: 3,
                },
                ActionSpec {
                    name: "rollback".into(),
                    removes: vec![2],
                    adds: vec![0],
                    cost_ms: 55,
                    cost_watts: 12,
                },
            ],
            clusters: vec![ClusterSpec {
                comps: vec![0, 1, 2],
                on_false: vec![0],
                on_true: vec![2],
            }],
        }
    }

    #[test]
    fn from_spec_compiles_multi_mode_clusters_and_objectives() {
        let w = FleetWorld::from_spec(migration_spec(Objective::LatencyMs));
        assert_eq!(w.groups, 1);
        assert_eq!(w.model.process_count(), 2);
        assert_eq!(w.actions[0].cost(), 40);
        // Two comps share process 0; the third lives on process 1.
        assert_eq!(w.agent_for(CompId::from_index(0)), Some(0));
        assert_eq!(w.agent_for(CompId::from_index(1)), Some(0));
        assert_eq!(w.agent_for(CompId::from_index(2)), Some(1));
        let init = w.initial_config();
        assert!(w.inv.satisfied_by(&init));
        let t = w.target_for(&init, &[(0, true)]);
        assert!(t.contains(CompId::from_index(2)) && !t.contains(CompId::from_index(0)));
        // The whole cluster is one scope; resources cover both hosts.
        assert_eq!(w.scope_comps(&[(0, true)]).len(), 3);
        assert_eq!(w.resources_for(&w.scope_comps(&[(0, true)])).len(), 5);

        let e = FleetWorld::from_spec(migration_spec(Objective::EnergyWatts));
        assert_eq!(e.actions[0].cost(), 9, "energy objective selects the watt column");
        assert_eq!(e.objective(), Objective::EnergyWatts);
    }
}
