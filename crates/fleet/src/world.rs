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
//! One builder is that compiler: `from_spec` feeds it a spec's parts, and
//! [`FleetWorld::build`] feeds it the video shape itself, so the video
//! world never builds the spec it describes.
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
//! component → process vector ([`sada_model::SystemModel`]), and agent `p`
//! drives process `p`, so no table maps the two; component names are one
//! arena ([`Universe`]); cluster membership is a `Csr` and two bitsets.
//! What is left per group is what a world *returns*: one operand list per
//! invariant, a name and an id list per action, and the spec when the
//! world was compiled from one. The action table has one owner,
//! [`CompiledWorld::actions`] (`Arc<[Action]>`); the world's `search`
//! holds a second handle on that allocation, not a copy.

use std::fmt::{self, Write};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use sada_expr::{CompId, Config, Csr, Expr, InvariantSet, Universe};
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
    /// each component on its own process. [`FleetWorld::build`] compiles
    /// this world without building it.
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
}

/// Static description of a fleet: universe, invariants, actions, placement,
/// the collaborative-set index used for scope extraction, the clusters'
/// tables, and a handle on the spec the world describes. These are the
/// products of the paper's analysis phase (§4.1): fixed before the first
/// adaptation request and only read afterwards, so nothing in here is ever
/// mutated — or mutable (the spec handle renders once, then only reads).
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
    /// Placement of components onto agent processes; agent `p` drives
    /// process `p`.
    pub model: SystemModel,
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
    /// The declarative spec this world describes. Nothing on the run path
    /// reads it: the methods below read the tables compiled from it.
    pub spec: SpecHandle,
    domain: Domain,
    objective: Objective,
    /// Row `g`: the components of cluster `g`.
    members: Csr<CompId>,
    /// Every cluster in its boot mode (the initial configuration), and
    /// every cluster in its alternate mode.
    boot: Config,
    alternate: Config,
}

/// What [`CompiledWorld::spec`] holds: the [`WorldSpec`] a world was
/// compiled from, or, for the video world [`FleetWorld::build`] compiles
/// from its shape, [`WorldSpec::video`] rendered on first read. It
/// dereferences to the spec.
pub struct SpecHandle {
    /// The video world's group count, for the render.
    groups: usize,
    cell: OnceLock<WorldSpec>,
}

impl SpecHandle {
    /// Whether the spec exists yet (a given one always does).
    #[cfg(test)]
    pub(crate) fn is_rendered(&self) -> bool {
        self.cell.get().is_some()
    }
}

impl Deref for SpecHandle {
    type Target = WorldSpec;

    fn deref(&self) -> &WorldSpec {
        self.cell.get_or_init(|| WorldSpec::video(self.groups))
    }
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

    /// Builds the classic video world of `groups` independent groups: the
    /// world [`WorldSpec::video`] describes, compiled from its shape through
    /// one reused name buffer, so no spec text is built or kept.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero.
    pub fn build(groups: usize) -> Self {
        assert!(groups > 0, "a fleet needs at least one group");
        let world = video_world(groups).expect("the video shape compiles");
        FleetWorld(Arc::new(world))
    }

    /// Compiles a [`WorldSpec`] into a runtime world, choosing the action
    /// cost column named by the spec's objective.
    ///
    /// # Panics
    ///
    /// Panics with the error's text where [`try_from_spec`] returns one.
    ///
    /// [`try_from_spec`]: FleetWorld::try_from_spec
    pub fn from_spec(spec: WorldSpec) -> Self {
        Self::try_from_spec(spec).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Compiles a [`WorldSpec`] into a runtime world, as
    /// [`from_spec`](FleetWorld::from_spec) does.
    ///
    /// # Errors
    ///
    /// Returns the first fault in spec order: no components or no clusters,
    /// a duplicate component name, an invariant that does not parse or
    /// mentions an undeclared component, an action or cluster index out of
    /// range, an action that removes and adds one component, a component in
    /// zero or several clusters, a mode component outside its cluster, or
    /// an initial configuration that violates the invariants.
    pub fn try_from_spec(spec: WorldSpec) -> Result<Self, SpecError> {
        let sizes =
            [spec.comps.len(), spec.invariants.len(), spec.actions.len(), spec.clusters.len()];
        let mut b = WorldBuilder::new(spec.domain, spec.objective, sizes);
        for c in &spec.comps {
            b.comp(&c.name, c.process)?;
        }
        let sources: Vec<&str> = spec.invariants.iter().map(String::as_str).collect();
        b.parse_invariants(&sources)?;
        for a in &spec.actions {
            b.action(&a.name, &a.removes, &a.adds, [a.cost_ms, a.cost_watts])?;
        }
        for cl in &spec.clusters {
            b.cluster(&cl.comps, &cl.on_false, &cl.on_true)?;
        }
        let spec = SpecHandle { groups: spec.clusters.len(), cell: spec.into() };
        Ok(FleetWorld(Arc::new(b.finish(spec)?)))
    }
}

/// The world [`WorldSpec::video`]`(groups)` describes, pushed in the
/// spec's order, so every id, kernel, action and table row comes out as
/// compiling the spec makes it. Each name is written over one buffer and
/// each `one_of` pushed as the expression its text parses to.
fn video_world(groups: usize) -> Result<CompiledWorld, SpecError> {
    let sizes = [2 * groups, groups, 2 * groups, groups];
    let mut b = WorldBuilder::new(Domain::Video, Objective::LatencyMs, sizes);
    let mut name = String::new();
    for g in 0..groups {
        b.comp(numbered(&mut name, "Old", g), 2 * g)?;
        b.comp(numbered(&mut name, "New", g), 2 * g + 1)?;
    }
    let var = |c: usize| Expr::var(CompId::from_index(c));
    for g in 0..groups {
        b.inv.push(Expr::exactly_one(vec![var(2 * g), var(2 * g + 1)]));
    }
    for g in 0..groups {
        let (old, new) = (2 * g, 2 * g + 1);
        b.action(numbered(&mut name, "fwd", g), &[old], &[new], [1, 1])?;
        b.action(numbered(&mut name, "back", g), &[new], &[old], [1, 1])?;
    }
    for g in 0..groups {
        b.cluster(&[2 * g, 2 * g + 1], &[2 * g], &[2 * g + 1])?;
    }
    b.finish(SpecHandle { groups, cell: OnceLock::new() })
}

/// `prefix` followed by `g`, written over `buf`.
fn numbered<'b>(buf: &'b mut String, prefix: &str, g: usize) -> &'b str {
    buf.clear();
    write!(buf, "{prefix}{g}").expect("a String takes every write");
    buf
}

/// Component indices as ids.
fn ids(comps: &[usize]) -> impl Iterator<Item = CompId> + '_ {
    comps.iter().map(|&c| CompId::from_index(c))
}

/// Why a [`WorldSpec`] does not compile (see [`FleetWorld::try_from_spec`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

/// `Ok` when `holds`, otherwise the error `why` describes.
fn check(holds: bool, why: impl FnOnce() -> String) -> Result<(), SpecError> {
    if holds {
        Ok(())
    } else {
        Err(SpecError(why()))
    }
}

/// One compiler for every world: components, then invariants, then
/// actions, then clusters are pushed in spec order, names as `&str`, and
/// each is checked as it arrives. [`FleetWorld::try_from_spec`] feeds it a
/// spec; [`FleetWorld::build`] feeds it the video shape directly.
struct WorldBuilder {
    domain: Domain,
    objective: Objective,
    universe: Universe,
    /// The hosting process of each component, in id order.
    process: Vec<usize>,
    inv: InvariantSet,
    actions: Vec<Action>,
    members: Csr<CompId>,
    /// The cluster each component belongs to (`usize::MAX`: none yet).
    owner: Vec<usize>,
    /// The components of every cluster's boot mode, and of its alternate.
    boot: Vec<CompId>,
    alternate: Vec<CompId>,
}

impl WorldBuilder {
    /// An empty world with room for `[components, invariants, actions,
    /// clusters]`.
    fn new(domain: Domain, objective: Objective, sizes: [usize; 4]) -> Self {
        let [comps, invariants, actions, clusters] = sizes;
        WorldBuilder {
            domain,
            objective,
            universe: Universe::with_capacity(comps),
            process: Vec::with_capacity(comps),
            inv: InvariantSet::with_capacity(invariants),
            actions: Vec::with_capacity(actions),
            members: Csr::with_capacity(clusters, comps),
            owner: Vec::with_capacity(comps),
            boot: Vec::with_capacity(clusters),
            alternate: Vec::with_capacity(clusters),
        }
    }

    /// Declares the next component: `name`, hosted on `process`.
    fn comp(&mut self, name: &str, process: usize) -> Result<(), SpecError> {
        let fresh = self.universe.intern(name).index() == self.process.len();
        check(fresh, || format!("component names must be unique: {name} is declared twice"))?;
        self.process.push(process);
        self.owner.push(usize::MAX);
        Ok(())
    }

    /// Parses `sources` as the next invariants, over the declared
    /// components only.
    fn parse_invariants(&mut self, sources: &[&str]) -> Result<(), SpecError> {
        let (before, declared) = (self.inv.exprs().len(), self.universe.len());
        self.inv.extend_parsed(sources, &mut self.universe).map_err(|e| {
            SpecError(format!("invariant {} does not parse: {e}", self.inv.exprs().len() - before))
        })?;
        check(self.universe.len() == declared, || {
            let name = self.universe.name(CompId::from_index(declared));
            format!("invariants may only mention declared components, not {name}")
        })
    }

    /// Adds the next action: its name, the components it removes and adds,
    /// and its `[ms, watts]` costs, of which the objective picks one.
    fn action(
        &mut self,
        name: &str,
        removes: &[usize],
        adds: &[usize],
        costs: [u64; 2],
    ) -> Result<(), SpecError> {
        let width = self.universe.len();
        for (list, comps) in [("removes", removes), ("adds", adds)] {
            check(comps.iter().all(|&c| c < width), || {
                format!("action {name}: {list} out of range")
            })?;
        }
        let overlap = removes.iter().any(|c| adds.contains(c));
        check(!overlap, || format!("action {name}: removes and adds overlap"))?;
        let cost = match self.objective {
            Objective::LatencyMs => costs[0],
            Objective::EnergyWatts => costs[1],
        }
        .max(1);
        let id = u32::try_from(self.actions.len()).expect("action ids are u32");
        self.actions.push(Action::from_ids(id, name, ids(removes), ids(adds), cost));
        Ok(())
    }

    /// Adds the next cluster: all its components, then those of its boot
    /// mode (`on_false`) and of its alternate mode (`on_true`). Every
    /// component belongs to exactly one cluster: region ownership and
    /// distillation cover the universe exactly once.
    fn cluster(
        &mut self,
        comps: &[usize],
        on_false: &[usize],
        on_true: &[usize],
    ) -> Result<(), SpecError> {
        let g = self.members.rows();
        check(!comps.is_empty(), || format!("cluster {g} is empty"))?;
        for &c in comps {
            check(c < self.owner.len(), || format!("cluster {g}: comp {c} out of range"))?;
            check(self.owner[c] == usize::MAX, || format!("comp {c} in multiple clusters"))?;
            self.owner[c] = g;
        }
        for &c in on_false.iter().chain(on_true) {
            let inside = self.owner.get(c) == Some(&g);
            check(inside, || format!("cluster {g}: mode comp {c} outside cluster"))?;
        }
        self.members.push_row(ids(comps));
        self.boot.extend(ids(on_false));
        self.alternate.extend(ids(on_true));
        Ok(())
    }

    /// The compiled world, once every component has a cluster and the boot
    /// modes satisfy the invariants; `spec` is the handle it reads back.
    fn finish(self, spec: SpecHandle) -> Result<CompiledWorld, SpecError> {
        let width = self.universe.len();
        check(width > 0, || "a world needs at least one component".into())?;
        let groups = self.members.rows();
        check(groups > 0, || "a world needs at least one cluster".into())?;
        if let Some(c) = self.owner.iter().position(|&g| g == usize::MAX) {
            return Err(SpecError(format!("every comp needs a cluster: comp {c} has none")));
        }
        let boot = Config::from_ids(width, self.boot);
        check(self.inv.satisfied_by(&boot), || {
            "initial configuration violates the invariants".into()
        })?;
        // Processes are dense `0..=max`.
        let mut model = SystemModel::with_capacity(width);
        let procs: Vec<_> = (0..=self.process.iter().copied().max().unwrap_or(0))
            .map(|_| model.add_process())
            .collect();
        for (ix, &p) in self.process.iter().enumerate() {
            model.place(CompId::from_index(ix), procs[p]);
        }
        let actions: Arc<[Action]> = self.actions.into();
        let index = CollabIndex::new(&self.universe, &self.inv, &actions);
        let search = Search::sharing(&self.inv, Arc::clone(&actions), width);
        Ok(CompiledWorld {
            universe: self.universe,
            inv: self.inv,
            actions,
            model,
            index,
            search,
            groups,
            spec,
            domain: self.domain,
            objective: self.objective,
            members: self.members,
            boot,
            alternate: Config::from_ids(width, self.alternate),
        })
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
        self.domain
    }

    /// The spec's cost objective.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The components of cluster `g` (the flip unit's full membership).
    pub fn cluster_comps(&self, g: usize) -> &[CompId] {
        self.members.row(g)
    }

    /// The agent index driving `c`'s hosting process, if placed.
    pub(crate) fn agent_for(&self, c: CompId) -> Option<usize> {
        self.model.host_of(c).map(|p| p.index())
    }

    /// The boot configuration: every cluster in its `on_false` mode.
    pub fn initial_config(&self) -> Config {
        self.boot.clone()
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
            let mode = if to_true { &self.alternate } else { &self.boot };
            assign(&mut cfg, self.cluster_comps(g).iter().map(|&c| (c, mode.contains(c))));
        }
        cfg
    }

    /// The adaptation scope of a flip set: every flipped cluster's
    /// components, expanded to full collaborative sets, ascending and
    /// without repeats (what [`Search::scoped_action_ixs`] requires).
    pub fn scope_comps(&self, flips: &[(usize, bool)]) -> Vec<CompId> {
        let mut comps = self
            .index
            .expand(flips.iter().flat_map(|&(g, _)| self.cluster_comps(g).iter().copied()));
        // `expand` lists whole sets one after another, each sorted: sets of
        // contiguous components come out ascending, interleaved ones as
        // sorted runs, which the stable sort merges.
        if !comps.is_sorted() {
            comps.sort();
        }
        comps
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

    /// Two clusters whose components interleave, `{C0, C2}` and `{C1, C3}`:
    /// a `one_of` and a replace action each way per cluster.
    fn interleaved_spec() -> WorldSpec {
        let comps = (0..4).map(|c| CompSpec { name: format!("C{c}"), process: c }).collect();
        let replace = |name: &str, from: usize, to: usize| ActionSpec {
            name: name.into(),
            removes: vec![from],
            adds: vec![to],
            cost_ms: 1,
            cost_watts: 1,
        };
        let cluster = |a: usize, b: usize| ClusterSpec {
            comps: vec![a, b],
            on_false: vec![a],
            on_true: vec![b],
        };
        WorldSpec {
            domain: Domain::Video,
            objective: Objective::LatencyMs,
            comps,
            invariants: vec!["one_of(C0, C2)".into(), "one_of(C1, C3)".into()],
            actions: vec![
                replace("C0->C2", 0, 2),
                replace("C2->C0", 2, 0),
                replace("C1->C3", 1, 3),
                replace("C3->C1", 3, 1),
            ],
            clusters: vec![cluster(0, 2), cluster(1, 3)],
        }
    }

    #[test]
    fn a_scope_over_interleaved_clusters_keeps_every_action() {
        let w = FleetWorld::from_spec(interleaved_spec());
        let both = [(0, true), (1, true)];
        let scope = w.scope_comps(&both);
        assert_eq!(scope, (0..4).map(CompId::from_index).collect::<Vec<_>>(), "ascending");
        let scoped = w.search.scoped_action_ixs(&scope);
        assert_eq!(scoped, [0, 1, 2, 3], "all four actions lie inside the scope");
        let init = w.initial_config();
        let (path, _) = w.search.plan_scoped(&init, &w.target_for(&init, &both), &scoped);
        assert_eq!(path.expect("both clusters flip").len(), 2);
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
