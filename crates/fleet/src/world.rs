//! The fleet world: component clusters, each its own collaborative set,
//! hosted across agent processes.
//!
//! A [`WorldSpec`] describes a world: components, invariants, actions with
//! *two* cost columns (milliseconds and watts), cluster structure, and
//! placement. The video multicast cloned per group and the seeded
//! scenario generator's serverless and IaaS domains are all instances, and
//! [`FleetWorld::from_spec`] compiles each through `sada-proto`'s
//! [`SpecBuilder`], the one specification compiler, plus the clusters.
//!
//! A **cluster** is the unit the fleet drivers flip: a set of components
//! with two named modes (`on_false`, the boot mode, and `on_true`, the
//! alternate). Session flips `(g, to_true)` move cluster `g` between its
//! modes. The compile refuses a cluster whose invariants or actions reach
//! outside it, so clusters are independent collaborative sets — the
//! property region partitioning and the plan cache's scope normalizer
//! rely on.
//!
//! A world is its **classes**, the paper's collaborative sets up to
//! renaming (§7): a class is one shape — components, invariants, actions,
//! clusters and their modes — compiled once over local ids into flat
//! tables of its own (kernels, search, action table, collaborative index),
//! and a **placement** puts it into the world at bases for its components,
//! processes, actions and clusters; a world id is base plus local id. A
//! world stores its placements as **runs**: consecutive placements of one
//! class, each a class, a count, the first placement's bases and its
//! index, with the class's sizes as strides. [`FleetWorld::build`]
//! compiles the video cluster once and places it once per group, as one
//! run: a world id resolves by a divide, and the world keeps its boot
//! configuration's two bits a group and no table that grows with the
//! groups (0.283 B a group at 100k groups, `BENCH_scale.json`
//! `world_retained_bytes_per_group`). A spec world is its spec cut into
//! **blocks**, the smallest runs of consecutive clusters whose components,
//! processes, invariants and actions each form one range of ids; each block
//! is compiled as a class and placed once under its own names, so every id
//! is the spec's. A generated universe is one block per cluster. Classes
//! equal up to names share a **shape** number, which keys the plan cache.
//! Names are a class's stems plus the placement's number, written only
//! when a view or a text asks. The run path reads classes through
//! placements only; the world-wide tables ([`CompiledWorld::universe`],
//! `inv`, `actions`, `model`, `index`, `search`) are [`View`]s, rendered
//! from the placements on first read.

use std::collections::HashMap;
use std::fmt::{self, Write};
use std::ops::{Deref, Range};
use std::sync::{Arc, OnceLock};

use sada_expr::{CompId, Config, Csr, Expr, InvariantSet, Universe};
use sada_model::{ProcessId, SystemModel};
use sada_plan::{Action, ActionId, CollabIndex, Path, Search};
use sada_proto::{AdaptationSpec, SpecBuilder, SpecError};

use crate::cache::shape_of;

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
    /// Hosting process, below the component count; processes are `0..=max`.
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
/// mutated — or mutable (a view and the spec handle render once, then only
/// read).
///
/// A world is its **classes**. A class is one cluster shape compiled once
/// over local ids; a **placement** puts a class into the world at a base
/// for each of its components, processes, actions, predicates and
/// clusters, and a world id is base + local id. Placements are stored as
/// runs of one class, never one by one. The video world is one class of
/// one cluster placed once per group, one run; a spec world is one class
/// per block of its spec, each placed once. The run path reads classes
/// through placements only; the world-wide tables below are [`View`]s, for
/// everything else.
pub struct CompiledWorld {
    /// Component universe, interned in `spec.comps` order.
    pub universe: View<Universe>,
    /// Compiled invariant set.
    pub inv: View<InvariantSet>,
    /// Action table; **an action's id equals its index**. The view's
    /// `search` reads this same allocation through a second handle rather
    /// than a copy of its own.
    pub actions: View<Arc<[Action]>>,
    /// Placement of components onto agent processes; agent `p` drives
    /// process `p`.
    pub model: View<SystemModel>,
    /// Collaborative-set partition (one set per cluster).
    pub index: View<CollabIndex>,
    /// The compiled planning context over the whole world — invariant
    /// kernels, action index, inverted touch index.
    pub search: View<Search>,
    /// Number of flip units (`spec.clusters.len()`).
    pub groups: usize,
    /// The declarative spec this world describes. Nothing on the run path
    /// reads it: the methods below read the tables compiled from it.
    pub spec: SpecHandle,
    domain: Domain,
    objective: Objective,
    /// The classes and their placements, shared with the views.
    layout: Arc<Layout>,
    /// Every cluster in its boot mode: the initial configuration.
    boot: Config,
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

/// One world-wide table of a [`CompiledWorld`]; it dereferences to the
/// table. The first read of any view renders every world-wide table, once,
/// by shifting each placement's class tables into place; a fleet run reads
/// none of them.
pub struct View<T> {
    layout: Arc<Layout>,
    pick: fn(&Tables) -> &T,
}

impl<T> View<T> {
    fn new(layout: &Arc<Layout>, pick: fn(&Tables) -> &T) -> Self {
        View { layout: Arc::clone(layout), pick }
    }
}

impl<T> Deref for View<T> {
    type Target = T;

    fn deref(&self) -> &T {
        (self.pick)(self.layout.rendered.get_or_init(|| Box::new(self.layout.render())))
    }
}

/// The analysis tables over one id space: a class's, over its local ids,
/// or a whole world's, rendered.
pub(crate) struct Tables {
    pub(crate) universe: Universe,
    pub(crate) inv: InvariantSet,
    pub(crate) actions: Arc<[Action]>,
    pub(crate) model: SystemModel,
    pub(crate) index: CollabIndex,
    pub(crate) search: Search,
}

impl Tables {
    /// Indexes the collaborative sets and compiles the search over
    /// `actions`, which the search shares rather than copies.
    fn new(
        universe: Universe,
        inv: InvariantSet,
        actions: Vec<Action>,
        model: SystemModel,
    ) -> Self {
        let actions: Arc<[Action]> = actions.into();
        let index = CollabIndex::new(&universe, &inv, &actions);
        let search = Search::sharing(&inv, Arc::clone(&actions), universe.len());
        Tables { universe, inv, actions, model, index, search }
    }
}

/// One cluster shape, compiled once over local ids: its analysis tables
/// (kernels, search and action table of its own), its clusters and their
/// two modes.
pub(crate) struct Class {
    pub(crate) tables: Tables,
    /// Equal for two classes of one world that are equal up to names: the
    /// plan cache's key for a scope that is a whole placement.
    pub(crate) shape: u32,
    /// Whether a placement names its components and actions by the class's
    /// stems plus the placement's number (`Old` placed seventh is `Old6`),
    /// or by the class's names as they are.
    numbered: bool,
    /// Row `k`: the components of the class's cluster `k`.
    members: Csr<CompId>,
    /// The components of every cluster's boot mode, and of its alternate.
    boot: Config,
    alternate: Config,
    /// Whether every process of the class hosts a component, so that the
    /// agents of consecutive placements are one range.
    hosts_every_process: bool,
}

impl Class {
    /// Number of components.
    pub(crate) fn width(&self) -> usize {
        self.tables.universe.len()
    }

    /// `[components, processes, actions, predicates, clusters]`: how far
    /// one placement moves each base.
    fn sizes(&self) -> [usize; 5] {
        let t = &self.tables;
        let clusters = self.members.rows();
        [self.width(), t.model.process_count(), t.actions.len(), t.inv.exprs().len(), clusters]
    }

    /// The agent indices hosting local components `local`, ascending and
    /// without repeats, for a placement at process base `process`.
    fn hosts(&self, process: u32, local: impl Iterator<Item = CompId>) -> Vec<usize> {
        let model = &self.tables.model;
        let mut agents: Vec<usize> =
            local.filter_map(|c| model.host_of(c)).map(|h| (process + h.0) as usize).collect();
        agents.sort_unstable();
        agents.dedup();
        agents
    }

    /// The world name of `stem` in placement `pix`, written over `buf`.
    fn name<'b>(&self, buf: &'b mut String, stem: &str, pix: usize) -> &'b str {
        if self.numbered {
            return numbered(buf, stem, pix);
        }
        buf.clear();
        buf.push_str(stem);
        buf
    }
}

/// A class placed in a world: the world ids of its components, processes,
/// actions and clusters are these bases plus its local ids (its
/// predicates', too, at a base no reader needs: the world's predicate
/// order is the placements' order). A world stores no placement: it
/// stores [`Run`]s, and computes a placement from its run when asked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Placement {
    pub(crate) class: u32,
    pub(crate) comp: u32,
    process: u32,
    pub(crate) action: u32,
    cluster: u32,
}

/// The id spaces a placement has a base in, numbered by their position in
/// a class's `sizes`.
#[derive(Debug, Clone, Copy)]
enum Axis {
    Comp = 0,
    Process = 1,
    Action = 2,
    Cluster = 4,
}

impl Placement {
    /// The base on `axis`.
    fn base(&self, axis: Axis) -> usize {
        let base = match axis {
            Axis::Comp => self.comp,
            Axis::Process => self.process,
            Axis::Action => self.action,
            Axis::Cluster => self.cluster,
        };
        base as usize
    }
}

/// Consecutive placements of one class: the first of them, how many there
/// are, and the first's placement index. Placement `first + k` is `start`
/// with every base moved up `k` times the class's size on that axis.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: Placement,
    count: u32,
    first: u32,
}

// A run is its first placement plus two counts; a world holds one per
// change of class, however many groups it places.
const _: () = assert!(std::mem::size_of::<Run>() == 28);

impl Run {
    /// Its `k`-th placement, for a class of `sizes`.
    fn nth(&self, k: usize, sizes: &[usize; 5]) -> Placement {
        let up = |base: u32, axis: Axis| base + (k * sizes[axis as usize]) as u32;
        let s = self.start;
        Placement {
            class: s.class,
            comp: up(s.comp, Axis::Comp),
            process: up(s.process, Axis::Process),
            action: up(s.action, Axis::Action),
            cluster: up(s.cluster, Axis::Cluster),
        }
    }
}

/// A world's placements, as runs: consecutive placements of one class,
/// each starting every base where the one before it ends, so every base
/// ascends. A world id resolves by a search over the runs (one, in the
/// video world) and a divide.
struct Runs {
    runs: Vec<Run>,
    /// Per class, how far one placement moves each base: `[components,
    /// processes, actions, predicates, clusters]`.
    sizes: Vec<[usize; 5]>,
    /// World totals, in the same order.
    totals: [usize; 5],
}

impl Runs {
    /// Classes of `sizes` placed one after another, in `order` (class
    /// indices).
    fn tile(sizes: Vec<[usize; 5]>, order: impl Iterator<Item = u32>) -> Result<Self, SpecError> {
        let mut runs: Vec<Run> = Vec::new();
        let mut next = [0usize; 5];
        for (pix, class) in order.enumerate() {
            let base = next.map(u32::try_from);
            let [Ok(comp), Ok(process), Ok(action), Ok(_), Ok(cluster)] = base else {
                return Err("a world holds fewer than 2^32 of each entry".to_string().into());
            };
            match runs.last_mut() {
                Some(run) if run.start.class == class => run.count += 1,
                _ => {
                    let Ok(first) = u32::try_from(pix) else {
                        return Err("a world holds fewer than 2^32 placements".to_string().into());
                    };
                    let start = Placement { class, comp, process, action, cluster };
                    runs.push(Run { start, count: 1, first });
                }
            }
            let size = sizes[class as usize];
            next = std::array::from_fn(|k| next[k] + size[k]);
        }
        Ok(Runs { runs, sizes, totals: next })
    }

    /// Number of placements.
    fn len(&self) -> usize {
        self.runs.last().map_or(0, |r| (r.first + r.count) as usize)
    }

    /// The run whose range on `axis` holds world id `id`, and the index of
    /// its placement that holds it: the last placement whose base on `axis`
    /// is at most `id`, as a search over one base per placement finds it.
    fn locate(&self, axis: Axis, id: usize) -> (&Run, usize) {
        let r = self.runs.partition_point(|r| r.start.base(axis) <= id).saturating_sub(1);
        let run = &self.runs[r];
        let last = run.count as usize - 1;
        let stride = self.sizes[run.start.class as usize][axis as usize];
        let k = (id - run.start.base(axis)).checked_div(stride).map_or(last, |k| k.min(last));
        (run, k)
    }

    /// The index of the placement whose range on `axis` holds world id `id`.
    fn find(&self, axis: Axis, id: usize) -> usize {
        let (run, k) = self.locate(axis, id);
        run.first as usize + k
    }

    /// The placement whose range on `axis` holds world id `id`.
    fn placement(&self, axis: Axis, id: usize) -> Placement {
        let (run, k) = self.locate(axis, id);
        run.nth(k, &self.sizes[run.start.class as usize])
    }

    /// Placement `pix`.
    ///
    /// # Panics
    ///
    /// Panics if `pix` is not below [`Runs::len`].
    fn at(&self, pix: usize) -> Placement {
        let run = &self.runs[self.runs.partition_point(|r| r.first as usize <= pix) - 1];
        let k = pix - run.first as usize;
        assert!(k < run.count as usize, "placement {pix} of {}", self.len());
        run.nth(k, &self.sizes[run.start.class as usize])
    }

    /// Every placement, in world order.
    fn iter(&self) -> impl Iterator<Item = Placement> + '_ {
        self.runs.iter().flat_map(|run| {
            let sizes = &self.sizes[run.start.class as usize];
            (0..run.count as usize).map(move |k| run.nth(k, sizes))
        })
    }
}

/// A world's classes and where each is placed: what the views render from.
struct Layout {
    classes: Vec<Class>,
    runs: Runs,
    /// The world-wide tables, once a view has been read (boxed, so a world
    /// that never renders holds a pointer).
    rendered: OnceLock<Box<Tables>>,
}

impl Layout {
    /// `classes` placed one after another, in `order` (class indices).
    fn tile(classes: Vec<Class>, order: impl Iterator<Item = u32>) -> Result<Self, SpecError> {
        let runs = Runs::tile(classes.iter().map(Class::sizes).collect(), order)?;
        Ok(Layout { classes, runs, rendered: OnceLock::new() })
    }

    /// The class of placement `p`.
    fn class(&self, p: Placement) -> &Class {
        &self.classes[p.class as usize]
    }

    /// Placement `pix` and its class.
    fn at(&self, pix: usize) -> (Placement, &Class) {
        let p = self.runs.at(pix);
        (p, self.class(p))
    }

    /// The placement whose range on `axis` holds world id `id`, and its
    /// class.
    fn holding(&self, axis: Axis, id: usize) -> (Placement, &Class) {
        let p = self.runs.placement(axis, id);
        (p, self.class(p))
    }

    /// Class action `a` of placement `p` in world ids, named as the render
    /// names it when given `p`'s number (the run path reads no name).
    fn action(&self, p: Placement, a: &Action, number: Option<usize>) -> Action {
        let mut name = String::new();
        let name = match number {
            Some(pix) => self.class(p).name(&mut name, a.name(), pix),
            None => "",
        };
        let ids = |cs: &[CompId]| cs.iter().map(|&c| shift(c, p.comp)).collect::<Vec<_>>();
        Action::from_ids(p.action + a.id().0, name, ids(a.removes()), ids(a.adds()), a.cost())
    }

    /// The world-wide tables, rendered from every placement: each class
    /// table shifted into place, in world order, and compiled as a class
    /// compiles its own.
    fn render(&self) -> Tables {
        let [width, processes, actions, preds, _] = self.runs.totals;
        let mut universe = Universe::with_capacity(width);
        let mut inv = InvariantSet::with_capacity(preds);
        let mut table = Vec::with_capacity(actions);
        let mut model = SystemModel::with_capacity(width);
        for _ in 0..processes {
            model.add_process();
        }
        let mut name = String::new();
        for (pix, p) in self.runs.iter().enumerate() {
            let class = self.class(p);
            let t = &class.tables;
            for c in t.universe.iter() {
                let id = universe.intern(class.name(&mut name, t.universe.name(c), pix));
                let host = t.model.host_of(c).expect("a class places every component");
                model.place(id, ProcessId(p.process + host.0));
            }
            for e in t.inv.exprs() {
                inv.push(map_vars(e, &|c| shift(c, p.comp)));
            }
            table.extend(t.actions.iter().map(|a| self.action(p, a, Some(pix))));
        }
        Tables::new(universe, inv, table, model)
    }
}

/// `c` moved up by `base`.
fn shift(c: CompId, base: u32) -> CompId {
    CompId::from_index(c.index() + base as usize)
}

/// `expr` with every variable `c` replaced by `f(c)`.
pub(crate) fn map_vars(expr: &Expr, f: &impl Fn(CompId) -> CompId) -> Expr {
    let all = |es: &[Expr]| es.iter().map(|e| map_vars(e, f)).collect();
    match expr {
        Expr::Const(b) => Expr::Const(*b),
        Expr::Var(c) => Expr::Var(f(*c)),
        Expr::Not(e) => Expr::Not(Box::new(map_vars(e, f))),
        Expr::And(es) => Expr::And(all(es)),
        Expr::Or(es) => Expr::Or(all(es)),
        Expr::Xor(es) => Expr::Xor(all(es)),
        Expr::ExactlyOne(es) => Expr::ExactlyOne(all(es)),
        Expr::Implies(a, b) => Expr::Implies(Box::new(map_vars(a, f)), Box::new(map_vars(b, f))),
        Expr::Iff(a, b) => Expr::Iff(Box::new(map_vars(a, f)), Box::new(map_vars(b, f))),
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
    /// world [`WorldSpec::video`] describes, as the video cluster compiled
    /// once and placed `groups` times in one run, so no spec text is built
    /// or kept and nothing grows with the groups but the boot
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero.
    pub fn build(groups: usize) -> Self {
        assert!(groups > 0, "a fleet needs at least one group");
        let class = video_class().expect("the video shape compiles");
        let spec = SpecHandle { groups, cell: OnceLock::new() };
        let order = std::iter::repeat_n(0, groups);
        let world =
            CompiledWorld::place(Domain::Video, Objective::LatencyMs, vec![class], order, spec);
        FleetWorld(Arc::new(world.expect("the video world fits its ids")))
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
    /// [`from_spec`](FleetWorld::from_spec) does: the spec is checked
    /// whole, then each of its blocks is compiled as a class and placed
    /// once under its own names.
    ///
    /// # Errors
    ///
    /// Returns the first fault in spec order: an entry [`SpecBuilder`]
    /// refuses (a process at or past the component count included), a
    /// cluster index out of range, a component in zero or several clusters,
    /// a mode component outside its cluster, no components or clusters, an
    /// unsafe boot, or a cluster whose collaborative sets reach outside it.
    pub fn try_from_spec(spec: WorldSpec) -> Result<Self, SpecError> {
        let sizes =
            [spec.comps.len(), spec.invariants.len(), spec.actions.len(), spec.clusters.len()];
        let mut b = WorldBuilder::new(spec.objective, sizes);
        // A process at or past the component count is left undeclared.
        let procs = spec.comps.iter().map(|c| c.process.saturating_add(1)).max();
        b.core.processes(procs.unwrap_or(0).min(spec.comps.len()));
        for c in &spec.comps {
            b.comp(&c.name, c.process)?;
        }
        let sources: Vec<&str> = spec.invariants.iter().map(String::as_str).collect();
        b.core.parse_invariants(&sources)?;
        for a in &spec.actions {
            b.action(&a.name, &a.removes, &a.adds, [a.cost_ms, a.cost_watts])?;
        }
        for cl in &spec.clusters {
            b.cluster(&cl.comps, &cl.on_false, &cl.on_true)?;
        }
        let classes = b.classes(false)?;
        let (domain, objective) = (spec.domain, spec.objective);
        let spec = SpecHandle { groups: spec.clusters.len(), cell: spec.into() };
        let order = 0..classes.len() as u32;
        let world = CompiledWorld::place(domain, objective, classes, order, spec)?;
        Ok(FleetWorld(Arc::new(world)))
    }
}

/// The video cluster [`WorldSpec::video`] repeats, as one numbered class:
/// `Old` and `New` on processes 0 and 1, `one_of(Old, New)` pushed as the
/// expression its text parses to, and the `fwd` and `back` replacements.
/// Placement `g` renames them `Old{g}`, `New{g}`, `fwd{g}` and `back{g}`,
/// so every id, kernel, action and table row comes out as compiling the
/// spec makes it.
fn video_class() -> Result<Class, SpecError> {
    let mut b = WorldBuilder::new(Objective::LatencyMs, [2, 1, 2, 1]);
    b.core.processes(2);
    b.comp("Old", 0)?;
    b.comp("New", 1)?;
    let var = |c: usize| Expr::var(CompId::from_index(c));
    b.core.push_invariant(Expr::exactly_one(vec![var(0), var(1)]))?;
    b.action("fwd", &[0], &[1], [1, 1])?;
    b.action("back", &[1], &[0], [1, 1])?;
    b.cluster(&[0, 1], &[0], &[1])?;
    // One cluster is one block.
    Ok(b.classes(true)?.remove(0))
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

/// The one compiler plus clusters: components, invariants and actions go to
/// the [`SpecBuilder`] (the objective picks an action's cost column);
/// clusters, the cut into classes, the collaborative indexes and the
/// searches are the fleet's. Entries arrive in spec order and each is
/// checked as it arrives.
struct WorldBuilder {
    objective: Objective,
    /// Components, invariants, actions and placement.
    core: SpecBuilder,
    members: Csr<CompId>,
    /// The cluster each component belongs to (`usize::MAX`: none yet).
    owner: Vec<usize>,
    /// Row `g`: the components of cluster `g`'s boot mode, and of its
    /// alternate.
    boot: Csr<CompId>,
    alternate: Csr<CompId>,
}

impl WorldBuilder {
    /// An empty spec with room for `[components, invariants, actions,
    /// clusters]`.
    fn new(objective: Objective, sizes: [usize; 4]) -> Self {
        let [comps, invariants, actions, clusters] = sizes;
        WorldBuilder {
            objective,
            core: SpecBuilder::with_capacity([comps, invariants, actions]),
            members: Csr::with_capacity(clusters, comps),
            owner: Vec::with_capacity(comps),
            boot: Csr::with_capacity(clusters, clusters),
            alternate: Csr::with_capacity(clusters, clusters),
        }
    }

    /// Declares the next component: `name`, hosted on `process`.
    fn comp(&mut self, name: &str, process: usize) -> Result<CompId, SpecError> {
        self.owner.push(usize::MAX);
        self.core.comp(name, process)
    }

    /// Adds the next action: its name, the components it removes and adds,
    /// and its `[ms, watts]` costs, of which the objective picks one.
    fn action(
        &mut self,
        name: &str,
        removes: &[usize],
        adds: &[usize],
        costs: [u64; 2],
    ) -> Result<ActionId, SpecError> {
        let cost = match self.objective {
            Objective::LatencyMs => costs[0],
            Objective::EnergyWatts => costs[1],
        }
        .max(1);
        self.core.action(name, removes, adds, cost, false)
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
        SpecError::ensure(!comps.is_empty(), || format!("cluster {g} is empty"))?;
        for &c in comps {
            let known = c < self.owner.len();
            SpecError::ensure(known, || format!("cluster {g}: comp {c} out of range"))?;
            let free = self.owner[c] == usize::MAX;
            SpecError::ensure(free, || format!("comp {c} in multiple clusters"))?;
            self.owner[c] = g;
        }
        for &c in on_false.iter().chain(on_true) {
            let inside = self.owner.get(c) == Some(&g);
            SpecError::ensure(inside, || format!("cluster {g}: mode comp {c} outside cluster"))?;
        }
        self.members.push_row(ids(comps));
        self.boot.push_row(ids(on_false));
        self.alternate.push_row(ids(on_true));
        Ok(())
    }

    /// The compiled classes, once every component has a cluster and the
    /// boot modes satisfy the invariants: one per block of the spec
    /// ([`WorldBuilder::cut`]), in spec order, each refused unless its
    /// clusters are confined; `numbered` as [`Class`] reads it.
    fn classes(mut self, numbered: bool) -> Result<Vec<Class>, SpecError> {
        let width = self.owner.len();
        SpecError::ensure(width > 0, || "a world needs at least one component".into())?;
        let groups = self.members.rows();
        SpecError::ensure(groups > 0, || "a world needs at least one cluster".into())?;
        if let Some(c) = self.owner.iter().position(|&g| g == usize::MAX) {
            return Err(format!("every comp needs a cluster: comp {c} has none").into());
        }
        let boot = Config::from_ids(width, self.boot.iter().flatten().copied());
        let spec = std::mem::take(&mut self.core).finish();
        let safe = spec.is_safe(&boot);
        SpecError::ensure(safe, || "initial configuration violates the invariants".into())?;
        self.cut(&spec).iter().map(|block| self.class(&spec, block, numbered)).collect()
    }

    /// The blocks of `spec`, compiled whole from this builder: the smallest
    /// runs of consecutive clusters whose components, processes, actions
    /// and invariants each form one range of ids, as `[components,
    /// processes, actions, invariants, clusters]` ranges. An entry that
    /// reaches two clusters joins them in one block; one that reaches none
    /// (a process hosting nothing) stays with the block before it.
    fn cut(&self, spec: &AdaptationSpec) -> Vec<[Range<usize>; 5]> {
        let owner = |c: CompId| self.owner[c.index()];
        let mut spans: [Vec<Option<(usize, usize)>>; 4] = [
            self.owner.iter().map(|&g| Some((g, g))).collect(),
            vec![None; spec.model().process_count()],
            vec![None; spec.actions().len()],
            vec![None; spec.invariants().exprs().len()],
        ];
        for c in spec.universe().iter() {
            let host = spec.model().host_of(c).expect("the spec places every component");
            widen(&mut spans[1][host.0 as usize], owner(c));
        }
        for (a, span) in spec.actions().iter().zip(&mut spans[2]) {
            a.touched().iter().for_each(|&c| widen(span, owner(c)));
        }
        for (e, span) in spec.invariants().exprs().iter().zip(&mut spans[3]) {
            e.for_each_var(&mut |c| widen(span, owner(c)));
        }
        // Per axis, the lowest cluster of any entry from each id on: a block
        // ending below it takes no entry from there on.
        let floors = spans.each_ref().map(|s| {
            let mut floor = vec![usize::MAX; s.len() + 1];
            for i in (0..s.len()).rev() {
                floor[i] = floor[i + 1].min(s[i].map_or(usize::MAX, |s| s.0));
            }
            floor
        });
        let (mut at, mut blocks, mut g) = ([0usize; 4], Vec::new(), 0);
        while g < self.members.rows() {
            let (start, mut end) = (at, g + 1);
            while let Some(k) = (0..4).find(|&k| floors[k][at[k]] < end) {
                end = end.max(spans[k][at[k]].map_or(0, |s| s.1 + 1));
                at[k] += 1;
            }
            for k in 0..4 {
                while spans[k].get(at[k]).is_some_and(Option::is_none) {
                    at[k] += 1;
                }
            }
            let [c, p, a, i] = std::array::from_fn(|k| start[k]..at[k]);
            blocks.push([c, p, a, i, g..end]);
            g = end;
        }
        blocks
    }

    /// Block `block` ([`WorldBuilder::cut`]) of `spec` compiled as a class
    /// over its own ids, once its clusters are confined.
    fn class(
        &self,
        spec: &AdaptationSpec,
        block: &[Range<usize>; 5],
        numbered: bool,
    ) -> Result<Class, SpecError> {
        let [comps, processes, actions, invs, clusters] = block.clone();
        let (base, width) = (comps.start, comps.len());
        let local = |c: &CompId| CompId::from_index(c.index() - base);
        let mut universe = Universe::with_capacity(width);
        let mut model = SystemModel::with_capacity(width);
        processes.clone().for_each(|_| _ = model.add_process());
        let mut hosting = vec![false; processes.len()];
        for c in comps.clone().map(CompId::from_index) {
            let id = universe.intern(spec.universe().name(c));
            let host = spec.model().host_of(c).expect("the spec places every component");
            let host = host.0 as usize - processes.start;
            model.place(id, ProcessId(host as u32));
            hosting[host] = true;
        }
        let mut inv = InvariantSet::with_capacity(invs.len());
        for e in &spec.invariants().exprs()[invs] {
            inv.push(map_vars(e, &|c| local(&c)));
        }
        let table = spec.actions()[actions.clone()].iter().map(|a| {
            let id = a.id().0 - actions.start as u32;
            let (removes, adds) = (a.removes().iter().map(local), a.adds().iter().map(local));
            Action::from_ids(id, a.name(), removes, adds, a.cost())
        });
        let tables = Tables::new(universe, inv, table.collect(), model);
        confined(&tables.index, &self.owner[comps], base)?;
        let mut members = Csr::with_capacity(clusters.len(), width);
        clusters.clone().for_each(|g| members.push_row(self.members.row(g).iter().map(local)));
        let mode = |rows: &Csr<CompId>| {
            Config::from_ids(width, clusters.clone().flat_map(|g| rows.row(g)).map(local))
        };
        let (boot, alternate) = (mode(&self.boot), mode(&self.alternate));
        let hosts_every_process = hosting.into_iter().all(|hosts| hosts);
        Ok(Class { tables, shape: 0, numbered, members, boot, alternate, hosts_every_process })
    }
}

/// `span` widened to take cluster `g`.
fn widen(span: &mut Option<(usize, usize)>, g: usize) {
    *span = Some(span.map_or((g, g), |(lo, hi)| (lo.min(g), hi.max(g))));
}

/// Every collaborative set lies inside one cluster: a component's cluster
/// is the cluster of its set's smallest member. `owner` is the clusters of
/// the components from id `base` on.
fn confined(index: &CollabIndex, owner: &[usize], base: usize) -> Result<(), SpecError> {
    for (c, &g) in owner.iter().enumerate() {
        let h = owner[index.members(index.set_of(CompId::from_index(c)))[0].index()];
        let c = base + c;
        let why = || format!("cluster {h} is not confined: its set holds comp {c} of cluster {g}");
        SpecError::ensure(g == h, why)?;
    }
    Ok(())
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

/// The components of one cluster in world ids: its class's row, shifted
/// into its placement. Two are equal when they list the same ids.
#[derive(Clone)]
pub struct ClusterComps<'w> {
    row: std::slice::Iter<'w, CompId>,
    base: u32,
}

impl Iterator for ClusterComps<'_> {
    type Item = CompId;

    fn next(&mut self) -> Option<CompId> {
        self.row.next().map(|&c| shift(c, self.base))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.row.size_hint()
    }
}

impl ExactSizeIterator for ClusterComps<'_> {}

impl PartialEq for ClusterComps<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.clone().eq(other.clone())
    }
}

impl fmt::Debug for ClusterComps<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

impl CompiledWorld {
    /// The world `classes` make, placed in `order` (class indices), with
    /// the views over them, the boot configuration every placement's boot
    /// modes make, and every class numbered by its shape.
    fn place(
        domain: Domain,
        objective: Objective,
        mut classes: Vec<Class>,
        order: impl Iterator<Item = u32>,
        spec: SpecHandle,
    ) -> Result<Self, SpecError> {
        // Only a class whose width and actions another class shares can
        // share its shape, so only those print their invariants.
        let mut twins: HashMap<_, usize> = HashMap::new();
        classes.iter().for_each(|c| *twins.entry(shape_of(&c.tables, false)).or_default() += 1);
        let mut seen = HashMap::new();
        let mut shapes = Vec::with_capacity(classes.len());
        for class in &classes {
            let next = seen.len() as u32;
            let print = twins[&shape_of(&class.tables, false)] > 1;
            shapes.push(*seen.entry(shape_of(&class.tables, print)).or_insert(next));
        }
        drop((twins, seen));
        classes.iter_mut().zip(shapes).for_each(|(class, shape)| class.shape = shape);
        let layout = Arc::new(Layout::tile(classes, order)?);
        let [width, .., groups] = layout.runs.totals;
        // Placement `k` of a run boots its class's boot ids, `k` strides up.
        let boot = layout.runs.runs.iter().flat_map(|run| {
            let class = &layout.classes[run.start.class as usize];
            let ids: Vec<usize> = class.boot.iter().map(CompId::index).collect();
            let (base, stride, n) = (run.start.comp as usize, class.width(), ids.len());
            let at = move |i: usize| CompId::from_index(base + i / n * stride + ids[i % n]);
            (0..run.count as usize * n).map(at)
        });
        let boot = Config::from_ids(width, boot);
        Ok(CompiledWorld {
            universe: View::new(&layout, |t| &t.universe),
            inv: View::new(&layout, |t| &t.inv),
            actions: View::new(&layout, |t| &t.actions),
            model: View::new(&layout, |t| &t.model),
            index: View::new(&layout, |t| &t.index),
            search: View::new(&layout, |t| &t.search),
            groups,
            spec,
            domain,
            objective,
            layout,
            boot,
        })
    }

    /// Whether any world-wide view has been rendered.
    #[cfg(test)]
    pub(crate) fn views_rendered(&self) -> bool {
        self.layout.rendered.get().is_some()
    }

    /// The spec's domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The spec's cost objective.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Number of agent processes: agent `p` drives process `p`.
    pub fn process_count(&self) -> usize {
        self.layout.runs.totals[1]
    }

    /// The components of cluster `g` (the flip unit's full membership).
    pub fn cluster_comps(&self, g: usize) -> ClusterComps<'_> {
        let (p, class) = self.layout.holding(Axis::Cluster, g);
        ClusterComps { row: class.members.row(g - p.cluster as usize).iter(), base: p.comp }
    }

    /// Placement `pix` and its class.
    pub(crate) fn placement(&self, pix: usize) -> (Placement, &Class) {
        self.layout.at(pix)
    }

    /// The placement holding component `c`.
    pub(crate) fn placement_of(&self, c: CompId) -> usize {
        self.layout.runs.find(Axis::Comp, c.index())
    }

    /// World action `id`, unnamed.
    pub(crate) fn action(&self, id: ActionId) -> Action {
        let (p, class) = self.layout.holding(Axis::Action, id.index());
        self.layout.action(p, &class.tables.actions[id.index() - p.action as usize], None)
    }

    /// The agent index driving `c`'s hosting process, if placed.
    pub(crate) fn agent_for(&self, c: CompId) -> Option<usize> {
        let (p, class) = self.layout.holding(Axis::Comp, c.index());
        let local = CompId::from_index(c.index() - p.comp as usize);
        class.tables.model.host_of(local).map(|h| (p.process + h.0) as usize)
    }

    /// Placement `p`'s slice of world configuration `cfg`: its class's
    /// components, over local ids.
    pub(crate) fn slice(&self, p: Placement, cfg: &Config) -> Config {
        let mut out = Config::empty(1);
        slice_into(p, self.layout.class(p), cfg, &mut out);
        out
    }

    /// Whether `cfg` satisfies every invariant: a configuration of the
    /// world's width, safe as [`CompiledWorld::still_safe`] finds it
    /// against the boot configuration, which the compile proved safe.
    pub(crate) fn is_safe(&self, cfg: &Config) -> bool {
        cfg.width() == self.boot.width() && self.still_safe(&self.boot, cfg)
    }

    /// Whether `cfg` satisfies every invariant, given that `proved` (of the
    /// same width) does: for each component the two disagree on, the
    /// predicates of its placement's class that mention it, on that
    /// placement's slice of `cfg`. Exact, as a predicate no changed
    /// component meets reads what it read in `proved`.
    pub(crate) fn still_safe(&self, proved: &Config, cfg: &Config) -> bool {
        let mut changed = proved.diff(cfg).peekable();
        let (mut local, mut scratch) = (Vec::new(), Config::empty(1));
        while let Some(c) = changed.next() {
            let (p, class) = self.layout.holding(Axis::Comp, c.index());
            let end = p.comp as usize + class.width();
            local.clear();
            local.push(CompId::from_index(c.index() - p.comp as usize));
            while let Some(d) = changed.next_if(|d| d.index() < end) {
                local.push(CompId::from_index(d.index() - p.comp as usize));
            }
            slice_into(p, class, cfg, &mut scratch);
            let compiled = class.tables.search.compiled();
            if !compiled
                .affected_by_ids(&local)
                .iter()
                .all(|&k| compiled.eval_pred(k as usize, &scratch))
            {
                return false;
            }
        }
        true
    }

    /// The planner's last resort, for a scope across placements that no
    /// normalizer speaks for (one that cuts a collaborative set, which no
    /// flip's scope does): the scoped search on the world-wide view.
    pub(crate) fn plan_on_views(
        &self,
        scope: &[CompId],
        from: &Config,
        to: &Config,
    ) -> Option<Path> {
        let ixs = self.search.scoped_action_ixs(scope);
        self.search.plan_scoped(from, to, &ixs).0
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
            let (p, class) = self.layout.holding(Axis::Cluster, g);
            let mode = if to_true { &class.alternate } else { &class.boot };
            let row = class.members.row(g - p.cluster as usize);
            assign(&mut cfg, row.iter().map(|&c| (shift(c, p.comp), mode.contains(c))));
        }
        cfg
    }

    /// The adaptation scope of a flip set: every flipped cluster's
    /// components, expanded to full collaborative sets, ascending and
    /// without repeats (what [`Search::scoped_action_ixs`] requires).
    pub fn scope_comps(&self, flips: &[(usize, bool)]) -> Vec<CompId> {
        let mut comps = Vec::new();
        // A collaborative set lies inside its cluster's placement: each run
        // of flips in one placement expands in its class.
        let mut rest = flips;
        while let Some(&(g, _)) = rest.first() {
            let (p, class) = self.layout.holding(Axis::Cluster, g);
            let clusters = p.cluster as usize..p.cluster as usize + class.members.rows();
            let n = rest.iter().take_while(|f| clusters.contains(&f.0)).count();
            let local =
                rest[..n].iter().flat_map(|&(h, _)| class.members.row(h - p.cluster as usize));
            let sets = class.tables.index.expand(local.copied());
            comps.extend(sets.into_iter().map(|c| shift(c, p.comp)));
            rest = &rest[n..];
        }
        // `expand` lists whole sets one after another, each sorted: sets of
        // contiguous components come out ascending, interleaved ones (or
        // runs met twice) as sorted runs.
        if !comps.is_sorted_by(|a, b| a < b) {
            comps.sort_unstable();
            comps.dedup();
        }
        comps
    }

    /// What clusters `groups` hold: their components and the agents hosting
    /// them, as ascending disjoint ranges of world ids. Consecutive
    /// placements wholly inside `groups` are one range of each, read off
    /// their run; a placement `groups` cuts, or one with a process that
    /// hosts nothing, lists its clusters' ids.
    pub(crate) fn block(&self, groups: Range<usize>) -> Block {
        let mut block = Block::default();
        let mut g = groups.start;
        while g < groups.end {
            let (run, k) = self.layout.runs.locate(Axis::Cluster, g);
            let sizes = &self.layout.runs.sizes[run.start.class as usize];
            let [width, processes, .., clusters] = *sizes;
            let p = run.nth(k, sizes);
            let class = self.layout.class(p);
            let lo = g - p.cluster as usize;
            // Whole placements from here to the end of the block or the run,
            // when their agents are one range too.
            let whole = if lo == 0 && class.hosts_every_process {
                ((groups.end - g) / clusters).min(run.count as usize - k)
            } else {
                0
            };
            if whole > 0 {
                let (comp, process) = (p.comp as usize, p.process as usize);
                push_range(&mut block.comps, comp..comp + whole * width);
                push_range(&mut block.agents, process..process + whole * processes);
                g += whole * clusters;
                continue;
            }
            let hi = (groups.end - p.cluster as usize).min(clusters);
            let mut local: Vec<CompId> =
                (lo..hi).flat_map(|h| class.members.row(h)).copied().collect();
            local.sort_unstable();
            for &c in &local {
                let c = c.index() + p.comp as usize;
                push_range(&mut block.comps, c..c + 1);
            }
            for a in class.hosts(p.process, local.into_iter()) {
                push_range(&mut block.agents, a..a + 1);
            }
            g = p.cluster as usize + hi;
        }
        block
    }

    /// The lock resources of a scope: the component ids themselves plus the
    /// hosting processes (offset past the component id space so the two
    /// namespaces cannot collide). Locking hosts as well as components means
    /// two sessions can never concurrently drive the *same agent process*
    /// through conflicting barriers.
    pub fn resources_for(&self, scope: &[CompId]) -> Vec<u32> {
        let offset = self.layout.runs.totals[0] as u32;
        let mut out: Vec<u32> = Vec::with_capacity(scope.len() * 2);
        for &c in scope {
            out.push(c.index() as u32);
            if let Some(p) = self.agent_for(c) {
                out.push(offset + p as u32);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// What a block of clusters holds ([`CompiledWorld::block`]).
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Block {
    /// Their components, as ascending disjoint ranges of ids.
    pub(crate) comps: Vec<Range<usize>>,
    /// The agents hosting those components, as ascending disjoint ranges.
    pub(crate) agents: Vec<Range<usize>>,
}

/// Appends `r` to `runs`, ascending disjoint ranges, merging it into the
/// last when the two touch or overlap; `r` must not start below the last's
/// start.
pub(crate) fn push_range(runs: &mut Vec<Range<usize>>, r: Range<usize>) {
    if r.is_empty() {
        return;
    }
    match runs.last_mut() {
        Some(last) if last.end >= r.start => last.end = last.end.max(r.end),
        _ => runs.push(r),
    }
}

/// Writes placement `p`'s slice of `cfg` over `out`, made a configuration
/// of its class's width first if it is not one: local word `k` is world
/// bits `comp + 64k ..`.
fn slice_into(p: Placement, class: &Class, cfg: &Config, out: &mut Config) {
    let (base, width, words) = (p.comp as usize, class.width(), cfg.width().div_ceil(64));
    if out.width() != width {
        *out = Config::empty(width);
    }
    for k in 0..width.div_ceil(64) {
        let (w, s) = ((base + 64 * k) / 64, (base + 64 * k) % 64);
        let mut word = cfg.word(w) >> s;
        if s > 0 && w + 1 < words {
            word |= cfg.word(w + 1) << (64 - s);
        }
        let left = width - 64 * k;
        if left < 64 {
            word &= (1 << left) - 1;
        }
        out.set_word(k, word);
    }
}

#[cfg(test)]
pub(crate) mod tests {
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

    /// One cluster `{A, B, C}`, each on its own process, under
    /// `one_of(A, B, C)`.
    fn abc_class() -> Class {
        let mut b = WorldBuilder::new(Objective::LatencyMs, [3, 1, 2, 1]);
        b.core.processes(3);
        for (process, stem) in ["A", "B", "C"].into_iter().enumerate() {
            b.comp(stem, process).unwrap();
        }
        b.core.parse_invariants(&["one_of(A, B, C)"]).unwrap();
        b.action("ab", &[0], &[1], [1, 1]).unwrap();
        b.action("bc", &[1], &[2], [1, 1]).unwrap();
        b.cluster(&[0, 1, 2], &[0], &[2]).unwrap();
        b.classes(true).unwrap().remove(0)
    }

    /// Two interleaved clusters, `{A, C}` and `{B, D}`, on processes 0 and
    /// 2 of three: process 1 hosts nothing.
    fn gapped_class() -> Class {
        let mut b = WorldBuilder::new(Objective::LatencyMs, [4, 2, 2, 2]);
        b.core.processes(3);
        for (stem, process) in [("A", 0), ("B", 2), ("C", 0), ("D", 2)] {
            b.comp(stem, process).unwrap();
        }
        b.core.parse_invariants(&["one_of(A, C)", "one_of(B, D)"]).unwrap();
        b.action("ac", &[0], &[2], [1, 1]).unwrap();
        b.action("bd", &[1], &[3], [1, 1]).unwrap();
        b.cluster(&[0, 2], &[0], &[2]).unwrap();
        b.cluster(&[1, 3], &[1], &[3]).unwrap();
        b.classes(true).unwrap().remove(0)
    }

    /// A world's placements as one row per placement, each starting every
    /// base where the one before it ends: what [`Runs`] replaces, and what
    /// it must answer as.
    fn placement_table(sizes: &[[usize; 5]], order: &[u32]) -> Vec<Placement> {
        let mut next = [0usize; 5];
        let mut table = Vec::new();
        for &class in order {
            let [comp, process, action, _, cluster] = next.map(|b| b as u32);
            table.push(Placement { class, comp, process, action, cluster });
            next = std::array::from_fn(|k| next[k] + sizes[class as usize][k]);
        }
        table
    }

    /// The row of `table` whose range on `axis` holds `id`: the last whose
    /// base is at most `id`.
    fn table_find(table: &[Placement], axis: Axis, id: usize) -> usize {
        table.partition_point(|p| p.base(axis) <= id).saturating_sub(1)
    }

    const AXES: [Axis; 4] = [Axis::Comp, Axis::Process, Axis::Action, Axis::Cluster];

    proptest::proptest! {
        /// Runs answer every id as a table of one row per placement does:
        /// `find`, `placement` and `at` over mixed class orders, classes
        /// with nothing on some axis (no actions, no clusters, not even a
        /// component), every id on or beside a run boundary, and ids past
        /// the end. It catches `Runs::locate` searching with `<` where it
        /// needs `<=`, which resolves an id on a run boundary one stride
        /// past the end of the run before it.
        #[test]
        fn runs_resolve_ids_as_a_placement_table_does(
            sizes in proptest::collection::vec(
                (0usize..4, 0usize..3, 0usize..3, 0usize..2, 0usize..3),
                1..4,
            ),
            order in proptest::collection::vec(0u32..4, 1..40),
        ) {
            let sizes: Vec<[usize; 5]> =
                sizes.into_iter().map(|(a, b, c, d, e)| [a, b, c, d, e]).collect();
            let order: Vec<u32> = order.into_iter().map(|c| c % sizes.len() as u32).collect();
            let table = placement_table(&sizes, &order);
            let runs = Runs::tile(sizes.clone(), order.iter().copied()).unwrap();
            proptest::prop_assert_eq!(runs.len(), table.len());
            proptest::prop_assert_eq!(runs.iter().collect::<Vec<_>>(), table.clone());
            for (pix, &p) in table.iter().enumerate() {
                proptest::prop_assert_eq!(runs.at(pix), p, "placement {}", pix);
            }
            for axis in AXES {
                for id in 0..runs.totals[axis as usize] + 3 {
                    let want = table_find(&table, axis, id);
                    proptest::prop_assert_eq!(runs.find(axis, id), want, "{:?} id {}", axis, id);
                    proptest::prop_assert_eq!(runs.placement(axis, id), table[want]);
                }
            }
        }

        /// A world of three real classes in a random order resolves every
        /// component, agent and cluster as the placement table does, and a
        /// block of clusters holds, as ranges, the ids a walk over its
        /// clusters collects — whole placements, cut ones, and a class
        /// whose agents are not one range.
        #[test]
        fn a_mixed_world_resolves_and_blocks_as_its_placement_table(
            order in proptest::collection::vec(0u32..3, 1..16),
            cut in (0usize..40, 0usize..40),
        ) {
            let classes = vec![video_class().unwrap(), abc_class(), gapped_class()];
            let sizes: Vec<[usize; 5]> = classes.iter().map(Class::sizes).collect();
            let table = placement_table(&sizes, &order);
            let groups = table.iter().map(|p| sizes[p.class as usize][4]).sum::<usize>();
            let spec = SpecHandle { groups, cell: OnceLock::new() };
            let w = CompiledWorld::place(
                Domain::Video, Objective::LatencyMs, classes, order.iter().copied(), spec,
            ).unwrap();
            let class = |p: &Placement| &w.layout.classes[p.class as usize];
            let agent = |c: usize| -> Option<usize> {
                let p = &table[table_find(&table, Axis::Comp, c)];
                let local = CompId::from_index(c - p.comp as usize);
                class(p).tables.model.host_of(local).map(|h| (p.process + h.0) as usize)
            };
            let cluster = |g: usize| -> Vec<CompId> {
                let p = &table[table_find(&table, Axis::Cluster, g)];
                let row = class(p).members.row(g - p.cluster as usize);
                row.iter().map(|&c| shift(c, p.comp)).collect()
            };
            for (pix, p) in table.iter().enumerate() {
                proptest::prop_assert_eq!(w.placement(pix).0, *p);
            }
            for c in 0..w.layout.runs.totals[0] {
                let want = table_find(&table, Axis::Comp, c);
                proptest::prop_assert_eq!(w.placement_of(CompId::from_index(c)), want);
                proptest::prop_assert_eq!(w.agent_for(CompId::from_index(c)), agent(c));
            }
            for g in 0..groups {
                proptest::prop_assert_eq!(w.cluster_comps(g).collect::<Vec<_>>(), cluster(g));
            }
            let (a, b) = (cut.0 % (groups + 1), cut.1 % (groups + 1));
            let block = w.block(a.min(b)..a.max(b));
            let mut comps: Vec<usize> =
                (a.min(b)..a.max(b)).flat_map(cluster).map(|c| c.index()).collect();
            comps.sort_unstable();
            let mut agents: Vec<usize> = comps.iter().filter_map(|&c| agent(c)).collect();
            agents.sort_unstable();
            agents.dedup();
            let ids = |ranges: &[Range<usize>]| ranges.iter().cloned().flatten().collect::<Vec<_>>();
            proptest::prop_assert_eq!(ids(&block.comps), comps);
            proptest::prop_assert_eq!(ids(&block.agents), agents);
            let coalesced = |rs: &[Range<usize>]| rs.windows(2).all(|w| w[0].end < w[1].start);
            proptest::prop_assert!(coalesced(&block.comps) && coalesced(&block.agents));
        }
    }

    /// A three-component class placed 30 times: placement 21 (components
    /// 63–65) straddles the first two configuration words, so its slice and
    /// the per-class safety checks read across a word boundary.
    #[test]
    fn slices_and_class_checks_read_across_a_word_boundary() {
        let class = abc_class();
        let spec = SpecHandle { groups: 30, cell: OnceLock::new() };
        let order = std::iter::repeat_n(0, 30);
        let w = CompiledWorld::place(Domain::Video, Objective::LatencyMs, vec![class], order, spec);
        let w = w.unwrap();
        let init = w.initial_config();
        let moved = w.target_for(&init, &[(21, true), (22, true)]);
        let id = CompId::from_index;
        for cfg in [&init, &moved] {
            for pix in 0..30 {
                let (p, _) = w.placement(pix);
                let bits = |c: &Config, base: usize| -> Vec<bool> {
                    (0..3).map(|l| c.contains(id(base + l))).collect()
                };
                assert_eq!(bits(&w.slice(p, cfg), 0), bits(cfg, p.comp as usize), "{pix}");
            }
            assert!(w.is_safe(cfg) && w.still_safe(&init, cfg));
        }
        let mut broken = moved.clone();
        broken.insert(id(64));
        assert!(!w.is_safe(&broken) && !w.still_safe(&moved, &broken), "B21 beside C21");
        assert!(!w.views_rendered());
        assert!(!w.search.is_safe(&broken), "the rendered view agrees");
        assert_eq!(w.universe.name(id(64)), "B21");
    }

    /// Two clusters whose components interleave, `{C0, C2}` and `{C1, C3}`:
    /// a `one_of` and a replace action each way per cluster.
    pub(crate) fn interleaved_spec() -> WorldSpec {
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

    /// `groups` clusters `{C{g}, C{groups + g}}` under `one_of`, with
    /// components `2k` and `2k + 1` on process `k`: a process hosts
    /// components of two clusters that regions may split between them.
    pub(crate) fn shared_hosts_spec(groups: usize) -> WorldSpec {
        let name = |c: usize| format!("C{c}");
        let comps = (0..2 * groups).map(|c| CompSpec { name: name(c), process: c / 2 }).collect();
        let replace = |from: usize, to: usize| ActionSpec {
            name: format!("{from}->{to}"),
            removes: vec![from],
            adds: vec![to],
            cost_ms: 1,
            cost_watts: 1,
        };
        WorldSpec {
            domain: Domain::Serverless,
            objective: Objective::LatencyMs,
            comps,
            invariants: (0..groups)
                .map(|g| format!("one_of({}, {})", name(g), name(groups + g)))
                .collect(),
            actions: (0..groups)
                .flat_map(|g| [replace(g, groups + g), replace(groups + g, g)])
                .collect(),
            clusters: (0..groups)
                .map(|g| ClusterSpec {
                    comps: vec![g, groups + g],
                    on_false: vec![g],
                    on_true: vec![groups + g],
                })
                .collect(),
        }
    }

    /// Clusters `{A{g}, B{g}}`, each a replacement either way: clusters 0
    /// and 2 under `one_of(A{g}, B{g})` are equal up to names, cluster 1
    /// differs from them only in its forward action's cost, and cluster 3
    /// only in its invariant, `(A3 ^ B3)`.
    pub(crate) fn four_clusters() -> WorldSpec {
        let comps = (0..8).map(|c| {
            let name = format!("{}{}", ["A", "B"][c % 2], c / 2);
            CompSpec { name, process: c }
        });
        let replace = |name: String, from: usize, to: usize, cost_ms: u64| ActionSpec {
            name,
            removes: vec![from],
            adds: vec![to],
            cost_ms,
            cost_watts: 1,
        };
        let actions = (0..4).flat_map(|g| {
            let fwd = replace(format!("fwd{g}"), 2 * g, 2 * g + 1, [1, 2, 1, 1][g]);
            [fwd, replace(format!("back{g}"), 2 * g + 1, 2 * g, 1)]
        });
        let cluster = |g: usize| ClusterSpec {
            comps: vec![2 * g, 2 * g + 1],
            on_false: vec![2 * g],
            on_true: vec![2 * g + 1],
        };
        WorldSpec {
            domain: Domain::Serverless,
            objective: Objective::LatencyMs,
            comps: comps.collect(),
            invariants: ["one_of(A0, B0)", "one_of(A1, B1)", "one_of(A2, B2)", "(A3 ^ B3)"]
                .map(String::from)
                .into(),
            actions: actions.collect(),
            clusters: (0..4).map(cluster).collect(),
        }
    }

    /// A spec world is one class per block: a cluster of its own where
    /// its ids allow it, one class for clusters whose components or
    /// processes interleave, and a process that hosts nothing stays with
    /// the block before it. Classes equal up to names share a shape.
    #[test]
    fn a_spec_world_is_one_class_per_block() {
        let classes = |w: &FleetWorld| w.layout.classes.len();
        let four = FleetWorld::from_spec(four_clusters());
        assert_eq!(classes(&four), 4, "one block per cluster");
        let shapes: Vec<u32> = four.layout.classes.iter().map(|c| c.shape).collect();
        assert_eq!(shapes, [0, 1, 0, 2], "clusters 0 and 2 are equal up to names");
        assert_eq!(classes(&FleetWorld::from_spec(interleaved_spec())), 1, "interleaved");
        assert_eq!(classes(&FleetWorld::from_spec(shared_hosts_spec(3))), 1, "shared hosts");
        let mut gap = four_clusters();
        // Process 2 hosts nothing; cluster 2's components share process 5.
        gap.comps[2..5].iter_mut().for_each(|c| c.process += 1);
        let w = FleetWorld::from_spec(gap);
        assert_eq!((classes(&w), w.process_count()), (4, 8));
        let first = &w.layout.classes[0];
        assert_eq!(first.tables.model.process_count(), 3, "process 2 stays with block 0");
        assert!(!first.hosts_every_process);
        assert_eq!(w.agent_for(CompId::from_index(2)), Some(3));
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
