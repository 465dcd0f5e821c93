//! The fleet-wide plan cache: scope-normalized memoization of lazy plans.
//!
//! Many fleet sessions pose *isomorphic* planning problems — flip group 7
//! forward looks exactly like flip group 3 forward once the component names
//! are erased. The cache exploits this: a session's planning query is
//! normalized by relabeling its scope's components onto dense local ids
//! (scope components sorted ascending → `0, 1, …`), and the cache key is
//! the normalized *instance* — the in-scope invariants printed over local
//! ids, the scoped action repertoire as (removes, adds, cost) triples over
//! local ids, and the local projections of the two endpoints. Sessions over
//! disjoint-but-identical scopes therefore share cache entries.
//!
//! A cached value stores the plan as a sequence of indices into the
//! session's *scoped action list* (whose order is the world's action order,
//! hence identical across isomorphic scopes). Denormalization replays those
//! indices from the requester's own global source configuration, so the
//! returned [`Path`](sada_plan::Path) is bit-for-bit what a fresh search
//! would have produced — the search is deterministic and depends only on
//! the normalized instance (property-tested in `tests/fleet_props.rs`).
//! Replay validation after a crash re-derives plans by re-querying the
//! planner, so cached and fresh answers **must** coincide; a denormalized
//! plan that fails to re-apply (which the isomorphism argument rules out)
//! is treated as a miss and recomputed, never trusted.
//!
//! ## Coherence
//!
//! * **Safety**: a key only captures in-scope state, so the cache is
//!   consulted *after* both endpoints pass a full global safety check, and
//!   [`ScopeNormalizer::new`] refuses to normalize (returns `None`,
//!   disabling the cache for that session) whenever any invariant's support
//!   straddles the scope boundary — in-scope verdicts are then a pure
//!   function of in-scope bits.
//! * **One world**: entries encode the action repertoire and invariants in
//!   the key, and a cache serves the one world of its control plane.
//! * **Crash faults**: the cache is volatile state. A restored control
//!   plane starts cold (fresh cache), so cached paths are never treated as
//!   authoritative against the durable journal.
//!
//! ## The safety memo
//!
//! The global endpoint check that precedes every lookup is what would make
//! a cache hit O(world): two full passes over the invariant set per query.
//! Consecutive queries of one control plane differ in a handful of
//! components, so the cache keeps the last configuration its sessions
//! proved safe ([`sada_plan::SafeMemo`]) and [`PlanCache::is_safe`]
//! re-evaluates only the predicates the diff touches. The memo lives here —
//! not inside the world's [`Search`], which is immutable and shared by
//! every endpoint thread of a run — because the cache has exactly the
//! right owner and lifetime: one per control-plane incarnation, gone with
//! the cache on a crash.

use std::collections::HashMap;

use sada_expr::{CompId, Config, Expr, InvariantSet};
use sada_plan::{Action, Safe, SafeMemo, Search};

/// A normalized planning instance: the full problem statement over
/// scope-local component ids. Two sessions with equal keys pose the same
/// search problem and receive the same (relabeled) answer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// In-scope invariants, printed over local ids (`c0`, `c1`, …).
    pub(crate) invs: Vec<String>,
    /// Scoped actions as (removes, adds, cost) over local ids, in scoped
    /// (= world) order.
    pub actions: Vec<(Config, Config, u64)>,
    /// Local projection of the source configuration.
    pub(crate) source: Config,
    /// Local projection of the target configuration.
    pub(crate) target: Config,
}

/// A memoized plan: indices into the session's scoped action list, in step
/// order, plus the total cost. `action_ixs` is scope-independent — the
/// scoped list has the same order under every isomorphic scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CachedPlan {
    /// Scoped-action index of each step.
    pub(crate) action_ixs: Vec<u32>,
    /// Total path cost.
    pub(crate) cost: u64,
}

/// Cache activity counters, surfaced in the fleet report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to plan from scratch.
    pub misses: u64,
    /// Entries inserted after a miss.
    pub(crate) insertions: u64,
    /// Entries displaced by the LRU policy.
    pub evictions: u64,
}

/// What a cache interaction was, for the observability stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheNoteKind {
    /// Lookup answered from the cache.
    Hit,
    /// Lookup missed; the session planned from scratch.
    Miss,
    /// An entry was evicted to make room.
    Evicted,
}

/// One cache interaction, tagged with the session that caused it. The
/// control plane drains these and emits them as
/// [`FleetEvent`](sada_obs::FleetEvent)s with simulated-time stamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheNote {
    /// Session whose planning query interacted with the cache.
    pub session: u64,
    /// What happened.
    pub(crate) kind: CacheNoteKind,
}

#[derive(Debug, Clone)]
struct Slot {
    plan: Option<CachedPlan>,
    last_used: u64,
}

/// A bounded LRU cache of normalized planning instances, shared by every
/// session of one control-plane incarnation (`Rc<RefCell<PlanCache>>`).
#[derive(Debug)]
pub struct PlanCache {
    entries: HashMap<PlanKey, Slot>,
    capacity: usize,
    clock: u64,
    stats: PlanCacheStats,
    notes: Vec<CacheNote>,
    /// Last configuration [`PlanCache::is_safe`] proved safe, under the
    /// same world the entries were planned in.
    safe_memo: SafeMemo,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity cache is a contradiction");
        PlanCache {
            entries: HashMap::new(),
            capacity,
            clock: 0,
            stats: PlanCacheStats::default(),
            notes: Vec::new(),
            safe_memo: SafeMemo::default(),
        }
    }

    /// Looks up a normalized instance. `Some(None)` is a *negative* hit —
    /// the instance is known to have no safe path. Records a hit or miss.
    pub(crate) fn lookup(&mut self, key: &PlanKey, session: u64) -> Option<Option<CachedPlan>> {
        self.clock += 1;
        match self.entries.get_mut(key) {
            Some(slot) => {
                slot.last_used = self.clock;
                self.stats.hits += 1;
                self.notes.push(CacheNote { session, kind: CacheNoteKind::Hit });
                Some(slot.plan.clone())
            }
            None => {
                self.stats.misses += 1;
                self.notes.push(CacheNote { session, kind: CacheNoteKind::Miss });
                None
            }
        }
    }

    /// Memoizes the answer for a normalized instance (`None` = no safe
    /// path), evicting the least-recently-used entry at capacity.
    pub(crate) fn insert(&mut self, key: PlanKey, plan: Option<CachedPlan>, session: u64) {
        self.clock += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some(victim) =
                self.entries.iter().min_by_key(|(_, s)| s.last_used).map(|(k, _)| k.clone())
            {
                self.entries.remove(&victim);
                self.stats.evictions += 1;
                self.notes.push(CacheNote { session, kind: CacheNoteKind::Evicted });
            }
        }
        self.stats.insertions += 1;
        self.entries.insert(key, Slot { plan, last_used: self.clock });
    }

    /// Whether `cfg` satisfies every invariant of `search` — the global
    /// check that must pass before the cache may speak for a query — as
    /// the search's own proof of it, which a miss hands on to
    /// [`Search::plan_scoped_vetted`] so that no endpoint is vetted twice.
    /// Exact, and O(diff against the last configuration proved safe through
    /// this cache) rather than O(invariants). `search` must be the one
    /// world this cache serves.
    pub(crate) fn is_safe<'c>(&mut self, search: &Search, cfg: &'c Config) -> Option<Safe<'c>> {
        search.is_safe_memo(cfg, &mut self.safe_memo)
    }

    /// Drains the pending interaction notes (for event emission).
    pub(crate) fn take_notes(&mut self) -> Vec<CacheNote> {
        std::mem::take(&mut self.notes)
    }

    /// Activity counters so far.
    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }
}

/// Relabels one session's scope onto dense local component ids and builds
/// normalized cache keys. Construction fails (`None`) when any invariant's
/// support straddles the scope boundary — in-scope safety would then depend
/// on out-of-scope bits and the normalized key would under-identify the
/// problem, so the session simply plans uncached.
#[derive(Debug, Clone)]
pub struct ScopeNormalizer {
    /// Scope components, ascending; position = local id.
    locals: Vec<CompId>,
    /// In-scope invariants printed over local ids, in world order.
    invs: Vec<String>,
    /// Scoped actions over local ids, in scoped order.
    actions: Vec<(Config, Config, u64)>,
}

impl ScopeNormalizer {
    /// A normalizer for `scope` under `inv`, over the `scoped` action list
    /// (every scoped action's touched set must lie inside `scope`).
    ///
    /// Compiles the invariant set itself; sessions on the hot path should
    /// use [`ScopeNormalizer::from_compiled`] with the world's shared
    /// kernels instead.
    pub fn new(
        inv: &InvariantSet,
        width: usize,
        scope: &[CompId],
        scoped: &[Action],
    ) -> Option<Self> {
        let compiled = inv.compile(width);
        Self::from_compiled(inv, &compiled, scope, scoped)
    }

    /// A normalizer for `scope` built from the world's already-compiled
    /// kernels: no per-session invariant compilation, no width-sized
    /// allocations — cost scales with the scope, not the world.
    ///
    /// Partitions invariants by support exactly as [`ScopeNormalizer::new`]:
    /// disjoint predicates are skipped (constant across the session, checked
    /// globally at the endpoints), in-scope predicates are relabeled into
    /// the key in world order, straddlers abort normalization (`None`).
    pub fn from_compiled<'a>(
        inv: &InvariantSet,
        compiled: &sada_expr::CompiledInvariants,
        scope: &[CompId],
        scoped: impl IntoIterator<Item = &'a Action>,
    ) -> Option<Self> {
        let mut locals: Vec<CompId> = scope.to_vec();
        locals.sort_unstable();
        locals.dedup();
        // The inverted support index yields exactly the predicates whose
        // support intersects the scope, ascending (= world order).
        let mut cand: Vec<u32> =
            locals.iter().flat_map(|&c| compiled.preds_of_comp(c).iter().copied()).collect();
        cand.sort_unstable();
        cand.dedup();
        let mut invs = Vec::with_capacity(cand.len());
        for pix in cand {
            let support = compiled.support_of(pix as usize);
            if !support.iter().all(|c| locals.binary_search(c).is_ok()) {
                return None;
            }
            invs.push(relabel(&inv.exprs()[pix as usize], &locals).to_string());
        }
        let nz = ScopeNormalizer { locals, invs, actions: Vec::new() };
        let actions = scoped
            .into_iter()
            .map(|a| (nz.project_ids(a.removes()), nz.project_ids(a.adds()), a.cost()))
            .collect();
        Some(ScopeNormalizer { actions, ..nz })
    }

    /// The local projection of a global configuration: bit `l` is the
    /// membership of the scope's `l`-th component; out-of-scope bits drop.
    pub(crate) fn project(&self, cfg: &Config) -> Config {
        let present = self.locals.iter().enumerate().filter(|&(_, &c)| cfg.contains(c));
        Config::from_ids(self.locals.len().max(1), present.map(|(l, _)| CompId::from_index(l)))
    }

    /// [`ScopeNormalizer::project`] for a sparse in-scope id list.
    ///
    /// # Panics
    ///
    /// Panics if an id lies outside the scope (scoped actions touch only
    /// scope components by construction).
    pub(crate) fn project_ids(&self, ids: &[CompId]) -> Config {
        let local = |c: &CompId| {
            let l =
                self.locals.binary_search(c).expect("scoped action touches only scope components");
            CompId::from_index(l)
        };
        Config::from_ids(self.locals.len().max(1), ids.iter().map(local))
    }

    /// The normalized cache key for one planning query.
    pub fn key(&self, source: &Config, target: &Config) -> PlanKey {
        PlanKey {
            invs: self.invs.clone(),
            actions: self.actions.clone(),
            source: self.project(source),
            target: self.project(target),
        }
    }
}

/// `expr` with every variable replaced by its local id (its position in the
/// sorted `locals` list). Only called on expressions whose support lies
/// inside the scope.
fn relabel(expr: &Expr, locals: &[CompId]) -> Expr {
    let all = |es: &[Expr]| es.iter().map(|e| relabel(e, locals)).collect();
    match expr {
        Expr::Const(b) => Expr::Const(*b),
        Expr::Var(c) => {
            let l = locals.binary_search(c).expect("relabel called on an out-of-scope variable");
            Expr::Var(CompId::from_index(l))
        }
        Expr::Not(e) => Expr::Not(Box::new(relabel(e, locals))),
        Expr::And(es) => Expr::And(all(es)),
        Expr::Or(es) => Expr::Or(all(es)),
        Expr::Xor(es) => Expr::Xor(all(es)),
        Expr::ExactlyOne(es) => Expr::ExactlyOne(all(es)),
        Expr::Implies(a, b) => {
            Expr::Implies(Box::new(relabel(a, locals)), Box::new(relabel(b, locals)))
        }
        Expr::Iff(a, b) => Expr::Iff(Box::new(relabel(a, locals)), Box::new(relabel(b, locals))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sada_expr::Universe;

    fn two_group_world() -> (Universe, InvariantSet, Vec<Action>) {
        let mut u = Universe::new();
        for g in 0..2 {
            u.intern(&format!("Old{g}"));
            u.intern(&format!("New{g}"));
        }
        let inv =
            InvariantSet::parse(&["one_of(Old0, New0)", "one_of(Old1, New1)"], &mut u).unwrap();
        let mut actions = Vec::new();
        for g in 0..2u32 {
            let old = u.config_of(&[&format!("Old{g}")]);
            let new = u.config_of(&[&format!("New{g}")]);
            actions.push(Action::replace(2 * g, &format!("fwd{g}"), &old, &new, 1));
            actions.push(Action::replace(2 * g + 1, &format!("back{g}"), &new, &old, 1));
        }
        (u, inv, actions)
    }

    fn scoped_for(scope: &[CompId], actions: &[Action], width: usize) -> Vec<Action> {
        let mut cfg = Config::empty(width);
        for &c in scope {
            cfg.insert(c);
        }
        actions.iter().filter(|a| a.touches_only(&cfg)).cloned().collect()
    }

    #[test]
    fn isomorphic_scopes_normalize_to_the_same_key() {
        let (u, inv, actions) = two_group_world();
        let g0: Vec<CompId> = vec![u.id("Old0").unwrap(), u.id("New0").unwrap()];
        let g1: Vec<CompId> = vec![u.id("Old1").unwrap(), u.id("New1").unwrap()];
        let s0 = scoped_for(&g0, &actions, u.len());
        let s1 = scoped_for(&g1, &actions, u.len());
        let n0 = ScopeNormalizer::new(&inv, u.len(), &g0, &s0).unwrap();
        let n1 = ScopeNormalizer::new(&inv, u.len(), &g1, &s1).unwrap();
        let init = u.config_of(&["Old0", "Old1"]);
        let k0 = n0.key(&init, &u.config_of(&["New0", "Old1"]));
        let k1 = n1.key(&init, &u.config_of(&["Old0", "New1"]));
        assert_eq!(k0, k1, "flip-group-0 and flip-group-1 are the same problem");
        // Differing directions are *different* problems.
        let k1b = n1.key(&u.config_of(&["Old0", "New1"]), &init);
        assert_ne!(k0, k1b);
    }

    #[test]
    fn straddling_invariants_disable_normalization() {
        let (mut u, _, actions) = two_group_world();
        // A cross-group invariant whose support spans both scopes.
        let inv = InvariantSet::parse(&["one_of(Old0, New0)", "Old0 => Old1"], &mut u).unwrap();
        let g0: Vec<CompId> = vec![u.id("Old0").unwrap(), u.id("New0").unwrap()];
        let s0 = scoped_for(&g0, &actions, u.len());
        assert!(ScopeNormalizer::new(&inv, u.len(), &g0, &s0).is_none());
        // The full-span scope contains the straddler and normalizes fine.
        let all: Vec<CompId> = (0..u.len()).map(CompId::from_index).collect();
        let sall = scoped_for(&all, &actions, u.len());
        assert!(ScopeNormalizer::new(&inv, u.len(), &all, &sall).is_some());
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let (u, inv, actions) = two_group_world();
        let g0: Vec<CompId> = vec![u.id("Old0").unwrap(), u.id("New0").unwrap()];
        let s0 = scoped_for(&g0, &actions, u.len());
        let nz = ScopeNormalizer::new(&inv, u.len(), &g0, &s0).unwrap();
        let a = u.config_of(&["Old0"]);
        let b = u.config_of(&["New0"]);
        let mut cache = PlanCache::new(2);
        let k_ab = nz.key(&a, &b);
        let k_ba = nz.key(&b, &a);
        let k_aa = nz.key(&a, &a);
        cache.insert(k_ab.clone(), None, 1);
        cache.insert(k_ba.clone(), None, 1);
        assert!(cache.lookup(&k_ab, 1).is_some(), "touch k_ab so k_ba is coldest");
        cache.insert(k_aa.clone(), None, 1);
        assert_eq!(cache.entries.len(), 2);
        assert!(cache.lookup(&k_ba, 1).is_none(), "k_ba was evicted");
        assert!(cache.lookup(&k_ab, 1).is_some());
        assert!(cache.lookup(&k_aa, 1).is_some());
        let stats = cache.stats();
        assert_eq!((stats.insertions, stats.evictions), (3, 1));
        let kinds: Vec<CacheNoteKind> = cache.take_notes().iter().map(|n| n.kind).collect();
        assert!(kinds.contains(&CacheNoteKind::Evicted));
        assert!(cache.take_notes().is_empty(), "notes drain once");
    }
}
