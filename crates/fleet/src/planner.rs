//! Scope-restricted lazy planning for control-plane sessions.
//!
//! Each admitted session plans over *its scope only*: the action repertoire
//! is filtered to actions whose touched components all lie inside the
//! session's collaborative sets, and paths are found with the partial-
//! exploration planner ([`sada_plan::lazy`]) — no eager SAG over the whole
//! fleet's `2^n` configuration space is ever built. Each class's compiled
//! [`Search`](sada_plan::Search) (kernel invariant checks, interned arena,
//! action index) is built **once per run** with the world and shared,
//! immutably, by every session of every control plane — it holds no
//! per-query state; the last configuration the endpoint checks proved safe
//! lives in the session's [`PlanCache`].
//!
//! ## What a session costs
//!
//! *O(scope):* building the planner (the scope's action indices through the
//! search's inverted touch index, a scope-sized normalizer), the cache key,
//! the replay of a cached plan, compiling its steps, and every handle on a
//! configuration — `Config` is copy-on-write, so the manager's `source` /
//! `current` / `target`, the journal's `Request` record, each step's
//! `from` / `to` and the outcome's `final_config` are reference counts on
//! storage that already exists.
//!
//! *O(chunks touched)* — a world-wide `Config` is chunks of 4 096
//! components behind a spine of chunk pointers (49 of them at 200 000
//! components), relatives share every chunk neither has changed, and a
//! single-group session touches one — *per committing session:*
//!
//! * one **target copy**: `CompiledWorld::target_for` writes the flip into
//!   a copy of the fleet configuration's spine and of the chunk the flip
//!   falls in (the journal, `current` after the last commit and
//!   `final_config` all end up on this one spine, because
//!   [`ScopedLazyPlanner::denormalize`] and the search's path replay hand
//!   back the caller's own `to` as the last step's `to`);
//! * one **fold copy**: `ControlActor::finish` writes the scope's final
//!   values into `fleet_config`, whose previous spine is still the
//!   journaled source of every session admitted under it — again a spine
//!   and the chunks that change;
//! * one **`apply` transient**: replaying a cached one-step plan builds the
//!   step's result the same way, compares it with `to`, and drops it (a
//!   plan of `k` steps keeps `k - 1` intermediate configurations and drops
//!   the last);
//! * two **diff walks**: the endpoint checks in [`PlanCache::is_safe`]
//!   diff `from` and `to` against the last configuration proved safe, over
//!   the chunks they do not share with it, and evaluate the changed
//!   placements' class predicates on their slices;
//! * two **comparisons**: source against target in the manager, and the
//!   replayed walk's end against `to` — each reads the chunks the two sides
//!   hold separately and skips the rest by pointer. A miss searches the
//!   placement's class between the two slices, which costs what a search
//!   of the class costs, then replays the answer in place as a hit does.
//!   Every later `current == goal` compares two handles on one spine.
//!
//! A spine and a chunk twice over — under 2 KB at 200 000 components, where
//! one buffer per copy was 50 KB — are also all a finished session
//! *retains*. A session that asks for the mode its clusters are already in
//! copies and retains nothing: its source, target and final configuration
//! are the fleet snapshot it was admitted under.
//!
//! Because the planner is a pure function of the world and the scope, a
//! restored control plane can rebuild it per session and replay journals
//! deterministically
//! ([`ManagerCore::restore`](sada_proto::ManagerCore::restore) re-derives
//! `PathSelected` records by re-querying the planner). The optional
//! fleet-wide [`PlanCache`] preserves that determinism: cached answers are
//! exactly the paths a fresh search would return (see [`crate::cache`]), so
//! replay cannot distinguish a hit from a recomputation.

use std::borrow::Cow;
use std::cell::RefCell;
use std::rc::Rc;

use sada_expr::{CompId, Config};
use sada_plan::{Action, ActionId, Path, PathStep};
use sada_proto::{compile_steps, AdaptationPlanner, PlannedStep};

use crate::cache::{CachedPlan, Piece, PlanCache, PlanKey, ScopeNormalizer};
use crate::world::FleetWorld;

/// An [`AdaptationPlanner`] over the implicit SAG of one session's scope.
pub struct ScopedLazyPlanner {
    world: Rc<FleetWorld>,
    /// The scope, ascending and without repeats.
    scope: Vec<CompId>,
    /// The session's repertoire: the actions whose touched set lies inside
    /// the scope, in world order.
    repertoire: Repertoire,
    /// Relabels this scope onto cache-key coordinates; `None` when the
    /// scope is one whole placement (its class is the key) or when an
    /// invariant straddles the scope boundary (cache disabled).
    normalizer: Option<ScopeNormalizer>,
    /// The shared fleet cache and this session's id, when attached.
    cache: Option<(Rc<RefCell<PlanCache>>, u64)>,
}

/// Where a session's repertoire lies.
enum Repertoire {
    /// In one placement: ascending indices into its class's action table;
    /// `whole` when the scope is every component of the placement.
    Inside { placement: usize, ixs: Vec<u32>, whole: bool },
    /// In several placements, in world order: each action as its
    /// placement and its index into that placement's class table.
    Across(Vec<(usize, u32)>),
}

impl ScopedLazyPlanner {
    /// A planner restricted to `scope` (a union of collaborative sets, as
    /// produced by [`CompiledWorld::scope_comps`]). A scope inside one
    /// placement plans on its class's search, in the class's local ids; a
    /// scope across placements on a search of its own size, compiled from
    /// their class tables on a cache miss.
    ///
    /// [`CompiledWorld::scope_comps`]: crate::CompiledWorld::scope_comps
    pub fn new(world: Rc<FleetWorld>, scope: &[CompId]) -> Self {
        let mut sorted: Vec<CompId> = scope.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        // The placements the scope meets, each with its share of the scope
        // in the class's local ids.
        let mut shares: Vec<(usize, Vec<CompId>)> = Vec::new();
        let mut rest = sorted.as_slice();
        while let Some(&c) = rest.first() {
            let pix = world.placement_of(c);
            let (p, class) = world.placement(pix);
            let end = p.comp as usize + class.width();
            let n = rest.iter().take_while(|c| c.index() < end).count();
            assert!(n > 0, "scope component {c:?} lies outside the world");
            let local = rest[..n].iter().map(|c| CompId::from_index(c.index() - p.comp as usize));
            shares.push((pix, local.collect()));
            rest = &rest[n..];
        }
        if shares.is_empty() {
            shares.push((0, Vec::new()));
        }
        let mut scoped: Vec<Vec<u32>> = shares
            .iter()
            .map(|(pix, local)| world.placement(*pix).1.tables.search.scoped_action_ixs(local))
            .collect();
        let whole = match shares.as_slice() {
            [(pix, local)] => local.len() == world.placement(*pix).1.width(),
            _ => false,
        };
        let normalizer = if whole {
            None
        } else {
            let mut at = 0;
            let pieces = shares.iter().map(|(pix, local)| {
                let (p, class) = world.placement(*pix);
                let comps = at..at + local.len();
                at += local.len();
                let t = &class.tables;
                Piece { inv: &t.inv, compiled: t.search.compiled(), base: p.comp as usize, comps }
            });
            let actions = shares.iter().zip(&scoped).flat_map(|((pix, _), ixs)| {
                let (p, class) = world.placement(*pix);
                ixs.iter().map(move |&ix| (p.comp as usize, &class.tables.actions[ix as usize]))
            });
            ScopeNormalizer::from_pieces(sorted.clone(), pieces, actions)
        };
        let repertoire = if let [(placement, _)] = shares.as_slice() {
            let ixs = scoped.pop().expect("one share, one list");
            Repertoire::Inside { placement: *placement, ixs, whole }
        } else {
            let each = shares.iter().zip(&scoped);
            let all = each.flat_map(|((pix, _), ixs)| ixs.iter().map(|&ix| (*pix, ix)));
            Repertoire::Across(all.collect())
        };
        ScopedLazyPlanner { world, scope: sorted, repertoire, normalizer, cache: None }
    }

    /// Attaches the fleet-wide plan cache on behalf of session `session`.
    pub fn with_cache(mut self, cache: Rc<RefCell<PlanCache>>, session: u64) -> Self {
        self.cache = Some((cache, session));
        self
    }

    /// Whether an attached cache may speak for this scope's queries: the
    /// scope is one whole placement, or it normalizes (see
    /// [`ScopeNormalizer::from_compiled`]).
    pub fn normalizes(&self) -> bool {
        matches!(self.repertoire, Repertoire::Inside { whole: true, .. })
            || self.normalizer.is_some()
    }

    /// World action `id`, unnamed, if it is in the session's repertoire
    /// (the world's actions whose touched set lies inside the scope).
    pub fn scoped_action(&self, id: ActionId) -> Option<Action> {
        self.position_of(id).map(|_| self.world.action(id))
    }

    /// The position of world action `id` in the session's repertoire.
    fn position_of(&self, id: ActionId) -> Option<usize> {
        (0..self.len()).position(|ix| self.scoped_id(ix) == Some(id))
    }

    /// Number of actions in the repertoire.
    fn len(&self) -> usize {
        match &self.repertoire {
            Repertoire::Inside { ixs, .. } => ixs.len(),
            Repertoire::Across(actions) => actions.len(),
        }
    }

    /// The scoped action at position `ix` of the session's repertoire: its
    /// placement and its class action.
    fn scoped_at(&self, ix: usize) -> Option<(usize, &Action)> {
        let (pix, aix) = match &self.repertoire {
            Repertoire::Inside { placement, ixs, .. } => (*placement, *ixs.get(ix)?),
            Repertoire::Across(actions) => *actions.get(ix)?,
        };
        Some((pix, &self.world.placement(pix).1.tables.actions[aix as usize]))
    }

    /// The world id of the scoped action at position `ix`.
    fn scoped_id(&self, ix: usize) -> Option<ActionId> {
        let (pix, a) = self.scoped_at(ix)?;
        Some(ActionId(self.world.placement(pix).0.action + a.id().0))
    }

    /// Replays a memoized plan from this session's own source. Returns
    /// `None` if any step fails to apply or the walk misses the target —
    /// the caller then treats the entry as a miss and plans from scratch.
    ///
    /// The walk's end is verified equal to `to` and then *replaced* by it,
    /// so the last step lands on the caller's own storage: the manager's
    /// `current`, the journaled target and the session's `final_config`
    /// stay one spine and one changed chunk, and the replay's own last
    /// copy is dropped here instead of being retained beside them.
    fn denormalize(&self, cached: &CachedPlan, from: &Config, to: &Config) -> Option<Path> {
        let mut cur = from.clone();
        let mut steps = Vec::with_capacity(cached.action_ixs.len());
        for &ix in &cached.action_ixs {
            let (pix, action) = self.scoped_at(ix as usize)?;
            let next = apply_placed(action, self.world.placement(pix).0.comp, &cur)?;
            steps.push(PathStep {
                from: cur,
                to: next.clone(),
                action: self.scoped_id(ix as usize)?,
                cost: action.cost(),
            });
            cur = next;
        }
        if cur != *to {
            return None;
        }
        if let Some(last) = steps.last_mut() {
            last.to = to.clone();
        }
        Some(Path { steps, cost: cached.cost })
    }

    /// Encodes a freshly computed path as scoped-action indices.
    fn normalize(&self, path: &Path) -> Option<CachedPlan> {
        let position = |s: &PathStep| self.position_of(s.action).map(|i| i as u32);
        let ixs: Option<Vec<u32>> = path.steps.iter().map(position).collect();
        Some(CachedPlan { action_ixs: ixs?, cost: path.cost })
    }

    /// The cache key of one query: the class's shape and the placement's
    /// slices for a whole placement, else the normalized instance; `None`
    /// when neither speaks for the scope.
    fn key(&self, from: &Config, to: &Config) -> Option<PlanKey> {
        if let Repertoire::Inside { placement, whole: true, .. } = &self.repertoire {
            let (p, class) = self.world.placement(*placement);
            let (source, target) = (self.world.slice(p, from), self.world.slice(p, to));
            return Some(PlanKey::Class { shape: class.shape, source, target });
        }
        Some(self.normalizer.as_ref()?.key(from, to))
    }

    /// Answers one query through the cache. The outer `None` means the
    /// cache could not speak for this query (none attached, the scope does
    /// not normalize, or an endpoint is unsafe outside the scope); the
    /// inner option is the definitive answer.
    fn plan_via_cache(&self, from: &Config, to: &Config) -> Option<Option<Path>> {
        let (cache, session) = self.cache.as_ref()?;
        if !self.normalizes() {
            return None;
        }
        // The key captures in-scope state only, so out-of-scope safety must
        // be established before the cache may speak for this query.
        if !cache.borrow_mut().is_safe(&self.world, &[from, to]) {
            return None;
        }
        let key = self.key(from, to)?;
        if let Some(entry) = cache.borrow_mut().lookup(&key, *session) {
            match entry {
                None => return Some(None),
                Some(plan) => {
                    if let Some(path) = self.denormalize(&plan, from, to) {
                        return Some(Some(path));
                    }
                    // Unreachable by the isomorphism argument, but never
                    // trust a plan that fails to replay: recompute below.
                }
            }
        }
        let path = self.fresh(from, to);
        match &path {
            None => cache.borrow_mut().insert(key, None, *session),
            Some(p) => {
                if let Some(plan) = self.normalize(p) {
                    cache.borrow_mut().insert(key, Some(plan), *session);
                }
            }
        }
        Some(path)
    }

    /// A fresh search between `from` and `to`, which the caller has proved
    /// safe outside the scope. A scope inside one placement searches its
    /// class, in local ids, and replays the answer in place; a scope across
    /// placements searches the instance its normalizer states.
    fn fresh(&self, from: &Config, to: &Config) -> Option<Path> {
        match &self.repertoire {
            Repertoire::Inside { placement, ixs, .. } => {
                let (p, class) = self.world.placement(*placement);
                let (local_from, local_to) = (self.world.slice(p, from), self.world.slice(p, to));
                let local = class.tables.search.plan_scoped(&local_from, &local_to, ixs).0?;
                let at = |s: &PathStep| ixs.binary_search(&s.action.0).ok();
                self.replay(&local, at, from, to)
            }
            Repertoire::Across(_) => match &self.normalizer {
                Some(nz) => {
                    let local = nz.search().plan(&nz.project(from), &nz.project(to)).0?;
                    self.replay(&local, |s| Some(s.action.index()), from, to)
                }
                None => self.world.plan_on_views(&self.scope, from, to),
            },
        }
    }

    /// A path found in local ids, replayed in place from `from`: `at` gives
    /// each step's position in the repertoire.
    fn replay(
        &self,
        local: &Path,
        at: impl Fn(&PathStep) -> Option<usize>,
        from: &Config,
        to: &Config,
    ) -> Option<Path> {
        let ixs: Option<Vec<u32>> = local.steps.iter().map(|s| at(s).map(|i| i as u32)).collect();
        self.denormalize(&CachedPlan { action_ixs: ixs?, cost: local.cost }, from, to)
    }
}

/// Class action `a` applied at component base `base` to the world
/// configuration `cfg`, if it applies there.
fn apply_placed(a: &Action, base: u32, cfg: &Config) -> Option<Config> {
    let at = |c: &CompId| CompId::from_index(c.index() + base as usize);
    let applies = a.removes().iter().all(|c| cfg.contains(at(c)))
        && a.adds().iter().all(|c| !cfg.contains(at(c)));
    applies.then(|| {
        let mut next = cfg.clone();
        a.removes().iter().for_each(|c| next.remove(at(c)));
        a.adds().iter().for_each(|c| next.insert(at(c)));
        next
    })
}

impl AdaptationPlanner for ScopedLazyPlanner {
    /// At most one candidate, whatever `k`: the lazy minimum adaptation
    /// path, the first rank of [`Search::k_paths`](sada_plan::Search::k_paths)
    /// over the scope. Uniform-cost search is deterministic, so repeated
    /// queries (and post-crash replay) return the identical ranking —
    /// through the cache or not. The manager asks for rank 2 only after a
    /// path failed, and the failure ladder's "second path" rung then falls
    /// through to return-to-source under this planner.
    fn paths(&mut self, from: &Config, to: &Config, _k: usize) -> Vec<Path> {
        let answer = match self.plan_via_cache(from, to) {
            Some(answer) => answer,
            None if self.world.is_safe(from) && self.world.is_safe(to) => self.fresh(from, to),
            None => None,
        };
        answer.into_iter().collect()
    }

    fn compile(&mut self, path: &Path) -> Vec<PlannedStep> {
        let world = &self.world;
        let action = |id| Cow::Owned(world.action(id));
        compile_steps(path, action, |c| world.agent_for(c), |_| false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::tests::four_clusters;

    #[test]
    fn scope_filter_keeps_only_in_scope_actions() {
        let w = Rc::new(FleetWorld::build(4));
        let scope = w.scope_comps(&[(1, true), (3, true)]);
        let p = ScopedLazyPlanner::new(Rc::clone(&w), &scope);
        let ids = (0..w.actions.len() as u32).map(ActionId);
        let scoped = ids.filter(|&id| p.scoped_action(id).is_some());
        let names: Vec<&str> = scoped.map(|id| w.actions[id.index()].name()).collect();
        assert_eq!(names, ["fwd1", "back1", "fwd3", "back3"], "fwd+back for two groups");
    }

    #[test]
    fn plans_one_step_per_flipped_group_with_two_participants() {
        let w = Rc::new(FleetWorld::build(3));
        let scope = w.scope_comps(&[(0, true), (2, true)]);
        let mut p = ScopedLazyPlanner::new(Rc::clone(&w), &scope);
        let src = w.initial_config();
        let dst = w.target_for(&src, &[(0, true), (2, true)]);
        let paths = p.paths(&src, &dst, 4);
        assert_eq!(paths.len(), 1, "lazy planner offers exactly the MAP");
        let steps = p.compile(&paths[0]);
        assert_eq!(steps.len(), 2);
        for step in &steps {
            assert_eq!(step.locals.len(), 2, "Old and New live on different processes");
        }
        // Participants are the flipped groups' hosts, and nobody else's.
        let agents: Vec<usize> =
            steps.iter().flat_map(|s| s.locals.iter().map(|(a, _)| *a)).collect();
        assert!(agents.iter().all(|&a| [0, 1, 4, 5].contains(&a)), "agents {agents:?}");
    }

    #[test]
    fn ranking_is_deterministic_across_incarnations() {
        let w = Rc::new(FleetWorld::build(2));
        let scope = w.scope_comps(&[(0, true)]);
        let src = w.initial_config();
        let dst = w.target_for(&src, &[(0, true)]);
        let mut a = ScopedLazyPlanner::new(Rc::clone(&w), &scope);
        let mut b = ScopedLazyPlanner::new(Rc::clone(&w), &scope);
        assert_eq!(a.paths(&src, &dst, 8), b.paths(&src, &dst, 8));
        assert_eq!(a.paths(&src, &dst, 8), a.paths(&src, &dst, 8));
    }

    #[test]
    fn out_of_scope_endpoints_have_no_path() {
        // Asking a group-0 planner to move group 1 finds nothing: the
        // actions that could do it were filtered out.
        let w = Rc::new(FleetWorld::build(2));
        let scope = w.scope_comps(&[(0, true)]);
        let mut p = ScopedLazyPlanner::new(Rc::clone(&w), &scope);
        let src = w.initial_config();
        let dst = w.target_for(&src, &[(1, true)]);
        assert!(p.paths(&src, &dst, 4).is_empty());
    }

    /// A scope that cuts its collaborative sets across placements has no
    /// normalizer and no class: it plans on the world-wide view, and
    /// answers as the scoped search there does.
    #[test]
    fn a_scope_cutting_its_sets_plans_on_the_world_view() {
        let w = Rc::new(FleetWorld::build(3));
        let scope = [CompId::from_index(0), CompId::from_index(2), CompId::from_index(3)];
        let mut p = ScopedLazyPlanner::new(Rc::clone(&w), &scope);
        assert!(!p.normalizes(), "one_of(Old0, New0) straddles the scope");
        let src = w.initial_config();
        for flips in [&[][..], &[(1, true)]] {
            let dst = w.target_for(&src, flips);
            let ixs = w.search.scoped_action_ixs(&scope);
            let want: Vec<Path> = w.search.plan_scoped(&src, &dst, &ixs).0.into_iter().collect();
            assert_eq!(p.paths(&src, &dst, 1), want, "{flips:?}");
        }
    }

    #[test]
    fn isomorphic_sessions_share_cache_entries() {
        let w = Rc::new(FleetWorld::build(4));
        let cache = Rc::new(RefCell::new(PlanCache::new(16)));
        let src = w.initial_config();

        let scope1 = w.scope_comps(&[(0, true), (1, true)]);
        let mut p1 =
            ScopedLazyPlanner::new(Rc::clone(&w), &scope1).with_cache(Rc::clone(&cache), 1);
        assert!(p1.normalizes(), "the scope normalizes, so the cache serves it");
        let dst1 = w.target_for(&src, &[(0, true), (1, true)]);
        let paths1 = p1.paths(&src, &dst1, 4);
        assert_eq!(paths1.len(), 1);

        // Session 2 moves *different* groups the same way: a cache hit.
        let scope2 = w.scope_comps(&[(2, true), (3, true)]);
        let mut cached =
            ScopedLazyPlanner::new(Rc::clone(&w), &scope2).with_cache(Rc::clone(&cache), 2);
        let mut fresh = ScopedLazyPlanner::new(Rc::clone(&w), &scope2);
        let dst2 = w.target_for(&src, &[(2, true), (3, true)]);
        let got = cached.paths(&src, &dst2, 4);
        assert_eq!(got, fresh.paths(&src, &dst2, 4), "cached answer == fresh answer");
        assert!(got[0].is_well_formed());

        let stats = cache.borrow().stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
    }

    /// A whole-cluster session keys the cache by its class's shape: the
    /// flip of cluster 0 answers the same flip of cluster 2, and clusters 1
    /// and 3, one cost and one invariant apart, plan afresh. Keying by
    /// class index fails this (each cluster is a class of its own, so
    /// cluster 2 misses), and so does a shape that ignores costs (cluster 1
    /// hits) or invariants (cluster 3 hits).
    #[test]
    fn whole_cluster_sessions_share_entries_by_shape() {
        let w = Rc::new(FleetWorld::from_spec(four_clusters()));
        let cache = Rc::new(RefCell::new(PlanCache::new(16)));
        let src = w.initial_config();
        let mut seen = Vec::new();
        for g in [0, 2, 1, 3] {
            let scope = w.scope_comps(&[(g, true)]);
            let mut p = ScopedLazyPlanner::new(Rc::clone(&w), &scope)
                .with_cache(Rc::clone(&cache), g as u64);
            assert!(matches!(p.repertoire, Repertoire::Inside { whole: true, .. }), "{g}");
            assert_eq!(p.paths(&src, &w.target_for(&src, &[(g, true)]), 1).len(), 1, "{g}");
            let stats = cache.borrow().stats();
            seen.push((stats.hits, stats.misses));
        }
        assert_eq!(seen, [(0, 1), (1, 1), (1, 2), (1, 3)]);
    }

    #[test]
    fn negative_answers_are_cached_too() {
        let w = Rc::new(FleetWorld::build(2));
        let cache = Rc::new(RefCell::new(PlanCache::new(16)));
        let scope = w.scope_comps(&[(0, true)]);
        let mut p = ScopedLazyPlanner::new(Rc::clone(&w), &scope).with_cache(Rc::clone(&cache), 1);
        let src = w.initial_config();
        let dst = w.target_for(&src, &[(1, true)]); // out of scope: no path
        assert!(p.paths(&src, &dst, 4).is_empty());
        assert!(p.paths(&src, &dst, 4).is_empty(), "second ask hits the negative entry");
        let stats = cache.borrow().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }
}
