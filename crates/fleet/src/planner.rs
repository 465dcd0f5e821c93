//! Scope-restricted lazy planning for control-plane sessions.
//!
//! Each admitted session plans over *its scope only*: the action repertoire
//! is filtered to actions whose touched components all lie inside the
//! session's collaborative sets, and paths are found with the partial-
//! exploration planner ([`sada_plan::lazy`]) — no eager SAG over the whole
//! fleet's `2^n` configuration space is ever built. The compiled
//! [`Search`](sada_plan::Search) (kernel invariant checks, interned arena,
//! action index) is built **once per run** with the world and shared,
//! immutably, by every session of every control plane — it holds no
//! per-query state; the one memo the endpoint checks use lives in the
//! session's [`PlanCache`].
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
//!   [`ScopedLazyPlanner::denormalize`] and `Search::reconstruct` hand back
//!   the caller's own `to` as the last step's `to`);
//! * one **fold copy**: `ControlActor::finish` writes the scope's final
//!   values into `fleet_config`, whose previous spine is still the
//!   journaled source of every session admitted under it — again a spine
//!   and the chunks that change;
//! * one **`apply` transient**: replaying a cached one-step plan builds the
//!   step's result the same way, compares it with `to`, and drops it (a
//!   plan of `k` steps keeps `k - 1` intermediate configurations and drops
//!   the last);
//! * two **safe-memo XOR walks**: the endpoint checks in
//!   [`PlanCache::is_safe`] diff `from` and `to` against the last
//!   configuration proved safe, over the chunks they do not share with it;
//! * two **comparisons** on a cache hit, three on a miss: source against
//!   target in the manager, the replayed walk's end against `to` — each
//!   reads the chunks the two sides hold separately and skips the rest by
//!   pointer — or, on a miss, source against target once more and the hash
//!   of both inside the search (the one O(width) pass left, once per miss:
//!   a storm sees one miss per run), which then costs what a search costs
//!   and nothing for its endpoints: the two proofs from the memo walks
//!   above are handed to it
//!   ([`Search::plan_scoped_vetted`](sada_plan::Search::plan_scoped_vetted))
//!   in place of a second pass over the whole invariant set. Every later
//!   `current == goal` compares two handles on one spine.
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

use std::cell::RefCell;
use std::rc::Rc;

use sada_expr::{CompId, Config};
use sada_plan::{Action, Path, PathStep};
use sada_proto::{compile_steps, AdaptationPlanner, PlannedStep};

use crate::cache::{CachedPlan, PlanCache, ScopeNormalizer};
use crate::world::FleetWorld;

/// An [`AdaptationPlanner`] over the implicit SAG of one session's scope.
pub struct ScopedLazyPlanner {
    world: Rc<FleetWorld>,
    /// Ascending world-action indices whose touched set lies inside the
    /// scope — the session's repertoire, as positions into the world's
    /// shared compiled search.
    scoped_ixs: Vec<u32>,
    /// Relabels this scope onto cache-key coordinates; `None` when an
    /// invariant straddles the scope boundary (cache disabled).
    normalizer: Option<ScopeNormalizer>,
    /// The shared fleet cache and this session's id, when attached.
    cache: Option<(Rc<RefCell<PlanCache>>, u64)>,
}

impl ScopedLazyPlanner {
    /// A planner restricted to `scope` (a union of collaborative sets, as
    /// produced by [`CompiledWorld::scope_comps`]).
    ///
    /// [`CompiledWorld::scope_comps`]: crate::CompiledWorld::scope_comps
    pub fn new(world: Rc<FleetWorld>, scope: &[CompId]) -> Self {
        let mut sorted: Vec<CompId> = scope.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let scoped_ixs = world.search.scoped_action_ixs(&sorted);
        let normalizer = ScopeNormalizer::from_compiled(
            &world.inv,
            world.search.compiled(),
            &sorted,
            scoped_ixs.iter().map(|&ix| &world.actions[ix as usize]),
        );
        ScopedLazyPlanner { world, scoped_ixs, normalizer, cache: None }
    }

    /// Attaches the fleet-wide plan cache on behalf of session `session`.
    pub fn with_cache(mut self, cache: Rc<RefCell<PlanCache>>, session: u64) -> Self {
        self.cache = Some((cache, session));
        self
    }

    /// Whether the scope normalizes, so that an attached cache may speak
    /// for its queries (see [`ScopeNormalizer::from_compiled`]).
    pub fn normalizes(&self) -> bool {
        self.normalizer.is_some()
    }

    /// The session's repertoire: the world's actions whose touched set lies
    /// inside the scope, in world order.
    pub fn repertoire(&self) -> impl Iterator<Item = &Action> {
        self.scoped_ixs.iter().map(|&ix| &self.world.actions[ix as usize])
    }

    /// The scoped action at position `ix` of the session's repertoire.
    fn scoped_action(&self, ix: usize) -> Option<&Action> {
        self.scoped_ixs.get(ix).map(|&w| &self.world.actions[w as usize])
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
            let action = self.scoped_action(ix as usize)?;
            if !action.applicable(&cur) {
                return None;
            }
            let next = action.apply(&cur);
            steps.push(PathStep {
                from: cur,
                to: next.clone(),
                action: action.id(),
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
        let ixs: Option<Vec<u32>> = path
            .steps
            .iter()
            .map(|s| self.repertoire().position(|a| a.id() == s.action).map(|i| i as u32))
            .collect();
        Some(CachedPlan { action_ixs: ixs?, cost: path.cost })
    }

    /// Answers one query through the cache. The outer `None` means the
    /// cache could not speak for this query (none attached, the scope does
    /// not normalize, or an endpoint is unsafe outside the scope); the
    /// inner option is the definitive answer.
    fn plan_via_cache(&self, from: &Config, to: &Config) -> Option<Option<Path>> {
        let (cache, session) = self.cache.as_ref()?;
        let nz = self.normalizer.as_ref()?;
        // The key captures in-scope state only, so out-of-scope safety must
        // be established before the cache may speak for this query. The
        // proofs are kept: a miss searches between them.
        let search = &self.world.search;
        let (from_safe, to_safe) = {
            let mut cache = cache.borrow_mut();
            (cache.is_safe(search, from)?, cache.is_safe(search, to)?)
        };
        let key = nz.key(from, to);
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
        let (path, _) = search.plan_scoped_vetted(from_safe, to_safe, &self.scoped_ixs);
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
}

impl AdaptationPlanner for ScopedLazyPlanner {
    /// At most one candidate: the lazy minimum adaptation path. Uniform-cost
    /// search is deterministic, so repeated queries (and post-crash replay)
    /// return the identical ranking — through the cache or not. The failure
    /// ladder's "second path" rung simply falls through to
    /// return-to-source under this planner.
    fn paths(&mut self, from: &Config, to: &Config, _k: usize) -> Vec<Path> {
        match self.plan_via_cache(from, to) {
            Some(answer) => answer.into_iter().collect(),
            None => {
                self.world.search.plan_scoped(from, to, &self.scoped_ixs).0.into_iter().collect()
            }
        }
    }

    fn compile(&mut self, path: &Path) -> Vec<PlannedStep> {
        compile_steps(path, &self.world.actions, &self.world.model, |_| false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_filter_keeps_only_in_scope_actions() {
        let w = Rc::new(FleetWorld::build(4));
        let scope = w.scope_comps(&[(1, true), (3, true)]);
        let p = ScopedLazyPlanner::new(Rc::clone(&w), &scope);
        let names: Vec<&str> = p.repertoire().map(Action::name).collect();
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
