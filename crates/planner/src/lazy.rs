//! Lazy (partial-exploration) planning.
//!
//! Section 7 of the paper observes that Dijkstra "requires the entire SAG to
//! be generated. However, in many cases, only a small fraction of the graph
//! is actually related to the given adaptation" and proposes heuristic
//! partial exploration. This module implements that idea: a uniform-cost
//! search over the *implicit* SAG whose neighbors are generated by applying
//! actions on demand and filtering by the invariant set — no up-front
//! safe-configuration enumeration, no up-front edge materialization.
//!
//! The search itself runs on a compiled hot path ([`Search`]):
//!
//! * invariants are lowered once to word-wise kernels
//!   ([`sada_expr::CompiledInvariants`]), and each candidate is checked
//!   *incrementally* — only predicates whose support intersects the applied
//!   action's touched set are re-evaluated;
//! * discovered configurations are interned into a dense arena of `u32`
//!   node ids, with `dist`/`prev` as flat `Vec`s over ids. A query keeps
//!   one scratch successor and writes every candidate over the last one
//!   ([`Config::assign`], `Action::apply_to`); only a candidate the arena
//!   has never seen gives that buffer away, to be shared by the arena's
//!   key, its node table and the reconstructed path. A query therefore
//!   allocates per discovered node, not per candidate: 2 567 times for the
//!   19 032 candidates of the 24-component sweep row (`search_alloc.rs`);
//! * expansion probes an [`ActionIndex`] instead of scanning the whole
//!   action list.
//!
//! Everything a [`Search`] precomputes is a flat table: the kernels
//! ([`sada_expr::CompiledInvariants`]), the per-action affected-predicate
//! lists and the inverted touch index (one [`Csr`] each) and the
//! [`ActionIndex`] buckets. Rows hold exactly what the jagged vectors of
//! vectors they replace held, in the same order — candidate order, and with
//! it every path, tie-break and `LazyStats` count, depends on it. The action
//! table itself is not the search's own: it is an `Arc<[Action]>` the
//! search *shares* with whoever built it ([`Search::sharing`]; the fleet's
//! world owns the table and hands the search a handle), and
//! [`Search::new`] makes that table from a borrowed slice by cloning it
//! once.
//!
//! The result is identical to eager Dijkstra (property-tested), and
//! identical, candidate for candidate, to the tree-walking baseline
//! ([`crate::oracle::tree_walk_search`]) — the number of *predicate
//! evaluations* scales with the touched sets instead of the invariant count
//! (measured in `bench_planning`).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use sada_expr::{CompId, CompiledInvariants, Config, Csr, InvariantSet};

use crate::action::Action;
use crate::index::{action_ix, ActionIndex};
use crate::path::{Path, PathStep};

/// Statistics from a lazy planning run, for the scalability ablation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LazyStats {
    /// Configurations popped from the frontier.
    pub expanded: u64,
    /// Candidate configurations generated (action applications).
    pub generated: u64,
    /// Candidate-configuration safety checks performed (one per generated
    /// candidate plus the two endpoints).
    pub safety_checks: u64,
    /// Individual invariant-predicate evaluations — the work a safety check
    /// actually does. Incremental checking makes this sublinear in the
    /// invariant count; the tree-walk baseline pays the full conjunction.
    pub pred_evals: u64,
    /// Actions probed for applicability. The action index keeps this close
    /// to the truly-applicable count; a linear scan pays the whole
    /// repertoire per expansion.
    pub probed: u64,
}

/// How candidates are vetted: the compiled incremental kernels behind an
/// action index, or the original tree walk — over the invariant set it
/// carries — behind a linear scan (retained as the measured baseline and
/// the equivalence oracle).
#[derive(Debug, Clone)]
pub(crate) enum Mode {
    Kernel,
    TreeWalk(InvariantSet),
}

/// The last configuration one caller proved safe against one [`Search`] —
/// the caller-owned half of [`Search::is_safe_memo`]. Pure memoization:
/// answers never change, only the work to produce them.
///
/// The slot belongs to whoever owns the sequence of checks (the fleet keeps
/// one beside its plan-cache entries, per control-plane incarnation) and
/// must be dropped whenever the invariant set it was filled under is
/// swapped out: a diff against a configuration proved safe under *other*
/// invariants proves nothing.
#[derive(Debug, Clone, Default)]
pub struct SafeMemo(Option<Config>);

impl SafeMemo {
    /// The configuration follow-up checks diff against, if any check has
    /// succeeded since the slot was created.
    pub fn proved(&self) -> Option<&Config> {
        self.0.as_ref()
    }
}

/// Proof that a configuration satisfies every invariant of the [`Search`]
/// that handed the witness out. Only that search's own vetting constructs
/// one (its private vetting, [`Search::is_safe_memo`]), so a caller that has
/// already paid for the check can pass the *result* on —
/// [`Search::plan_scoped_vetted`] takes two — instead of a configuration
/// the search would have to vet again. A witness speaks for the search it
/// came from and for no other.
#[derive(Debug, Clone, Copy)]
pub struct Safe<'c>(&'c Config);

impl<'c> Safe<'c> {
    /// The configuration proved safe.
    pub(crate) fn config(self) -> &'c Config {
        self.0
    }
}

/// A reusable planning context over one invariant set and action repertoire.
///
/// Construction compiles the invariants, indexes the actions, and
/// precomputes each action's affected-predicate list; [`Search::plan`] and
/// [`Search::plan_astar`] then run with no per-query setup. Build it once
/// per (world, scope) and reuse it across queries — the free functions
/// [`plan`]/[`plan_with_stats`]/[`plan_astar`] build a throwaway `Search`
/// per call for compatibility.
///
/// A `Search` is immutable after construction and holds no interior
/// mutability, so one instance can be shared by reference across threads
/// (the fleet shares one per run between every endpoint thread).
#[derive(Debug, Clone)]
pub struct Search {
    /// The repertoire, shared with whoever handed it over.
    actions: Arc<[Action]>,
    compiled: CompiledInvariants,
    /// Row `a`: indices of predicates whose support intersects action `a`'s
    /// touched set, ascending — exactly what an incremental check
    /// evaluates.
    affected: Csr<u32>,
    index: ActionIndex,
    /// Inverted touch index: row `c` lists (ascending) the action indices
    /// touching component `c`. Scope-sized queries gather their action
    /// subset from here instead of scanning the repertoire.
    by_touched: Csr<u32>,
    /// Actions touching nothing at all (applicable everywhere); part of
    /// every scoped subset since an empty touched set is inside any scope.
    empty_touched: Vec<u32>,
    mode: Mode,
    /// A* heuristic ingredients (admissible: one action flips at most
    /// `max_touched` components at cost at least `min_cost`).
    max_touched: u64,
    min_cost: u64,
}

// Shared by reference between the fleet's endpoint threads: interior
// mutability creeping back in must fail the build.
const _: fn() = || {
    fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<Search>();
};

impl Search {
    /// The compiled hot path: word-wise kernels, incremental checks, action
    /// index. `width` is the configuration width (universe size). Clones
    /// `actions` once, into the table the search keeps; a caller that
    /// already holds its repertoire as an `Arc<[Action]>` shares it through
    /// [`Search::sharing`] instead.
    pub fn new(inv: &InvariantSet, actions: &[Action], width: usize) -> Self {
        Search::build(inv, Arc::from(actions), width, Mode::Kernel)
    }

    /// [`Search::new`] over an action table the caller keeps a handle on:
    /// nothing is cloned, both read the one allocation.
    pub fn sharing(inv: &InvariantSet, actions: Arc<[Action]>, width: usize) -> Self {
        Search::build(inv, actions, width, Mode::Kernel)
    }

    pub(crate) fn build(
        inv: &InvariantSet,
        actions: Arc<[Action]>,
        width: usize,
        mode: Mode,
    ) -> Self {
        let compiled = inv.compile(width);
        let mut affected = Csr::with_capacity(actions.len(), actions.len());
        let mut preds = Vec::new();
        for a in actions.iter() {
            compiled.affected_by_ids_into(a.touched(), &mut preds);
            affected.push_row(preds.iter().copied());
        }
        let max_touched = actions.iter().map(Action::touched_len).max().unwrap_or(1).max(1) as u64;
        let min_cost = actions.iter().map(Action::cost).min().unwrap_or(1).max(1);
        let numbered = || actions.iter().enumerate().map(|(aix, a)| (action_ix(aix), a));
        let by_touched = Csr::from_pairs(
            width,
            numbered().flat_map(|(aix, a)| a.touched().iter().map(move |c| (c.index(), aix))),
        );
        let empty_touched =
            numbered().filter(|(_, a)| a.touched().is_empty()).map(|(aix, _)| aix).collect();
        Search {
            index: ActionIndex::new(width, &actions),
            actions,
            compiled,
            affected,
            by_touched,
            empty_touched,
            mode,
            max_touched,
            min_cost,
        }
    }

    /// The compiled invariant kernels (shared by scope normalizers so a
    /// session never recompiles the world's invariant set).
    pub fn compiled(&self) -> &CompiledInvariants {
        &self.compiled
    }

    /// The predicates an incremental check of action `aix` evaluates:
    /// those whose support intersects its touched set, ascending.
    pub fn affected_preds(&self, aix: u32) -> &[u32] {
        self.affected.row(aix as usize)
    }

    /// The ascending action indices whose touched set lies entirely inside
    /// `scope` (sorted ascending) — the same subset, in the same order, as
    /// filtering the whole repertoire by `touched ⊆ scope`, but gathered
    /// through the inverted touch index in O(scope-local work).
    pub fn scoped_action_ixs(&self, scope: &[CompId]) -> Vec<u32> {
        debug_assert!(scope.windows(2).all(|w| w[0] < w[1]), "scope must be sorted+deduped");
        let mut out: Vec<u32> = self.empty_touched.clone();
        for &c in scope {
            out.extend_from_slice(self.by_touched.row(c.index()));
        }
        out.sort_unstable();
        out.dedup();
        out.retain(|&aix| {
            self.actions[aix as usize].touched().iter().all(|c| scope.binary_search(c).is_ok())
        });
        out
    }

    /// Uniform-cost search restricted to the action subset `scoped`
    /// (ascending world indices, e.g. from [`Search::scoped_action_ixs`]).
    ///
    /// Endpoints are still vetted against the *full* invariant set, and
    /// candidates against each action's full affected-predicate list —
    /// restricting the repertoire never weakens safety. Candidate for
    /// candidate, this matches running [`Search::plan`] on a `Search` built
    /// over only the scoped actions: the same applicable actions are tried
    /// in the same ascending order, so paths, costs, and tie-breaking are
    /// bit-identical — without compiling anything per scope.
    pub fn plan_scoped(
        &self,
        source: &Config,
        target: &Config,
        scoped: &[u32],
    ) -> (Option<Path>, LazyStats) {
        self.run(source, target, false, Some(scoped))
    }

    /// [`Search::plan_scoped`] for endpoints this search has already
    /// proved safe: the same search, candidate for candidate, minus the two
    /// endpoint checks the witnesses stand for (which the returned
    /// statistics therefore do not count).
    pub fn plan_scoped_vetted(
        &self,
        source: Safe<'_>,
        target: Safe<'_>,
        scoped: &[u32],
    ) -> (Option<Path>, LazyStats) {
        self.search(source, target, false, Some(scoped), LazyStats::default())
    }

    /// Full safety check for an arbitrary configuration: every invariant
    /// is evaluated (mid-search candidates use the incremental kernel).
    pub fn is_safe(&self, cfg: &Config) -> bool {
        self.vet(cfg).is_some()
    }

    /// [`Search::is_safe`], handing back the proof instead of a flag.
    pub(crate) fn vet<'c>(&self, cfg: &'c Config) -> Option<Safe<'c>> {
        self.vet_counting(cfg, &mut 0)
    }

    /// [`Search::is_safe`] for a caller that checks a *sequence* of nearby
    /// configurations: when `memo` holds a configuration of the same width
    /// that an earlier call proved safe, only the predicates whose support
    /// intersects the diff against it are re-evaluated — exact, because a
    /// predicate disjoint from the diff reads identical inputs in both
    /// configurations. A passing check moves `memo` to `cfg` and returns
    /// the proof; a failing one leaves it alone; a width mismatch (or an
    /// empty slot) takes the full check. `memo` must only ever have been
    /// filled through `self`.
    pub fn is_safe_memo<'c>(&self, cfg: &'c Config, memo: &mut SafeMemo) -> Option<Safe<'c>> {
        let proof = match (&memo.0, &self.mode) {
            (Some(m), Mode::Kernel) if m.width() == cfg.width() => self
                .compiled
                .affected_by_ids(&m.diff_ids(cfg))
                .iter()
                .all(|&p| self.compiled.eval_pred(p as usize, cfg))
                .then_some(Safe(cfg)),
            _ => self.vet(cfg),
        };
        if proof.is_some() {
            memo.0 = Some(cfg.clone());
        }
        proof
    }

    /// [`Search::vet`], adding the predicates it evaluates to `evals`.
    fn vet_counting<'c>(&self, cfg: &'c Config, evals: &mut u64) -> Option<Safe<'c>> {
        let ok = match &self.mode {
            Mode::Kernel => self.compiled.satisfied_by_counting(cfg, evals),
            Mode::TreeWalk(inv) => inv.exprs().iter().all(|e| {
                *evals += 1;
                e.eval(cfg)
            }),
        };
        ok.then_some(Safe(cfg))
    }

    /// Incremental candidate check: `next` was produced by applying
    /// `actions[aix]` to a known-safe configuration.
    fn check_candidate(&self, aix: u32, next: &Config, stats: &mut LazyStats) -> bool {
        match &self.mode {
            Mode::Kernel => {
                for &pix in self.affected_preds(aix) {
                    stats.pred_evals += 1;
                    if !self.compiled.eval_pred(pix as usize, next) {
                        return false;
                    }
                }
                true
            }
            Mode::TreeWalk(inv) => {
                for e in inv.exprs() {
                    stats.pred_evals += 1;
                    if !e.eval(next) {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// Uniform-cost search from `source` to `target` over the implicit SAG.
    ///
    /// Returns `None` when an endpoint violates the invariants or no safe
    /// path exists; otherwise a minimum adaptation path, equal in cost to
    /// eager [`crate::Sag::shortest_path`].
    pub fn plan(&self, source: &Config, target: &Config) -> (Option<Path>, LazyStats) {
        self.run(source, target, false, None)
    }

    /// A* over the implicit SAG with an admissible distance heuristic.
    ///
    /// The heuristic: reaching `target` requires flipping every component
    /// in the symmetric difference; one action flips at most `max_touched`
    /// components and costs at least `min_cost`, so
    /// `ceil(diff / max_touched) * min_cost` never overestimates — A*
    /// returns the same optimal cost as [`Search::plan`] (property-tested),
    /// usually with fewer expansions.
    pub fn plan_astar(&self, source: &Config, target: &Config) -> (Option<Path>, LazyStats) {
        self.run(source, target, true, None)
    }

    /// Vets both endpoints in full (the target only once the source has
    /// passed), then searches.
    fn run(
        &self,
        source: &Config,
        target: &Config,
        astar: bool,
        scoped: Option<&[u32]>,
    ) -> (Option<Path>, LazyStats) {
        let mut stats = LazyStats { safety_checks: 2, ..LazyStats::default() };
        let evals = &mut stats.pred_evals;
        let Some(source) = self.vet_counting(source, evals) else { return (None, stats) };
        let Some(target) = self.vet_counting(target, evals) else { return (None, stats) };
        self.search(source, target, astar, scoped, stats)
    }

    /// The search proper, between two endpoints already proved safe;
    /// `stats` carries whatever the vetting counted.
    fn search(
        &self,
        source: Safe<'_>,
        target: Safe<'_>,
        astar: bool,
        scoped: Option<&[u32]>,
        mut stats: LazyStats,
    ) -> (Option<Path>, LazyStats) {
        let (source, target) = (source.config(), target.config());
        if source == target {
            return (Some(Path::empty()), stats);
        }
        let h = |cfg: &Config| -> u64 {
            if !astar {
                return 0;
            }
            (cfg.distance(target) as u64).div_ceil(self.max_touched) * self.min_cost
        };

        let mut arena = Arena::default();
        const SOURCE_ID: u32 = 0;
        const TARGET_ID: u32 = 1;
        assert_eq!(arena.intern(source), SOURCE_ID);
        assert_eq!(arena.intern(target), TARGET_ID);
        arena.dist[SOURCE_ID as usize] = 0;

        let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
        let mut tie = 0u64; // keeps heap ordering deterministic
        heap.push(Reverse((h(source), tie, SOURCE_ID)));
        let mut candidates: Vec<u32> = Vec::new();
        // The one successor buffer of this query: each candidate is written
        // over the last one, and only a candidate the arena has never seen
        // gives its buffer away (the handles `intern` takes are what make
        // the next `assign` start a fresh one).
        let mut next = source.clone();
        while let Some(Reverse((f, _, id))) = heap.pop() {
            let g = arena.dist[id as usize];
            if g.saturating_add(h(&arena.configs[id as usize])) < f {
                continue; // stale entry
            }
            if id == TARGET_ID {
                break;
            }
            stats.expanded += 1;
            // One handle per expansion (a reference-count bump) frees the
            // arena for interning below.
            let cfg = arena.configs[id as usize].clone();
            match (scoped, &self.mode) {
                (Some(s), _) => {
                    candidates.clear();
                    candidates.extend_from_slice(s);
                }
                (None, Mode::Kernel) => self.index.probe(&cfg, &mut candidates),
                (None, Mode::TreeWalk(_)) => {
                    candidates.clear();
                    candidates.extend(0..self.actions.len() as u32);
                }
            }
            for &aix in &candidates {
                stats.probed += 1;
                let action = &self.actions[aix as usize];
                if !action.applicable(&cfg) {
                    continue;
                }
                next.assign(&cfg);
                action.apply_to(&mut next);
                stats.generated += 1;
                stats.safety_checks += 1;
                if !self.check_candidate(aix, &next, &mut stats) {
                    continue;
                }
                let nd = g.saturating_add(action.cost());
                let nid = arena.intern(&next);
                if nd < arena.dist[nid as usize] {
                    arena.dist[nid as usize] = nd;
                    arena.prev[nid as usize] = Some((id, aix));
                    tie += 1;
                    heap.push(Reverse((nd.saturating_add(h(&next)), tie, nid)));
                }
            }
        }
        let total = arena.dist[TARGET_ID as usize];
        if total == u64::MAX {
            return (None, stats);
        }
        (Some(self.reconstruct(&arena, SOURCE_ID, TARGET_ID, total)), stats)
    }

    /// Rebuilds the path by walking `prev` links from the target back to
    /// the source. Steps take handles on the arena's buffers, and the arena
    /// interned the *caller's* source and target before anything else, so
    /// the first step's `from` and the last step's `to` are the caller's own
    /// buffers, not equal copies of them.
    fn reconstruct(&self, arena: &Arena, source_id: u32, target_id: u32, total: u64) -> Path {
        let mut steps = Vec::new();
        let mut cur = target_id;
        while cur != source_id {
            let (from, aix) = arena.prev[cur as usize].expect("reached node has a predecessor");
            let action = &self.actions[aix as usize];
            steps.push(PathStep {
                from: arena.configs[from as usize].clone(),
                to: arena.configs[cur as usize].clone(),
                action: action.id(),
                cost: action.cost(),
            });
            cur = from;
        }
        steps.reverse();
        Path { steps, cost: total }
    }
}

/// The interned search arena: each discovered configuration gets a dense
/// node id exactly once; per-node search state lives in flat vectors.
#[derive(Debug, Default)]
struct Arena {
    /// Probed and inserted into, never iterated, and keyed by the search's
    /// own states: whatever hasher sits here cannot reach candidate order,
    /// tie-breaking, [`LazyStats`] or a fingerprint, and no outside party
    /// picks the keys — so the words are hashed with a multiply and a
    /// rotate each instead of SipHash.
    ids: HashMap<Config, u32, BuildHasherDefault<WordHasher>>,
    configs: Vec<Config>,
    dist: Vec<u64>,
    prev: Vec<Option<(u32, u32)>>,
}

impl Arena {
    fn intern(&mut self, cfg: &Config) -> u32 {
        if let Some(&id) = self.ids.get(cfg) {
            return id;
        }
        let id = self.configs.len() as u32;
        self.ids.insert(cfg.clone(), id);
        self.configs.push(cfg.clone());
        self.dist.push(u64::MAX);
        self.prev.push(None);
        id
    }
}

/// Multiply-rotate hash of the words a [`Config`] writes (its width, its
/// word count, then the words as one byte slice).
#[derive(Debug, Default)]
struct WordHasher(u64);

impl WordHasher {
    /// 2^64 over the golden ratio, odd.
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(word.try_into().expect("chunks of eight bytes")));
        }
        words.remainder().iter().for_each(|&byte| self.mix(u64::from(byte)));
    }

    /// Bit `p` of the last word reaches only bits `p` and up of its product,
    /// while the map picks a bucket by the low bits and tags it with the top
    /// seven: fold the high half down, multiply once more and hand that
    /// product's high half back as the low one, so both read every bit.
    #[inline]
    fn finish(&self) -> u64 {
        (self.0 ^ (self.0 >> 32)).wrapping_mul(Self::K).rotate_left(32)
    }
}

/// Uniform-cost search from `source` to `target` over the implicit SAG.
///
/// Returns `None` when `source` or `target` violates the invariants or no
/// safe path exists. The returned path is a minimum adaptation path — equal
/// in cost to eager [`crate::Sag::shortest_path`] on the fully enumerated
/// graph. Builds a throwaway [`Search`]; reuse one for repeated queries.
pub fn plan(
    inv: &InvariantSet,
    actions: &[Action],
    source: &Config,
    target: &Config,
) -> Option<Path> {
    plan_with_stats(inv, actions, source, target).0
}

/// [`plan`], also reporting exploration statistics.
pub fn plan_with_stats(
    inv: &InvariantSet,
    actions: &[Action],
    source: &Config,
    target: &Config,
) -> (Option<Path>, LazyStats) {
    Search::new(inv, actions, source.width()).plan(source, target)
}

/// A* over the implicit SAG (see [`Search::plan_astar`]). Builds a
/// throwaway [`Search`]; reuse one for repeated queries.
pub fn plan_astar(
    inv: &InvariantSet,
    actions: &[Action],
    source: &Config,
    target: &Config,
) -> (Option<Path>, LazyStats) {
    Search::new(inv, actions, source.width()).plan_astar(source, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sag::Sag;
    use sada_expr::{enumerate, oracle, Universe};

    fn setup() -> (Universe, InvariantSet, Vec<Action>) {
        let mut u = Universe::new();
        for n in ["A", "B", "C"] {
            u.intern(n);
        }
        let actions = vec![
            Action::replace(0, "A->B", &u.config_of(&["A"]), &u.config_of(&["B"]), 1),
            Action::replace(1, "B->C", &u.config_of(&["B"]), &u.config_of(&["C"]), 1),
            Action::replace(2, "A->C", &u.config_of(&["A"]), &u.config_of(&["C"]), 5),
        ];
        let inv = InvariantSet::parse(&["one_of(A, B, C)"], &mut u).unwrap();
        (u, inv, actions)
    }

    #[test]
    fn lazy_matches_eager_dijkstra() {
        let (u, inv, actions) = setup();
        let eager = Sag::build(enumerate::safe_configs(&u, &inv), &actions);
        for (s, t) in [("A", "C"), ("A", "B"), ("B", "C")] {
            let src = u.config_of(&[s]);
            let dst = u.config_of(&[t]);
            let lazy = plan(&inv, &actions, &src, &dst);
            let eagerp = eager.shortest_path(&src, &dst);
            assert_eq!(lazy.as_ref().map(|p| p.cost), eagerp.as_ref().map(|p| p.cost), "{s}->{t}");
            assert!(lazy.map(|p| p.is_well_formed()).unwrap_or(true));
        }
    }

    #[test]
    fn unsafe_endpoints_rejected() {
        let (u, inv, actions) = setup();
        let bad = u.config_of(&["A", "B"]);
        assert!(plan(&inv, &actions, &bad, &u.config_of(&["C"])).is_none());
        assert!(plan(&inv, &actions, &u.config_of(&["A"]), &bad).is_none());
    }

    #[test]
    fn failing_check_leaves_the_safety_memo_alone() {
        let (u, inv, actions) = setup();
        let search = Search::new(&inv, &actions, u.len());
        let mut memo = SafeMemo::default();
        assert!(search.is_safe_memo(&u.config_of(&["A", "B"]), &mut memo).is_none());
        assert_eq!(memo.proved(), None, "an unsafe configuration is never remembered");
        let a = u.config_of(&["A"]);
        assert!(search.is_safe_memo(&a, &mut memo).is_some());
        assert!(search.is_safe_memo(&u.config_of(&["A", "C"]), &mut memo).is_none());
        assert_eq!(memo.proved(), Some(&a), "the last *safe* configuration stays");
        assert!(search.is_safe_memo(&u.config_of(&["B"]), &mut memo).is_some());
    }

    #[test]
    fn width_mismatch_takes_the_full_check() {
        let (u, inv, actions) = setup();
        let search = Search::new(&inv, &actions, u.len());
        let mut memo = SafeMemo::default();
        assert!(search.is_safe_memo(&u.config_of(&["A"]), &mut memo).is_some());
        // Same components over a wider slot space: diffing against the memo
        // would panic on the width, so these must run every predicate.
        let mut wide = Config::empty(u.len() + 2);
        assert!(search.is_safe_memo(&wide, &mut memo).is_none(), "no component at all");
        assert_eq!(memo.proved().map(Config::width), Some(u.len()));
        wide.insert(u.id("C").unwrap());
        assert!(search.is_safe_memo(&wide, &mut memo).is_some());
        assert_eq!(memo.proved(), Some(&wide), "a pass moves the memo, whatever its width");
    }

    #[test]
    fn vetted_entry_is_plan_scoped_minus_the_endpoint_checks() {
        let (u, inv, actions) = setup();
        let search = Search::new(&inv, &actions, u.len());
        let all: Vec<u32> = (0..actions.len() as u32).collect();
        let mut memo = SafeMemo::default();
        for (s, t) in [("A", "C"), ("A", "B"), ("C", "A"), ("B", "B")] {
            let (src, dst) = (u.config_of(&[s]), u.config_of(&[t]));
            for scoped in [&all[..], &all[..1]] {
                let (want, full) = search.plan_scoped(&src, &dst, scoped);
                // One witness from each vetting path.
                let from = search.vet(&src).expect("source is safe");
                let to = search.is_safe_memo(&dst, &mut memo).expect("target is safe");
                let (got, stats) = search.plan_scoped_vetted(from, to, scoped);
                assert_eq!(got, want, "{s}->{t} over {scoped:?}");
                let endpoint_evals = 2 * inv.exprs().len() as u64;
                let uncounted = LazyStats {
                    safety_checks: full.safety_checks - 2,
                    pred_evals: full.pred_evals - endpoint_evals,
                    ..full
                };
                assert_eq!(stats, uncounted, "{s}->{t} over {scoped:?}");
            }
        }
        assert!(search.vet(&u.config_of(&["A", "B"])).is_none(), "no witness for an unsafe one");
    }

    #[test]
    fn path_endpoints_are_the_callers_own_buffers() {
        let (u, inv, actions) = setup();
        let (src, dst) = (u.config_of(&["A"]), u.config_of(&["C"]));
        let search = Search::new(&inv, &actions, u.len());
        for path in [search.plan(&src, &dst).0.unwrap(), search.plan_astar(&src, &dst).0.unwrap()] {
            assert_eq!(path.len(), 2, "A->B->C beats the direct hop");
            assert!(oracle::shares_storage(&path.steps[0].from, &src));
            assert!(oracle::shares_storage(&path.steps[1].to, &dst));
            assert!(oracle::shares_storage(&path.steps[0].to, &path.steps[1].from));
        }
    }

    #[test]
    fn identity_plan_is_empty() {
        let (u, inv, actions) = setup();
        let a = u.config_of(&["A"]);
        assert_eq!(plan(&inv, &actions, &a, &a), Some(Path::empty()));
    }

    #[test]
    fn unreachable_is_none_after_bounded_exploration() {
        let (u, inv, actions) = setup();
        let (p, stats) =
            plan_with_stats(&inv, &actions, &u.config_of(&["C"]), &u.config_of(&["A"]));
        assert!(p.is_none());
        assert!(stats.expanded <= 3, "exploration is bounded by safe configs");
    }

    #[test]
    fn stats_count_work() {
        let (u, inv, actions) = setup();
        let (p, stats) =
            plan_with_stats(&inv, &actions, &u.config_of(&["A"]), &u.config_of(&["C"]));
        assert!(p.is_some());
        assert!(stats.expanded >= 1);
        assert!(stats.generated >= 2);
        assert!(stats.safety_checks >= stats.generated);
        assert!(stats.probed >= stats.generated, "every candidate was probed first");
        assert!(stats.pred_evals >= 1, "checks evaluate predicates");
    }

    #[test]
    fn kernel_search_matches_tree_walk_baseline_exactly() {
        let (u, inv, actions) = setup();
        let kernel = Search::new(&inv, &actions, u.len());
        let baseline = crate::oracle::tree_walk_search(&inv, &actions, u.len());
        for (s, t) in [("A", "C"), ("A", "B"), ("B", "C"), ("C", "A")] {
            let src = u.config_of(&[s]);
            let dst = u.config_of(&[t]);
            let (kp, ks) = kernel.plan(&src, &dst);
            let (bp, bs) = baseline.plan(&src, &dst);
            assert_eq!(kp, bp, "identical paths {s}->{t}");
            assert_eq!(ks.expanded, bs.expanded, "identical exploration {s}->{t}");
            assert_eq!(ks.generated, bs.generated);
            assert_eq!(ks.safety_checks, bs.safety_checks);
            assert!(ks.probed <= bs.probed, "the index never probes more");
        }
    }

    #[test]
    fn incremental_checks_do_less_predicate_work() {
        // Ten independent groups: flipping one re-evaluates one predicate
        // incrementally, but all ten under the tree walk.
        let mut u = Universe::new();
        let mut sources = Vec::new();
        for g in 0..10 {
            u.intern(&format!("Old{g}"));
            u.intern(&format!("New{g}"));
            sources.push(format!("one_of(Old{g}, New{g})"));
        }
        let srcs: Vec<&str> = sources.iter().map(String::as_str).collect();
        let inv = InvariantSet::parse(&srcs, &mut u).unwrap();
        let actions: Vec<Action> = (0..10)
            .map(|g| {
                Action::replace(
                    g,
                    &format!("Old{g}->New{g}"),
                    &u.config_of(&[&format!("Old{g}")]),
                    &u.config_of(&[&format!("New{g}")]),
                    1,
                )
            })
            .collect();
        let old_names: Vec<String> = (0..10).map(|g| format!("Old{g}")).collect();
        let src = u.config_of(&old_names.iter().map(String::as_str).collect::<Vec<_>>());
        let mut dst = src.clone();
        for g in 0..2 {
            dst.remove(u.id(&format!("Old{g}")).unwrap());
            dst.insert(u.id(&format!("New{g}")).unwrap());
        }
        let (kp, ks) = Search::new(&inv, &actions, u.len()).plan(&src, &dst);
        let (bp, bs) = crate::oracle::tree_walk_search(&inv, &actions, u.len()).plan(&src, &dst);
        assert_eq!(kp, bp);
        assert!(
            ks.pred_evals * 5 <= bs.pred_evals,
            "incremental {} vs full {}",
            ks.pred_evals,
            bs.pred_evals
        );
    }

    #[test]
    fn astar_matches_dijkstra_cost() {
        let (u, inv, actions) = setup();
        for (s, t) in [("A", "C"), ("A", "B"), ("B", "C"), ("C", "A")] {
            let src = u.config_of(&[s]);
            let dst = u.config_of(&[t]);
            let (astar, _) = plan_astar(&inv, &actions, &src, &dst);
            let dijkstra = plan(&inv, &actions, &src, &dst);
            assert_eq!(
                astar.as_ref().map(|p| p.cost),
                dijkstra.as_ref().map(|p| p.cost),
                "{s}->{t}"
            );
            if let Some(p) = astar {
                assert!(p.is_well_formed());
            }
        }
    }

    #[test]
    fn astar_expands_no_more_than_dijkstra_on_chains() {
        // A long chain where the heuristic steers straight at the target.
        let mut u = Universe::new();
        for i in 0..10 {
            u.intern(&format!("C{i}"));
        }
        let names: Vec<String> = (0..10).map(|i| format!("C{i}")).collect();
        let joined = names.join(", ");
        let mut u2 = u.clone();
        let inv = InvariantSet::parse(&[&format!("one_of({joined})")], &mut u2).unwrap();
        let mut actions = Vec::new();
        let mut id = 0;
        for a in 0..10usize {
            for b in 0..10usize {
                if a != b {
                    actions.push(Action::replace(
                        id,
                        &format!("C{a}->C{b}"),
                        &u.config_of(&[&format!("C{a}")]),
                        &u.config_of(&[&format!("C{b}")]),
                        1,
                    ));
                    id += 1;
                }
            }
        }
        let src = u.config_of(&["C0"]);
        let dst = u.config_of(&["C9"]);
        let (pa, sa) = plan_astar(&inv, &actions, &src, &dst);
        let (pd, sd) = plan_with_stats(&inv, &actions, &src, &dst);
        assert_eq!(pa.unwrap().cost, pd.unwrap().cost);
        assert!(sa.expanded <= sd.expanded, "A* ({}) vs Dijkstra ({})", sa.expanded, sd.expanded);
    }

    #[test]
    fn astar_rejects_unsafe_endpoints() {
        let (u, inv, actions) = setup();
        let bad = u.config_of(&["A", "B"]);
        assert!(plan_astar(&inv, &actions, &bad, &u.config_of(&["C"])).0.is_none());
        let a = u.config_of(&["A"]);
        assert_eq!(plan_astar(&inv, &actions, &a, &a).0, Some(Path::empty()));
    }

    #[test]
    fn explores_less_than_full_universe_when_target_is_close() {
        // 12 independent components; moving one component should not visit
        // anything like 2^12 nodes.
        let mut u = Universe::new();
        for i in 0..12 {
            u.intern(&format!("C{i}"));
        }
        let inv = InvariantSet::new();
        let c0 = u.config_of(&["C0"]);
        let c1 = u.config_of(&["C1"]);
        let actions = vec![Action::replace(0, "C0->C1", &c0, &c1, 1)];
        let (p, stats) = plan_with_stats(&inv, &actions, &c0, &c1);
        assert_eq!(p.unwrap().len(), 1);
        assert!(stats.expanded <= 2, "expanded {}", stats.expanded);
    }
}
