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
//! * a query keeps what it discovers in a packed node store. Its *reach* is
//!   the set of words any of its candidate actions can write; outside the
//!   reach every node equals the source, so a node is a dense `u32` id and
//!   its reach words, back to back in one `Vec<u64>`, found through an
//!   open-addressed table of ids, with `dist`/`prev` as flat vectors over
//!   ids. The query owns one scratch configuration: expanding a node writes
//!   its reach words into it ([`Config::set_word`]), and each candidate is
//!   applied in place, checked, looked up and undone. A query allocates as
//!   its tables double, not per node: 67 times for the 1 586 expansions
//!   of the 24-component sweep row (`search_alloc.rs`);
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
//! The result is identical, candidate for candidate, to the tree-walking
//! baseline ([`crate::oracle::tree_walk_search`]) — the number of
//! *predicate evaluations* scales with the touched sets instead of the
//! invariant count (measured in `bench_planning`).
//!
//! **One tie rule** makes the paths eager Dijkstra's over positive costs,
//! and [`Search::k_paths`] eager Yen's ranking (checked exhaustively in
//! `sada-scenario`). Eager pops equal distances in vertex order, this
//! search in push order, so a positive-cost arc reaching a node at its
//! distance re-points its predecessor to the smaller (distance,
//! configuration): the one without the highest differing component. Pops,
//! heap and node store are untouched, so expansions and [`LazyStats`] are
//! too. This *component order* is the SAG's (derived `Config` order) up to
//! 64 components, and past a word the one the plan cache's scope relabel
//! preserves. Over zero-cost arcs `prev` could cycle and eager's answer
//! hangs on its pop order: the `sada-proto` spec compiler refuses cost 0.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use sada_expr::{CompId, CompiledInvariants, Config, Csr, InvariantSet};

use crate::action::Action;
use crate::index::{action_ix, ActionIndex};
use crate::path::{Path, PathStep};
use crate::yen::{yen, Bans};

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

/// A witness that a configuration satisfies every invariant of the [`Search`]
/// that vetted it: the search proper takes two, so endpoints are vetted
/// once however the search is entered.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Safe<'c>(&'c Config);

/// A reusable planning context over one invariant set and action repertoire.
///
/// Construction compiles the invariants, indexes the actions, and
/// precomputes each action's affected-predicate list; [`Search::plan`] and
/// [`Search::plan_astar`] then run with no per-query setup. Build it once
/// per (world, scope) and reuse it across queries — the free function
/// [`plan`] builds a throwaway `Search` per call.
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
    /// Bit `w` is set when some action touches a component of word `w`:
    /// the reach of an unscoped query, one bit per 64 components.
    reach: Vec<u64>,
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
        let min_cost = actions.iter().map(Action::cost).min().unwrap_or(1);
        let numbered = || actions.iter().enumerate().map(|(aix, a)| (action_ix(aix), a));
        let by_touched = Csr::from_pairs(
            width,
            numbered().flat_map(|(aix, a)| a.touched().iter().map(move |c| (c.index(), aix))),
        );
        let empty_touched =
            numbered().filter(|(_, a)| a.touched().is_empty()).map(|(aix, _)| aix).collect();
        let mut reach = vec![0u64; width.div_ceil(64).div_ceil(64)];
        for c in actions.iter().flat_map(Action::touched) {
            reach[c.index() / 4096] |= 1 << (c.index() / 64 % 64);
        }
        Search {
            index: ActionIndex::new(width, &actions),
            actions,
            compiled,
            affected,
            by_touched,
            empty_touched,
            mode,
            reach,
            max_touched,
            min_cost,
        }
    }

    /// The action table, indexed by [`crate::ActionId`].
    pub fn actions(&self) -> &[Action] {
        &self.actions
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
    /// `scope` (ascending, without repeats) — the same subset, in the same order, as
    /// filtering the whole repertoire by `touched ⊆ scope`, but gathered
    /// through the inverted touch index in O(scope-local work).
    pub fn scoped_action_ixs(&self, scope: &[CompId]) -> Vec<u32> {
        assert!(
            scope.is_sorted_by(|a, b| a < b),
            "scoped_action_ixs: the scope must be ascending, without repeats"
        );
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

    /// Full safety check for an arbitrary configuration: every invariant
    /// is evaluated (mid-search candidates use the incremental kernel).
    pub fn is_safe(&self, cfg: &Config) -> bool {
        self.vet(cfg).is_some()
    }

    /// [`Search::is_safe`], handing back the proof instead of a flag.
    fn vet<'c>(&self, cfg: &'c Config) -> Option<Safe<'c>> {
        self.vet_counting(cfg, &mut 0)
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

    /// Up to `k` loopless paths from `source` to `target`, cheapest first:
    /// Yen's ranking on this search's spur searches, the first being
    /// [`Search::plan`]'s. Prefix-stable; empty without a safe path.
    pub fn k_paths(&self, source: &Config, target: &Config, k: usize) -> Vec<Path> {
        let (Some(_), Some(to)) = (self.vet(source), self.vet(target)) else { return Vec::new() };
        // Every spur configuration lies on a path from the vetted source.
        let spur = |from: &Config, bans: &Bans| {
            self.search(Safe(from), to, false, None, bans, LazyStats::default()).0
        };
        yen(source, k, spur)
    }

    /// A* over the implicit SAG with an admissible distance heuristic.
    ///
    /// The heuristic: reaching `target` requires flipping every component
    /// in the symmetric difference; one action flips at most `max_touched`
    /// components and costs at least `min_cost`, so
    /// `ceil(diff / max_touched) * min_cost` never overestimates (and is 0
    /// when some action is free) — A* returns the same optimal cost as
    /// [`Search::plan`] (property-tested), usually with fewer expansions.
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
        self.search(source, target, astar, scoped, &Bans::NONE, stats)
    }

    /// The reach of a query over configurations of `width`: the ascending
    /// indices of the words its candidate actions can write — every word an
    /// action of `scoped` touches, or the precomputed reach of the whole
    /// repertoire. Words past `width` are left out: an action touching
    /// them never applies there.
    fn reach_words(&self, width: usize, scoped: Option<&[u32]>) -> Vec<u32> {
        let nwords = width.div_ceil(64) as u32;
        let mut words: Vec<u32> = match scoped {
            Some(s) => {
                let touched = s.iter().flat_map(|&aix| self.actions[aix as usize].touched());
                touched.map(|c| (c.index() / 64) as u32).collect()
            }
            None => (0..self.reach.len() as u32 * 64)
                .filter(|&w| self.reach[w as usize / 64] & (1 << (w % 64)) != 0)
                .collect(),
        };
        words.sort_unstable();
        words.dedup();
        words.retain(|&w| w < nwords);
        words
    }

    /// The search proper, between two endpoints already proved safe, that
    /// avoids `bans`; `stats` carries whatever the vetting counted.
    fn search(
        &self,
        source: Safe<'_>,
        target: Safe<'_>,
        astar: bool,
        scoped: Option<&[u32]>,
        bans: &Bans,
        mut stats: LazyStats,
    ) -> (Option<Path>, LazyStats) {
        let (source, target) = (source.0, target.0);
        if source == target {
            return (Some(Path::empty()), stats);
        }
        let reach = self.reach_words(source.width(), scoped);
        let mut nodes = Nodes::new(reach.len());
        // The one scratch configuration of this query: a node is expanded
        // by writing its reach words into it, and each candidate is applied
        // to it and undone again.
        let mut scratch = source.clone();
        let mut key = Vec::with_capacity(reach.len());
        gather(&scratch, &reach, &mut key);
        assert_eq!(nodes.intern(&key), SOURCE_ID);
        nodes.dist[SOURCE_ID as usize] = 0;

        // Nodes equal the source outside the reach: a target that differs
        // from it there — or has another width — is never discovered, and
        // A*'s estimate counts what differs there once per query (across
        // two widths it has no estimate: `distance` panics).
        let mut goal = Vec::with_capacity(reach.len());
        let mut outside = 0;
        let mut target_id = None;
        if source.width() == target.width() || astar {
            let all = source.distance(target);
            gather(target, &reach, &mut goal);
            outside = all - differing(&key, &goal);
            if outside == 0 {
                target_id = Some(nodes.intern(&goal));
            }
        }
        // A banned node sits at distance 0, like the source: never reached.
        // Yen bans nodes of paths from the source, equal to it off the reach.
        for banned in &bans.configs {
            gather(banned, &reach, &mut key);
            let id = nodes.intern(&key);
            if id == SOURCE_ID || Some(id) == target_id {
                return (None, stats);
            }
            nodes.dist[id as usize] = 0;
        }
        let h = |nodes: &Nodes, id: u32| -> u64 {
            if !astar {
                return 0;
            }
            let far = differing(nodes.words(id), &goal) + outside;
            (far as u64).div_ceil(self.max_touched) * self.min_cost
        };

        let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
        let mut tie = 0u64; // keeps heap ordering deterministic
        heap.push(Reverse((h(&nodes, SOURCE_ID), tie, SOURCE_ID)));
        let mut candidates: Vec<u32> = Vec::new();
        while let Some(Reverse((f, _, id))) = heap.pop() {
            let g = nodes.dist[id as usize];
            if g.saturating_add(h(&nodes, id)) < f {
                continue; // stale entry
            }
            if Some(id) == target_id {
                break;
            }
            stats.expanded += 1;
            for (&w, &word) in reach.iter().zip(nodes.words(id)) {
                scratch.set_word(w as usize, word);
            }
            match (scoped, &self.mode) {
                (Some(s), _) => {
                    candidates.clear();
                    candidates.extend_from_slice(s);
                }
                (None, Mode::Kernel) => self.index.probe(&scratch, &mut candidates),
                (None, Mode::TreeWalk(_)) => {
                    candidates.clear();
                    candidates.extend(0..self.actions.len() as u32);
                }
            }
            if id == SOURCE_ID && !bans.first.is_empty() {
                candidates.retain(|&aix| !bans.first.contains(&self.actions[aix as usize].id()));
            }
            for &aix in &candidates {
                stats.probed += 1;
                let action = &self.actions[aix as usize];
                if !action.applicable(&scratch) {
                    continue;
                }
                action.apply_to(&mut scratch);
                stats.generated += 1;
                stats.safety_checks += 1;
                if self.check_candidate(aix, &scratch, &mut stats) {
                    let nd = g.saturating_add(action.cost());
                    gather(&scratch, &reach, &mut key);
                    let nid = nodes.intern(&key);
                    let known = nodes.dist[nid as usize];
                    if nd < known {
                        nodes.dist[nid as usize] = nd;
                        nodes.prev[nid as usize] = (id, aix);
                        tie += 1;
                        heap.push(Reverse((nd.saturating_add(h(&nodes, nid)), tie, nid)));
                    } else if nd == known
                        && action.cost() > 0
                        && nodes.precedes(id, nodes.prev[nid as usize].0)
                    {
                        nodes.prev[nid as usize] = (id, aix); // the tie rule
                    }
                }
                action.unapply(&mut scratch);
            }
        }
        let Some(target_id) = target_id else { return (None, stats) };
        let total = nodes.dist[target_id as usize];
        if total == u64::MAX {
            return (None, stats);
        }
        (Some(self.replay(&nodes, target_id, source, target, total)), stats)
    }

    /// Rebuilds the path by replaying, from the caller's `source`, the
    /// actions the `prev` links name on the way back from the target. The
    /// first step's `from` is a handle on the caller's `source` and the last
    /// step's `to` one on the caller's `target`, and each step's `to` is the
    /// next one's `from`: chunked configurations share every chunk a step
    /// leaves alone.
    fn replay(
        &self,
        nodes: &Nodes,
        target_id: u32,
        source: &Config,
        target: &Config,
        total: u64,
    ) -> Path {
        let mut back = Vec::new();
        let mut cur = target_id;
        while cur != SOURCE_ID {
            let (from, aix) = nodes.prev[cur as usize];
            back.push(aix);
            cur = from;
        }
        let mut steps = Vec::with_capacity(back.len());
        let mut from = source.clone();
        while let Some(aix) = back.pop() {
            let action = &self.actions[aix as usize];
            let to = if back.is_empty() { target.clone() } else { action.apply(&from) };
            let from = std::mem::replace(&mut from, to.clone());
            steps.push(PathStep { from, to, action: action.id(), cost: action.cost() });
        }
        Path { steps, cost: total }
    }
}

/// The node every query starts from.
const SOURCE_ID: u32 = 0;

/// How many bits differ between two runs of words.
fn differing(a: &[u64], b: &[u64]) -> usize {
    a.iter().zip(b).map(|(a, b)| (a ^ b).count_ones() as usize).sum()
}

/// Overwrites `out` with the words of `cfg` at the indices `reach` lists.
fn gather(cfg: &Config, reach: &[u32], out: &mut Vec<u64>) {
    out.clear();
    match cfg.flat_words() {
        Some(words) => out.extend(reach.iter().map(|&w| words[w as usize])),
        None => out.extend(reach.iter().map(|&w| cfg.word(w as usize))),
    }
}

/// The nodes one query has discovered: each a dense `u32` id and its reach
/// words, with per-node search state in flat vectors over ids.
#[derive(Debug, Default)]
struct Nodes {
    /// Reach words per node.
    span: usize,
    /// Node `id`'s reach words are `words[id * span..][..span]`.
    words: Vec<u64>,
    /// Linear probing from the words' hash: `id + 1` in an occupied slot, 0
    /// in a free one. Empty, or a power of two at least twice the node
    /// count. Probed and filled, never iterated, and keyed by the search's
    /// own states: its hash cannot reach candidate order, tie-breaking,
    /// [`LazyStats`] or a fingerprint, and no outside party picks the keys.
    slots: Vec<u32>,
    dist: Vec<u64>,
    /// The node each node was last reached from, and by which action.
    prev: Vec<(u32, u32)>,
}

impl Nodes {
    fn new(span: usize) -> Self {
        Nodes { span, ..Nodes::default() }
    }

    fn words(&self, id: u32) -> &[u64] {
        &self.words[id as usize * self.span..][..self.span]
    }

    /// Whether node `a` comes before node `b` by (distance, configuration)
    /// in component order: the highest differing reach word decides.
    fn precedes(&self, a: u32, b: u32) -> bool {
        let (da, db) = (self.dist[a as usize], self.dist[b as usize]);
        da < db || da == db && self.words(a).iter().rev().lt(self.words(b).iter().rev())
    }

    /// The id of the node whose reach words are `key`, discovering it (at
    /// distance `u64::MAX`) if it is new.
    fn intern(&mut self, key: &[u64]) -> u32 {
        let mut free = match self.find(key) {
            Ok(id) => return id,
            Err(free) => free,
        };
        let id = u32::try_from(self.dist.len() + 1).expect("fewer than u32::MAX nodes") - 1;
        if 2 * self.dist.len() + 2 > self.slots.len() {
            self.grow();
            free = self.find(key).expect_err("a new node");
        }
        self.slots[free] = id + 1;
        self.words.extend_from_slice(key);
        self.dist.push(u64::MAX);
        self.prev.push((u32::MAX, u32::MAX));
        id
    }

    /// Where `key` is stored: its id, or the free slot its probe ended on
    /// (slot 0 of an empty table, which has none).
    #[inline]
    fn find(&self, key: &[u64]) -> Result<u32, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut ix = hash_words(key) as usize & mask;
        loop {
            match self.slots[ix] {
                0 => return Err(ix),
                taken if self.words(taken - 1) == key => return Ok(taken - 1),
                _ => ix = (ix + 1) & mask,
            }
        }
    }

    /// Doubles the table (to sixteen slots at least) and places every node
    /// again from its words' hash.
    fn grow(&mut self) {
        self.slots = vec![0; (2 * self.slots.len()).max(16)];
        for id in 0..self.dist.len() as u32 {
            let free = self.find(self.words(id)).expect_err("nodes are distinct");
            self.slots[free] = id + 1;
        }
    }
}

/// Multiply-rotate hash of a node's reach words: one multiply and one
/// rotate per word instead of SipHash.
#[inline]
fn hash_words(words: &[u64]) -> u64 {
    /// 2^64 over the golden ratio, odd.
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let h = words.iter().fold(0u64, |h, &word| (h.rotate_left(5) ^ word).wrapping_mul(K));
    // Bit `p` of the last word reaches only bits `p` and up of its product,
    // while the table picks a slot by the low bits: fold the high half
    // down, multiply once more and hand that product's high half back as
    // the low one.
    (h ^ (h >> 32)).wrapping_mul(K).rotate_left(32)
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
    Search::new(inv, actions, source.width()).plan(source, target).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sag::Sag;
    use sada_expr::{enumerate, oracle, Universe};

    /// Uniform-cost search on a throwaway [`Search`].
    fn ucs(
        inv: &InvariantSet,
        actions: &[Action],
        s: &Config,
        t: &Config,
    ) -> (Option<Path>, LazyStats) {
        Search::new(inv, actions, s.width()).plan(s, t)
    }

    /// A* on a throwaway [`Search`].
    fn astar(
        inv: &InvariantSet,
        actions: &[Action],
        s: &Config,
        t: &Config,
    ) -> (Option<Path>, LazyStats) {
        Search::new(inv, actions, s.width()).plan_astar(s, t)
    }

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
    #[should_panic(expected = "scoped_action_ixs: the scope must be ascending, without repeats")]
    fn an_unsorted_scope_is_refused_by_name() {
        let (u, inv, actions) = setup();
        let search = Search::new(&inv, &actions, u.len());
        let (a, b) = (u.id("A").unwrap(), u.id("B").unwrap());
        assert_eq!(search.scoped_action_ixs(&[a, b]), [0]);
        let _ = search.scoped_action_ixs(&[b, a]);
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
        let (p, stats) = ucs(&inv, &actions, &u.config_of(&["C"]), &u.config_of(&["A"]));
        assert!(p.is_none());
        assert!(stats.expanded <= 3, "exploration is bounded by safe configs");
    }

    #[test]
    fn stats_count_work() {
        let (u, inv, actions) = setup();
        let (p, stats) = ucs(&inv, &actions, &u.config_of(&["A"]), &u.config_of(&["C"]));
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
            let (astar, _) = astar(&inv, &actions, &src, &dst);
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

    /// A pair flip of cost 1 listed first, and two single flips of cost 0:
    /// with a minimum cost clamped to 1 the heuristic promised 1 at the
    /// source, and A* took the pair.
    #[test]
    fn astar_stays_optimal_when_an_action_is_free() {
        let mut u = Universe::new();
        for n in ["X0", "X1", "Y0", "Y1"] {
            u.intern(n);
        }
        let c = |names: &[&str]| u.config_of(names);
        let actions = vec![
            Action::replace(0, "pair", &c(&["X0", "Y0"]), &c(&["X1", "Y1"]), 1),
            Action::replace(1, "X", &c(&["X0"]), &c(&["X1"]), 0),
            Action::replace(2, "Y", &c(&["Y0"]), &c(&["Y1"]), 0),
        ];
        let inv = InvariantSet::new();
        let (src, dst) = (c(&["X0", "Y0"]), c(&["X1", "Y1"]));
        let cost = |p: Option<Path>| p.map(|p| p.cost);
        assert_eq!(cost(ucs(&inv, &actions, &src, &dst).0), Some(0));
        assert_eq!(cost(astar(&inv, &actions, &src, &dst).0), Some(0));
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
        let (pa, sa) = astar(&inv, &actions, &src, &dst);
        let (pd, sd) = ucs(&inv, &actions, &src, &dst);
        assert_eq!(pa.unwrap().cost, pd.unwrap().cost);
        assert!(sa.expanded <= sd.expanded, "A* ({}) vs Dijkstra ({})", sa.expanded, sd.expanded);
    }

    #[test]
    fn astar_rejects_unsafe_endpoints() {
        let (u, inv, actions) = setup();
        let bad = u.config_of(&["A", "B"]);
        assert!(astar(&inv, &actions, &bad, &u.config_of(&["C"])).0.is_none());
        let a = u.config_of(&["A"]);
        assert_eq!(astar(&inv, &actions, &a, &a).0, Some(Path::empty()));
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
        let (p, stats) = ucs(&inv, &actions, &c0, &c1);
        assert_eq!(p.unwrap().len(), 1);
        assert!(stats.expanded <= 2, "expanded {}", stats.expanded);
    }
}
