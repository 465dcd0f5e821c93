//! Collaborative-set decomposition (Section 7).
//!
//! "To handle the complexity, we can divide the adaptive components of a
//! system into multiple collaborative sets where component collaborations
//! occur only within each set. The component adaptation of each set can be
//! handled independently, thereby reducing the complexity."
//!
//! Two components collaborate when they co-occur in a dependency invariant
//! or are touched by the same adaptive action. [`collaborative_sets`]
//! computes the connected components of that relation with a union-find;
//! [`scope_for`] picks the sets an adaptation actually touches so the
//! planner can enumerate over a small scope.
//!
//! [`CollabIndex`] keeps the partition flat — one [`Csr`] row per set and a
//! dense component → set table — and builds it straight from the
//! union-find, without a set or a list per invariant or action on the way.
//! [`collaborative_sets`], which returns the same partition as one `Vec`
//! per set, is the oracle its tests compare it with.

use sada_expr::{CompId, Config, Csr, InvariantSet, Universe};

use crate::action::Action;

/// Union-find over dense component indices.
#[derive(Debug)]
struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect(), rank: vec![0; n] }
    }

    /// Iterative two-pass path compression: find the root, then re-walk the
    /// path pointing every node at it. No recursion, so pathological parent
    /// chains on large component universes cannot blow the stack.
    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
    }
}

/// The collaboration relation as a union-find over `u`: components
/// mentioned together in one invariant, or touched together by one action,
/// end up under one root.
fn collaboration(u: &Universe, inv: &InvariantSet, actions: &[Action]) -> UnionFind {
    let mut uf = UnionFind::new(u.len());
    for expr in inv.exprs() {
        let mut first = None;
        expr.for_each_var(&mut |v| uf.union(first.get_or_insert(v).index(), v.index()));
    }
    for action in actions {
        if let Some((first, rest)) = action.touched().split_first() {
            for c in rest {
                uf.union(first.index(), c.index());
            }
        }
    }
    uf
}

/// Partitions the universe into collaborative sets.
///
/// Components mentioned together in one invariant, or touched together by
/// one action, land in the same set. Components mentioned by nothing form
/// singleton sets. Sets are returned sorted by their smallest member, and
/// members are sorted, so output is deterministic.
pub fn collaborative_sets(
    u: &Universe,
    inv: &InvariantSet,
    actions: &[Action],
) -> Vec<Vec<CompId>> {
    let mut uf = collaboration(u, inv, actions);
    let mut groups: Vec<Vec<CompId>> = vec![Vec::new(); u.len()];
    for id in u.iter() {
        let root = uf.find(id.index());
        groups[root].push(id);
    }
    let mut out: Vec<Vec<CompId>> = groups.into_iter().filter(|g| !g.is_empty()).collect();
    out.sort_by_key(|g| g[0]);
    out
}

/// The union of collaborative sets touched by moving from `source` to
/// `target`: the components whose membership differs, expanded to full
/// sets. Planning may then restrict enumeration to this scope (components
/// outside it keep their `source` membership).
pub fn scope_for(
    u: &Universe,
    inv: &InvariantSet,
    actions: &[Action],
    source: &Config,
    target: &Config,
) -> Vec<CompId> {
    CollabIndex::new(u, inv, actions).scope_for(source, target)
}

/// The collaborative-set partition, precomputed for repeated scope queries.
///
/// A control plane admitting many adaptation sessions needs the scope of
/// each request; rebuilding the union-find per request is O(universe) every
/// time. The index pays that once and answers each query in time
/// proportional to the scope it returns. It also answers the scheduling
/// question directly: two sessions may run concurrently iff their scopes
/// share no set ([`CollabIndex::set_of`] gives the set id to compare on).
#[derive(Debug, Clone)]
pub struct CollabIndex {
    /// The partition, one row per set: rows sorted by smallest member,
    /// members ascending (as [`collaborative_sets`]).
    sets: Csr<CompId>,
    /// Dense component index → row of `sets`.
    set_of: Vec<u32>,
}

impl CollabIndex {
    /// Builds the index for the given invariants and action repertoire.
    pub fn new(u: &Universe, inv: &InvariantSet, actions: &[Action]) -> Self {
        let mut uf = collaboration(u, inv, actions);
        // Walking the components in ascending order meets every set at its
        // smallest member, so numbering roots as they first appear sorts
        // the sets by smallest member.
        const UNNUMBERED: u32 = u32::MAX;
        let mut set_of_root = vec![UNNUMBERED; u.len()];
        let mut set_count = 0u32;
        let set_of: Vec<u32> = (0..u.len())
            .map(|c| {
                let set = &mut set_of_root[uf.find(c)];
                if *set == UNNUMBERED {
                    *set = set_count;
                    set_count += 1;
                }
                *set
            })
            .collect();
        let members =
            set_of.iter().enumerate().map(|(c, &set)| (set as usize, CompId::from_index(c)));
        CollabIndex { sets: Csr::from_pairs(set_count as usize, members), set_of }
    }

    /// Number of collaborative sets.
    pub fn set_count(&self) -> usize {
        self.sets.rows()
    }

    /// Index (below [`CollabIndex::set_count`]) of the set containing
    /// `comp`.
    pub fn set_of(&self, comp: CompId) -> usize {
        self.set_of[comp.index()] as usize
    }

    /// Members of set `ix`, sorted.
    pub fn members(&self, ix: usize) -> &[CompId] {
        self.sets.row(ix)
    }

    /// Expands arbitrary components to the union of their full sets
    /// (ascending set index, each set once, its members sorted) — the scope
    /// of an adaptation known only by the components it names.
    pub fn expand(&self, comps: impl IntoIterator<Item = CompId>) -> Vec<CompId> {
        let mut set_ids: Vec<u32> = comps.into_iter().map(|c| self.set_of[c.index()]).collect();
        set_ids.sort_unstable();
        set_ids.dedup();
        set_ids.iter().flat_map(|&ix| self.sets.row(ix as usize).iter().copied()).collect()
    }

    /// The scope of a `source → target` adaptation: the changed components
    /// expanded to full sets (equivalent to the free function [`scope_for`]).
    pub fn scope_for(&self, source: &Config, target: &Config) -> Vec<CompId> {
        self.expand(source.difference(target).iter().chain(target.difference(source).iter()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe(names: &[&str]) -> Universe {
        let mut u = Universe::new();
        for n in names {
            u.intern(n);
        }
        u
    }

    #[test]
    fn invariants_group_components() {
        let mut u = universe(&[]);
        let inv = InvariantSet::parse(&["one_of(A, B)", "one_of(C, D)"], &mut u).unwrap();
        let sets = collaborative_sets(&u, &inv, &[]);
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[0].len(), 2);
        assert_eq!(sets[1].len(), 2);
    }

    #[test]
    fn actions_merge_sets() {
        let mut u = universe(&[]);
        let inv = InvariantSet::parse(&["one_of(A, B)", "one_of(C, D)"], &mut u).unwrap();
        // A compound action touching B and C fuses the two sets.
        let action = Action::replace(0, "(B)->(C)", &u.config_of(&["B"]), &u.config_of(&["C"]), 1);
        let sets = collaborative_sets(&u, &inv, &[action]);
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].len(), 4);
    }

    #[test]
    fn unmentioned_components_are_singletons() {
        let mut u = universe(&["LONER"]);
        let inv = InvariantSet::parse(&["one_of(A, B)"], &mut u).unwrap();
        let sets = collaborative_sets(&u, &inv, &[]);
        assert_eq!(sets.len(), 2);
        let loner = u.id("LONER").unwrap();
        assert!(sets.iter().any(|s| s == &vec![loner]));
    }

    #[test]
    fn scope_covers_changed_sets_only() {
        let mut u = universe(&[]);
        let inv =
            InvariantSet::parse(&["one_of(A, B)", "one_of(C, D)", "one_of(E, F)"], &mut u).unwrap();
        // Adaptation changes A->B only.
        let src = u.config_of(&["A", "C", "E"]);
        let dst = u.config_of(&["B", "C", "E"]);
        let scope = scope_for(&u, &inv, &[], &src, &dst);
        let names: Vec<&str> = scope.iter().map(|&id| u.name(id)).collect();
        assert_eq!(names, vec!["A", "B"]);
    }

    #[test]
    fn scope_unions_multiple_changed_sets() {
        let mut u = universe(&[]);
        let inv = InvariantSet::parse(&["one_of(A, B)", "one_of(C, D)"], &mut u).unwrap();
        let src = u.config_of(&["A", "C"]);
        let dst = u.config_of(&["B", "D"]);
        let scope = scope_for(&u, &inv, &[], &src, &dst);
        assert_eq!(scope.len(), 4);
    }

    #[test]
    fn empty_change_yields_empty_scope() {
        let mut u = universe(&[]);
        let inv = InvariantSet::parse(&["one_of(A, B)"], &mut u).unwrap();
        let cfg = u.config_of(&["A"]);
        assert!(scope_for(&u, &inv, &[], &cfg, &cfg).is_empty());
    }

    #[test]
    fn index_matches_free_functions_and_expands_comps() {
        let mut u = universe(&["LONER"]);
        let inv =
            InvariantSet::parse(&["one_of(A, B)", "one_of(C, D)", "one_of(E, F)"], &mut u).unwrap();
        let ix = CollabIndex::new(&u, &inv, &[]);
        let oracle = collaborative_sets(&u, &inv, &[]);
        assert_eq!(ix.set_count(), oracle.len());
        for (set, members) in oracle.iter().enumerate() {
            assert_eq!(ix.members(set), members.as_slice());
        }
        let src = u.config_of(&["A", "C", "E"]);
        let dst = u.config_of(&["B", "C", "F"]);
        assert_eq!(ix.scope_for(&src, &dst), scope_for(&u, &inv, &[], &src, &dst));
        // Same-set components collapse to one set; distinct sets union.
        let a = u.id("A").unwrap();
        let b = u.id("B").unwrap();
        let c = u.id("C").unwrap();
        assert_eq!(ix.set_of(a), ix.set_of(b));
        assert_ne!(ix.set_of(a), ix.set_of(c));
        assert_eq!(ix.expand([a, b]), vec![a, b]);
        assert_eq!(ix.expand([a, c]).len(), 4);
        assert_eq!(ix.members(ix.set_of(a)), &[a, b]);
        // A singleton expands to itself.
        let loner = u.id("LONER").unwrap();
        assert_eq!(ix.expand([loner]), vec![loner]);
        // Several sets, named out of order and more than once: each set
        // once, in ascending set order, whatever the input order.
        let (d, e, f) = (u.id("D").unwrap(), u.id("E").unwrap(), u.id("F").unwrap());
        assert_eq!(ix.expand([f, d, loner, e, c, f, d]), vec![loner, c, d, e, f]);
        assert_eq!(ix.expand([]), vec![]);
    }

    #[test]
    fn find_compresses_long_chains_without_recursion() {
        // A hand-built worst-case chain: parent[i] = i+1. A recursive find
        // would need 200k stack frames here; the iterative two-pass walk
        // must both reach the root and flatten the whole chain onto it.
        let n = 200_000;
        let mut uf = UnionFind::new(n);
        for i in 0..n - 1 {
            uf.parent[i] = i + 1;
        }
        assert_eq!(uf.find(0), n - 1);
        assert!(uf.parent.iter().all(|&p| p == n - 1), "path fully compressed");
    }

    #[test]
    fn union_find_path_compression_smoke() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(3, 4);
        assert_eq!(uf.find(0), uf.find(2));
        assert_eq!(uf.find(3), uf.find(4));
        assert_ne!(uf.find(0), uf.find(3));
        assert_eq!(uf.find(5), 5);
    }
}
