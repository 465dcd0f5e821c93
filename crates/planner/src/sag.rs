//! The safe adaptation graph (SAG) and Dijkstra's minimum adaptation path.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

use sada_expr::Config;

use crate::action::{Action, ActionId};
use crate::path::{Path, PathStep};

/// A directed SAG arc: applying `action` in configuration `from` yields the
/// safe configuration `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Index of the source configuration in [`Sag::configs`].
    pub from: usize,
    /// Index of the destination configuration in [`Sag::configs`].
    pub to: usize,
    /// The action realizing the transition.
    pub action: ActionId,
    /// The action's cost weight.
    pub cost: u64,
}

/// The safe adaptation graph of Section 3.1: vertices are safe
/// configurations, arcs are adaptation steps realized by available adaptive
/// actions (the paper's Figure 4).
#[derive(Debug, Clone)]
pub struct Sag {
    configs: Vec<Config>,
    index: HashMap<Config, usize>,
    edges: Vec<Edge>,
    adj: Vec<Vec<usize>>, // node -> edge indices out of it
}

impl Sag {
    /// Builds the SAG from a safe-configuration set and the available
    /// actions: an arc `(c1, c2)` exists iff both are safe and some action
    /// maps `c1` to `c2` (the paper's two SAG membership conditions).
    ///
    /// Duplicate configurations are ignored; arcs keep the action identity
    /// so paths can report the paper's `A2, A17, …` labels. When several
    /// actions connect the same pair, all arcs are kept (Dijkstra will pick
    /// the cheapest).
    pub fn build(safe_configs: Vec<Config>, actions: &[Action]) -> Self {
        let mut configs = Vec::new();
        let mut index = HashMap::new();
        for cfg in safe_configs {
            if !index.contains_key(&cfg) {
                index.insert(cfg.clone(), configs.len());
                configs.push(cfg);
            }
        }
        let mut edges = Vec::new();
        let mut adj = vec![Vec::new(); configs.len()];
        for (from_ix, cfg) in configs.iter().enumerate() {
            for action in actions {
                if !action.applicable(cfg) {
                    continue;
                }
                let next = action.apply(cfg);
                if let Some(&to_ix) = index.get(&next) {
                    let e =
                        Edge { from: from_ix, to: to_ix, action: action.id(), cost: action.cost() };
                    adj[from_ix].push(edges.len());
                    edges.push(e);
                }
            }
        }
        Sag { configs, index, edges, adj }
    }

    /// The vertex set (safe configurations), in insertion order.
    pub fn configs(&self) -> &[Config] {
        &self.configs
    }

    /// The arc set.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Index of `cfg` in the vertex set, if it is a safe configuration.
    pub fn index_of(&self, cfg: &Config) -> Option<usize> {
        self.index.get(cfg).copied()
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.configs.len()
    }

    /// Number of arcs.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Dijkstra's algorithm: the minimum adaptation path (MAP) from `source`
    /// to `target`, or `None` when either configuration is unsafe or no path
    /// exists. `source == target` yields the empty path.
    pub fn shortest_path(&self, source: &Config, target: &Config) -> Option<Path> {
        self.shortest_path_avoiding(source, target, &HashSet::new(), &HashSet::new())
    }

    /// Dijkstra with exclusions — the primitive Yen's algorithm builds on.
    ///
    /// `banned_nodes` are vertex indices that may not be traversed (source
    /// and target must not be banned); `banned_edges` are edge indices that
    /// may not be used.
    pub(crate) fn shortest_path_avoiding(
        &self,
        source: &Config,
        target: &Config,
        banned_nodes: &HashSet<usize>,
        banned_edges: &HashSet<usize>,
    ) -> Option<Path> {
        let src = self.index_of(source)?;
        let dst = self.index_of(target)?;
        if banned_nodes.contains(&src) || banned_nodes.contains(&dst) {
            return None;
        }
        if src == dst {
            return Some(Path::empty());
        }
        let n = self.configs.len();
        let mut dist = vec![u64::MAX; n];
        let mut prev: Vec<Option<usize>> = vec![None; n]; // edge index used to reach node
        let mut heap = BinaryHeap::new();
        dist[src] = 0;
        heap.push(Reverse((0u64, src)));
        while let Some(Reverse((d, node))) = heap.pop() {
            if d > dist[node] {
                continue;
            }
            if node == dst {
                break;
            }
            for &eix in &self.adj[node] {
                if banned_edges.contains(&eix) {
                    continue;
                }
                let e = &self.edges[eix];
                if banned_nodes.contains(&e.to) {
                    continue;
                }
                let nd = d.saturating_add(e.cost);
                if nd < dist[e.to] {
                    dist[e.to] = nd;
                    prev[e.to] = Some(eix);
                    heap.push(Reverse((nd, e.to)));
                }
            }
        }
        if dist[dst] == u64::MAX {
            return None;
        }
        // Reconstruct by walking predecessor edges back from the target.
        let mut steps = Vec::new();
        let mut node = dst;
        while node != src {
            let eix = prev[node].expect("reachable node must have a predecessor");
            let e = &self.edges[eix];
            steps.push(PathStep {
                from: self.configs[e.from].clone(),
                to: self.configs[e.to].clone(),
                action: e.action,
                cost: e.cost,
            });
            node = e.from;
        }
        steps.reverse();
        Some(Path { steps, cost: dist[dst] })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sada_expr::{enumerate, InvariantSet, Universe};

    fn line_universe() -> (Universe, Vec<Action>) {
        // Components A, B, C with exactly-one-of invariant: safe configs are
        // the three singletons; replacements move between them.
        let mut u = Universe::new();
        for n in ["A", "B", "C"] {
            u.intern(n);
        }
        let actions = vec![
            Action::replace(0, "A->B", &u.config_of(&["A"]), &u.config_of(&["B"]), 1),
            Action::replace(1, "B->C", &u.config_of(&["B"]), &u.config_of(&["C"]), 1),
            Action::replace(2, "A->C", &u.config_of(&["A"]), &u.config_of(&["C"]), 5),
        ];
        (u, actions)
    }

    fn line_sag() -> (Universe, Sag) {
        let (mut u, actions) = line_universe();
        let inv = InvariantSet::parse(&["one_of(A, B, C)"], &mut u).unwrap();
        let safe = enumerate::safe_configs(&u, &inv);
        let sag = Sag::build(safe, &actions);
        (u, sag)
    }

    #[test]
    fn build_keeps_only_safe_to_safe_arcs() {
        let (_u, sag) = line_sag();
        assert_eq!(sag.node_count(), 3);
        // A->B, B->C, A->C are the only applicable safe transitions.
        assert_eq!(sag.edge_count(), 3);
    }

    #[test]
    fn dijkstra_prefers_two_cheap_hops_over_one_expensive() {
        let (u, sag) = line_sag();
        let p = sag.shortest_path(&u.config_of(&["A"]), &u.config_of(&["C"])).unwrap();
        assert_eq!(p.cost, 2, "A->B->C at cost 2 beats A->C at cost 5");
        assert_eq!(p.len(), 2);
        assert!(p.is_well_formed());
    }

    #[test]
    fn dijkstra_direct_when_cheaper() {
        let (mut u, mut actions) = line_universe();
        actions[2] = Action::replace(2, "A->C", &u.config_of(&["A"]), &u.config_of(&["C"]), 1);
        let inv = InvariantSet::parse(&["one_of(A, B, C)"], &mut u).unwrap();
        let sag = Sag::build(enumerate::safe_configs(&u, &inv), &actions);
        let p = sag.shortest_path(&u.config_of(&["A"]), &u.config_of(&["C"])).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.action_ids(), vec![ActionId(2)]);
    }

    #[test]
    fn same_source_and_target_is_empty_path() {
        let (u, sag) = line_sag();
        let a = u.config_of(&["A"]);
        let p = sag.shortest_path(&a, &a).unwrap();
        assert!(p.is_empty());
    }

    #[test]
    fn unreachable_target_is_none() {
        let (u, sag) = line_sag();
        // No action produces A from anywhere: C -> A unreachable.
        assert!(sag.shortest_path(&u.config_of(&["C"]), &u.config_of(&["A"])).is_none());
    }

    #[test]
    fn unsafe_endpoint_is_none() {
        let (u, sag) = line_sag();
        let unsafe_cfg = u.config_of(&["A", "B"]);
        assert!(sag.shortest_path(&unsafe_cfg, &u.config_of(&["C"])).is_none());
        assert!(sag.shortest_path(&u.config_of(&["A"]), &unsafe_cfg).is_none());
        assert_eq!(sag.index_of(&unsafe_cfg), None);
    }

    #[test]
    fn banned_edge_forces_detour() {
        let (u, sag) = line_sag();
        // Find the A->B edge index and ban it: only A->C (cost 5) remains.
        let a_ix = sag.index_of(&u.config_of(&["A"])).unwrap();
        let b_ix = sag.index_of(&u.config_of(&["B"])).unwrap();
        let eix = sag.edges().iter().position(|e| e.from == a_ix && e.to == b_ix).unwrap();
        let banned: HashSet<usize> = [eix].into();
        let p = sag
            .shortest_path_avoiding(
                &u.config_of(&["A"]),
                &u.config_of(&["C"]),
                &HashSet::new(),
                &banned,
            )
            .unwrap();
        assert_eq!(p.cost, 5);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn banned_node_forces_detour() {
        let (u, sag) = line_sag();
        let b_ix = sag.index_of(&u.config_of(&["B"])).unwrap();
        let banned: HashSet<usize> = [b_ix].into();
        let p = sag
            .shortest_path_avoiding(
                &u.config_of(&["A"]),
                &u.config_of(&["C"]),
                &banned,
                &HashSet::new(),
            )
            .unwrap();
        assert_eq!(p.cost, 5);
    }

    #[test]
    fn duplicate_safe_configs_are_deduped() {
        let (mut u, actions) = line_universe();
        let inv = InvariantSet::parse(&["one_of(A, B, C)"], &mut u).unwrap();
        let mut safe = enumerate::safe_configs(&u, &inv);
        let dup = safe[0].clone();
        safe.push(dup);
        let sag = Sag::build(safe, &actions);
        assert_eq!(sag.node_count(), 3);
    }
}
