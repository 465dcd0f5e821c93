//! Yen's algorithm for the k shortest loopless adaptation paths.
//!
//! The paper's failure-handling strategy (Section 4.4) tries "the second
//! minimum adaptation path from the current configuration to the target
//! configuration" after a failed step, then the third, and so on. Yen's
//! algorithm enumerates exactly that ranking. Its outer loop, [`yen`], is
//! written once: [`Sag::k_shortest_paths`] and [`crate::Search::k_paths`]
//! plug their spur searches into it.

use sada_expr::Config;

use crate::action::ActionId;
use crate::path::Path;
use crate::sag::Sag;

/// What a spur search avoids: the root path's configurations, and the first
/// steps the ranked paths sharing that root take out of the spur.
#[derive(Debug, Default)]
pub(crate) struct Bans {
    pub(crate) configs: Vec<Config>,
    pub(crate) first: Vec<ActionId>,
}

impl Bans {
    pub(crate) const NONE: Bans = Bans { configs: Vec::new(), first: Vec::new() };
}

/// Up to `k` loopless paths from `source` by ascending cost, ties in
/// discovery order, where `spur(from, bans)` is a cheapest path from `from`
/// to the target that avoids `bans`. Prefix-stable in `k`.
pub(crate) fn yen(
    source: &Config,
    k: usize,
    mut spur: impl FnMut(&Config, &Bans) -> Option<Path>,
) -> Vec<Path> {
    let mut found: Vec<Path> = Vec::new();
    let first = if k == 0 { None } else { spur(source, &Bans::NONE) };
    found.extend(first);
    // Candidate pool of potential next-best paths.
    let mut candidates: Vec<Path> = Vec::new();
    while !found.is_empty() && found.len() < k {
        let prev = &found[found.len() - 1];
        // Each prefix of the previous path spawns a spur search.
        for (spur_ix, step) in prev.steps.iter().enumerate() {
            let root = &prev.steps[..spur_ix];
            let first = found
                .iter()
                .chain(&candidates)
                .filter(|p| p.steps.len() > spur_ix && p.steps[..spur_ix] == *root);
            let bans = Bans {
                configs: root.iter().map(|s| s.from.clone()).collect(),
                first: first.map(|p| p.steps[spur_ix].action).collect(),
            };
            let Some(spur) = spur(&step.from, &bans) else { continue };
            let mut steps = root.to_vec();
            steps.extend(spur.steps);
            let cost = steps.iter().map(|s| s.cost).sum();
            let candidate = Path { steps, cost };
            if !found.contains(&candidate) && !candidates.contains(&candidate) {
                candidates.push(candidate);
            }
        }
        // Pop the cheapest candidate.
        let Some(best_ix) =
            candidates.iter().enumerate().min_by_key(|(_, p)| p.cost).map(|(i, _)| i)
        else {
            break;
        };
        found.push(candidates.swap_remove(best_ix));
    }
    found
}

impl Sag {
    /// Returns up to `k` loopless paths from `source` to `target`, sorted by
    /// ascending cost (ties broken by discovery order). The first element,
    /// when present, equals [`Sag::shortest_path`].
    ///
    /// Returns an empty vector when no path exists or either endpoint is not
    /// a safe configuration.
    pub fn k_shortest_paths(&self, source: &Config, target: &Config, k: usize) -> Vec<Path> {
        yen(source, k, |from, bans| self.shortest_path_avoiding(from, target, bans))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use sada_expr::{enumerate, InvariantSet, Universe};

    /// Diamond: S -> {L, R} -> T with distinct costs, plus a direct S -> T.
    fn diamond() -> (Universe, Sag) {
        let mut u = Universe::new();
        for n in ["S", "L", "R", "T"] {
            u.intern(n);
        }
        let actions = vec![
            Action::replace(0, "S->L", &u.config_of(&["S"]), &u.config_of(&["L"]), 1),
            Action::replace(1, "S->R", &u.config_of(&["S"]), &u.config_of(&["R"]), 2),
            Action::replace(2, "L->T", &u.config_of(&["L"]), &u.config_of(&["T"]), 1),
            Action::replace(3, "R->T", &u.config_of(&["R"]), &u.config_of(&["T"]), 2),
            Action::replace(4, "S->T", &u.config_of(&["S"]), &u.config_of(&["T"]), 10),
        ];
        let inv = InvariantSet::parse(&["one_of(S, L, R, T)"], &mut u).unwrap();
        let sag = Sag::build(enumerate::safe_configs(&u, &inv), &actions);
        (u, sag)
    }

    #[test]
    fn ranks_paths_by_cost() {
        let (u, sag) = diamond();
        let s = u.config_of(&["S"]);
        let t = u.config_of(&["T"]);
        let paths = sag.k_shortest_paths(&s, &t, 5);
        assert_eq!(paths.len(), 3);
        let costs: Vec<u64> = paths.iter().map(|p| p.cost).collect();
        assert_eq!(costs, vec![2, 4, 10]);
        for p in &paths {
            assert!(p.is_well_formed());
            assert_eq!(p.steps.first().unwrap().from, s);
            assert_eq!(p.steps.last().unwrap().to, t);
        }
    }

    #[test]
    fn first_path_matches_dijkstra() {
        let (u, sag) = diamond();
        let s = u.config_of(&["S"]);
        let t = u.config_of(&["T"]);
        let paths = sag.k_shortest_paths(&s, &t, 1);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0], sag.shortest_path(&s, &t).unwrap());
    }

    #[test]
    fn paths_are_distinct_and_loopless() {
        let (u, sag) = diamond();
        let paths = sag.k_shortest_paths(&u.config_of(&["S"]), &u.config_of(&["T"]), 10);
        for (i, p) in paths.iter().enumerate() {
            for q in &paths[i + 1..] {
                assert_ne!(p, q, "paths must be distinct");
            }
            let cfgs = p.configs();
            let mut seen = std::collections::HashSet::new();
            for c in &cfgs {
                assert!(seen.insert(c.clone()), "loop detected in {p}");
            }
        }
    }

    #[test]
    fn k_zero_and_unreachable_are_empty() {
        let (u, sag) = diamond();
        assert!(sag.k_shortest_paths(&u.config_of(&["S"]), &u.config_of(&["T"]), 0).is_empty());
        // T has no outgoing arcs: T -> S unreachable.
        assert!(sag.k_shortest_paths(&u.config_of(&["T"]), &u.config_of(&["S"]), 3).is_empty());
    }

    #[test]
    fn exhausts_when_fewer_than_k_paths_exist() {
        let (u, sag) = diamond();
        let paths = sag.k_shortest_paths(&u.config_of(&["S"]), &u.config_of(&["T"]), 100);
        assert_eq!(paths.len(), 3, "diamond has exactly three loopless paths");
    }
}
