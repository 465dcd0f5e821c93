//! Adaptive actions: insert, remove, replace, and their compositions.

use std::fmt;

use sada_expr::{CompId, Config};

/// Identifies an adaptive action within an adaptation specification.
///
/// The case study numbers its actions `A1..A17` (Table 2); ids are the
/// zero-based positions in the action list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActionId(pub u32);

impl ActionId {
    /// Zero-based index into the action table.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ActionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The paper labels actions starting from A1.
        write!(f, "A{}", self.0 + 1)
    }
}

/// An adaptive action (Section 3.1): a partial function from configuration
/// to configuration that removes one component set and adds another, at a
/// fixed cost.
///
/// The paper's cost model folds blocking time, adaptation duration, packet
/// delay and resource use into one scalar per action (Table 2's "Cost (ms)"
/// column); we keep that scalar as an opaque `u64` weight.
///
/// The removed/added sets are stored as sorted id lists, not width-wide
/// bitsets: an action touches a handful of components regardless of how
/// many the world declares, so a 200k-action repertoire over a 200k-wide
/// universe stays megabytes instead of gigabytes, and `applicable`/`apply`
/// cost O(touched) instead of O(width).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Action {
    id: ActionId,
    name: String,
    removes: Vec<CompId>,
    adds: Vec<CompId>,
    cost: u64,
}

impl Action {
    /// Builds an action that removes `removes` and adds `adds`.
    ///
    /// # Panics
    ///
    /// Panics if the two sets overlap (a component cannot be both removed
    /// and added by one atomic action) or their widths differ.
    pub fn new(id: u32, name: &str, removes: &Config, adds: &Config, cost: u64) -> Self {
        assert!(removes.is_disjoint(adds), "action {name}: removes and adds overlap");
        Action {
            id: ActionId(id),
            name: name.to_string(),
            removes: removes.iter().collect(),
            adds: adds.iter().collect(),
            cost,
        }
    }

    /// Builds an action directly from component id lists (sorted for the
    /// caller), skipping the width-wide `Config` round trip.
    ///
    /// # Panics
    ///
    /// Panics if the two sets overlap after sorting/deduplication.
    pub fn from_ids(
        id: u32,
        name: &str,
        mut removes: Vec<CompId>,
        mut adds: Vec<CompId>,
        cost: u64,
    ) -> Self {
        removes.sort_unstable();
        removes.dedup();
        adds.sort_unstable();
        adds.dedup();
        assert!(sorted_disjoint(&removes, &adds), "action {name}: removes and adds overlap");
        Action { id: ActionId(id), name: name.to_string(), removes, adds, cost }
    }

    /// An insertion (`+C`): adds components, removes nothing.
    pub fn insert(id: u32, name: &str, adds: &Config, cost: u64) -> Self {
        Action::from_ids(id, name, Vec::new(), adds.iter().collect(), cost)
    }

    /// A removal (`-C`): removes components, adds nothing.
    pub fn remove(id: u32, name: &str, removes: &Config, cost: u64) -> Self {
        Action::from_ids(id, name, removes.iter().collect(), Vec::new(), cost)
    }

    /// A replacement (`Old -> New`).
    pub fn replace(id: u32, name: &str, removes: &Config, adds: &Config, cost: u64) -> Self {
        Action::new(id, name, removes, adds, cost)
    }

    /// The action's id.
    pub fn id(&self) -> ActionId {
        self.id
    }

    /// Human-readable label, e.g. `"D1 -> D2"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Components this action removes, ascending.
    pub fn removes(&self) -> &[CompId] {
        &self.removes
    }

    /// Components this action adds, ascending.
    pub fn adds(&self) -> &[CompId] {
        &self.adds
    }

    /// The fixed cost weight.
    pub fn cost(&self) -> u64 {
        self.cost
    }

    /// Every component the action touches (removed or added), ascending —
    /// the set whose hosting processes must participate in the adaptation
    /// step.
    pub fn touched_ids(&self) -> Vec<CompId> {
        let mut out = Vec::with_capacity(self.removes.len() + self.adds.len());
        let (mut i, mut j) = (0, 0);
        while i < self.removes.len() && j < self.adds.len() {
            if self.removes[i] < self.adds[j] {
                out.push(self.removes[i]);
                i += 1;
            } else {
                out.push(self.adds[j]);
                j += 1;
            }
        }
        out.extend_from_slice(&self.removes[i..]);
        out.extend_from_slice(&self.adds[j..]);
        out
    }

    /// Number of distinct components the action touches.
    pub fn touched_len(&self) -> usize {
        // Disjointness is a construction invariant, so the union size is
        // just the sum.
        self.removes.len() + self.adds.len()
    }

    /// The touched set as a width-wide `Config` (for participant-process
    /// queries and tests that want set algebra).
    pub fn touched_config(&self, width: usize) -> Config {
        let mut cfg = Config::empty(width);
        for &c in self.removes.iter().chain(self.adds.iter()) {
            cfg.insert(c);
        }
        cfg
    }

    /// True when every component the action touches lies inside `scope`.
    pub fn touches_only(&self, scope: &Config) -> bool {
        self.removes.iter().chain(self.adds.iter()).all(|&c| scope.contains(c))
    }

    /// An action applies to `cfg` when everything it removes is present and
    /// everything it adds is absent.
    pub fn applicable(&self, cfg: &Config) -> bool {
        self.removes.iter().all(|&c| cfg.contains(c)) && self.adds.iter().all(|&c| !cfg.contains(c))
    }

    /// `adapt(config1) = config2` (Section 3.1).
    ///
    /// # Panics
    ///
    /// Panics if the action is not applicable — callers are expected to
    /// check [`Action::applicable`] (the SAG builder and planners do).
    pub fn apply(&self, cfg: &Config) -> Config {
        assert!(self.applicable(cfg), "action {} not applicable to {cfg}", self.name);
        let mut next = cfg.clone();
        next.apply_delta(&self.removes, &self.adds);
        next
    }

    /// The inverse action, used by the realization phase's rollback: undoes
    /// this action's effect at the same cost.
    pub fn inverse(&self) -> Action {
        Action {
            id: self.id,
            name: format!("undo({})", self.name),
            removes: self.adds.clone(),
            adds: self.removes.clone(),
            cost: self.cost,
        }
    }
}

fn sorted_disjoint(a: &[CompId], b: &[CompId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} (cost {})", self.id, self.name, self.cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sada_expr::Universe;

    fn u() -> Universe {
        let mut u = Universe::new();
        for n in ["E1", "E2", "D1", "D2"] {
            u.intern(n);
        }
        u
    }

    #[test]
    fn replace_applies_and_round_trips() {
        let u = u();
        let a = Action::replace(0, "E1 -> E2", &u.config_of(&["E1"]), &u.config_of(&["E2"]), 10);
        let before = u.config_of(&["E1", "D1"]);
        assert!(a.applicable(&before));
        let after = a.apply(&before);
        assert_eq!(after, u.config_of(&["E2", "D1"]));
        assert_eq!(a.inverse().apply(&after), before);
        assert_eq!(a.inverse().cost(), 10);
    }

    #[test]
    fn insert_requires_absence() {
        let u = u();
        let a = Action::insert(0, "+D2", &u.config_of(&["D2"]), 5);
        assert!(a.applicable(&u.config_of(&["E1"])));
        assert!(!a.applicable(&u.config_of(&["D2"])), "already present");
        assert_eq!(a.apply(&u.empty_config()), u.config_of(&["D2"]));
    }

    #[test]
    fn remove_requires_presence() {
        let u = u();
        let a = Action::remove(0, "-D1", &u.config_of(&["D1"]), 5);
        assert!(!a.applicable(&u.empty_config()));
        assert_eq!(a.apply(&u.config_of(&["D1", "E1"])), u.config_of(&["E1"]));
    }

    #[test]
    fn compound_action_touches_union() {
        let u = u();
        let a = Action::replace(
            0,
            "(D1,E1)->(D2,E2)",
            &u.config_of(&["D1", "E1"]),
            &u.config_of(&["D2", "E2"]),
            100,
        );
        assert_eq!(a.touched_config(u.len()), u.config_of(&["D1", "E1", "D2", "E2"]));
        assert_eq!(a.touched_len(), 4);
        let ids = a.touched_ids();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "touched ids ascend");
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn from_ids_sorts_and_matches_config_construction() {
        let u = u();
        let via_cfg = Action::replace(3, "swap", &u.config_of(&["E1"]), &u.config_of(&["E2"]), 7);
        let e1 = u.id("E1").unwrap();
        let e2 = u.id("E2").unwrap();
        let via_ids = Action::from_ids(3, "swap", vec![e1], vec![e2], 7);
        assert_eq!(via_cfg, via_ids);
    }

    #[test]
    #[should_panic(expected = "not applicable")]
    fn apply_checks_applicability() {
        let u = u();
        let a = Action::replace(0, "E1 -> E2", &u.config_of(&["E1"]), &u.config_of(&["E2"]), 10);
        let _ = a.apply(&u.config_of(&["E2"]));
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_sets_rejected() {
        let u = u();
        let _ = Action::new(0, "bad", &u.config_of(&["E1"]), &u.config_of(&["E1"]), 1);
    }

    #[test]
    fn display_uses_paper_numbering() {
        let u = u();
        let a = Action::insert(1, "+D2", &u.config_of(&["D2"]), 5);
        assert_eq!(a.id().to_string(), "A2");
        assert!(a.to_string().contains("+D2"));
    }
}
