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
/// cost O(touched) instead of O(width). Both lists live in one boxed slice
/// — the removes, then the adds — so an action owns two heap objects (its
/// name and its ids), not three.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Action {
    id: ActionId,
    name: Box<str>,
    /// `ids[..split]` are the removes, `ids[split..]` the adds; each half
    /// ascending and without repeats, the two disjoint.
    ids: Box<[CompId]>,
    split: u32,
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
        Action::from_ids(id, name, removes.iter(), adds.iter(), cost)
    }

    /// Builds an action directly from component ids (in any order, repeats
    /// allowed), skipping the width-wide `Config` round trip.
    ///
    /// # Panics
    ///
    /// Panics if the two sets overlap after sorting/deduplication.
    pub fn from_ids(
        id: u32,
        name: &str,
        removes: impl IntoIterator<Item = CompId>,
        adds: impl IntoIterator<Item = CompId>,
        cost: u64,
    ) -> Self {
        let (removes, adds) = (removes.into_iter(), adds.into_iter());
        let mut ids = Vec::with_capacity(removes.size_hint().0 + adds.size_hint().0);
        ids.extend(removes);
        sort_dedup_from(&mut ids, 0);
        let split = ids.len();
        ids.extend(adds);
        sort_dedup_from(&mut ids, split);
        assert!(
            sorted_disjoint(&ids[..split], &ids[split..]),
            "action {name}: removes and adds overlap"
        );
        Action {
            id: ActionId(id),
            name: name.into(),
            ids: ids.into_boxed_slice(),
            split: u32::try_from(split).expect("an action removes fewer than 2^32 components"),
            cost,
        }
    }

    /// An insertion (`+C`): adds components, removes nothing.
    pub fn insert(id: u32, name: &str, adds: &Config, cost: u64) -> Self {
        Action::from_ids(id, name, [], adds.iter(), cost)
    }

    /// A removal (`-C`): removes components, adds nothing.
    pub fn remove(id: u32, name: &str, removes: &Config, cost: u64) -> Self {
        Action::from_ids(id, name, removes.iter(), [], cost)
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
        &self.ids[..self.split as usize]
    }

    /// Components this action adds, ascending.
    pub fn adds(&self) -> &[CompId] {
        &self.ids[self.split as usize..]
    }

    /// Every component the action touches — its removes, then its adds; no
    /// component twice, since the two are disjoint. The set whose hosting
    /// processes must participate in the adaptation step.
    pub fn touched(&self) -> &[CompId] {
        &self.ids
    }

    /// The fixed cost weight.
    pub fn cost(&self) -> u64 {
        self.cost
    }

    /// Number of distinct components the action touches.
    pub(crate) fn touched_len(&self) -> usize {
        // Disjointness is a construction invariant, so the union size is
        // just the sum.
        self.ids.len()
    }

    /// The touched set as a width-wide `Config` (for participant-process
    /// queries and tests that want set algebra).
    pub fn touched_config(&self, width: usize) -> Config {
        Config::from_ids(width, self.ids.iter().copied())
    }

    /// True when every component the action touches lies inside `scope`.
    pub fn touches_only(&self, scope: &Config) -> bool {
        self.ids.iter().all(|&c| scope.contains(c))
    }

    /// An action applies to `cfg` when everything it removes is present and
    /// everything it adds is absent.
    pub fn applicable(&self, cfg: &Config) -> bool {
        self.removes().iter().all(|&c| cfg.contains(c))
            && self.adds().iter().all(|&c| !cfg.contains(c))
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
        self.apply_to(&mut next);
        next
    }

    /// [`Action::apply`] in place, for a caller that has just tested
    /// [`Action::applicable`] on `cfg` itself (the lazy search's scratch
    /// successor): clears the removes, then sets the adds, and checks
    /// nothing. On a configuration the action does not apply to that is
    /// still well defined — the removes end up absent, the adds present —
    /// but it is not the paper's `adapt`.
    ///
    /// # Panics
    ///
    /// Panics if a touched component is out of range for `cfg`'s width.
    pub(crate) fn apply_to(&self, cfg: &mut Config) {
        cfg.apply_delta(self.removes(), self.adds());
    }
}

/// Sorts `ids[from..]` and drops its repeats, in place.
fn sort_dedup_from(ids: &mut Vec<CompId>, from: usize) {
    ids[from..].sort_unstable();
    let mut kept = from;
    for at in from..ids.len() {
        if kept == from || ids[kept - 1] != ids[at] {
            ids[kept] = ids[at];
            kept += 1;
        }
    }
    ids.truncate(kept);
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
    fn replace_applies() {
        let u = u();
        let a = Action::replace(0, "E1 -> E2", &u.config_of(&["E1"]), &u.config_of(&["E2"]), 10);
        let before = u.config_of(&["E1", "D1"]);
        assert!(a.applicable(&before));
        let after = a.apply(&before);
        assert_eq!(after, u.config_of(&["E2", "D1"]));
    }

    #[test]
    fn apply_to_is_apply_in_place() {
        let u = u();
        let actions = [
            Action::replace(0, "E1 -> E2", &u.config_of(&["E1"]), &u.config_of(&["E2"]), 10),
            Action::insert(1, "+D2", &u.config_of(&["D2"]), 5),
            Action::remove(2, "-D1", &u.config_of(&["D1"]), 5),
        ];
        for bits in ["0101", "0001", "0110", "1111", "0000"] {
            let cfg = u.config_from_bits(bits);
            for a in actions.iter().filter(|a| a.applicable(&cfg)) {
                let mut next = cfg.clone();
                a.apply_to(&mut next);
                assert_eq!(next, a.apply(&cfg), "{a} on {cfg}");
            }
        }
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
        assert_eq!(a.touched(), [a.removes(), a.adds()].concat(), "removes, then adds");
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
