//! Action indexing for the lazy planner's expansion loop.
//!
//! Expanding a node means asking, for every action, "is it applicable
//! here?" — a linear scan over the whole repertoire per expansion. Most
//! actions fail the very first condition: something they remove is absent.
//! The index buckets each action under one *pivot* component — the first
//! component it removes (the action is applicable only in configurations
//! containing it), or, for pure insertions, the first component it adds
//! (applicable only in configurations *missing* it). Probing a
//! configuration unions the buckets of its present pivots with the buckets
//! of its absent insert-pivots, a provable superset of the applicable
//! actions that skips never-applicable ones without testing them.
//!
//! The probe result is sorted by action index, so iterating it visits
//! actions in exactly the order a linear scan would — planners built on the
//! index reproduce the unindexed search, candidate for candidate
//! (property-tested in this module and relied on by the fleet plan cache).
//!
//! Both bucket tables are flat ([`Csr`], one row per component, an action
//! in at most one row of one table), so building the index costs two
//! allocations per table however wide the universe is. The index borrows
//! the repertoire while it is built and keeps positions into it, never the
//! actions themselves.

use sada_expr::{CompId, Config, Csr};

use crate::action::Action;

/// An action's position in its repertoire, as the indices store it.
pub(crate) fn action_ix(ix: usize) -> u32 {
    u32::try_from(ix).expect("a repertoire holds at most u32::MAX actions")
}

/// Buckets actions by a required-presence or required-absence pivot.
#[derive(Debug, Clone)]
pub struct ActionIndex {
    /// Row `c`: actions whose removes-set contains pivot `c`.
    by_present: Csr<u32>,
    /// Row `c`: pure insertions whose adds-set contains pivot `c`.
    by_absent: Csr<u32>,
    /// Components with a non-empty `by_absent` bucket, so probing skips the
    /// width-sized scan when insertions are rare (the common case).
    absent_pivots: Vec<CompId>,
    /// Actions with no removes and no adds: applicable everywhere.
    always: Vec<u32>,
    width: usize,
}

impl ActionIndex {
    /// Indexes `actions` over configurations of width `width`.
    pub fn new(width: usize, actions: &[Action]) -> Self {
        let numbered = || actions.iter().enumerate().map(|(ix, a)| (action_ix(ix), a));
        let by_present = Csr::from_pairs(
            width,
            numbered().filter_map(|(ix, a)| Some((a.removes().first()?.index(), ix))),
        );
        let insertions = numbered().filter(|(_, a)| a.removes().is_empty());
        let by_absent = Csr::from_pairs(
            width,
            insertions.filter_map(|(ix, a)| Some((a.adds().first()?.index(), ix))),
        );
        let always = numbered().filter(|(_, a)| a.touched().is_empty()).map(|(ix, _)| ix).collect();
        let absent_pivots =
            (0..width).filter(|&c| !by_absent.row(c).is_empty()).map(CompId::from_index).collect();
        ActionIndex { by_present, by_absent, absent_pivots, always, width }
    }

    /// The configuration width the index was built for.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Fills `out` with the indices of plausibly-applicable actions for
    /// `cfg`: a superset of the truly applicable ones, without duplicates,
    /// sorted ascending (linear-scan order).
    pub fn probe(&self, cfg: &Config, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(&self.always);
        for c in cfg.iter() {
            out.extend_from_slice(self.by_present.row(c.index()));
        }
        for &c in &self.absent_pivots {
            if !cfg.contains(c) {
                out.extend_from_slice(self.by_absent.row(c.index()));
            }
        }
        // Each action lives in exactly one bucket, so no dedup is needed;
        // sorting restores the repertoire's scan order.
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sada_expr::Universe;

    fn world() -> (Universe, Vec<Action>) {
        let mut u = Universe::new();
        for n in ["A", "B", "C", "D"] {
            u.intern(n);
        }
        let actions = vec![
            Action::replace(0, "A->B", &u.config_of(&["A"]), &u.config_of(&["B"]), 1),
            Action::replace(1, "B->A", &u.config_of(&["B"]), &u.config_of(&["A"]), 1),
            Action::insert(2, "+C", &u.config_of(&["C"]), 1),
            Action::remove(3, "-D", &u.config_of(&["D"]), 1),
            Action::new(4, "noop", &u.empty_config(), &u.empty_config(), 1),
        ];
        (u, actions)
    }

    fn probe_of(u: &Universe, actions: &[Action], names: &[&str]) -> Vec<u32> {
        let ix = ActionIndex::new(u.len(), actions);
        let mut out = Vec::new();
        ix.probe(&u.config_of(names), &mut out);
        out
    }

    #[test]
    fn probe_is_a_sorted_superset_of_applicable() {
        let (u, actions) = world();
        for names in [&[][..], &["A"][..], &["B", "D"][..], &["A", "C", "D"][..]] {
            let cfg = u.config_of(names);
            let probed = probe_of(&u, &actions, names);
            assert!(probed.windows(2).all(|w| w[0] < w[1]), "sorted, no dups: {probed:?}");
            for (ix, a) in actions.iter().enumerate() {
                if a.applicable(&cfg) {
                    assert!(probed.contains(&(ix as u32)), "{} missing on {cfg}", a.name());
                }
            }
        }
    }

    #[test]
    fn probe_skips_never_applicable_actions() {
        let (u, actions) = world();
        // With nothing present, only the insert and the noop can apply.
        assert_eq!(probe_of(&u, &actions, &[]), vec![2, 4]);
        // With everything present the insert's pivot is already there.
        assert_eq!(probe_of(&u, &actions, &["A", "B", "C", "D"]), vec![0, 1, 3, 4]);
    }
}
