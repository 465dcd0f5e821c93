//! Safe adaptation paths.

use std::fmt;

use sada_expr::Config;

use crate::action::ActionId;

/// One adaptation step: an ordered configuration pair plus the action that
/// realizes the transition (Section 3.1's `step = (config1, config2)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStep {
    /// The configuration before the step.
    pub from: Config,
    /// The configuration after the step.
    pub to: Config,
    /// The adaptive action applied.
    pub action: ActionId,
    /// The action's cost weight.
    pub cost: u64,
}

/// A safe adaptation path: a sequence of adaptation steps through safe
/// configurations, from a source configuration to a target configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// The steps, in execution order. Empty when source == target.
    pub steps: Vec<PathStep>,
    /// Sum of step costs.
    pub cost: u64,
}

impl Path {
    /// The empty path (source already equals target).
    pub(crate) fn empty() -> Self {
        Path { steps: Vec::new(), cost: 0 }
    }

    /// Number of adaptation steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True for the zero-step path.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The action ids along the path, e.g. `[A2, A17, A1, A16, A4]`.
    pub fn action_ids(&self) -> Vec<ActionId> {
        self.steps.iter().map(|s| s.action).collect()
    }

    /// Checks internal consistency: each step starts where the previous one
    /// ended and the total cost matches.
    pub fn is_well_formed(&self) -> bool {
        self.steps.windows(2).all(|w| w[0].to == w[1].from)
            && self.cost == self.steps.iter().map(|s| s.cost).sum::<u64>()
    }

    /// The configurations visited, source first (empty for the empty path).
    pub fn configs(&self) -> Vec<Config> {
        let mut out = Vec::with_capacity(self.steps.len() + 1);
        if let Some(first) = self.steps.first() {
            out.push(first.from.clone());
        }
        for s in &self.steps {
            out.push(s.to.clone());
        }
        out
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let labels: Vec<String> = self.steps.iter().map(|s| s.action.to_string()).collect();
        write!(f, "[{}] cost={}", labels.join(", "), self.cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(width: usize, bits: &[usize]) -> Config {
        let mut c = Config::empty(width);
        for &b in bits {
            c.insert(sada_expr::CompId::from_index(b));
        }
        c
    }

    #[test]
    fn empty_path_properties() {
        let p = Path::empty();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(p.cost, 0);
        assert!(p.is_well_formed());
        assert!(p.configs().is_empty());
    }

    #[test]
    fn well_formedness_checks_chaining_and_cost() {
        let a = cfg(3, &[0]);
        let b = cfg(3, &[1]);
        let c = cfg(3, &[2]);
        let good = Path {
            steps: vec![
                PathStep { from: a.clone(), to: b.clone(), action: ActionId(0), cost: 5 },
                PathStep { from: b.clone(), to: c.clone(), action: ActionId(1), cost: 7 },
            ],
            cost: 12,
        };
        assert!(good.is_well_formed());
        assert_eq!(good.configs(), vec![a.clone(), b.clone(), c.clone()]);
        assert_eq!(good.action_ids(), vec![ActionId(0), ActionId(1)]);

        let broken_chain = Path {
            steps: vec![
                PathStep { from: a.clone(), to: b.clone(), action: ActionId(0), cost: 5 },
                PathStep { from: a.clone(), to: c, action: ActionId(1), cost: 7 },
            ],
            cost: 12,
        };
        assert!(!broken_chain.is_well_formed());

        let bad_cost = Path {
            steps: vec![PathStep { from: a, to: b, action: ActionId(0), cost: 5 }],
            cost: 6,
        };
        assert!(!bad_cost.is_well_formed());
    }

    #[test]
    fn display_matches_paper_style() {
        let a = cfg(2, &[0]);
        let b = cfg(2, &[1]);
        let p = Path {
            steps: vec![PathStep { from: a, to: b, action: ActionId(1), cost: 10 }],
            cost: 10,
        };
        assert_eq!(p.to_string(), "[A2] cost=10");
    }
}
