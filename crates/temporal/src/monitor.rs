//! Incremental ptLTL monitoring: O(|formula|) per step, one bit of state
//! per temporal subformula.

use crate::formula::Formula;

/// Flattened subformula, children referenced by index (children always
/// precede parents — post-order).
#[derive(Debug, Clone)]
enum Node {
    Const(bool),
    Atom(String),
    Not(usize),
    And(usize, usize),
    Or(usize, usize),
    Implies(usize, usize),
    Yesterday(usize),
    Once(usize),
    Historically(usize),
    Since(usize, usize),
}

/// An incremental evaluator for a ptLTL [`Formula`].
///
/// Feed one state at a time with [`Monitor::step`]; the return value is the
/// formula's truth at that state. The standard recurrences are used:
///
/// * `once φ  ⇐  φ ∨ yesterday(once φ)`
/// * `historically φ ⇐ φ ∧ ¬yesterday(¬historically φ)`
/// * `a since b ⇐ b ∨ (a ∧ yesterday(a since b))`
#[derive(Debug, Clone)]
pub struct Monitor {
    nodes: Vec<Node>,
    /// Truth of each subformula at the previous state.
    prev: Vec<bool>,
    /// True before the first step (origin handling for `yesterday`).
    at_origin: bool,
}

impl Monitor {
    /// Compiles `formula` into an incremental monitor.
    pub fn new(formula: Formula) -> Self {
        let mut nodes = Vec::with_capacity(formula.size());
        flatten(&formula, &mut nodes);
        let n = nodes.len();
        Monitor { nodes, prev: vec![false; n], at_origin: true }
    }

    /// Resets the monitor to the origin.
    pub fn reset(&mut self) {
        self.prev.iter_mut().for_each(|b| *b = false);
        self.at_origin = true;
    }

    /// Consumes the next state (characterized by the proposition oracle
    /// `holds`) and returns the formula's truth at that state.
    pub fn step(&mut self, holds: &dyn Fn(&str) -> bool) -> bool {
        let mut cur = vec![false; self.nodes.len()];
        for ix in 0..self.nodes.len() {
            cur[ix] = match &self.nodes[ix] {
                Node::Const(b) => *b,
                Node::Atom(p) => holds(p),
                Node::Not(a) => !cur[*a],
                Node::And(a, b) => cur[*a] && cur[*b],
                Node::Or(a, b) => cur[*a] || cur[*b],
                Node::Implies(a, b) => !cur[*a] || cur[*b],
                Node::Yesterday(a) => !self.at_origin && self.prev[*a],
                Node::Once(a) => cur[*a] || (!self.at_origin && self.prev[ix]),
                Node::Historically(a) => cur[*a] && (self.at_origin || self.prev[ix]),
                Node::Since(a, b) => cur[*b] || (cur[*a] && !self.at_origin && self.prev[ix]),
            };
        }
        self.prev = cur;
        self.at_origin = false;
        *self.prev.last().expect("formula has at least one node")
    }
}

fn flatten(f: &Formula, out: &mut Vec<Node>) -> usize {
    let node = match f {
        Formula::Const(b) => Node::Const(*b),
        Formula::Atom(p) => Node::Atom(p.clone()),
        Formula::Not(x) => Node::Not(flatten(x, out)),
        Formula::And(a, b) => {
            let (a, b) = (flatten(a, out), flatten(b, out));
            Node::And(a, b)
        }
        Formula::Or(a, b) => {
            let (a, b) = (flatten(a, out), flatten(b, out));
            Node::Or(a, b)
        }
        Formula::Implies(a, b) => {
            let (a, b) = (flatten(a, out), flatten(b, out));
            Node::Implies(a, b)
        }
        Formula::Yesterday(x) => Node::Yesterday(flatten(x, out)),
        Formula::Once(x) => Node::Once(flatten(x, out)),
        Formula::Historically(x) => Node::Historically(flatten(x, out)),
        Formula::Since(a, b) => {
            let (a, b) = (flatten(a, out), flatten(b, out));
            Node::Since(a, b)
        }
    };
    out.push(node);
    out.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn run(monitor: &mut Monitor, states: &[&[&str]]) -> Vec<bool> {
        states
            .iter()
            .map(|props| {
                let set: BTreeSet<&str> = props.iter().copied().collect();
                monitor.step(&|p| set.contains(p))
            })
            .collect()
    }

    #[test]
    fn once_latches() {
        let mut m = Monitor::new(Formula::once(Formula::atom("a")));
        assert_eq!(run(&mut m, &[&[], &["a"], &[], &[]]), vec![false, true, true, true]);
    }

    #[test]
    fn historically_breaks_permanently() {
        let mut m = Monitor::new(Formula::historically(Formula::atom("a")));
        assert_eq!(run(&mut m, &[&["a"], &["a"], &[], &["a"]]), vec![true, true, false, false]);
    }

    #[test]
    fn yesterday_shifts_by_one() {
        let mut m = Monitor::new(Formula::yesterday(Formula::atom("a")));
        assert_eq!(run(&mut m, &[&["a"], &[], &["a"], &[]]), vec![false, true, false, true]);
    }

    #[test]
    fn since_resets_on_anchor() {
        let f = Formula::since(Formula::not(Formula::atom("err")), Formula::atom("reset"));
        let mut m = Monitor::new(f);
        let out = run(&mut m, &[&["reset"], &[], &["err"], &[], &["reset"], &[]]);
        assert_eq!(out, vec![true, true, false, false, true, true]);
    }

    #[test]
    fn reset_returns_to_origin() {
        let mut m = Monitor::new(Formula::once(Formula::atom("a")));
        let _ = run(&mut m, &[&["a"]]);
        assert!(!m.at_origin);
        m.reset();
        assert!(m.at_origin);
        assert_eq!(run(&mut m, &[&[]]), vec![false], "latch cleared");
    }

    #[test]
    fn incremental_matches_reference_on_random_traces() {
        use crate::formula::Formula as F;
        // A grab-bag of nested formulas.
        let formulas = vec![
            F::once(F::and(F::atom("a"), F::yesterday(F::atom("b")))),
            F::historically(F::implies(F::atom("a"), F::once(F::atom("b")))),
            F::since(F::or(F::atom("a"), F::atom("b")), F::atom("c")),
            F::yesterday(F::yesterday(F::atom("a"))),
            F::not(F::since(F::not(F::atom("a")), F::atom("b"))),
        ];
        // Deterministic pseudo-random trace over {a, b, c}.
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let mut trace: Vec<BTreeSet<String>> = Vec::new();
        for f in &formulas {
            let mut m = Monitor::new(f.clone());
            trace.clear();
            for _ in 0..200 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let mut s = BTreeSet::new();
                if x & 1 != 0 {
                    s.insert("a".to_string());
                }
                if x & 2 != 0 {
                    s.insert("b".to_string());
                }
                if x & 4 != 0 {
                    s.insert("c".to_string());
                }
                trace.push(s);
                let state = trace.last().unwrap().clone();
                let inc = m.step(&|p| state.contains(p));
                let refr = f.eval_trace(&trace);
                assert_eq!(inc, refr, "formula {f} diverged at step {}", trace.len());
            }
        }
    }
}
