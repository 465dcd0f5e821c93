//! The past-time LTL formula AST.

use std::collections::BTreeSet;
use std::fmt;

/// A past-time linear temporal logic formula over named propositions.
///
/// Semantics over a finite trace `s₀ … sₙ`, evaluated at the newest state
/// `sₙ` (`⊨ᵢ` means "holds at position i"):
///
/// * `Atom(p)` — `p ∈ sᵢ`.
/// * `Yesterday(φ)` — `i > 0` and `φ ⊨ᵢ₋₁` (false at the first state).
/// * `Once(φ)` — `φ` held at some `j ≤ i`.
/// * `Historically(φ)` — `φ` held at every `j ≤ i`.
/// * `Since(φ, ψ)` — some `j ≤ i` with `ψ ⊨ⱼ` and `φ` at every position in
///   `(j, i]` (strong since: `ψ` must have occurred).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Formula {
    /// Constant truth value.
    Const(bool),
    /// Named proposition.
    Atom(String),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Material implication.
    Implies(Box<Formula>, Box<Formula>),
    /// True iff the operand held in the previous state.
    Yesterday(Box<Formula>),
    /// True iff the operand has held at least once so far.
    Once(Box<Formula>),
    /// True iff the operand has held in every state so far.
    Historically(Box<Formula>),
    /// `lhs since rhs`: `rhs` occurred, and `lhs` has held ever since
    /// (strictly after that occurrence).
    Since(Box<Formula>, Box<Formula>),
}

impl Formula {
    /// Proposition reference.
    pub fn atom(name: &str) -> Formula {
        Formula::Atom(name.to_string())
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Formula {
        Formula::Not(Box::new(f))
    }

    /// Conjunction.
    pub fn and(a: Formula, b: Formula) -> Formula {
        Formula::And(Box::new(a), Box::new(b))
    }

    /// Disjunction.
    pub fn or(a: Formula, b: Formula) -> Formula {
        Formula::Or(Box::new(a), Box::new(b))
    }

    /// Implication.
    pub fn implies(a: Formula, b: Formula) -> Formula {
        Formula::Implies(Box::new(a), Box::new(b))
    }

    /// `yesterday φ`.
    pub fn yesterday(f: Formula) -> Formula {
        Formula::Yesterday(Box::new(f))
    }

    /// `once φ`.
    pub fn once(f: Formula) -> Formula {
        Formula::Once(Box::new(f))
    }

    /// `historically φ`.
    pub fn historically(f: Formula) -> Formula {
        Formula::Historically(Box::new(f))
    }

    /// `a since b`.
    pub fn since(a: Formula, b: Formula) -> Formula {
        Formula::Since(Box::new(a), Box::new(b))
    }

    /// Number of AST nodes (monitor state size).
    pub(crate) fn size(&self) -> usize {
        match self {
            Formula::Const(_) | Formula::Atom(_) => 1,
            Formula::Not(f)
            | Formula::Yesterday(f)
            | Formula::Once(f)
            | Formula::Historically(f) => 1 + f.size(),
            Formula::And(a, b)
            | Formula::Or(a, b)
            | Formula::Implies(a, b)
            | Formula::Since(a, b) => 1 + a.size() + b.size(),
        }
    }

    /// Reference evaluation over an explicit finite trace, at the last
    /// position. Exponential-free but re-walks the trace; used as the
    /// testing oracle for the incremental [`Monitor`](crate::Monitor).
    pub fn eval_trace(&self, trace: &[BTreeSet<String>]) -> bool {
        if trace.is_empty() {
            return matches!(self, Formula::Const(true))
                || matches!(self, Formula::Historically(_));
        }
        self.eval_at(trace, trace.len() - 1)
    }

    fn eval_at(&self, trace: &[BTreeSet<String>], i: usize) -> bool {
        match self {
            Formula::Const(b) => *b,
            Formula::Atom(p) => trace[i].contains(p),
            Formula::Not(f) => !f.eval_at(trace, i),
            Formula::And(a, b) => a.eval_at(trace, i) && b.eval_at(trace, i),
            Formula::Or(a, b) => a.eval_at(trace, i) || b.eval_at(trace, i),
            Formula::Implies(a, b) => !a.eval_at(trace, i) || b.eval_at(trace, i),
            Formula::Yesterday(f) => i > 0 && f.eval_at(trace, i - 1),
            Formula::Once(f) => (0..=i).any(|j| f.eval_at(trace, j)),
            Formula::Historically(f) => (0..=i).all(|j| f.eval_at(trace, j)),
            Formula::Since(a, b) => (0..=i)
                .rev()
                .any(|j| b.eval_at(trace, j) && ((j + 1)..=i).all(|k| a.eval_at(trace, k))),
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::Const(b) => write!(f, "{b}"),
            Formula::Atom(p) => f.write_str(p),
            Formula::Not(x) => write!(f, "!{x}"),
            Formula::And(a, b) => write!(f, "({a} & {b})"),
            Formula::Or(a, b) => write!(f, "({a} | {b})"),
            Formula::Implies(a, b) => write!(f, "({a} => {b})"),
            Formula::Yesterday(x) => write!(f, "yesterday {x}"),
            Formula::Once(x) => write!(f, "once {x}"),
            Formula::Historically(x) => write!(f, "historically {x}"),
            Formula::Since(a, b) => write!(f, "({a} since {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(props: &[&str]) -> BTreeSet<String> {
        props.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn reference_semantics_basics() {
        let trace = vec![state(&["a"]), state(&[]), state(&["b"])];
        assert!(Formula::once(Formula::atom("a")).eval_trace(&trace));
        assert!(!Formula::atom("a").eval_trace(&trace));
        assert!(Formula::atom("b").eval_trace(&trace));
        assert!(!Formula::historically(Formula::atom("a")).eval_trace(&trace));
        assert!(Formula::yesterday(Formula::Const(true)).eval_trace(&trace));
    }

    #[test]
    fn yesterday_is_false_at_origin() {
        let trace = vec![state(&["a"])];
        assert!(!Formula::yesterday(Formula::atom("a")).eval_trace(&trace));
        assert!(!Formula::yesterday(Formula::Const(true)).eval_trace(&trace));
    }

    #[test]
    fn since_requires_anchor() {
        // b never happened: strong since is false even if a always holds.
        let trace = vec![state(&["a"]), state(&["a"])];
        assert!(!Formula::since(Formula::atom("a"), Formula::atom("b")).eval_trace(&trace));
        // b at origin, a afterwards: true.
        let trace = vec![state(&["b"]), state(&["a"]), state(&["a"])];
        assert!(Formula::since(Formula::atom("a"), Formula::atom("b")).eval_trace(&trace));
        // a gap after the last b: false.
        let trace = vec![state(&["b"]), state(&[]), state(&["a"])];
        assert!(!Formula::since(Formula::atom("a"), Formula::atom("b")).eval_trace(&trace));
        // anchor at the current state counts regardless of lhs.
        let trace = vec![state(&[]), state(&["b"])];
        assert!(Formula::since(Formula::atom("a"), Formula::atom("b")).eval_trace(&trace));
    }

    #[test]
    fn size_counts_nodes() {
        let f = Formula::implies(
            Formula::and(Formula::atom("x"), Formula::atom("y")),
            Formula::once(Formula::atom("x")),
        );
        assert_eq!(f.size(), 6);
    }

    #[test]
    fn display_round_trips_structure() {
        let f = Formula::since(Formula::not(Formula::atom("err")), Formula::atom("reset"));
        assert_eq!(f.to_string(), "(!err since reset)");
    }
}
