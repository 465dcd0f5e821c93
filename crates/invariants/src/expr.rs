//! The dependency-relationship expression language.

use std::collections::BTreeSet;
use std::fmt;

use crate::config::{CompId, Config, Universe};
use crate::parser::{parse_with, ParseError, Scratch};

/// Three-valued truth used for pruning partial configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tri {
    /// Definitely true regardless of unassigned components.
    True,
    /// Definitely false regardless of unassigned components.
    False,
    /// Depends on at least one unassigned component.
    Unknown,
}

impl Tri {
    fn not(self) -> Tri {
        match self {
            Tri::True => Tri::False,
            Tri::False => Tri::True,
            Tri::Unknown => Tri::Unknown,
        }
    }

    fn from_bool(b: bool) -> Tri {
        if b {
            Tri::True
        } else {
            Tri::False
        }
    }
}

/// A partial truth assignment over components: some decided, the rest open.
///
/// Used by the pruned enumerator — components are decided one at a time and
/// the invariant conjunction is re-evaluated in three-valued logic after each
/// decision.
#[derive(Debug, Clone)]
pub struct PartialAssignment {
    decided: Config,
    value: Config,
}

impl PartialAssignment {
    /// No component decided yet.
    pub fn new(width: usize) -> Self {
        PartialAssignment { decided: Config::empty(width), value: Config::empty(width) }
    }

    /// Starts from a fully- or partially-known base: every component in
    /// `decided` is fixed to its membership in `value`.
    pub(crate) fn with_fixed(decided: Config, value: Config) -> Self {
        assert_eq!(decided.width(), value.width(), "width mismatch");
        PartialAssignment { value: value.intersection(&decided), decided }
    }

    /// Fixes `id` to `present`.
    pub fn assign(&mut self, id: CompId, present: bool) {
        self.decided.insert(id);
        if present {
            self.value.insert(id);
        } else {
            self.value.remove(id);
        }
    }

    /// Reverts `id` to undecided.
    pub(crate) fn unassign(&mut self, id: CompId) {
        self.decided.remove(id);
        self.value.remove(id);
    }

    /// Three-valued lookup.
    pub(crate) fn get(&self, id: CompId) -> Tri {
        if !self.decided.contains(id) {
            Tri::Unknown
        } else {
            Tri::from_bool(self.value.contains(id))
        }
    }

    /// The decided-and-present components (only meaningful when complete).
    pub(crate) fn as_config(&self) -> &Config {
        &self.value
    }
}

/// A dependency-relationship predicate over components (Section 3.1).
///
/// `A -> Cond` from the paper is [`Expr::implies`]; the structural
/// "exclusively select one of {…}" invariant is [`Expr::exactly_one`]; `·` is
/// [`Expr::and`], `∨` is [`Expr::or`] and `⊕` is [`Expr::xor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Constant truth value.
    Const(bool),
    /// "Component is present and functioning correctly."
    Var(CompId),
    /// Logical negation.
    Not(Box<Expr>),
    /// N-ary conjunction (true when empty).
    And(Vec<Expr>),
    /// N-ary disjunction (false when empty).
    Or(Vec<Expr>),
    /// N-ary parity (odd number of true operands).
    Xor(Vec<Expr>),
    /// Exactly one operand true — the paper's ⨂ structural invariant.
    ExactlyOne(Vec<Expr>),
    /// Material implication — the paper's dependency arrow `→`.
    Implies(Box<Expr>, Box<Expr>),
    /// Biconditional.
    Iff(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Variable reference.
    pub fn var(id: CompId) -> Expr {
        Expr::Var(id)
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(e: Expr) -> Expr {
        Expr::Not(Box::new(e))
    }

    /// N-ary conjunction.
    pub fn and(es: Vec<Expr>) -> Expr {
        Expr::And(es)
    }

    /// N-ary disjunction.
    pub fn or(es: Vec<Expr>) -> Expr {
        Expr::Or(es)
    }

    /// N-ary parity.
    pub fn xor(es: Vec<Expr>) -> Expr {
        Expr::Xor(es)
    }

    /// Exactly-one-of constraint.
    pub fn exactly_one(es: Vec<Expr>) -> Expr {
        Expr::ExactlyOne(es)
    }

    /// `self → rhs`.
    pub fn implies(self, rhs: Expr) -> Expr {
        Expr::Implies(Box::new(self), Box::new(rhs))
    }

    /// `self ↔ rhs`.
    pub fn iff(self, rhs: Expr) -> Expr {
        Expr::Iff(Box::new(self), Box::new(rhs))
    }

    /// Two-valued evaluation against a complete configuration: a component
    /// variable is true iff the component is in the configuration.
    pub fn eval(&self, cfg: &Config) -> bool {
        match self {
            Expr::Const(b) => *b,
            Expr::Var(id) => cfg.contains(*id),
            Expr::Not(e) => !e.eval(cfg),
            Expr::And(es) => es.iter().all(|e| e.eval(cfg)),
            Expr::Or(es) => es.iter().any(|e| e.eval(cfg)),
            Expr::Xor(es) => es.iter().filter(|e| e.eval(cfg)).count() % 2 == 1,
            Expr::ExactlyOne(es) => es.iter().filter(|e| e.eval(cfg)).count() == 1,
            Expr::Implies(a, b) => !a.eval(cfg) || b.eval(cfg),
            Expr::Iff(a, b) => a.eval(cfg) == b.eval(cfg),
        }
    }

    /// Three-valued evaluation against a partial assignment; returns
    /// [`Tri::Unknown`] only when undecided components can still change the
    /// outcome. This powers the pruned safe-configuration search.
    pub fn eval3(&self, pa: &PartialAssignment) -> Tri {
        match self {
            Expr::Const(b) => Tri::from_bool(*b),
            Expr::Var(id) => pa.get(*id),
            Expr::Not(e) => e.eval3(pa).not(),
            Expr::And(es) => {
                let mut unknown = false;
                for e in es {
                    match e.eval3(pa) {
                        Tri::False => return Tri::False,
                        Tri::Unknown => unknown = true,
                        Tri::True => {}
                    }
                }
                if unknown {
                    Tri::Unknown
                } else {
                    Tri::True
                }
            }
            Expr::Or(es) => {
                let mut unknown = false;
                for e in es {
                    match e.eval3(pa) {
                        Tri::True => return Tri::True,
                        Tri::Unknown => unknown = true,
                        Tri::False => {}
                    }
                }
                if unknown {
                    Tri::Unknown
                } else {
                    Tri::False
                }
            }
            Expr::Xor(es) => {
                let mut parity = false;
                for e in es {
                    match e.eval3(pa) {
                        Tri::Unknown => return Tri::Unknown,
                        Tri::True => parity = !parity,
                        Tri::False => {}
                    }
                }
                Tri::from_bool(parity)
            }
            Expr::ExactlyOne(es) => {
                let mut trues = 0usize;
                let mut unknowns = 0usize;
                for e in es {
                    match e.eval3(pa) {
                        Tri::True => trues += 1,
                        Tri::Unknown => unknowns += 1,
                        Tri::False => {}
                    }
                }
                if trues > 1 {
                    Tri::False
                } else if unknowns == 0 {
                    Tri::from_bool(trues == 1)
                } else {
                    Tri::Unknown
                }
            }
            Expr::Implies(a, b) => match (a.eval3(pa), b.eval3(pa)) {
                (Tri::False, _) | (_, Tri::True) => Tri::True,
                (Tri::True, Tri::False) => Tri::False,
                _ => Tri::Unknown,
            },
            Expr::Iff(a, b) => match (a.eval3(pa), b.eval3(pa)) {
                (Tri::Unknown, _) | (_, Tri::Unknown) => Tri::Unknown,
                (x, y) => Tri::from_bool(x == y),
            },
        }
    }

    /// Calls `f` on every variable occurrence, left to right (a component
    /// mentioned twice is visited twice).
    pub fn for_each_var<F: FnMut(CompId)>(&self, f: &mut F) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(id) => f(*id),
            Expr::Not(e) => e.for_each_var(f),
            Expr::And(es) | Expr::Or(es) | Expr::Xor(es) | Expr::ExactlyOne(es) => {
                for e in es {
                    e.for_each_var(f);
                }
            }
            Expr::Implies(a, b) | Expr::Iff(a, b) => {
                a.for_each_var(f);
                b.for_each_var(f);
            }
        }
    }

    /// Collects every component mentioned by the expression.
    pub fn collect_vars(&self, out: &mut BTreeSet<CompId>) {
        self.for_each_var(&mut |id| {
            out.insert(id);
        });
    }

    fn fmt_with(&self, u: Option<&Universe>, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn list(
            es: &[Expr],
            sep: &str,
            empty: &str,
            u: Option<&Universe>,
            f: &mut fmt::Formatter<'_>,
        ) -> fmt::Result {
            if es.is_empty() {
                return f.write_str(empty);
            }
            f.write_str("(")?;
            for (i, e) in es.iter().enumerate() {
                if i > 0 {
                    f.write_str(sep)?;
                }
                e.fmt_with(u, f)?;
            }
            f.write_str(")")
        }
        match self {
            Expr::Const(b) => write!(f, "{b}"),
            Expr::Var(id) => match u {
                Some(u) => f.write_str(u.name(*id)),
                None => write!(f, "c{}", id.index()),
            },
            Expr::Not(e) => {
                f.write_str("!")?;
                e.fmt_with(u, f)
            }
            Expr::And(es) => list(es, " & ", "true", u, f),
            Expr::Or(es) => list(es, " | ", "false", u, f),
            Expr::Xor(es) => list(es, " ^ ", "false", u, f),
            Expr::ExactlyOne(es) => {
                f.write_str("one_of(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    e.fmt_with(u, f)?;
                }
                f.write_str(")")
            }
            Expr::Implies(a, b) => {
                f.write_str("(")?;
                a.fmt_with(u, f)?;
                f.write_str(" => ")?;
                b.fmt_with(u, f)?;
                f.write_str(")")
            }
            Expr::Iff(a, b) => {
                f.write_str("(")?;
                a.fmt_with(u, f)?;
                f.write_str(" <=> ")?;
                b.fmt_with(u, f)?;
                f.write_str(")")
            }
        }
    }

    /// Renders the expression with component names resolved through `u`.
    pub fn display<'a>(&'a self, u: &'a Universe) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Expr, &'a Universe);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.0.fmt_with(Some(self.1), f)
            }
        }
        D(self, u)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_with(None, f)
    }
}

/// The conjunction *I* of all dependency-relationship predicates: structural
/// invariants plus per-component dependency invariants (Section 3.1).
#[derive(Debug, Clone, Default)]
pub struct InvariantSet {
    exprs: Vec<Expr>,
}

impl InvariantSet {
    /// An empty (always-satisfied) invariant set.
    pub fn new() -> Self {
        InvariantSet::default()
    }

    /// An empty set with room for `capacity` predicates.
    pub fn with_capacity(capacity: usize) -> Self {
        InvariantSet { exprs: Vec::with_capacity(capacity) }
    }

    /// Adds one predicate.
    pub fn push(&mut self, e: Expr) {
        self.exprs.push(e);
    }

    /// Parses each source string as [`parse_expr`](crate::parse_expr) does,
    /// interning component names into `u`. One token buffer and one operand
    /// stack serve every source.
    ///
    /// # Errors
    ///
    /// Returns the first [`ParseError`] encountered.
    pub fn parse(sources: &[&str], u: &mut Universe) -> Result<Self, ParseError> {
        let mut set = InvariantSet::with_capacity(sources.len());
        set.extend_parsed(sources, u)?;
        Ok(set)
    }

    /// Parses each source as [`parse`](Self::parse) does and appends it.
    ///
    /// # Errors
    ///
    /// Returns the first [`ParseError`] encountered; the sources before
    /// it are appended, so the set's length tells which one failed.
    pub fn extend_parsed(&mut self, sources: &[&str], u: &mut Universe) -> Result<(), ParseError> {
        let mut scratch = Scratch::default();
        self.exprs.reserve(sources.len());
        for src in sources {
            self.exprs.push(parse_with(src, u, &mut scratch)?);
        }
        Ok(())
    }

    /// The individual predicates.
    pub fn exprs(&self) -> &[Expr] {
        &self.exprs
    }

    /// Section 3.1: a configuration *satisfies* the dependency relationships
    /// when the conjunction evaluates true with in-configuration components
    /// true and all others false.
    pub fn satisfied_by(&self, cfg: &Config) -> bool {
        self.exprs.iter().all(|e| e.eval(cfg))
    }

    /// Three-valued satisfaction for partial assignments.
    pub fn eval3(&self, pa: &PartialAssignment) -> Tri {
        let mut unknown = false;
        for e in &self.exprs {
            match e.eval3(pa) {
                Tri::False => return Tri::False,
                Tri::Unknown => unknown = true,
                Tri::True => {}
            }
        }
        if unknown {
            Tri::Unknown
        } else {
            Tri::True
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Universe, CompId, CompId, CompId) {
        let mut u = Universe::new();
        let a = u.intern("A");
        let b = u.intern("B");
        let c = u.intern("C");
        (u, a, b, c)
    }

    #[test]
    fn eval_basic_connectives() {
        let (u, a, b, _c) = setup();
        let cfg = u.config_of(&["A"]);
        assert!(Expr::var(a).eval(&cfg));
        assert!(!Expr::var(b).eval(&cfg));
        assert!(Expr::not(Expr::var(b)).eval(&cfg));
        assert!(Expr::or(vec![Expr::var(a), Expr::var(b)]).eval(&cfg));
        assert!(!Expr::and(vec![Expr::var(a), Expr::var(b)]).eval(&cfg));
        assert!(Expr::var(b).implies(Expr::var(a)).eval(&cfg), "false antecedent");
        assert!(Expr::var(a).implies(Expr::var(a)).eval(&cfg));
        assert!(!Expr::var(a).implies(Expr::var(b)).eval(&cfg));
        assert!(Expr::var(a).iff(Expr::var(a)).eval(&cfg));
        assert!(!Expr::var(a).iff(Expr::var(b)).eval(&cfg));
    }

    #[test]
    fn empty_connectives_have_identity_semantics() {
        let cfg = Config::empty(0);
        assert!(Expr::and(vec![]).eval(&cfg));
        assert!(!Expr::or(vec![]).eval(&cfg));
        assert!(!Expr::xor(vec![]).eval(&cfg));
        assert!(!Expr::exactly_one(vec![]).eval(&cfg));
    }

    #[test]
    fn xor_is_parity_exactly_one_is_cardinality() {
        let (u, a, b, c) = setup();
        let all = u.config_of(&["A", "B", "C"]);
        let xor = Expr::xor(vec![Expr::var(a), Expr::var(b), Expr::var(c)]);
        let one = Expr::exactly_one(vec![Expr::var(a), Expr::var(b), Expr::var(c)]);
        assert!(xor.eval(&all), "three trues have odd parity");
        assert!(!one.eval(&all), "three trues is not exactly one");
        let single = u.config_of(&["B"]);
        assert!(xor.eval(&single));
        assert!(one.eval(&single));
    }

    #[test]
    fn eval3_prunes_and_decides() {
        let (u, a, b, _c) = setup();
        let e = Expr::and(vec![Expr::var(a), Expr::var(b)]);
        let mut pa = PartialAssignment::new(u.len());
        assert_eq!(e.eval3(&pa), Tri::Unknown);
        pa.assign(a, false);
        assert_eq!(e.eval3(&pa), Tri::False, "one false conjunct decides");
        pa.assign(a, true);
        assert_eq!(e.eval3(&pa), Tri::Unknown);
        pa.assign(b, true);
        assert_eq!(e.eval3(&pa), Tri::True);
        pa.unassign(b);
        assert_eq!(e.eval3(&pa), Tri::Unknown);
    }

    #[test]
    fn eval3_exactly_one_early_false() {
        let (u, a, b, c) = setup();
        let e = Expr::exactly_one(vec![Expr::var(a), Expr::var(b), Expr::var(c)]);
        let mut pa = PartialAssignment::new(u.len());
        pa.assign(a, true);
        pa.assign(b, true);
        // c still unknown, but two trues already violate exactly-one.
        assert_eq!(e.eval3(&pa), Tri::False);
    }

    #[test]
    fn eval3_implication_shortcuts() {
        let (u, a, b, _c) = setup();
        let e = Expr::var(a).implies(Expr::var(b));
        let mut pa = PartialAssignment::new(u.len());
        pa.assign(a, false);
        assert_eq!(e.eval3(&pa), Tri::True, "false antecedent decides without b");
    }

    #[test]
    fn eval3_agrees_with_eval_on_complete_assignments() {
        let (u, a, b, c) = setup();
        let exprs = vec![
            Expr::exactly_one(vec![Expr::var(a), Expr::var(b)]),
            Expr::var(a).implies(Expr::or(vec![Expr::var(b), Expr::var(c)])),
            Expr::xor(vec![Expr::var(a), Expr::var(b), Expr::var(c)]),
            Expr::not(Expr::var(c)).iff(Expr::var(a)),
        ];
        for bits in 0u32..8 {
            let mut cfg = u.empty_config();
            let mut pa = PartialAssignment::new(u.len());
            for (i, id) in [a, b, c].into_iter().enumerate() {
                let present = bits & (1 << i) != 0;
                if present {
                    cfg.insert(id);
                }
                pa.assign(id, present);
            }
            for e in &exprs {
                assert_eq!(e.eval3(&pa), Tri::from_bool(e.eval(&cfg)), "{e} on {cfg}");
            }
        }
    }

    #[test]
    fn collect_vars_finds_all() {
        let (_u, a, b, c) = setup();
        let e = Expr::exactly_one(vec![Expr::var(a), Expr::var(b)]).implies(Expr::var(c));
        let mut vars = BTreeSet::new();
        e.collect_vars(&mut vars);
        assert_eq!(vars.into_iter().collect::<Vec<_>>(), vec![a, b, c]);
    }

    #[test]
    fn invariant_set_conjunction() {
        let (u, a, b, _c) = setup();
        let mut inv = InvariantSet::new();
        inv.push(Expr::var(a));
        inv.push(Expr::var(a).implies(Expr::var(b)));
        assert!(inv.satisfied_by(&u.config_of(&["A", "B"])));
        assert!(!inv.satisfied_by(&u.config_of(&["A"])));
        assert!(!inv.satisfied_by(&u.config_of(&["B"])));
    }

    #[test]
    fn display_names_components() {
        let (u, a, b, _c) = setup();
        let e = Expr::var(a).implies(Expr::exactly_one(vec![Expr::var(b)]));
        assert_eq!(e.display(&u).to_string(), "(A => one_of(B))");
        assert_eq!(e.to_string(), "(c0 => one_of(c1))");
    }

    #[test]
    fn partial_assignment_with_fixed_masks_value() {
        let (u, a, b, _c) = setup();
        let mut decided = u.empty_config();
        decided.insert(a);
        let value = u.config_of(&["A", "B"]); // B not decided, must be masked out
        let pa = PartialAssignment::with_fixed(decided, value);
        assert_eq!(pa.get(a), Tri::True);
        assert_eq!(pa.get(b), Tri::Unknown);
        assert!(!pa.as_config().contains(b));
    }
}
