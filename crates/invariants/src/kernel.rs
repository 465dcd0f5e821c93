//! Compiled invariant kernels: the planner's safety-check hot path.
//!
//! Tree-walking [`Expr::eval`] is fine for a one-shot satisfiability query,
//! but a lazy planner asks "is this candidate configuration safe?" once per
//! generated successor — millions of times across a fleet of concurrent
//! sessions. Two observations make that cheap:
//!
//! 1. **Word-wise evaluation.** Each predicate lowers once to a flat postfix
//!    program over the [`Config`] bit words. Variable-only operand lists —
//!    the overwhelmingly common shape (`one_of(Old3, New3)`, conjunctions
//!    of presence bits) — fuse into single mask ops: `one_of` becomes a
//!    popcount over masked words, conjunction becomes `word & mask == mask`.
//!    No recursion, no `Box` chasing, no per-bit `contains` calls.
//!
//! 2. **Support masks.** Every predicate records its *support* — the set of
//!    components it mentions. An adaptive action only flips its touched
//!    components, so a successor of a known-safe configuration can only
//!    violate predicates whose support intersects the touched set.
//!    [`CompiledInvariants::still_satisfied_after`] re-evaluates exactly
//!    those, which for the paper's collaborative-set-structured invariants
//!    is typically one predicate instead of all of them.

use crate::config::{CompId, Config};
use crate::expr::{Expr, InvariantSet};

/// One postfix instruction. Fused ops (`AllSet`…`CountIsOne`) reference a
/// `start..start+len` range in the side table of `(word, mask)` pairs and
/// push one boolean; the general ops pop operands off the evaluation stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Push a constant.
    Const(bool),
    /// Push one component's presence bit.
    Bit { word: u32, mask: u64 },
    /// Push `true` iff every masked bit is set (fused variable conjunction;
    /// vacuously true on an empty range, matching `And([])`).
    AllSet { start: u32, len: u32 },
    /// Push `true` iff any masked bit is set (fused variable disjunction).
    AnySet { start: u32, len: u32 },
    /// Push the parity of the masked popcount (fused variable xor).
    ParityOdd { start: u32, len: u32 },
    /// Push `true` iff the masked popcount is exactly one (fused `one_of`).
    CountIsOne { start: u32, len: u32 },
    /// Negate the top of stack.
    Not,
    /// Pop `n`, push their conjunction.
    And(u32),
    /// Pop `n`, push their disjunction.
    Or(u32),
    /// Pop `n`, push their parity.
    Xor(u32),
    /// Pop `n`, push `true` iff exactly one was true.
    ExactlyOne(u32),
    /// Pop `b` then `a`, push `!a || b`.
    Implies,
    /// Pop `b` then `a`, push `a == b`.
    Iff,
}

/// Evaluation stacks rarely exceed a handful of slots; programs up to this
/// depth evaluate on a fixed stack with no allocation.
const INLINE_STACK: usize = 32;

/// One predicate, lowered to a flat postfix program plus its support list.
#[derive(Debug, Clone)]
pub struct CompiledExpr {
    ops: Vec<Op>,
    /// Side table of `(word index, bit mask)` operands for the fused ops,
    /// grouped so each word appears at most once per operand range.
    masks: Vec<(u32, u64)>,
    /// Components the predicate mentions, sorted ascending. A sparse list
    /// rather than a width-wide bitset: a predicate mentions a handful of
    /// components however wide the world is, so compiling 100k predicates
    /// stays linear in the invariant text, not quadratic in the width.
    support: Vec<CompId>,
    /// Deepest evaluation stack the program can reach.
    max_stack: usize,
}

impl CompiledExpr {
    /// Lowers `expr` for configurations of width `width`.
    ///
    /// # Panics
    ///
    /// Panics if the expression mentions a component index `>= width`.
    pub fn compile(expr: &Expr, width: usize) -> Self {
        let mut c =
            CompiledExpr { ops: Vec::new(), masks: Vec::new(), support: Vec::new(), max_stack: 0 };
        let mut depth = 0usize;
        c.lower(expr, width, &mut depth);
        debug_assert_eq!(depth, 1, "a program must leave exactly one result");
        c.support.sort_unstable();
        c.support.dedup();
        c
    }

    /// The components this predicate mentions, ascending.
    pub fn support(&self) -> &[CompId] {
        &self.support
    }

    /// True when the predicate mentions no component of `touched`.
    fn disjoint_from(&self, touched: &Config) -> bool {
        self.support.iter().all(|&c| !touched.contains(c))
    }

    fn push_op(&mut self, op: Op, pops: usize, depth: &mut usize) {
        debug_assert!(*depth >= pops, "postfix underflow");
        *depth = *depth - pops + 1;
        self.max_stack = self.max_stack.max(*depth);
        self.ops.push(op);
    }

    /// Emits the `(word, mask)` range for a list of variable ids, one table
    /// entry per distinct word, and returns `(start, len)`.
    fn mask_range(&mut self, ids: &[CompId]) -> (u32, u32) {
        let start = self.masks.len() as u32;
        let mut per_word: Vec<(u32, u64)> = Vec::new();
        for id in ids {
            let (w, m) = (id.index() / 64, 1u64 << (id.index() % 64));
            match per_word.iter_mut().find(|(pw, _)| *pw == w as u32) {
                Some((_, pm)) => *pm |= m,
                None => per_word.push((w as u32, m)),
            }
        }
        let len = per_word.len() as u32;
        self.masks.extend(per_word);
        (start, len)
    }

    fn record_var(&mut self, id: CompId, width: usize) {
        assert!(id.index() < width, "component {} out of range (width {width})", id.index());
        self.support.push(id);
    }

    /// If every element of `es` is a plain variable and no variable
    /// repeats, returns their ids. A repeated operand counts twice under
    /// `^` and `one_of` but owns one mask bit, so it takes the general ops.
    fn distinct_vars(es: &[Expr]) -> Option<Vec<CompId>> {
        let ids: Vec<CompId> = es
            .iter()
            .map(|e| match e {
                Expr::Var(id) => Some(*id),
                _ => None,
            })
            .collect::<Option<_>>()?;
        let repeats = ids.iter().enumerate().any(|(i, id)| ids[..i].contains(id));
        (!repeats).then_some(ids)
    }

    fn lower(&mut self, expr: &Expr, width: usize, depth: &mut usize) {
        match expr {
            Expr::Const(b) => self.push_op(Op::Const(*b), 0, depth),
            Expr::Var(id) => {
                self.record_var(*id, width);
                let op =
                    Op::Bit { word: (id.index() / 64) as u32, mask: 1u64 << (id.index() % 64) };
                self.push_op(op, 0, depth);
            }
            Expr::Not(e) => {
                self.lower(e, width, depth);
                self.push_op(Op::Not, 1, depth);
            }
            Expr::And(es) | Expr::Or(es) | Expr::Xor(es) | Expr::ExactlyOne(es) => {
                if let Some(ids) = Self::distinct_vars(es) {
                    for &id in &ids {
                        self.record_var(id, width);
                    }
                    let (start, len) = self.mask_range(&ids);
                    let op = match expr {
                        Expr::And(_) => Op::AllSet { start, len },
                        Expr::Or(_) => Op::AnySet { start, len },
                        Expr::Xor(_) => Op::ParityOdd { start, len },
                        _ => Op::CountIsOne { start, len },
                    };
                    self.push_op(op, 0, depth);
                } else {
                    for e in es {
                        self.lower(e, width, depth);
                    }
                    let n = es.len() as u32;
                    let op = match expr {
                        Expr::And(_) => Op::And(n),
                        Expr::Or(_) => Op::Or(n),
                        Expr::Xor(_) => Op::Xor(n),
                        _ => Op::ExactlyOne(n),
                    };
                    self.push_op(op, es.len(), depth);
                }
            }
            Expr::Implies(a, b) => {
                self.lower(a, width, depth);
                self.lower(b, width, depth);
                self.push_op(Op::Implies, 2, depth);
            }
            Expr::Iff(a, b) => {
                self.lower(a, width, depth);
                self.lower(b, width, depth);
                self.push_op(Op::Iff, 2, depth);
            }
        }
    }

    /// Evaluates the program against `cfg` (same semantics as
    /// [`Expr::eval`] on the source expression).
    pub fn eval(&self, cfg: &Config) -> bool {
        if self.max_stack <= INLINE_STACK {
            self.eval_on(&mut [false; INLINE_STACK], cfg)
        } else {
            self.eval_on(&mut vec![false; self.max_stack], cfg)
        }
    }

    fn eval_on(&self, stack: &mut [bool], cfg: &Config) -> bool {
        let words = cfg.words();
        let mut sp = 0usize;
        for op in &self.ops {
            match *op {
                Op::Const(b) => {
                    stack[sp] = b;
                    sp += 1;
                }
                Op::Bit { word, mask } => {
                    stack[sp] = words[word as usize] & mask != 0;
                    sp += 1;
                }
                Op::AllSet { start, len } => {
                    let range = &self.masks[start as usize..(start + len) as usize];
                    stack[sp] = range.iter().all(|&(w, m)| words[w as usize] & m == m);
                    sp += 1;
                }
                Op::AnySet { start, len } => {
                    let range = &self.masks[start as usize..(start + len) as usize];
                    stack[sp] = range.iter().any(|&(w, m)| words[w as usize] & m != 0);
                    sp += 1;
                }
                Op::ParityOdd { start, len } => {
                    let range = &self.masks[start as usize..(start + len) as usize];
                    let count: u32 =
                        range.iter().map(|&(w, m)| (words[w as usize] & m).count_ones()).sum();
                    stack[sp] = count % 2 == 1;
                    sp += 1;
                }
                Op::CountIsOne { start, len } => {
                    let range = &self.masks[start as usize..(start + len) as usize];
                    let count: u32 =
                        range.iter().map(|&(w, m)| (words[w as usize] & m).count_ones()).sum();
                    stack[sp] = count == 1;
                    sp += 1;
                }
                Op::Not => stack[sp - 1] = !stack[sp - 1],
                Op::And(n) => {
                    let n = n as usize;
                    let v = stack[sp - n..sp].iter().all(|&b| b);
                    sp -= n;
                    stack[sp] = v;
                    sp += 1;
                }
                Op::Or(n) => {
                    let n = n as usize;
                    let v = stack[sp - n..sp].iter().any(|&b| b);
                    sp -= n;
                    stack[sp] = v;
                    sp += 1;
                }
                Op::Xor(n) => {
                    let n = n as usize;
                    let v = stack[sp - n..sp].iter().filter(|&&b| b).count() % 2 == 1;
                    sp -= n;
                    stack[sp] = v;
                    sp += 1;
                }
                Op::ExactlyOne(n) => {
                    let n = n as usize;
                    let v = stack[sp - n..sp].iter().filter(|&&b| b).count() == 1;
                    sp -= n;
                    stack[sp] = v;
                    sp += 1;
                }
                Op::Implies => {
                    let b = stack[sp - 1];
                    let a = stack[sp - 2];
                    sp -= 2;
                    stack[sp] = !a || b;
                    sp += 1;
                }
                Op::Iff => {
                    let b = stack[sp - 1];
                    let a = stack[sp - 2];
                    sp -= 2;
                    stack[sp] = a == b;
                    sp += 1;
                }
            }
        }
        debug_assert_eq!(sp, 1);
        stack[0]
    }
}

/// An [`InvariantSet`] compiled for one configuration width: the flat
/// programs plus the support-indexed incremental check.
#[derive(Debug, Clone)]
pub struct CompiledInvariants {
    preds: Vec<CompiledExpr>,
    /// Inverted support index: `by_comp[c]` lists (ascending) the predicate
    /// indices whose support mentions component `c`. Lets scope-sized
    /// queries find their predicates without scanning the whole set.
    by_comp: Vec<Vec<u32>>,
    width: usize,
}

impl CompiledInvariants {
    /// Compiles every predicate of `set` for width `width`.
    pub fn compile(set: &InvariantSet, width: usize) -> Self {
        let preds: Vec<CompiledExpr> =
            set.exprs().iter().map(|e| CompiledExpr::compile(e, width)).collect();
        let mut by_comp = vec![Vec::new(); width];
        for (ix, p) in preds.iter().enumerate() {
            for &c in &p.support {
                by_comp[c.index()].push(ix as u32);
            }
        }
        CompiledInvariants { preds, by_comp, width }
    }

    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// True when the set is empty (always satisfied).
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// The configuration width the kernels were compiled for.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The compiled predicates, in [`InvariantSet::exprs`] order.
    pub fn preds(&self) -> &[CompiledExpr] {
        &self.preds
    }

    /// Evaluates predicate `ix` alone.
    pub fn eval_pred(&self, ix: usize, cfg: &Config) -> bool {
        self.preds[ix].eval(cfg)
    }

    /// Full check: every predicate holds on `cfg` (kernel equivalent of
    /// [`InvariantSet::satisfied_by`]).
    pub fn satisfied_by(&self, cfg: &Config) -> bool {
        self.preds.iter().all(|p| p.eval(cfg))
    }

    /// Full check that also counts individual predicate evaluations into
    /// `evals` (short-circuiting counts only what actually ran).
    pub fn satisfied_by_counting(&self, cfg: &Config, evals: &mut u64) -> bool {
        for p in &self.preds {
            *evals += 1;
            if !p.eval(cfg) {
                return false;
            }
        }
        true
    }

    /// Incremental check: given that `cfg`'s predecessor (differing from
    /// `cfg` only in components of `touched`) satisfied every predicate,
    /// `cfg` satisfies every predicate iff the ones whose support intersects
    /// `touched` still hold — untouched predicates see unchanged inputs.
    pub fn still_satisfied_after(&self, cfg: &Config, touched: &Config) -> bool {
        self.preds.iter().all(|p| p.disjoint_from(touched) || p.eval(cfg))
    }

    /// Counting variant of [`CompiledInvariants::still_satisfied_after`].
    pub fn still_satisfied_after_counting(
        &self,
        cfg: &Config,
        touched: &Config,
        evals: &mut u64,
    ) -> bool {
        for p in &self.preds {
            if p.disjoint_from(touched) {
                continue;
            }
            *evals += 1;
            if !p.eval(cfg) {
                return false;
            }
        }
        true
    }

    /// Indices of predicates whose support intersects `touched` — the exact
    /// set an incremental check re-evaluates. Planners precompute this per
    /// action so the per-candidate loop touches no other predicate.
    pub fn affected_by(&self, touched: &Config) -> Vec<u32> {
        self.preds
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.disjoint_from(touched))
            .map(|(ix, _)| ix as u32)
            .collect()
    }

    /// [`CompiledInvariants::affected_by`] for a sparse touched list: the
    /// same indices in the same ascending order, found through the inverted
    /// support index in O(touched × preds-per-comp) instead of O(preds).
    pub fn affected_by_ids(&self, touched: &[CompId]) -> Vec<u32> {
        let mut out: Vec<u32> =
            touched.iter().flat_map(|&c| self.by_comp[c.index()].iter().copied()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Predicate indices mentioning component `c`, ascending.
    pub fn preds_of_comp(&self, c: CompId) -> &[u32] {
        &self.by_comp[c.index()]
    }
}

impl InvariantSet {
    /// Compiles the set's predicates into word-wise kernels with support
    /// masks for configurations of width `width`.
    pub fn compile(&self, width: usize) -> CompiledInvariants {
        CompiledInvariants::compile(self, width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Universe;

    fn u(names: usize) -> Universe {
        let mut u = Universe::new();
        for i in 0..names {
            u.intern(&format!("C{i}"));
        }
        u
    }

    /// Every width-`n` configuration, for exhaustive oracle comparison.
    fn all_configs(n: usize) -> Vec<Config> {
        (0u32..1 << n)
            .map(|bits| {
                let mut c = Config::empty(n);
                for i in 0..n {
                    if bits & (1 << i) != 0 {
                        c.insert(CompId::from_index(i));
                    }
                }
                c
            })
            .collect()
    }

    #[test]
    fn fused_ops_match_tree_walk_exhaustively() {
        let mut universe = u(4);
        let exprs = [
            "one_of(C0, C1, C2)",
            "(C0 & C1 & C2)",
            "(C0 | C3)",
            "(C0 ^ C1 ^ C3)",
            "(C0 => (C1 & C2))",
            "(!C0 <=> one_of(C1, C2, C3))",
            "(C0 => false)",
            "one_of(C0, (C1 & C2), C3)",
            "one_of(C0, C0, C1)",
            "(C2 ^ C2 ^ C3)",
            "(C1 & C1)",
        ];
        let inv = InvariantSet::parse(&exprs, &mut universe).unwrap();
        for (e, c) in inv.exprs().iter().zip(inv.compile(4).preds()) {
            for cfg in all_configs(4) {
                assert_eq!(c.eval(&cfg), e.eval(&cfg), "{e} on {cfg}");
            }
        }
    }

    #[test]
    fn empty_operand_lists_keep_identity_semantics() {
        let cfg = Config::empty(1);
        for (expr, want) in [
            (Expr::and(vec![]), true),
            (Expr::or(vec![]), false),
            (Expr::xor(vec![]), false),
            (Expr::exactly_one(vec![]), false),
        ] {
            assert_eq!(CompiledExpr::compile(&expr, 1).eval(&cfg), want, "{expr}");
        }
    }

    #[test]
    fn support_is_the_mentioned_components() {
        let mut universe = u(5);
        let inv = InvariantSet::parse(&["(C1 => one_of(C3, C4))"], &mut universe).unwrap();
        let compiled = inv.compile(5);
        let support = compiled.preds()[0].support();
        let members: Vec<usize> = support.iter().map(|id| id.index()).collect();
        assert_eq!(members, vec![1, 3, 4]);
        assert_eq!(compiled.preds_of_comp(CompId::from_index(3)), &[0]);
        assert_eq!(compiled.preds_of_comp(CompId::from_index(0)), &[] as &[u32]);
        assert_eq!(
            compiled.affected_by_ids(&[CompId::from_index(1), CompId::from_index(0)]),
            vec![0]
        );
    }

    #[test]
    fn one_of_spans_word_boundaries() {
        let mut universe = u(130);
        let inv = InvariantSet::parse(&["one_of(C3, C70, C129)"], &mut universe).unwrap();
        let compiled = inv.compile(130);
        let mut cfg = Config::empty(130);
        cfg.insert(CompId::from_index(70));
        assert!(compiled.satisfied_by(&cfg));
        cfg.insert(CompId::from_index(129));
        assert!(!compiled.satisfied_by(&cfg), "two of three set");
        cfg.remove(CompId::from_index(70));
        cfg.remove(CompId::from_index(129));
        assert!(!compiled.satisfied_by(&cfg), "none set");
    }

    #[test]
    fn incremental_check_skips_disjoint_predicates() {
        let mut universe = u(6);
        let inv = InvariantSet::parse(
            &["one_of(C0, C1)", "one_of(C2, C3)", "one_of(C4, C5)"],
            &mut universe,
        )
        .unwrap();
        let compiled = inv.compile(6);
        let cfg = universe.config_of(&["C0", "C2", "C4"]);
        assert!(compiled.satisfied_by(&cfg));

        // Flip the first group: C0 -> C1. Touched = {C0, C1}.
        let mut next = cfg.clone();
        next.remove(CompId::from_index(0));
        next.insert(CompId::from_index(1));
        let touched = universe.config_of(&["C0", "C1"]);
        let mut evals = 0;
        assert!(compiled.still_satisfied_after_counting(&next, &touched, &mut evals));
        assert_eq!(evals, 1, "only the touched group's predicate re-evaluates");
        assert_eq!(compiled.affected_by(&touched), vec![0]);

        // A bad flip (adding C1 without removing C0) is caught.
        let mut bad = cfg.clone();
        bad.insert(CompId::from_index(1));
        assert!(!compiled.still_satisfied_after(&bad, &touched));
    }

    #[test]
    fn deep_programs_fall_back_to_heap_stack() {
        // Right-nested conjunctions hold one pending operand per level, so
        // the evaluation stack outgrows the inline bound.
        let mut e = Expr::var(CompId::from_index(0));
        for _ in 0..2 * INLINE_STACK {
            e = Expr::and(vec![Expr::Const(true), e]);
        }
        let c = CompiledExpr::compile(&e, 1);
        assert!(c.max_stack > INLINE_STACK, "nesting grows the stack");
        let mut cfg = Config::empty(1);
        assert!(!c.eval(&cfg));
        cfg.insert(CompId::from_index(0));
        assert!(c.eval(&cfg));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn compiling_past_the_width_panics() {
        CompiledExpr::compile(&Expr::var(CompId::from_index(7)), 4);
    }
}
