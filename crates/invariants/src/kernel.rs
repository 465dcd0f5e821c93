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
//!
//! A compiled set is a handful of flat tables, whatever the number of
//! predicates: one `ops` table holding every program back to back, one
//! `masks` table for the fused ops' operands, a fixed-size header per
//! predicate (where its program sits, how deep its stack goes), and two
//! [`Csr`]s — predicate → support and its inverse, component → predicates.
//! There is one lowering and one evaluator ([`Program`]); [`CompiledExpr`]
//! is their one-predicate case over tables of its own.

use crate::config::{CompId, Config};
use crate::csr::Csr;
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

/// A count or table position inside a compiled program.
fn u32_of(n: usize) -> u32 {
    u32::try_from(n).expect("compiled invariant tables are indexed by u32")
}

/// The one lowering: appends an expression's postfix program to `ops`, the
/// operands of its fused ops to `masks` and every component it mentions to
/// `support` (unsorted, repeats included). The tables are the caller's —
/// one predicate's own ([`CompiledExpr`]) or a whole set's shared ones
/// ([`CompiledInvariants`]); fused ops address `masks` by absolute position
/// either way.
struct Lowering<'t> {
    ops: &'t mut Vec<Op>,
    masks: &'t mut Vec<(u32, u64)>,
    support: &'t mut Vec<CompId>,
    width: usize,
    depth: usize,
    /// Deepest evaluation stack the program can reach.
    max_stack: usize,
}

impl Lowering<'_> {
    fn push_op(&mut self, op: Op, pops: usize) {
        debug_assert!(self.depth >= pops, "postfix underflow");
        self.depth = self.depth - pops + 1;
        self.max_stack = self.max_stack.max(self.depth);
        self.ops.push(op);
    }

    fn record_var(&mut self, id: CompId) -> (u32, u64) {
        let width = self.width;
        assert!(id.index() < width, "component {} out of range (width {width})", id.index());
        self.support.push(id);
        (u32_of(id.index() / 64), 1u64 << (id.index() % 64))
    }

    /// The plain variable behind `e`, if it is one.
    fn var(e: &Expr) -> Option<CompId> {
        match e {
            Expr::Var(id) => Some(*id),
            _ => None,
        }
    }

    /// True when every element of `es` is a plain variable and no variable
    /// repeats. A repeated operand counts twice under `^` and `one_of` but
    /// owns one mask bit, so it takes the general ops.
    fn distinct_vars(es: &[Expr]) -> bool {
        es.iter().enumerate().all(|(i, e)| {
            Self::var(e).is_some_and(|id| es[..i].iter().all(|seen| Self::var(seen) != Some(id)))
        })
    }

    /// Emits the `(word, mask)` range for a list of distinct variables, one
    /// table entry per distinct word, and returns `(start, len)`.
    fn mask_range(&mut self, vars: &[Expr]) -> (u32, u32) {
        let start = self.masks.len();
        for id in vars.iter().filter_map(Self::var) {
            let (w, m) = self.record_var(id);
            match self.masks[start..].iter_mut().find(|(pw, _)| *pw == w) {
                Some((_, pm)) => *pm |= m,
                None => self.masks.push((w, m)),
            }
        }
        (u32_of(start), u32_of(self.masks.len() - start))
    }

    fn lower(&mut self, expr: &Expr) {
        match expr {
            Expr::Const(b) => self.push_op(Op::Const(*b), 0),
            Expr::Var(id) => {
                let (word, mask) = self.record_var(*id);
                self.push_op(Op::Bit { word, mask }, 0);
            }
            Expr::Not(e) => {
                self.lower(e);
                self.push_op(Op::Not, 1);
            }
            Expr::And(es) | Expr::Or(es) | Expr::Xor(es) | Expr::ExactlyOne(es) => {
                if Self::distinct_vars(es) {
                    let (start, len) = self.mask_range(es);
                    let op = match expr {
                        Expr::And(_) => Op::AllSet { start, len },
                        Expr::Or(_) => Op::AnySet { start, len },
                        Expr::Xor(_) => Op::ParityOdd { start, len },
                        _ => Op::CountIsOne { start, len },
                    };
                    self.push_op(op, 0);
                } else {
                    for e in es {
                        self.lower(e);
                    }
                    let n = u32_of(es.len());
                    let op = match expr {
                        Expr::And(_) => Op::And(n),
                        Expr::Or(_) => Op::Or(n),
                        Expr::Xor(_) => Op::Xor(n),
                        _ => Op::ExactlyOne(n),
                    };
                    self.push_op(op, es.len());
                }
            }
            Expr::Implies(a, b) => {
                self.lower(a);
                self.lower(b);
                self.push_op(Op::Implies, 2);
            }
            Expr::Iff(a, b) => {
                self.lower(a);
                self.lower(b);
                self.push_op(Op::Iff, 2);
            }
        }
    }
}

/// Lowers `expr` onto the ends of `ops` and `masks`, fills the empty
/// `support` with the components it mentions (ascending, each once), and
/// returns the program's stack depth.
fn lower_onto(
    expr: &Expr,
    width: usize,
    ops: &mut Vec<Op>,
    masks: &mut Vec<(u32, u64)>,
    support: &mut Vec<CompId>,
) -> usize {
    debug_assert!(support.is_empty(), "one predicate's support at a time");
    let mut l = Lowering { ops, masks, support, width, depth: 0, max_stack: 0 };
    l.lower(expr);
    debug_assert_eq!(l.depth, 1, "a program must leave exactly one result");
    let max_stack = l.max_stack;
    support.sort_unstable();
    support.dedup();
    max_stack
}

/// One postfix program, wherever its tables live: the `ops` to run, the
/// mask table its fused ops address by absolute position, and the deepest
/// evaluation stack it reaches. The one evaluator, for a predicate on its
/// own ([`CompiledExpr`]) and for one inside a set ([`CompiledInvariants`]).
#[derive(Debug, Clone, Copy)]
struct Program<'t> {
    ops: &'t [Op],
    masks: &'t [(u32, u64)],
    max_stack: usize,
}

impl Program<'_> {
    /// Evaluates the program against `cfg` (same semantics as
    /// [`Expr::eval`] on the source expression).
    #[inline]
    fn eval(&self, cfg: &Config) -> bool {
        if self.max_stack <= INLINE_STACK {
            self.eval_on(&mut [false; INLINE_STACK], cfg)
        } else {
            self.eval_on(&mut vec![false; self.max_stack], cfg)
        }
    }

    /// One slice to index when the configuration has one, its chunks
    /// otherwise: the layout is decided here, once per evaluation.
    fn eval_on(&self, stack: &mut [bool], cfg: &Config) -> bool {
        match cfg.flat_words() {
            Some(words) => self.run(stack, |w| words[w as usize]),
            None => self.run(stack, |w| cfg.word(w as usize)),
        }
    }

    fn run(&self, stack: &mut [bool], read: impl Fn(u32) -> u64) -> bool {
        let mut sp = 0usize;
        for op in self.ops {
            match *op {
                Op::Const(b) => {
                    stack[sp] = b;
                    sp += 1;
                }
                Op::Bit { word, mask } => {
                    stack[sp] = read(word) & mask != 0;
                    sp += 1;
                }
                Op::AllSet { start, len } => {
                    let range = &self.masks[start as usize..(start + len) as usize];
                    stack[sp] = range.iter().all(|&(w, m)| read(w) & m == m);
                    sp += 1;
                }
                Op::AnySet { start, len } => {
                    let range = &self.masks[start as usize..(start + len) as usize];
                    stack[sp] = range.iter().any(|&(w, m)| read(w) & m != 0);
                    sp += 1;
                }
                Op::ParityOdd { start, len } => {
                    let range = &self.masks[start as usize..(start + len) as usize];
                    let count: u32 = range.iter().map(|&(w, m)| (read(w) & m).count_ones()).sum();
                    stack[sp] = count % 2 == 1;
                    sp += 1;
                }
                Op::CountIsOne { start, len } => {
                    let range = &self.masks[start as usize..(start + len) as usize];
                    let count: u32 = range.iter().map(|&(w, m)| (read(w) & m).count_ones()).sum();
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

/// One predicate on its own: the one-predicate case of the lowering and the
/// evaluator behind [`CompiledInvariants`], over tables it owns.
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
    max_stack: usize,
}

impl CompiledExpr {
    /// Lowers `expr` for configurations of width `width`.
    ///
    /// # Panics
    ///
    /// Panics if the expression mentions a component index `>= width`.
    pub fn compile(expr: &Expr, width: usize) -> Self {
        let (mut ops, mut masks, mut support) = (Vec::new(), Vec::new(), Vec::new());
        let max_stack = lower_onto(expr, width, &mut ops, &mut masks, &mut support);
        CompiledExpr { ops, masks, support, max_stack }
    }

    /// The components this predicate mentions, ascending.
    pub fn support(&self) -> &[CompId] {
        &self.support
    }

    /// Evaluates the program against `cfg` (same semantics as
    /// [`Expr::eval`] on the source expression).
    pub fn eval(&self, cfg: &Config) -> bool {
        Program { ops: &self.ops, masks: &self.masks, max_stack: self.max_stack }.eval(cfg)
    }
}

/// Where one predicate's program sits in the shared `ops` table, and how
/// deep an evaluation stack it needs.
#[derive(Debug, Clone, Copy)]
struct Pred {
    ops_start: u32,
    ops_end: u32,
    max_stack: u32,
}

/// An [`InvariantSet`] compiled for one configuration width, as flat
/// tables: every predicate's program in one `ops` table and every fused
/// operand in one `masks` table, a fixed-size header per predicate, the
/// supports and their inverse as two [`Csr`]s. Compiling a set allocates
/// these tables and nothing per predicate; dropping it frees them and
/// nothing per predicate.
#[derive(Debug, Clone)]
pub struct CompiledInvariants {
    /// Every predicate's postfix program, back to back.
    ops: Vec<Op>,
    /// The fused ops' `(word, mask)` operands, addressed by absolute
    /// position from any program.
    masks: Vec<(u32, u64)>,
    /// Per predicate, in [`InvariantSet::exprs`] order.
    preds: Vec<Pred>,
    /// Row `p`: the components predicate `p` mentions, ascending.
    support: Csr<CompId>,
    /// Inverted support index: row `c` lists (ascending) the predicate
    /// indices whose support mentions component `c`. Lets scope-sized
    /// queries find their predicates without scanning the whole set.
    by_comp: Csr<u32>,
    width: usize,
}

impl CompiledInvariants {
    /// Compiles every predicate of `set` for width `width`.
    pub fn compile(set: &InvariantSet, width: usize) -> Self {
        let n = set.exprs().len();
        let (mut ops, mut masks) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut preds = Vec::with_capacity(n);
        let mut support = Csr::with_capacity(n, 2 * n);
        // Programs and masks go straight onto the shared tables; one
        // reused buffer sorts each support list on its way to its row.
        let mut mentioned = Vec::new();
        for e in set.exprs() {
            let ops_start = u32_of(ops.len());
            let max_stack = u32_of(lower_onto(e, width, &mut ops, &mut masks, &mut mentioned));
            preds.push(Pred { ops_start, ops_end: u32_of(ops.len()), max_stack });
            support.push_row(mentioned.drain(..));
        }
        let by_comp = Csr::from_pairs(
            width,
            support
                .iter()
                .enumerate()
                .flat_map(|(p, cs)| cs.iter().map(move |c| (c.index(), u32_of(p)))),
        );
        CompiledInvariants { ops, masks, preds, support, by_comp, width }
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

    /// The components predicate `ix` mentions, ascending
    /// ([`InvariantSet::exprs`] order).
    pub fn support_of(&self, ix: usize) -> &[CompId] {
        self.support.row(ix)
    }

    /// Evaluates predicate `ix` alone.
    pub fn eval_pred(&self, ix: usize, cfg: &Config) -> bool {
        let p = self.preds[ix];
        let ops = &self.ops[p.ops_start as usize..p.ops_end as usize];
        Program { ops, masks: &self.masks, max_stack: p.max_stack as usize }.eval(cfg)
    }

    /// True when predicate `ix` mentions no component of `touched`.
    fn disjoint_from(&self, ix: usize, touched: &Config) -> bool {
        self.support.row(ix).iter().all(|&c| !touched.contains(c))
    }

    /// Full check: every predicate holds on `cfg` (kernel equivalent of
    /// [`InvariantSet::satisfied_by`]).
    pub fn satisfied_by(&self, cfg: &Config) -> bool {
        (0..self.len()).all(|ix| self.eval_pred(ix, cfg))
    }

    /// Full check that also counts individual predicate evaluations into
    /// `evals` (short-circuiting counts only what actually ran).
    pub fn satisfied_by_counting(&self, cfg: &Config, evals: &mut u64) -> bool {
        for ix in 0..self.len() {
            *evals += 1;
            if !self.eval_pred(ix, cfg) {
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
        (0..self.len()).all(|ix| self.disjoint_from(ix, touched) || self.eval_pred(ix, cfg))
    }

    /// Counting variant of [`CompiledInvariants::still_satisfied_after`].
    pub fn still_satisfied_after_counting(
        &self,
        cfg: &Config,
        touched: &Config,
        evals: &mut u64,
    ) -> bool {
        for ix in 0..self.len() {
            if self.disjoint_from(ix, touched) {
                continue;
            }
            *evals += 1;
            if !self.eval_pred(ix, cfg) {
                return false;
            }
        }
        true
    }

    /// Indices of predicates whose support intersects `touched` — the exact
    /// set an incremental check re-evaluates. Planners precompute this per
    /// action so the per-candidate loop touches no other predicate.
    pub fn affected_by(&self, touched: &Config) -> Vec<u32> {
        (0..self.len()).filter(|&ix| !self.disjoint_from(ix, touched)).map(u32_of).collect()
    }

    /// [`CompiledInvariants::affected_by`] for a sparse touched list: the
    /// same indices in the same ascending order, found through the inverted
    /// support index in O(touched × preds-per-comp) instead of O(preds).
    pub fn affected_by_ids(&self, touched: &[CompId]) -> Vec<u32> {
        let mut out = Vec::new();
        self.affected_by_ids_into(touched, &mut out);
        out
    }

    /// [`CompiledInvariants::affected_by_ids`] into a caller-owned buffer
    /// (cleared first), for builders that ask once per action.
    pub fn affected_by_ids_into(&self, touched: &[CompId], out: &mut Vec<u32>) {
        out.clear();
        for c in touched {
            out.extend_from_slice(self.by_comp.row(c.index()));
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Predicate indices mentioning component `c`, ascending.
    pub fn preds_of_comp(&self, c: CompId) -> &[u32] {
        self.by_comp.row(c.index())
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
        let compiled = inv.compile(4);
        for (ix, e) in inv.exprs().iter().enumerate() {
            for cfg in all_configs(4) {
                assert_eq!(compiled.eval_pred(ix, &cfg), e.eval(&cfg), "{e} on {cfg}");
                assert_eq!(CompiledExpr::compile(e, 4).eval(&cfg), e.eval(&cfg), "{e} on {cfg}");
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
        let support = compiled.support_of(0);
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
