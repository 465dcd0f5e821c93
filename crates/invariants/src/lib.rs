//! # sada-expr — dependency invariants and configurations
//!
//! Implements Section 3.1 of *Enabling Safe Dynamic Component-Based Software
//! Adaptation* (DSN 2004): components, configurations, and the boolean
//! dependency-relationship language used to define **safe configurations**.
//!
//! * A [`Universe`] interns component names (`E1`, `D3`, …) to dense ids.
//! * A [`Config`] is a set of components — the paper's bit vector (Table 1
//!   prints the video case study's configurations as 7-bit vectors).
//! * An [`Expr`] is a dependency predicate over components: conjunction,
//!   disjunction, xor, negation, implication (`A -> Cond`, the paper's
//!   dependency arrow) and the paper's "exclusively select one from a given
//!   set" structural constraint ([`Expr::exactly_one`]).
//! * An [`InvariantSet`] is the conjunction *I* of all dependency predicates;
//!   a configuration satisfying *I* is a **safe configuration**.
//! * A [`CompiledInvariants`] lowers the set to flat word-wise kernels with
//!   per-predicate support masks, giving planners an incremental
//!   `still_satisfied_after_counting(cfg, touched, evals)` safety check.
//! * [`enumerate`] computes the safe-configuration set, either exhaustively
//!   or with three-valued pruning (the ablation benchmarked in
//!   `bench_enumeration`).
//!
//! ## Example: a miniature security constraint
//!
//! ```
//! use sada_expr::{Universe, InvariantSet, enumerate};
//!
//! let mut u = Universe::new();
//! let src = "one_of(E1, E2) & (E1 => D1) & (E2 => D2)";
//! let inv = InvariantSet::parse(&[src], &mut u).unwrap();
//! let safe = enumerate::safe_configs(&u, &inv);
//! // Every safe configuration has exactly one encoder with its decoder.
//! for cfg in &safe {
//!     assert!(inv.satisfied_by(cfg));
//! }
//! assert!(!safe.is_empty());
//! ```

mod config;
mod csr;
mod expr;
mod kernel;
mod parser;
mod simplify;

pub mod enumerate;

pub use config::{CompId, Config, Universe};
pub use csr::Csr;
pub use expr::{Expr, InvariantSet, PartialAssignment, Tri};
pub use kernel::{CompiledExpr, CompiledInvariants};
pub use parser::{is_component_name, parse_expr, ParseError};

#[doc(hidden)]
pub use config::oracle;
