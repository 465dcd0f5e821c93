//! # sada-tl — temporal-logic runtime monitoring for safe states
//!
//! The paper's Section 7 sketches its most concrete future-work item:
//!
//! > "One promising approach is to use a temporal logic formula to specify
//! > the set of critical communication segments of a component. The
//! > run-time component states can be monitored and the formula can then be
//! > dynamically evaluated. If all the obligations of the formula are
//! > fulfilled in a state, then the state can be automatically identified
//! > as a safe state."
//!
//! This crate implements that approach:
//!
//! * [`Formula`] — a past-time linear temporal logic (ptLTL) over named
//!   propositions: boolean connectives plus `yesterday`, `once`,
//!   `historically`, and `since`. ptLTL is the standard choice for runtime
//!   monitoring because each step is evaluated incrementally in
//!   `O(|formula|)` with one bit of state per subformula.
//! * [`Monitor`] — the incremental evaluator.
//! * [`ResponseSpec`] / [`ObligationEvent`] — parameterized response
//!   obligations `trigger(k) ⇒ ◇ response(k)` (e.g. "every packet the
//!   encoder emits is eventually decoded"), tracking the *outstanding*
//!   obligation set per key.
//! * [`SafeStateMonitor`] — combines both: a state is **safe** when the
//!   ptLTL condition holds *and* no tracked obligation is outstanding —
//!   exactly the paper's "all obligations fulfilled" criterion.
//! * [`audit_bridge`] — derives safe points automatically from a
//!   `sada-model` audit-event stream, so the detector can be validated
//!   against the hand-written safety auditor.
//!
//! ## Example
//!
//! ```
//! use sada_tl::{Monitor, parse_formula};
//!
//! // "The decoder is idle, and there has been no error since the last reset."
//! let f = parse_formula("idle & (!error since reset)").unwrap();
//! let mut m = Monitor::new(f);
//! assert!(!m.step(&|p| p == "reset"));            // reset, but not idle
//! assert!(m.step(&|p| p == "idle"));              // idle, no error since reset
//! assert!(!m.step(&|p| p == "idle" || p == "error"));
//! assert!(!m.step(&|p| p == "idle"), "error stays remembered until next reset");
//! ```

pub mod audit_bridge;
mod formula;
mod monitor;
mod obligations;
mod parser;

pub use formula::Formula;
pub use monitor::Monitor;
pub use obligations::{ObligationEvent, ResponseSpec, SafeStateMonitor};
pub use parser::{parse_formula, TlParseError, MAX_NESTING};
