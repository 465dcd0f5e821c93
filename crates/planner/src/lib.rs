//! # sada-plan — safe adaptation graphs and minimum adaptation paths
//!
//! Implements the **detection and setup phase** of *Enabling Safe Dynamic
//! Component-Based Software Adaptation* (DSN 2004, Section 4.2):
//!
//! 1. **Construct the safe configuration set** — delegated to
//!    [`sada_expr::enumerate`].
//! 2. **Construct the safe adaptation graph (SAG)** — [`Sag::build`]: nodes
//!    are safe configurations, arcs are [`Action`]s whose source and result
//!    are both safe (the paper's Figure 4).
//! 3. **Find the minimum adaptation path (MAP)** — [`Sag::shortest_path`]
//!    (Dijkstra), plus [`Sag::k_shortest_paths`] (Yen) because the failure
//!    handler's recovery ladder needs "the second minimum adaptation path".
//!
//! The runtime plans on [`Search`] (module [`lazy`]), the paper's
//! future-work partial exploration of the implicit SAG: [`Search::plan`]
//! and [`Search::k_paths`] return eager Dijkstra's path and Yen's ranking
//! over positive costs. The eager SAG is Figure 4 and the oracle.
//!
//! The paper's Section 7 scalability remedy — decomposing components into
//! independently-adaptable **collaborative sets** — is implemented in
//! [`collab`].
//!
//! ## Example
//!
//! ```
//! use sada_expr::{InvariantSet, Universe, enumerate};
//! use sada_plan::{Action, Sag};
//!
//! let mut u = Universe::new();
//! let inv = InvariantSet::parse(&["one_of(Old, New)"], &mut u).unwrap();
//! let replace = Action::replace(0, "swap", &u.config_of(&["Old"]), &u.config_of(&["New"]), 10);
//! let safe = sada_expr::enumerate::safe_configs(&u, &inv);
//! let sag = Sag::build(safe, &[replace]);
//! let path = sag
//!     .shortest_path(&u.config_of(&["Old"]), &u.config_of(&["New"]))
//!     .expect("a one-step path exists");
//! assert_eq!(path.cost, 10);
//! assert_eq!(path.steps.len(), 1);
//! ```

mod action;
pub mod collab;
mod index;
pub mod lazy;
#[doc(hidden)]
pub mod oracle;
mod path;
mod sag;
mod yen;

pub use action::{Action, ActionId};
pub use collab::CollabIndex;
pub use index::ActionIndex;
pub use lazy::{LazyStats, Search};
pub use path::{Path, PathStep};
pub use sag::{Edge, Sag};
