//! # sada-core — safe dynamic component-based software adaptation
//!
//! Reproduction of *Enabling Safe Dynamic Component-Based Software
//! Adaptation* (Zhang, Cheng, Yang, McKinley — DSN 2004 / Architecting
//! Dependable Systems III). The library organizes the paper's three phases:
//!
//! 1. **Analysis phase** (development time) — [`AdaptationSpec`] bundles
//!    *P = (S, I, T, R, A)*: the component universe, dependency invariants,
//!    adaptive actions with costs, and deployment placement, written as a
//!    spec file ([`specfile`]) and compiled by [`sada_proto::SpecBuilder`].
//! 2. **Detection and setup phase** (runtime, on an adaptation request) —
//!    [`AdaptationSpec::safe_configs`] enumerates the safe configuration
//!    set, [`AdaptationSpec::build_sag`] constructs the safe adaptation
//!    graph, and [`AdaptationSpec::minimum_adaptation_path`] runs Dijkstra
//!    to obtain the MAP.
//! 3. **Realization phase** — [`run_adaptation`] drives the manager/agent
//!    protocol (`sada-proto`) over the simulated network, with rollback and
//!    re-planning under injected failures.
//!
//! The paper's video multicasting case study is the spec file
//! [`specfile::CASE_STUDY_SPEC`], compiled by [`casestudy`]; its tests pin
//! Table 1, Table 2, Figure 4, and the reported minimum adaptation path
//! (`A2, A17, A1, A16, A4`, 50 ms).
//!
//! ```
//! use sada_core::casestudy::case_study;
//!
//! let cs = case_study();
//! let map = cs.spec.minimum_adaptation_path(&cs.source, &cs.target).unwrap();
//! assert_eq!(map.cost, 50);
//! assert_eq!(map.action_ids()[0].to_string(), "A2");
//! ```

pub mod calibrate;
pub mod casestudy;
pub mod infer;
mod realize;
pub mod specfile;

pub use realize::{run_adaptation, RunConfig, RunReport};
pub use sada_proto::AdaptationSpec;
