//! # sada-model — the paper's Section 3 system formalism
//!
//! *Enabling Safe Dynamic Component-Based Software Adaptation* (DSN 2004)
//! models a component-based system as communicating components spread over
//! processes, and defines a **safe** adaptation process as one that
//!
//! 1. never violates the dependency relationships among components, and
//! 2. never interrupts a **critical communication segment** (CCS).
//!
//! This crate provides that vocabulary:
//!
//! * [`SystemModel`] — components hosted on processes, connected by directed
//!   communication channels; the processes an action touching a component
//!   set must involve.
//! * [`audit`] — an event-log checker that *independently* verifies both
//!   safety conditions over a recorded run. The protocol crate never checks
//!   itself; tests record what happened and let the auditor judge it, which
//!   is how the repository validates the paper's Section 3.3 theorem.

pub mod audit;
mod system;

pub use audit::{AuditEvent, AuditReport, SafetyAuditor, Violation, ViolationKind};
pub use system::{Channel, ProcessId, SystemModel};
