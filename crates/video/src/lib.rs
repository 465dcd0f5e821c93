//! # sada-video — the Figure 3 video multicasting application
//!
//! The DSN 2004 case study: a video server multicasts an encrypted stream
//! to a hand-held and a laptop client through MetaSocket filter chains, and
//! the system is hardened from DES-64 to DES-128 at runtime by the safe
//! adaptation process.
//!
//! * `FrameSource` / `fragment` / `PlayerSink` — synthetic capture,
//!   MTU fragmentation with per-frame CRC-32 (`crc32`, from scratch), and
//!   the player with corruption statistics.
//! * [`ServerActor`] / [`ClientActor`] — the three processes, each
//!   embedding a `sada-proto` agent that blocks, drains, and recomposes its
//!   filter chain on the manager's command.
//! * [`run_video_scenario`] — one-call runs of the whole world under the
//!   safe protocol, a naive hot-swap baseline, or a Kramer–Magee-style
//!   quiescence baseline, each independently audited by
//!   [`sada_model::SafetyAuditor`].
//!
//! ```
//! use sada_video::{run_video_scenario, ScenarioConfig, Strategy};
//!
//! let report = run_video_scenario(&ScenarioConfig::default(), Strategy::Safe);
//! assert!(report.outcome.as_ref().unwrap().success);
//! assert_eq!(report.corrupted_packets(), 0);
//! ```

mod actors;
mod audit_log;
pub mod catalog;
mod crc;
mod fec_scenario;
mod frame;
mod monitor;
#[cfg(test)]
mod pins;
mod scenario;

pub use actors::{AppMsg, ClientActor, CtlMsg, ServerActor, ServerStats, VideoWire};
pub use audit_log::AuditShared;
pub use fec_scenario::{fec_spec, run_fec_scenario, FecReport, FecScenarioConfig};
pub use frame::PlayerStats;
pub use scenario::{run_video_scenario, run_video_with, ScenarioConfig, Strategy, VideoReport};
