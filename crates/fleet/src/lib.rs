//! # sada-fleet — the adaptation control plane
//!
//! The DSN 2004 protocol crates drive **one** adaptation at a time: a
//! manager, its agents, one plan, one journal. Real fleets adapt many
//! component groups continuously, so this crate adds the missing layer — a
//! control plane that admits *concurrent* adaptation sessions safely:
//!
//! * [`FleetWorld`] — a parameterized world of independent component
//!   clusters, each its own collaborative set (paper Section 7), hosted
//!   across agent processes so steps run real barriers. Compiled from a
//!   declarative [`WorldSpec`] — the paper's video clone, the serverless
//!   codec fleet, and the IaaS-migration domain (with an energy-cost
//!   [`Objective`]) are all instances of the same shape.
//! * [`ScopeLockManager`] — atomic all-or-nothing scope locks with
//!   priority/FIFO queueing: deadlock-free by construction (no
//!   hold-and-wait), starvation-free via shadow-set grant scans.
//! * [`ScopedLazyPlanner`] — per-session lazy planning restricted to the
//!   session's collaborative-set scope; deterministic, so post-crash
//!   journal replay re-derives identical plans.
//! * [`PlanCache`] — a fleet-wide LRU of scope-*normalized* planning
//!   instances: sessions over disjoint-but-isomorphic scopes share plans
//!   (relabeled onto local component ids), with hit/miss/evict counters on
//!   the event bus. Volatile by design — a restored control plane starts
//!   cold, keeping cached answers subordinate to the durable journal.
//! * `ControlActor` — the control plane itself: one embedded
//!   [`ManagerCore`](sada_proto::ManagerCore) per admitted session,
//!   multiplexed over a shared wire by [`SessionId`](sada_proto::SessionId)
//!   stamps, with a session-tagged write-ahead journal that restores every
//!   in-flight *and* queued session after a crash.
//! * [`run_fleet`] — the scenario driver: one control plane (every agent a
//!   member of one `CloneArena<ScriptedAgent>`, cloned when a session or a
//!   fault first touches it, plus a `ControlActor`) over
//!   hundreds of agent groups in simnet, fault schedules, and a
//!   [`FleetReport`] with one [`SessionResult`] row per session (written
//!   by the control plane where it decides), peak concurrency, and the
//!   captured event stream.
//! * [`FleetResilience`] — overload protection for the control plane:
//!   per-agent circuit breakers, bulkhead admission bounds with
//!   deterministic shedding, and fail-fast rejection of sessions scoped
//!   behind an open breaker.
//! * [`run_overload`] — the sustained-overload experiment: Poisson
//!   arrivals at multiples of the calibrated capacity
//!   ([`measure_capacity`]) against a degraded fleet, comparing the
//!   always-admit baseline with the protected configuration.
//! * [`run_fleet_sharded`] — the control plane sharded across OS threads:
//!   the same plane `run_fleet` runs, once per region (built and distilled
//!   by the same code), plus a thin global tier for scope-straddling
//!   sessions and a deterministic cross-shard fabric (conservative virtual
//!   clocks), so thread count never changes results.

mod cache;
mod control;
mod driver;
mod fabric;
mod global;
mod lock;
#[doc(hidden)]
pub mod oracle;
mod overload;
mod planner;
mod region;
mod shard;
mod world;

pub use cache::{PlanCache, PlanCacheStats, ScopeNormalizer};
pub use control::{Admission, FleetResilience, SessionSpec};
pub use driver::{disjoint_wave, run_fleet, FleetReport, FleetScenario, SessionResult};
pub use fabric::{
    encode_fabric_msg, parse_fabric_msg, FabricFaultPlan, FabricPayload, FabricStats,
};
pub use lock::ScopeLockManager;
pub use overload::{measure_capacity, run_overload, OverloadConfig, OverloadReport};
pub use planner::ScopedLazyPlanner;
pub use shard::{
    fingerprint_events, fingerprint_events_unsharded, run_fleet_sharded, ShardReport,
    ShardScenario, ShardStats,
};
pub use world::{
    ActionSpec, ClusterSpec, CompSpec, CompiledWorld, Domain, FleetWorld, Objective, SpecError,
    SpecHandle, WorldSpec,
};
