//! Overload-protection primitives for the adaptation control plane.
//!
//! The paper's convergence argument assumes the manager's retransmission
//! machinery eventually lands every phase message; under sustained load with
//! slow or flaky agents that assumption turns the fixed retry ladder into a
//! metastable-failure machine — retries amplify load exactly when capacity is
//! scarcest. This crate provides the three counter-measures, each as a pure
//! deterministic state machine driven entirely by values the caller passes in
//! (virtual time, observed samples, seeded jitter) so simulation replays stay
//! bit-identical:
//!
//! - [`RetryPolicy`] — the retransmission deadline schedule. The fixed
//!   exponential ladder (the historical 200/400/800 µs-precision constants
//!   from the protocol crate) is the default; [`RetryMode::Adaptive`] swaps
//!   the base for an RTT-derived hint while keeping the same doubling and
//!   jitter shape.
//! - [`RttEstimator`] — Jacobson/Karels srtt+rttvar over observed
//!   request→ack latency, yielding a clamped retransmission timeout.
//! - [`CircuitBreaker`] — per-agent closed/open/half-open gate with seeded
//!   half-open probing and doubled-capped cooldown, so an agent that keeps
//!   timing out stops absorbing retries.
//! - [`BulkheadConfig`] — bounds on in-flight and waiting sessions, with
//!   [`shed_victim`] picking the lowest-priority, oldest waiter to shed.
//!
//! Nothing here performs I/O or reads a clock; hosts (the protocol manager
//! actor and the fleet control actor) own the wiring.

mod breaker;
mod bulkhead;
mod retry;
mod rtt;

pub use breaker::{BreakerConfig, BreakerState, BreakerTransition, CircuitBreaker};
pub use bulkhead::{shed_victim, BulkheadConfig};
pub use retry::{jitter_us, RetryMode, RetryPolicy};
pub use rtt::RttEstimator;
