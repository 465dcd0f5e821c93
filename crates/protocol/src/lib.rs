//! # sada-proto — the safe adaptation runtime protocol
//!
//! The realization phase of *Enabling Safe Dynamic Component-Based Software
//! Adaptation* (DSN 2004, Sections 4.3–4.4): a centralized **adaptation
//! manager** coordinates per-process **agents** so that every adaptive
//! action of a planned safe adaptation path executes in its global safe
//! state, with rollback and re-planning when failures strike.
//!
//! * [`AgentCore`] — Figure 1's agent state machine
//!   (running → resetting → safe → adapted → resuming), pure and
//!   transport-free.
//! * [`ManagerCore`] — Figure 2's manager state machine, including the
//!   Section 4.4 failure ladder: retransmit on timeout; abort + rollback on
//!   loss-of-message or fail-to-reset before the first `resume`; run to
//!   completion after it; then retry the step once, try the next-cheapest
//!   path, try to return to the source configuration, and finally wait for
//!   the user.
//! * [`SearchPlanner`] — plugs the `sada-plan` lazy search and its Yen
//!   ranking into the manager's re-planning interface (no SAG is built).
//! * [`SpecBuilder`] — the one compiler of [`AdaptationSpec`] (Section 4.1)
//!   and of every fleet world's core; a bad entry is a [`SpecError`], never
//!   a panic.
//! * [`ManagerHost`] — the one host of manager cores, keyed by agent:
//!   breakers, RTT sampling, epoch fencing, the effect loop, and the
//!   retransmission ladder of its caller's tracked sends.
//! * [`AgentHost`] — the one host of an agent core: the effect loop,
//!   manager-epoch fencing, the session, and the restart with its rejoin
//!   ladder. The embedding does only the local work.
//! * [`ManagerActor`] / [`ScriptedAgent`] — simnet adapters: the manager
//!   host with one session (the video case study reuses it), and the agent
//!   host with timers standing in for a process (every fleet's agent, and
//!   the protocol tests' and benches').
//!
//! ## Crash faults and recovery
//!
//! Beyond the paper's two failure classes (loss-of-message, fail-to-reset),
//! the protocol tolerates *process crashes* injected by `sada-simnet`'s
//! fault plans. Every wire message travels as [`Wire::Proto`] stamped with
//! the sender's **epoch** (incarnation number); receivers track the highest
//! epoch per peer and discard older traffic, so pre-crash messages still in
//! flight cannot masquerade as the restarted process. A restarted agent
//! announces [`ProtoMsg::Rejoin`] carrying the last step it durably
//! completed; the manager resynchronizes it into the current phase
//! (re-`Reset` while adapting or resuming, re-`Rollback` while rolling
//! back) or — when the process stays down past the phase timeout — falls
//! back to the existing Section 4.4 ladder, treating the silence as
//! loss-of-message. Either way the Section 3.3 safety argument is
//! untouched: a crash can only *remove* uncommitted work, never produce an
//! in-action outside its safe state.
//!
//! The *manager* survives crashes too. Every decision point (request
//! accepted, path selected, step dispatched, resume issued, step committed,
//! rollback issued/complete, outcome) is written ahead of the messages it
//! covers to an **adaptation journal** ([`JournalRecord`], emitted as
//! [`ManagerEffect::Journal`]; the host picks the durability medium and the
//! text codec [`encode_journal`]/[`parse_journal`] makes it replayable).
//! After a crash, [`ManagerCore::restore`] replays the journal back to the
//! exact phase/step the dead incarnation had decided, then runs a
//! **reconciliation round**: [`ProtoMsg::QueryState`] probes every
//! participant of the in-flight step and each [`ProtoMsg::StateReport`] is
//! resolved by the paper's rule — steps unconfirmed before the first
//! `resume` are redone or rolled back, steps past it run to completion —
//! after which the restored manager (under a bumped epoch) rejoins the
//! ordinary recovery ladder.
//!
//! The paper's equivalence theorem (Section 3.3) is validated end to end:
//! integration tests record every in-action and configuration the protocol
//! produces and feed them to `sada-model`'s independent [`SafetyAuditor`];
//! a chaos sweep at the workspace root replays hundreds of random fault
//! plans against the same auditor.
//!
//! [`SafetyAuditor`]: sada_model::SafetyAuditor

mod agent;
mod agent_host;
mod host;
mod journal;
mod manager;
#[cfg(test)]
mod manager_tests;
mod messages;
mod plan_adapter;
mod relay;
mod sim;
mod spec;

pub use agent::{AgentCore, AgentEffect, AgentEvent, AgentState};
pub use agent_host::{AgentHost, Uplink};
pub use host::{hosting_run, LadderFire, ManagerHost, Roster, SessionCore};
pub use journal::{
    encode_global_journal, encode_journal, encode_session_journal, parse_global_journal,
    parse_journal, parse_session_journal, GlobalRecord, JournalRecord, SessionRecord,
};
pub use manager::{
    AdaptationPlanner, ManagerCore, ManagerEffect, ManagerEvent, ManagerPhase, Outcome,
    PlannedStep, ProtoTiming,
};
pub use messages::{LocalAction, ProtoMsg, ProtoTimer, SessionId, StepId, Wire};
pub use plan_adapter::{compile_steps, SearchPlanner};
pub use relay::RelayActor;
pub use sim::{AgentTiming, ManagerActor, ScriptedAgent};
pub use spec::{AdaptationSpec, SpecBuilder, SpecError};
// The retry/breaker policy vocabulary is owned by the resilience crate;
// re-exported here so protocol embedders configure timing from one import.
pub use sada_resilience::{BreakerConfig, RetryPolicy};
