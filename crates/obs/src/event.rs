//! The layer-tagged event taxonomy carried by the [`Bus`].
//!
//! Every observable thing the reproduction does — a message on the wire, a
//! protocol state transition, a critical-segment bracket, a temporal
//! obligation, a planner decision — is one [`Event`]: a [`SimTime`] stamp,
//! the acting process, and a typed [`Payload`]. The same stream drives the
//! safety auditor, the temporal monitor, the JSONL trace codec, and the
//! per-phase latency metrics, so there is exactly one account of what a run
//! did.
//!
//! [`Bus`]: crate::Bus

use sada_model::AuditEvent;

use crate::key::ObligationKey;
use crate::time::SimTime;

/// Sentinel actor index for events not attributable to a single simulated
/// process (e.g. harness-level audit adjudication).
pub const NO_ACTOR: u32 = u32::MAX;

/// One timestamped, attributed occurrence on the unified bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Virtual time of the occurrence.
    pub at: SimTime,
    /// Dense index of the acting process (`ActorId::index()`), or
    /// [`NO_ACTOR`] when no single process is responsible.
    pub actor: u32,
    /// Adaptation session the event belongs to, or 0 outside any session.
    /// Producers below the control plane stay session-agnostic and emit 0;
    /// the fleet layer stamps sessions via [`Bus::scoped`].
    ///
    /// [`Bus::scoped`]: crate::Bus::scoped
    pub session: u64,
    /// Shard (control-plane region) that produced the event, or 0 outside
    /// any sharded run. Producers stay shard-agnostic and emit 0; a sharded
    /// runtime hands each region a stamped bus via [`Bus::sharded`], so
    /// merged multi-shard streams remain attributable line by line.
    ///
    /// [`Bus::sharded`]: crate::Bus::sharded
    pub shard: u32,
    /// What happened, tagged by the layer that observed it.
    pub payload: Payload,
}

/// The layer-tagged body of an [`Event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Network-substrate occurrences (sends, deliveries, drops, timers,
    /// crash faults) emitted by `sada-simnet`.
    Net(NetEvent),
    /// Adaptation-protocol occurrences (state transitions, barriers,
    /// timeouts, retries, rollbacks) emitted by `sada-proto`.
    Proto(ProtoEvent),
    /// Application safety-audit occurrences (CCS brackets, in-actions,
    /// configuration snapshots) — the exact [`AuditEvent`] the safety
    /// auditor replays.
    Audit(AuditEvent),
    /// Temporal-logic occurrences (obligation open/discharge, safe points)
    /// emitted by `sada-tl`.
    Temporal(TemporalEvent),
    /// Planning decisions (path selection and exhaustion) emitted by the
    /// manager when it consults the planner.
    Plan(PlanEvent),
    /// Control-plane scheduling occurrences (session admission, queueing,
    /// cancellation, completion) emitted by `sada-fleet`.
    Fleet(FleetEvent),
}

/// What the network substrate observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetEvent {
    /// A message was handed to the network. `from`/`to` are actor indexes.
    Sent {
        /// Sending actor index.
        from: u32,
        /// Destination actor index.
        to: u32,
    },
    /// A message reached its destination actor.
    Delivered {
        /// Sending actor index.
        from: u32,
        /// Destination actor index.
        to: u32,
    },
    /// A message was destroyed (loss, partition, crash eviction, unknown
    /// destination).
    Dropped {
        /// Sending actor index.
        from: u32,
        /// Destination actor index.
        to: u32,
    },
    /// A timer armed by the event's actor fired with `tag`.
    TimerFired {
        /// The fired timer's `sada_simnet::Timer::tag`: the number its
        /// kind renders as.
        tag: u64,
    },
    /// Fault injection crashed the event's actor.
    Crashed,
    /// Fault injection restarted the event's actor.
    Restarted,
}

/// Agent-side protocol states (mirrors `sada_proto::AgentState` without a
/// dependency on the protocol crate, which sits above this one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AgentStateTag {
    /// Serving the application; no adaptation in progress.
    Running,
    /// Told to reset: driving itself toward the local safe state.
    Resetting,
    /// Locally safe; performing (or waiting out) the adaptive in-action.
    Safe,
    /// In-action done; blocked on the manager's global adapt-done barrier.
    Adapted,
    /// Resuming normal operation after the barrier.
    Resuming,
    /// Undoing a locally-applied action during recovery.
    RollingBack,
    /// Could not reach its local safe state (fail-to-reset).
    FailedReset,
}

impl AgentStateTag {
    /// Stable lowercase name (used by the JSONL codec).
    pub fn as_str(self) -> &'static str {
        match self {
            AgentStateTag::Running => "running",
            AgentStateTag::Resetting => "resetting",
            AgentStateTag::Safe => "safe",
            AgentStateTag::Adapted => "adapted",
            AgentStateTag::Resuming => "resuming",
            AgentStateTag::RollingBack => "rolling_back",
            AgentStateTag::FailedReset => "failed_reset",
        }
    }

    /// Inverse of [`AgentStateTag::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "running" => AgentStateTag::Running,
            "resetting" => AgentStateTag::Resetting,
            "safe" => AgentStateTag::Safe,
            "adapted" => AgentStateTag::Adapted,
            "resuming" => AgentStateTag::Resuming,
            "rolling_back" => AgentStateTag::RollingBack,
            "failed_reset" => AgentStateTag::FailedReset,
            _ => return None,
        })
    }
}

/// Manager-side protocol phases (mirrors `sada_proto::ManagerPhase`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ManagerPhaseTag {
    /// No adaptation in flight.
    Running,
    /// Driving a step: resets sent, waiting for the adapt-done barrier.
    Adapting,
    /// Adapt-done barrier met: resumes sent, waiting for resume-done.
    Resuming,
    /// Undoing the current step after a failure.
    RollingBack,
    /// Recovery ladder exhausted away from the source: waiting for the user.
    GaveUp,
}

impl ManagerPhaseTag {
    /// Stable lowercase name (used by the JSONL codec).
    pub fn as_str(self) -> &'static str {
        match self {
            ManagerPhaseTag::Running => "running",
            ManagerPhaseTag::Adapting => "adapting",
            ManagerPhaseTag::Resuming => "resuming",
            ManagerPhaseTag::RollingBack => "rolling_back",
            ManagerPhaseTag::GaveUp => "gave_up",
        }
    }

    /// Inverse of [`ManagerPhaseTag::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "running" => ManagerPhaseTag::Running,
            "adapting" => ManagerPhaseTag::Adapting,
            "resuming" => ManagerPhaseTag::Resuming,
            "rolling_back" => ManagerPhaseTag::RollingBack,
            "gave_up" => ManagerPhaseTag::GaveUp,
            _ => return None,
        })
    }
}

/// What the adaptation protocol observed. Steps are the raw `StepId` value;
/// agents are actor indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoEvent {
    /// An agent state machine moved between states.
    AgentState {
        /// State before the triggering event.
        from: AgentStateTag,
        /// State after.
        to: AgentStateTag,
        /// Step the agent was working on, if any.
        step: Option<u64>,
    },
    /// The manager state machine moved between phases.
    ManagerPhase {
        /// Phase before the triggering event.
        from: ManagerPhaseTag,
        /// Phase after.
        to: ManagerPhaseTag,
        /// Step in flight, if any.
        step: Option<u64>,
    },
    /// The manager opened a step and sent its resets.
    StepStarted {
        /// The step's identifier.
        step: u64,
        /// True when only one process participates.
        solo: bool,
        /// Number of participating agents.
        participants: u32,
    },
    /// All resume-dones arrived; the step's configuration became durable.
    StepCommitted {
        /// The committed step.
        step: u64,
    },
    /// A manager retry timeout fired.
    TimeoutFired {
        /// The phase the manager was in when the timer fired.
        phase: ManagerPhaseTag,
        /// Step in flight, if any.
        step: Option<u64>,
        /// Consecutive timeouts so far in this phase (1-based).
        retries: u32,
    },
    /// The manager retransmitted to lagging agents after a timeout.
    RetrySent {
        /// The step being retried.
        step: u64,
        /// How many agents were re-messaged.
        resends: u32,
    },
    /// The manager abandoned the step and ordered rollbacks.
    RollbackIssued {
        /// The step being rolled back.
        step: u64,
    },
    /// A restarted agent announced itself and the manager resynchronized it.
    RejoinReceived {
        /// The rejoining agent's actor index.
        agent: u32,
        /// The last step the agent had durably completed, if any.
        last_completed: Option<u64>,
    },
    /// The adaptation resolved (success, abort, or give-up).
    OutcomeReached {
        /// Target configuration reached.
        success: bool,
        /// Stranded at a safe intermediate configuration awaiting the user.
        gave_up: bool,
        /// Steps committed along the way.
        steps_committed: u64,
    },
    /// The manager appended a record to its write-ahead adaptation journal.
    JournalAppended {
        /// 0-based sequence number of the appended record.
        seq: u64,
    },
    /// A restarted manager incarnation rebuilt itself from its journal.
    ManagerRestored {
        /// Number of journal records replayed.
        records: u64,
        /// The phase the replay landed in.
        phase: ManagerPhaseTag,
        /// Step in flight after the replay, if any.
        step: Option<u64>,
    },
    /// The restored manager probed an agent's state during reconciliation.
    StateQueried {
        /// The probed agent's index.
        agent: u32,
    },
    /// An agent answered a reconciliation probe.
    StateReported {
        /// The reporting agent's index.
        agent: u32,
        /// Step the agent is engaged in, if any.
        engaged: Option<u64>,
        /// True when the engaged step's in-action already ran.
        adapted: bool,
        /// True when the agent failed to reset for the engaged step.
        failed: bool,
        /// Last step the agent durably completed, if any.
        last_completed: Option<u64>,
    },
}

/// What the temporal monitor observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemporalEvent {
    /// A response obligation opened (e.g. a segment started).
    ObligationOpened {
        /// The typed obligation key.
        key: ObligationKey,
        /// Correlation key (the segment's CID).
        cid: u64,
    },
    /// A response obligation was discharged (e.g. a segment ended).
    ObligationDischarged {
        /// The typed obligation key.
        key: ObligationKey,
        /// Correlation key (the segment's CID).
        cid: u64,
    },
    /// The monitor identified a safe state at audit-log index `index`.
    SafePoint {
        /// Position in the consumed event stream.
        index: u64,
    },
}

/// What the adaptation control plane's scheduler observed. These events
/// carry the session explicitly (besides the [`Event::session`] stamp) so a
/// decoded trace line is self-describing even in isolation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetEvent {
    /// An adaptation request entered the control plane and had its
    /// collaborative-set scope computed.
    SessionSubmitted {
        /// The session's identifier.
        session: u64,
        /// Number of lock resources (components + hosting agents) in scope.
        resources: u32,
    },
    /// The scope-lock manager granted the session's scope and its embedded
    /// manager core started planning/executing.
    SessionAdmitted {
        /// The session's identifier.
        session: u64,
        /// Microseconds spent queued behind conflicting sessions (0 when
        /// admitted immediately).
        queued_for: u64,
    },
    /// The session's scope conflicted with a held or earlier-queued scope;
    /// it joined the wait queue.
    SessionQueued {
        /// The session's identifier.
        session: u64,
        /// 0-based position in the wait queue at enqueue time.
        position: u32,
    },
    /// A queued session was cancelled before ever being admitted.
    SessionCancelled {
        /// The session's identifier.
        session: u64,
    },
    /// The session reached an outcome and released its scope.
    SessionDone {
        /// The session's identifier.
        session: u64,
        /// Target configuration reached.
        success: bool,
        /// Stranded at a safe intermediate configuration awaiting the user.
        gave_up: bool,
    },
    /// A restarted control plane rebuilt its sessions from the fleet
    /// journal.
    ControlRestored {
        /// In-flight sessions restored with live manager cores.
        active: u32,
        /// Queued sessions re-admitted to the wait queue.
        queued: u32,
    },
    /// A session's plan query was answered from the fleet-wide plan cache
    /// (a structurally identical scope/source/target was planned before).
    PlanCacheHit {
        /// The session whose query hit.
        session: u64,
    },
    /// A session's plan query missed the cache and was planned fresh (the
    /// result was then cached for later sessions).
    PlanCacheMiss {
        /// The session whose query missed.
        session: u64,
    },
    /// The plan cache evicted its least-recently-used entry (or was
    /// invalidated) to make room for a newer plan.
    PlanCacheEvicted {
        /// The session whose insertion (or invalidation) forced the
        /// eviction.
        session: u64,
    },
    /// The bulkhead's waiting room was full: the control plane shed a
    /// session (the lowest-priority, oldest waiter) instead of queueing
    /// without bound.
    SessionShed {
        /// The shed session's identifier.
        session: u64,
        /// Microseconds the victim had spent waiting (0 when the newcomer
        /// itself was shed on arrival).
        waited_us: u64,
        /// Backpressure hint returned to the submitter: microseconds after
        /// which a resubmission has a fair chance of being admitted (derived
        /// from the bulkhead's occupancy and observed session latency).
        retry_after_us: u64,
    },
    /// A session was admitted into a scope whose agent sits behind an open
    /// circuit breaker; rather than hanging on suppressed sends while
    /// holding its locks, the session terminated with a journaled outcome.
    SessionRejected {
        /// The rejected session's identifier.
        session: u64,
        /// Dense index of the gated agent that forced the rejection.
        agent: u32,
    },
    /// An agent's circuit breaker tripped open: it stops absorbing
    /// retransmissions until a half-open probe succeeds.
    BreakerOpened {
        /// Dense agent index within the hosting control plane.
        agent: u32,
        /// The open hold before the next probe, in microseconds (doubles,
        /// capped, on every failed probe).
        cooldown_us: u64,
    },
    /// An open breaker's cooldown elapsed; the gated send went out as the
    /// single half-open probe.
    BreakerProbed {
        /// Dense agent index within the hosting control plane.
        agent: u32,
    },
    /// The agent answered while its breaker was open or half-open; traffic
    /// flows again.
    BreakerClosed {
        /// Dense agent index within the hosting control plane.
        agent: u32,
    },
    /// A scope's circuit breaker tripped open: sessions over that exact
    /// scope fail fast at admission until a half-open probe session
    /// succeeds. Disjoint scopes — even ones sharing an agent — keep
    /// flowing.
    ScopeBreakerOpened {
        /// FNV-1a key of the scope's sorted lock-resource set.
        scope: u64,
        /// The open hold before the next probe session, in microseconds.
        cooldown_us: u64,
    },
    /// An open scope breaker's cooldown elapsed; the admitted session runs
    /// as the single half-open probe for that scope.
    ScopeBreakerProbed {
        /// FNV-1a key of the scope's sorted lock-resource set.
        scope: u64,
    },
    /// A session over the scope succeeded while its breaker was open or
    /// half-open; admissions into the scope flow again.
    ScopeBreakerClosed {
        /// FNV-1a key of the scope's sorted lock-resource set.
        scope: u64,
    },
    /// A session was admitted into a scope whose own circuit breaker is
    /// open; it terminated immediately with a journaled outcome instead of
    /// convoying the flapping scope.
    ScopeRejected {
        /// The rejected session's identifier.
        session: u64,
        /// FNV-1a key of the gating scope.
        scope: u64,
    },
    /// An agent's RTT estimator moved its retransmission timeout far enough
    /// (≥ a quarter relative to the last report) to be worth recording.
    TimeoutAdapted {
        /// Dense agent index within the hosting control plane.
        agent: u32,
        /// Smoothed round-trip time, in microseconds.
        srtt_us: u64,
        /// Resulting retransmission timeout, in microseconds.
        rto_us: u64,
    },
    /// Chaos injection destroyed a cross-shard fabric message at the sender.
    FabricDropped {
        /// Sending endpoint (shard tag minus one).
        src: u32,
        /// Destination endpoint.
        dst: u32,
        /// Per-edge sequence number of the destroyed envelope.
        seq: u64,
    },
    /// Chaos injection duplicated a cross-shard fabric message; the copy
    /// arrives one quantum later under its own sequence number.
    FabricDuplicated {
        /// Sending endpoint.
        src: u32,
        /// Destination endpoint.
        dst: u32,
        /// Sequence number of the original envelope.
        seq: u64,
    },
    /// Chaos injection delayed a cross-shard fabric message by a burst of
    /// arrival quanta (delays reorder it past later traffic on the edge).
    FabricDelayed {
        /// Sending endpoint.
        src: u32,
        /// Destination endpoint.
        dst: u32,
        /// Sequence number of the delayed envelope.
        seq: u64,
        /// Arrival quanta added.
        quanta: u32,
    },
    /// The global tier's retransmission ladder re-sent an unacknowledged
    /// lock-handshake message over the fabric.
    FabricRetransmit {
        /// The straddling session whose handshake is being retried.
        session: u64,
        /// The unresponsive region.
        region: u32,
        /// 1-based retransmission attempt.
        attempt: u32,
    },
    /// A region observed a lock request from a newer global-tier incarnation
    /// for a slice it still holds on behalf of a dead incarnation, and
    /// transferred the lease instead of orphaning it.
    LeaseReclaimed {
        /// The straddling session whose lease moved.
        session: u64,
        /// The reclaiming region.
        region: u32,
        /// The new (reclaiming) global-tier epoch.
        epoch: u64,
    },
    /// The global tier exhausted its retransmission ladder against an
    /// unreachable region and resolved the straddling session with a clean
    /// `Rejected` outcome instead of letting it vanish.
    StraddlerAbandoned {
        /// The abandoned session.
        session: u64,
        /// The unreachable region.
        region: u32,
        /// Transmission attempts made before giving up.
        attempts: u32,
    },
    /// Announces the adaptation domain a control plane is running, once at
    /// boot. Video worlds stay silent (their streams predate the tag and
    /// must keep their fingerprints); generated domains tag every stream.
    DomainTagged {
        /// Stable domain tag (`Domain::tag`): 1 serverless, 2 IaaS.
        domain: u32,
        /// Stable objective tag (`Objective::tag`): 0 ms, 1 watts.
        objective: u32,
    },
    /// A re-seized foreign hold's lease ran out with no word from the
    /// global tier; the region garbage-collected the hold, released its
    /// lock-table entry, and cascaded the grant to whoever was queued.
    LeaseExpired {
        /// The straddling session whose hold was collected.
        session: u64,
        /// The region that expired the lease.
        region: u32,
    },
}

/// What the planning layer observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanEvent {
    /// The manager selected an adaptation path to execute.
    PathSelected {
        /// 1-based rank among the k-shortest candidates tried so far.
        rank: u32,
        /// Number of steps on the selected path.
        steps: u32,
        /// The path's total cost.
        cost: u64,
    },
    /// No path to the goal remains untried.
    PathsExhausted {
        /// True when the manager falls back to returning to the source.
        returning_to_source: bool,
    },
}
