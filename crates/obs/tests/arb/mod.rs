//! Arbitrary events for the property tests of this crate's codec and
//! fingerprint (included by `codec_props.rs` and `fingerprint_props.rs`):
//! every payload variant, optional fields present and absent, labels with
//! escapes and non-ASCII text, configurations of any width, empty vectors.

use proptest::prelude::*;

use sada_expr::{CompId, Config};
use sada_obs::{
    AgentStateTag, AuditEvent, Event, FleetEvent, ManagerPhaseTag, NetEvent, ObligationKey,
    Payload, PlanEvent, ProtoEvent, SegmentEdge, SimTime, TemporalEvent,
};

fn arb_agent_state() -> impl Strategy<Value = AgentStateTag> {
    prop::sample::select(vec![
        AgentStateTag::Running,
        AgentStateTag::Resetting,
        AgentStateTag::Safe,
        AgentStateTag::Adapted,
        AgentStateTag::Resuming,
        AgentStateTag::RollingBack,
        AgentStateTag::FailedReset,
    ])
}

fn arb_manager_phase() -> impl Strategy<Value = ManagerPhaseTag> {
    prop::sample::select(vec![
        ManagerPhaseTag::Running,
        ManagerPhaseTag::Adapting,
        ManagerPhaseTag::Resuming,
        ManagerPhaseTag::RollingBack,
        ManagerPhaseTag::GaveUp,
    ])
}

fn arb_opt_step() -> impl Strategy<Value = Option<u64>> {
    (any::<bool>(), 0u64..100).prop_map(|(some, v)| some.then_some(v))
}

fn arb_key() -> impl Strategy<Value = ObligationKey> {
    (0usize..64, any::<bool>()).prop_map(|(ix, start)| ObligationKey {
        comp: CompId::from_index(ix),
        edge: if start { SegmentEdge::Start } else { SegmentEdge::End },
    })
}

fn arb_label() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        String::new(),
        "E1 -> E2".to_string(),
        "swap \"quoted\" label".to_string(),
        "tabs\tand\nnewlines\r".to_string(),
        "unicode → übergang".to_string(),
        "back\\slash".to_string(),
        "\u{1}control".to_string(),
    ])
}

fn arb_config() -> impl Strategy<Value = Config> {
    (1usize..80, prop::collection::vec(0usize..80, 0..8)).prop_map(|(width, bits)| {
        let mut cfg = Config::empty(width);
        for b in bits {
            if b < width {
                cfg.insert(CompId::from_index(b));
            }
        }
        cfg
    })
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    let net = prop_oneof![
        (0u32..8, 0u32..8).prop_map(|(from, to)| NetEvent::Sent { from, to }),
        (0u32..8, 0u32..8).prop_map(|(from, to)| NetEvent::Delivered { from, to }),
        (0u32..8, 0u32..8).prop_map(|(from, to)| NetEvent::Dropped { from, to }),
        any::<u64>().prop_map(|tag| NetEvent::TimerFired { tag }),
        Just(NetEvent::Crashed),
        Just(NetEvent::Restarted),
    ];
    let proto = prop_oneof![
        (arb_agent_state(), arb_agent_state(), arb_opt_step())
            .prop_map(|(from, to, step)| ProtoEvent::AgentState { from, to, step }),
        (arb_manager_phase(), arb_manager_phase(), arb_opt_step())
            .prop_map(|(from, to, step)| ProtoEvent::ManagerPhase { from, to, step }),
        (0u64..100, any::<bool>(), 0u32..8).prop_map(|(step, solo, participants)| {
            ProtoEvent::StepStarted { step, solo, participants }
        }),
        (0u64..100).prop_map(|step| ProtoEvent::StepCommitted { step }),
        (arb_manager_phase(), arb_opt_step(), 0u32..10)
            .prop_map(|(phase, step, retries)| ProtoEvent::TimeoutFired { phase, step, retries }),
        (0u64..100, 0u32..8).prop_map(|(step, resends)| ProtoEvent::RetrySent { step, resends }),
        (0u64..100).prop_map(|step| ProtoEvent::RollbackIssued { step }),
        (0u32..8, arb_opt_step()).prop_map(|(agent, last_completed)| ProtoEvent::RejoinReceived {
            agent,
            last_completed
        }),
        (any::<bool>(), any::<bool>(), 0u64..10).prop_map(|(success, gave_up, steps_committed)| {
            ProtoEvent::OutcomeReached { success, gave_up, steps_committed }
        }),
        any::<u64>().prop_map(|seq| ProtoEvent::JournalAppended { seq }),
        (0u64..100, arb_manager_phase(), arb_opt_step()).prop_map(|(records, phase, step)| {
            ProtoEvent::ManagerRestored { records, phase, step }
        }),
        (0u32..8).prop_map(|agent| ProtoEvent::StateQueried { agent }),
        (0u32..8, arb_opt_step(), any::<bool>(), any::<bool>(), arb_opt_step()).prop_map(
            |(agent, engaged, adapted, failed, last_completed)| ProtoEvent::StateReported {
                agent,
                engaged,
                adapted,
                failed,
                last_completed
            }
        ),
    ];
    let audit = prop_oneof![
        (any::<u64>(), 0usize..64)
            .prop_map(|(cid, c)| AuditEvent::SegmentStart { cid, comp: CompId::from_index(c) }),
        (any::<u64>(), 0usize..64)
            .prop_map(|(cid, c)| AuditEvent::SegmentEnd { cid, comp: CompId::from_index(c) }),
        (any::<u64>(), 0usize..64)
            .prop_map(|(cid, c)| AuditEvent::SegmentLost { cid, comp: CompId::from_index(c) }),
        (arb_label(), prop::collection::vec(0usize..64, 0..5)).prop_map(|(label, comps)| {
            AuditEvent::InAction {
                label,
                comps: comps.into_iter().map(CompId::from_index).collect(),
            }
        }),
        arb_config().prop_map(|config| AuditEvent::ConfigSnapshot { config }),
    ];
    let temporal = prop_oneof![
        (arb_key(), any::<u64>())
            .prop_map(|(key, cid)| TemporalEvent::ObligationOpened { key, cid }),
        (arb_key(), any::<u64>())
            .prop_map(|(key, cid)| TemporalEvent::ObligationDischarged { key, cid }),
        any::<u64>().prop_map(|index| TemporalEvent::SafePoint { index }),
    ];
    let plan =
        prop_oneof![
            (1u32..5, 1u32..10, 0u64..10_000)
                .prop_map(|(rank, steps, cost)| PlanEvent::PathSelected { rank, steps, cost }),
            any::<bool>()
                .prop_map(|returning_to_source| PlanEvent::PathsExhausted { returning_to_source }),
        ];
    let fleet = prop_oneof![
        (0u64..100, 0u32..32)
            .prop_map(|(session, resources)| FleetEvent::SessionSubmitted { session, resources }),
        (0u64..100, any::<u64>())
            .prop_map(|(session, queued_for)| FleetEvent::SessionAdmitted { session, queued_for }),
        (0u64..100, 0u32..16)
            .prop_map(|(session, position)| FleetEvent::SessionQueued { session, position }),
        (0u64..100).prop_map(|session| FleetEvent::SessionCancelled { session }),
        (0u64..100, any::<bool>(), any::<bool>()).prop_map(|(session, success, gave_up)| {
            FleetEvent::SessionDone { session, success, gave_up }
        }),
        (0u32..64, 0u32..64)
            .prop_map(|(active, queued)| FleetEvent::ControlRestored { active, queued }),
        (0u64..100).prop_map(|session| FleetEvent::PlanCacheHit { session }),
        (0u64..100).prop_map(|session| FleetEvent::PlanCacheMiss { session }),
        (0u64..100).prop_map(|session| FleetEvent::PlanCacheEvicted { session }),
        (0u32..16, 0u32..16, any::<u64>()).prop_map(|(src, dst, seq)| FleetEvent::FabricDropped {
            src,
            dst,
            seq
        }),
        (0u32..16, 0u32..16, any::<u64>())
            .prop_map(|(src, dst, seq)| FleetEvent::FabricDuplicated { src, dst, seq }),
        (0u32..16, 0u32..16, any::<u64>(), 0u32..64).prop_map(|(src, dst, seq, quanta)| {
            FleetEvent::FabricDelayed { src, dst, seq, quanta }
        }),
        (0u64..100, 0u32..16, 1u32..16).prop_map(|(session, region, attempt)| {
            FleetEvent::FabricRetransmit { session, region, attempt }
        }),
        (0u64..100, 0u32..16, any::<u64>()).prop_map(|(session, region, epoch)| {
            FleetEvent::LeaseReclaimed { session, region, epoch }
        }),
        (0u64..100, 0u32..16, 1u32..16).prop_map(|(session, region, attempts)| {
            FleetEvent::StraddlerAbandoned { session, region, attempts }
        }),
        (0u64..100, any::<u64>(), any::<u64>()).prop_map(|(session, waited_us, retry_after_us)| {
            FleetEvent::SessionShed { session, waited_us, retry_after_us }
        }),
        (0u64..100, 0u32..8)
            .prop_map(|(session, agent)| FleetEvent::SessionRejected { session, agent }),
        (0u32..8, any::<u64>())
            .prop_map(|(agent, cooldown_us)| FleetEvent::BreakerOpened { agent, cooldown_us }),
        (0u32..8).prop_map(|agent| FleetEvent::BreakerProbed { agent }),
        (0u32..8).prop_map(|agent| FleetEvent::BreakerClosed { agent }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(scope, cooldown_us)| FleetEvent::ScopeBreakerOpened { scope, cooldown_us }),
        any::<u64>().prop_map(|scope| FleetEvent::ScopeBreakerProbed { scope }),
        any::<u64>().prop_map(|scope| FleetEvent::ScopeBreakerClosed { scope }),
        (0u64..100, any::<u64>())
            .prop_map(|(session, scope)| FleetEvent::ScopeRejected { session, scope }),
        (0u32..8, any::<u64>(), any::<u64>()).prop_map(|(agent, srtt_us, rto_us)| {
            FleetEvent::TimeoutAdapted { agent, srtt_us, rto_us }
        }),
        (0u32..4, 0u32..4)
            .prop_map(|(domain, objective)| FleetEvent::DomainTagged { domain, objective }),
        (0u64..100, 0u32..16)
            .prop_map(|(session, region)| FleetEvent::LeaseExpired { session, region }),
    ];
    prop_oneof![
        net.prop_map(Payload::Net),
        proto.prop_map(Payload::Proto),
        audit.prop_map(Payload::Audit),
        temporal.prop_map(Payload::Temporal),
        plan.prop_map(Payload::Plan),
        fleet.prop_map(Payload::Fleet),
    ]
}

pub(crate) fn arb_event() -> impl Strategy<Value = Event> {
    (any::<u64>(), any::<u32>(), 0u64..10, 0u32..5, arb_payload()).prop_map(
        |(at, actor, session, shard, payload)| Event {
            at: SimTime::from_micros(at),
            actor,
            session,
            shard,
            payload,
        },
    )
}
