//! The bytes every text encoder writes, pinned: an FNV-1a of each encoder's
//! output over a fixed corpus. The constants were captured before the
//! codecs were rebuilt on `sada_obs::text` and are what "wire bytes do not
//! change" means; a deliberate change of a format re-captures exactly the
//! constant of that format and says so. (`encode_scenario` is pinned the
//! same way in `crates/scenario/tests/wire_bytes.rs`: `sada-scenario`
//! depends on `sada-fleet`, not the reverse.)

use sada_expr::{CompId, Config};
use sada_fleet::{encode_fabric_msg, FabricPayload};
use sada_obs::{
    encode_event, fnv1a, text::push_lines, AgentStateTag, AuditEvent, Event, FleetEvent,
    ManagerPhaseTag, NetEvent, ObligationKey, Payload, PlanEvent, ProtoEvent, SimDuration, SimTime,
    TemporalEvent, NO_ACTOR,
};
use sada_plan::ActionId;
use sada_proto::{
    encode_global_journal, encode_journal, encode_session_journal, GlobalRecord, JournalRecord,
    SessionId, SessionRecord, StepId,
};
use sada_simnet::{ActorId, FaultPlan, MsgPattern};

fn assert_pinned(what: &str, text: &str, want: u64) {
    assert!(fnv1a(text) == want, "{what}: bytes moved, FNV-1a now {:#018x}\n{text}", fnv1a(text));
}

/// Every `Payload` variant, optional fields both present and absent.
fn payloads() -> Vec<Payload> {
    let comp = CompId::from_index(3);
    let scope = 0xdead_beef_cafe;
    vec![
        Payload::Net(NetEvent::Sent { from: 1, to: 2 }),
        Payload::Net(NetEvent::Delivered { from: 0, to: u32::MAX }),
        Payload::Net(NetEvent::Dropped { from: 2, to: 2 }),
        Payload::Net(NetEvent::TimerFired { tag: u64::MAX }),
        Payload::Net(NetEvent::Crashed),
        Payload::Net(NetEvent::Restarted),
        Payload::Proto(ProtoEvent::AgentState {
            from: AgentStateTag::Running,
            to: AgentStateTag::Resetting,
            step: Some(4),
        }),
        Payload::Proto(ProtoEvent::AgentState {
            from: AgentStateTag::Safe,
            to: AgentStateTag::Adapted,
            step: None,
        }),
        Payload::Proto(ProtoEvent::AgentState {
            from: AgentStateTag::Resuming,
            to: AgentStateTag::RollingBack,
            step: Some(0),
        }),
        Payload::Proto(ProtoEvent::AgentState {
            from: AgentStateTag::FailedReset,
            to: AgentStateTag::Running,
            step: None,
        }),
        Payload::Proto(ProtoEvent::ManagerPhase {
            from: ManagerPhaseTag::Running,
            to: ManagerPhaseTag::Adapting,
            step: Some(9),
        }),
        Payload::Proto(ProtoEvent::ManagerPhase {
            from: ManagerPhaseTag::Resuming,
            to: ManagerPhaseTag::RollingBack,
            step: None,
        }),
        Payload::Proto(ProtoEvent::ManagerPhase {
            from: ManagerPhaseTag::GaveUp,
            to: ManagerPhaseTag::Running,
            step: None,
        }),
        Payload::Proto(ProtoEvent::StepStarted { step: 7, solo: true, participants: 3 }),
        Payload::Proto(ProtoEvent::StepStarted { step: 8, solo: false, participants: u32::MAX }),
        Payload::Proto(ProtoEvent::StepCommitted { step: 7 }),
        Payload::Proto(ProtoEvent::TimeoutFired {
            phase: ManagerPhaseTag::Resuming,
            step: None,
            retries: 2,
        }),
        Payload::Proto(ProtoEvent::TimeoutFired {
            phase: ManagerPhaseTag::Adapting,
            step: Some(3),
            retries: 0,
        }),
        Payload::Proto(ProtoEvent::RetrySent { step: 1, resends: 2 }),
        Payload::Proto(ProtoEvent::RollbackIssued { step: 5 }),
        Payload::Proto(ProtoEvent::RejoinReceived { agent: 1, last_completed: None }),
        Payload::Proto(ProtoEvent::RejoinReceived { agent: 2, last_completed: Some(3) }),
        Payload::Proto(ProtoEvent::OutcomeReached {
            success: false,
            gave_up: true,
            steps_committed: 2,
        }),
        Payload::Proto(ProtoEvent::JournalAppended { seq: 11 }),
        Payload::Proto(ProtoEvent::ManagerRestored {
            records: 6,
            phase: ManagerPhaseTag::RollingBack,
            step: Some(4),
        }),
        Payload::Proto(ProtoEvent::ManagerRestored {
            records: 0,
            phase: ManagerPhaseTag::Running,
            step: None,
        }),
        Payload::Proto(ProtoEvent::StateQueried { agent: 2 }),
        Payload::Proto(ProtoEvent::StateReported {
            agent: 2,
            engaged: Some(4),
            adapted: true,
            failed: false,
            last_completed: None,
        }),
        Payload::Proto(ProtoEvent::StateReported {
            agent: 0,
            engaged: None,
            adapted: false,
            failed: true,
            last_completed: Some(3),
        }),
        Payload::Audit(AuditEvent::SegmentStart { cid: 1 << 48, comp }),
        Payload::Audit(AuditEvent::SegmentEnd { cid: 42, comp }),
        Payload::Audit(AuditEvent::SegmentLost { cid: 0, comp }),
        Payload::Audit(AuditEvent::InAction {
            label: "E1 -> E2 \"quoted\" back\\slash\nline\r\ttab \u{1}\u{1f} bell\u{7}".into(),
            comps: vec![CompId::from_index(0), CompId::from_index(1)],
        }),
        Payload::Audit(AuditEvent::InAction {
            label: "näive → übergang 😀 \u{a0}ß".into(),
            comps: vec![CompId::from_index(65)],
        }),
        Payload::Audit(AuditEvent::InAction { label: String::new(), comps: vec![] }),
        Payload::Audit(AuditEvent::ConfigSnapshot { config: stripes(0) }),
        Payload::Audit(AuditEvent::ConfigSnapshot { config: stripes(7) }),
        Payload::Audit(AuditEvent::ConfigSnapshot { config: stripes(65) }),
        Payload::Temporal(TemporalEvent::ObligationOpened {
            key: ObligationKey::start(comp),
            cid: 99,
        }),
        Payload::Temporal(TemporalEvent::ObligationDischarged {
            key: ObligationKey::end(CompId::from_index(12)),
            cid: 99,
        }),
        Payload::Temporal(TemporalEvent::SafePoint { index: 12 }),
        Payload::Plan(PlanEvent::PathSelected { rank: 1, steps: 5, cost: 1210 }),
        Payload::Plan(PlanEvent::PathsExhausted { returning_to_source: true }),
        Payload::Plan(PlanEvent::PathsExhausted { returning_to_source: false }),
        Payload::Fleet(FleetEvent::SessionSubmitted { session: 4, resources: 6 }),
        Payload::Fleet(FleetEvent::SessionAdmitted { session: 4, queued_for: 12_500 }),
        Payload::Fleet(FleetEvent::SessionQueued { session: 9, position: 2 }),
        Payload::Fleet(FleetEvent::SessionCancelled { session: 9 }),
        Payload::Fleet(FleetEvent::SessionDone { session: 4, success: true, gave_up: false }),
        Payload::Fleet(FleetEvent::ControlRestored { active: 3, queued: 2 }),
        Payload::Fleet(FleetEvent::PlanCacheHit { session: 7 }),
        Payload::Fleet(FleetEvent::PlanCacheMiss { session: 1 }),
        Payload::Fleet(FleetEvent::PlanCacheEvicted { session: 3 }),
        Payload::Fleet(FleetEvent::SessionShed {
            session: 11,
            waited_us: 4_200,
            retry_after_us: 25_000,
        }),
        Payload::Fleet(FleetEvent::SessionShed { session: 12, waited_us: 0, retry_after_us: 0 }),
        Payload::Fleet(FleetEvent::SessionRejected { session: 12, agent: 7 }),
        Payload::Fleet(FleetEvent::BreakerOpened { agent: 5, cooldown_us: 400_000 }),
        Payload::Fleet(FleetEvent::BreakerProbed { agent: 5 }),
        Payload::Fleet(FleetEvent::BreakerClosed { agent: 5 }),
        Payload::Fleet(FleetEvent::ScopeBreakerOpened { scope, cooldown_us: 800_000 }),
        Payload::Fleet(FleetEvent::ScopeBreakerProbed { scope }),
        Payload::Fleet(FleetEvent::ScopeBreakerClosed { scope }),
        Payload::Fleet(FleetEvent::ScopeRejected { session: 13, scope }),
        Payload::Fleet(FleetEvent::TimeoutAdapted { agent: 2, srtt_us: 9_800, rto_us: 31_000 }),
        Payload::Fleet(FleetEvent::FabricDropped { src: 1, dst: 8, seq: 17 }),
        Payload::Fleet(FleetEvent::FabricDuplicated { src: 8, dst: 1, seq: 18 }),
        Payload::Fleet(FleetEvent::FabricDelayed { src: 2, dst: 8, seq: 19, quanta: 3 }),
        Payload::Fleet(FleetEvent::FabricRetransmit { session: 21, region: 2, attempt: 4 }),
        Payload::Fleet(FleetEvent::LeaseReclaimed { session: 21, region: 2, epoch: 5 }),
        Payload::Fleet(FleetEvent::StraddlerAbandoned { session: 22, region: 1, attempts: 6 }),
        Payload::Fleet(FleetEvent::DomainTagged { domain: 2, objective: 1 }),
        Payload::Fleet(FleetEvent::LeaseExpired { session: 100, region: 3 }),
    ]
}

/// A `width`-component configuration with every third component on, the
/// first and the last included.
fn stripes(width: usize) -> Config {
    let ids = (0..width).filter(|ix| ix % 3 == 0 || ix + 1 == width);
    Config::from_ids(width, ids.map(CompId::from_index))
}

#[test]
fn jsonl_event_bytes_are_pinned() {
    let mut text = String::new();
    for (i, payload) in payloads().into_iter().enumerate() {
        // Session and shard are each elided at 0: cover all four mixes,
        // and the no-actor sentinel.
        let ev = Event {
            at: SimTime::from_micros(i as u64 * 1_000_003),
            actor: if i % 7 == 6 { NO_ACTOR } else { i as u32 },
            session: (i as u64) % 3,
            shard: (i as u32 / 3) % 2 * 5,
            payload,
        };
        text.push_str(&encode_event(&ev));
        text.push('\n');
    }
    let kinds: std::collections::BTreeSet<&str> = text
        .lines()
        .map(|line| line.split("\"kind\":\"").nth(1).unwrap().split('"').next().unwrap())
        .collect();
    assert_eq!(kinds.len(), 56, "the corpus must reach every event kind: {kinds:?}");
    assert_pinned("JSONL events", &text, 0x359f_942c_98aa_2503);
}

/// Every `JournalRecord` variant, the configuration-bearing ones at
/// widths 0, 1, 64 and 65 (empty, one digit, a full word, a word and one).
fn journal_records() -> Vec<JournalRecord> {
    let mut records = Vec::new();
    for width in [0, 1, 64, 65] {
        let all = Config::from_ids(width, (0..width).map(CompId::from_index));
        records.push(JournalRecord::Request { source: stripes(width), target: all.clone() });
        records.push(JournalRecord::Queued { source: all, target: Config::empty(width) });
    }
    let max = StepId(u64::MAX);
    records.extend([
        JournalRecord::PathSelected { actions: vec![ActionId(2), ActionId(0), ActionId(u32::MAX)] },
        JournalRecord::PathSelected { actions: vec![ActionId(7)] },
        JournalRecord::PathSelected { actions: vec![] },
        JournalRecord::GoalReversed,
        JournalRecord::StepStarted { step: StepId(1), ix: 0 },
        JournalRecord::StepStarted { step: max, ix: u32::MAX },
        JournalRecord::ResumeIssued { step: StepId(1) },
        JournalRecord::StepCommitted { step: StepId(1) },
        JournalRecord::RollbackIssued { step: StepId(2) },
        JournalRecord::RollbackComplete { step: StepId(2), retry: true },
        JournalRecord::RollbackComplete { step: max, retry: false },
        JournalRecord::Outcome { success: true, gave_up: false },
        JournalRecord::Outcome { success: false, gave_up: true },
    ]);
    records
}

/// `config` with the bits of `ids` flipped.
fn flipped(config: &Config, ids: &[usize]) -> Config {
    let (removes, adds): (Vec<CompId>, Vec<CompId>) =
        ids.iter().map(|&ix| CompId::from_index(ix)).partition(|&c| config.contains(c));
    let mut out = config.clone();
    out.apply_delta(&removes, &adds);
    out
}

/// Request and queued records whose configuration fields travel as deltas,
/// at a width of two words and a bit and at a chunked one: a few flips, ids
/// of one to four digits, and a field equal to the one before it.
fn delta_records() -> Vec<JournalRecord> {
    [130, 5_000]
        .into_iter()
        .flat_map(|width| {
            let source = stripes(width);
            let target = flipped(&source, &[0, 1, 64, width - 2]);
            let next = flipped(&target, &[9, width - 1]);
            [
                JournalRecord::Request { source: source.clone(), target: target.clone() },
                JournalRecord::Queued { source: target, target: next.clone() },
                JournalRecord::Request { source: next, target: source },
            ]
        })
        .collect()
}

/// Each record's context-free line (every configuration in full), one per
/// line: what the records are, whatever form the journal text gives them.
fn record_lines<T: std::fmt::Display>(records: &[T]) -> String {
    let mut text = String::new();
    push_lines(&mut text, records);
    text
}

#[test]
fn journal_bytes_are_pinned() {
    let records = journal_records();
    assert_pinned("manager records", &record_lines(&records), 0x1502_c2ae_d9b0_ec30);
    assert_pinned("manager journal", &encode_journal(&records), 0xa648_768f_65b1_f247);
    // Session 0 is elided: a third of these lines carry no tag.
    let tagged: Vec<SessionRecord> = records
        .into_iter()
        .enumerate()
        .map(|(i, record)| SessionRecord { session: SessionId([0, 7, u64::MAX][i % 3]), record })
        .collect();
    assert_pinned("session records", &record_lines(&tagged), 0x35aa_4a4d_2d19_aec6);
    assert_pinned("session journal", &encode_session_journal(&tagged), 0xe48a_975a_b898_04eb);
    // Only the first field of each width is a bit string.
    let deltas = delta_records();
    let text = encode_journal(&deltas);
    assert_eq!(text.matches('@').count(), 10, "{text}");
    assert_pinned("delta records", &record_lines(&deltas), 0xdec0_20c3_ef66_b2fb);
    assert_pinned("delta journal", &text, 0x8864_190a_3682_6535);
    let global = [
        GlobalRecord::Escalated { session: 7, regions: vec![0, 3, u32::MAX] },
        GlobalRecord::Escalated { session: 8, regions: vec![5] },
        GlobalRecord::Escalated { session: u64::MAX, regions: vec![] },
        GlobalRecord::SliceGranted { session: 7, region: 0 },
        GlobalRecord::Submitted { session: 7 },
        GlobalRecord::Released { session: 7, region: 3 },
        GlobalRecord::Withdrawn { session: 9 },
        GlobalRecord::Abandoned { session: 11, region: 2 },
    ];
    assert_pinned("global journal", &encode_global_journal(&global), 0xa719_2793_ecd6_5eab);
}

#[test]
fn fabric_message_bytes_are_pinned() {
    let msgs = [
        FabricPayload::LockRequest {
            session: 9,
            resources: vec![3, 7],
            comps: vec![2, 3, u32::MAX],
            priority: u8::MAX,
            epoch: 2,
        },
        FabricPayload::LockRequest {
            session: 1,
            resources: vec![],
            comps: vec![],
            priority: 0,
            epoch: 0,
        },
        FabricPayload::LockGranted {
            session: 9,
            region: 1,
            epoch: 2,
            values: vec![(2, true), (3, false)],
        },
        FabricPayload::LockGranted { session: 10, region: 0, epoch: u64::MAX, values: vec![] },
        FabricPayload::LockRelease { session: 9, epoch: 2, values: vec![(65, true)] },
        FabricPayload::LockRelease { session: 9, epoch: 3, values: vec![] },
        FabricPayload::ReleaseAck { session: 9, region: 1, epoch: 2 },
    ];
    let text: String = msgs.iter().map(|m| encode_fabric_msg(m) + "\n").collect();
    assert_pinned("fabric messages", &text, 0xb075_6622_0ad2_13db);
}

#[test]
fn fault_plan_bytes_are_pinned() {
    let a = ActorId::from_index;
    let ms = SimTime::from_millis;
    let plan = FaultPlan::new()
        .crash(a(2), ms(120))
        .restart(a(2), ms(250))
        .partition_window(a(0), a(1), ms(10), ms(90))
        .drop_matching(3, MsgPattern { from: None, to: Some(a(1)) })
        .drop_matching(u32::MAX, MsgPattern { from: Some(a(4)), to: None })
        .drop_matching(1, MsgPattern::ANY)
        .drop_matching(2, MsgPattern { from: Some(a(0)), to: Some(a(3)) })
        .delay_burst((ms(5), ms(20)), SimDuration::from_micros(1_500));
    assert_pinned("fault plan", &plan.to_text(), 0xb9ee_c9b2_0dba_7a2d);
}
