//! Crash recovery of the video case study, read off the run's report:
//! client crash and rejoin counts, and the manager's write-ahead journal
//! across a manager failover.

use sada_obs::Bus;
use sada_proto::JournalRecord;
use sada_simnet::{ActorId, FaultPlan, SimTime};
use sada_video::{run_video_scenario, ScenarioConfig, Strategy};

#[test]
fn handheld_crash_mid_adaptation_recovers_safely() {
    // The hand-held dies 20 ms into the protocol window and comes back
    // 170 ms later; its agent rejoins with its last durable step and
    // the manager resynchronizes it. The stream survives, the run ends,
    // and the independent audit stays clean (packets that died in the
    // outage are adjudicated lost, not counted as interruptions).
    let handheld = ActorId::from_index(1);
    let cfg = ScenarioConfig {
        faults: FaultPlan::new()
            .crash(handheld, SimTime::from_millis(520))
            .restart(handheld, SimTime::from_millis(690)),
        ..ScenarioConfig::default()
    };
    let report = run_video_scenario(&cfg, Strategy::Safe);
    assert_eq!(report.client_crashes, (1, 0));
    assert!(report.client_rejoins.0 >= 1, "restarted client must announce itself");
    let o = report.outcome.as_ref().expect("outcome recorded");
    assert!(o.success, "adaptation must still reach the target: {o:?}");
    assert!(report.audit.is_safe(), "violations: {:?}", report.audit.violations.first());
    assert_eq!(report.corrupted_packets(), 0, "no corruption despite the crash");
    // The laptop never crashed: it must not lose a single frame.
    assert_eq!(report.laptop.frames_displayed, report.server.frames_sent);
    // The hand-held lost at most the outage's worth of frames.
    assert!(
        report.handheld.frames_displayed + 10 >= report.server.frames_sent,
        "outage loss must be bounded: {} of {}",
        report.handheld.frames_displayed,
        report.server.frames_sent
    );
}

#[test]
fn manager_crash_during_rollback_reissues_rollback_not_resume() {
    use sada_obs::{ManagerPhaseTag, Payload, ProtoEvent, RingSink};
    use std::cell::RefCell;
    use std::rc::Rc;

    // The manager's commands to the hand-held are severed just before
    // the protocol window opens, so the hand-held step's Reset never
    // arrives: the adapt retries exhaust and the manager orders a
    // rollback whose command is also lost. The manager then dies with
    // its journal ending at `rollback issued` and restarts while the
    // partition still holds. The restored incarnation must come back
    // *rolling back* — reconciling agent state and re-issuing the
    // rollback — and must never resume the abandoned attempt. Once the
    // partition lifts, the never-engaged hand-held acknowledges
    // trivially, the retry rung re-runs the step, and the adaptation
    // still lands on the target.
    let handheld = ActorId::from_index(1);
    let manager = ActorId::from_index(3);
    let bus = Bus::new();
    let ring = Rc::new(RefCell::new(RingSink::new(1 << 16)));
    bus.attach(&ring);
    let cfg = ScenarioConfig {
        faults: FaultPlan::new()
            .partition_window(
                manager,
                handheld,
                SimTime::from_millis(400),
                SimTime::from_millis(6_000),
            )
            .crash(manager, SimTime::from_millis(4_000))
            .restart(manager, SimTime::from_millis(4_150)),
        bus: bus.clone(),
        ..ScenarioConfig::default()
    };
    let report = run_video_scenario(&cfg, Strategy::Safe);

    assert_eq!(report.manager_restores, 1, "one incarnation rebuilt from the journal");
    let o = report.outcome.as_ref().expect("outcome recorded");
    assert!(o.success, "adaptation must still reach the target: {o:?}");
    assert!(report.audit.is_safe(), "violations: {:?}", report.audit.violations.first());
    assert_eq!(report.corrupted_packets(), 0, "no corruption despite the failover");

    // The journal tells the failover story: a rollback was issued, the
    // crash hit before its completion record, and the restored manager
    // finished that same rollback — retrying the step — without ever
    // resuming the abandoned attempt.
    let j = &report.manager_journal;
    let (ix, step) = j
        .iter()
        .enumerate()
        .find_map(|(i, r)| match r {
            JournalRecord::RollbackIssued { step } => Some((i, *step)),
            _ => None,
        })
        .unwrap_or_else(|| panic!("a rollback must have been issued: {j:?}"));
    let done = j[ix..]
        .iter()
        .position(|r| matches!(r, JournalRecord::RollbackComplete { step: s, .. } if *s == step))
        .unwrap_or_else(|| panic!("the restored manager must finish the rollback: {j:?}"));
    assert!(
        !j[ix..ix + done].iter().any(|r| matches!(r, JournalRecord::ResumeIssued { .. })),
        "no resume may be issued while the rollback is outstanding: {j:?}"
    );
    assert!(
        matches!(j[ix + done], JournalRecord::RollbackComplete { retry: true, .. }),
        "the retry-once rung re-runs the rolled-back step: {j:?}"
    );
    assert!(
        matches!(j.last(), Some(JournalRecord::Outcome { success: true, .. })),
        "the journal ends with the successful resolution: {j:?}"
    );

    // The event stream confirms the mechanism: the replay landed
    // mid-rollback and the new incarnation probed agent state before
    // acting.
    let events = ring.borrow().events();
    assert!(
        events.iter().any(|e| matches!(
            e.payload,
            Payload::Proto(ProtoEvent::ManagerRestored { phase: ManagerPhaseTag::RollingBack, .. })
        )),
        "the journal replay must land in the rolling-back phase"
    );
    assert!(
        events.iter().any(|e| matches!(e.payload, Payload::Proto(ProtoEvent::StateQueried { .. }))),
        "the restored manager must reconcile by probing agent state"
    );
}

#[test]
fn solo_commit_outruns_rollback_and_the_manager_adopts_it() {
    use sada_obs::{ManagerPhaseTag, Payload, ProtoEvent, RingSink};
    use std::cell::RefCell;
    use std::rc::Rc;

    // The reverse partition: the hand-held receives every command but
    // its *replies* are severed. Its solo step runs to completion —
    // reset, in-action, autonomous resume — while the deaf manager
    // exhausts the adapt retries and orders a rollback. Resume was the
    // point of no return: the commit cannot be undone, so the agent
    // answers the rollback by re-acknowledging completion, and the
    // manager (after crashing and restoring mid-rollback for good
    // measure) must adopt the commit instead of re-running the step —
    // re-applying the action would corrupt the component chain.
    let handheld = ActorId::from_index(1);
    let manager = ActorId::from_index(3);
    let bus = Bus::new();
    let ring = Rc::new(RefCell::new(RingSink::new(1 << 16)));
    bus.attach(&ring);
    let cfg = ScenarioConfig {
        faults: FaultPlan::new()
            .partition_window(
                handheld,
                manager,
                SimTime::from_millis(400),
                SimTime::from_millis(6_000),
            )
            .crash(manager, SimTime::from_millis(4_000))
            .restart(manager, SimTime::from_millis(4_150)),
        bus: bus.clone(),
        ..ScenarioConfig::default()
    };
    let report = run_video_scenario(&cfg, Strategy::Safe);

    assert_eq!(report.manager_restores, 1, "one incarnation rebuilt from the journal");
    let o = report.outcome.as_ref().expect("outcome recorded");
    assert!(o.success, "adaptation must still reach the target: {o:?}");
    assert!(report.audit.is_safe(), "violations: {:?}", report.audit.violations.first());
    assert_eq!(report.corrupted_packets(), 0, "no corruption despite the failover");

    // The journal shows the abandoned rollback: the issued rollback is
    // answered by commit evidence, the step is adopted as committed
    // (never rolled back, never re-run), and the run resolves.
    let j = &report.manager_journal;
    let (ix, step) = j
        .iter()
        .enumerate()
        .find_map(|(i, r)| match r {
            JournalRecord::RollbackIssued { step } => Some((i, *step)),
            _ => None,
        })
        .unwrap_or_else(|| panic!("a rollback must have been issued: {j:?}"));
    assert!(
        matches!(j.get(ix + 1), Some(JournalRecord::StepCommitted { step: s }) if *s == step),
        "the rollback must be abandoned in favor of the commit: {j:?}"
    );
    assert!(
        !j.iter()
            .any(|r| matches!(r, JournalRecord::RollbackComplete { step: s, .. } if *s == step)),
        "an adopted commit is never recorded as rolled back: {j:?}"
    );
    let attempts = j.iter().filter(|r| matches!(r, JournalRecord::StepStarted { .. })).count();
    assert_eq!(attempts, 5, "each of the 5 MAP steps runs exactly once: {j:?}");
    assert!(
        matches!(j.last(), Some(JournalRecord::Outcome { success: true, .. })),
        "the journal ends with the successful resolution: {j:?}"
    );
    assert!(
        ring.borrow().events().iter().any(|e| matches!(
            e.payload,
            Payload::Proto(ProtoEvent::ManagerRestored { phase: ManagerPhaseTag::RollingBack, .. })
        )),
        "the journal replay must land in the rolling-back phase"
    );
}

#[test]
fn crash_runs_are_deterministic() {
    let handheld = ActorId::from_index(1);
    let cfg = ScenarioConfig {
        faults: FaultPlan::new()
            .crash(handheld, SimTime::from_millis(520))
            .restart(handheld, SimTime::from_millis(690)),
        ..ScenarioConfig::default()
    };
    let a = run_video_scenario(&cfg, Strategy::Safe);
    let b = run_video_scenario(&cfg, Strategy::Safe);
    assert_eq!(a.server, b.server);
    assert_eq!(a.handheld, b.handheld);
    assert_eq!(a.client_rejoins, b.client_rejoins);
    assert_eq!(a.finished_at, b.finished_at);
}

#[test]
fn a_client_drops_residue_of_an_older_manager_incarnation() {
    use sada_expr::Universe;
    use sada_plan::ActionId;
    use sada_proto::{LocalAction, ProtoMsg, ProtoTimer, StepId, Wire};
    use sada_simnet::{Actor, Context, SimDuration, Simulator};
    use sada_video::{AuditShared, ClientActor, VideoTimer, VideoWire};

    /// Records what the client answers.
    #[derive(Default)]
    struct Manager(Vec<ProtoMsg>);
    impl Actor<VideoWire, ProtoTimer<VideoTimer>> for Manager {
        fn on_message(
            &mut self,
            _: &mut Context<'_, VideoWire, ProtoTimer<VideoTimer>>,
            _: ActorId,
            msg: VideoWire,
        ) {
            if let Wire::Proto { msg, .. } = msg {
                self.0.push(msg);
            }
        }
    }

    // The restored manager (epoch 1) engages the client; a rollback its
    // dead incarnation (epoch 0) left in flight arrives after, and must not
    // undo the step; the live incarnation's probe (epoch 1 again) is
    // answered.
    let mut u = Universe::new();
    u.intern("D1");
    let audit = AuditShared::new(&Bus::new(), u.config_of(&["D1"]));
    let mut sim: Simulator<VideoWire, ProtoTimer<VideoTimer>> = Simulator::new(1);
    let client = sim
        .add_actor("client", ClientActor::new(u, 0, &["D1"], SimDuration::from_millis(50), audit));
    let manager = sim.add_actor("manager", Manager::default());
    sim.actor_mut::<ClientActor>(client).unwrap().set_manager(manager);
    let step = StepId(1);
    let action = LocalAction {
        action: ActionId(0),
        removes: vec![],
        adds: vec![],
        needs_global_drain: false,
    };
    let inputs = [
        (1, ProtoMsg::Reset { step, action, solo: false }),
        (0, ProtoMsg::Rollback { step }),
        (1, ProtoMsg::QueryState),
    ];
    for (at, (epoch, msg)) in inputs.into_iter().enumerate() {
        let wire = Wire::Proto { epoch, session: sada_proto::SessionId::SOLO, msg };
        sim.inject(manager, client, wire, SimDuration::from_millis(at as u64 + 1));
    }
    sim.run();
    let heard = &sim.actor::<Manager>(manager).unwrap().0;
    let report = ProtoMsg::StateReport {
        engaged: Some(step),
        adapted: true,
        failed: false,
        last_completed: None,
    };
    assert_eq!(
        heard,
        &[ProtoMsg::ResetDone { step }, ProtoMsg::AdaptDone { step }, report],
        "the stale rollback is dropped, the step stays adapted"
    );
}
