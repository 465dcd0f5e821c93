//! Unit tests for the manager state machine (Figure 2 + Section 4.4
//! failure ladder), driven without any network.

use std::collections::{HashSet, VecDeque};

use sada_expr::{Config, InvariantSet, Universe};
use sada_model::SystemModel;
use sada_obs::{ManagerPhaseTag, Payload, ProtoEvent};
use sada_plan::{Action, Search};

use crate::agent::{AgentCore, AgentEffect, AgentEvent};
use crate::journal::JournalRecord;
use crate::manager::{
    ManagerCore, ManagerEffect, ManagerEvent, ManagerPhase, Outcome, ProtoTiming,
};
use crate::messages::ProtoMsg;
use crate::plan_adapter::SearchPlanner;

/// World: components A, B, C under one_of; replacements A->B (1), B->C (1),
/// A->C (5). Everything hosted on one process / agent 0.
fn world() -> (Universe, ManagerCore) {
    let mut u = Universe::new();
    for n in ["A", "B", "C"] {
        u.intern(n);
    }
    let actions = vec![
        Action::replace(0, "A->B", &u.config_of(&["A"]), &u.config_of(&["B"]), 1),
        Action::replace(1, "B->C", &u.config_of(&["B"]), &u.config_of(&["C"]), 1),
        Action::replace(2, "A->C", &u.config_of(&["A"]), &u.config_of(&["C"]), 5),
        // Return edges so "back to source" is plannable.
        Action::replace(3, "C->A", &u.config_of(&["C"]), &u.config_of(&["A"]), 1),
        Action::replace(4, "B->A", &u.config_of(&["B"]), &u.config_of(&["A"]), 1),
    ];
    let inv = InvariantSet::parse(&["one_of(A, B, C)"], &mut u).unwrap();
    let search = Search::new(&inv, &actions, u.len());
    let mut model = SystemModel::new();
    let p0 = model.add_process();
    model.place_all(&u, &[("A", p0), ("B", p0), ("C", p0)]);
    let planner = SearchPlanner::new(search, model, HashSet::new());
    let mgr = ManagerCore::new(ProtoTiming::default(), Box::new(planner));
    (u, mgr)
}

/// Two-agent world: X on agent 0 and Y on agent 1, replaced together.
fn world_two_agents() -> (Universe, ManagerCore) {
    let mut u = Universe::new();
    for n in ["X1", "X2", "Y1", "Y2"] {
        u.intern(n);
    }
    let actions = vec![Action::replace(
        0,
        "(X1,Y1)->(X2,Y2)",
        &u.config_of(&["X1", "Y1"]),
        &u.config_of(&["X2", "Y2"]),
        10,
    )];
    let inv = InvariantSet::parse(&["one_of(X1, X2) & one_of(Y1, Y2)"], &mut u).unwrap();
    let search = Search::new(&inv, &actions, u.len());
    let mut model = SystemModel::new();
    let p0 = model.add_process();
    let p1 = model.add_process();
    model.place_all(&u, &[("X1", p0), ("X2", p0), ("Y1", p1), ("Y2", p1)]);
    let planner = SearchPlanner::new(search, model, HashSet::new());
    let mgr = ManagerCore::new(ProtoTiming::default(), Box::new(planner));
    (u, mgr)
}

fn sends(effects: &[ManagerEffect]) -> Vec<(usize, &ProtoMsg)> {
    effects
        .iter()
        .filter_map(|e| match e {
            ManagerEffect::Send { agent, msg } => Some((*agent, msg)),
            _ => None,
        })
        .collect()
}

fn timer_token(effects: &[ManagerEffect]) -> u64 {
    effects
        .iter()
        .rev()
        .find_map(|e| match e {
            ManagerEffect::SetTimer { token, .. } => Some(*token),
            _ => None,
        })
        .expect("a timer should be armed")
}

fn outcome(effects: &[ManagerEffect]) -> Option<&Outcome> {
    effects.iter().find_map(|e| match e {
        ManagerEffect::Complete(o) => Some(o),
        _ => None,
    })
}

fn reset_step(effects: &[ManagerEffect]) -> crate::messages::StepId {
    sends(effects)
        .iter()
        .find_map(|(_, m)| match m {
            ProtoMsg::Reset { step, .. } => Some(*step),
            _ => None,
        })
        .expect("a reset should be sent")
}

#[test]
fn identity_request_completes_immediately() {
    let (u, mut mgr) = world();
    let a = u.config_of(&["A"]);
    let eff = mgr.on_event(ManagerEvent::Request { source: a.clone(), target: a });
    let o = outcome(&eff).expect("immediate completion");
    assert!(o.success);
    assert_eq!(o.steps_committed, 0);
    assert_eq!(mgr.phase(), ManagerPhase::Running);
}

#[test]
fn happy_path_two_solo_steps() {
    let (u, mut mgr) = world();
    let eff = mgr.on_event(ManagerEvent::Request {
        source: u.config_of(&["A"]),
        target: u.config_of(&["C"]),
    });
    // Cheapest path is A->B then B->C (cost 2), both solo on agent 0.
    let s1 = reset_step(&eff);
    assert_eq!(sends(&eff).len(), 1);
    assert_eq!(mgr.phase(), ManagerPhase::Adapting);

    // Solo step: AdaptDone moves straight to Resuming without Resume sends.
    let eff =
        mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::AdaptDone { step: s1 } });
    assert!(sends(&eff).is_empty(), "no resume for solo steps");
    assert_eq!(mgr.phase(), ManagerPhase::Resuming);

    let eff =
        mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::ResumeDone { step: s1 } });
    assert_eq!(mgr.phase(), ManagerPhase::Adapting, "second step started");
    let s2 = reset_step(&eff);
    assert_ne!(s1, s2, "fresh attempt id per step");

    let _ =
        mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::AdaptDone { step: s2 } });
    let eff =
        mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::ResumeDone { step: s2 } });
    let o = outcome(&eff).expect("completion after last step");
    assert!(o.success);
    assert_eq!(o.steps_committed, 2);
    assert_eq!(o.final_config, u.config_of(&["C"]));
    assert_eq!(mgr.current_config(), &u.config_of(&["C"]));
}

#[test]
fn multi_agent_step_waits_for_all_before_resume() {
    let (u, mut mgr) = world_two_agents();
    let eff = mgr.on_event(ManagerEvent::Request {
        source: u.config_of(&["X1", "Y1"]),
        target: u.config_of(&["X2", "Y2"]),
    });
    let step = reset_step(&eff);
    assert_eq!(sends(&eff).len(), 2, "reset to both participants");

    let eff = mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::AdaptDone { step } });
    assert!(sends(&eff).is_empty(), "must hold until every agent adapted");
    assert_eq!(mgr.phase(), ManagerPhase::Adapting);

    let eff = mgr.on_event(ManagerEvent::AgentMsg { agent: 1, msg: ProtoMsg::AdaptDone { step } });
    let resumes = sends(&eff);
    assert_eq!(resumes.len(), 2, "resume broadcast after the barrier");
    assert!(resumes.iter().all(|(_, m)| matches!(m, ProtoMsg::Resume { .. })));

    let _ = mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::ResumeDone { step } });
    assert_eq!(mgr.phase(), ManagerPhase::Resuming);
    let eff = mgr.on_event(ManagerEvent::AgentMsg { agent: 1, msg: ProtoMsg::ResumeDone { step } });
    let o = outcome(&eff).expect("complete");
    assert!(o.success);
}

#[test]
fn timeout_retransmits_reset_then_rolls_back() {
    let (u, mut mgr) = world_two_agents();
    let eff = mgr.on_event(ManagerEvent::Request {
        source: u.config_of(&["X1", "Y1"]),
        target: u.config_of(&["X2", "Y2"]),
    });
    let mut token = timer_token(&eff);
    // send_retries retransmissions...
    for attempt in 0..ProtoTiming::default().send_retries {
        let eff = mgr.on_event(ManagerEvent::Timeout { token });
        let s = sends(&eff);
        assert!(
            s.iter().all(|(_, m)| matches!(m, ProtoMsg::Reset { .. })),
            "attempt {attempt} retransmits reset"
        );
        assert_eq!(s.len(), 2);
        token = timer_token(&eff);
    }
    // ...then the step is aborted with a rollback broadcast.
    let eff = mgr.on_event(ManagerEvent::Timeout { token });
    let s = sends(&eff);
    assert!(s.iter().all(|(_, m)| matches!(m, ProtoMsg::Rollback { .. })));
    assert_eq!(mgr.phase(), ManagerPhase::RollingBack);
}

#[test]
fn fail_to_reset_triggers_immediate_rollback() {
    let (u, mut mgr) = world();
    let eff = mgr.on_event(ManagerEvent::Request {
        source: u.config_of(&["A"]),
        target: u.config_of(&["C"]),
    });
    let step = reset_step(&eff);
    let eff =
        mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::FailToReset { step } });
    let s = sends(&eff);
    assert_eq!(s.len(), 1);
    assert!(matches!(s[0].1, ProtoMsg::Rollback { .. }));
    assert_eq!(mgr.phase(), ManagerPhase::RollingBack);
}

#[test]
fn solo_commit_evidence_during_rollback_adopts_the_commit() {
    // A solo participant resumes autonomously, so it can commit a step
    // before the rollback order of a manager deaf to its (lost) acks
    // reaches it. Past the point of no return the commit cannot be undone:
    // the agent's completion re-ack must abandon the rollback, adopt the
    // step as committed, and continue the path from there.
    let (u, mut mgr) = world();
    let eff = mgr.on_event(ManagerEvent::Request {
        source: u.config_of(&["A"]),
        target: u.config_of(&["C"]),
    });
    let step = reset_step(&eff);
    let mut token = timer_token(&eff);
    for _ in 0..ProtoTiming::default().send_retries {
        let eff = mgr.on_event(ManagerEvent::Timeout { token });
        token = timer_token(&eff);
    }
    let eff = mgr.on_event(ManagerEvent::Timeout { token });
    assert_eq!(mgr.phase(), ManagerPhase::RollingBack);
    assert!(sends(&eff).iter().all(|(_, m)| matches!(m, ProtoMsg::Rollback { .. })));

    // Instead of RollbackDone, the agent re-acks the completion it reached
    // on its own (AdaptDone is a stray here; ResumeDone is the evidence).
    let eff = mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::AdaptDone { step } });
    assert!(sends(&eff).is_empty(), "stray AdaptDone mid-rollback is inert: {eff:?}");
    let eff = mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::ResumeDone { step } });
    let records = journal_records(&eff);
    assert!(
        records.iter().any(|r| matches!(r, JournalRecord::StepCommitted { step: s } if *s == step)),
        "the commit is adopted: {records:?}"
    );
    assert!(
        !records.iter().any(|r| matches!(r, JournalRecord::RollbackComplete { .. })),
        "no rollback completion is fabricated: {records:?}"
    );
    // The path continues: next step dispatched from the committed config.
    assert_eq!(mgr.phase(), ManagerPhase::Adapting);
    assert_eq!(mgr.current_config(), &u.config_of(&["B"]));
    assert!(
        sends(&eff).iter().any(|(_, m)| matches!(m, ProtoMsg::Reset { .. })),
        "the next step starts immediately: {eff:?}"
    );
}

#[test]
fn recovery_ladder_retry_then_alternate_path_then_source_then_give_up() {
    let (u, mut mgr) = world();
    let a = u.config_of(&["A"]);
    let c = u.config_of(&["C"]);
    let eff = mgr.on_event(ManagerEvent::Request { source: a.clone(), target: c });
    let mut step = reset_step(&eff);

    let fail_step = |mgr: &mut ManagerCore, step| -> Vec<ManagerEffect> {
        let eff =
            mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::FailToReset { step } });
        assert_eq!(mgr.phase(), ManagerPhase::RollingBack);
        mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::RollbackDone { step } })
            .into_iter()
            .chain(eff)
            .collect()
    };

    // Failure 1: rung 1 = retry the same step once (same path, fresh id).
    let eff = fail_step(&mut mgr, step);
    let retry = reset_step(&eff);
    assert_ne!(retry, step);
    assert_eq!(mgr.phase(), ManagerPhase::Adapting);
    step = retry;

    // Failure 2: rung 2 = second-minimum path A->C (direct, cost 5).
    let eff = fail_step(&mut mgr, step);
    step = reset_step(&eff);

    // Failure 3: retry of the alternate path's step.
    let eff = fail_step(&mut mgr, step);
    step = reset_step(&eff);

    // Failure 4: no more paths to target; current==source so the "return to
    // source" rung completes instantly as an aborted adaptation.
    let eff = fail_step(&mut mgr, step);
    let o = outcome(&eff).expect("aborted completion at source");
    assert!(!o.success);
    assert!(!o.gave_up);
    assert_eq!(o.final_config, a);
    assert_eq!(mgr.phase(), ManagerPhase::Running);
}

#[test]
fn give_up_when_stranded_mid_path() {
    // Custom world without return edges: B is a dead end for going back.
    let mut u = Universe::new();
    for n in ["A", "B", "C"] {
        u.intern(n);
    }
    let actions = vec![
        Action::replace(0, "A->B", &u.config_of(&["A"]), &u.config_of(&["B"]), 1),
        Action::replace(1, "B->C", &u.config_of(&["B"]), &u.config_of(&["C"]), 1),
    ];
    let inv = InvariantSet::parse(&["one_of(A, B, C)"], &mut u).unwrap();
    let search = Search::new(&inv, &actions, u.len());
    let mut model = SystemModel::new();
    let p0 = model.add_process();
    model.place_all(&u, &[("A", p0), ("B", p0), ("C", p0)]);
    let planner = SearchPlanner::new(search, model, HashSet::new());
    let mut mgr = ManagerCore::new(ProtoTiming::default(), Box::new(planner));

    let eff = mgr.on_event(ManagerEvent::Request {
        source: u.config_of(&["A"]),
        target: u.config_of(&["C"]),
    });
    let s1 = reset_step(&eff);
    // Step 1 (A->B) commits.
    let _ =
        mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::AdaptDone { step: s1 } });
    let eff =
        mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::ResumeDone { step: s1 } });
    let mut step = reset_step(&eff);

    // Step 2 (B->C) keeps failing: retry rung, re-selection of the B->C
    // path from the new current config, its retry, then — with no other
    // path to C and no way back to A from B — the manager gives up at B.
    for _ in 0..6 {
        let eff1 =
            mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::FailToReset { step } });
        let _ = eff1;
        let eff2 =
            mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::RollbackDone { step } });
        if let Some(o) = outcome(&eff2) {
            assert!(o.gave_up);
            assert!(!o.success);
            assert_eq!(o.final_config, u.config_of(&["B"]), "stranded at the safe config B");
            assert_eq!(mgr.phase(), ManagerPhase::GaveUp);
            return;
        }
        step = reset_step(&eff2);
    }
    panic!("manager should have given up");
}

/// The anomaly is on the stream: the timeout at the force limit, then the
/// commit it forces. Dropping `TimeoutFired` at the force limit fails here.
#[test]
fn resume_timeout_forces_completion_with_warning() {
    let (u, mut mgr) = world_two_agents();
    let eff = mgr.on_event(ManagerEvent::Request {
        source: u.config_of(&["X1", "Y1"]),
        target: u.config_of(&["X2", "Y2"]),
    });
    let step = reset_step(&eff);
    let _ = mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::AdaptDone { step } });
    let eff = mgr.on_event(ManagerEvent::AgentMsg { agent: 1, msg: ProtoMsg::AdaptDone { step } });
    let mut token = timer_token(&eff);
    // Agent 1's ResumeDone never arrives.
    let _ = mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::ResumeDone { step } });
    let mut final_outcome = None;
    for _ in 0..=ProtoTiming::default().resume_force_limit {
        let eff = mgr.on_event(ManagerEvent::Timeout { token });
        if let Some(o) = outcome(&eff) {
            final_outcome = Some(o.clone());
            break;
        }
        let s = sends(&eff);
        assert!(s.iter().all(|(a, m)| *a == 1 && matches!(m, ProtoMsg::Resume { .. })));
        token = timer_token(&eff);
    }
    let o = final_outcome.expect("force completion");
    assert!(o.success, "after resume the adaptation runs to completion");
    let limit = ProtoTiming::default().resume_force_limit;
    let obs = mgr.drain_obs();
    let forced = obs.iter().position(|p| {
        matches!(p, Payload::Proto(ProtoEvent::TimeoutFired { phase: ManagerPhaseTag::Resuming, retries, .. }) if *retries == limit)
    });
    let forced = forced.expect("the anomaly is recorded: a timeout at the force limit");
    assert_eq!(
        obs.get(forced + 1),
        Some(&Payload::Proto(ProtoEvent::StepCommitted { step: step.0 })),
        "and the commit it forced follows it"
    );
}

#[test]
fn stale_messages_and_timers_ignored() {
    let (u, mut mgr) = world();
    let eff = mgr.on_event(ManagerEvent::Request {
        source: u.config_of(&["A"]),
        target: u.config_of(&["C"]),
    });
    let token = timer_token(&eff);
    assert!(mgr
        .on_event(ManagerEvent::AgentMsg {
            agent: 0,
            msg: ProtoMsg::AdaptDone { step: crate::messages::StepId(9999) }
        })
        .is_empty());
    assert!(mgr.on_event(ManagerEvent::Timeout { token: token + 12345 }).is_empty());
    assert_eq!(mgr.phase(), ManagerPhase::Adapting, "unmoved by stale inputs");
}

#[test]
fn second_request_while_busy_is_queued_and_served() {
    let (u, mut mgr) = world();
    let eff = mgr.on_event(ManagerEvent::Request {
        source: u.config_of(&["A"]),
        target: u.config_of(&["B"]),
    });
    let s1 = reset_step(&eff);
    // A second request arrives mid-adaptation: queued, nothing sent.
    let eff = mgr.on_event(ManagerEvent::Request {
        source: u.config_of(&["B"]),
        target: u.config_of(&["C"]),
    });
    assert!(sends(&eff).is_empty());
    // The deferral is journaled, so a restarted manager still serves it,
    // and the record is all it produces.
    let queued = matches!(eff.as_slice(), [ManagerEffect::Journal(JournalRecord::Queued { .. })]);
    assert!(queued, "{eff:?}");
    // Finish the first adaptation; the queued one starts automatically.
    let _ =
        mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::AdaptDone { step: s1 } });
    let eff =
        mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::ResumeDone { step: s1 } });
    let o = outcome(&eff).expect("first adaptation completes");
    assert!(o.success);
    assert_eq!(o.final_config, u.config_of(&["B"]));
    let s2 = reset_step(&eff);
    assert_eq!(mgr.phase(), ManagerPhase::Adapting, "queued request underway");
    let _ =
        mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::AdaptDone { step: s2 } });
    let eff =
        mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::ResumeDone { step: s2 } });
    let o = outcome(&eff).expect("second adaptation completes");
    assert!(o.success);
    assert_eq!(o.final_config, u.config_of(&["C"]));
}

#[test]
fn queued_request_with_stale_source_is_reanchored() {
    let (u, mut mgr) = world();
    let eff = mgr.on_event(ManagerEvent::Request {
        source: u.config_of(&["A"]),
        target: u.config_of(&["B"]),
    });
    let s1 = reset_step(&eff);
    // Queued request claims the system is still at A; by the time it runs
    // the system is at B, and the manager must plan from B.
    let _ = mgr.on_event(ManagerEvent::Request {
        source: u.config_of(&["A"]),
        target: u.config_of(&["C"]),
    });
    let _ =
        mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::AdaptDone { step: s1 } });
    let eff =
        mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::ResumeDone { step: s1 } });
    let s2 = reset_step(&eff);
    let _ =
        mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::AdaptDone { step: s2 } });
    let eff =
        mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::ResumeDone { step: s2 } });
    let o = outcome(&eff).expect("completes");
    assert!(o.success);
    assert_eq!(o.final_config, u.config_of(&["C"]), "planned B -> C, not A -> C");
}

#[test]
fn unreachable_target_gives_up_immediately() {
    let (u, mut mgr) = world();
    // No action ever removes C and adds A+B simultaneously to form {A,B}…
    // and {A,B} is not even safe. Planner returns nothing.
    let eff = mgr.on_event(ManagerEvent::Request {
        source: u.config_of(&["C"]),
        target: u.config_of(&["A", "B"]),
    });
    let o = outcome(&eff).expect("no plan => immediate resolution");
    assert!(!o.success);
    // It "returns to source" trivially (already there), so not a give-up.
    assert!(!o.gave_up);
    assert_eq!(o.final_config, u.config_of(&["C"]));
}

// --- crash/rejoin resynchronization (the fault-injection extension) ------

#[test]
fn rejoin_while_adapting_restarts_the_agents_step() {
    let (u, mut mgr) = world_two_agents();
    let eff = mgr.on_event(ManagerEvent::Request {
        source: u.config_of(&["X1", "Y1"]),
        target: u.config_of(&["X2", "Y2"]),
    });
    let step = reset_step(&eff);
    // Agent 0 acknowledges, then crashes and comes back with nothing.
    let _ = mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::AdaptDone { step } });
    let eff = mgr.on_event(ManagerEvent::AgentMsg {
        agent: 0,
        msg: ProtoMsg::Rejoin { last_completed: None },
    });
    let s = sends(&eff);
    assert_eq!(s.len(), 1, "targeted re-reset, not a broadcast");
    assert!(matches!(s[0], (0, ProtoMsg::Reset { .. })), "{s:?}");
    assert_eq!(mgr.phase(), ManagerPhase::Adapting);

    // The pre-crash AdaptDone was voided: the barrier waits for agent 0
    // again, then the run converges normally.
    let _ = mgr.on_event(ManagerEvent::AgentMsg { agent: 1, msg: ProtoMsg::AdaptDone { step } });
    assert_eq!(mgr.phase(), ManagerPhase::Adapting, "still waiting for the restarted agent");
    let eff = mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::AdaptDone { step } });
    assert_eq!(sends(&eff).len(), 2, "resume broadcast once both re-adapted");
    let _ = mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::ResumeDone { step } });
    let eff = mgr.on_event(ManagerEvent::AgentMsg { agent: 1, msg: ProtoMsg::ResumeDone { step } });
    assert!(outcome(&eff).expect("completes").success);
}

#[test]
fn rejoin_carrying_the_current_step_is_proof_of_completion() {
    let (u, mut mgr) = world_two_agents();
    let eff = mgr.on_event(ManagerEvent::Request {
        source: u.config_of(&["X1", "Y1"]),
        target: u.config_of(&["X2", "Y2"]),
    });
    let step = reset_step(&eff);
    let _ = mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::AdaptDone { step } });
    let _ = mgr.on_event(ManagerEvent::AgentMsg { agent: 1, msg: ProtoMsg::AdaptDone { step } });
    let _ = mgr.on_event(ManagerEvent::AgentMsg { agent: 1, msg: ProtoMsg::ResumeDone { step } });
    assert_eq!(mgr.phase(), ManagerPhase::Resuming);
    // Agent 0 committed the step, crashed before its ResumeDone was heard,
    // and rejoins advertising the durable completion: the rejoin itself
    // closes the barrier.
    let eff = mgr.on_event(ManagerEvent::AgentMsg {
        agent: 0,
        msg: ProtoMsg::Rejoin { last_completed: Some(step) },
    });
    let o = outcome(&eff).expect("rejoin is proof of completion");
    assert!(o.success);
    assert_eq!(o.final_config, u.config_of(&["X2", "Y2"]));
}

#[test]
fn rejoin_mid_resume_reruns_the_step_to_completion() {
    let (u, mut mgr) = world_two_agents();
    let eff = mgr.on_event(ManagerEvent::Request {
        source: u.config_of(&["X1", "Y1"]),
        target: u.config_of(&["X2", "Y2"]),
    });
    let step = reset_step(&eff);
    let _ = mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::AdaptDone { step } });
    let _ = mgr.on_event(ManagerEvent::AgentMsg { agent: 1, msg: ProtoMsg::AdaptDone { step } });
    let _ = mgr.on_event(ManagerEvent::AgentMsg { agent: 1, msg: ProtoMsg::ResumeDone { step } });
    // Agent 0's uncommitted in-action died with the crash even though the
    // resume barrier passed: the step must still run to completion.
    let eff = mgr.on_event(ManagerEvent::AgentMsg {
        agent: 0,
        msg: ProtoMsg::Rejoin { last_completed: None },
    });
    let s = sends(&eff);
    assert!(matches!(s[..], [(0, ProtoMsg::Reset { .. })]), "{s:?}");
    // This time the re-acknowledgement earns a *targeted* resume.
    let eff = mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::AdaptDone { step } });
    let s = sends(&eff);
    assert!(matches!(s[..], [(0, ProtoMsg::Resume { .. })]), "{s:?}");
    let eff = mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::ResumeDone { step } });
    assert!(outcome(&eff).expect("completes").success);
}

#[test]
fn rejoin_while_rolling_back_resends_rollback() {
    let (u, mut mgr) = world_two_agents();
    let eff = mgr.on_event(ManagerEvent::Request {
        source: u.config_of(&["X1", "Y1"]),
        target: u.config_of(&["X2", "Y2"]),
    });
    let step = reset_step(&eff);
    let _ = mgr.on_event(ManagerEvent::AgentMsg { agent: 1, msg: ProtoMsg::FailToReset { step } });
    assert_eq!(mgr.phase(), ManagerPhase::RollingBack);
    // Agent 0 crashed during the abort; the restarted incarnation holds no
    // change to undo, but its RollbackDone is still owed.
    let eff = mgr.on_event(ManagerEvent::AgentMsg {
        agent: 0,
        msg: ProtoMsg::Rejoin { last_completed: None },
    });
    let s = sends(&eff);
    assert!(matches!(s[..], [(0, ProtoMsg::Rollback { .. })]), "{s:?}");
    let _ = mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::RollbackDone { step } });
    let eff =
        mgr.on_event(ManagerEvent::AgentMsg { agent: 1, msg: ProtoMsg::RollbackDone { step } });
    // Ladder rung 1: the step is retried with a fresh attempt id.
    let retry = reset_step(&eff);
    assert_ne!(retry, step);
}

#[test]
fn rejoin_when_idle_or_from_nonparticipant_is_informational() {
    let (u, mut mgr) = world();
    // Idle: nothing to resynchronize.
    let eff = mgr.on_event(ManagerEvent::AgentMsg {
        agent: 0,
        msg: ProtoMsg::Rejoin { last_completed: None },
    });
    assert!(sends(&eff).is_empty());
    assert_eq!(mgr.phase(), ManagerPhase::Running);
    // Mid-adaptation, an agent with no role in the current step just gets
    // noted.
    let _ = mgr.on_event(ManagerEvent::Request {
        source: u.config_of(&["A"]),
        target: u.config_of(&["C"]),
    });
    let eff = mgr.on_event(ManagerEvent::AgentMsg {
        agent: 3,
        msg: ProtoMsg::Rejoin { last_completed: None },
    });
    assert!(sends(&eff).is_empty());
    assert_eq!(mgr.phase(), ManagerPhase::Adapting, "step undisturbed");
}

#[test]
fn timer_tokens_strictly_increase_and_stale_timeouts_are_inert() {
    let (u, mut mgr) = world_two_agents();
    let eff = mgr.on_event(ManagerEvent::Request {
        source: u.config_of(&["X1", "Y1"]),
        target: u.config_of(&["X2", "Y2"]),
    });
    let t1 = timer_token(&eff);
    let eff = mgr.on_event(ManagerEvent::Timeout { token: t1 });
    let t2 = timer_token(&eff);
    assert!(t2 > t1, "tokens must be strictly monotonic: {t1} then {t2}");
    // A timeout for the superseded timer must not burn a retry or abort
    // the step: only the newest token is live.
    let eff = mgr.on_event(ManagerEvent::Timeout { token: t1 });
    assert!(eff.is_empty(), "stale timer token must be ignored: {eff:?}");
    assert_eq!(mgr.phase(), ManagerPhase::Adapting);
}

// --- duplicate-delivery idempotence (barrier guards) ---------------------

#[test]
fn duplicate_adapt_done_before_the_barrier_is_inert() {
    let (u, mut mgr) = world_two_agents();
    let eff = mgr.on_event(ManagerEvent::Request {
        source: u.config_of(&["X1", "Y1"]),
        target: u.config_of(&["X2", "Y2"]),
    });
    let step = reset_step(&eff);
    let _ = mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::AdaptDone { step } });
    // The network re-delivers agent 0's AdaptDone: it must not count twice
    // toward the barrier (the step would resume with agent 1 unsafe).
    let eff = mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::AdaptDone { step } });
    assert!(eff.is_empty(), "duplicate must be dropped: {eff:?}");
    assert_eq!(mgr.phase(), ManagerPhase::Adapting);
    let eff = mgr.on_event(ManagerEvent::AgentMsg { agent: 1, msg: ProtoMsg::AdaptDone { step } });
    assert_eq!(sends(&eff).len(), 2, "barrier still waited for agent 1");
}

#[test]
fn duplicate_resume_done_after_the_transition_is_inert() {
    let (u, mut mgr) = world_two_agents();
    let eff = mgr.on_event(ManagerEvent::Request {
        source: u.config_of(&["X1", "Y1"]),
        target: u.config_of(&["X2", "Y2"]),
    });
    let step = reset_step(&eff);
    let _ = mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::AdaptDone { step } });
    let _ = mgr.on_event(ManagerEvent::AgentMsg { agent: 1, msg: ProtoMsg::AdaptDone { step } });
    let _ = mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::ResumeDone { step } });
    // Replayed ResumeDone from the already-counted agent: no double-count,
    // no premature commit.
    let eff = mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::ResumeDone { step } });
    assert!(eff.is_empty(), "duplicate must be dropped: {eff:?}");
    assert_eq!(mgr.phase(), ManagerPhase::Resuming, "commit must wait for agent 1");
    let eff = mgr.on_event(ManagerEvent::AgentMsg { agent: 1, msg: ProtoMsg::ResumeDone { step } });
    assert!(outcome(&eff).expect("commit on the real final ack").success);
}

#[test]
fn duplicate_rollback_done_is_inert() {
    let (u, mut mgr) = world_two_agents();
    let eff = mgr.on_event(ManagerEvent::Request {
        source: u.config_of(&["X1", "Y1"]),
        target: u.config_of(&["X2", "Y2"]),
    });
    let step = reset_step(&eff);
    let _ = mgr.on_event(ManagerEvent::AgentMsg { agent: 1, msg: ProtoMsg::FailToReset { step } });
    assert_eq!(mgr.phase(), ManagerPhase::RollingBack);
    let _ = mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::RollbackDone { step } });
    let eff =
        mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::RollbackDone { step } });
    assert!(eff.is_empty(), "duplicate must not close the rollback barrier: {eff:?}");
    assert_eq!(mgr.phase(), ManagerPhase::RollingBack);
    let eff =
        mgr.on_event(ManagerEvent::AgentMsg { agent: 1, msg: ProtoMsg::RollbackDone { step } });
    let retry = reset_step(&eff);
    assert_ne!(retry, step, "exactly one retry, on the real final ack");
}

// --- durable manager: journal, restore, reconciliation -------------------

fn journal_records(effects: &[ManagerEffect]) -> Vec<JournalRecord> {
    effects
        .iter()
        .filter_map(|e| match e {
            ManagerEffect::Journal(rec) => Some(rec.clone()),
            _ => None,
        })
        .collect()
}

/// Synchronous lockstep harness: delivers manager sends straight to
/// in-process [`AgentCore`]s, auto-drives their local-process callbacks, and
/// feeds the replies back — no network, no clock, nothing lost, so timers
/// never fire. Step attempts whose id is in `fail_steps` fail-to-reset;
/// keying failures to the attempt id (which the journal makes stable across
/// a manager restart) lets a restored run make exactly the choices the
/// uninterrupted run made.
struct Lockstep {
    agents: Vec<AgentCore>,
    fail_steps: HashSet<u64>,
    journal: Vec<JournalRecord>,
    outcome: Option<Outcome>,
}

impl Lockstep {
    fn new(agent_count: usize, fail_steps: HashSet<u64>) -> Self {
        Lockstep {
            agents: (0..agent_count).map(|_| AgentCore::new()).collect(),
            fail_steps,
            journal: Vec::new(),
            outcome: None,
        }
    }

    /// Journal records and the outcome are kept; sends are queued.
    fn absorb(&mut self, effects: Vec<ManagerEffect>, inbox: &mut VecDeque<(usize, ProtoMsg)>) {
        for eff in effects {
            match eff {
                ManagerEffect::Journal(rec) => self.journal.push(rec),
                ManagerEffect::Send { agent, msg } => inbox.push_back((agent, msg)),
                ManagerEffect::Complete(o) => self.outcome = Some(o),
                _ => {}
            }
        }
    }

    /// Delivers one message to an agent, auto-completing every local process
    /// action it requests, and returns the agent's protocol replies in order.
    fn agent_replies(&mut self, ix: usize, msg: ProtoMsg) -> Vec<ProtoMsg> {
        let mut replies = Vec::new();
        let mut events = VecDeque::from([AgentEvent::Msg(msg)]);
        while let Some(ev) = events.pop_front() {
            for eff in self.agents[ix].on_event(ev) {
                match eff {
                    AgentEffect::Send(m) => replies.push(m),
                    AgentEffect::BeginReset(_) => {
                        let fails = self.agents[ix]
                            .current_step()
                            .is_some_and(|s| self.fail_steps.contains(&s.0));
                        events.push_back(if fails {
                            AgentEvent::CannotReset
                        } else {
                            AgentEvent::SafeReached
                        });
                    }
                    AgentEffect::DoInAction(_) => events.push_back(AgentEvent::InActionDone),
                    AgentEffect::DoResume => events.push_back(AgentEvent::ResumeFinished),
                    AgentEffect::DoRollback(_) => events.push_back(AgentEvent::RollbackFinished),
                    AgentEffect::PreAction(_) | AgentEffect::PostAction(_) => {}
                }
            }
        }
        replies
    }

    /// Pumps messages to quiescence. With `crash_at = Some(k)`, stops (and
    /// returns `true`) as soon as the journal holds at least `k` records —
    /// the undelivered remainder of `inbox` dies with the crash.
    fn run(
        &mut self,
        mgr: &mut ManagerCore,
        mut inbox: VecDeque<(usize, ProtoMsg)>,
        crash_at: Option<usize>,
    ) -> bool {
        let mut budget = 10_000u32;
        while let Some((ix, msg)) = inbox.pop_front() {
            for reply in self.agent_replies(ix, msg) {
                let eff = mgr.on_event(ManagerEvent::AgentMsg { agent: ix, msg: reply });
                self.absorb(eff, &mut inbox);
                if crash_at.is_some_and(|k| self.journal.len() >= k) {
                    return true;
                }
            }
            budget -= 1;
            assert!(budget > 0, "lockstep run did not converge");
        }
        false
    }
}

/// A fresh manager plus the request endpoints and agent count for one of the
/// two fixture worlds.
fn scenario(two_agents: bool) -> (ManagerCore, Config, Config, usize) {
    if two_agents {
        let (u, mgr) = world_two_agents();
        (mgr, u.config_of(&["X1", "Y1"]), u.config_of(&["X2", "Y2"]), 2)
    } else {
        let (u, mgr) = world();
        (mgr, u.config_of(&["A"]), u.config_of(&["C"]), 1)
    }
}

/// Runs an adaptation to quiescence without any crash.
fn uninterrupted(two_agents: bool, fail_steps: &HashSet<u64>) -> (Config, Vec<JournalRecord>) {
    let (mut mgr, source, target, n) = scenario(two_agents);
    let mut net = Lockstep::new(n, fail_steps.clone());
    let mut inbox = VecDeque::new();
    let eff = mgr.on_event(ManagerEvent::Request { source, target });
    net.absorb(eff, &mut inbox);
    assert!(!net.run(&mut mgr, inbox, None));
    (mgr.current_config().clone(), net.journal)
}

/// Runs the same adaptation, crashes the manager as soon as the journal
/// holds `crash_at` records (in-flight messages die; agents keep their
/// state), restores a new incarnation from the journal, and drives the
/// reconciliation round plus the rest of the run to quiescence.
fn crash_then_restore(
    two_agents: bool,
    fail_steps: &HashSet<u64>,
    crash_at: usize,
) -> (Config, Vec<JournalRecord>) {
    let (mut mgr, source, target, n) = scenario(two_agents);
    let mut net = Lockstep::new(n, fail_steps.clone());
    let mut inbox = VecDeque::new();
    let eff = mgr.on_event(ManagerEvent::Request { source, target });
    net.absorb(eff, &mut inbox);
    let crashed = net.journal.len() >= crash_at || net.run(&mut mgr, inbox, Some(crash_at));
    assert!(crashed, "journal never reached {crash_at} records");
    // The dead incarnation's volatile state is gone; only the planner (a
    // stateless service in the sim) and the journal survive.
    let (mut mgr, eff) =
        ManagerCore::restore(ProtoTiming::default(), mgr.into_planner(), &net.journal)
            .expect("persisted journal prefix must replay");
    let mut inbox = VecDeque::new();
    net.absorb(eff, &mut inbox);
    assert!(!net.run(&mut mgr, inbox, None));
    (mgr.current_config().clone(), net.journal)
}

#[test]
fn restore_of_empty_journal_is_a_fresh_idle_manager() {
    let (_, mgr) = world();
    let (mgr, eff) = ManagerCore::restore(ProtoTiming::default(), mgr.into_planner(), &[]).unwrap();
    assert_eq!(mgr.phase(), ManagerPhase::Running);
    assert!(sends(&eff).is_empty());
}

#[test]
fn restore_mid_adapt_probes_every_participant_and_rearms_the_timer() {
    let (u, mgr) = world_two_agents();
    let mut live = ManagerCore::new(ProtoTiming::default(), mgr.into_planner());
    let eff = live.on_event(ManagerEvent::Request {
        source: u.config_of(&["X1", "Y1"]),
        target: u.config_of(&["X2", "Y2"]),
    });
    let step = reset_step(&eff);
    let journal = journal_records(&eff);
    assert!(matches!(journal.last(), Some(JournalRecord::StepStarted { .. })), "{journal:?}");

    let (mut mgr, eff) =
        ManagerCore::restore(ProtoTiming::default(), live.into_planner(), &journal).unwrap();
    assert_eq!(mgr.phase(), ManagerPhase::Adapting);
    let probes = sends(&eff);
    assert_eq!(probes.len(), 2, "one QueryState per participant: {probes:?}");
    assert!(probes.iter().all(|(_, m)| matches!(m, ProtoMsg::QueryState)));
    let _ = timer_token(&eff); // lost probes degrade into the timeout ladder

    // Agent 0 already adapted before the crash; agent 1 never got its Reset.
    let eff = mgr.on_event(ManagerEvent::AgentMsg {
        agent: 0,
        msg: ProtoMsg::StateReport {
            engaged: Some(step),
            adapted: true,
            failed: false,
            last_completed: None,
        },
    });
    assert!(sends(&eff).is_empty(), "adapted participant is simply counted: {eff:?}");
    let eff = mgr.on_event(ManagerEvent::AgentMsg {
        agent: 1,
        msg: ProtoMsg::StateReport {
            engaged: None,
            adapted: false,
            failed: false,
            last_completed: None,
        },
    });
    let s = sends(&eff);
    assert!(matches!(s[..], [(1, ProtoMsg::Reset { .. })]), "idle participant is re-reset: {s:?}");
    // The step then converges normally.
    let _ = mgr.on_event(ManagerEvent::AgentMsg { agent: 1, msg: ProtoMsg::AdaptDone { step } });
    let _ = mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::ResumeDone { step } });
    let eff = mgr.on_event(ManagerEvent::AgentMsg { agent: 1, msg: ProtoMsg::ResumeDone { step } });
    assert!(outcome(&eff).expect("completes after reconciliation").success);
}

#[test]
fn restore_after_rollback_issued_reissues_rollback_not_resume() {
    // The satellite scenario: crash between "rollback issued" and "rollback
    // done". The restored manager must drive the rollback to completion —
    // never resume a step that was condemned before the crash.
    let (u, mgr) = world_two_agents();
    let mut live = ManagerCore::new(ProtoTiming::default(), mgr.into_planner());
    let eff = live.on_event(ManagerEvent::Request {
        source: u.config_of(&["X1", "Y1"]),
        target: u.config_of(&["X2", "Y2"]),
    });
    let step = reset_step(&eff);
    let mut journal = journal_records(&eff);
    let eff =
        live.on_event(ManagerEvent::AgentMsg { agent: 1, msg: ProtoMsg::FailToReset { step } });
    journal.extend(journal_records(&eff));
    assert!(matches!(journal.last(), Some(JournalRecord::RollbackIssued { .. })), "{journal:?}");

    let (mut mgr, eff) =
        ManagerCore::restore(ProtoTiming::default(), live.into_planner(), &journal).unwrap();
    assert_eq!(mgr.phase(), ManagerPhase::RollingBack);
    assert!(sends(&eff).iter().all(|(_, m)| matches!(m, ProtoMsg::QueryState)));

    // Agent 0 is still holding the step: it gets the rollback again. No
    // Resume may ever be sent from this state.
    let eff = mgr.on_event(ManagerEvent::AgentMsg {
        agent: 0,
        msg: ProtoMsg::StateReport {
            engaged: Some(step),
            adapted: true,
            failed: false,
            last_completed: None,
        },
    });
    let s = sends(&eff);
    assert!(matches!(s[..], [(0, ProtoMsg::Rollback { .. })]), "{s:?}");
    // Agent 1 (the fail-to-reset reporter) rejoined idle: nothing to undo,
    // its rollback obligation is discharged synthetically.
    let _ = mgr.on_event(ManagerEvent::AgentMsg {
        agent: 1,
        msg: ProtoMsg::StateReport {
            engaged: None,
            adapted: false,
            failed: false,
            last_completed: None,
        },
    });
    let eff =
        mgr.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::RollbackDone { step } });
    let retry = reset_step(&eff);
    assert_ne!(retry, step, "ladder continues with the retry rung after the rollback");
    assert_eq!(mgr.phase(), ManagerPhase::Adapting);
}

#[test]
fn restore_between_decisions_retakes_the_decision_live() {
    // Journal ends at StepCommitted: the crash swallowed the next step's
    // resets. Restore must re-take the (deterministic) decision and re-send.
    let (u, mgr) = world();
    let mut live = ManagerCore::new(ProtoTiming::default(), mgr.into_planner());
    let eff = live.on_event(ManagerEvent::Request {
        source: u.config_of(&["A"]),
        target: u.config_of(&["C"]),
    });
    let s1 = reset_step(&eff);
    let mut journal = journal_records(&eff);
    let _ =
        live.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::AdaptDone { step: s1 } });
    let eff =
        live.on_event(ManagerEvent::AgentMsg { agent: 0, msg: ProtoMsg::ResumeDone { step: s1 } });
    journal.extend(journal_records(&eff));
    let s2 = reset_step(&eff);
    // Truncate to the commit: the dead incarnation decided the commit but
    // its second StepStarted record (and resets) never made it out.
    let cut = journal
        .iter()
        .position(|r| matches!(r, JournalRecord::StepCommitted { .. }))
        .expect("first step committed")
        + 1;
    let (mgr, eff) =
        ManagerCore::restore(ProtoTiming::default(), live.into_planner(), &journal[..cut]).unwrap();
    assert_eq!(mgr.phase(), ManagerPhase::Adapting);
    assert_eq!(reset_step(&eff), s2, "same attempt id as the uninterrupted run");
    assert!(
        journal_records(&eff).iter().any(|r| matches!(r, JournalRecord::StepStarted { .. })),
        "the re-taken decision is re-journaled"
    );
}

#[test]
fn restore_rejects_a_journal_the_planner_cannot_replay() {
    let (u, mgr) = world();
    let journal = vec![
        JournalRecord::Request { source: u.config_of(&["A"]), target: u.config_of(&["C"]) },
        JournalRecord::PathSelected { actions: vec![sada_plan::ActionId(99)] },
    ];
    let err = ManagerCore::restore(ProtoTiming::default(), mgr.into_planner(), &journal)
        .expect_err("foreign path must not replay");
    assert!(err.contains("record 1"), "{err}");
}

#[test]
fn crash_at_every_journal_prefix_converges_to_the_uninterrupted_config() {
    // The acceptance property, exhaustively over crash points, for both
    // fixture worlds on the happy path.
    for two_agents in [false, true] {
        let none = HashSet::new();
        let (final_config, journal) = uninterrupted(two_agents, &none);
        assert!(matches!(journal.last(), Some(JournalRecord::Outcome { success: true, .. })));
        for crash_at in 1..=journal.len() {
            let (config, replayed) = crash_then_restore(two_agents, &none, crash_at);
            assert_eq!(config, final_config, "crash at prefix {crash_at} diverged");
            assert_eq!(replayed, journal, "journal after crash at {crash_at} diverged");
        }
    }
}

mod replay_equivalence {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Satellite property: for any pattern of fail-to-reset faults and
        /// any crash point, replay(prefix) + reconciliation + live
        /// completion reaches the same final configuration — and writes the
        /// same journal — as the uninterrupted run.
        #[test]
        fn replay_prefix_then_live_completion_matches_uninterrupted(
            two_agents in any::<bool>(),
            fail_mask in 0u8..64,
        ) {
            let fail_steps: HashSet<u64> =
                (0..6).filter(|b| fail_mask & (1 << b) != 0).map(|b| b + 1).collect();
            let (final_config, journal) = uninterrupted(two_agents, &fail_steps);
            for crash_at in 1..=journal.len() {
                let (config, replayed) = crash_then_restore(two_agents, &fail_steps, crash_at);
                prop_assert_eq!(&config, &final_config, "crash at prefix {} diverged", crash_at);
                prop_assert_eq!(&replayed, &journal, "journal after crash at {} diverged", crash_at);
            }
        }
    }
}
