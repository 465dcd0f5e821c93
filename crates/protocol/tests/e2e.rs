//! End-to-end protocol runs over the simulated network: manager + scripted
//! agents, with the paper's failure classes injected through link loss,
//! partitions, and fail-to-reset agents.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use sada_expr::{Config, InvariantSet, Universe};
use sada_model::SystemModel;
use sada_obs::{Bus, Counts, Kind};
use sada_plan::{Action, ActionId, Search};
use sada_proto::{
    encode_journal, AgentTiming, ManagerActor, ProtoTimer, ProtoTiming, ScriptedAgent,
    SearchPlanner, Wire,
};
use sada_simnet::{ActorId, LinkConfig, SimDuration, Simulator};

type Msg = Wire<()>;

struct World {
    sim: Simulator<Msg, ProtoTimer>,
    manager: ActorId,
    agents: Vec<ActorId>,
    universe: Universe,
    /// The manager's events, counted per kind.
    counts: Rc<RefCell<Counts>>,
}

/// Two-agent system: encoder-ish component on agent 0, decoder-ish on
/// agent 1, moved together or separately.
fn build_world(seed: u64, source: &[&str], target: &[&str], timing: ProtoTiming) -> World {
    let mut u = Universe::new();
    for n in ["X1", "X2", "Y1", "Y2"] {
        u.intern(n);
    }
    let actions = vec![
        Action::replace(0, "X1->X2", &u.config_of(&["X1"]), &u.config_of(&["X2"]), 10),
        Action::replace(1, "Y1->Y2", &u.config_of(&["Y1"]), &u.config_of(&["Y2"]), 10),
        Action::replace(
            2,
            "(X1,Y1)->(X2,Y2)",
            &u.config_of(&["X1", "Y1"]),
            &u.config_of(&["X2", "Y2"]),
            100,
        ),
        Action::replace(3, "X2->X1", &u.config_of(&["X2"]), &u.config_of(&["X1"]), 10),
        Action::replace(4, "Y2->Y1", &u.config_of(&["Y2"]), &u.config_of(&["Y1"]), 10),
    ];
    // Y2 only works with X2 (like the paper's E2 needing D3/D2).
    let inv =
        InvariantSet::parse(&["one_of(X1, X2)", "one_of(Y1, Y2)", "Y2 => X2"], &mut u).unwrap();
    let search = Search::new(&inv, &actions, u.len());
    let mut model = SystemModel::new();
    let p0 = model.add_process();
    let p1 = model.add_process();
    model.place_all(&u, &[("X1", p0), ("X2", p0), ("Y1", p1), ("Y2", p1)]);
    let drain: HashSet<ActionId> = [ActionId(2)].into();
    let planner = SearchPlanner::new(search, model, drain);

    let mut sim: Simulator<Msg, ProtoTimer> = Simulator::new(seed);
    let (bus, counts) = (Bus::new(), Rc::new(RefCell::new(Counts::new())));
    bus.attach(&counts);
    // Agents must exist before the manager so their ids are known.
    let a0 = sim
        .add_actor("agent-x", ScriptedAgent::new(ActorId::from_index(2), AgentTiming::default()));
    let a1 = sim
        .add_actor("agent-y", ScriptedAgent::new(ActorId::from_index(2), AgentTiming::default()));
    let manager = sim.add_actor(
        "manager",
        ManagerActor::<()>::new(
            timing,
            Box::new(planner),
            vec![a0, a1],
            u.config_of(source),
            u.config_of(target),
        )
        .with_bus(bus),
    );
    assert_eq!(manager, ActorId::from_index(2), "manager id wired into agents");
    World { sim, manager, agents: vec![a0, a1], universe: u, counts }
}

/// The manager's journal, as text: what a failed assertion prints.
fn journal_of(world: &World) -> String {
    encode_journal(&world.sim.actor::<ManagerActor<()>>(world.manager).unwrap().journal)
}

fn outcome_of(world: &Simulator<Msg, ProtoTimer>, manager: ActorId) -> sada_proto::Outcome {
    world
        .actor::<ManagerActor<()>>(manager)
        .expect("manager actor")
        .outcome
        .clone()
        .expect("adaptation finished")
}

/// Final config implied by the actions the agents actually applied.
fn replay_applied(
    _u: &Universe,
    world: &Simulator<Msg, ProtoTimer>,
    agents: &[ActorId],
    actions: &[Action],
    start: &Config,
) -> Config {
    let mut all: Vec<(u64, ActionId, bool)> = Vec::new();
    // ScriptedAgent.applied is in per-agent order; we don't have global
    // timestamps, but forward/undo pairs per action commute here because
    // each action touches disjoint components per agent.
    for &a in agents {
        let ag = world.actor::<ScriptedAgent>(a).expect("agent");
        for (ix, &(action, fwd)) in ag.applied.iter().enumerate() {
            all.push((ix as u64, action, fwd));
        }
    }
    let mut cfg = start.clone();
    for (_, action, fwd) in all {
        let act = &actions[action.index()];
        let (rm, add) = if fwd { (act.removes(), act.adds()) } else { (act.adds(), act.removes()) };
        // Apply only this agent's share; since both agents report the same
        // action id for pair actions, apply component-wise idempotently.
        for &c in rm {
            if cfg.contains(c) {
                cfg.remove(c);
            }
        }
        for &c in add {
            if !cfg.contains(c) {
                cfg.insert(c);
            }
        }
    }
    cfg
}

fn case_actions(u: &Universe) -> Vec<Action> {
    vec![
        Action::replace(0, "X1->X2", &u.config_of(&["X1"]), &u.config_of(&["X2"]), 10),
        Action::replace(1, "Y1->Y2", &u.config_of(&["Y1"]), &u.config_of(&["Y2"]), 10),
        Action::replace(
            2,
            "(X1,Y1)->(X2,Y2)",
            &u.config_of(&["X1", "Y1"]),
            &u.config_of(&["X2", "Y2"]),
            100,
        ),
        Action::replace(3, "X2->X1", &u.config_of(&["X2"]), &u.config_of(&["X1"]), 10),
        Action::replace(4, "Y2->Y1", &u.config_of(&["Y2"]), &u.config_of(&["Y1"]), 10),
    ]
}

#[test]
fn happy_path_reaches_target_in_order() {
    let mut w = build_world(1, &["X1", "Y1"], &["X2", "Y2"], ProtoTiming::default());
    w.sim.run();
    let o = outcome_of(&w.sim, w.manager);
    assert!(o.success, "journal:\n{}", journal_of(&w));
    assert_eq!(o.final_config, w.universe.config_of(&["X2", "Y2"]));
    assert_eq!(o.steps_committed, 2, "X first (Y2 => X2), then Y");
    assert_eq!(w.counts.borrow()[Kind::RetrySent], 0, "no retransmissions");
    // Replaying the agents' applied actions lands on the same config.
    let actions = case_actions(&w.universe);
    let replayed = replay_applied(
        &w.universe,
        &w.sim,
        &w.agents,
        &actions,
        &w.universe.config_of(&["X1", "Y1"]),
    );
    assert_eq!(replayed, o.final_config);
}

#[test]
fn ordering_respects_dependency_invariant() {
    // Moving X2,Y2 -> X1,Y1 must replace Y first (Y2 => X2 forbids X1,Y2).
    let mut w = build_world(2, &["X2", "Y2"], &["X1", "Y1"], ProtoTiming::default());
    w.sim.run();
    let o = outcome_of(&w.sim, w.manager);
    assert!(o.success);
    let ay = w.sim.actor::<ScriptedAgent>(w.agents[1]).unwrap();
    let ax = w.sim.actor::<ScriptedAgent>(w.agents[0]).unwrap();
    assert_eq!(ay.applied, vec![(ActionId(4), true)]);
    assert_eq!(ax.applied, vec![(ActionId(3), true)]);
}

#[test]
fn moderate_message_loss_is_survived() {
    for seed in [3u64, 4, 5, 6] {
        let mut w = build_world(seed, &["X1", "Y1"], &["X2", "Y2"], ProtoTiming::default());
        // 25% loss on every manager<->agent link.
        for &a in &w.agents {
            w.sim.set_link(w.manager, a, LinkConfig::lossy(SimDuration::from_millis(1), 0.25));
            w.sim.set_link(a, w.manager, LinkConfig::lossy(SimDuration::from_millis(1), 0.25));
        }
        w.sim.run();
        let o = outcome_of(&w.sim, w.manager);
        // Whatever happened, the system must end in a *safe* configuration
        // consistent with what the agents actually executed.
        let mut u2 = w.universe.clone();
        let inv = InvariantSet::parse(&["one_of(X1, X2)", "one_of(Y1, Y2)", "Y2 => X2"], &mut u2)
            .unwrap();
        assert!(
            inv.satisfied_by(&o.final_config),
            "seed {seed}: unsafe final config {}",
            o.final_config
        );
        let actions = case_actions(&w.universe);
        let replayed = replay_applied(
            &w.universe,
            &w.sim,
            &w.agents,
            &actions,
            &w.universe.config_of(&["X1", "Y1"]),
        );
        assert_eq!(
            replayed, o.final_config,
            "seed {seed}: manager view diverged from ground truth"
        );
    }
}

#[test]
fn fail_to_reset_aborts_back_to_source() {
    let mut w = build_world(7, &["X1", "Y1"], &["X2", "Y2"], ProtoTiming::default());
    // Agent 0 can never reach a safe state: every path needs X1->X2 first,
    // so the whole adaptation must abort back to the source configuration.
    w.sim.actor_mut::<ScriptedAgent>(w.agents[0]).unwrap().fail_to_reset = true;
    w.sim.run();
    let o = outcome_of(&w.sim, w.manager);
    assert!(!o.success);
    assert!(!o.gave_up);
    assert_eq!(o.final_config, w.universe.config_of(&["X1", "Y1"]), "rolled back to source");
    // No structural change may survive.
    for &a in &w.agents {
        let ag = w.sim.actor::<ScriptedAgent>(a).unwrap();
        let forwards = ag.applied.iter().filter(|(_, f)| *f).count();
        let undos = ag.applied.iter().filter(|(_, f)| !*f).count();
        assert_eq!(forwards, undos, "every applied action undone on {a}");
    }
}

#[test]
fn partition_before_resume_rolls_back() {
    let mut w = build_world(8, &["X1", "Y1"], &["X2", "Y2"], ProtoTiming::default());
    // Sever agent 0 from the start: resets never arrive; after
    // send_retries timeouts the step aborts; rollback acks from agent 0 are
    // also lost, so the rollback force-limit kicks in; ladder runs dry at
    // the source.
    w.sim.set_partitioned(w.manager, w.agents[0], true);
    w.sim.run();
    let o = outcome_of(&w.sim, w.manager);
    assert!(!o.success);
    assert_eq!(o.final_config, w.universe.config_of(&["X1", "Y1"]));
    let ax = w.sim.actor::<ScriptedAgent>(w.agents[0]).unwrap();
    assert!(ax.applied.is_empty(), "partitioned agent never adapted");
}

#[test]
fn partition_after_resume_runs_to_completion() {
    let mut w = build_world(9, &["X1", "Y1"], &["X2", "Y2"], ProtoTiming::default());
    // Let the first solo step (X1->X2 on agent 0) pass cleanly, then cut
    // agent 1 off *after* it has adapted — its ResumeDone for step 2 is
    // lost. The manager must not roll back; it force-completes.
    // We approximate "after adapt" by cutting the agent->manager direction
    // only once the simulation reaches the second step's resume window.
    w.sim.run_until(sada_simnet::SimTime::from_millis(25));
    let a1 = w.agents[1];
    let cfg = w.sim.link(a1, w.manager).with_partitioned(true);
    w.sim.set_link(a1, w.manager, cfg);
    w.sim.run();
    let o = outcome_of(&w.sim, w.manager);
    // Depending on where 25ms lands, either the step had not begun (abort,
    // back to source or stuck) or the resume boundary was passed (success
    // with warnings). Both end safe; what is forbidden is a mixed config.
    let mut u2 = w.universe.clone();
    let inv =
        InvariantSet::parse(&["one_of(X1, X2)", "one_of(Y1, Y2)", "Y2 => X2"], &mut u2).unwrap();
    assert!(inv.satisfied_by(&o.final_config), "final config {} unsafe", o.final_config);
}

#[test]
fn deterministic_across_identical_seeds() {
    let run = |seed| {
        let mut w = build_world(seed, &["X1", "Y1"], &["X2", "Y2"], ProtoTiming::default());
        for &a in &w.agents {
            w.sim.set_link(w.manager, a, LinkConfig::lossy(SimDuration::from_millis(1), 0.3));
            w.sim.set_link(a, w.manager, LinkConfig::lossy(SimDuration::from_millis(1), 0.3));
        }
        w.sim.run();
        let o = outcome_of(&w.sim, w.manager);
        (o.success, o.final_config, o.steps_committed, w.sim.stats().events_processed)
    };
    assert_eq!(run(42), run(42));
}

#[test]
fn pair_action_blocks_both_agents_until_barrier() {
    // Force the compound path by removing the single-replace actions.
    let mut u = Universe::new();
    for n in ["X1", "X2", "Y1", "Y2"] {
        u.intern(n);
    }
    let actions = vec![Action::replace(
        0,
        "(X1,Y1)->(X2,Y2)",
        &u.config_of(&["X1", "Y1"]),
        &u.config_of(&["X2", "Y2"]),
        100,
    )];
    let inv = InvariantSet::parse(&["one_of(X1, X2)", "one_of(Y1, Y2)"], &mut u).unwrap();
    let search = Search::new(&inv, &actions, u.len());
    let mut model = SystemModel::new();
    let p0 = model.add_process();
    let p1 = model.add_process();
    model.place_all(&u, &[("X1", p0), ("X2", p0), ("Y1", p1), ("Y2", p1)]);
    let planner = SearchPlanner::new(search, model, [ActionId(0)].into());

    let mut sim: Simulator<Msg, ProtoTimer> = Simulator::new(11);
    // Agent 1 is slow to reach its safe state; agent 0 must wait blocked.
    let fast = AgentTiming::default();
    let slow = AgentTiming { safe_delay: SimDuration::from_millis(50), ..AgentTiming::default() };
    let a0 = sim.add_actor("agent-x", ScriptedAgent::new(ActorId::from_index(2), fast));
    let a1 = sim.add_actor("agent-y", ScriptedAgent::new(ActorId::from_index(2), slow));
    let manager = sim.add_actor(
        "manager",
        ManagerActor::<()>::new(
            ProtoTiming::default(),
            Box::new(planner),
            vec![a0, a1],
            u.config_of(&["X1", "Y1"]),
            u.config_of(&["X2", "Y2"]),
        ),
    );
    sim.run();
    let o = sim.actor::<ManagerActor<()>>(manager).unwrap().outcome.clone().unwrap();
    assert!(o.success);
    assert_eq!(o.steps_committed, 1);
    for a in [a0, a1] {
        let ag = sim.actor::<ScriptedAgent>(a).unwrap();
        assert_eq!(ag.applied, vec![(ActionId(0), true)]);
    }
}

#[test]
fn rollback_overtaking_the_in_action_leaves_no_change_behind() {
    // One pair step under `X1 <=> Y1`. Agent 1 cannot reset and says so
    // before agent 0's scheduled in-action has run, so agent 0 is told to
    // roll back while still in the safe state. Its in-action must then not
    // count as applied: a forward change nobody undoes would leave the
    // process at X2 while the manager reports the source configuration.
    for drain in [false, true] {
        for y_safe_ms in [3u64, 4] {
            let mut u = Universe::new();
            for n in ["X1", "X2", "Y1", "Y2"] {
                u.intern(n);
            }
            let actions = vec![Action::replace(
                0,
                "(X1,Y1)->(X2,Y2)",
                &u.config_of(&["X1", "Y1"]),
                &u.config_of(&["X2", "Y2"]),
                100,
            )];
            let inv =
                InvariantSet::parse(&["one_of(X1, X2)", "one_of(Y1, Y2)", "X1 <=> Y1"], &mut u)
                    .unwrap();
            let search = Search::new(&inv, &actions, u.len());
            let mut model = SystemModel::new();
            let p0 = model.add_process();
            let p1 = model.add_process();
            model.place_all(&u, &[("X1", p0), ("X2", p0), ("Y1", p1), ("Y2", p1)]);
            let drains: HashSet<ActionId> =
                if drain { [ActionId(0)].into() } else { HashSet::new() };
            let planner = SearchPlanner::new(search, model, drains);

            let mut sim: Simulator<Msg, ProtoTimer> = Simulator::new(1);
            let y_timing = AgentTiming {
                safe_delay: SimDuration::from_millis(y_safe_ms),
                ..AgentTiming::default()
            };
            let a0 = sim.add_actor(
                "agent-x",
                ScriptedAgent::new(ActorId::from_index(2), AgentTiming::default()),
            );
            let a1 = sim.add_actor("agent-y", ScriptedAgent::new(ActorId::from_index(2), y_timing));
            sim.actor_mut::<ScriptedAgent>(a1).unwrap().fail_to_reset = true;
            let source = u.config_of(&["X1", "Y1"]);
            let manager = sim.add_actor(
                "manager",
                ManagerActor::<()>::new(
                    ProtoTiming::default(),
                    Box::new(planner),
                    vec![a0, a1],
                    source.clone(),
                    u.config_of(&["X2", "Y2"]),
                ),
            );
            sim.run();
            let case = format!("drain {drain}, agent 1 safe after {y_safe_ms} ms");
            let o = outcome_of(&sim, manager);
            assert!(!o.success, "{case}");
            assert_eq!(o.final_config, source, "{case}: rolled back to source");
            for a in [a0, a1] {
                let ag = sim.actor::<ScriptedAgent>(a).unwrap();
                let forwards = ag.applied.iter().filter(|(_, f)| *f).count();
                let undos = ag.applied.len() - forwards;
                assert_eq!(forwards, undos, "{case}: {a} applied {:?}", ag.applied);
            }
            let replayed = replay_applied(&u, &sim, &[a0, a1], &actions, &source);
            assert_eq!(replayed, o.final_config, "{case}: manager view diverged");
        }
    }
}

#[test]
fn agent_crash_mid_step_rejoins_and_reaches_target() {
    let mut w = build_world(20, &["X1", "Y1"], &["X2", "Y2"], ProtoTiming::default());
    // Kill agent 0 while its solo step is in flight; bring it back 120 ms
    // later. Its uncommitted in-action dies with the process, the restart
    // announces a Rejoin, and the manager re-runs the step.
    let plan = sada_simnet::FaultPlan::new()
        .crash(w.agents[0], sada_simnet::SimTime::from_millis(6))
        .restart(w.agents[0], sada_simnet::SimTime::from_millis(126));
    w.sim.schedule_faults(&plan);
    w.sim.run();
    let o = outcome_of(&w.sim, w.manager);
    assert!(o.success, "journal:\n{}", journal_of(&w));
    assert_eq!(o.final_config, w.universe.config_of(&["X2", "Y2"]));
    let ax = w.sim.actor::<ScriptedAgent>(w.agents[0]).unwrap();
    assert_eq!(ax.crashes, 1);
    assert!(ax.host().rejoins_sent() >= 1, "restart must announce itself");
    assert!(ax.host().epoch() >= 1, "incarnation bumped");
    // Ground truth: what the agents actually executed lands on the target.
    let actions = case_actions(&w.universe);
    let replayed = replay_applied(
        &w.universe,
        &w.sim,
        &w.agents,
        &actions,
        &w.universe.config_of(&["X1", "Y1"]),
    );
    assert_eq!(replayed, o.final_config);
}

#[test]
fn crash_and_rejoin_is_safe_across_crash_times() {
    // Sweep the crash instant across the whole protocol window (reset,
    // adapt, resume, commit of either step): every run must terminate in a
    // safe configuration that matches the agents' ground truth, crash or no
    // crash pending work.
    let mut u2 = Universe::new();
    for n in ["X1", "X2", "Y1", "Y2"] {
        u2.intern(n);
    }
    let inv =
        InvariantSet::parse(&["one_of(X1, X2)", "one_of(Y1, Y2)", "Y2 => X2"], &mut u2).unwrap();
    for crash_ms in [2u64, 5, 8, 11, 14, 17, 20, 25, 30] {
        let mut w =
            build_world(30 + crash_ms, &["X1", "Y1"], &["X2", "Y2"], ProtoTiming::default());
        let victim = w.agents[(crash_ms % 2) as usize];
        let plan = sada_simnet::FaultPlan::new()
            .crash(victim, sada_simnet::SimTime::from_millis(crash_ms))
            .restart(victim, sada_simnet::SimTime::from_millis(crash_ms + 90));
        w.sim.schedule_faults(&plan);
        w.sim.run();
        let o = outcome_of(&w.sim, w.manager);
        assert!(
            inv.satisfied_by(&o.final_config),
            "crash at {crash_ms}ms: unsafe final config {}",
            o.final_config
        );
        let actions = case_actions(&w.universe);
        let replayed = replay_applied(
            &w.universe,
            &w.sim,
            &w.agents,
            &actions,
            &w.universe.config_of(&["X1", "Y1"]),
        );
        assert_eq!(replayed, o.final_config, "crash at {crash_ms}ms: manager view diverged");
        assert!(
            o.success,
            "crash at {crash_ms}ms: a restarted agent within budget must not doom the run"
        );
    }
}
