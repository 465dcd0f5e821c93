//! Spanning-tree coordination (DESIGN.md ablation A10): the unchanged
//! manager and agent state machines adapt through chains of
//! [`RelayActor`]s, one tree edge per relay.

use sada_expr::{InvariantSet, Universe};
use sada_model::SystemModel;
use sada_obs::{Bus, Counts, Kind};
use sada_plan::{Action, Search};
use sada_proto::{
    encode_journal, AgentTiming, ManagerActor, ProtoTimer, ProtoTiming, RelayActor, ScriptedAgent,
    SearchPlanner, Wire,
};
use sada_simnet::{LinkConfig, SimDuration, Simulator};
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

type Msg = Wire<()>;

/// One-component world planned over a single replace action.
fn planner() -> (Universe, SearchPlanner) {
    let mut u = Universe::new();
    u.intern("A");
    u.intern("B");
    let actions = vec![Action::replace(0, "A->B", &u.config_of(&["A"]), &u.config_of(&["B"]), 5)];
    let inv = InvariantSet::parse(&["one_of(A, B)"], &mut u).unwrap();
    let search = Search::new(&inv, &actions, u.len());
    let mut model = SystemModel::new();
    let p = model.add_process();
    model.place_all(&u, &[("A", p), ("B", p)]);
    (u.clone(), SearchPlanner::new(search, model, HashSet::new()))
}

/// A bus counting every event emitted on it, per kind.
fn counted() -> (Bus, Rc<RefCell<Counts>>) {
    let (bus, counts) = (Bus::new(), Rc::new(RefCell::new(Counts::new())));
    bus.attach(&counts);
    (bus, counts)
}

#[test]
fn adaptation_succeeds_over_a_two_hop_tree() {
    let (u, planner) = planner();
    let mut sim: Simulator<Msg, ProtoTimer> = Simulator::new(3);
    sim.set_default_link(LinkConfig::reliable(SimDuration::from_millis(4)));
    // Topology: manager(2) <-> relay(1) <-> agent(0).
    let agent = sim.add_actor(
        "agent",
        // The agent believes the relay is its manager.
        ScriptedAgent::new(sada_simnet::ActorId::from_index(1), AgentTiming::default()),
    );
    let relay = sim.add_actor("relay", RelayActor::new(sada_simnet::ActorId::from_index(2), agent));
    let manager = sim.add_actor(
        "manager",
        // The manager addresses the relay as "the agent".
        ManagerActor::<()>::new(
            ProtoTiming::default(),
            Box::new(planner),
            vec![relay],
            u.config_of(&["A"]),
            u.config_of(&["B"]),
        ),
    );
    sim.run();
    let o = sim.actor::<ManagerActor<()>>(manager).unwrap().outcome.clone().expect("resolved");
    assert!(o.success, "protocol is topology-transparent");
    let r = sim.actor::<RelayActor>(relay).unwrap();
    assert!(r.forwarded_down >= 1, "reset went down the tree");
    assert!(r.forwarded_up >= 2, "acks came back up");
    let agent_state = sim.actor::<ScriptedAgent>(agent).unwrap();
    assert_eq!(agent_state.applied.len(), 1);
}

#[test]
fn relay_ignores_unrelated_sources_and_app_traffic() {
    let mut sim: Simulator<Msg, ProtoTimer> = Simulator::new(0);
    let sink = sim.add_actor(
        "sink",
        ScriptedAgent::new(sada_simnet::ActorId::from_index(9), AgentTiming::default()),
    );
    let up = sim.add_actor(
        "up",
        ScriptedAgent::new(sada_simnet::ActorId::from_index(9), AgentTiming::default()),
    );
    let relay = sim.add_actor("relay", RelayActor::new(up, sink));
    let stranger = sim.add_actor("stranger", ScriptedAgent::new(relay, AgentTiming::default()));
    // Stranger's message reaches the relay but goes nowhere.
    sim.inject(
        stranger,
        relay,
        Wire::Proto {
            epoch: 0,
            session: sada_proto::SessionId::SOLO,
            msg: sada_proto::ProtoMsg::ResetDone { step: sada_proto::StepId(1) },
        },
        SimDuration::ZERO,
    );
    // App traffic from the upstream node is also not relayed.
    sim.inject(up, relay, Wire::App(()), SimDuration::ZERO);
    sim.run();
    let r = sim.actor::<RelayActor>(relay).unwrap();
    assert_eq!(r.forwarded_down, 0);
    assert_eq!(r.forwarded_up, 0);
}

#[test]
fn relay_forwards_reconciliation_probes_and_reports() {
    // A restored manager's QueryState/StateReport round is ordinary
    // protocol traffic: it must traverse spanning-tree edges unchanged,
    // or a manager behind a relay could never reconcile after failover.
    let mut sim: Simulator<Msg, ProtoTimer> = Simulator::new(0);
    let down = sim.add_actor(
        "down",
        ScriptedAgent::new(sada_simnet::ActorId::from_index(9), AgentTiming::default()),
    );
    let up = sim.add_actor(
        "up",
        ScriptedAgent::new(sada_simnet::ActorId::from_index(9), AgentTiming::default()),
    );
    let relay = sim.add_actor("relay", RelayActor::new(up, down));
    sim.inject(
        up,
        relay,
        Wire::Proto {
            epoch: 1,
            session: sada_proto::SessionId::SOLO,
            msg: sada_proto::ProtoMsg::QueryState,
        },
        SimDuration::ZERO,
    );
    sim.inject(
        down,
        relay,
        Wire::Proto {
            epoch: 1,
            session: sada_proto::SessionId::SOLO,
            msg: sada_proto::ProtoMsg::StateReport {
                engaged: None,
                adapted: false,
                failed: false,
                last_completed: None,
            },
        },
        SimDuration::ZERO,
    );
    sim.run();
    let r = sim.actor::<RelayActor>(relay).unwrap();
    assert_eq!(r.forwarded_down, 1, "the probe went down the tree");
    assert_eq!(r.forwarded_up, 1, "the report came back up");
}

#[test]
fn deep_chains_still_converge_within_timeouts() {
    // manager <-> r1 <-> r2 <-> r3 <-> agent, 4 hops each way at 4ms:
    // well under the 200ms phase timeout.
    let (u, planner) = planner();
    let (bus, counts) = counted();
    let mut sim: Simulator<Msg, ProtoTimer> = Simulator::new(5);
    sim.set_default_link(LinkConfig::reliable(SimDuration::from_millis(4)));
    let id = sada_simnet::ActorId::from_index;
    let agent = sim.add_actor("agent", ScriptedAgent::new(id(1), AgentTiming::default())); // 0
    let r3 = sim.add_actor("r3", RelayActor::new(id(2), agent)); // 1
    let r2 = sim.add_actor("r2", RelayActor::new(id(3), r3)); // 2
    let r1 = sim.add_actor("r1", RelayActor::new(id(4), r2)); // 3
    let manager = sim.add_actor(
        "manager",
        ManagerActor::<()>::new(
            ProtoTiming::default(),
            Box::new(planner),
            vec![r1],
            u.config_of(&["A"]),
            u.config_of(&["B"]),
        )
        .with_bus(bus),
    ); // 4
    sim.run();
    let o = sim.actor::<ManagerActor<()>>(manager).unwrap().outcome.clone().unwrap();
    assert!(o.success);
    assert_eq!(counts.borrow()[Kind::RetrySent], 0, "no retransmissions needed");
    // Message amplification: each logical message crosses 4 links.
    assert!(sim.stats().delivered > 12);
}

/// Dropping `RetrySent` on a retransmission fails here: the stream is the
/// only account of the retransmissions.
#[test]
fn shrunken_retry_base_over_a_deep_chain_retransmits_but_applies_once() {
    // Same 4-hop chain, but the retry base is squeezed to 10 ms — well
    // under the ~32 ms round trip plus the agent's local delays. Every
    // phase times out at least once and retransmits through the tree;
    // idempotent re-acks must still converge on exactly one application
    // of the action, with no duplicate effects.
    use sada_resilience::RetryPolicy;
    let (u, planner) = planner();
    let (bus, counts) = counted();
    let mut sim: Simulator<Msg, ProtoTimer> = Simulator::new(5);
    sim.set_default_link(LinkConfig::reliable(SimDuration::from_millis(4)));
    let id = sada_simnet::ActorId::from_index;
    let agent = sim.add_actor("agent", ScriptedAgent::new(id(1), AgentTiming::default())); // 0
    let r3 = sim.add_actor("r3", RelayActor::new(id(2), agent)); // 1
    let r2 = sim.add_actor("r2", RelayActor::new(id(3), r3)); // 2
    let r1 = sim.add_actor("r1", RelayActor::new(id(4), r2)); // 3
    let timing = ProtoTiming {
        retry: RetryPolicy {
            base: SimDuration::from_millis(10),
            cap: SimDuration::from_millis(40),
            ..RetryPolicy::default()
        },
        ..ProtoTiming::default()
    };
    let manager = sim.add_actor(
        "manager",
        ManagerActor::<()>::new(
            timing,
            Box::new(planner),
            vec![r1],
            u.config_of(&["A"]),
            u.config_of(&["B"]),
        )
        .with_bus(bus),
    ); // 4
    sim.run();
    let m = sim.actor::<ManagerActor<()>>(manager).unwrap();
    let o = m.outcome.clone().expect("resolved");
    assert!(o.success, "premature timeouts only cost traffic, not correctness");
    assert!(
        counts.borrow()[Kind::RetrySent] > 0,
        "the squeezed base must actually fire spurious retransmissions:\n{}",
        encode_journal(&m.journal)
    );
    let agent_state = sim.actor::<ScriptedAgent>(agent).unwrap();
    assert_eq!(agent_state.applied.len(), 1, "re-received resets are absorbed, not re-applied");
    let r = sim.actor::<RelayActor>(r1).unwrap();
    assert!(r.forwarded_down >= 2, "duplicates traversed the tree");
}
