//! Realization-phase harness: run a planned adaptation on the simulated
//! network with scripted agents.
//!
//! This is the generic driver used by examples and benches when the real
//! application (the video system) is not needed: one [`ManagerActor`] plus
//! one [`ScriptedAgent`] per process, wired over configurable links.

use sada_expr::Config;
use sada_obs::Bus;
use sada_proto::{
    AdaptationSpec, AgentTiming, BreakerConfig, JournalRecord, ManagerActor, Outcome, ProtoTimer,
    ProtoTiming, ScriptedAgent, Wire,
};
use sada_simnet::{ActorId, FaultPlan, LinkConfig, SimTime, Simulator};

/// Knobs for a simulated adaptation run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// RNG seed (runs are reproducible per seed).
    pub seed: u64,
    /// Manager policy.
    pub timing: ProtoTiming,
    /// Local operation delays applied to every agent.
    pub agent_timing: AgentTiming,
    /// Link used between the manager and every agent (both directions).
    pub link: LinkConfig,
    /// Processes (by index) that exhibit fail-to-reset.
    pub fail_to_reset: Vec<usize>,
    /// Injected faults (crashes, restarts, partitions); empty by default.
    /// Agent process indexes map to actor ids directly; the manager is the
    /// actor *after* the last agent.
    pub faults: FaultPlan,
    /// Observability bus shared by the network, the manager, and every
    /// agent. Defaults to a bus with no sinks (near-zero cost); attach
    /// sinks to a clone before the run to capture the unified event stream.
    pub bus: Bus,
    /// Per-agent circuit breakers between the manager core and the wire.
    /// `None` (the default) preserves the historical always-retransmit
    /// behaviour; `Some` stops retry ladders from hammering an agent that
    /// keeps timing out and re-engages it through a seeded half-open probe.
    pub breaker: Option<BreakerConfig>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 0,
            timing: ProtoTiming::default(),
            agent_timing: AgentTiming::default(),
            link: LinkConfig::default(),
            fail_to_reset: Vec::new(),
            faults: FaultPlan::new(),
            bus: Bus::new(),
            breaker: None,
        }
    }
}

/// What a simulated adaptation run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The manager's final outcome.
    pub outcome: Outcome,
    /// Virtual time at which the simulation quiesced.
    pub finished_at: SimTime,
    /// Total protocol messages put on the wire.
    pub messages_sent: u64,
    /// Messages lost to the network.
    pub messages_dropped: u64,
    /// Crash faults injected over the run.
    pub crashes: u64,
    /// Restarts injected over the run.
    pub restarts: u64,
    /// Rejoin announcements agents sent after restarting.
    pub rejoins: u64,
    /// Manager incarnations rebuilt from the write-ahead journal (0 when
    /// the manager never crashed).
    pub manager_restores: u64,
    /// The manager's write-ahead adaptation journal as it stood at the end
    /// of the run — the forensic record of every decision point, and the
    /// input [`sada_proto::ManagerCore::restore`] replays after a crash.
    pub journal: Vec<JournalRecord>,
    /// Times any per-agent circuit breaker tripped open (0 when breakers
    /// are disabled or never saw enough consecutive failures).
    pub breaker_trips: u64,
    /// Retransmissions refused by open breakers instead of hitting the wire.
    pub suppressed_sends: u64,
}

/// Plans and executes `source → target` for `spec` on a fresh simulation.
///
/// # Panics
///
/// Panics if the simulation quiesces without the manager reporting an
/// outcome (which would indicate a protocol deadlock — the tests treat that
/// as a failure by design).
pub fn run_adaptation(
    spec: &AdaptationSpec,
    source: &Config,
    target: &Config,
    cfg: &RunConfig,
) -> RunReport {
    let mut sim: Simulator<Wire<()>, ProtoTimer> = Simulator::new(cfg.seed);
    sim.set_bus(cfg.bus.clone());
    let n_proc = spec.model().process_count();
    let manager_id = ActorId::from_index(n_proc); // agents registered first
    let mut agents = Vec::with_capacity(n_proc);
    for p in 0..n_proc {
        let mut agent = ScriptedAgent::new(manager_id, cfg.agent_timing).with_bus(cfg.bus.clone());
        agent.fail_to_reset = cfg.fail_to_reset.contains(&p);
        agents.push(sim.add_actor(&format!("agent-{p}"), agent));
    }
    let mut mgr_actor = ManagerActor::<()>::new(
        cfg.timing,
        Box::new(spec.runtime_planner()),
        agents.clone(),
        source.clone(),
        target.clone(),
    )
    .with_bus(cfg.bus.clone());
    if let Some(breaker) = cfg.breaker {
        mgr_actor = mgr_actor.with_breakers(breaker);
    }
    let manager = sim.add_actor("manager", mgr_actor);
    debug_assert_eq!(manager, manager_id);
    for &a in &agents {
        sim.set_link(manager, a, cfg.link);
        sim.set_link(a, manager, cfg.link);
    }
    sim.schedule_faults(&cfg.faults);
    sim.run();
    let rejoins = agents
        .iter()
        .map(|&a| sim.actor::<ScriptedAgent>(a).expect("agent actor").host().rejoins_sent())
        .sum();
    let m = sim.actor::<ManagerActor<()>>(manager).expect("manager actor");
    RunReport {
        outcome: m.outcome.clone().expect("manager must resolve every request"),
        finished_at: m.completed_at.unwrap_or_else(|| sim.now()),
        messages_sent: sim.stats().sent,
        messages_dropped: sim.stats().dropped,
        crashes: sim.stats().crashes,
        restarts: sim.stats().restarts,
        rejoins,
        manager_restores: m.restores,
        journal: m.journal.clone(),
        breaker_trips: m.host().breaker_trips,
        suppressed_sends: m.host().suppressed_sends,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::casestudy::{case_study, PAPER_MAP_COST};
    use sada_obs::{Counts, Kind};
    use sada_proto::encode_journal;
    use sada_simnet::SimDuration;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn case_study_adaptation_succeeds_end_to_end() {
        let cs = case_study();
        let (bus, counts) = (Bus::new(), Rc::new(RefCell::new(Counts::new())));
        bus.attach(&counts);
        let report = run_adaptation(
            &cs.spec,
            &cs.source,
            &cs.target,
            &RunConfig { bus, ..RunConfig::default() },
        );
        assert!(report.outcome.success, "{}", encode_journal(&report.journal));
        assert_eq!(report.outcome.final_config, cs.target);
        assert_eq!(report.outcome.steps_committed, 5, "the five MAP steps");
        assert_eq!(counts.borrow()[Kind::RetrySent], 0, "no retransmissions");
        let _ = PAPER_MAP_COST;
    }

    #[test]
    fn case_study_with_loss_still_lands_safe() {
        let cs = case_study();
        for seed in 0..4 {
            let cfg = RunConfig {
                seed,
                link: LinkConfig::lossy(SimDuration::from_millis(1), 0.2),
                ..RunConfig::default()
            };
            let report = run_adaptation(&cs.spec, &cs.source, &cs.target, &cfg);
            assert!(
                cs.spec.is_safe(&report.outcome.final_config),
                "seed {seed} landed unsafe: {}",
                report.outcome.final_config
            );
        }
    }

    #[test]
    fn fail_to_reset_on_handheld_strands_safely() {
        let cs = case_study();
        let cfg = RunConfig { fail_to_reset: vec![1], ..RunConfig::default() };
        let report = run_adaptation(&cs.spec, &cs.source, &cs.target, &cfg);
        // Every path from source to target goes through a hand-held action
        // (the decoder must change), so the adaptation cannot succeed.
        assert!(!report.outcome.success);
        // It may abort cleanly at the source, or — after committing +D5 on
        // the laptop, for which Table 2 provides no inverse — give up at a
        // safe intermediate configuration and wait for the user (ladder
        // rung 4). Either way the system is never left unsafe.
        assert!(cs.spec.is_safe(&report.outcome.final_config));
        if report.outcome.final_config != cs.source {
            assert!(report.outcome.gave_up, "stranded => explicit user-wait state");
        }
    }

    #[test]
    fn crashed_agent_rejoins_and_the_adaptation_completes() {
        let cs = case_study();
        // Kill the hand-held agent (process 1) mid-protocol and bring it
        // back 150 ms later; the rejoin protocol must resynchronize it and
        // the whole adaptation must still land on the target.
        let victim = ActorId::from_index(1);
        let cfg = RunConfig {
            faults: FaultPlan::new()
                .crash(victim, SimTime::from_millis(5))
                .restart(victim, SimTime::from_millis(155)),
            ..RunConfig::default()
        };
        let report = run_adaptation(&cs.spec, &cs.source, &cs.target, &cfg);
        assert_eq!((report.crashes, report.restarts), (1, 1));
        assert!(report.rejoins >= 1, "restarted agent must announce itself");
        assert!(report.outcome.success, "{}", encode_journal(&report.journal));
        assert_eq!(report.outcome.final_config, cs.target);
        // Bounded overhead: the outage plus a few timeout ladders, not an
        // unbounded retry storm.
        assert!(
            report.finished_at <= SimTime::from_millis(2_000),
            "recovery took too long: {}",
            report.finished_at
        );
    }

    #[test]
    fn crashed_manager_restores_from_its_journal_and_completes() {
        let cs = case_study();
        // Kill the *manager* (the actor after the last agent) mid-protocol.
        // The restored incarnation must replay its write-ahead journal,
        // reconcile the agents, and still land the adaptation on the target.
        let victim = ActorId::from_index(cs.spec.model().process_count());
        let cfg = RunConfig {
            faults: FaultPlan::new()
                .crash(victim, SimTime::from_millis(5))
                .restart(victim, SimTime::from_millis(155)),
            ..RunConfig::default()
        };
        let report = run_adaptation(&cs.spec, &cs.source, &cs.target, &cfg);
        assert_eq!((report.crashes, report.restarts), (1, 1));
        assert_eq!(report.manager_restores, 1, "one incarnation rebuilt from the journal");
        assert!(report.outcome.success, "{}", encode_journal(&report.journal));
        assert_eq!(report.outcome.final_config, cs.target);
        assert!(
            matches!(report.journal.last(), Some(JournalRecord::Outcome { success: true, .. })),
            "journal records the resolution: {:?}",
            report.journal
        );
        // The journal is the durable medium: its text form must round-trip.
        let text = sada_proto::encode_journal(&report.journal);
        assert_eq!(sada_proto::parse_journal(&text).unwrap(), report.journal);
        assert!(
            report.finished_at <= SimTime::from_millis(2_000),
            "failover took too long: {}",
            report.finished_at
        );
    }

    #[test]
    fn unified_bus_captures_network_protocol_and_plan_layers() {
        use sada_obs::{Metrics, Payload, ProtoEvent, RingSink};

        let cs = case_study();
        let bus = Bus::new();
        let ring = Rc::new(RefCell::new(RingSink::new(1 << 16)));
        bus.attach(&ring);
        let cfg = RunConfig { bus: bus.clone(), ..RunConfig::default() };
        let report = run_adaptation(&cs.spec, &cs.source, &cs.target, &cfg);
        assert!(report.outcome.success);

        let events = ring.borrow().events();
        let m = Metrics::from_events(&events);
        assert_eq!(m.counts[Kind::StepCommitted], 5, "one commit event per MAP step");
        assert_eq!(m.counts[Kind::Sent], report.messages_sent, "net layer mirrors NetStats");
        assert_eq!(m.counts[Kind::Dropped], report.messages_dropped);
        assert!(m.reset_to_safe > SimDuration::ZERO, "agents spent time resetting");
        assert!(events.iter().any(|e| matches!(
            e.payload,
            Payload::Proto(ProtoEvent::OutcomeReached { success: true, .. })
        )));
        assert!(
            events.iter().any(|e| matches!(e.payload, Payload::Plan(_))),
            "planner decisions ride the same stream"
        );
    }

    #[test]
    fn breaker_stops_retransmissions_to_a_dead_agent() {
        let cs = case_study();
        // Keep the hand-held dead long enough for a full retry ladder (the
        // exponential backoff stretches the three retransmissions over
        // seconds). A threshold of 3 equals the ladder's retransmission
        // budget, so one exhausted ladder is exactly the evidence that
        // trips the breaker.
        let victim = ActorId::from_index(1);
        let faults = FaultPlan::new()
            .crash(victim, SimTime::from_millis(5))
            .restart(victim, SimTime::from_millis(5_000));
        let cfg = RunConfig {
            breaker: Some(BreakerConfig { failure_threshold: 3, ..BreakerConfig::default() }),
            faults: faults.clone(),
            ..RunConfig::default()
        };
        let report = run_adaptation(&cs.spec, &cs.source, &cs.target, &cfg);
        assert!(report.breaker_trips >= 1, "exhausted ladder must trip the breaker");
        assert!(report.suppressed_sends >= 1, "open breaker must absorb a retransmission");
        // Gating the wire never compromises the protocol: once the agent
        // rejoins, the half-open probe re-engages it and the adaptation
        // still lands on the target with a journaled outcome.
        assert!(report.outcome.success, "{}", encode_journal(&report.journal));
        assert_eq!(report.outcome.final_config, cs.target);
        assert!(matches!(report.journal.last(), Some(JournalRecord::Outcome { .. })));
        // Without the breaker the same outage is all retransmissions.
        let base = RunConfig { faults, ..RunConfig::default() };
        let base = run_adaptation(&cs.spec, &cs.source, &cs.target, &base);
        assert_eq!((base.breaker_trips, base.suppressed_sends), (0, 0));
        assert!(cs.spec.is_safe(&base.outcome.final_config));
    }

    #[test]
    fn laptop_failure_also_aborts() {
        let cs = case_study();
        let cfg = RunConfig { fail_to_reset: vec![2], ..RunConfig::default() };
        let report = run_adaptation(&cs.spec, &cs.source, &cs.target, &cfg);
        assert!(!report.outcome.success);
        assert!(cs.spec.is_safe(&report.outcome.final_config));
    }
}
