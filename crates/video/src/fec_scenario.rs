//! The bandwidth-adaptation scenario: a second, fully dynamic use of the
//! safe adaptation process. The link degrades mid-stream, the
//! decision-making monitor notices rising packet loss in client telemetry
//! and asks the manager to insert forward-error-correction filters; the
//! manager plans and executes a safe path that installs the FEC decoders
//! *before* the parity encoder (enforced by an inferred-style dependency
//! invariant `FE ⇒ FDH ∧ FDL`), and frame delivery recovers.
//!
//! This exercises the pieces the DES case study does not: component
//! *insertion* driven by a runtime monitor rather than an operator, and
//! the FEC substrate filters.

use sada_core::specfile::{parse_spec_file, CASE_STUDY_SPEC};
use sada_core::AdaptationSpec;
use sada_expr::Config;
use sada_proto::{ManagerActor, Outcome, ProtoTimer, ProtoTiming};
use sada_simnet::{ActorId, LinkConfig, SimDuration, SimTime, Simulator};

use crate::actors::{AppMsg, ClientActor, ServerActor, VideoTimer, VideoWire};
use crate::audit_log::AuditShared;
use crate::monitor::LossMonitorActor;

/// Tunables for the FEC adaptation run.
#[derive(Debug, Clone)]
pub struct FecScenarioConfig {
    /// RNG seed.
    pub seed: u64,
    /// Frame size in bytes.
    pub(crate) frame_size: usize,
    /// Frame period.
    pub(crate) frame_period: SimDuration,
    /// Fragmentation MTU.
    pub(crate) mtu: usize,
    /// When the server stops capturing.
    pub stream_end: SimTime,
    /// When the network degrades.
    pub loss_starts: SimDuration,
    /// Data-link loss probability after degradation.
    pub loss: f64,
    /// Monitor trigger threshold (loss ratio).
    pub threshold: f64,
    /// Client telemetry period.
    pub(crate) report_period: SimDuration,
}

impl Default for FecScenarioConfig {
    fn default() -> Self {
        FecScenarioConfig {
            seed: 21,
            frame_size: 3_000,
            frame_period: SimDuration::from_millis(33),
            mtu: 512,
            stream_end: SimTime::from_millis(4_000),
            loss_starts: SimDuration::from_millis(1_000),
            loss: 0.10,
            threshold: 0.04,
            report_period: SimDuration::from_millis(100),
        }
    }
}

/// What the run produced.
#[derive(Debug, Clone)]
pub struct FecReport {
    /// Protocol outcome of the FEC insertion.
    pub outcome: Option<Outcome>,
    /// When the monitor requested adaptation.
    pub triggered_at: Option<SimTime>,
    /// Frame delivery ratio (displayed / sent) on the degraded link
    /// *before* FEC was active.
    pub lossy_ratio_before: f64,
    /// Frame delivery ratio on the degraded link *after* FEC was active.
    pub lossy_ratio_after: f64,
    /// Packets reconstructed by the FEC decoders across both clients.
    pub recovered_packets: u64,
}

/// The FEC-extended adaptation specification: the case study's processes,
/// components and invariants (the DES components are static here) plus
/// `FE`, `FDH`, `FDL` with insertion/removal actions.
pub fn fec_spec() -> (AdaptationSpec, Config, Config) {
    let (system, _) = CASE_STUDY_SPEC.split_once("[actions]").expect("the case study has actions");
    let fec = "
[components]
FE @ video-server
FDH @ handheld-client
FDL @ laptop-client

[invariants]
# Parity packets are only useful (and only harmless) when every receiver
# can consume them.
FE => FDH & FDL

[actions]
+FDH cost 10
+FDL cost 10
+FE cost 10
-FE cost 10
-FDH cost 10
-FDL cost 10
";
    let spec = parse_spec_file(&format!("{system}{fec}")).expect("the FEC spec compiles");
    let u = spec.universe();
    let source = u.config_of(&["E1", "D1", "D4"]);
    let target = u.config_of(&["E1", "D1", "D4", "FE", "FDH", "FDL"]);
    (spec, source, target)
}

/// Runs the full monitor-triggered FEC adaptation.
pub fn run_fec_scenario(cfg: &FecScenarioConfig) -> FecReport {
    run_fec_on(cfg, sada_obs::Bus::new())
}

/// [`run_fec_scenario`] publishing its whole event stream on `bus`.
pub(crate) fn run_fec_on(cfg: &FecScenarioConfig, bus: sada_obs::Bus) -> FecReport {
    let (spec, source, target) = fec_spec();
    let audit = AuditShared::new(&bus, source.clone());
    let mut sim: Simulator<VideoWire, ProtoTimer<VideoTimer>> = Simulator::new(cfg.seed);
    sim.set_bus(bus);
    sim.set_default_link(LinkConfig::reliable(SimDuration::from_millis(5)));

    let u = spec.universe().clone();
    let server_id = ActorId::from_index(0);
    let handheld_id = ActorId::from_index(1);
    let laptop_id = ActorId::from_index(2);
    let manager_id = ActorId::from_index(3);
    let group = sim.create_group(&[server_id, handheld_id, laptop_id]);

    let server = ServerActor::new(
        u.clone(),
        group,
        vec![vec!["D1", "D2", "D3"], vec!["D4", "D5"]],
        cfg.seed ^ 0xFEC,
        cfg.frame_size,
        cfg.frame_period,
        cfg.mtu,
        cfg.stream_end,
        audit.clone(),
    );
    let s = sim.add_actor("video-server", server);
    let h = sim.add_actor(
        "handheld-client",
        ClientActor::new(u.clone(), 0, &["D1"], SimDuration::from_millis(50), audit.clone())
            .with_monitor(ActorId::from_index(4), cfg.report_period, cfg.stream_end),
    );
    let l = sim.add_actor(
        "laptop-client",
        ClientActor::new(u.clone(), 1, &["D4"], SimDuration::from_millis(50), audit.clone())
            .with_monitor(ActorId::from_index(4), cfg.report_period, cfg.stream_end),
    );
    let manager = sim.add_actor(
        "adaptation-manager",
        ManagerActor::<AppMsg>::new(
            ProtoTiming::default(),
            Box::new(spec.runtime_planner()),
            vec![s, h, l],
            source,
            target,
        )
        .with_request_trigger(Box::new(|m: &AppMsg| matches!(m, AppMsg::RequestAdaptation))),
    );
    let monitor = sim.add_actor("loss-monitor", LossMonitorActor::new(manager, cfg.threshold, 50));
    debug_assert_eq!(
        (s, h, l, manager, monitor.index() as u32),
        (server_id, handheld_id, laptop_id, manager_id, 4)
    );
    sim.actor_mut::<ServerActor>(s).unwrap().set_manager(manager);
    sim.actor_mut::<ClientActor>(h).unwrap().set_manager(manager);
    sim.actor_mut::<ClientActor>(l).unwrap().set_manager(manager);

    // Phase 1: healthy stream.
    sim.run_until(SimTime::ZERO + cfg.loss_starts);
    // Degrade the data links server -> clients (control links stay clean —
    // the manager's channel is a separate wired path in the paper's setup).
    for &client in &[h, l] {
        sim.set_link(s, client, LinkConfig::lossy(SimDuration::from_millis(5), cfg.loss));
    }
    let displayed_at = |sim: &Simulator<VideoWire, ProtoTimer<VideoTimer>>| {
        let hh = sim.actor::<ClientActor>(h).unwrap().stats().frames_displayed;
        let lp = sim.actor::<ClientActor>(l).unwrap().stats().frames_displayed;
        hh + lp
    };
    let sent_at = |sim: &Simulator<VideoWire, ProtoTimer<VideoTimer>>| {
        sim.actor::<ServerActor>(s).unwrap().stats.frames_sent
    };
    let (d0, s0) = (displayed_at(&sim), sent_at(&sim));

    // Phase 2: run until the monitor fires and the adaptation settles (or
    // a hard deadline passes). The deadline advances in fixed increments of
    // *virtual* time, so an empty queue cannot spin the loop forever.
    let deadline = SimTime::ZERO + cfg.loss_starts + SimDuration::from_secs(2);
    let mut t = sim.now();
    while t < deadline {
        t = (t + SimDuration::from_millis(25)).min(deadline);
        sim.run_until(t);
        let fec_active =
            sim.actor::<ManagerActor<AppMsg>>(manager).and_then(|m| m.outcome.clone()).is_some();
        if fec_active {
            break;
        }
    }
    let (d1, s1) = (displayed_at(&sim), sent_at(&sim));

    // Phase 3: degraded link, FEC active.
    sim.run();
    let (d2, s2) = (displayed_at(&sim), sent_at(&sim));

    let ratio = |dd: u64, ds: u64| {
        if ds == 0 {
            0.0
        } else {
            dd as f64 / (2 * ds) as f64 // two clients per sent frame
        }
    };
    let mgr = sim.actor::<ManagerActor<AppMsg>>(manager).unwrap();
    let mon = sim.actor::<LossMonitorActor>(monitor).unwrap();
    // Count recoveries directly off the concrete FEC decoders.
    let recovered_direct: u64 = [h, l]
        .iter()
        .map(|&c| {
            let client = sim.actor::<ClientActor>(c).unwrap();
            ["FDH", "FDL"]
                .iter()
                .filter_map(|n| {
                    client.chain.filter(n).and_then(|f| {
                        f.as_any().downcast_ref::<sada_meta::filters::fec::FecDecoder>()
                    })
                })
                .map(|d| d.recovered)
                .sum::<u64>()
        })
        .sum();

    FecReport {
        outcome: mgr.outcome.clone(),
        triggered_at: mon.fired_at,
        lossy_ratio_before: ratio(d1 - d0, s1 - s0),
        lossy_ratio_after: ratio(d2 - d1, s2 - s1),
        recovered_packets: recovered_direct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fec_spec_orders_decoders_before_encoder() {
        let (spec, source, target) = fec_spec();
        let map = spec.minimum_adaptation_path(&source, &target).expect("path exists");
        assert_eq!(map.steps.len(), 3);
        let names: Vec<&str> =
            map.action_ids().iter().map(|a| spec.actions()[a.index()].name()).collect();
        assert_eq!(names.last(), Some(&"+FE"), "encoder inserted last");
        assert!(names[..2].contains(&"+FDH") && names[..2].contains(&"+FDL"));
    }

    #[test]
    fn monitor_triggers_and_fec_improves_delivery() {
        let report = run_fec_scenario(&FecScenarioConfig::default());
        let outcome = report.outcome.as_ref().expect("adaptation ran");
        assert!(outcome.success, "FEC insertion must succeed");
        assert!(report.triggered_at.is_some(), "monitor must fire");
        assert!(report.recovered_packets > 0, "FEC must actually recover losses");
        assert!(
            report.lossy_ratio_after > report.lossy_ratio_before + 0.08,
            "delivery must improve: before={:.3} after={:.3}",
            report.lossy_ratio_before,
            report.lossy_ratio_after
        );
    }

    #[test]
    fn without_degradation_monitor_stays_quiet() {
        let cfg = FecScenarioConfig {
            loss: 0.0,
            stream_end: SimTime::from_millis(1_500),
            ..FecScenarioConfig::default()
        };
        let report = run_fec_scenario(&cfg);
        assert!(report.triggered_at.is_none());
        assert!(report.outcome.is_none(), "no request, no adaptation");
        assert_eq!(report.recovered_packets, 0);
    }
}
