//! Ready-made runs of the Figure 3 world: the safe protocol and the two
//! baseline strategies it is compared against.

use sada_core::casestudy::{case_study, CaseStudy};
use sada_expr::CompId;
use sada_model::{AuditReport, SafetyAuditor};
use sada_obs::Bus;
use sada_proto::{JournalRecord, ManagerActor, Outcome, ProtoTiming, Wire};
use sada_simnet::{ActorId, FaultPlan, LinkConfig, SimDuration, SimTime, Simulator};

use crate::actors::{AppMsg, ClientActor, CtlMsg, ServerActor, ServerStats, VideoWire};
use crate::audit_log::AuditShared;
use crate::frame::PlayerStats;

/// Tunables of a video-system run.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// RNG seed.
    pub seed: u64,
    /// Frame size in bytes.
    pub frame_size: usize,
    /// Frame period (e.g. 33 ms ≈ 30 fps).
    pub frame_period: SimDuration,
    /// Fragmentation MTU.
    pub mtu: usize,
    /// When the server stops capturing.
    pub stream_end: SimTime,
    /// When the adaptation (or baseline swap) starts.
    pub adapt_at: SimDuration,
    /// Network link used for all traffic.
    pub link: LinkConfig,
    /// Manager retry/timeout policy.
    pub timing: ProtoTiming,
    /// Fallback drain window for clients (must exceed one link latency).
    pub drain_window: SimDuration,
    /// Injected faults (crashes, partitions); empty by default.
    pub faults: FaultPlan,
    /// Unified observability bus shared by the network, the protocol
    /// participants, and the audit instrumentation. Attach sinks to a clone
    /// before the run to capture the whole event stream.
    pub bus: Bus,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 7,
            frame_size: 3_000,
            frame_period: SimDuration::from_millis(33),
            mtu: 512,
            stream_end: SimTime::from_millis(2_000),
            adapt_at: SimDuration::from_millis(500),
            link: LinkConfig::reliable(SimDuration::from_millis(5)),
            timing: ProtoTiming::default(),
            drain_window: SimDuration::from_millis(50),
            faults: FaultPlan::new(),
            bus: Bus::new(),
        }
    }
}

/// Which adaptation strategy drives the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// No adaptation at all (control run).
    None,
    /// The paper's safe adaptation process (manager + agents + MAP).
    Safe,
    /// Uncoordinated hot-swap: each process swaps the moment it is told,
    /// with `skew` between processes — the unsafe strawman.
    Naive {
        /// Gap between successive processes' swaps.
        skew: SimDuration,
    },
    /// Kramer–Magee-style quiescence: passivate *everything*, wait a drain
    /// window, swap all components in one shot, reactivate.
    Quiescence {
        /// How long the world is held passive before swapping.
        window: SimDuration,
    },
}

/// Everything a run produced.
#[derive(Debug, Clone)]
pub struct VideoReport {
    /// Protocol outcome (safe strategy only).
    pub outcome: Option<Outcome>,
    /// Server counters.
    pub server: ServerStats,
    /// Hand-held player stats.
    pub handheld: PlayerStats,
    /// Laptop player stats.
    pub laptop: PlayerStats,
    /// Hand-held chain blocked time.
    pub handheld_blocked: SimDuration,
    /// Independent safety audit of the whole run.
    pub audit: AuditReport,
    /// Virtual time when the world quiesced.
    pub finished_at: SimTime,
    /// Crash faults suffered per client (hand-held, laptop).
    pub client_crashes: (u64, u64),
    /// Rejoin announcements sent per client (hand-held, laptop).
    pub client_rejoins: (u64, u64),
    /// Manager incarnations rebuilt from the write-ahead journal (safe
    /// strategy only; 0 when the manager never crashed).
    pub manager_restores: u64,
    /// The manager's write-ahead adaptation journal as it stood at the end
    /// of the run (safe strategy only; empty for the baselines).
    pub manager_journal: Vec<JournalRecord>,
}

impl VideoReport {
    /// Total corrupted packets across both clients.
    pub fn corrupted_packets(&self) -> u64 {
        self.handheld.corrupted_packets + self.laptop.corrupted_packets
    }

    /// Total frames displayed across both clients.
    pub fn frames_displayed(&self) -> u64 {
        self.handheld.frames_displayed + self.laptop.frames_displayed
    }
}

fn swap_plan(cs: &CaseStudy) -> Vec<(usize, Vec<CompId>, Vec<CompId>)> {
    // Full source→target reconfiguration per process:
    // server E1→E2, hand-held D1→D3, laptop D4→D5.
    let u = cs.spec.universe();
    let id = |n: &str| u.id(n).expect("component");
    vec![
        (0, vec![id("E1")], vec![id("E2")]),
        (1, vec![id("D1")], vec![id("D3")]),
        (2, vec![id("D4")], vec![id("D5")]),
    ]
}

/// Builds and runs the case-study world under `strategy`, returning the
/// consolidated report.
pub fn run_video_scenario(cfg: &ScenarioConfig, strategy: Strategy) -> VideoReport {
    run_video_with(cfg, strategy, &case_study())
}

/// Like [`run_video_scenario`], but over a caller-provided variant of the
/// case study (e.g. a restricted action table that forces the compound
/// drain-requiring path).
pub fn run_video_with(cfg: &ScenarioConfig, strategy: Strategy, cs: &CaseStudy) -> VideoReport {
    let audit = AuditShared::new(&cfg.bus, cs.source.clone());
    let mut sim: Simulator<VideoWire> = Simulator::new(cfg.seed);
    sim.set_bus(cfg.bus.clone());
    sim.set_default_link(cfg.link);

    let u = cs.spec.universe().clone();
    let handheld_decoders: Vec<&'static str> = vec!["D1", "D2", "D3"];
    let laptop_decoders: Vec<&'static str> = vec!["D4", "D5"];

    // Actor ids are assigned in registration order; the multicast group is
    // created first and patched into the server afterwards.
    let server_id = ActorId::from_index(0);
    let handheld_id = ActorId::from_index(1);
    let laptop_id = ActorId::from_index(2);

    let mut sim2 = sim; // appease the borrow checker ordering below
    let group = sim2.create_group(&[server_id, handheld_id, laptop_id]);
    let server = ServerActor::new(
        u.clone(),
        group,
        vec![handheld_decoders.clone(), laptop_decoders.clone()],
        cfg.seed ^ 0x5EED,
        cfg.frame_size,
        cfg.frame_period,
        cfg.mtu,
        cfg.stream_end,
        audit.clone(),
    );
    let s = sim2.add_actor("video-server", server);
    let h = sim2.add_actor(
        "handheld-client",
        ClientActor::new(u.clone(), 0, &["D1"], cfg.drain_window, audit.clone()),
    );
    let l = sim2.add_actor(
        "laptop-client",
        ClientActor::new(u.clone(), 1, &["D4"], cfg.drain_window, audit.clone()),
    );
    debug_assert_eq!((s, h, l), (server_id, handheld_id, laptop_id));

    match strategy {
        Strategy::None => {}
        Strategy::Safe => {
            let manager = sim2.add_actor(
                "adaptation-manager",
                ManagerActor::<AppMsg>::new(
                    cfg.timing,
                    Box::new(cs.spec.runtime_planner()),
                    vec![s, h, l],
                    cs.source.clone(),
                    cs.target.clone(),
                )
                .with_request_delay(cfg.adapt_at)
                .with_bus(cfg.bus.clone()),
            );
            sim2.actor_mut::<ServerActor>(s).unwrap().set_manager(manager);
            sim2.actor_mut::<ClientActor>(h).unwrap().set_manager(manager);
            sim2.actor_mut::<ClientActor>(l).unwrap().set_manager(manager);
        }
        Strategy::Naive { skew } => {
            let plan = swap_plan(cs);
            let targets = [s, h, l];
            for (i, (proc_ix, removes, adds)) in plan.into_iter().enumerate() {
                let at = cfg.adapt_at + skew.saturating_mul(i as u64);
                sim2.inject(
                    targets[proc_ix],
                    targets[proc_ix],
                    Wire::App(AppMsg::Ctl(CtlMsg::NaiveSwap { removes, adds })),
                    at,
                );
            }
        }
        Strategy::Quiescence { window } => {
            let targets = [s, h, l];
            // Top-down passivation: the server stops first; clients follow
            // once in-flight packets have had time to drain (a client that
            // passivates immediately would buffer old-format packets past
            // the swap — the mistake quiescence exists to avoid).
            sim2.inject(s, s, Wire::App(AppMsg::Ctl(CtlMsg::Passivate)), cfg.adapt_at);
            let client_passivate = cfg.adapt_at + cfg.drain_window;
            for &t in &targets[1..] {
                sim2.inject(t, t, Wire::App(AppMsg::Ctl(CtlMsg::Passivate)), client_passivate);
            }
            for (proc_ix, removes, adds) in swap_plan(cs) {
                sim2.inject(
                    targets[proc_ix],
                    targets[proc_ix],
                    Wire::App(AppMsg::Ctl(CtlMsg::SwapNow { removes, adds })),
                    client_passivate + window,
                );
            }
            let reactivate = client_passivate + window + SimDuration::from_millis(1);
            for &t in &targets {
                sim2.inject(t, t, Wire::App(AppMsg::Ctl(CtlMsg::Activate)), reactivate);
            }
        }
    }

    sim2.schedule_faults(&cfg.faults);
    sim2.run();

    let server_stats = sim2.actor::<ServerActor>(s).unwrap().stats;
    // Packets destroyed while a crashed client was down leave their
    // critical segments open; the harness knows the outages and adjudicates
    // them lost before auditing (cid high bits encode the owning client).
    for (ix, id) in [(0u64, h), (1u64, l)] {
        if sim2.actor::<ClientActor>(id).unwrap().crashes > 0 {
            audit.adjudicate_lost(sim2.now(), ix + 1);
        }
    }
    let auditor = SafetyAuditor::new(cs.spec.invariants().clone());
    let audit_report = auditor.audit(&audit.events());
    let hh = sim2.actor::<ClientActor>(h).unwrap();
    let lp = sim2.actor::<ClientActor>(l).unwrap();
    let (outcome, manager_restores, manager_journal) = match strategy {
        Strategy::Safe => match sim2.actor::<ManagerActor<AppMsg>>(ActorId::from_index(3)) {
            Some(m) => (m.outcome.clone(), m.restores, m.journal.clone()),
            None => (None, 0, Vec::new()),
        },
        _ => (None, 0, Vec::new()),
    };
    VideoReport {
        outcome,
        server: server_stats,
        handheld: hh.stats(),
        laptop: lp.stats(),
        handheld_blocked: hh.blocked,
        audit: audit_report,
        finished_at: sim2.now(),
        client_crashes: (hh.crashes, lp.crashes),
        client_rejoins: (hh.host.rejoins_sent(), lp.host.rejoins_sent()),
        manager_restores,
        manager_journal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_run_streams_cleanly() {
        let report = run_video_scenario(&ScenarioConfig::default(), Strategy::None);
        assert!(report.server.frames_sent > 50);
        assert_eq!(report.corrupted_packets(), 0);
        assert_eq!(report.handheld.frames_displayed, report.server.frames_sent);
        assert_eq!(report.laptop.frames_displayed, report.server.frames_sent);
        assert!(report.audit.is_safe(), "{:?}", report.audit.violations.first());
        assert_eq!(report.server.blocked, SimDuration::ZERO);
    }

    #[test]
    fn safe_adaptation_preserves_stream_integrity() {
        let report = run_video_scenario(&ScenarioConfig::default(), Strategy::Safe);
        let o = report.outcome.as_ref().expect("outcome recorded");
        assert!(o.success, "adaptation must reach the target");
        assert_eq!(o.steps_committed, 5, "the 5-step MAP");
        assert_eq!(report.corrupted_packets(), 0, "no packet corrupted during safe adaptation");
        assert!(report.audit.is_safe(), "violations: {:?}", report.audit.violations);
        // The MAP is all single-process steps, so blocking is essentially
        // zero and no frame is lost: the viewers never notice the hardening.
        assert_eq!(report.handheld.frames_displayed, report.server.frames_sent);
        assert_eq!(report.laptop.frames_displayed, report.server.frames_sent);
    }

    #[test]
    fn naive_swap_corrupts_and_fails_audit() {
        let strategy = Strategy::Naive { skew: SimDuration::from_millis(60) };
        let report = run_video_scenario(&ScenarioConfig::default(), strategy);
        assert!(report.corrupted_packets() > 0, "uncoordinated swap must corrupt packets");
        assert!(!report.audit.is_safe(), "audit must flag the unsafe interleaving");
    }

    #[test]
    fn quiescence_is_safe_but_blocks_more() {
        let q = Strategy::Quiescence { window: SimDuration::from_millis(100) };
        let report_q = run_video_scenario(&ScenarioConfig::default(), q);
        assert_eq!(report_q.corrupted_packets(), 0, "quiescence is also safe");
        let report_s = run_video_scenario(&ScenarioConfig::default(), Strategy::Safe);
        assert!(
            report_q.server.blocked > report_s.server.blocked,
            "whole-system passivation ({}) must block the server longer than \
             the fine-grained safe protocol ({})",
            report_q.server.blocked,
            report_s.server.blocked
        );
    }

    #[test]
    fn deterministic_reports() {
        let a = run_video_scenario(&ScenarioConfig::default(), Strategy::Safe);
        let b = run_video_scenario(&ScenarioConfig::default(), Strategy::Safe);
        assert_eq!(a.server, b.server);
        assert_eq!(a.handheld, b.handheld);
        assert_eq!(a.finished_at, b.finished_at);
    }
}
