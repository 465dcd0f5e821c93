//! Regenerates every table and figure of the paper plus the repository's
//! measured series — the source of EXPERIMENTS.md.
//!
//! Usage: `cargo run -p sada-bench --bin report -- [section]`
//! where `section` is one of `table1 table2 fig1 fig2 fig4 map failures
//! crashes baselines scaling planning fec inference timeline fleet
//! overload shard scenario scale all` (default `all`).
//!
//! `scale` also accepts a seed: `report -- scale <seed>` reruns the strided
//! 1k/10k-group storms (flat and sharded, thread-invariance asserted) under
//! that simulation seed.
//!
//! `timeline` additionally accepts a chaos seed:
//! `cargo run -p sada-bench --bin report -- timeline <seed>` replays the
//! chaos-sweep fault plan for that seed (the command printed at the top of
//! every `target/chaos-failures/seed-*.txt` counterexample dump) and renders
//! its per-phase latency breakdown from the unified event stream.
//!
//! `fleet` also accepts a seed: `report -- fleet <seed>` reruns the
//! control-plane scenario (including its crash/restore leg) under that
//! simulation seed.
//!
//! `scenario` also accepts a seed: `report -- scenario <seed>` generates
//! and runs the serverless and IaaS universes for seeds `<seed>`,
//! `<seed>+1`, `<seed>+2` (default base seed 1, matching
//! `BENCH_scenario.json`).
//!
//! `report -- diff A.jsonl B.jsonl` is no section of the paper: it decodes
//! two JSONL traces and prints where they part (see `diff`). It exits 1
//! when they do, and 2 when a trace cannot be read. `report -- counts
//! TRACE.jsonl` rebuilds a run's counters from its trace alone: one `kind
//! count` line per kind the trace carries, in table order.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use sada_core::casestudy::{case_study, PAPER_MAP, PAPER_MAP_COST, TABLE1_ROWS};
use sada_core::{run_adaptation, RunConfig};
use sada_expr::{enumerate, CompId};
use sada_obs::{
    decode_lines, encode_event, AuditEvent, Bus, Counts, Event, Kind, Metrics, Payload, RingSink,
};
use sada_plan::Search;
use sada_proto::{
    AgentCore, AgentEvent, AgentState, LocalAction, ManagerCore, ManagerEvent, ManagerPhase,
    ProtoMsg, ProtoTiming, StepId,
};
use sada_simnet::{chaos, ActorId, ChaosOpts, FaultPlan, LinkConfig, SimDuration, SimTime};
use sada_video::{
    run_fec_scenario, run_video_scenario, FecScenarioConfig, ScenarioConfig, Strategy,
};

fn table1() {
    println!("## Table 1 — safe configuration set");
    let cs = case_study();
    let u = cs.spec.universe();
    let safe = cs.spec.safe_configs();
    println!("{:<12} {:<20} paper row", "bit vector", "configuration");
    for cfg in &safe {
        let bits = cfg.to_bit_string();
        let in_paper = TABLE1_ROWS.iter().any(|(b, _)| *b == bits);
        println!(
            "{:<12} {:<20} {}",
            bits,
            cfg.to_names(u),
            if in_paper { "yes" } else { "NO (!)" }
        );
    }
    println!(
        "rows: {} (paper: 8) — {}",
        safe.len(),
        if safe.len() == 8 { "MATCH" } else { "MISMATCH" }
    );
}

fn table2() {
    println!("## Table 2 — adaptive actions and costs");
    let cs = case_study();
    println!("{:<5} {:<28} {:>9}", "id", "operation", "cost (ms)");
    for a in cs.spec.actions() {
        println!("{:<5} {:<28} {:>9}", a.id().to_string(), a.name(), a.cost());
    }
    println!("actions: {} (paper: 17)", cs.spec.actions().len());
}

fn fig4() {
    println!("## Figure 4 — safe adaptation graph");
    let cs = case_study();
    let sag = cs.spec.build_sag();
    println!("nodes: {} (paper: 8), arcs: {}", sag.node_count(), sag.edge_count());
    let mut by_action: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for e in sag.edges() {
        by_action.entry(e.action.to_string()).or_default().push(format!(
            "{} -> {}",
            sag.configs()[e.from].to_bit_string(),
            sag.configs()[e.to].to_bit_string()
        ));
    }
    for (a, arcs) in by_action {
        println!("  {a}: {}", arcs.join(", "));
    }
}

fn map() {
    println!("## Section 5.1 — minimum adaptation path");
    let cs = case_study();
    let u = cs.spec.universe();
    let path = cs.spec.minimum_adaptation_path(&cs.source, &cs.target).expect("MAP");
    let labels: Vec<String> = path.action_ids().iter().map(|a| a.to_string()).collect();
    println!("measured: {labels:?} cost {}", path.cost);
    println!("paper:    {PAPER_MAP:?} cost {PAPER_MAP_COST}");
    println!(
        "match:    {}",
        if labels == PAPER_MAP && path.cost == PAPER_MAP_COST { "EXACT" } else { "DIFFERS" }
    );
    for step in &path.steps {
        println!("  {}: {} -> {}", step.action, step.from.to_names(u), step.to.to_names(u));
    }
    // Ranked alternatives (used by the recovery ladder).
    let sag = cs.spec.build_sag();
    for (i, p) in sag.k_shortest_paths(&cs.source, &cs.target, 4).iter().enumerate() {
        println!("  rank {}: {p}", i + 1);
    }
}

fn fig1() {
    println!("## Figure 1 — agent state diagram (observed trace)");
    let la = LocalAction {
        action: sada_plan::ActionId(1),
        removes: vec![],
        adds: vec![],
        needs_global_drain: false,
    };
    let mut agent = AgentCore::new();
    let script = [
        (
            "receive reset",
            AgentEvent::Msg(ProtoMsg::Reset { step: StepId(1), action: la.clone(), solo: false }),
        ),
        ("reset complete", AgentEvent::SafeReached),
        ("adaptive action complete", AgentEvent::InActionDone),
        ("receive resume", AgentEvent::Msg(ProtoMsg::Resume { step: StepId(1) })),
        ("resumption complete", AgentEvent::ResumeFinished),
    ];
    let mut prev = agent.state();
    println!("  start: {prev:?}");
    for (label, ev) in script {
        let effects = agent.on_event(ev);
        let sends: Vec<String> = effects
            .iter()
            .filter_map(|e| match e {
                sada_proto::AgentEffect::Send(m) => Some(format!("{m:?}")),
                _ => None,
            })
            .collect();
        println!("  [{label}] {:?} -> {:?}  sends {sends:?}", prev, agent.state());
        prev = agent.state();
    }
    assert_eq!(agent.state(), AgentState::Running);
    println!(
        "  (failure arcs covered by unit tests: fail-to-reset, rollback from every partial state)"
    );
}

fn fig2() {
    println!("## Figure 2 — manager state diagram (observed trace)");
    let cs = case_study();
    let mut mgr = ManagerCore::new(ProtoTiming::default(), Box::new(cs.spec.runtime_planner()));
    println!("  start: {:?}", mgr.phase());
    let mut effects = mgr
        .on_event(ManagerEvent::Request { source: cs.source.clone(), target: cs.target.clone() });
    println!("  [request + MAP created] -> {:?}", mgr.phase());
    // Drive each step by answering as the single participating agent would.
    let mut step_no = 0;
    let mut guard = 0;
    while mgr.phase() != ManagerPhase::Running && guard < 100 {
        guard += 1;
        let reset = effects.iter().find_map(|e| match e {
            sada_proto::ManagerEffect::Send { agent, msg: ProtoMsg::Reset { step, .. } } => {
                Some((*agent, *step))
            }
            _ => None,
        });
        if let Some((agent, step)) = reset {
            step_no += 1;
            let _ =
                mgr.on_event(ManagerEvent::AgentMsg { agent, msg: ProtoMsg::ResetDone { step } });
            let e2 =
                mgr.on_event(ManagerEvent::AgentMsg { agent, msg: ProtoMsg::AdaptDone { step } });
            println!("  [step {step_no}: all adapt done] -> {:?}", mgr.phase());
            let _ = e2;
            effects =
                mgr.on_event(ManagerEvent::AgentMsg { agent, msg: ProtoMsg::ResumeDone { step } });
            println!("  [step {step_no}: all resume done] -> {:?}", mgr.phase());
        } else {
            break;
        }
    }
    assert_eq!(mgr.phase(), ManagerPhase::Running);
    println!("  adaptation complete after {step_no} steps (paper: 5)");
}

fn failures() {
    println!("## Section 4.4 — failure handling");
    let cs = case_study();
    println!("loss sweep (manager<->agent links), 6 seeds each:");
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>12}",
        "loss", "success", "aborted", "gave-up", "avg msgs"
    );
    for loss in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5] {
        let (mut ok, mut ab, mut gu, mut msgs) = (0, 0, 0, 0u64);
        for seed in 0..6 {
            let cfg = RunConfig {
                seed,
                link: LinkConfig::lossy(SimDuration::from_millis(1), loss),
                ..RunConfig::default()
            };
            let r = run_adaptation(&cs.spec, &cs.source, &cs.target, &cfg);
            msgs += r.messages_sent;
            if r.outcome.success {
                ok += 1;
            } else if r.outcome.gave_up {
                gu += 1;
            } else {
                ab += 1;
            }
            assert!(cs.spec.is_safe(&r.outcome.final_config), "safety invariant");
        }
        println!("{:<8} {:>10} {:>10} {:>10} {:>12}", loss, ok, ab, gu, msgs / 6);
    }
    println!("fail-to-reset injection:");
    for (who, name) in [(1usize, "handheld"), (2, "laptop")] {
        let cfg = RunConfig { fail_to_reset: vec![who], ..RunConfig::default() };
        let r = run_adaptation(&cs.spec, &cs.source, &cs.target, &cfg);
        println!(
            "  {name}: success={} gave_up={} final={} (safe={})",
            r.outcome.success,
            r.outcome.gave_up,
            r.outcome.final_config.to_bit_string(),
            cs.spec.is_safe(&r.outcome.final_config)
        );
    }
}

/// The exact `ChaosOpts` the tier-1 chaos sweep uses (tests/chaos_sweep.rs)
/// — kept in lockstep so `timeline <seed>` and the chaos matrix reproduce
/// the same plans a failing sweep seed names. Every actor, the manager
/// included, is crashable; the manager recovers via its write-ahead journal.
fn sweep_chaos_opts(cs: &sada_core::casestudy::CaseStudy) -> ChaosOpts {
    let n = cs.spec.model().process_count();
    let all: Vec<ActorId> = (0..=n).map(ActorId::from_index).collect();
    ChaosOpts { crashable: all.clone(), partitionable: all, horizon: SimDuration::from_millis(500) }
}

fn crashes() {
    println!("## Crash faults — agent and manager crash/recovery matrix");
    let cs = case_study();
    // Baseline cost of the unfaulted run, for overhead accounting.
    let base = run_adaptation(&cs.spec, &cs.source, &cs.target, &RunConfig::default());
    println!(
        "no-fault baseline: finished at {} with {} msgs",
        base.finished_at, base.messages_sent
    );
    // Sweep the crash instant across the protocol window for each agent
    // victim; the victim restarts 100 ms after dying.
    println!("single crash/restart sweep (restart = crash + 100ms):");
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>11} {:>10}",
        "victim", "crash-at", "success", "rejoins", "restores", "msgs", "finished", "safe"
    );
    // The manager (registered after the agents) is a victim like any other:
    // it recovers by replaying its write-ahead journal instead of rejoining.
    let manager_ix = cs.spec.model().process_count();
    for (who, name) in [(0usize, "server"), (1, "handheld"), (2, "laptop"), (manager_ix, "manager")]
    {
        for crash_ms in [2u64, 6, 12, 20, 30] {
            let victim = ActorId::from_index(who);
            let cfg = RunConfig {
                faults: FaultPlan::new()
                    .crash(victim, SimTime::from_millis(crash_ms))
                    .restart(victim, SimTime::from_millis(crash_ms + 100)),
                ..RunConfig::default()
            };
            let r = run_adaptation(&cs.spec, &cs.source, &cs.target, &cfg);
            assert!(cs.spec.is_safe(&r.outcome.final_config), "safety invariant");
            println!(
                "{:<10} {:>7}ms {:>9} {:>9} {:>9} {:>9} {:>11} {:>10}",
                name,
                crash_ms,
                r.outcome.success,
                r.rejoins,
                r.manager_restores,
                r.messages_sent,
                format!("{}", r.finished_at),
                cs.spec.is_safe(&r.outcome.final_config)
            );
        }
    }
    // Randomized chaos: the same sweep the tier-1 chaos_sweep test runs,
    // summarized as a matrix over intensity.
    println!(
        "chaos sweep (20 seeds per intensity, crashes incl. manager + partitions + drops + bursts):"
    );
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>11}",
        "intensity", "success", "aborted", "gave-up", "crashes", "rejoins", "restores", "avg msgs"
    );
    let opts = sweep_chaos_opts(&cs);
    for intensity in [0.2, 0.4, 0.6, 0.8] {
        let (mut ok, mut ab, mut gu, mut cr, mut rj, mut rs, mut msgs) =
            (0, 0, 0, 0u64, 0u64, 0u64, 0u64);
        for seed in 0..20u64 {
            let plan = chaos(seed, intensity, &opts);
            let cfg = RunConfig { faults: plan, ..RunConfig::default() };
            let r = run_adaptation(&cs.spec, &cs.source, &cs.target, &cfg);
            assert!(cs.spec.is_safe(&r.outcome.final_config), "safety invariant");
            if r.outcome.success {
                ok += 1;
            } else if r.outcome.gave_up {
                gu += 1;
            } else {
                ab += 1;
            }
            cr += r.crashes;
            rj += r.rejoins;
            rs += r.manager_restores;
            msgs += r.messages_sent;
        }
        println!(
            "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>11}",
            intensity,
            ok,
            ab,
            gu,
            cr,
            rj,
            rs,
            msgs / 20
        );
    }
}

fn baselines() {
    println!("## Baseline comparison (video stream during reconfiguration)");
    let cfg = ScenarioConfig::default();
    let rows = [
        ("control", run_video_scenario(&cfg, Strategy::None)),
        ("safe", run_video_scenario(&cfg, Strategy::Safe)),
        (
            "naive-60ms",
            run_video_scenario(&cfg, Strategy::Naive { skew: SimDuration::from_millis(60) }),
        ),
        (
            "quiesce-100",
            run_video_scenario(
                &cfg,
                Strategy::Quiescence { window: SimDuration::from_millis(100) },
            ),
        ),
    ];
    println!(
        "{:<12} {:>7} {:>10} {:>10} {:>12} {:>8}",
        "strategy", "frames", "displayed", "corrupted", "srv-blocked", "audit"
    );
    for (name, r) in &rows {
        println!(
            "{:<12} {:>7} {:>10} {:>10} {:>12} {:>8}",
            name,
            r.server.frames_sent,
            r.frames_displayed(),
            r.corrupted_packets(),
            format!("{}", r.server.blocked),
            if r.audit.is_safe() { "SAFE" } else { "UNSAFE" }
        );
    }
}

fn scaling() {
    println!("## Section 7 — scalability (safe-config enumeration & planning)");
    println!(
        "{:>4} {:>12} {:>14} {:>14} {:>16}",
        "k", "safe configs", "pruned nodes", "lazy expanded", "lazy checks"
    );
    for k in [4usize, 6, 8, 10, 12] {
        let (u, inv, actions) = sada_bench::paired_system(k);
        let safe = enumerate::safe_configs(&u, &inv);
        let nodes = enumerate::pruned_search_nodes(&u, &inv);
        // Adapt only pair 0: lazy planning explores a constant-size region.
        let mut source = u.empty_config();
        let mut target = u.empty_config();
        for i in 0..k {
            source.insert(u.id(&format!("Old{i}")).unwrap());
            let tname = if i == 0 { format!("New{i}") } else { format!("Old{i}") };
            target.insert(u.id(&tname).unwrap());
        }
        let (p, stats) = Search::new(&inv, &actions, source.width()).plan(&source, &target);
        assert!(p.is_some());
        println!(
            "{:>4} {:>12} {:>14} {:>14} {:>16}",
            k,
            safe.len(),
            nodes,
            stats.expanded,
            stats.safety_checks
        );
    }
    println!("(full enumeration is exponential in k; lazy exploration is flat — the paper's partial-SAG heuristic)");
}

fn planning() {
    use sada_fleet::{disjoint_wave, run_fleet, FleetScenario};
    println!("## Planner hot path — compiled kernels vs tree-walk, and the fleet plan cache");
    println!(
        "{:>5} {:>6} {:>16} {:>16} {:>10} {:>14} {:>10}",
        "comps", "steps", "tree-walk evals", "kernel evals", "reduction", "safety checks", "probed"
    );
    for n in [16usize, 24, 32] {
        let (u, inv, actions, src, dst) = sada_bench::grouped_flip_workload(n);
        let kernel = Search::new(&inv, &actions, u.len());
        let baseline = sada_plan::oracle::tree_walk_search(&inv, &actions, u.len());
        let (kp, ks) = kernel.plan(&src, &dst);
        let (bp, bs) = baseline.plan(&src, &dst);
        let (kp, bp) = (kp.expect("path exists"), bp.expect("path exists"));
        assert_eq!(kp.cost, bp.cost, "both legs find the same optimum");
        assert_eq!(ks.safety_checks, bs.safety_checks, "identical search skeleton");
        println!(
            "{:>5} {:>6} {:>16} {:>16} {:>10} {:>14} {:>10}",
            n,
            kp.cost,
            bs.pred_evals,
            ks.pred_evals,
            format!("{:.1}x", bs.pred_evals as f64 / ks.pred_evals.max(1) as f64),
            ks.safety_checks,
            ks.probed
        );
    }
    println!("(same expansions and safety checks either way — only the per-check cost drops)");
    println!();
    println!("fleet plan cache on disjoint waves (isomorphic sessions share one entry):");
    println!("{:>7} {:>9} {:>6} {:>8} {:>9}", "groups", "sessions", "hits", "misses", "hit rate");
    for groups in [10usize, 50, 100] {
        let r = run_fleet(&FleetScenario::new(groups, disjoint_wave(groups / 2, 2)));
        assert_eq!(r.succeeded(), groups / 2);
        let c = r.cache;
        println!(
            "{:>7} {:>9} {:>6} {:>8} {:>9}",
            groups,
            groups / 2,
            c.hits,
            c.misses,
            format!("{:.0}%", 100.0 * c.hits as f64 / (c.hits + c.misses).max(1) as f64)
        );
    }
    println!("(a restored control plane starts cold: the cache never outlives its incarnation)");
}

fn fec() {
    println!("## Closed-loop FEC adaptation (decision-making + insertion)");
    let report = run_fec_scenario(&FecScenarioConfig::default());
    match report.triggered_at {
        Some(at) => println!("loss monitor fired at {at}"),
        None => println!("loss monitor never fired"),
    }
    if let Some(o) = &report.outcome {
        println!("adaptation: success={} steps={}", o.success, o.steps_committed);
    }
    println!(
        "frame delivery on degraded link: {:.1}% (no FEC) -> {:.1}% (FEC)",
        report.lossy_ratio_before * 100.0,
        report.lossy_ratio_after * 100.0
    );
    println!("packets reconstructed: {}", report.recovered_packets);
}

fn inference() {
    use sada_core::infer::{infer_invariants, CodecCatalog, InferenceConfig};
    use sada_meta::tags;
    println!("## Automatic dependency inference (Section 7)");
    let cs = case_study();
    let u = cs.spec.universe();
    let id = |n: &str| u.id(n).unwrap();
    let mut catalog = CodecCatalog::new();
    catalog
        .producer(id("E1"), tags::DES64)
        .producer(id("E2"), tags::DES128)
        .acceptor(id("D1"), &[tags::DES64])
        .acceptor(id("D2"), &[tags::DES128, tags::DES64])
        .acceptor(id("D3"), &[tags::DES128])
        .acceptor(id("D4"), &[tags::DES64])
        .acceptor(id("D5"), &[tags::DES128]);
    let cfg = InferenceConfig {
        exclusive_groups: vec![vec![id("D1"), id("D2"), id("D3")]],
        one_encoder: true,
    };
    let inferred = infer_invariants(u, cs.spec.model(), &catalog, &cfg);
    println!("inferred invariants:");
    for e in inferred.exprs() {
        println!("  {}", e.display(u));
    }
    let same = enumerate::safe_configs(u, &inferred) == cs.spec.safe_configs();
    println!("safe-configuration set matches Table 1: {}", if same { "YES" } else { "NO" });
}

/// Attaches a ring and a [`Counts`] to `bus` and returns the handles; the
/// caller reads them back out after the run.
fn tap(bus: &Bus) -> (Rc<RefCell<RingSink>>, Rc<RefCell<Counts>>) {
    let ring = Rc::new(RefCell::new(RingSink::new(1 << 20)));
    let counts = Rc::new(RefCell::new(Counts::new()));
    bus.attach(&ring);
    bus.attach(&counts);
    (ring, counts)
}

/// Renders one captured stream: per-phase latency table, layer counts, and
/// the temporal monitor's derived verdicts — all from the same events.
fn render_stream(events: &[Event], counts: &Counts) {
    use Kind::*;
    let m = Metrics::from_events(events);
    let layers: Vec<String> =
        counts.layers().iter().map(|(layer, n)| format!("{layer} {n}")).collect();
    println!("events: {} ({}), span {}", counts.total(), layers.join(" / "), m.span);
    println!("  {:<24} {:>12}", "protocol phase", "time");
    for (label, d) in m.phase_rows() {
        println!("  {:<24} {:>12}", label, format!("{d}"));
    }
    println!("  {:<24} {:>12}", "total (non-running)", format!("{}", m.total_phase_time()));
    let [sent, delivered, dropped, timers, crashes, restarts] =
        [Sent, Delivered, Dropped, TimerFired, Crashed, Restarted].map(|k| m.counts[k]);
    println!(
        "network:  sent={sent} delivered={delivered} dropped={dropped} timers={timers} \
         crashes={crashes} restarts={restarts}"
    );
    let [committed, started, timeouts, retries, rollbacks, rejoins] =
        [StepCommitted, StepStarted, TimeoutFired, RetrySent, RollbackIssued, RejoinReceived]
            .map(|k| m.counts[k]);
    println!(
        "protocol: steps {committed}/{started} committed, timeouts={timeouts} retries={retries} \
         rollbacks={rollbacks} rejoins={rejoins}"
    );
    let [appends, restores, queries, reports] =
        [JournalAppended, ManagerRestored, StateQueried, StateReported].map(|k| m.counts[k]);
    println!(
        "journal:  appends={appends} manager-restores={restores} state-queries={queries} \
         state-reports={reports}"
    );
    // Feed the very same stream to the temporal monitor: which components
    // carried segment obligations, and when was adaptation provably safe?
    let mut comp_ixs: BTreeSet<usize> = BTreeSet::new();
    for ev in events {
        if let Payload::Audit(
            AuditEvent::SegmentStart { comp, .. }
            | AuditEvent::SegmentEnd { comp, .. }
            | AuditEvent::SegmentLost { comp, .. },
        ) = &ev.payload
        {
            comp_ixs.insert(comp.index());
        }
    }
    let comps: Vec<CompId> = comp_ixs.into_iter().map(CompId::from_index).collect();
    let derived = Counts::of(&sada_tl::audit_bridge::derive_temporal_events(events, &comps));
    println!(
        "temporal: {} obligations opened, {} discharged, {} safe-point re-entries \
         ({} audit facts, {} monitored components)",
        derived[ObligationOpened],
        derived[ObligationDischarged],
        derived[SafePoint],
        m.counts.layers().into_iter().find(|&(layer, _)| layer == "audit").map_or(0, |(_, n)| n),
        comps.len()
    );
}

fn timeline(seed: Option<u64>) {
    println!("## Timeline — per-phase adaptation latency from the unified event stream");
    if let Some(seed) = seed {
        // Replay a chaos-sweep counterexample: identical plan construction
        // to tests/chaos_sweep.rs, so a seed from a failure dump reproduces
        // the exact faulted run, now with the full trace attached.
        let cs = case_study();
        let opts = sweep_chaos_opts(&cs);
        let intensity = 0.2 + 0.15 * (seed % 5) as f64;
        let plan = chaos(seed, intensity, &opts);
        println!("### chaos replay: seed {seed}, intensity {intensity:.2}");
        print!("{}", plan.to_text());
        let bus = Bus::new();
        let (ring, counts) = tap(&bus);
        let cfg = RunConfig { faults: plan, bus: bus.clone(), ..RunConfig::default() };
        let r = run_adaptation(&cs.spec, &cs.source, &cs.target, &cfg);
        println!(
            "outcome: success={} gave_up={} final={} (safe={})",
            r.outcome.success,
            r.outcome.gave_up,
            r.outcome.final_config.to_bit_string(),
            cs.spec.is_safe(&r.outcome.final_config)
        );
        render_stream(&ring.borrow().events(), &counts.borrow());
        // The manager's decision record, in the same text form the journal
        // codec persists: what a post-mortem (or a restarted incarnation)
        // would have worked from.
        println!("manager journal ({} restore(s) during the run):", r.manager_restores);
        for line in sada_proto::encode_journal(&r.journal).lines() {
            println!("  {line}");
        }
        return;
    }
    // Video case study, clean run vs the pinned crash/recovery run: both
    // tables come from one RingSink capture per run — the same stream the
    // safety auditor and temporal monitor consume.
    let clean = ScenarioConfig::default();
    let handheld = ActorId::from_index(1);
    let crashed = ScenarioConfig {
        faults: FaultPlan::new()
            .crash(handheld, SimTime::from_millis(520))
            .restart(handheld, SimTime::from_millis(690)),
        ..ScenarioConfig::default()
    };
    for (title, cfg) in [
        ("video case study: safe adaptation, no faults", clean),
        ("video case study: hand-held crash at 520ms, restart at 690ms", crashed),
    ] {
        let (ring, counts) = tap(&cfg.bus);
        let report = run_video_scenario(&cfg, Strategy::Safe);
        println!("### {title}");
        let o = report.outcome.as_ref().expect("safe run records an outcome");
        println!(
            "outcome: success={} steps={} audit={} finished_at={}",
            o.success,
            o.steps_committed,
            if report.audit.is_safe() { "SAFE" } else { "UNSAFE" },
            report.finished_at
        );
        render_stream(&ring.borrow().events(), &counts.borrow());
        println!();
    }
    println!(
        "(zero phase time is the point: the case-study MAP is all solo steps taken at packet\n \
         boundaries, so the viewers never notice the adaptation. Replay a chaos counterexample\n \
         with: cargo run -p sada-bench --bin report -- timeline <seed>)"
    );
}

/// Warns when `run`'s capture rings overflowed: its event stream — and any
/// fingerprint over it — covers only the retained tail, not the whole run.
fn warn_evicted(run: &str, evicted: u64) {
    if evicted > 0 {
        println!(
            "WARNING: {run}: {evicted} events evicted from the capture ring — the event \
             stream and its fingerprint are truncated"
        );
    }
}

fn fleet(seed: Option<u64>) {
    use sada_fleet::{disjoint_wave, run_fleet, FleetScenario, SessionSpec};
    let seed = seed.unwrap_or(42);
    println!("## Fleet-scale control plane (seed {seed})");

    // 100 groups, ten scope-disjoint sessions: scope-parallel vs serial.
    let mut scenario = FleetScenario::new(100, disjoint_wave(10, 10));
    scenario.seed = seed;
    let parallel = run_fleet(&scenario);
    scenario.serialize = true;
    let serial = run_fleet(&scenario);
    println!("100 groups (200 agents), 10 disjoint sessions x 10 groups each:");
    println!(
        "{:<16} {:>9} {:>12} {:>14} {:>14}",
        "admission", "success", "peak conc.", "makespan", "sessions/s"
    );
    for (name, r) in [("scope-parallel", &parallel), ("serial", &serial)] {
        println!(
            "{:<16} {:>9} {:>12} {:>14} {:>14.1}",
            name,
            format!("{}/10", r.succeeded()),
            r.max_concurrent,
            format!("{:.1}ms", r.makespan_us as f64 / 1000.0),
            r.succeeded() as f64 / (r.makespan_us as f64 / 1e6)
        );
    }
    println!(
        "speedup: {:.2}x (virtual time)",
        serial.makespan_us as f64 / parallel.makespan_us as f64
    );
    warn_evicted("scope-parallel", parallel.events_evicted);
    warn_evicted("serial", serial.events_evicted);
    println!(
        "plan cache (scope-parallel run): {} hits / {} misses / {} evictions ({:.0}% hit rate)",
        parallel.cache.hits,
        parallel.cache.misses,
        parallel.cache.evictions,
        100.0 * parallel.cache.hits as f64
            / (parallel.cache.hits + parallel.cache.misses).max(1) as f64
    );
    println!("per-session latency (scope-parallel):");
    println!("{:>8} {:>12} {:>12} {:>12}", "session", "queued", "exec", "total");
    for r in &parallel.results {
        let (sub, adm, done) =
            (r.submitted_at.unwrap_or(0), r.admitted_at.unwrap_or(0), r.completed_at.unwrap_or(0));
        println!(
            "{:>8} {:>12} {:>12} {:>12}",
            r.id,
            format!("{:.1}ms", (adm - sub) as f64 / 1000.0),
            format!("{:.1}ms", (done - adm) as f64 / 1000.0),
            format!("{:.1}ms", (done - sub) as f64 / 1000.0)
        );
    }

    // Contention + crash leg: two overlapping sessions, control plane dies
    // mid-barrier and rebuilds both from its journal.
    let mut chaos_scenario = FleetScenario::new(
        3,
        vec![
            SessionSpec {
                id: 1,
                flips: vec![(0, true), (1, true)],
                priority: 0,
                submit_at: SimDuration::ZERO,
                cancel_at: None,
            },
            SessionSpec {
                id: 2,
                flips: vec![(1, false), (2, true)],
                priority: 0,
                submit_at: SimDuration::from_millis(1),
                cancel_at: None,
            },
        ],
    );
    chaos_scenario.seed = seed;
    chaos_scenario.crash_control = Some((SimTime::from_millis(6), SimTime::from_millis(10)));
    let r = run_fleet(&chaos_scenario);
    warn_evicted("crash/restore leg", r.events_evicted);
    println!(
        "crash/restore leg: restores={} success={}/2 final={} (overlap serialized: {})",
        r.restores,
        r.succeeded(),
        r.final_config,
        r.session(1).and_then(|a| a.completed_at) <= r.session(2).and_then(|b| b.admitted_at)
    );
    println!("journal ({} records):", r.journal_text.lines().count());
    for line in r.journal_text.lines() {
        println!("  {line}");
    }
}

fn overload(seed: Option<u64>) {
    use sada_fleet::{measure_capacity, run_overload, OverloadConfig};
    let seed = seed.unwrap_or(42);
    const GROUPS: usize = 12;
    println!(
        "## Sustained overload — admission control vs the always-admit baseline (seed {seed})"
    );
    let capacity = measure_capacity(GROUPS, seed);
    println!(
        "healthy calibrated capacity: {capacity:.1} group adaptations/s over {GROUPS} groups \
         (goodput floor for the protected plane: {:.1}/s)",
        0.8 * capacity
    );
    println!(
        "degraded fleet: one group 400x slow, one agent crash-looping; Poisson arrivals \
         for 1s of virtual time"
    );
    println!(
        "{:<11} {:>5} {:>8} {:>8} {:>11} {:>6} {:>9} {:>6} {:>11} {:>11}",
        "config",
        "load",
        "offered",
        "done",
        "goodput/s",
        "shed",
        "rejected",
        "trips",
        "p50 admit",
        "p99 admit"
    );
    for load in [2u32, 4] {
        for (name, cfg) in [
            ("baseline", OverloadConfig::degraded(GROUPS, load, seed)),
            ("protected", OverloadConfig::protected(GROUPS, load, seed)),
        ] {
            let r = run_overload(&cfg, capacity);
            println!(
                "{:<11} {:>4}x {:>8} {:>8} {:>11.1} {:>6} {:>9} {:>6} {:>11} {:>11}",
                name,
                load,
                r.offered,
                r.succeeded,
                r.goodput_per_sec,
                r.counts[Kind::SessionShed],
                r.counts[Kind::SessionRejected] + r.counts[Kind::ScopeRejected],
                r.counts[Kind::BreakerOpened],
                format!("{:.1}ms", r.p50_admission_us as f64 / 1000.0),
                format!("{:.1}ms", r.p99_admission_us as f64 / 1000.0),
            );
        }
    }
    println!(
        "(baseline = always-admit + fixed retry ladder: slow-scope sessions convoy every \
         shared lock and goodput collapses. protected = breakers + bulkhead + RTT-adaptive \
         timeouts: load is shed deterministically and the healthy groups keep committing.)"
    );
}

fn shard(seed: Option<u64>) {
    use sada_fleet::{
        run_fleet_sharded, FabricFaultPlan, FleetScenario, SessionSpec, ShardScenario,
    };
    let seed = seed.unwrap_or(42);
    const GROUPS: usize = 16;
    const REGIONS: usize = 4;
    println!("## Sharded control plane — per-region threads + deterministic fabric (seed {seed})");

    // Locals on every group plus one straddler per region boundary: the
    // fabric carries exactly the lock-escalation handshakes.
    let mut sessions: Vec<SessionSpec> = (0..GROUPS)
        .map(|g| SessionSpec {
            id: g as u64 + 1,
            flips: vec![(g, true)],
            priority: (g % 4) as u8,
            submit_at: SimDuration::from_micros(500 * g as u64),
            cancel_at: None,
        })
        .collect();
    for r in 0..REGIONS - 1 {
        let boundary = (r + 1) * GROUPS / REGIONS;
        sessions.push(SessionSpec {
            id: 100 + r as u64,
            flips: vec![(boundary - 1, false), (boundary, false)],
            priority: 0,
            submit_at: SimDuration::from_millis(40 + r as u64),
            cancel_at: None,
        });
    }
    let mut fleet = FleetScenario::new(GROUPS, sessions);
    fleet.seed = seed;
    let scn = ShardScenario::new(fleet, REGIONS);
    let single = run_fleet_sharded(&scn, 1);
    let multi = run_fleet_sharded(&scn, REGIONS);
    warn_evicted("1-thread run", single.events_evicted);
    warn_evicted("multi-thread run", multi.events_evicted);

    println!(
        "{GROUPS} groups over {REGIONS} regions, {} sessions ({} straddling a region boundary):",
        multi.results.len(),
        REGIONS - 1
    );
    println!(
        "{:<9} {:>7} {:>7} {:>9} {:>6} {:>8} {:>10} {:>9} {:>11} {:>12}",
        "shard",
        "kind",
        "agents",
        "sessions",
        "done",
        "events",
        "delivered",
        "restores",
        "cache h/m",
        "sessions/s"
    );
    let wall_s = multi.wall.as_secs_f64().max(1e-9);
    for s in &multi.per_shard {
        println!(
            "{:<9} {:>7} {:>7} {:>9} {:>6} {:>8} {:>10} {:>9} {:>11} {:>12.1}",
            s.shard,
            if s.is_global { "global" } else { "region" },
            s.agents,
            s.sessions,
            s.completed,
            s.events,
            s.delivered,
            s.restores,
            format!("{}/{}", s.cache_hits, s.cache_misses),
            s.completed as f64 / wall_s,
        );
    }
    println!(
        "cross-shard fabric: {} messages over {} active edges ({} promise updates, {} worker \
         parks observed)",
        multi.fabric.messages,
        multi.fabric.per_edge.len(),
        multi.fabric.promise_updates,
        multi.fabric.parks
    );
    for &(src, dst, n) in &multi.fabric.per_edge {
        println!("  shard {src} -> shard {dst}: {n} message(s)");
    }
    println!(
        "outcome: {}/{} committed, final={}, makespan={:.1}ms, wall={:.1}ms on {} thread(s)",
        multi.succeeded(),
        multi.results.len(),
        multi.final_config,
        multi.makespan_us as f64 / 1000.0,
        multi.wall.as_secs_f64() * 1000.0,
        REGIONS,
    );
    println!(
        "determinism: 1-thread vs {REGIONS}-thread fingerprints {} ({:#018x})",
        if single.fingerprint == multi.fingerprint { "MATCH" } else { "DIVERGE" },
        multi.fingerprint,
    );
    println!(
        "(every region owns its own simulator, control actor, lock domain, and plan cache on a \
         real OS thread; only lock escalation for straddling scopes crosses the fabric, and the \
         conservative virtual-clock protocol makes thread count invisible to results.)"
    );

    // Chaos leg: the same fleet under a lossy fabric plus a global-tier
    // crash mid-handshake. The retransmission ladder, idempotent
    // grant/release application, and journal replay must land the clean
    // run's outcomes — the fault counters below show the machinery working.
    let mut chaos = scn.clone();
    chaos.fabric_faults = FabricFaultPlan {
        seed,
        drop_per_mille: 200,
        dup_per_mille: 200,
        delay_per_mille: 200,
        null_drop_per_mille: 100,
        ..FabricFaultPlan::default()
    };
    chaos.crash_global = Some((SimTime::from_millis(41), SimTime::from_millis(400)));
    let faulted = run_fleet_sharded(&chaos, REGIONS);
    println!();
    println!(
        "fabric chaos (drop/dup/delay 200‰ each, null-drop 100‰, global tier down 41–400 ms):"
    );
    println!(
        "  faults injected: {} dropped, {} duplicated, {} delayed, {} null advances suppressed",
        faulted.fabric.dropped,
        faulted.fabric.duplicated,
        faulted.fabric.delayed,
        faulted.fabric.nulls_dropped,
    );
    println!(
        "  recovery: {} retransmissions, {} lease reclaims, {} straddlers abandoned, \
         {} releases orphaned, {} control-plane restore(s)",
        faulted.retransmits,
        faulted.counts[Kind::LeaseReclaimed],
        faulted.abandoned,
        faulted.orphaned_releases,
        faulted.restores,
    );
    let chaos_single = run_fleet_sharded(&chaos, 1);
    warn_evicted("fabric-chaos run", faulted.events_evicted.max(chaos_single.events_evicted));
    println!(
        "  convergence: outcomes {} the lossless run ({}/{} committed, final={}); \
         1-thread vs {REGIONS}-thread fingerprints {}",
        if faulted.final_config == multi.final_config && faulted.succeeded() == multi.succeeded() {
            "MATCH"
        } else {
            "DIVERGE from"
        },
        faulted.succeeded(),
        faulted.results.len(),
        faulted.final_config,
        if faulted.fingerprint == chaos_single.fingerprint { "MATCH" } else { "DIVERGE" },
    );
    println!(
        "  global journal: {} record(s) — the durable WAL a restored tier replays",
        faulted.global_journal.lines().count(),
    );
}

fn scale(seed: Option<u64>) {
    use sada_fleet::{run_fleet, run_fleet_sharded, FleetScenario, SessionSpec, ShardScenario};
    let seed = seed.unwrap_or(42);
    const REGIONS: usize = 8;
    println!("## Scale hot path — strided storms at 1k/10k groups (seed {seed})");
    println!(
        "(one agent arena cloned on first touch, batched bus delivery, hierarchical timer wheel; \
         the full 100k sweep lives in BENCH_scale.json via `cargo bench --bench bench_scale`)"
    );
    println!(
        "{:>7} {:>7} {:>9} {:>11} {:>13} {:>13} {:>13} {:>13} {:>13} {:>15}",
        "groups",
        "agents",
        "sessions",
        "flat wall",
        "sessions/s",
        "events/s",
        "shard 1t",
        "shard 8t",
        "shard agents",
        "journal B/sess"
    );
    for groups in [1_000usize, 10_000] {
        let sessions = (2 * groups).min(2048);
        let specs: Vec<SessionSpec> = (0..sessions)
            .map(|i| SessionSpec {
                id: i as u64 + 1,
                flips: vec![(i * groups / sessions, i % 2 == 0)],
                priority: (i % 4) as u8,
                submit_at: SimDuration::from_micros(37 * i as u64),
                cancel_at: None,
            })
            .collect();
        let mut fleet = FleetScenario::new(groups, specs);
        fleet.seed = seed;
        fleet.time_budget = SimDuration::from_secs(10);
        let t = std::time::Instant::now();
        let flat = run_fleet(&fleet);
        let flat_wall = t.elapsed();
        let ok = flat.results.iter().filter(|s| s.success).count();
        assert_eq!(ok, sessions, "strided storm commits every session");
        let scn = ShardScenario::new(fleet, REGIONS);
        let t = std::time::Instant::now();
        let single = run_fleet_sharded(&scn, 1);
        let single_wall = t.elapsed();
        let t = std::time::Instant::now();
        let multi = run_fleet_sharded(&scn, 8);
        let multi_wall = t.elapsed();
        assert_eq!(single.fingerprint, multi.fingerprint, "thread-invariance at {groups} groups");
        assert_eq!(single.final_config, multi.final_config, "same destination at {groups} groups");
        assert_eq!(single.succeeded(), sessions, "sharded storm commits every session");
        let loaded = single.per_shard.iter().filter(|s| !s.is_global && s.sessions > 0).count();
        assert_eq!(loaded, REGIONS, "the stride must load every region");
        warn_evicted(&format!("{groups} groups, flat"), flat.events_evicted);
        warn_evicted(
            &format!("{groups} groups, sharded"),
            single.events_evicted.max(multi.events_evicted),
        );
        let wall_s = flat_wall.as_secs_f64().max(1e-9);
        println!(
            "{:>7} {:>7} {:>9} {:>11} {:>13.1} {:>13.1} {:>13} {:>13} {:>13} {:>15}",
            groups,
            2 * groups,
            sessions,
            format!("{:.1}ms", wall_s * 1000.0),
            ok as f64 / wall_s,
            flat.events.len() as f64 / wall_s,
            format!("{:.1}ms", single_wall.as_secs_f64() * 1000.0),
            format!("{:.1}ms", multi_wall.as_secs_f64() * 1000.0),
            single.per_shard.iter().map(|s| s.agents).sum::<usize>(),
            flat.journal_text.len() / sessions,
        );
    }
    println!(
        "(fingerprints asserted identical at 1 and 8 worker threads on every row; shard agents \
         is what the eight regions' planes host between them; journal B/sess is the flat run's \
         journal text per session)"
    );
}

fn scenario(seed: Option<u64>) {
    use sada_fleet::{run_fleet_sharded, Objective, ShardScenario};
    use sada_scenario::{encode_scenario, energy_showcase, generate, ScenarioConfig as GenConfig};
    let base = seed.unwrap_or(1);
    println!(
        "## Generated domains — seeded serverless & IaaS universes (seeds {base}..{})",
        base + 2
    );
    println!(
        "{:<12} {:>5} {:>9} {:>6} {:>8} {:>9} {:>7} {:>10} {:>11} {:>12}",
        "domain",
        "seed",
        "clusters",
        "comps",
        "actions",
        "sessions",
        "done",
        "straddle",
        "cache h/m",
        "makespan"
    );
    for mk in [GenConfig::serverless, GenConfig::iaas, GenConfig::iaas_energy]
        as [fn(u64) -> GenConfig; 3]
    {
        for seed in base..base + 3 {
            let cfg = mk(seed);
            let scenario = generate(&cfg);
            let regions = scenario.spec.clusters.len().clamp(1, 4);
            let scn = ShardScenario::new(scenario.fleet(), regions);
            let single = run_fleet_sharded(&scn, 1);
            let multi = run_fleet_sharded(&scn, 4);
            assert_eq!(single.fingerprint, multi.fingerprint, "thread-invariance");
            let (hits, misses) = multi
                .per_shard
                .iter()
                .fold((0u64, 0u64), |(h, m), s| (h + s.cache_hits, m + s.cache_misses));
            let straddlers = scenario.sessions.iter().filter(|s| s.flips.len() == 2).count();
            let label = format!(
                "{}{}",
                cfg.domain.name(),
                if cfg.objective == Objective::EnergyWatts { "+watts" } else { "" }
            );
            println!(
                "{:<12} {:>5} {:>9} {:>6} {:>8} {:>9} {:>7} {:>10} {:>11} {:>12}",
                label,
                seed,
                scenario.spec.clusters.len(),
                scenario.spec.comps.len(),
                scenario.spec.actions.len(),
                scenario.sessions.len(),
                format!("{}/{}", multi.succeeded(), scenario.sessions.len()),
                straddlers,
                format!("{hits}/{misses}"),
                format!("{:.1}ms", multi.makespan_us as f64 / 1000.0),
            );
            if seed == base {
                let text = encode_scenario(&scenario);
                println!(
                    "  (canonical text: {} lines / {} bytes — replay with \
                     `report -- scenario {seed}`)",
                    text.lines().count(),
                    text.len()
                );
            }
        }
    }
    println!();
    println!("energy objective showcase (same world, both cost columns):");
    for objective in [Objective::LatencyMs, Objective::EnergyWatts] {
        let w = sada_fleet::FleetWorld::from_spec(energy_showcase(objective));
        let init = w.initial_config();
        let goal = w.target_for(&init, &[(0, true)]);
        let (path, _) = w.search.plan(&init, &goal);
        let path = path.expect("showcase goal reachable");
        let route: Vec<&str> =
            path.steps.iter().map(|s| w.actions[s.action.index()].name()).collect();
        println!(
            "  {:<14} {} step(s), cost {:>3} — {}",
            objective.name(),
            path.steps.len(),
            path.cost,
            route.join(" -> ")
        );
    }
    println!(
        "(the watt-cheapest route stages through the relay host while the ms-cheapest route\n \
         migrates directly: MAP optimizes whichever column the world's objective selects.\n \
         All universes above are validated at generation: safe boot configuration, confined\n \
         collaborative sets, normalizable scopes, goals reachable in both directions.)"
    );
}

/// The events of the JSONL trace at `path`.
fn read_trace(path: &str) -> Result<Vec<Event>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    decode_lines(&text).map_err(|e| format!("{path}: {e}"))
}

/// A run's counters from its trace alone: `kind count` for every kind the
/// trace carries, in table order. Returns the exit status: 0, or 2 when the
/// trace cannot be read.
fn counts(path: &str) -> i32 {
    let Ok(events) = read_trace(path).map_err(|e| eprintln!("{e}")) else { return 2 };
    for (kind, n) in Counts::of(&events).iter().filter(|&(_, n)| n > 0) {
        println!("{} {n}", kind.name());
    }
    0
}

/// The first event at which two traces part: its 1-based number (the line
/// number, in a trace without comments or blank lines) and both events, a
/// trace that ends early standing as `(end of trace)`. Equal events are
/// equal whatever their spacing. Returns the exit status: 0 when the traces
/// are identical, 1 when they part, 2 when one cannot be read.
fn diff(a: &str, b: &str) -> i32 {
    let (ours, theirs) = match (read_trace(a), read_trace(b)) {
        (Ok(ours), Ok(theirs)) => (ours, theirs),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let parts = (0..ours.len().max(theirs.len())).find(|&i| ours.get(i) != theirs.get(i));
    let Some(at) = parts else {
        println!("identical ({} events)", ours.len());
        return 0;
    };
    let shown = |ev: Option<&Event>| ev.map_or_else(|| "(end of trace)".to_string(), encode_event);
    println!("line {}: the traces part", at + 1);
    println!("  {a}: {}", shown(ours.get(at)));
    println!("  {b}: {}", shown(theirs.get(at)));
    1
}

fn main() {
    let section = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    if section == "diff" {
        let paths: Vec<String> = std::env::args().skip(2).collect();
        let [a, b] = paths.as_slice() else {
            eprintln!("usage: report -- diff A.jsonl B.jsonl");
            std::process::exit(2);
        };
        std::process::exit(diff(a, b));
    }
    if section == "counts" {
        let Some(path) = std::env::args().nth(2) else {
            eprintln!("usage: report -- counts TRACE.jsonl");
            std::process::exit(2);
        };
        std::process::exit(counts(&path));
    }
    let run = |name: &str| section == "all" || section == name;
    if run("table1") {
        table1();
        println!();
    }
    if run("table2") {
        table2();
        println!();
    }
    if run("fig1") {
        fig1();
        println!();
    }
    if run("fig2") {
        fig2();
        println!();
    }
    if run("fig4") {
        fig4();
        println!();
    }
    if run("map") {
        map();
        println!();
    }
    if run("failures") {
        failures();
        println!();
    }
    if run("crashes") {
        crashes();
        println!();
    }
    if run("baselines") {
        baselines();
        println!();
    }
    if run("scaling") {
        scaling();
        println!();
    }
    if run("planning") {
        planning();
        println!();
    }
    if run("fec") {
        fec();
        println!();
    }
    if run("inference") {
        inference();
        println!();
    }
    if run("timeline") {
        let seed = std::env::args().nth(2).and_then(|s| s.parse().ok());
        timeline(seed);
        println!();
    }
    if run("fleet") {
        let seed = std::env::args().nth(2).and_then(|s| s.parse().ok());
        fleet(seed);
        println!();
    }
    if run("overload") {
        let seed = std::env::args().nth(2).and_then(|s| s.parse().ok());
        overload(seed);
        println!();
    }
    if run("shard") {
        let seed = std::env::args().nth(2).and_then(|s| s.parse().ok());
        shard(seed);
        println!();
    }
    if run("scenario") {
        let seed = std::env::args().nth(2).and_then(|s| s.parse().ok());
        scenario(seed);
        println!();
    }
    if run("scale") {
        let seed = std::env::args().nth(2).and_then(|s| s.parse().ok());
        scale(seed);
        println!();
    }
}
