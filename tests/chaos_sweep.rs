//! Randomized fault-injection sweep over the case-study adaptation.
//!
//! Each seed generates a reproducible random fault plan (crash/restart
//! pairs, partition windows, targeted drops, latency bursts) via
//! `sada_simnet::chaos` and replays the full manager/agent protocol under
//! it. Whatever the plan does, every run must
//!
//! 1. terminate (`run_adaptation` panics on protocol deadlock),
//! 2. end in a configuration satisfying the dependency invariants, and
//! 3. do so at bounded overhead — no unbounded retry storms.
//!
//! Since the write-ahead journal landed, the sweep also crashes the
//! *manager*: a restarted incarnation must replay its journal, reconcile
//! the agents, and still satisfy the same contract. Every successful run
//! additionally proves its journal durable (text round-trip, every prefix
//! replayable, full replay landing on the final configuration).
//!
//! The sweep width defaults to 50 seeds; set `SADA_CHAOS_SEEDS` to widen or
//! narrow it (CI smoke vs. overnight soak) — the exercised-enough
//! thresholds scale with the width.
//!
//! A failing seed dumps its plan to `target/chaos-failures/` in the
//! replayable `FaultPlan::parse` text form alongside the unified event
//! trace of the failing run (`seed-N.trace.jsonl`) and, when the run got
//! far enough to produce a report, the manager's adaptation journal
//! (`seed-N.journal.txt`); render its per-phase timeline with
//! `cargo run -p sada-bench --bin report -- timeline <seed>`,
//! or copy the plan into `tests/regressions/` to pin it as a permanent
//! regression (the `pinned_fault_plans_stay_safe` test replays every file
//! there).

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use sada_core::casestudy::{case_study, CaseStudy};
use sada_core::{run_adaptation, RunConfig, RunReport};
use sada_obs::{Bus, FleetEvent, Payload, RingSink};
use sada_proto::{ManagerCore, ProtoTiming};
use sada_simnet::{chaos, ActorId, ChaosOpts, FaultPlan, SimDuration, SimTime};

/// Virtual-time ceiling: an unfaulted run finishes in well under a second;
/// a faulted one gets the fault horizon plus generous ladder time.
const TIME_BUDGET: SimTime = SimTime::from_millis(30_000);
/// Message ceiling: the happy path is ~30 messages; retry ladders under
/// heavy chaos stay within a couple hundred.
const MSG_BUDGET: u64 = 5_000;

fn chaos_opts(cs: &CaseStudy) -> ChaosOpts {
    let n = cs.spec.model().process_count();
    // The manager is registered after the agents. Since the write-ahead
    // journal it is crashable like everyone else: a restarted incarnation
    // replays the journal and reconciles the agents. Links everywhere are
    // fair game for partitions, drops, and delay bursts.
    let all: Vec<ActorId> = (0..=n).map(ActorId::from_index).collect();
    ChaosOpts { crashable: all.clone(), partitionable: all, horizon: SimDuration::from_millis(500) }
}

/// Sweep width: `SADA_CHAOS_SEEDS` overrides the 50-seed default (CI smoke
/// vs. overnight soak). Assertion thresholds scale with it.
fn sweep_seeds() -> u64 {
    std::env::var("SADA_CHAOS_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(50).max(10)
}

/// Checks the safety and boundedness contract against a finished run.
fn assert_contract(cs: &CaseStudy, plan: &FaultPlan, label: &str, report: &RunReport) {
    let mut ctx = String::new();
    let _ = writeln!(ctx, "fault plan ({label}):\n{}", plan.to_text());
    let _ = writeln!(ctx, "outcome: {:?}", report.outcome);
    assert!(
        cs.spec.is_safe(&report.outcome.final_config),
        "{label}: unsafe final configuration {}\n{ctx}",
        report.outcome.final_config
    );
    assert!(
        report.outcome.success || report.outcome.gave_up || report.outcome.final_config == cs.source,
        "{label}: failed without either returning to source or explicitly waiting for the user\n{ctx}"
    );
    assert!(
        report.finished_at <= TIME_BUDGET,
        "{label}: unbounded recovery time {}\n{ctx}",
        report.finished_at
    );
    assert!(
        report.messages_sent <= MSG_BUDGET,
        "{label}: message storm ({} sent)\n{ctx}",
        report.messages_sent
    );
}

/// Proves the run's write-ahead journal durable: the text codec round-trips,
/// *every* prefix is replayable against a fresh planner (what a crash at
/// that point would have required), the text's first lines parse to the
/// same prefix (a configuration field refers only to what precedes it), and
/// a full replay lands exactly on the run's final configuration.
fn assert_journal_durable(cs: &CaseStudy, label: &str, report: &RunReport) {
    let text = sada_proto::encode_journal(&report.journal);
    assert_eq!(
        sada_proto::parse_journal(&text).as_ref(),
        Ok(&report.journal),
        "{label}: journal text round-trip"
    );
    for cut in 0..=report.journal.len() {
        let lines: String = text.split_inclusive('\n').take(cut).collect();
        assert_eq!(
            sada_proto::parse_journal(&lines).as_deref(),
            Ok(&report.journal[..cut]),
            "{label}: the first {cut} lines of the journal text\n{text}"
        );
        let restored = ManagerCore::restore(
            ProtoTiming::default(),
            Box::new(cs.spec.runtime_planner()),
            &report.journal[..cut],
        );
        match restored {
            Ok((mgr, _effects)) if cut == report.journal.len() => assert_eq!(
                mgr.current_config(),
                &report.outcome.final_config,
                "{label}: full journal replay diverged from the run\n{text}"
            ),
            Ok(_) => {}
            Err(e) => panic!("{label}: journal prefix {cut} not replayable: {e}\n{text}"),
        }
    }
}

/// Runs the case-study adaptation under `plan` and checks the safety and
/// boundedness contract. Returns the report for extra assertions.
fn check_plan(cs: &CaseStudy, plan: &FaultPlan, label: &str) -> RunReport {
    let cfg = RunConfig { faults: plan.clone(), ..RunConfig::default() };
    // Termination: run_adaptation panics on deadlock by design.
    let report = run_adaptation(&cs.spec, &cs.source, &cs.target, &cfg);
    assert_contract(cs, plan, label, &report);
    report
}

/// Dumps a failing plan in replayable text form, plus the unified event
/// trace of the failing run (`seed-N.trace.jsonl`) and — when the run got
/// far enough to yield a report — the manager's write-ahead journal
/// (`seed-N.journal.txt`). Returns the plan path.
fn dump_counterexample(
    cs: &CaseStudy,
    seed: u64,
    intensity: f64,
    plan: &FaultPlan,
    report: Option<&RunReport>,
) -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/chaos-failures");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("seed-{seed}.txt"));
    let body = format!(
        "# chaos counterexample: seed {seed}, intensity {intensity}\n\
         # per-phase timeline: cargo run -p sada-bench --bin report -- timeline {seed}\n\
         # replay: copy into tests/regressions/\n{}",
        plan.to_text()
    );
    let _ = std::fs::write(&path, body);
    // Re-run the failing plan with a trace sink attached; if it panics
    // again (it should — same seed, same world), the sink still holds every
    // event up to the failure point, which is exactly the forensic record.
    let sink = std::rc::Rc::new(std::cell::RefCell::new(sada_obs::JsonlSink::new()));
    let bus = sada_obs::Bus::new();
    bus.attach(&sink);
    let cfg = RunConfig { faults: plan.clone(), bus, ..RunConfig::default() };
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_adaptation(&cs.spec, &cs.source, &cs.target, &cfg)
    }));
    let trace = format!(
        "# unified event trace for chaos seed {seed} (up to the failure point)\n{}",
        sink.borrow().dump()
    );
    let _ = std::fs::write(dir.join(format!("seed-{seed}.trace.jsonl")), trace);
    if let Some(report) = report {
        let journal = format!(
            "# manager write-ahead journal for chaos seed {seed}\n\
             # replays via ManagerCore::restore / sada_proto::parse_journal\n{}",
            sada_proto::encode_journal(&report.journal)
        );
        let _ = std::fs::write(dir.join(format!("seed-{seed}.journal.txt")), journal);
    }
    path.display().to_string()
}

#[test]
fn random_fault_plans_all_end_safe() {
    let cs = case_study();
    let opts = chaos_opts(&cs);
    let seeds = sweep_seeds();
    let mut crashes = 0u64;
    let mut restarts = 0u64;
    let mut rejoins = 0u64;
    let mut manager_restores = 0u64;
    let mut successes = 0u64;
    for seed in 0..seeds {
        // Sweep intensity with the seed so the corpus spans gentle single
        // faults up to multi-fault storms.
        let intensity = 0.2 + 0.15 * (seed % 5) as f64;
        let plan = chaos(seed, intensity, &opts);
        let label = format!("seed {seed}");
        // Run and assert in two stages so a contract violation still leaves
        // the report (and its journal) available for the counterexample dump.
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let cfg = RunConfig { faults: plan.clone(), ..RunConfig::default() };
            run_adaptation(&cs.spec, &cs.source, &cs.target, &cfg)
        }));
        let (report, failure) = match run {
            Ok(report) => {
                let checks = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    assert_contract(&cs, &plan, &label, &report);
                    assert_journal_durable(&cs, &label, &report);
                }));
                (Some(report), checks.err())
            }
            Err(payload) => (None, Some(payload)),
        };
        if let Some(payload) = failure {
            let path = dump_counterexample(&cs, seed, intensity, &plan, report.as_ref());
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".into());
            panic!("seed {seed} failed (plan dumped to {path}):\n{msg}");
        }
        let report = report.expect("no failure means the run finished");
        crashes += report.crashes;
        restarts += report.restarts;
        rejoins += report.rejoins;
        manager_restores += report.manager_restores;
        successes += u64::from(report.outcome.success);
    }
    // The sweep must actually exercise the crash machinery — both agent and
    // manager failures — not vacuously pass on empty plans.
    assert!(crashes >= seeds / 5, "sweep exercised only {crashes} crashes over {seeds} seeds");
    assert_eq!(crashes, restarts, "every generated crash is paired with a restart");
    assert!(
        manager_restores >= seeds / 25,
        "sweep exercised only {manager_restores} manager failovers over {seeds} seeds"
    );
    // Only *agent* restarts owe a rejoin announcement; a restarted manager
    // reconciles via its journal instead.
    let agent_crashes = crashes - manager_restores;
    assert!(
        rejoins >= agent_crashes,
        "every agent restart announces at least one rejoin ({rejoins} < {agent_crashes})"
    );
    // Outages are bounded and partitions heal, so the vast majority of
    // runs still reach the target (the rest abort or give up safely).
    assert!(successes >= seeds * 4 / 5, "only {successes}/{seeds} runs succeeded");
}

#[test]
fn chaos_plans_are_reproducible() {
    let cs = case_study();
    let opts = chaos_opts(&cs);
    let p1 = chaos(17, 0.5, &opts);
    let p2 = chaos(17, 0.5, &opts);
    assert_eq!(p1.to_text(), p2.to_text(), "same seed must yield the same plan");
    // And the text form round-trips, so dumped counterexamples replay.
    let parsed = FaultPlan::parse(&p1.to_text()).expect("round-trip");
    assert_eq!(parsed.to_text(), p1.to_text());
    let r1 = check_plan(&cs, &p1, "seed 17 run 1");
    let r2 = check_plan(&cs, &parsed, "seed 17 run 2");
    assert_eq!(r1.outcome.final_config, r2.outcome.final_config);
    assert_eq!(r1.finished_at, r2.finished_at);
    assert_eq!(r1.messages_sent, r2.messages_sent);
}

/// Slow-agent profile: one sustained latency burst inflates every round
/// trip far past the fixed ladder's 200 ms base, so the historical policy
/// retransmits spuriously for the whole episode. The RTT-adaptive policy
/// must hold the same safety contract while learning the inflated latency
/// and cutting the retransmission traffic.
#[test]
fn sustained_delay_bursts_hold_the_contract_under_adaptive_timeouts() {
    let cs = case_study();
    let plan = FaultPlan::new().delay_burst(
        (SimTime::from_millis(10), SimTime::from_millis(2_510)),
        SimDuration::from_millis(250),
    );
    // The profile must survive the text codec like every pinnable plan.
    let parsed = FaultPlan::parse(&plan.to_text()).expect("round-trip");
    assert_eq!(parsed.to_text(), plan.to_text());

    let fixed = {
        let cfg = RunConfig { faults: plan.clone(), ..RunConfig::default() };
        run_adaptation(&cs.spec, &cs.source, &cs.target, &cfg)
    };
    assert_contract(&cs, &plan, "delay bursts / fixed ladder", &fixed);

    let ring = Rc::new(RefCell::new(RingSink::new(1 << 16)));
    let adaptive = {
        let timing =
            ProtoTiming { retry: sada_proto::RetryPolicy::adaptive(), ..ProtoTiming::default() };
        let bus = Bus::new();
        bus.attach(&ring);
        let cfg = RunConfig { timing, faults: plan.clone(), bus, ..RunConfig::default() };
        run_adaptation(&cs.spec, &cs.source, &cs.target, &cfg)
    };
    assert_contract(&cs, &plan, "delay bursts / adaptive", &adaptive);
    assert!(adaptive.outcome.success, "{}", sada_proto::encode_journal(&adaptive.journal));
    // The run is pinned: a change to how the manager reports its RTT
    // estimates may move how many `fleet.rto` events it emits, never what
    // it sends, when it finishes or what it journals.
    let ring = ring.borrow();
    assert_eq!(ring.total_seen(), ring.len() as u64, "the ring holds the whole run");
    let rto_reports = ring
        .events()
        .iter()
        .filter(|e| matches!(e.payload, Payload::Fleet(FleetEvent::TimeoutAdapted { .. })))
        .count();
    let journal_fnv = sada_obs::fnv1a(sada_proto::encode_journal(&adaptive.journal));
    assert_eq!(
        (rto_reports, adaptive.messages_sent, adaptive.finished_at.as_micros(), journal_fnv),
        (4, 29, 2_050_000, 0x57cf_c666_cfdc_94e0),
        "adaptive run moved"
    );
    assert!(
        adaptive.messages_sent <= fixed.messages_sent,
        "adaptive timeouts must not retransmit more than the fixed ladder \
         under sustained latency ({} vs {})",
        adaptive.messages_sent,
        fixed.messages_sent
    );
}

/// Flap profile: an agent caught in a crash/restart loop, each outage long
/// enough to exhaust a full retry ladder. With a breaker at threshold 3
/// (one ladder's worth of evidence) the outages trip it, every restart
/// rejoins, and the run still terminates safely and reproducibly.
#[test]
fn crash_restart_flap_loop_stays_safe_and_trips_the_breaker() {
    let cs = case_study();
    let victim = ActorId::from_index(1);
    let mut plan = FaultPlan::new();
    for cycle in 0..3u64 {
        let down = SimTime::from_millis(5 + cycle * 1_800);
        let up = SimTime::from_millis(1_705 + cycle * 1_800);
        plan = plan.crash(victim, down).restart(victim, up);
    }
    let parsed = FaultPlan::parse(&plan.to_text()).expect("round-trip");
    assert_eq!(parsed.to_text(), plan.to_text());

    let run = |seedless_check: bool| {
        let cfg = RunConfig {
            breaker: Some(sada_proto::BreakerConfig {
                failure_threshold: 3,
                ..sada_proto::BreakerConfig::default()
            }),
            faults: plan.clone(),
            ..RunConfig::default()
        };
        let report = run_adaptation(&cs.spec, &cs.source, &cs.target, &cfg);
        if seedless_check {
            assert_contract(&cs, &plan, "flap loop / breaker", &report);
        }
        report
    };
    let report = run(true);
    assert_eq!((report.crashes, report.restarts), (3, 3));
    assert!(report.rejoins >= 3, "every restart re-announces ({} rejoins)", report.rejoins);
    assert!(report.breaker_trips >= 1, "a full-ladder outage must trip the breaker");
    assert_journal_durable(&cs, "flap loop / breaker", &report);
    // Identical inputs reproduce the identical run.
    let again = run(false);
    assert_eq!(report.finished_at, again.finished_at);
    assert_eq!(report.messages_sent, again.messages_sent);
    assert_eq!(report.outcome.final_config, again.outcome.final_config);
    assert_eq!(
        (report.breaker_trips, report.suppressed_sends),
        (again.breaker_trips, again.suppressed_sends)
    );
}

#[test]
fn pinned_fault_plans_stay_safe() {
    // Every plan in tests/regressions/ is a previously interesting (or
    // once-failing) scenario pinned in replayable text form.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/regressions");
    let cs = case_study();
    let mut replayed = 0;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/regressions directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    entries.sort();
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("readable regression file");
        let plan = FaultPlan::parse(&text)
            .unwrap_or_else(|e| panic!("{}: bad fault plan: {e}", path.display()));
        check_plan(&cs, &plan, &path.display().to_string());
        replayed += 1;
    }
    assert!(replayed >= 2, "regression corpus went missing ({replayed} plans)");
}
