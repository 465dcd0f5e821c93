//! Cross-crate integration: the full video case study driven by the safe
//! adaptation protocol, audited by the independent safety checker.

use std::collections::HashSet;

use sada_core::casestudy::{case_study, CaseStudy};
use sada_core::AdaptationSpec;
use sada_expr::{InvariantSet, Universe};
use sada_model::SystemModel;
use sada_plan::{Action, ActionId};
use sada_simnet::{LinkConfig, SimDuration, SimTime};
use sada_video::{run_video_scenario, run_video_with, ScenarioConfig, Strategy};

#[test]
fn headline_result_map_and_live_run() {
    let cs = case_study();
    let map = cs.spec.minimum_adaptation_path(&cs.source, &cs.target).unwrap();
    let labels: Vec<String> = map.action_ids().iter().map(|a| a.to_string()).collect();
    assert_eq!(labels, vec!["A2", "A17", "A1", "A16", "A4"]);
    assert_eq!(map.cost, 50);

    let report = run_video_scenario(&ScenarioConfig::default(), Strategy::Safe);
    let outcome = report.outcome.clone().expect("resolved");
    assert!(outcome.success);
    assert_eq!(outcome.steps_committed, 5);
    assert_eq!(report.corrupted_packets(), 0);
    assert!(report.audit.is_safe(), "{:?}", report.audit.violations.first());
}

/// Restrict Table 2 to the single compound action A14 so the adaptation
/// must use the drain-marked global safe condition across all three
/// processes.
fn compound_only_case_study() -> CaseStudy {
    let full = case_study();
    let mut u = Universe::new();
    for name in ["E1", "E2", "D1", "D2", "D3", "D4", "D5"] {
        u.intern(name);
    }
    let invariants = InvariantSet::parse(
        &["one_of(D1, D2, D3)", "one_of(E1, E2)", "E1 => (D1 | D2) & D4", "E2 => (D3 | D2) & D5"],
        &mut u,
    )
    .unwrap();
    // A14 in the paper's table; re-numbered as the only action here.
    let actions = vec![Action::replace(
        0,
        "(D1,D4,E1) -> (D3,D5,E2)",
        &u.config_of(&["D1", "D4", "E1"]),
        &u.config_of(&["D3", "D5", "E2"]),
        150,
    )];
    let mut model = SystemModel::new();
    let server = model.add_process();
    let handheld = model.add_process();
    let laptop = model.add_process();
    model.place_all(
        &u,
        &[
            ("E1", server),
            ("E2", server),
            ("D1", handheld),
            ("D2", handheld),
            ("D3", handheld),
            ("D4", laptop),
            ("D5", laptop),
        ],
    );
    let drain: HashSet<ActionId> = [ActionId(0)].into();
    let source = u.config_from_bits("0100101");
    let target = u.config_from_bits("1010010");
    let spec = AdaptationSpec::new(u, invariants, actions, model, drain);
    CaseStudy { spec, deployment: full.deployment, source, target }
}

#[test]
fn compound_action_with_drain_marks_is_safe() {
    let cs = compound_only_case_study();
    // Sanity: the only plan is the single three-process step.
    let map = cs.spec.minimum_adaptation_path(&cs.source, &cs.target).unwrap();
    assert_eq!(map.steps.len(), 1);
    assert_eq!(map.cost, 150);

    let report = run_video_with(&ScenarioConfig::default(), Strategy::Safe, &cs);
    let outcome = report.outcome.clone().expect("resolved");
    assert!(outcome.success, "compound adaptation must succeed");
    assert_eq!(outcome.steps_committed, 1);
    assert_eq!(report.corrupted_packets(), 0, "drain + barrier keeps the stream clean");
    assert!(report.audit.is_safe(), "{:?}", report.audit.violations.first());
    // The three-process barrier has real cost: the server visibly blocks,
    // unlike the all-solo MAP of the full action table.
    assert!(report.server.blocked > SimDuration::ZERO);
    eprintln!("compound-step server blocking: {}", report.server.blocked);
    let full_run = run_video_scenario(&ScenarioConfig::default(), Strategy::Safe);
    assert!(
        report.server.blocked > full_run.server.blocked,
        "Table 2's cost ordering (compound 150 > singles 10) shows up as blocking time"
    );
}

#[test]
fn adaptation_under_lossy_control_links_keeps_stream_safe() {
    for seed in [11u64, 12, 13] {
        let cfg = ScenarioConfig {
            seed,
            link: LinkConfig::lossy(SimDuration::from_millis(5), 0.10),
            stream_end: SimTime::from_millis(1_500),
            ..ScenarioConfig::default()
        };
        let report = run_video_scenario(&cfg, Strategy::Safe);
        // Data links share the loss here, so some frames may be lost, but
        // integrity (no corruption) and audit-config safety must hold.
        // Packet loss breaks segment bookkeeping (a lost packet never
        // decodes), so only configuration violations are meaningful here.
        let config_violations = report
            .audit
            .violations
            .iter()
            .filter(|v| matches!(v.kind, sada_model::ViolationKind::UnsafeConfiguration))
            .count();
        assert_eq!(config_violations, 0, "seed {seed}");
        let cs = case_study();
        if let Some(o) = &report.outcome {
            assert!(cs.spec.is_safe(&o.final_config), "seed {seed}");
        }
    }
}

#[test]
fn adaptation_before_stream_starts_and_after_it_ends() {
    // Request fires at t=1ms, long before meaningful traffic.
    let early =
        ScenarioConfig { adapt_at: SimDuration::from_millis(1), ..ScenarioConfig::default() };
    let r1 = run_video_scenario(&early, Strategy::Safe);
    assert!(r1.outcome.as_ref().unwrap().success);
    assert_eq!(r1.corrupted_packets(), 0);

    // Request fires after the stream stops: still succeeds (idle system).
    let late = ScenarioConfig {
        adapt_at: SimDuration::from_millis(2_500),
        stream_end: SimTime::from_millis(2_000),
        ..ScenarioConfig::default()
    };
    let r2 = run_video_scenario(&late, Strategy::Safe);
    assert!(r2.outcome.as_ref().unwrap().success);
    assert_eq!(r2.corrupted_packets(), 0);
}

#[test]
fn naive_baseline_corrupts_under_every_skew() {
    for skew_ms in [20u64, 60, 120] {
        let report = run_video_scenario(
            &ScenarioConfig::default(),
            Strategy::Naive { skew: SimDuration::from_millis(skew_ms) },
        );
        assert!(report.corrupted_packets() > 0, "skew {skew_ms}ms should corrupt the stream");
        assert!(!report.audit.is_safe(), "skew {skew_ms}ms must fail the audit");
    }
}

#[test]
fn corruption_grows_with_naive_skew() {
    let c = |skew_ms| {
        run_video_scenario(
            &ScenarioConfig::default(),
            Strategy::Naive { skew: SimDuration::from_millis(skew_ms) },
        )
        .corrupted_packets()
    };
    let (small, large) = (c(30), c(300));
    assert!(
        large > small,
        "longer mixed-configuration windows corrupt more packets ({small} vs {large})"
    );
}
