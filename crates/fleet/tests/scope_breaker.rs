//! Per-scope circuit breaker: a flapping collaborative set trips *its own*
//! breaker — disjoint scopes keep admitting — and admission doubles as the
//! half-open probe that heals it once the scope recovers.

use sada_fleet::{run_fleet, Admission, FleetResilience, FleetScenario, SessionSpec};
use sada_obs::Kind;
use sada_resilience::BreakerConfig;
use sada_simnet::{ActorId, FaultPlan, SimDuration, SimTime};

fn session(id: u64, group: usize, forward: bool, at_ms: u64) -> SessionSpec {
    SessionSpec {
        id,
        flips: vec![(group, forward)],
        priority: 0,
        submit_at: SimDuration::from_millis(at_ms),
        cancel_at: None,
    }
}

/// Group 0's first agent crashes mid-step under sessions 1 and 2 (each
/// starts against a live agent, then burns its retry ladder against the
/// silent process), so the group-0 scope accumulates two failed outcomes
/// and trips its breaker. While it is open, session 3 is rejected fail-fast
/// (`ScopeRejected`), yet group-2 sessions — disjoint scope, same control
/// plane — admit and commit normally. After the cooldown session 4 is let
/// through as the half-open probe, succeeds against the healthy agent, and
/// closes the breaker for good.
#[test]
fn flapping_scope_trips_alone_and_heals_via_probe() {
    // A session whose step loses its agent exhausts every alternate path
    // and rolls back to source at ≈22.6 s after submission; the two crash
    // windows below each swallow one group-0 session's whole recovery
    // ladder. Virtual time is free, so the timeline is generous.
    let sessions = vec![
        session(1, 0, true, 0),        // fails: agent dies mid-step, rollback ≈22.6 s
        session(2, 0, true, 24_000),   // fails: second strike trips the breaker ≈46.6 s
        session(3, 0, true, 51_000),   // open breaker: rejected fail-fast
        session(4, 0, true, 62_000),   // half-open probe: agent healthy, succeeds
        session(5, 0, false, 66_000),  // breaker closed again: normal admission
        session(10, 2, true, 24_000),  // disjoint scope, same window: succeeds
        session(11, 2, false, 51_000), // still admitting while scope 0 is open
    ];
    let mut scenario = FleetScenario::new(4, sessions);
    scenario.resilience = FleetResilience {
        breaker: None, // isolate the scope gate from the per-agent gate
        scope_breaker: Some(BreakerConfig {
            failure_threshold: 2,
            cooldown: SimDuration::from_secs(8),
            cooldown_cap: SimDuration::from_secs(8),
            ..BreakerConfig::default()
        }),
        bulkhead: Default::default(),
    };
    // Two crash windows, each opening mid-step of one group-0 session and
    // outlasting its whole recovery ladder.
    let agent0 = ActorId::from_index(0);
    scenario.faults = FaultPlan::new()
        .crash(agent0, SimTime::from_micros(6_000))
        .restart(agent0, SimTime::from_micros(23_000_000))
        .crash(agent0, SimTime::from_micros(24_006_000))
        .restart(agent0, SimTime::from_micros(50_000_000));
    scenario.time_budget = SimDuration::from_secs(90);

    let report = run_fleet(&scenario);
    let outcome = |id: u64| report.session(id).expect("session reported");

    assert!(!outcome(1).success, "results: {:?}", report.results);
    assert!(!outcome(2).success, "results: {:?}", report.results);
    let trips = report.counts[Kind::ScopeBreakerOpened];
    assert_eq!(trips, 1, "two strikes trip the scope breaker once");

    // Open breaker: session 3 is terminated at admission with the typed
    // verdict, without ever queueing protocol work.
    assert!(!outcome(3).success && !outcome(3).gave_up);
    assert_eq!(outcome(3).admission, Some(Admission::Rejected));
    assert_eq!(report.counts[Kind::ScopeRejected] + report.counts[Kind::SessionRejected], 1);

    // Disjoint scope on the same control plane admits normally throughout.
    assert!(outcome(10).success && outcome(11).success, "results: {:?}", report.results);
    assert_eq!(outcome(10).admission, Some(Admission::Admitted));
    assert_eq!(outcome(11).admission, Some(Admission::Admitted));

    // Half-open probe heals the scope; later sessions admit normally.
    assert!(outcome(4).success, "probe succeeds against the recovered agent");
    assert!(outcome(5).success, "breaker closed after the probe");
    assert_eq!(outcome(4).admission, Some(Admission::Admitted));
    assert_eq!(outcome(5).admission, Some(Admission::Admitted));
}
