//! Satellite chaos coverage: crash the *control plane itself* with one
//! session mid-barrier and another queued behind it, and show the journal
//! replay restores both; then sweep seeds over randomized crash windows.

use sada_fleet::{run_fleet, FleetScenario, SessionSpec};
use sada_obs::{FleetEvent, Kind, Payload};
use sada_proto::{encode_session_journal, parse_session_journal};
use sada_simnet::{SimDuration, SimTime};

fn spec(id: u64, flips: Vec<(usize, bool)>, at_ms: u64) -> SessionSpec {
    SessionSpec {
        id,
        flips,
        priority: 0,
        submit_at: SimDuration::from_millis(at_ms),
        cancel_at: None,
    }
}

/// Every group holds exactly one of {Old, New} in the final configuration
/// (the per-group `one_of` invariant, read off the MSB-first bit string).
fn groups_are_one_of(bits: &str) {
    let ascending: Vec<char> = bits.chars().rev().collect();
    for (g, pair) in ascending.chunks(2).enumerate() {
        let ones = pair.iter().filter(|&&c| c == '1').count();
        assert_eq!(ones, 1, "group {g} violates one_of in {bits}");
    }
}

#[test]
fn control_plane_crash_restores_in_flight_and_queued_sessions() {
    // Session 1 (groups 0,1) is admitted at t=0 and is inside its first
    // adapt barrier by t=6 ms (reset at ~1 ms, safe delay 5 ms). Session 2
    // (groups 1,2) overlaps on group 1 and is queued at t=1 ms. The
    // control plane dies at 6 ms and returns at 10 ms.
    let mut scenario = FleetScenario::new(
        3,
        vec![spec(1, vec![(0, true), (1, true)], 0), spec(2, vec![(1, false), (2, true)], 1)],
    );
    scenario.crash_control = Some((SimTime::from_millis(6), SimTime::from_millis(10)));
    let report = run_fleet(&scenario);

    assert_eq!(report.restores, 1, "exactly one crash/restore cycle");
    let restored: Vec<(u32, u32)> = report
        .events
        .iter()
        .filter_map(|e| match e.payload {
            Payload::Fleet(FleetEvent::ControlRestored { active, queued }) => {
                Some((active, queued))
            }
            _ => None,
        })
        .collect();
    assert_eq!(restored.len(), 1);
    assert!(
        restored[0].0 >= 1 && restored[0].0 + restored[0].1 == 2,
        "restore must revive session 1 in flight and account for session 2 \
         (active={}, queued={})",
        restored[0].0,
        restored[0].1
    );

    // Both sessions still reach their targets after the replay.
    assert_eq!(report.succeeded(), 2, "results: {:?}", report.results);
    let s1 = report.session(1).unwrap();
    let s2 = report.session(2).unwrap();
    assert!(s1.completed_at.unwrap() <= s2.admitted_at.unwrap(), "overlap stays serialized");
    // Session 1: groups 0,1 → New; session 2 then: group 1 → Old, 2 → New.
    // Bits (MSB first, index 5..0): New2=1, Old2=0, New1=0, Old1=1, New0=1, Old0=0.
    assert_eq!(report.final_config, "100110");

    // The durable journal is a well-formed multi-session log.
    let parsed = parse_session_journal(&report.journal_text).expect("journal parses");
    assert!(parsed.iter().any(|r| r.session.0 == 1));
    assert!(parsed.iter().any(|r| r.session.0 == 2));
}

#[test]
fn plan_cache_does_not_survive_a_control_plane_crash() {
    // One session, admitted at t=0 (cache miss, entry stored) and crashed
    // mid-barrier. Journal replay re-plans from scratch: if the pre-crash
    // cache survived, the replay query would *hit* its own entry — the
    // restored plane must instead start cold, so the run sees only misses.
    let mut scenario = FleetScenario::new(2, vec![spec(1, vec![(0, true), (1, true)], 0)]);
    scenario.crash_control = Some((SimTime::from_millis(6), SimTime::from_millis(10)));
    let report = run_fleet(&scenario);

    assert_eq!(report.restores, 1);
    assert!(report.session(1).unwrap().success, "results: {:?}", report.results);
    assert_eq!(report.cache.hits, 0, "a restored control plane starts cold: {:?}", report.cache);
    assert!(report.cache.misses >= 1, "replay re-planned from scratch: {:?}", report.cache);
    let (mut hit_events, mut miss_events) = (0, 0);
    for e in &report.events {
        match e.payload {
            Payload::Fleet(FleetEvent::PlanCacheHit { .. }) => hit_events += 1,
            Payload::Fleet(FleetEvent::PlanCacheMiss { .. }) => miss_events += 1,
            _ => {}
        }
    }
    assert_eq!(hit_events, 0);
    assert!(miss_events >= 2, "one miss per incarnation, got {miss_events}");
}

#[test]
fn crash_before_any_admission_replays_the_whole_scenario() {
    // The plane dies before the first submission timer fires; the restart
    // path must re-arm the scenario from scratch.
    let mut scenario =
        FleetScenario::new(2, vec![spec(1, vec![(0, true)], 5), spec(2, vec![(1, true)], 6)]);
    scenario.crash_control = Some((SimTime::from_millis(1), SimTime::from_millis(3)));
    let report = run_fleet(&scenario);
    assert_eq!(report.restores, 1);
    assert_eq!(report.succeeded(), 2, "results: {:?}", report.results);
    assert_eq!(report.final_config, "1010");
}

#[test]
fn session_behind_an_open_breaker_terminates_with_a_journaled_outcome() {
    use sada_fleet::FleetResilience;
    use sada_proto::{BreakerConfig, JournalRecord};
    use sada_simnet::{ActorId, FaultPlan};

    // Group 0 is hosted by agents 0 and 1. Kill agent 0 for good: session 1
    // exhausts its retry ladder against the dead agent (threshold 3 = one
    // full ladder), trips the breaker, aborts, and force-completes its
    // rollback once that ladder exhausts too — releasing the scope while
    // the pinned 30 s cooldown still holds the breaker open. Session 2,
    // queued on the same scope, is then admitted into the open window and
    // must terminate immediately with a journaled outcome — the fail-fast
    // path — rather than hang on suppressed sends holding the scope lock.
    let mut scenario =
        FleetScenario::new(2, vec![spec(1, vec![(0, true)], 0), spec(2, vec![(0, true)], 1)]);
    scenario.resilience = FleetResilience {
        breaker: Some(BreakerConfig {
            failure_threshold: 3,
            cooldown: SimDuration::from_secs(30),
            cooldown_cap: SimDuration::from_secs(30),
            ..BreakerConfig::default()
        }),
        ..FleetResilience::default()
    };
    scenario.faults = FaultPlan::new().crash(ActorId::from_index(0), SimTime::from_millis(2));
    let report = run_fleet(&scenario);

    let trips = report.counts[Kind::BreakerOpened];
    assert!(trips >= 1, "exhausted ladder must trip agent 0's breaker");
    let rejected = report.counts[Kind::SessionRejected];
    assert_eq!(rejected, 1, "session 2 is rejected at admission: {:?}", report.results);
    let s1 = report.session(1).unwrap();
    assert!(!s1.success, "session 1 aborts against the dead agent");
    let s2 = report.session(2).unwrap();
    assert!(!s2.success && !s2.gave_up && !s2.cancelled && !s2.shed, "rejected, not given up");
    assert!(s2.admitted_at.is_none(), "rejection happens at the admission edge");
    assert!(s2.completed_at.is_some(), "rejection is a terminal completion");
    assert!(
        report.events.iter().any(|e| matches!(
            e.payload,
            Payload::Fleet(FleetEvent::SessionRejected { session: 2, agent: 0 })
        )),
        "typed rejection event on the bus"
    );
    // The journal records the rejection as a regular outcome, so a crashed
    // control plane never resurrects a session its breakers turned away.
    let parsed = parse_session_journal(&report.journal_text).expect("journal parses");
    assert!(
        parsed.iter().any(|r| r.session.0 == 2
            && matches!(r.record, JournalRecord::Outcome { success: false, gave_up: false })),
        "journaled outcome for the rejected session:\n{}",
        report.journal_text
    );
    // Breaker accounting made it into the report.
    assert!(report.suppressed_sends >= 1, "open breaker absorbed at least one retransmission");
    assert!(
        report.breaker_open_us.iter().any(|&(agent, us)| agent == 0 && us > 0),
        "open-time attribution for agent 0: {:?}",
        report.breaker_open_us
    );
}

#[test]
fn chaos_sweep_multi_session_crash_windows() {
    for seed in 0..20u64 {
        let groups = 4 + (seed % 5) as usize; // 4..=8
                                              // Three sessions: two disjoint early ones and a third overlapping
                                              // the second, queued behind it.
        let sessions = vec![
            spec(1, vec![(0, true), (1, true)], 0),
            spec(2, vec![(2, true), (3, true)], 0),
            spec(3, vec![(3, false), (2, false)], 1),
        ];
        let mut scenario = FleetScenario::new(groups, sessions);
        scenario.seed = seed;
        let crash_ms = 3 + seed % 7; // 3..=9 ms: spans queueing + barriers
        let restart_ms = crash_ms + 2 + seed % 5;
        scenario.crash_control =
            Some((SimTime::from_millis(crash_ms), SimTime::from_millis(restart_ms)));
        let report = run_fleet(&scenario);

        assert_eq!(report.restores, 1, "seed {seed}");
        assert_eq!(report.succeeded(), 3, "seed {seed}: {:?}", report.results);
        groups_are_one_of(&report.final_config);
        // Sessions 1+2 moved their groups to New; session 3 moved 2,3 back.
        let ascending: Vec<char> = report.final_config.chars().rev().collect();
        assert_eq!(ascending[1], '1', "seed {seed}: New0 set");
        assert_eq!(ascending[3], '1', "seed {seed}: New1 set");
        assert_eq!(ascending[4], '1', "seed {seed}: Old2 restored");
        assert_eq!(ascending[6], '1', "seed {seed}: Old3 restored");
        // Round-trip the durable journal through the text codec; every line
        // prefix of the text parses to the same prefix of the records.
        let parsed = parse_session_journal(&report.journal_text).expect("parses");
        assert!(!parsed.is_empty(), "seed {seed}");
        assert_eq!(encode_session_journal(&parsed), report.journal_text, "seed {seed}");
        for cut in 0..=parsed.len() {
            let lines: String = report.journal_text.split_inclusive('\n').take(cut).collect();
            assert_eq!(
                parse_session_journal(&lines).as_deref(),
                Ok(&parsed[..cut]),
                "seed {seed}: the first {cut} lines"
            );
        }
        let overlap_serialized = {
            let s2 = report.session(2).unwrap();
            let s3 = report.session(3).unwrap();
            s2.completed_at.unwrap() <= s3.admitted_at.unwrap()
        };
        assert!(overlap_serialized, "seed {seed}: session 3 must wait for 2");
    }
}
