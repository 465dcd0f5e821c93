//! Pinned identities of flat [`run_fleet`] runs the sharded path never
//! exercises: a control-plane crash window, seeded fault plans crashing
//! agents *and* the control actor, the serial baseline over slowed agents,
//! a breaker + bulkhead overload run with cancellations, the
//! RTT-adaptive ladder over per-agent breakers, the crash and restart of
//! an agent no session engages, an agent named twice among the slow, and
//! bulkhead sheds on both sides of a control-plane crash.
//!
//! The constants were captured before `run_fleet` became the one-region
//! case of the endpoint code and before the agents became one arena; they
//! pin that neither change moved a single event, journal byte, or verdict
//! on these paths. The idle-agent crash and the twice-named slow agent
//! were captured while the arena still cloned every agent at build: they
//! pin that cloning an agent when it is first touched moved nothing. The
//! adaptive row was captured before the solo manager and the control plane
//! shared one host. The journal-text constants were re-captured once, when
//! configuration fields became deltas; the records constants beside them
//! did not move. The report-row hash, peak concurrency and makespan were
//! captured while the control plane still kept a session's instants,
//! verdict and admission in separate maps: they pin that writing one row
//! per session where the plane decides moved no field of any row. The
//! report counters were captured while each was still incremented by hand
//! beside the event that says the same thing.

use sada_fleet::{
    disjoint_wave, fingerprint_events_unsharded, run_fleet, FleetReport, FleetResilience,
    FleetScenario, SessionResult, SessionSpec,
};
use sada_obs::{fnv1a, text::push_lines, Counts, Kind};
use sada_proto::{parse_session_journal, ProtoTiming};
use sada_resilience::{BreakerConfig, BulkheadConfig, RetryPolicy};
use sada_simnet::{chaos, ActorId, ChaosOpts, Fault, FaultPlan, SimDuration, SimTime};

fn spec(id: u64, flips: Vec<(usize, bool)>, at_ms: u64, cancel_ms: Option<u64>) -> SessionSpec {
    SessionSpec {
        id,
        flips,
        priority: (id % 3) as u8,
        submit_at: SimDuration::from_millis(at_ms),
        cancel_at: cancel_ms.map(SimDuration::from_millis),
    }
}

/// What a run is pinned by: stream fingerprint, final configuration,
/// restore count, journal-text hash, records hash (FNV-1a of each parsed
/// record's context-free line: what the journal says, whatever form its
/// text takes), the verdict tally `(committed, gave up, cancelled, shed,
/// rejected)`, the report rows' hash (see [`results_fnv`]), the peak of
/// concurrently admitted sessions, the makespan, and every counter the
/// report carries (see [`Counters`]).
#[derive(Debug)]
struct Identity {
    fingerprint: u64,
    final_config: &'static str,
    restores: u64,
    journal_fnv: u64,
    records_fnv: u64,
    verdicts: (usize, usize, usize, usize, u64),
    results_fnv: u64,
    max_concurrent: usize,
    makespan_us: u64,
    counters: Counters,
}

/// Every counter of a flat report: admission (sheds, rejections, agent and
/// scope breaker trips, suppressed sends) and the plan cache.
#[derive(Debug, PartialEq, Eq)]
struct Counters {
    shed: u64,
    rejected: u64,
    breaker_trips: u64,
    scope_breaker_trips: u64,
    suppressed_sends: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// `report`'s counters.
fn counters(report: &FleetReport) -> Counters {
    let c = &report.counts;
    Counters {
        shed: c[Kind::SessionShed],
        rejected: c[Kind::SessionRejected] + c[Kind::ScopeRejected],
        breaker_trips: c[Kind::BreakerOpened],
        scope_breaker_trips: c[Kind::ScopeBreakerOpened],
        suppressed_sends: report.suppressed_sends,
        cache_hits: report.cache.hits,
        cache_misses: report.cache.misses,
    }
}

/// FNV-1a over one line per report row, every field in a fixed text form:
/// the instants, the four verdict flags and the admission decision (with a
/// shed's retry hint).
fn results_fnv(results: &[SessionResult]) -> u64 {
    let mut text = String::new();
    for r in results {
        text += &format!(
            "{} {:?} {:?} {:?} {} {} {} {} {:?}\n",
            r.id,
            r.submitted_at,
            r.admitted_at,
            r.completed_at,
            r.success,
            r.gave_up,
            r.cancelled,
            r.shed,
            r.admission
        );
    }
    fnv1a(text)
}

/// FNV-1a over the `Display` line of every record `text` parses to.
fn records_fnv(text: &str) -> u64 {
    let mut lines = String::new();
    push_lines(&mut lines, parse_session_journal(text).expect("the run's journal parses"));
    fnv1a(lines)
}

fn assert_identity(what: &str, report: &FleetReport, want: &Identity) {
    if report.events_evicted == 0 {
        assert_eq!(
            Counts::of(&report.events),
            report.counts,
            "{what}: counts are the stream's fold"
        );
    }
    let counters = counters(report);
    let count = |f: fn(&SessionResult) -> bool| report.results.iter().filter(|r| f(r)).count();
    let verdicts = (
        count(|r| r.success),
        count(|r| r.gave_up),
        count(|r| r.cancelled),
        count(|r| r.shed),
        counters.rejected,
    );
    let fingerprint = fingerprint_events_unsharded(&report.events);
    let (journal_fnv, records_fnv) =
        (fnv1a(&report.journal_text), records_fnv(&report.journal_text));
    let rows = (results_fnv(&report.results), report.max_concurrent, report.makespan_us);
    let got = (journal_fnv, records_fnv, verdicts, rows, &counters);
    assert!(
        (fingerprint, report.final_config.as_str(), report.restores, got)
            == (
                want.fingerprint,
                want.final_config,
                want.restores,
                (
                    want.journal_fnv,
                    want.records_fnv,
                    want.verdicts,
                    (want.results_fnv, want.max_concurrent, want.makespan_us),
                    &want.counters,
                )
            ),
        "{what}: identity moved, want {want:?}, got\nIdentity {{ fingerprint: {fingerprint:#018x}, \
         final_config: {:?}, restores: {}, journal_fnv: {journal_fnv:#018x}, \
         records_fnv: {records_fnv:#018x}, verdicts: {verdicts:?}, results_fnv: {:#018x}, \
         max_concurrent: {}, makespan_us: {}, counters: {counters:?} }}",
        report.final_config,
        report.restores,
        rows.0,
        rows.1,
        rows.2,
    );
}

#[test]
fn control_crash_window_is_pinned() {
    let mut scn = FleetScenario::new(
        6,
        vec![
            spec(1, vec![(0, true), (1, true)], 0, None),
            spec(2, vec![(2, true), (3, true)], 0, None),
            spec(3, vec![(3, false), (2, false)], 1, None),
            spec(4, vec![(1, false), (4, true)], 2, Some(4)),
            spec(5, vec![(5, true)], 12, None),
        ],
    );
    scn.seed = 7;
    scn.crash_control = Some((SimTime::from_millis(6), SimTime::from_millis(10)));
    assert_identity(
        "crash_control",
        &run_fleet(&scn),
        &Identity {
            fingerprint: 0xe86960fc7ebe65b3,
            final_config: "100101011010",
            restores: 1,
            journal_fnv: 0x2784a47b23b214bf,
            records_fnv: 0xa346d99974af4696,
            verdicts: (4, 0, 1, 0, 0),
            results_fnv: 0x2b49056326ff79b3,
            max_concurrent: 3,
            makespan_us: 35000,
            counters: Counters {
                shed: 0,
                rejected: 0,
                breaker_trips: 0,
                scope_breaker_trips: 0,
                suppressed_sends: 0,
                cache_hits: 1,
                cache_misses: 3,
            },
        },
    );
}

/// `(fingerprint, final_config, restores, journal_fnv, verdicts)` per chaos
/// seed `1..=5`.
const CHAOS: [Identity; 5] = [
    Identity {
        fingerprint: 0xdb903755c1c8d7c6,
        final_config: "10011001",
        restores: 1,
        journal_fnv: 0x80178940a4716174,
        records_fnv: 0x4f39195e4f1909c2,
        verdicts: (4, 0, 1, 0, 0),
        results_fnv: 0x5a08ab4d1864a02c,
        max_concurrent: 2,
        makespan_us: 114800,
        counters: Counters {
            shed: 0,
            rejected: 0,
            breaker_trips: 0,
            scope_breaker_trips: 0,
            suppressed_sends: 0,
            cache_hits: 0,
            cache_misses: 2,
        },
    },
    Identity {
        fingerprint: 0xacb314b172f8bcf6,
        final_config: "10011001",
        restores: 1,
        journal_fnv: 0x58c9adcc8c5250a8,
        records_fnv: 0x60f1e3f399a2e22e,
        verdicts: (4, 0, 1, 0, 0),
        results_fnv: 0x932af4003639db63,
        max_concurrent: 2,
        makespan_us: 103678,
        counters: Counters {
            shed: 0,
            rejected: 0,
            breaker_trips: 0,
            scope_breaker_trips: 0,
            suppressed_sends: 0,
            cache_hits: 0,
            cache_misses: 1,
        },
    },
    Identity {
        fingerprint: 0xdbca438a144a51bb,
        final_config: "10011001",
        restores: 1,
        journal_fnv: 0x120343ee32b00ba0,
        records_fnv: 0xcd5dd31d33828a6c,
        verdicts: (4, 0, 1, 0, 0),
        results_fnv: 0x97592a4ef08c619f,
        max_concurrent: 2,
        makespan_us: 93619,
        counters: Counters {
            shed: 0,
            rejected: 0,
            breaker_trips: 0,
            scope_breaker_trips: 0,
            suppressed_sends: 0,
            cache_hits: 0,
            cache_misses: 2,
        },
    },
    Identity {
        fingerprint: 0xdae89eaa196e19e4,
        final_config: "10010101",
        restores: 1,
        journal_fnv: 0x5e9b4a5635c7b6da,
        records_fnv: 0xc5ef13257fa52625,
        verdicts: (5, 0, 0, 0, 0),
        results_fnv: 0x89a354817dd36f1b,
        max_concurrent: 2,
        makespan_us: 93682,
        counters: Counters {
            shed: 0,
            rejected: 0,
            breaker_trips: 0,
            scope_breaker_trips: 0,
            suppressed_sends: 0,
            cache_hits: 0,
            cache_misses: 2,
        },
    },
    Identity {
        fingerprint: 0x0281ef0c15d2a6df,
        final_config: "10011001",
        restores: 1,
        journal_fnv: 0x1ac8f8d2ae17e88e,
        records_fnv: 0x4fefe6370635946e,
        verdicts: (4, 0, 1, 0, 0),
        results_fnv: 0x8d304dfc7475f341,
        max_concurrent: 2,
        makespan_us: 292785,
        counters: Counters {
            shed: 0,
            rejected: 0,
            breaker_trips: 0,
            scope_breaker_trips: 0,
            suppressed_sends: 0,
            cache_hits: 0,
            cache_misses: 4,
        },
    },
];

#[test]
fn seeded_fault_plans_over_agents_and_control_are_pinned() {
    // 4 groups ⇒ agents 0..8, control plane at index 8: every actor of the
    // flat layout is a crash victim and a partition endpoint.
    let everyone: Vec<ActorId> = (0..=8).map(ActorId::from_index).collect();
    let opts = ChaosOpts {
        crashable: everyone.clone(),
        partitionable: everyone,
        horizon: SimDuration::from_millis(150),
    };
    let (mut control_crashes, mut agent_crashes) = (0, 0);
    for (seed, want) in (1..=5u64).zip(&CHAOS) {
        let mut scn = FleetScenario::new(
            4,
            vec![
                spec(1, vec![(0, true)], 0, None),
                spec(2, vec![(1, true), (2, true)], 0, None),
                spec(3, vec![(2, false), (3, true)], 5, None),
                spec(4, vec![(0, false)], 20, None),
                spec(5, vec![(3, false), (1, false)], 40, Some(45)),
            ],
        );
        scn.seed = seed;
        scn.faults = chaos(seed, 0.7, &opts);
        for fault in &scn.faults.faults {
            if let Fault::CrashActor { id, .. } = fault {
                if id.index() == 8 {
                    control_crashes += 1;
                } else {
                    agent_crashes += 1;
                }
            }
        }
        assert_identity(&format!("chaos seed {seed}"), &run_fleet(&scn), want);
    }
    assert!(control_crashes > 0 && agent_crashes > 0, "the sweep must crash both roles");
}

#[test]
fn serial_baseline_over_slow_agents_is_pinned() {
    let mut scn = FleetScenario::new(4, disjoint_wave(4, 1));
    scn.serialize = true;
    scn.slow_agents = vec![(1, 4), (6, 3)];
    assert_identity(
        "serialize + slow_agents",
        &run_fleet(&scn),
        &Identity {
            fingerprint: 0xa3ebf0e6376deb17,
            final_config: "10101010",
            restores: 0,
            journal_fnv: 0xe33fb4814e34d1be,
            records_fnv: 0x49799b541722ea42,
            verdicts: (4, 0, 0, 0, 0),
            results_fnv: 0xd4da3c6aa478b8bd,
            max_concurrent: 1,
            makespan_us: 88000,
            counters: Counters {
                shed: 0,
                rejected: 0,
                breaker_trips: 0,
                scope_breaker_trips: 0,
                suppressed_sends: 0,
                cache_hits: 3,
                cache_misses: 1,
            },
        },
    );
}

#[test]
fn breaker_and_bulkhead_overload_with_cancels_is_pinned() {
    // Agent 0 dies for good at 2 ms: group-0 sessions burn their ladders
    // and trip its breaker, later ones are rejected at admission. The
    // bulkhead runs two at a time with a three-deep waiting room, so the
    // 1 ms arrival train overflows it and sheds; two waiters withdraw.
    let mut sessions: Vec<SessionSpec> = (0..12u64)
        .map(|i| {
            let group = (i % 4) as usize;
            let cancel = (i % 3 == 1).then_some(i + 3);
            spec(i + 1, vec![(group, i % 8 < 4)], i, cancel)
        })
        .collect();
    sessions.push(spec(20, vec![(0, true)], 40_000, None));
    let mut scn = FleetScenario::new(4, sessions);
    scn.resilience = FleetResilience {
        breaker: Some(BreakerConfig {
            failure_threshold: 3,
            cooldown: SimDuration::from_secs(60),
            cooldown_cap: SimDuration::from_secs(60),
            ..BreakerConfig::default()
        }),
        scope_breaker: None,
        bulkhead: BulkheadConfig { max_in_flight: 2, max_queued: 3 },
    };
    scn.faults = FaultPlan::new().crash(ActorId::from_index(0), SimTime::from_millis(2));
    scn.time_budget = SimDuration::from_secs(90);
    let report = run_fleet(&scn);
    let (trips, shed) = (report.counts[Kind::BreakerOpened], report.counts[Kind::SessionShed]);
    assert!(trips >= 1 && shed >= 1, "the overload must bite");
    assert_identity(
        "breaker + bulkhead overload",
        &report,
        &Identity {
            fingerprint: 0xe901e1c5240799db,
            final_config: "10011001",
            restores: 0,
            journal_fnv: 0x2d02f6fa93ba9792,
            records_fnv: 0x0a4076861ed340f4,
            verdicts: (3, 0, 3, 5, 1),
            results_fnv: 0x93b987bf8ff2db08,
            max_concurrent: 2,
            makespan_us: 40000000,
            counters: Counters {
                shed: 5,
                rejected: 1,
                breaker_trips: 1,
                scope_breaker_trips: 0,
                suppressed_sends: 27,
                cache_hits: 3,
                cache_misses: 1,
            },
        },
    );
}

#[test]
fn adaptive_ladder_over_breakers_with_a_crashed_and_a_slow_agent_is_pinned() {
    // Agent 0 is down from 30 ms to 4 s: group-0 sessions time out against
    // it, trip its breaker, have retransmissions suppressed, and probe it
    // once it is back. Agent 5 is six times slower than its peers, so the
    // estimators see latencies that move the RTO.
    let sessions: Vec<SessionSpec> = (0..12u64)
        .map(|i| spec(i + 1, vec![((i % 4) as usize, i % 8 < 4)], i * 60, None))
        .collect();
    let mut scn = FleetScenario::new(4, sessions);
    scn.timing = ProtoTiming { retry: RetryPolicy::adaptive(), ..ProtoTiming::default() };
    scn.resilience = FleetResilience {
        breaker: Some(BreakerConfig { failure_threshold: 3, ..BreakerConfig::default() }),
        ..FleetResilience::default()
    };
    scn.slow_agents = vec![(5, 6)];
    scn.faults = FaultPlan::new()
        .crash(ActorId::from_index(0), SimTime::from_millis(30))
        .restart(ActorId::from_index(0), SimTime::from_millis(4_000));
    let report = run_fleet(&scn);
    let c = &report.counts;
    let (rto, opened, probed) =
        (c[Kind::TimeoutAdapted], c[Kind::BreakerOpened], c[Kind::BreakerProbed]);
    assert!(
        rto > 0 && opened > 0 && probed > 0 && report.suppressed_sends > 0,
        "every host duty must show: {rto} RTO reports, {opened} trips, {probed} probes, {} \
         suppressed sends",
        report.suppressed_sends
    );
    assert_identity(
        "adaptive ladder + breakers",
        &report,
        &Identity {
            fingerprint: 0x9e292273516977a6,
            final_config: "10101010",
            restores: 0,
            journal_fnv: 0xcd676f58e7d37c08,
            records_fnv: 0x802b797cf9169728,
            verdicts: (12, 0, 0, 0, 0),
            results_fnv: 0xa9e197ffbef534ef,
            max_concurrent: 2,
            makespan_us: 14772292,
            counters: Counters {
                shed: 0,
                rejected: 0,
                breaker_trips: 3,
                scope_breaker_trips: 0,
                suppressed_sends: 6,
                cache_hits: 10,
                cache_misses: 2,
            },
        },
    );
}

#[test]
fn a_crash_and_restart_of_an_agent_no_session_engages_is_pinned() {
    // Group 3's agents (6 and 7) take part in no session. Agent 6 dies at
    // 2 ms and comes back at 9 ms, announcing itself to a control plane
    // that never engaged it, while groups 0 to 2 adapt around it.
    let mut scn = FleetScenario::new(
        4,
        vec![spec(1, vec![(0, true)], 0, None), spec(2, vec![(1, true), (2, true)], 1, None)],
    );
    scn.seed = 5;
    scn.faults = FaultPlan::new()
        .crash(ActorId::from_index(6), SimTime::from_millis(2))
        .restart(ActorId::from_index(6), SimTime::from_millis(9));
    let report = run_fleet(&scn);
    assert_eq!((report.stats.crashes, report.stats.restarts), (1, 1), "the idle agent cycles");
    assert_identity(
        "idle agent crash + restart",
        &report,
        &Identity {
            fingerprint: 0x0ed8ed90e77bc700,
            final_config: "01101010",
            restores: 0,
            journal_fnv: 0xb246544f26e9b6d3,
            records_fnv: 0xbaa431b8f73da309,
            verdicts: (2, 0, 0, 0, 0),
            results_fnv: 0x8e157bf62263667c,
            max_concurrent: 2,
            makespan_us: 25000,
            counters: Counters {
                shed: 0,
                rejected: 0,
                breaker_trips: 0,
                scope_breaker_trips: 0,
                suppressed_sends: 0,
                cache_hits: 0,
                cache_misses: 2,
            },
        },
    );
}

#[test]
fn an_agent_named_twice_among_the_slow_keeps_its_first_factor_and_is_pinned() {
    let mut scn = FleetScenario::new(4, disjoint_wave(4, 1));
    scn.slow_agents = vec![(3, 5), (4, 2), (3, 1)];
    let report = run_fleet(&scn);
    let mut first_only = scn.clone();
    first_only.slow_agents.pop();
    assert_eq!(
        fingerprint_events_unsharded(&report.events),
        fingerprint_events_unsharded(&run_fleet(&first_only).events),
        "the first entry for agent 3 wins"
    );
    assert_identity(
        "slow agent named twice",
        &report,
        &Identity {
            fingerprint: 0x8e496af8a90ac6cd,
            final_config: "10101010",
            restores: 0,
            journal_fnv: 0xb53700c012894c52,
            records_fnv: 0xb2ad7a55b92b47bb,
            verdicts: (4, 0, 0, 0, 0),
            results_fnv: 0xa4565f96bb0f30d7,
            max_concurrent: 4,
            makespan_us: 44000,
            counters: Counters {
                shed: 0,
                rejected: 0,
                breaker_trips: 0,
                scope_breaker_trips: 0,
                suppressed_sends: 0,
                cache_hits: 3,
                cache_misses: 1,
            },
        },
    );
}

#[test]
fn bulkhead_sheds_before_and_after_a_control_crash_are_pinned() {
    // One session in flight and one waiting: each burst of four overflows
    // the waiting room. The first burst sheds before anything finished (the
    // hint is the retry base), the second after sessions completed, and the
    // third after the control plane was rebuilt from its journal — its
    // hints read service times measured before the crash.
    let mut sessions: Vec<SessionSpec> = Vec::new();
    for (burst, at_ms) in [0u64, 200, 600].into_iter().enumerate() {
        for i in 0..4u64 {
            let id = 10 * burst as u64 + i + 1;
            sessions.push(spec(id, vec![(i as usize, burst % 2 == 0)], at_ms + i, None));
        }
    }
    let mut scn = FleetScenario::new(4, sessions);
    scn.resilience = FleetResilience {
        bulkhead: BulkheadConfig { max_in_flight: 1, max_queued: 1 },
        ..FleetResilience::default()
    };
    let (crash, restart) = (400_000, 450_000);
    scn.crash_control = Some((SimTime::from_micros(crash), SimTime::from_micros(restart)));
    let report = run_fleet(&scn);
    let shed_at: Vec<u64> =
        report.results.iter().filter(|r| r.shed).filter_map(|r| r.completed_at).collect();
    assert!(
        shed_at.iter().any(|&t| t < crash) && shed_at.iter().any(|&t| t > restart),
        "the bulkhead must shed on both sides of the crash: {shed_at:?}"
    );
    assert_identity(
        "bulkhead sheds across a control crash",
        &report,
        &Identity {
            fingerprint: 0x81d594acc0c77a40,
            final_config: "01101010",
            restores: 1,
            journal_fnv: 0x98acbb4dbd12fc91,
            records_fnv: 0xe68df449dd6fb656,
            verdicts: (6, 0, 0, 6, 0),
            results_fnv: 0xcc7fb28b0188381b,
            max_concurrent: 1,
            makespan_us: 616000,
            counters: Counters {
                shed: 6,
                rejected: 0,
                breaker_trips: 0,
                scope_breaker_trips: 0,
                suppressed_sends: 0,
                cache_hits: 1,
                cache_misses: 1,
            },
        },
    );
}
