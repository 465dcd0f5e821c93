//! One world, two shapes, one run. Every scenario here runs twice: over the
//! video world `FleetWorld::build` compiles from its shape
//! (`world_spec: None`) and over the same world compiled from
//! `WorldSpec::video` (`world_spec: Some(..)`). The first is one cluster
//! class placed once per group, the second one class holding the whole
//! spec, placed once — so the two runs hold the class path (planning inside
//! a placement, the per-class safe memo, placed ids and hosts) to the
//! whole-world path. Fingerprints, journal and records hashes, report rows,
//! counts, cache hits and misses and the final configuration must agree,
//! through `run_fleet` and through `run_fleet_sharded` at one and two
//! threads.

use sada_fleet::{
    disjoint_wave, fingerprint_events_unsharded, run_fleet, run_fleet_sharded, FabricFaultPlan,
    FleetReport, FleetScenario, SessionResult, SessionSpec, ShardReport, ShardScenario, WorldSpec,
};
use sada_obs::{fnv1a, text::push_lines, Counts};
use sada_proto::parse_session_journal;
use sada_simnet::{SimDuration, SimTime};

/// What two runs of one scenario must share.
#[derive(Debug, PartialEq)]
struct Run {
    fingerprint: u64,
    journal_fnvs: Vec<u64>,
    records_fnvs: Vec<u64>,
    results: Vec<SessionResult>,
    counts: Counts,
    cache: (u64, u64),
    final_config: String,
}

fn records_fnv(text: &str) -> u64 {
    let mut lines = String::new();
    push_lines(&mut lines, parse_session_journal(text).expect("the run's journal parses"));
    fnv1a(lines)
}

fn flat(r: FleetReport) -> Run {
    Run {
        fingerprint: fingerprint_events_unsharded(&r.events),
        journal_fnvs: vec![fnv1a(&r.journal_text)],
        records_fnvs: vec![records_fnv(&r.journal_text)],
        results: r.results,
        counts: r.counts,
        cache: (r.cache.hits, r.cache.misses),
        final_config: r.final_config,
    }
}

fn sharded(r: ShardReport) -> Run {
    let mut journal_fnvs: Vec<u64> = r.journals.iter().map(|(_, t)| fnv1a(t)).collect();
    journal_fnvs.push(fnv1a(&r.global_journal));
    Run {
        fingerprint: r.fingerprint,
        journal_fnvs,
        records_fnvs: r.journals.iter().map(|(_, t)| records_fnv(t)).collect(),
        results: r.results,
        counts: r.counts,
        cache: (
            r.per_shard.iter().map(|s| s.cache_hits).sum(),
            r.per_shard.iter().map(|s| s.cache_misses).sum(),
        ),
        final_config: r.final_config,
    }
}

/// `scn` with its video world declared as a spec instead.
fn as_spec(scn: &ShardScenario) -> ShardScenario {
    let mut twin = scn.clone();
    twin.fleet.world_spec = Some(WorldSpec::video(scn.fleet.groups));
    twin
}

/// Runs `scn` and its spec twin through the drivers that take it and
/// asserts each pair identical.
fn assert_one_run(what: &str, scn: &ShardScenario, flat_too: bool, sharded_too: bool) {
    let twin = as_spec(scn);
    if flat_too {
        let (a, b) = (flat(run_fleet(&scn.fleet)), flat(run_fleet(&twin.fleet)));
        assert!(a.results.iter().any(|r| r.success), "{what}: nothing committed");
        assert_eq!(a, b, "{what}: flat");
    }
    if sharded_too {
        for threads in [1, 2] {
            let (a, b) = (
                sharded(run_fleet_sharded(scn, threads)),
                sharded(run_fleet_sharded(&twin, threads)),
            );
            assert_eq!(a, b, "{what}: sharded at {threads} threads");
        }
    }
}

fn spec(id: u64, flips: Vec<(usize, bool)>, at_us: u64, cancel_us: Option<u64>) -> SessionSpec {
    SessionSpec {
        id,
        flips,
        priority: (id % 3) as u8,
        submit_at: SimDuration::from_micros(at_us),
        cancel_at: cancel_us.map(SimDuration::from_micros),
    }
}

#[test]
fn a_strided_single_group_storm_is_one_run() {
    let (groups, sessions) = (96, 24);
    let specs = (0..sessions)
        .map(|i| {
            spec(i as u64 + 1, vec![(i * groups / sessions + 1, i % 2 == 0)], 37 * i as u64, None)
        })
        .collect();
    let mut fleet = FleetScenario::new(groups, specs);
    fleet.seed = 7;
    assert_one_run("strided storm", &ShardScenario::new(fleet, 4), true, true);
}

#[test]
fn a_disjoint_wave_of_three_group_scopes_is_one_run() {
    let mut fleet = FleetScenario::new(12, disjoint_wave(4, 3));
    fleet.seed = 11;
    assert_one_run("disjoint wave", &ShardScenario::new(fleet, 2), true, true);
}

#[test]
fn a_control_crash_window_is_one_run() {
    let ms = 1_000;
    let mut fleet = FleetScenario::new(
        6,
        vec![
            spec(1, vec![(0, true), (1, true)], 0, None),
            spec(2, vec![(2, true), (3, true)], 0, None),
            spec(3, vec![(3, false), (2, false)], ms, None),
            spec(4, vec![(1, false), (4, true)], 2 * ms, Some(4 * ms)),
            spec(5, vec![(5, true)], 12 * ms, None),
        ],
    );
    fleet.seed = 7;
    fleet.crash_control = Some((SimTime::from_millis(6), SimTime::from_millis(10)));
    assert_one_run("control crash window", &ShardScenario::new(fleet, 1), true, false);
}

#[test]
fn straddlers_over_a_lossy_fabric_with_crashes_are_one_run() {
    let mut sessions: Vec<SessionSpec> =
        (0..8).map(|g| spec(g as u64 + 1, vec![(g, true)], 300 * g as u64, None)).collect();
    sessions.push(spec(9, vec![(0, false), (1, false)], 2_000, None));
    sessions.push(spec(10, vec![(4, false)], 2_500, Some(3_000)));
    sessions.push(spec(100, vec![(1, true), (2, true)], 5_000, None));
    sessions.push(spec(101, vec![(5, false), (6, false)], 12_000, None));
    sessions.push(spec(102, vec![(0, true), (4, false), (7, false)], 20_000, None));
    let mut fleet = FleetScenario::new(8, sessions);
    fleet.seed = 7;
    fleet.time_budget = SimDuration::from_secs(40);
    let mut scn = ShardScenario::new(fleet, 4);
    assert_one_run("straddlers", &scn, true, true);
    scn.crash_region = Some((1, SimTime::from_micros(8_900), SimTime::from_micros(700_000)));
    scn.crash_global = Some((SimTime::from_micros(6_700), SimTime::from_micros(400_000)));
    scn.fabric_faults = FabricFaultPlan {
        seed: 0xFAB,
        drop_per_mille: 200,
        dup_per_mille: 200,
        delay_per_mille: 200,
        max_delay_quanta: 4,
        null_drop_per_mille: 100,
        ..FabricFaultPlan::default()
    };
    assert_one_run("straddlers over a lossy fabric with crashes", &scn, false, true);
}
