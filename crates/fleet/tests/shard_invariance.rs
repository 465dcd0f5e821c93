//! Shard-count and thread-count invariance of the sharded control plane.
//!
//! The refactor's contract: worker-thread count is pure execution policy —
//! for a fixed scenario, 1/2/4/8 threads produce **bit-for-bit identical**
//! final configurations, per-shard journals, and merged event streams
//! (compared by FNV fingerprint). Region count, by contrast, changes which
//! control plane runs each session (and therefore event interleavings),
//! but must never change *outcomes*: the same sessions succeed and the
//! fleet lands in the same final configuration. A chaos leg crashes one
//! region's control plane mid-run and checks the crash stays contained and
//! the whole faulted run replays deterministically under real parallelism.

use proptest::prelude::*;
use sada_fleet::{
    fingerprint_events, fingerprint_events_unsharded, run_fleet, run_fleet_sharded, FleetScenario,
    SessionSpec, ShardScenario,
};
use sada_simnet::{SimDuration, SimTime};

/// A forward-only adaptation wave: every group flips Old → New exactly
/// once, so final configurations are order-independent and comparable
/// across different partitions of the same workload.
fn forward_wave(groups: usize, seed: u64) -> Vec<SessionSpec> {
    (0..groups)
        .map(|g| SessionSpec {
            id: g as u64 + 1,
            flips: vec![(g, true)],
            priority: (seed >> (g % 8)) as u8 % 4,
            submit_at: SimDuration::from_micros(
                (seed.rotate_left(g as u32) % 5_000) * (g as u64 + 1),
            ),
            cancel_at: None,
        })
        .collect()
}

/// A mixed workload for the bit-for-bit legs: locals on every group plus
/// straddlers that cross region boundaries, some of them withdrawn.
fn mixed_scenario(groups: usize, regions: usize, seed: u64) -> ShardScenario {
    let mut sessions = forward_wave(groups, seed);
    let mut next = groups as u64 + 1;
    // One straddler per adjacent region pair: last group of region r with
    // first group of region r+1 (contiguous-block partition).
    for r in 0..regions.saturating_sub(1) {
        let last = (r + 1) * groups / regions - 1;
        let first = (r + 1) * groups / regions;
        if first >= groups || last >= first {
            continue;
        }
        sessions.push(SessionSpec {
            id: next,
            flips: vec![(last, false), (first, false)],
            priority: 1,
            submit_at: SimDuration::from_millis(40 + 3 * r as u64),
            cancel_at: (r % 2 == 1).then(|| SimDuration::from_millis(41 + 3 * r as u64)),
        });
        next += 1;
    }
    let mut fleet = FleetScenario::new(groups, sessions);
    fleet.seed = seed;
    ShardScenario::new(fleet, regions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Worker-thread count is invisible: fingerprints, journals, results,
    /// and the final configuration are bit-for-bit identical at 1/2/4/8
    /// threads for the same scenario (locals + straddlers + withdrawals).
    #[test]
    fn thread_count_never_changes_anything(
        groups in 4usize..9,
        regions_ix in 0usize..3,
        seed in 1u64..u64::MAX,
    ) {
        let regions = [2, 3, 4][regions_ix].min(groups);
        let scn = mixed_scenario(groups, regions, seed);
        let base = run_fleet_sharded(&scn, 1);
        for threads in [2, 4, 8] {
            let run = run_fleet_sharded(&scn, threads);
            prop_assert_eq!(run.fingerprint, base.fingerprint, "threads={}", threads);
            prop_assert_eq!(&run.journals, &base.journals, "threads={}", threads);
            prop_assert_eq!(&run.results, &base.results, "threads={}", threads);
            prop_assert_eq!(&run.final_config, &base.final_config, "threads={}", threads);
            prop_assert_eq!(run.fabric.messages, base.fabric.messages, "threads={}", threads);
        }
    }

    /// Region count changes *placement*, never *outcomes*: a forward-only
    /// wave lands every partition in the identical final configuration with
    /// every session committed.
    #[test]
    fn region_count_never_changes_outcomes(
        groups in 8usize..13,
        seed in 1u64..u64::MAX,
    ) {
        let fleet = FleetScenario::new(groups, forward_wave(groups, seed));
        let mut configs = Vec::new();
        for regions in [1usize, 2, 4, 8] {
            let scn = ShardScenario::new(fleet.clone(), regions.min(groups));
            let run = run_fleet_sharded(&scn, 4);
            prop_assert_eq!(run.succeeded(), groups, "regions={}: {:?}", regions, run.results);
            configs.push(run.final_config);
        }
        prop_assert!(configs.windows(2).all(|w| w[0] == w[1]), "configs: {configs:?}");
    }
}

/// One region on one thread replays the unsharded driver exactly: same
/// final configuration and an event stream identical modulo shard tags.
/// Both drivers build and distill the same `Plane`, so what this pins is
/// "direct call ≡ executor + merge": the region shim, the idle fabric
/// relay, the conservative stepping, and the report merge add nothing.
#[test]
fn single_region_matches_run_fleet() {
    for seed in [3u64, 17, 99] {
        let mut fleet = FleetScenario::new(6, forward_wave(6, seed));
        fleet.seed = seed;
        let unsharded = run_fleet(&fleet);
        let sharded = run_fleet_sharded(&ShardScenario::new(fleet, 1), 1);
        assert_eq!(
            fingerprint_events_unsharded(&sharded.events),
            fingerprint_events_unsharded(&unsharded.events),
            "seed {seed}: one region must replicate the unsharded run"
        );
        assert_eq!(sharded.final_config, unsharded.final_config);
    }
}

/// Chaos leg: region 1's control plane crashes mid-run and restores from
/// its journal. The crash stays contained — every other region's event
/// stream is byte-identical to the fault-free run — and the faulted run
/// itself replays bit-for-bit under real parallelism.
#[test]
fn region_crash_is_contained_and_replays_deterministically() {
    let groups = 8;
    let regions = 4;
    // Locals only *here* because the containment assertion needs a quiet
    // fabric: a straddler handshake entangles other regions' event streams
    // by design. Straddlers crossing the faulted region — once forbidden
    // because their lock traffic into a dead control plane was silently
    // dropped — are covered by `straddlers_cross_the_crashed_region`.
    let mut fleet = FleetScenario::new(groups, forward_wave(groups, 7));
    fleet.seed = 7;
    fleet.time_budget = SimDuration::from_secs(40);
    let healthy = run_fleet_sharded(&ShardScenario::new(fleet.clone(), regions), 2);

    let mut scn = ShardScenario::new(fleet, regions);
    // Groups 2..4 live in region 1; crash its control plane mid-protocol.
    scn.crash_region = Some((1, SimTime::from_micros(9_000), SimTime::from_millis(600)));
    let a = run_fleet_sharded(&scn, 4);
    assert_eq!(a.restores, 1, "the crashed region's control plane restores once");
    assert_eq!(a.succeeded(), groups, "journal replay finishes every session: {:?}", a.results);
    assert_eq!(a.final_config, healthy.final_config);

    // Containment: regions 0, 2, 3 never observe the fault.
    for shard in [1u32, 3, 4] {
        let pick = |run: &sada_fleet::ShardReport| {
            run.events.iter().filter(|e| e.shard == shard).cloned().collect::<Vec<_>>()
        };
        assert_eq!(
            fingerprint_events(&pick(&a)),
            fingerprint_events(&pick(&healthy)),
            "shard {shard} must be undisturbed by region 1's crash"
        );
    }

    // Determinism under faults: same scenario, different thread counts,
    // identical streams.
    let b = run_fleet_sharded(&scn, 1);
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(a.journals, b.journals);
    assert_eq!(a.results, b.results);
}

/// Regression for the formerly forbidden case: straddlers whose scope
/// crosses the *faulted* region. One straddler already holds its region-1
/// slice when that control plane dies — the lease survives the crash and
/// is re-seized on restart. The other escalates while the region is down,
/// and only the fabric retransmission ladder gets its handshake through
/// (pre-ladder, that traffic was silently dropped and the session hung).
#[test]
fn straddlers_cross_the_crashed_region() {
    let groups = 8;
    let regions = 4;
    let mut sessions = forward_wave(groups, 5);
    // Escalates early: its slice is held across the crash window.
    sessions.push(SessionSpec {
        id: 100,
        flips: vec![(3, false), (4, false)], // regions 1 | 2
        priority: 1,
        submit_at: SimDuration::from_millis(2),
        cancel_at: None,
    });
    // Escalates into the dead region at 20 ms (crash at 9 ms, restart at
    // 600 ms): every first-attempt request is lost in the crash shadow.
    sessions.push(SessionSpec {
        id: 101,
        flips: vec![(2, true), (5, true)], // regions 1 | 2
        priority: 0,
        submit_at: SimDuration::from_millis(20),
        cancel_at: None,
    });
    let mut fleet = FleetScenario::new(groups, sessions);
    fleet.seed = 5;
    fleet.time_budget = SimDuration::from_secs(40);
    let mut scn = ShardScenario::new(fleet, regions);
    scn.crash_region = Some((1, SimTime::from_millis(9), SimTime::from_millis(600)));
    let a = run_fleet_sharded(&scn, 4);
    assert_eq!(a.restores, 1, "region 1 restores once");
    assert_eq!(
        a.succeeded(),
        groups + 2,
        "every session completes, straddlers included: {:?}",
        a.results
    );
    assert!(!a.global_journal.is_empty(), "escalations journaled at the global tier");
    assert!(a.retransmits > 0, "the ladder carried the handshake into the dead region");

    // Determinism under the combined fault: thread count stays invisible.
    let b = run_fleet_sharded(&scn, 1);
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(a.journals, b.journals);
    assert_eq!(a.global_journal, b.global_journal);
    assert_eq!(a.results, b.results);
}
