//! Pinned identities of multi-region [`run_fleet_sharded`] runs that
//! `flat_identity.rs` cannot reach: straddlers escalating through the global
//! tier over four regions, the same fleet with a region crash, a
//! global-tier crash and a lossy fabric on top, and straddlers withdrawn at
//! every point of their escalation around a global-tier crash.
//!
//! The first two rows were captured while every endpoint still compiled
//! its own world; they pin that sharing one immutable world across the
//! endpoint threads (and moving the safety memo out of `Search`) moved no
//! event, journal byte, or verdict — at 1 and at 4 worker threads. The
//! journal-text constants were re-captured once, when configuration fields
//! became deltas; the records constants beside them did not move. The
//! report-row hash, peak concurrency and makespan were captured while the
//! global tier still patched its own submission and withdrawal instants
//! into the report. The retransmission-ladder counts were captured while
//! the global tier still ran its own ladder beside its manager host. The
//! report counters were captured while each was still incremented by hand
//! beside the event that says the same thing.
//!
//! The fingerprints and the first and last planes' journal and records
//! constants of the three rows above were re-captured once, when the lazy
//! search took eager Dijkstra's tie rule: the straddlers' multi-group
//! flips take their steps in component order. Every verdict, counter,
//! final configuration, report row and the global journal held.

mod identity;

use identity::{assert_pinned, Counters, Identity};
use sada_fleet::{
    disjoint_wave, run_fleet_sharded, FabricFaultPlan, FleetScenario, SessionSpec, ShardScenario,
};
use sada_simnet::{SimDuration, SimTime};

fn spec(id: u64, flips: Vec<(usize, bool)>, at_us: u64, cancel_us: Option<u64>) -> SessionSpec {
    SessionSpec {
        id,
        flips,
        priority: (id % 3) as u8,
        submit_at: SimDuration::from_micros(at_us),
        cancel_at: cancel_us.map(SimDuration::from_micros),
    }
}

/// Eight groups over four regions (two groups each): locals that flip
/// forward and back, a queued local that withdraws, two two-region
/// straddlers, and one straddler across three regions.
fn straddling_fleet() -> ShardScenario {
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
    ShardScenario::new(fleet, 4)
}

#[test]
fn straddlers_over_four_regions_are_pinned() {
    assert_pinned(
        "straddling fleet",
        &straddling_fleet(),
        &Identity {
            fingerprint: 0x2ff7f587ed15d001,
            final_config: "0101010110100110",
            restores: 0,
            journal_fnvs: &[
                0x82b2a302b0b6fdf7,
                0x6cc0e87e16e02448,
                0x5522f46c04a47525,
                0x6e10c94900cda3a6,
                0xb1e8f07cc832f1fa,
            ],
            records_fnvs: &[
                0xb6e49cb9f6a83119,
                0x7a26756e8c1409f9,
                0x70146736012906e5,
                0x31eedb1f41686777,
                0x62ebdbf1e44b0268,
            ],
            global_journal_fnv: 0x832062beb8f9b6b4,
            verdicts: (12, 0, 1, 0, 0),
            results_fnv: 0x77ba76eb232afde2,
            max_concurrent: 8,
            makespan_us: 83000,
            counters: Counters {
                shed: 0,
                rejected: 0,
                breaker_trips: 0,
                scope_breaker_trips: 0,
                suppressed_sends: 0,
                cache_hits: 4,
                cache_misses: 7,
                dropped: 0,
                duplicated: 0,
                delayed: 0,
                retransmits: 0,
                abandoned: 0,
                orphaned_releases: 0,
                lease_reclaims: 0,
                lease_expirations: 0,
            },
        },
    );
}

#[test]
fn region_and_global_crashes_over_a_lossy_fabric_are_pinned() {
    let mut scn = straddling_fleet();
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
    assert_pinned(
        "crashes + lossy fabric",
        &scn,
        &Identity {
            fingerprint: 0xb19e959957ac57b3,
            final_config: "0101010110100110",
            restores: 2,
            journal_fnvs: &[
                0x82b2a302b0b6fdf7,
                0x6cc0e87e16e02448,
                0x5522f46c04a47525,
                0x6e10c94900cda3a6,
                0x6256bc4594bb9840,
            ],
            records_fnvs: &[
                0xb6e49cb9f6a83119,
                0x7a26756e8c1409f9,
                0x70146736012906e5,
                0x31eedb1f41686777,
                0xf35e30d15cf2e5f4,
            ],
            global_journal_fnv: 0x897545ff388a6ac0,
            verdicts: (12, 0, 1, 0, 0),
            results_fnv: 0xa73bf1c790553574,
            max_concurrent: 8,
            makespan_us: 1687000,
            counters: Counters {
                shed: 0,
                rejected: 0,
                breaker_trips: 0,
                scope_breaker_trips: 0,
                suppressed_sends: 0,
                cache_hits: 4,
                cache_misses: 7,
                dropped: 8,
                duplicated: 5,
                delayed: 6,
                retransmits: 11,
                abandoned: 0,
                orphaned_releases: 0,
                lease_reclaims: 1,
                lease_expirations: 0,
            },
        },
    );
}

/// Four more straddlers withdraw, each at another point of its life
/// around a global-tier crash (6.7 ms to 400 ms): 103 while its first slice
/// is still queued, 105 before it escalates, 104 at the restore that
/// re-drives its escalation, and 106 at the restore that begins it.
/// The final configuration is the straddling fleet's own: it was first
/// captured as `0101010101100110`, while a withdrawn straddler's release
/// still carried the global tier's stale values and undid a committed flip.
#[test]
fn straddlers_withdrawn_mid_escalation_around_a_global_crash_are_pinned() {
    let mut scn = straddling_fleet();
    scn.fleet.sessions.extend([
        spec(103, vec![(1, false), (2, false)], 5_100, Some(6_000)),
        spec(104, vec![(3, true), (4, true)], 5_200, Some(9_000)),
        spec(105, vec![(5, true), (6, true)], 6_000, Some(5_500)),
        spec(106, vec![(3, false), (4, true)], 20_000, Some(10_000)),
    ]);
    scn.crash_global = Some((SimTime::from_micros(6_700), SimTime::from_micros(400_000)));
    let journal = run_fleet_sharded(&scn, 1).global_journal;
    let withdrawn = |sid: u64| journal.contains(&format!("withdrawn session={sid}\n"));
    let escalated = |sid: u64| journal.contains(&format!("escalated session={sid} "));
    assert!([103, 104, 105, 106].into_iter().all(withdrawn), "journal: {journal}");
    assert!([103, 104, 106].into_iter().all(escalated) && !escalated(105), "journal: {journal}");
    assert_pinned(
        "straddlers withdrawn around a global crash",
        &scn,
        &Identity {
            fingerprint: 0x023c528f16cb5b57,
            final_config: "0101010110100110",
            restores: 1,
            journal_fnvs: &[
                0x82b2a302b0b6fdf7,
                0x6cc0e87e16e02448,
                0x5522f46c04a47525,
                0x6e10c94900cda3a6,
                0xb1e8f07cc832f1fa,
            ],
            records_fnvs: &[
                0xb6e49cb9f6a83119,
                0x7a26756e8c1409f9,
                0x70146736012906e5,
                0x31eedb1f41686777,
                0x62ebdbf1e44b0268,
            ],
            global_journal_fnv: 0xbd56995b99172730,
            verdicts: (12, 0, 5, 0, 0),
            results_fnv: 0xcffabf85b67a263c,
            max_concurrent: 8,
            makespan_us: 472000,
            counters: Counters {
                shed: 0,
                rejected: 0,
                breaker_trips: 0,
                scope_breaker_trips: 0,
                suppressed_sends: 0,
                cache_hits: 4,
                cache_misses: 7,
                dropped: 0,
                duplicated: 0,
                delayed: 0,
                retransmits: 0,
                abandoned: 0,
                orphaned_releases: 0,
                lease_reclaims: 2,
                lease_expirations: 0,
            },
        },
    );
}

/// The global-crash leg of the global tier's own recovery test: four
/// groups over two regions, two straddlers, the global tier down from
/// 5.5 ms to 12 ms while straddler 9's slice chain is being acquired.
#[test]
fn global_crash_mid_handshake_is_pinned() {
    let mut sessions = disjoint_wave(4, 1);
    for (id, flips, at_ms, priority) in
        [(9, vec![(1, true), (2, true)], 5, 0), (10, vec![(0, true), (3, false)], 9, 1)]
    {
        let submit_at = SimDuration::from_millis(at_ms);
        sessions.push(SessionSpec { id, flips, priority, submit_at, cancel_at: None });
    }
    let mut scn = ShardScenario::new(FleetScenario::new(4, sessions), 2);
    scn.crash_global = Some((SimTime::from_micros(5_500), SimTime::from_micros(12_000)));
    assert_pinned(
        "global crash mid-handshake",
        &scn,
        &Identity {
            fingerprint: 0xdf8cbd21d5cdc489,
            final_config: "01101010",
            restores: 1,
            journal_fnvs: &[0x3481a1a703ff5d0c, 0xdc37f387291e3918, 0xce068a3f2678afda],
            records_fnvs: &[0x2f4e4527d487bc3d, 0x138573549c5eff59, 0xee6de10ab0289b44],
            global_journal_fnv: 0x2fc8e07a5686ad67,
            verdicts: (6, 0, 0, 0, 0),
            results_fnv: 0xf3c0104e2cb34506,
            max_concurrent: 4,
            makespan_us: 32000,
            counters: Counters {
                shed: 0,
                rejected: 0,
                breaker_trips: 0,
                scope_breaker_trips: 0,
                suppressed_sends: 0,
                cache_hits: 2,
                cache_misses: 3,
                dropped: 0,
                duplicated: 0,
                delayed: 0,
                retransmits: 0,
                abandoned: 0,
                orphaned_releases: 0,
                lease_reclaims: 1,
                lease_expirations: 0,
            },
        },
    );
}
