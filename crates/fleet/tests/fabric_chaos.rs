//! Fabric chaos: the cross-shard lock handshake under seeded message
//! faults (drop / duplicate / delay-burst / null suppression) combined
//! with a global-tier crash and a region crash — with straddlers allowed
//! onto the faulted region.
//!
//! The contract under chaos is the same as without it, because the fault
//! plan is *scenario*, not execution:
//!
//! 1. **Bit-for-bit determinism** — fingerprints, per-shard journals, the
//!    global journal, and per-session results are identical at 1/2/4/8
//!    worker threads for a fixed lossy scenario.
//! 2. **Convergence** — a lossy run lands the identical final
//!    configuration and per-session verdicts as its lossless twin: the
//!    retransmission ladder plus idempotent grant/release application make
//!    the fabric exactly-once in effect.
//! 3. **No vanished sessions** — every admitted session ends with a
//!    journaled terminal verdict, even when the ladder exhausts against a
//!    dead region and the straddler is abandoned.
//!
//! Seed count: `SADA_CHAOS_SEEDS` overrides the default sweep width;
//! `SADA_FULL_CHAOS=1` runs the long soak. Replay one seed by fixing the
//! fault-plan seed printed in a failure message (the plan is the scenario).

mod identity;

use identity::{assert_pinned, Identity};
use proptest::prelude::*;
use sada_fleet::{
    encode_fabric_msg, parse_fabric_msg, run_fleet_sharded, FabricFaultPlan, FabricPayload,
    FleetScenario, SessionSpec, ShardReport, ShardScenario,
};
use sada_simnet::{SimDuration, SimTime};

const GROUPS: usize = 8;
const REGIONS: usize = 4;

fn sweep_seeds() -> u64 {
    if let Ok(v) = std::env::var("SADA_CHAOS_SEEDS") {
        return v.parse().expect("SADA_CHAOS_SEEDS must be a number");
    }
    if std::env::var("SADA_FULL_CHAOS").is_ok_and(|v| v == "1") {
        60
    } else {
        20
    }
}

/// Locals on groups 0..6 plus two straddlers, one of which crosses the
/// faulted region. Every flip targets `true`, so the final configuration
/// is order-independent: lossy timing shifts admission order, never the
/// destination.
fn chaos_fleet(seed: u64) -> FleetScenario {
    let mut sessions: Vec<SessionSpec> = (0..6)
        .map(|g| SessionSpec {
            id: g as u64 + 1,
            flips: vec![(g, true)],
            priority: (seed >> (g % 8)) as u8 % 4,
            submit_at: SimDuration::from_micros((seed.rotate_left(g as u32) % 4_000) + 500),
            cancel_at: None,
        })
        .collect();
    // Regions 0 | 1 — region 1 is the one that crashes.
    sessions.push(SessionSpec {
        id: 100,
        flips: vec![(1, true), (2, true)],
        priority: 1,
        submit_at: SimDuration::from_millis(5),
        cancel_at: None,
    });
    // Regions 2 | 3 — crosses the healthy half of the fleet.
    sessions.push(SessionSpec {
        id: 101,
        flips: vec![(5, true), (6, true)],
        priority: 0,
        submit_at: SimDuration::from_millis(12),
        cancel_at: None,
    });
    let mut fleet = FleetScenario::new(GROUPS, sessions);
    fleet.seed = seed;
    fleet.time_budget = SimDuration::from_secs(40);
    fleet
}

fn chaos_faults(seed: u64) -> FabricFaultPlan {
    FabricFaultPlan {
        seed,
        drop_per_mille: 200,
        dup_per_mille: 200,
        delay_per_mille: 200,
        max_delay_quanta: 4,
        null_drop_per_mille: 100,
        ..FabricFaultPlan::default()
    }
}

/// The full chaos scenario: fabric faults + global-tier crash + region-1
/// crash, straddler 100 squarely on the faulted region.
fn chaos_scenario(seed: u64) -> ShardScenario {
    let mut scn = ShardScenario::new(chaos_fleet(seed), REGIONS);
    scn.fabric_faults = chaos_faults(seed ^ 0xFAB);
    scn.crash_global =
        Some((SimTime::from_micros(6_000 + (seed % 5) * 700), SimTime::from_micros(400_000)));
    scn.crash_region =
        Some((1, SimTime::from_micros(8_000 + (seed % 3) * 900), SimTime::from_micros(700_000)));
    scn
}

fn assert_all_concluded(report: &ShardReport, ctxt: &str) {
    for r in &report.results {
        assert!(
            r.completed_at.is_some() || r.cancelled,
            "{ctxt}: session {} vanished without a terminal verdict: {:?}",
            r.id,
            report.results
        );
    }
    // Quiescence: once every session has a verdict, no control plane may
    // still hold lock-table entries or foreign holds — orphaned releases
    // are garbage-collected by lease expiry, everything else by the
    // ordinary release path.
    assert_eq!(
        report.residual_holds, 0,
        "{ctxt}: lock table not empty at quiescence ({} residual holds)",
        report.residual_holds
    );
}

/// Sweep: for each seed the lossy, doubly-crashed run is bit-for-bit
/// identical across 1/2/4/8 worker threads and converges to its lossless
/// twin's verdicts and final configuration.
#[test]
fn chaos_sweep_is_deterministic_and_convergent() {
    for seed in 1..=sweep_seeds() {
        let scn = chaos_scenario(seed);
        let base = run_fleet_sharded(&scn, 1);
        assert_all_concluded(&base, &format!("seed {seed}"));
        for threads in [2, 4, 8] {
            let run = run_fleet_sharded(&scn, threads);
            assert_eq!(
                run.fingerprint, base.fingerprint,
                "seed {seed}, threads {threads}: event streams diverged"
            );
            assert_eq!(run.journals, base.journals, "seed {seed}, threads {threads}");
            assert_eq!(run.global_journal, base.global_journal, "seed {seed}, threads {threads}");
            assert_eq!(run.results, base.results, "seed {seed}, threads {threads}");
            assert_eq!(run.final_config, base.final_config, "seed {seed}, threads {threads}");
        }
        // Lossless twin: same crashes, faults off. Timing differs (the
        // ladder stretches the handshake), verdicts and the destination
        // configuration may not.
        let mut lossless = chaos_scenario(seed);
        lossless.fabric_faults = FabricFaultPlan::default();
        let twin = run_fleet_sharded(&lossless, 2);
        assert_eq!(base.final_config, twin.final_config, "seed {seed}: configs diverged");
        assert_eq!(base.succeeded(), twin.succeeded(), "seed {seed}: verdicts diverged");
        for (a, b) in base.results.iter().zip(&twin.results) {
            assert_eq!(
                (a.id, a.success, a.gave_up),
                (b.id, b.success, b.gave_up),
                "seed {seed}: session verdict diverged"
            );
        }
    }
}

/// Duplicate-delivery idempotence: with *every* fabric message duplicated,
/// grant/release application still lands the lossless outcome — duplicate
/// grants re-fold identical values, duplicate releases re-ack, tombstones
/// swallow resurrection attempts.
#[test]
fn duplicate_delivery_is_idempotent() {
    for seed in [1u64, 9, 23] {
        let mut scn = ShardScenario::new(chaos_fleet(seed), REGIONS);
        scn.fabric_faults =
            FabricFaultPlan { seed, dup_per_mille: 1000, ..FabricFaultPlan::default() };
        let dup = run_fleet_sharded(&scn, 2);
        assert!(dup.fabric.duplicated > 0, "seed {seed}: the dup plan must bite");
        let clean = run_fleet_sharded(&ShardScenario::new(chaos_fleet(seed), REGIONS), 2);
        assert_eq!(dup.final_config, clean.final_config, "seed {seed}");
        assert_eq!(dup.succeeded(), clean.succeeded(), "seed {seed}: {:?}", dup.results);
        assert_eq!(dup.abandoned, 0, "seed {seed}: duplicates never abandon anything");
        assert_all_concluded(&dup, &format!("dup seed {seed}"));
    }
}

/// The GVT promise fast path is pure scheduling: lossy runs with it on and
/// off produce identical fingerprints, journals, and results.
#[test]
fn promise_fastpath_is_invisible_under_chaos() {
    for seed in [2u64, 14] {
        let scn = chaos_scenario(seed);
        let fast = run_fleet_sharded(&scn, 2);
        let slow = sada_fleet::oracle::run_fleet_sharded_without_fastpath(&scn, 2);
        assert_eq!(fast.fingerprint, slow.fingerprint, "seed {seed}");
        assert_eq!(fast.journals, slow.journals, "seed {seed}");
        assert_eq!(fast.global_journal, slow.global_journal, "seed {seed}");
        assert_eq!(fast.results, slow.results, "seed {seed}");
    }
}

/// A region that stays dead past the lease horizon: the straddler's
/// request ladder exhausts, the session is *abandoned* with a journaled
/// rejection — it does not vanish — and the whole faulted run stays
/// thread-invariant.
#[test]
fn straddler_onto_a_dead_region_is_abandoned_not_lost() {
    let mut scn = ShardScenario::new(chaos_fleet(4), REGIONS);
    // Region 1 dies before straddler 100 escalates and stays down past the
    // ~9.4 s ladder horizon.
    scn.crash_region = Some((1, SimTime::from_millis(4), SimTime::from_millis(25_000)));
    let a = run_fleet_sharded(&scn, 2);
    assert_eq!(a.abandoned, 1, "straddler 100 exhausted its ladder: {:?}", a.results);
    let s100 = a.session(100).expect("straddler reported");
    assert!(!s100.success && s100.completed_at.is_some(), "a clean journaled rejection");
    assert!(a.global_journal.contains("abandoned"), "journal: {}", a.global_journal);
    assert_all_concluded(&a, "dead region");
    let b = run_fleet_sharded(&scn, 4);
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(a.results, b.results);
    assert_eq!(a.global_journal, b.global_journal);
}

/// The dead-region run above, pinned: the abandoned straddler's row (its
/// escalation instant, its conclusion at the ladder's end) with every other
/// row, at 1 and at 4 worker threads.
#[test]
fn straddler_onto_a_dead_region_is_pinned() {
    let mut scn = ShardScenario::new(chaos_fleet(4), REGIONS);
    scn.crash_region = Some((1, SimTime::from_millis(4), SimTime::from_millis(25_000)));
    assert_pinned(
        "dead region",
        &scn,
        &Identity {
            fingerprint: 0xe5fcbb96f167565b,
            final_config: "0110101010101010",
            restores: 1,
            journal_fnvs: &[
                0x207f4e1d0ce8e6bc,
                0x6cc0e87e16e02448,
                0x06366ce9930f608b,
                0xcbf29ce484222325,
                0x54f70f420b0d635b,
            ],
            records_fnvs: &[
                0x5921d6e35bc5f91d,
                0x7a26756e8c1409f9,
                0x38cab57453ffbe68,
                0xcbf29ce484222325,
                0xbf754bd496cdfc8e,
            ],
            global_journal_fnv: 0xcf27d7b61a91006f,
            verdicts: (7, 0, 0, 0, 0),
            results_fnv: 0xf8e6c7dfabab2e48,
            max_concurrent: 6,
            makespan_us: 25004496,
            ladder: (22, 1, 1, 0),
        },
    );
}

/// The orphaned-release leak (PR 8 headroom) and its garbage collection:
/// region 1 grants straddler 100's slice, then dies mid-session and stays
/// down past the release ladder. The global tier's release orphans; the
/// restarted region re-seizes the hold, hears nothing for a full lease
/// horizon, and garbage-collects it — lock table empty at quiescence, one
/// `LeaseExpired` event in the stream, bit-for-bit across thread counts.
#[test]
fn orphaned_release_is_reclaimed_by_lease_expiry() {
    let mut scn = ShardScenario::new(chaos_fleet(4), REGIONS);
    // Crash after the slice is granted (handshake completes within ~10 ms)
    // but before the straddler finishes; restart only after the global
    // tier's release ladder has exhausted (~9.4 s past completion).
    scn.crash_region = Some((1, SimTime::from_millis(20), SimTime::from_millis(22_000)));
    let a = run_fleet_sharded(&scn, 2);
    assert_eq!(a.orphaned_releases, 1, "the release ladder must exhaust: {:?}", a.results);
    assert_eq!(a.lease_expirations, 1, "the re-seized hold must be garbage-collected");
    assert_eq!(a.residual_holds, 0, "lock table empty at quiescence");
    assert_all_concluded(&a, "orphaned release");
    let expired = a
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.payload,
                sada_obs::Payload::Fleet(sada_obs::FleetEvent::LeaseExpired { session: 100, .. })
            )
        })
        .count();
    assert_eq!(expired, 1, "exactly one LeaseExpired event for straddler 100");
    let b = run_fleet_sharded(&scn, 4);
    assert_eq!(a.fingerprint, b.fingerprint, "lease GC must stay thread-invariant");
    assert_eq!(a.results, b.results);
}

/// Straddler-heavy traffic over the lossy fabric alone: the chaos fleet's
/// two straddlers plus four more across every region boundary, one of
/// them over three regions. Pinned with the ladder's counts, retransmits
/// among them, at 1 and at 4 worker threads.
#[test]
fn straddler_heavy_lossy_fabric_is_pinned() {
    let mut fleet = chaos_fleet(7);
    let straddler = |id: u64, flips: Vec<(usize, bool)>, at_ms: u64| SessionSpec {
        id,
        flips,
        priority: (id % 3) as u8,
        submit_at: SimDuration::from_millis(at_ms),
        cancel_at: None,
    };
    fleet.sessions.extend([
        straddler(102, vec![(0, true), (7, true)], 3),
        straddler(103, vec![(3, true), (4, true)], 7),
        straddler(104, vec![(1, true), (3, true), (5, true)], 9),
        straddler(105, vec![(6, true), (2, true)], 15),
    ]);
    let mut scn = ShardScenario::new(fleet, REGIONS);
    scn.fabric_faults = chaos_faults(7 ^ 0xFAB);
    assert_pinned(
        "straddler-heavy lossy fabric",
        &scn,
        &Identity {
            fingerprint: 0xa9d9e7535d32bb71,
            final_config: "1010101010101010",
            restores: 0,
            journal_fnvs: &[
                0x207f4e1d0ce8e6bc,
                0x6cc0e87e16e02448,
                0x06366ce9930f608b,
                0xcbf29ce484222325,
                0x7585790bc04b04ac,
            ],
            records_fnvs: &[
                0x5921d6e35bc5f91d,
                0x7a26756e8c1409f9,
                0x38cab57453ffbe68,
                0xcbf29ce484222325,
                0xb4e9b4b995ba8a51,
            ],
            global_journal_fnv: 0x0b172f23cbbfeca1,
            verdicts: (12, 0, 0, 0, 0),
            results_fnv: 0x6a74aa5c7d20b5f0,
            max_concurrent: 6,
            makespan_us: 1800493,
            ladder: (19, 0, 0, 0),
        },
    );
}

/// The orphaned-release run above, pinned: one release given up past the
/// ladder's horizon, its hold reclaimed by lease expiry.
#[test]
fn orphaned_release_is_pinned() {
    let mut scn = ShardScenario::new(chaos_fleet(4), REGIONS);
    scn.crash_region = Some((1, SimTime::from_millis(20), SimTime::from_millis(22_000)));
    assert_pinned(
        "orphaned release, pinned",
        &scn,
        &Identity {
            fingerprint: 0x70878cb9c19e8924,
            final_config: "0110101010101010",
            restores: 1,
            journal_fnvs: &[
                0x207f4e1d0ce8e6bc,
                0x6cc0e87e16e02448,
                0x06366ce9930f608b,
                0xcbf29ce484222325,
                0xc2273a610acc8897,
            ],
            records_fnvs: &[
                0x5921d6e35bc5f91d,
                0x7a26756e8c1409f9,
                0x38cab57453ffbe68,
                0xcbf29ce484222325,
                0xdb453f71d75302a8,
            ],
            global_journal_fnv: 0x7ce21fd286334974,
            verdicts: (8, 0, 0, 0, 0),
            results_fnv: 0x72fd92d37d7f9051,
            max_concurrent: 6,
            makespan_us: 31496,
            ladder: (11, 0, 1, 0),
        },
    );
}

fn arb_values() -> impl Strategy<Value = Vec<(u32, bool)>> {
    prop::collection::vec((0u32..64, any::<bool>()), 0..6)
}

fn arb_payload() -> impl Strategy<Value = FabricPayload> {
    prop_oneof![
        (
            any::<u64>(),
            prop::collection::vec(0u32..64, 0..5),
            prop::collection::vec(0u32..64, 0..5),
            any::<u8>(),
            any::<u64>(),
        )
            .prop_map(|(session, resources, comps, priority, epoch)| {
                FabricPayload::LockRequest { session, resources, comps, priority, epoch }
            }),
        (any::<u64>(), 0u32..16, any::<u64>(), arb_values()).prop_map(
            |(session, region, epoch, values)| FabricPayload::LockGranted {
                session,
                region,
                epoch,
                values
            }
        ),
        (any::<u64>(), any::<u64>(), arb_values()).prop_map(|(session, epoch, values)| {
            FabricPayload::LockRelease { session, epoch, values }
        }),
        (any::<u64>(), 0u32..16, any::<u64>()).prop_map(|(session, region, epoch)| {
            FabricPayload::ReleaseAck { session, region, epoch }
        }),
    ]
}

proptest! {
    /// The fabric-message text codec is the identity on round trips.
    #[test]
    fn fabric_codec_round_trips(msg in arb_payload()) {
        let line = encode_fabric_msg(&msg);
        prop_assert!(!line.contains('\n'), "one line per message: {line:?}");
        let back = match parse_fabric_msg(&line) {
            Ok(back) => back,
            Err(e) => return Err(TestCaseError::fail(format!("{e}\nline: {line}"))),
        };
        prop_assert_eq!(back, msg, "line: {}", line);
    }
}
