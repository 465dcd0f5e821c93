//! Equivalence properties for the scale hot path.
//!
//! The hot-path rework (one agent arena, batched
//! bus/fabric delivery, timer wheel) must be *fingerprint-invisible*:
//! batching is an execution optimization, never a semantic change. The
//! arena needs no equivalence property of its own any more — it runs the
//! solo `ScriptedAgent` code, not a copy of it (`flat_identity.rs` pins the
//! flat fingerprints across that change). Two properties pin the rest
//! down:
//!
//! 1. At the simnet layer, `inject_batch` is bit-for-bit the same as the
//!    equivalent loop of `inject` calls — event streams, traces, and
//!    network counters all match, crashed-destination drops included.
//! 2. At the fleet layer, a sharded run (whose fabric now injects whole
//!    sorted batches per arrival instant) produces byte-identical merged
//!    event streams and every report counter at 1, 2, and 4 worker
//!    threads, with fabric chaos and a region crash in play.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use sada_fleet::{
    run_fleet_sharded, FabricFaultPlan, FleetScenario, SessionSpec, ShardReport, ShardScenario,
};
use sada_obs::{Bus, Counts, RingSink};
use sada_simnet::{Actor, ActorId, Context, SimDuration, SimTime, Simulator};

/// Echoes nothing; just records what it saw, so delivery order is the
/// entire observable behaviour.
struct Recorder {
    got: Vec<(u64, u32)>,
}

impl Actor<u32> for Recorder {
    fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: ActorId, msg: u32) {
        self.got.push((ctx.now().as_micros(), from.index() as u32 * 1000 + msg));
    }
}

/// Runs one simulation delivering `msgs` to a recorder (optionally crashed
/// first), via `inject_batch` or a per-message `inject` loop, and returns
/// every observable artifact.
fn run_injection(
    seed: u64,
    msgs: &[u32],
    delay_us: u64,
    crash_dest: bool,
    batched: bool,
) -> (Vec<(u64, u32)>, String, u64, u64) {
    let mut sim: Simulator<u32> = Simulator::new(seed);
    let bus = Bus::new();
    let ring = Rc::new(RefCell::new(RingSink::new(1 << 12)));
    bus.attach(&ring);
    sim.set_bus(bus);
    let src = sim.add_actor("src", Recorder { got: Vec::new() });
    let dst = sim.add_actor("dst", Recorder { got: Vec::new() });
    if crash_dest {
        sim.crash_at(dst, SimTime::ZERO);
    }
    sim.run_for(SimDuration::from_micros(1));
    let delay = SimDuration::from_micros(delay_us);
    if batched {
        sim.inject_batch(src, dst, msgs.to_vec(), delay);
    } else {
        for &m in msgs {
            sim.inject(src, dst, m, delay);
        }
    }
    sim.run();
    let got = sim.actor::<Recorder>(dst).map(|r| r.got.clone()).unwrap_or_default();
    let trace: String = ring.borrow().events().iter().map(|e| format!("{e:?}\n")).collect();
    let stats = sim.stats();
    (got, trace, stats.delivered, stats.dropped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `inject_batch` ≡ the equivalent `inject` loop: same deliveries in
    /// the same order, same event stream, same counters — on both the
    /// delivery path and the crashed-destination drop path.
    #[test]
    fn batched_injection_is_bit_identical_to_per_message_injection(
        seed in 1u64..u64::MAX,
        msgs in prop::collection::vec(0u32..1000, 0..40),
        delay_us in 0u64..50_000,
        crash_dest in any::<bool>(),
    ) {
        let batched = run_injection(seed, &msgs, delay_us, crash_dest, true);
        let looped = run_injection(seed, &msgs, delay_us, crash_dest, false);
        prop_assert_eq!(batched, looped);
    }
}

const GROUPS: usize = 8;
const REGIONS: usize = 4;

/// Locals plus two straddlers (one across the region that crashes), with
/// seeded fabric loss/duplication/delay — the adversarial workload for the
/// batched fabric-injection path.
fn chaos_scenario(seed: u64) -> ShardScenario {
    let mut sessions: Vec<SessionSpec> = (0..6)
        .map(|g| SessionSpec {
            id: g as u64 + 1,
            flips: vec![(g, true)],
            priority: (seed >> (g % 8)) as u8 % 4,
            submit_at: SimDuration::from_micros((seed.rotate_left(g as u32) % 4_000) + 500),
            cancel_at: None,
        })
        .collect();
    sessions.push(SessionSpec {
        id: 100,
        flips: vec![(1, true), (2, true)],
        priority: 1,
        submit_at: SimDuration::from_millis(5),
        cancel_at: None,
    });
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
    let mut scn = ShardScenario::new(fleet, REGIONS);
    scn.fabric_faults = FabricFaultPlan {
        seed: seed ^ 0xFAB,
        drop_per_mille: 200,
        dup_per_mille: 200,
        delay_per_mille: 200,
        max_delay_quanta: 4,
        null_drop_per_mille: 100,
        ..FabricFaultPlan::default()
    };
    scn.crash_region =
        Some((1, SimTime::from_micros(8_000 + (seed % 3) * 900), SimTime::from_micros(700_000)));
    scn
}

/// Every counter of a sharded report: its per-kind counts, then its
/// fields (per shard, then for the run).
fn counters(r: &ShardReport) -> (Counts, Vec<u64>) {
    let per_shard = r.per_shard.iter().flat_map(|s| [s.cache_hits, s.cache_misses, s.restores]);
    let (f, ladder) = (&r.fabric, [r.retransmits, r.abandoned, r.orphaned_releases]);
    let run = [r.suppressed_sends, f.dropped, f.duplicated, f.delayed, r.lease_expirations];
    (r.counts.clone(), per_shard.chain(ladder).chain(run).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Batched fabric injection stays thread-count invariant under chaos:
    /// 1/2/4 workers give byte-identical merged streams, journals, results
    /// and counters even with fabric faults and a region crash in play.
    #[test]
    fn chaotic_sharded_runs_are_thread_count_invariant(seed in 1u64..u64::MAX) {
        let scn = chaos_scenario(seed);
        let base = run_fleet_sharded(&scn, 1);
        for threads in [2usize, 4] {
            let run = run_fleet_sharded(&scn, threads);
            prop_assert_eq!(run.fingerprint, base.fingerprint, "threads={}", threads);
            prop_assert_eq!(&run.final_config, &base.final_config, "threads={}", threads);
            prop_assert_eq!(&run.results, &base.results, "threads={}", threads);
            prop_assert_eq!(&run.journals, &base.journals, "threads={}", threads);
            prop_assert_eq!(&run.global_journal, &base.global_journal, "threads={}", threads);
            prop_assert_eq!(counters(&run), counters(&base), "threads={}", threads);
        }
    }
}
