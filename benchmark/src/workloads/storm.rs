//! `storm_flat` and `storm_sharded`: one strided adaptation storm through
//! the two fleet drivers.
//!
//! Sessions are spread evenly over the whole group range (distinct groups,
//! so no lock conflicts and every session commits), each scope inside one
//! region. The flat storm is sized so that world build, the agent arena,
//! the timer wheel and the bus do nearly all the work; the sharded storm
//! sends the same traffic through eight region endpoints on two threads.

use std::time::Instant;

use sada_fleet::{
    run_fleet, run_fleet_sharded, FleetReport, FleetScenario, SessionSpec, ShardReport,
    ShardScenario,
};
use sada_obs::SimDuration;

use super::{
    check_all_commit, check_ring, check_same_run, digest_fleet, digest_shard, flat_facts,
    shard_facts, shard_ratios, shard_view, splitmix,
};
use crate::harness::{ensure, Facts, Named, Twins, Workload};
use crate::layers::{fleet_metrics, replay_fleet, Counts, FleetView, DRIVER_RING};
use crate::metrics::THREADS;
use crate::span::Tracer;
use crate::stats::Fnv;

const FLAT_GROUPS: usize = 100_000;
const FLAT_SESSIONS: usize = 8_192;
const SHARDED_GROUPS: usize = 10_000;
const SHARDED_SESSIONS: usize = 2_048;
const REGIONS: usize = 8;
const SPACING_US: u64 = 37;

/// The strided storm. The seed picks the simulator seed, where inside its
/// stride each session lands, and which half of the sessions flip forward.
fn strided_fleet(groups: usize, sessions: usize, seed: u64) -> FleetScenario {
    let mut rng = seed;
    let stride = groups / sessions;
    let offset = splitmix(&mut rng) as usize % stride.max(1);
    let phase = splitmix(&mut rng) as usize % 2;
    let specs: Vec<SessionSpec> = (0..sessions)
        .map(|i| SessionSpec {
            id: i as u64 + 1,
            flips: vec![(i * groups / sessions + offset, (i + phase).is_multiple_of(2))],
            priority: (i % 4) as u8,
            submit_at: SimDuration::from_micros(SPACING_US * i as u64),
            cancel_at: None,
        })
        .collect();
    let mut fleet = FleetScenario::new(groups, specs);
    fleet.seed = seed;
    fleet.time_budget = SimDuration::from_secs(10);
    // The journal text is O(sessions x components): hundreds of MB at this
    // size. The durable journal itself is unaffected.
    fleet.render_journal = false;
    fleet
}

const FLAT_IN_SUM: &[&str] = &[
    "fleet.world.build",
    "fleet.lock",
    "fleet.planner.plan",
    "simnet.wheel",
    "simnet.sim.deliver",
    "obs.bus.emit",
];

const SHARDED_IN_SUM: &[&str] = &[
    "fleet.world.build",
    "fleet.lock",
    "fleet.planner.plan",
    "simnet.wheel",
    "simnet.sim.deliver",
    "obs.bus.emit",
    "fleet.shard.fingerprint",
];

pub struct StormFlat;

impl Workload for StormFlat {
    const NAME: &'static str = "storm_flat";
    type Input = FleetScenario;
    type Output = FleetReport;

    fn generate(seed: u64) -> FleetScenario {
        strided_fleet(FLAT_GROUPS, FLAT_SESSIONS, seed)
    }

    fn digest(input: &FleetScenario) -> u64 {
        let mut h = Fnv::new();
        digest_fleet(&mut h, input);
        h.0
    }

    fn run(input: &FleetScenario) -> FleetReport {
        run_fleet(input)
    }

    fn facts(_: &FleetScenario, out: &FleetReport) -> Facts {
        flat_facts(out)
    }

    fn check(_: &FleetScenario, out: &FleetReport) -> Result<(), String> {
        check_all_commit(&out.results, Self::NAME)?;
        ensure(out.events.len() < DRIVER_RING, || "the event ring wrapped".to_string())
    }

    fn twins(_: &FleetScenario, _: &FleetReport) -> Result<Twins, String> {
        Ok(Twins::default())
    }

    fn replay(
        input: &FleetScenario,
        out: &FleetReport,
        _: &Twins,
        _: f64,
        t: &mut Tracer,
    ) -> (Named, &'static [&'static str]) {
        let mut counts = Counts::default();
        let view = FleetView {
            scenario: input,
            results: &out.results,
            events: &out.events,
            journals: Vec::new(),
            builds: 1,
            sim_events: out.stats.events_processed,
            delivered: out.stats.delivered,
            makespan_us: out.makespan_us,
            sharded: false,
        };
        replay_fleet(t, &view, &mut counts);
        (fleet_metrics(t.spans(), &counts), FLAT_IN_SUM)
    }
}

pub struct StormSharded;

impl Workload for StormSharded {
    const NAME: &'static str = "storm_sharded";
    type Input = ShardScenario;
    type Output = ShardReport;

    fn generate(seed: u64) -> ShardScenario {
        ShardScenario::new(strided_fleet(SHARDED_GROUPS, SHARDED_SESSIONS, seed), REGIONS)
    }

    fn digest(input: &ShardScenario) -> u64 {
        let mut h = Fnv::new();
        digest_shard(&mut h, input);
        h.0
    }

    fn run(input: &ShardScenario) -> ShardReport {
        run_fleet_sharded(input, THREADS)
    }

    fn facts(_: &ShardScenario, out: &ShardReport) -> Facts {
        shard_facts(&[out])
    }

    fn check(_: &ShardScenario, out: &ShardReport) -> Result<(), String> {
        check_all_commit(&out.results, Self::NAME)?;
        let loaded = out.per_shard.iter().filter(|s| !s.is_global && s.sessions > 0).count();
        ensure(loaded == REGIONS, || format!("the stride loaded {loaded} of {REGIONS} regions"))?;
        ensure(out.fabric.messages == 0, || "a local storm crossed the fabric".to_string())?;
        check_ring(out)
    }

    fn twins(input: &ShardScenario, out: &ShardReport) -> Result<Twins, String> {
        let t = Instant::now();
        let flat = run_fleet(&input.fleet);
        let flat_wall_s = t.elapsed().as_secs_f64();
        check_all_commit(&flat.results, "flat twin")?;
        ensure(flat.final_config == out.final_config, || {
            "flat and sharded twins disagree on the final configuration".to_string()
        })?;
        let t = Instant::now();
        let one = run_fleet_sharded(input, 1);
        let one_thread_wall_s = t.elapsed().as_secs_f64();
        check_same_run(out, &one, "1 vs 2 threads")?;
        Ok(Twins {
            flat_wall_s: Some(flat_wall_s),
            one_thread_wall_s: Some(one_thread_wall_s),
            clean_makespan_us: None,
        })
    }

    fn replay(
        input: &ShardScenario,
        out: &ShardReport,
        twins: &Twins,
        wall_s: f64,
        t: &mut Tracer,
    ) -> (Named, &'static [&'static str]) {
        let mut counts = Counts::default();
        replay_fleet(t, &shard_view(input, out), &mut counts);
        let mut named = fleet_metrics(t.spans(), &counts);
        named.extend(shard_ratios(&[out], twins, wall_s));
        (named, SHARDED_IN_SUM)
    }
}
