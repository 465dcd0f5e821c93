//! `scenario_mix`: generated serverless and IaaS universes through the
//! sharded control plane.
//!
//! Mixed `one_of`-chain / implication / xor-ring clusters with low
//! plan-cache hit rates put the scoped planner, the cache normaliser and
//! lock queueing on the critical path, while world build and the timer
//! wheel do little. One iteration runs both universes, one after the
//! other; an operation is a concluded session.

use std::time::Instant;

use sada_fleet::{run_fleet_sharded, SessionSpec, ShardReport, ShardScenario};
use sada_obs::SimDuration;
use sada_scenario::{
    encode_scenario, generate, parse_scenario, validate, GeneratedScenario, ScenarioConfig,
    TrafficProfile,
};

use super::{check_concluded, check_same_run, shard_facts, shard_ratios, shard_view};
use crate::harness::{ensure, Facts, Named, Twins, Workload};
use crate::layers::{fleet_metrics, replay_fleet, Counts};
use crate::metrics::THREADS;
use crate::span::{self_time_of, Tracer};
use crate::stats::Fnv;

const REGIONS: usize = 4;
/// Generous enough that every session concludes: at the library's default
/// 30 s the serverless universe leaves hundreds of sessions unconcluded.
const TIME_BUDGET_S: u64 = 120;

pub fn serverless_config(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        clusters: 256,
        sessions: 2_048,
        // Shortened from the default 50 ms so 2 048 arrivals fit the budget.
        traffic: TrafficProfile::Poisson { mean_gap_us: 5_000 },
        ..ScenarioConfig::serverless(seed)
    }
}

pub fn iaas_config(seed: u64) -> ScenarioConfig {
    ScenarioConfig { clusters: 1_024, sessions: 4_096, ..ScenarioConfig::iaas(seed) }
}

/// Straddlers appended across every region boundary.
const STRADDLERS_PER_BOUNDARY: usize = 2;

/// Appends straddlers that cross every region boundary, after the
/// generated traffic and in the direction the generator's own alternation
/// would take next.
///
/// The generator scatters its two-cluster sessions at random, so whether
/// any of them crosses a region boundary — whether the run has a fabric at
/// all, with its promise traffic from the first quantum to the last — is
/// the luck of the seed: 1 seed in 10 ran a third faster than the rest.
/// With these every seed runs the same kind of plane.
fn add_boundary_straddlers(scenario: &mut GeneratedScenario) {
    let clusters = scenario.spec.clusters.len();
    let mut next_dir = vec![true; clusters];
    for session in &scenario.sessions {
        for &(g, dir) in &session.flips {
            next_dir[g] = !dir;
        }
    }
    let mut id = scenario.sessions.iter().map(|s| s.id).max().unwrap_or(0);
    let mut at_us = scenario.sessions.iter().map(|s| s.submit_at.as_micros()).max().unwrap_or(0);
    for region in 1..REGIONS {
        // First cluster of `region` under the contiguous-block partition.
        let boundary = (region * clusters).div_ceil(REGIONS);
        for _ in 0..STRADDLERS_PER_BOUNDARY {
            id += 1;
            at_us += 2_000;
            let flips =
                vec![(boundary - 1, next_dir[boundary - 1]), (boundary, next_dir[boundary])];
            for &(g, dir) in &flips {
                next_dir[g] = !dir;
            }
            scenario.sessions.push(SessionSpec {
                id,
                flips,
                priority: 0,
                submit_at: SimDuration::from_micros(at_us),
                cancel_at: None,
            });
        }
    }
}

pub struct Input {
    configs: [ScenarioConfig; 2],
    generated: [GeneratedScenario; 2],
    shards: [ShardScenario; 2],
}

const IN_SUM: &[&str] = &[
    "fleet.world.build",
    "fleet.lock",
    "fleet.planner.plan",
    "simnet.wheel",
    "simnet.sim.deliver",
    "obs.bus.emit",
    "proto.journal.encode",
    "fleet.shard.fingerprint",
];

pub struct ScenarioMix;

impl Workload for ScenarioMix {
    const NAME: &'static str = "scenario_mix";
    type Input = Input;
    type Output = [ShardReport; 2];

    fn generate(seed: u64) -> Input {
        let configs = [serverless_config(seed), iaas_config(seed.wrapping_add(1))];
        // `generate` runs the validity pass and panics on a generator bug.
        let generated = configs.map(|cfg| {
            let mut scenario = generate(&cfg);
            add_boundary_straddlers(&mut scenario);
            scenario
        });
        let shards = [0, 1].map(|i| {
            let mut fleet = generated[i].fleet();
            fleet.time_budget = SimDuration::from_secs(TIME_BUDGET_S);
            ShardScenario::new(fleet, REGIONS)
        });
        Input { configs, generated, shards }
    }

    fn digest(input: &Input) -> u64 {
        let mut h = Fnv::new();
        for scenario in &input.generated {
            h.feed(encode_scenario(scenario).as_bytes());
        }
        h.feed(format!("regions={REGIONS} budget_s={TIME_BUDGET_S}\n").as_bytes());
        h.0
    }

    fn run(input: &Input) -> [ShardReport; 2] {
        [0, 1].map(|i| run_fleet_sharded(&input.shards[i], THREADS))
    }

    fn facts(_: &Input, out: &[ShardReport; 2]) -> Facts {
        shard_facts(&[&out[0], &out[1]])
    }

    fn check(input: &Input, out: &[ShardReport; 2]) -> Result<(), String> {
        for (scenario, report) in input.generated.iter().zip(out) {
            let what = format!("{} universe", scenario.spec.domain.name());
            check_concluded(report, &what)?;
            ensure(report.fabric.messages > 0, || {
                format!("{what}: no straddler crossed a region")
            })?;
            ensure(report.results.len() == scenario.sessions.len(), || {
                format!(
                    "{what}: {} results for {} sessions",
                    report.results.len(),
                    scenario.sessions.len()
                )
            })?;
        }
        Ok(())
    }

    fn twins(input: &Input, out: &[ShardReport; 2]) -> Result<Twins, String> {
        let t = Instant::now();
        let one = [0, 1].map(|i| run_fleet_sharded(&input.shards[i], 1));
        let one_thread_wall_s = t.elapsed().as_secs_f64();
        for i in 0..2 {
            check_same_run(&out[i], &one[i], "1 vs 2 threads")?;
        }
        Ok(Twins { one_thread_wall_s: Some(one_thread_wall_s), ..Twins::default() })
    }

    fn replay(
        input: &Input,
        out: &[ShardReport; 2],
        twins: &Twins,
        wall_s: f64,
        t: &mut Tracer,
    ) -> (Named, &'static [&'static str]) {
        // scenario: the generator, its validity pass, and the text codec.
        for (cfg, scenario) in input.configs.iter().zip(&input.generated) {
            let (again, _) = t.span("scenario.generate", |_| generate(cfg));
            assert_eq!(again.spec, scenario.spec, "the generator is a function of its config");
            t.span("scenario.validate", |_| validate(scenario).expect("generated scenarios hold"));
            t.span("scenario.codec_roundtrip", |_| {
                let back = parse_scenario(&encode_scenario(scenario)).expect("own text parses");
                assert_eq!(&back, scenario, "scenario codec round-trips");
            });
        }
        let mut counts = Counts::default();
        for (shard, report) in input.shards.iter().zip(out) {
            replay_fleet(t, &shard_view(shard, report), &mut counts);
        }
        let spans = t.spans();
        let mut named = fleet_metrics(spans, &counts);
        named.extend([
            // `generate` runs the validity pass before it returns, so this
            // includes one `scenario.validate_s`.
            ("scenario.generate_s", self_time_of(spans, "scenario.generate")),
            ("scenario.validate_s", self_time_of(spans, "scenario.validate")),
            ("scenario.codec_roundtrip_s", self_time_of(spans, "scenario.codec_roundtrip")),
        ]);
        named.extend(shard_ratios(&[&out[0], &out[1]], twins, wall_s));
        (named, IN_SUM)
    }
}
