//! Generated-domain throughput: seeded serverless and IaaS universes run
//! through the sharded control plane.
//!
//! Where `bench_shard` measures the video monoculture, this bench feeds
//! the fleet worlds it has never seen: per-seed generated universes with
//! mixed invariant families (`one_of` chains, implication clusters, xor
//! rings), heterogeneous action costs, and straddler traffic. Besides the
//! criterion timing it writes `BENCH_scenario.json` at the repository root
//! and asserts the headline claims:
//!
//! * for every domain and seed, 1/2/4 worker threads produce bit-for-bit
//!   identical fingerprints, results, and final configurations;
//! * every generated session concludes (no session leaks past the budget);
//! * the energy objective changes plan selection on the showcase world
//!   (the watt route differs from the millisecond route);
//! * the validity pass stays linear in the clusters: [`validate`] on an
//!   IaaS universe (seed 8) of 4 096 clusters, best of three, takes at most
//!   8x its time at 1 024 (4x is linear; a pass that vets each endpoint
//!   against the whole invariant set reads about 18x).
//!
//! Recorded per `(domain, seed)`: committed sessions/sec (wall clock),
//! plan-cache hit rate summed over shards, and the predicate-evaluation
//! count of a standalone planning sweep (one forward flip per cluster) —
//! the planner-side cost of the generated invariant families.
//!
//! Set `SADA_BENCH_SMOKE=1` to skip the timing loops and run only the
//! assertion sweep + JSON write (the CI regression gate).

use criterion::{criterion_group, criterion_main, Criterion};
use sada_fleet::{run_fleet_sharded, FleetWorld, Objective, ShardReport, ShardScenario};
use sada_plan::lazy;
use sada_scenario::{energy_showcase, generate, validate, GeneratedScenario, ScenarioConfig};
use std::time::Instant;

const SEEDS: [u64; 3] = [1, 2, 3];

/// IaaS universe sizes the validity-scaling leg times, smallest first.
const SCALING_CLUSTERS: [usize; 2] = [1_024, 4_096];

/// Most the validity pass may grow from the smaller universe to the larger:
/// twice the linear ratio.
const MAX_SCALING_RATIO: f64 = 8.0;

/// CI smoke mode: assertion sweep + JSON only, no timing loops.
fn smoke() -> bool {
    std::env::var_os("SADA_BENCH_SMOKE").is_some()
}

fn configs_for(domain: &str, seed: u64) -> ScenarioConfig {
    match domain {
        "serverless" => ScenarioConfig::serverless(seed),
        "iaas" => ScenarioConfig::iaas(seed),
        "iaas_energy" => ScenarioConfig::iaas_energy(seed),
        other => panic!("unknown domain {other}"),
    }
}

fn sharded(scenario: &GeneratedScenario) -> ShardScenario {
    let regions = scenario.spec.clusters.len().clamp(1, 4);
    ShardScenario::new(scenario.fleet(), regions)
}

fn cache_counters(report: &ShardReport) -> (u64, u64) {
    report.per_shard.iter().fold((0, 0), |(h, m), s| (h + s.cache_hits, m + s.cache_misses))
}

/// Predicate evaluations of a standalone planning sweep: one forward flip
/// per cluster from the boot configuration, over the full action table.
fn planning_pred_evals(scenario: &GeneratedScenario) -> u64 {
    let world = FleetWorld::from_spec(scenario.spec.clone());
    let init = world.initial_config();
    let mut evals = 0;
    for g in 0..world.groups {
        let target = world.target_for(&init, &[(g, true)]);
        let (path, stats) = lazy::plan_with_stats(&world.inv, &world.actions, &init, &target);
        assert!(path.is_some(), "generated goal must be reachable");
        evals += stats.pred_evals;
    }
    evals
}

/// Best-of-three wall time of [`validate`] on an IaaS universe (seed 8) of
/// `clusters` clusters.
fn validate_s(clusters: usize) -> f64 {
    let scenario = generate(&ScenarioConfig { clusters, ..ScenarioConfig::iaas(8) });
    (0..3)
        .map(|_| {
            let t = Instant::now();
            validate(&scenario).expect("generated scenarios hold");
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn bench_scenario(c: &mut Criterion) {
    if smoke() {
        return;
    }
    let mut g = c.benchmark_group("scenario");
    g.sample_size(10);
    for domain in ["serverless", "iaas"] {
        let scenario = generate(&configs_for(domain, SEEDS[0]));
        let scn = sharded(&scenario);
        g.bench_function(format!("{domain}_4t"), |b| {
            b.iter(|| run_fleet_sharded(&scn, 4).succeeded())
        });
        g.bench_function(format!("generate_{domain}"), |b| {
            b.iter(|| generate(&configs_for(domain, SEEDS[0])).sessions.len())
        });
    }
    g.finish();
}

fn write_bench_json() {
    let mut rows = Vec::new();
    for domain in ["serverless", "iaas", "iaas_energy"] {
        for seed in SEEDS {
            let scenario = generate(&configs_for(domain, seed));
            let scn = sharded(&scenario);
            let base = run_fleet_sharded(&scn, 1);
            for threads in [2usize, 4] {
                let run = run_fleet_sharded(&scn, threads);
                assert_eq!(
                    run.fingerprint, base.fingerprint,
                    "{domain}/{seed}: {threads} threads changed the event stream"
                );
                assert_eq!(run.results, base.results, "{domain}/{seed}: results diverged");
                assert_eq!(run.final_config, base.final_config, "{domain}/{seed}: config diverged");
            }
            assert!(
                base.results.iter().all(|r| r.completed_at.is_some()),
                "{domain}/{seed}: every session must conclude"
            );
            let offered = scenario.sessions.len();
            let (hits, misses) = cache_counters(&base);
            let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
            let evals = planning_pred_evals(&scenario);
            let rate = base.succeeded() as f64 / base.wall.as_secs_f64().max(1e-9);
            rows.push(format!(
                "    {{\"domain\": \"{domain}\", \"seed\": {seed}, \"clusters\": {}, \
                 \"sessions\": {offered}, \"succeeded\": {}, \"wall_us\": {}, \
                 \"sessions_per_sec\": {rate:.1}, \"cache_hits\": {hits}, \
                 \"cache_misses\": {misses}, \"cache_hit_rate\": {hit_rate:.3}, \
                 \"plan_pred_evals\": {evals}, \"fingerprint\": \"{:#018x}\"}}",
                scenario.spec.clusters.len(),
                base.succeeded(),
                base.wall.as_micros(),
                base.fingerprint,
            ));
        }
    }

    // The objective column must reach plan selection: on the showcase
    // world the watt-cheapest route differs from the ms-cheapest one.
    let fast = FleetWorld::from_spec(energy_showcase(Objective::LatencyMs));
    let cool = FleetWorld::from_spec(energy_showcase(Objective::EnergyWatts));
    let init = fast.initial_config();
    let goal = fast.target_for(&init, &[(0, true)]);
    let (fast_path, _) = lazy::plan_with_stats(&fast.inv, &fast.actions, &init, &goal);
    let (cool_path, _) = lazy::plan_with_stats(&cool.inv, &cool.actions, &init, &goal);
    let (fast_path, cool_path) = (fast_path.expect("ms route"), cool_path.expect("watt route"));
    assert_ne!(
        fast_path.steps.len(),
        cool_path.steps.len(),
        "objectives must select different routes"
    );
    let energy_leg = format!(
        "  \"energy_objective\": {{\"latency_route_steps\": {}, \"latency_route_cost_ms\": {}, \
         \"energy_route_steps\": {}, \"energy_route_cost_watts\": {}, \
         \"routes_differ\": true}},\n",
        fast_path.steps.len(),
        fast_path.cost,
        cool_path.steps.len(),
        cool_path.cost,
    );

    // The validity pass vets each endpoint by its diff, so its cost grows
    // with the clusters, not with clusters x invariants.
    let [small, large] = SCALING_CLUSTERS.map(validate_s);
    let ratio = large / small;
    assert!(
        ratio <= MAX_SCALING_RATIO,
        "validate took {ratio:.1}x as long at {} clusters as at {} ({:.1} ms vs {:.1} ms)",
        SCALING_CLUSTERS[1],
        SCALING_CLUSTERS[0],
        large * 1e3,
        small * 1e3,
    );
    let scaling_leg = format!(
        "  \"validity_scaling\": {{\"domain\": \"iaas\", \"seed\": 8, \"clusters\": {:?}, \
         \"validate_ms_best_of_3\": [{:.1}, {:.1}], \"ratio\": {ratio:.2}, \
         \"max_ratio\": {MAX_SCALING_RATIO}}},\n",
        SCALING_CLUSTERS,
        small * 1e3,
        large * 1e3,
    );

    let json = format!(
        "{{\n  \"bench\": \"scenario\",\n  \"workload\": \"seeded generated universes \
         (mixed one_of-chain / implication / xor-ring clusters, heterogeneous costs, \
         straddler traffic) run sharded; every row asserted thread-invariant at 1/2/4 \
         threads; sessions/sec = committed sessions per wall-clock second\",\n\
         {energy_leg}{scaling_leg}  \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
    );
    // crates/bench -> repository root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scenario.json");
    std::fs::write(path, &json).expect("write BENCH_scenario.json");
    println!("wrote {path}:\n{json}");
}

fn bench_entry(c: &mut Criterion) {
    bench_scenario(c);
    write_bench_json();
}

criterion_group!(benches, bench_entry);
criterion_main!(benches);
