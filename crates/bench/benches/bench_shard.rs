//! Sharded control plane scaling: the same fleet workload executed by
//! `run_fleet_sharded` at 1/2/4/8 worker threads.
//!
//! The workload is a straddler-free adaptation storm (every session's scope
//! stays inside one region), so the deterministic fabric has no edges and
//! every region free-runs — the configuration where sharding must approach
//! linear scaling. Besides the criterion timing, this bench writes
//! `BENCH_shard.json` at the repository root and asserts the headline
//! claims:
//!
//! * every thread count produces the identical final configuration *and*
//!   the identical event-stream fingerprint (thread count is pure execution
//!   policy);
//! * on a host with ≥ 4 cores, 4 threads deliver ≥ 3× the single-threaded
//!   sessions/sec (the near-linear scaling claim; on smaller hosts the
//!   measured rows are still recorded, with the core count, and the
//!   speedup assertion is skipped — wall-clock scaling cannot be
//!   demonstrated without cores);
//! * a rerun at the same seed reproduces the same fingerprint;
//! * with straddlers in the run (the `straddler_lookahead` leg: the storm,
//!   then two straddlers across every region boundary) the fabric's null
//!   traffic stays bounded by what the straddlers need, not by how long
//!   the regions were busy before them: the one-thread `promise_updates`
//!   count repeats exactly and sits under a pinned ceiling, and the
//!   fingerprint is the same at 1/2/4/8 threads. The 2-thread ÷ 1-thread
//!   wall ratio is recorded next to the host's core count, not asserted.
//!
//! Set `SADA_BENCH_SMOKE=1` to skip the timing loops and run only the
//! assertion sweep + JSON write (the CI regression gate).

use criterion::{criterion_group, criterion_main, Criterion};
use sada_fleet::{
    run_fleet_sharded, FabricFaultPlan, FleetScenario, SessionSpec, ShardReport, ShardScenario,
};
use sada_obs::SimDuration;

const GROUPS: usize = 64;
const REGIONS: usize = 8;
const WAVES: usize = 6;
const SEED: u64 = 42;

/// CI smoke mode: assertion sweep + JSON only, no timing loops.
fn smoke() -> bool {
    std::env::var_os("SADA_BENCH_SMOKE").is_some()
}

/// A local adaptation storm: `waves` sessions per group, alternating
/// direction, each scope confined to its own group (and therefore its own
/// region) — zero cross-shard traffic, the scaling configuration.
fn storm(waves: usize) -> ShardScenario {
    let mut sessions = Vec::with_capacity(GROUPS * waves);
    for wave in 0..waves {
        for g in 0..GROUPS {
            sessions.push(SessionSpec {
                id: (wave * GROUPS + g) as u64 + 1,
                flips: vec![(g, wave % 2 == 0)],
                priority: (g % 4) as u8,
                submit_at: SimDuration::from_micros(20_000 * wave as u64 + 37 * g as u64),
                cancel_at: None,
            });
        }
    }
    let mut fleet = FleetScenario::new(GROUPS, sessions);
    fleet.seed = SEED;
    ShardScenario::new(fleet, REGIONS)
}

/// A storm plus `per_boundary` straddlers across each region boundary,
/// all after the last wave: the workload whose lock handshakes actually
/// cross the fabric. One per boundary feeds the retransmission-overhead
/// leg (faults on vs off), two the lookahead leg (the second flips the
/// same two groups back, so it also queues behind the first).
fn straddler_storm(waves: usize, per_boundary: usize) -> ShardScenario {
    let mut scn = storm(waves);
    let mut sessions = scn.fleet.sessions.clone();
    // Half a wave after the last wave was submitted.
    let after_us = 20_000 * waves + 10_000;
    for k in 0..per_boundary {
        for r in 0..REGIONS - 1 {
            let boundary = (r + 1) * GROUPS / REGIONS;
            sessions.push(SessionSpec {
                id: 10_000 + (100 * k + r) as u64,
                flips: vec![(boundary - 1, k % 2 == 0), (boundary, k % 2 == 0)],
                priority: 0,
                submit_at: SimDuration::from_micros((after_us + 25_000 * k + 500 * r) as u64),
                cancel_at: None,
            });
        }
    }
    scn.fleet = FleetScenario::new(GROUPS, sessions);
    scn.fleet.seed = SEED;
    scn.fleet.time_budget = SimDuration::from_millis(40_000);
    scn
}

fn chaos_plan() -> FabricFaultPlan {
    FabricFaultPlan {
        seed: SEED,
        drop_per_mille: 200,
        dup_per_mille: 200,
        delay_per_mille: 200,
        null_drop_per_mille: 100,
        ..FabricFaultPlan::default()
    }
}

fn sessions_per_sec(report: &ShardReport) -> f64 {
    report.succeeded() as f64 / report.wall.as_secs_f64().max(1e-9)
}

fn bench_shard(c: &mut Criterion) {
    if smoke() {
        return;
    }
    let scn = storm(WAVES);
    let mut g = c.benchmark_group("shard");
    g.sample_size(10);
    for threads in [1usize, 8] {
        g.bench_function(format!("storm_{threads}t"), |b| {
            b.iter(|| run_fleet_sharded(&scn, threads).succeeded())
        });
    }
    // The retransmission-overhead pair: straddler handshakes with the
    // fabric lossless vs chaos-faulted.
    let strad = straddler_storm(WAVES, 1);
    g.bench_function("straddlers_8t", |b| b.iter(|| run_fleet_sharded(&strad, 8).succeeded()));
    let mut faulted = strad.clone();
    faulted.fabric_faults = chaos_plan();
    g.bench_function("straddlers_chaos_8t", |b| {
        b.iter(|| run_fleet_sharded(&faulted, 8).succeeded())
    });
    g.finish();
}

fn write_bench_json() {
    let scn = storm(WAVES);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rows = Vec::new();
    let mut runs: Vec<(usize, ShardReport)> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        runs.push((threads, run_fleet_sharded(&scn, threads)));
    }
    let base = &runs[0].1;
    let offered = GROUPS * WAVES;
    assert_eq!(base.succeeded(), offered, "the storm must commit every session");
    assert_eq!(base.fabric.messages, 0, "a local storm never crosses the fabric");
    for (threads, run) in &runs {
        assert_eq!(
            run.final_config, base.final_config,
            "{threads} threads changed the final configuration"
        );
        assert_eq!(run.fingerprint, base.fingerprint, "{threads} threads changed the event stream");
        let rate = sessions_per_sec(run);
        let speedup = if run.wall.is_zero() {
            1.0
        } else {
            base.wall.as_secs_f64() / run.wall.as_secs_f64().max(1e-9)
        };
        rows.push(format!(
            "    {{\"threads\": {threads}, \"sessions\": {}, \"succeeded\": {}, \
             \"wall_us\": {}, \"sessions_per_sec\": {rate:.1}, \"speedup_vs_1\": {speedup:.2}, \
             \"fingerprint\": \"{:#018x}\"}}",
            offered,
            run.succeeded(),
            run.wall.as_micros(),
            run.fingerprint,
        ));
    }
    // The wall-clock scaling claim needs real cores; determinism above is
    // asserted unconditionally.
    let speedup_4t = base.wall.as_secs_f64()
        / runs.iter().find(|(t, _)| *t == 4).expect("4-thread run").1.wall.as_secs_f64().max(1e-9);
    if cores >= 4 {
        assert!(
            speedup_4t >= 3.0,
            "4 threads must deliver >= 3x single-threaded throughput on a \
             {cores}-core host (got {speedup_4t:.2}x)"
        );
    } else {
        eprintln!(
            "note: {cores} core(s) available; recording measured rows but skipping \
             the >= 3x speedup assertion (got {speedup_4t:.2}x)"
        );
    }
    // Determinism across independent processes of the same seed: rerun the
    // single-thread leg and compare fingerprints.
    let again = run_fleet_sharded(&scn, 1);
    assert_eq!(base.fingerprint, again.fingerprint, "same seed, same stream");

    // Retransmission-overhead leg: the straddler storm with the fabric
    // lossless vs faulted. The ladder must absorb every fault — identical
    // verdicts and final configuration — and this records what that costs
    // in virtual makespan and retransmitted handshakes.
    let strad = straddler_storm(WAVES, 1);
    let clean = run_fleet_sharded(&strad, REGIONS);
    let offered_strad = GROUPS * WAVES + (REGIONS - 1);
    assert_eq!(clean.succeeded(), offered_strad, "straddler storm commits every session");
    assert!(clean.fabric.messages > 0, "straddlers must cross the fabric");
    let mut faulted_scn = strad.clone();
    faulted_scn.fabric_faults = chaos_plan();
    let faulted = run_fleet_sharded(&faulted_scn, REGIONS);
    assert_eq!(faulted.succeeded(), clean.succeeded(), "faults never change verdicts");
    assert_eq!(faulted.final_config, clean.final_config, "faults never change the destination");
    assert!(faulted.retransmits > 0, "the chaos plan must exercise the ladder");
    let makespan_overhead = faulted.makespan_us as f64 / (clean.makespan_us as f64).max(1.0) - 1.0;
    let fabric_leg = format!(
        "  \"fabric_chaos\": {{\"sessions\": {offered_strad}, \"straddlers\": {}, \
         \"clean_makespan_us\": {}, \"faulted_makespan_us\": {}, \
         \"makespan_overhead\": {makespan_overhead:.3}, \"fabric_messages\": {}, \
         \"dropped\": {}, \"duplicated\": {}, \"delayed\": {}, \"retransmits\": {}, \
         \"abandoned\": {}, \"outcomes_match_lossless\": true}},\n",
        REGIONS - 1,
        clean.makespan_us,
        faulted.makespan_us,
        faulted.fabric.messages,
        faulted.fabric.dropped,
        faulted.fabric.duplicated,
        faulted.fabric.delayed,
        faulted.retransmits,
        faulted.abandoned,
    );

    let lookahead_leg = straddler_lookahead_leg(cores);

    let json = format!(
        "{{\n  \"bench\": \"shard\",\n  \"workload\": \"{} local sessions ({WAVES} waves over \
         {GROUPS} groups, {REGIONS} regions), straddler-free so every region free-runs; \
         sessions/sec = committed sessions per wall-clock second\",\n  \
         \"command\": \"{}cargo bench -q -p sada-bench --bench bench_shard\",\n  \
         \"host_cores\": {cores},\n  \"scaling_asserted\": {},\n  \
         \"speedup_4t_vs_1t\": {speedup_4t:.2},\n{fabric_leg}{lookahead_leg}  \"rows\": \
         [\n{}\n  ]\n}}\n",
        GROUPS * WAVES,
        if smoke() { "SADA_BENCH_SMOKE=1 " } else { "" },
        cores >= 4,
        rows.join(",\n"),
    );
    // crates/bench -> repository root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard.json");
    std::fs::write(path, &json).expect("write BENCH_shard.json");
    println!("wrote {path}:\n{json}");
}

/// The lookahead leg's storm: long enough (1.9 virtual seconds of busy
/// regions) that null traffic proportional to it cannot hide under the
/// ceiling below.
const LOOKAHEAD_WAVES: usize = 96;

/// One-thread `promise_updates` ceiling for the lookahead leg. A count, so
/// host-independent: the leg reads 1 048 — the 14 straddlers' handshakes
/// and global-tier runs on 16 edges, the same at 6 waves as at 96 — and
/// read 7 432 while every region still promised no further than its own
/// next event and so walked the whole storm in 1 ms quanta.
///
/// It read 872 before the planner's tie rule. Each boundary's second
/// straddler flips its two groups back, and its steps 1 and 2 then ran in
/// the order that met, on each group's agents, the step id they had last
/// completed for the first straddler: the agents acknowledged both steps
/// without running them (ROADMAP.md, "A session's step ids are its own").
/// The tie rule runs the two steps the other way round, the agents do the
/// work, and each of those seven handshakes takes 24 ms instead of 8 ms;
/// the fabric's 112 messages are the same. Mending the step ids will move
/// this count again.
const LOOKAHEAD_PROMISE_CEILING: u64 = 1_200;

/// The straddler-bearing scaling leg: what the fabric costs when regions
/// that owe the global tier nothing promise it silence.
fn straddler_lookahead_leg(cores: usize) -> String {
    let scn = straddler_storm(LOOKAHEAD_WAVES, 2);
    let offered = GROUPS * LOOKAHEAD_WAVES + 2 * (REGIONS - 1);
    // Three runs per thread count; the fastest is the row (a run is tens
    // of milliseconds, and one descheduled worker doubles it).
    let runs: Vec<(usize, ShardReport)> = [1usize, 2, 4, 8]
        .into_iter()
        .map(|threads| {
            let fastest = (0..3).map(|_| run_fleet_sharded(&scn, threads)).min_by_key(|r| r.wall);
            (threads, fastest.expect("three runs"))
        })
        .collect();
    let base = &runs[0].1;
    assert_eq!(base.succeeded(), offered, "the lookahead leg commits every session");
    assert!(base.fabric.messages > 0, "its straddlers must cross the fabric");
    let again = run_fleet_sharded(&scn, 1);
    assert_eq!(
        base.fabric.promise_updates, again.fabric.promise_updates,
        "on one thread the promise traffic is a function of the scenario"
    );
    assert!(
        base.fabric.promise_updates <= LOOKAHEAD_PROMISE_CEILING,
        "one-thread promise updates {} exceed the ceiling {LOOKAHEAD_PROMISE_CEILING}: the \
         straddlers' handshakes cost more promise updates than they did (a count that also \
         grows with the waves means regions walk the storm in lock-step with the global tier)",
        base.fabric.promise_updates
    );
    let rows: Vec<String> = runs
        .iter()
        .map(|(threads, run)| {
            assert_eq!(run.fingerprint, base.fingerprint, "{threads} threads changed the stream");
            format!(
                "{{\"threads\": {threads}, \"wall_us\": {}, \"promise_updates\": {}, \
                 \"fingerprint\": \"{:#018x}\"}}",
                run.wall.as_micros(),
                run.fabric.promise_updates,
                run.fingerprint
            )
        })
        .collect();
    format!(
        "  \"straddler_lookahead\": {{\"sessions\": {offered}, \"straddlers\": {}, \
         \"fabric_messages\": {}, \"host_cores\": {cores}, \
         \"promise_updates_1t_ceiling\": {LOOKAHEAD_PROMISE_CEILING}, \
         \"speedup_2t_vs_1t\": {:.2}, \"rows\": [\n    {}\n  ]}},\n",
        2 * (REGIONS - 1),
        base.fabric.messages,
        base.wall.as_secs_f64() / runs[1].1.wall.as_secs_f64().max(1e-9),
        rows.join(",\n    "),
    )
}

fn bench_entry(c: &mut Criterion) {
    bench_shard(c);
    write_bench_json();
}

criterion_group!(benches, bench_entry);
criterion_main!(benches);
