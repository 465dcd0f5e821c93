//! Scale sweep for the hot path: the same strided adaptation workload at
//! 1k/10k/100k groups, flat and sharded.
//!
//! Each row runs `sessions = min(2 x groups, 2048)` single-group sessions
//! strided across the whole group range, so under `run_fleet_sharded` every
//! region owns an equal slice of the offered load. Per row this bench
//! records:
//!
//! * flat `run_fleet` throughput — committed sessions/sec and delivered
//!   events/sec against wall clock;
//! * peak live heap for the row (a counting global allocator, high-water
//!   mark reset at row start) divided by the agent count — the
//!   bytes-per-agent figure the smoke gate pins;
//! * the sharded wall clock and peak live heap at 1 worker thread (one
//!   worker builds and holds all eight endpoints, so the high-water mark is
//!   deterministic), the agents its eight planes host between them
//!   (`shard_agents`: each region hosts its own, so the sum is the fleet),
//!   plus the event-stream fingerprint at 1/2/4/8 threads, asserted
//!   byte-identical (thread count is pure execution policy, never
//!   schedule-visible);
//! * the same flat run with *no* sessions, whose peak is the world, the
//!   agent arena and the plane alone — the difference to the loaded run,
//!   per session, is what one session costs in memory, in bytes: a number
//!   that must not grow with the world;
//! * one `FleetScenario::build_world()` and its drop on their own: wall
//!   clock of each, and the build's allocations and retained bytes per
//!   group (the video world is one cluster class, placed per group) —
//!   what the analysis phase costs before the first session, as counts
//!   that repeat exactly;
//! * the flat run's rendered journal text per session;
//! * where the flat run's and the one-thread sharded run's wall clock went,
//!   phase by phase (`FleetReport::phases`, `ShardReport::phases`).
//!
//! Set `SADA_BENCH_SMOKE=1` to run only the 10k-group row and assert the
//! bytes-per-agent ceiling, the bytes-per-session ceiling, the journal
//! bytes-per-session ceiling, the sharded-over-flat peak-heap ceiling,
//! that the regions host every agent exactly once, and the two world-build
//! ceilings (the build's allocations as they grow from 1k to 10k groups,
//! and its retained bytes per group at 10k) — the CI
//! memory-regression gates. The sharded-over-flat *wall* ratio is recorded
//! beside them and never asserted: the host's two vCPUs at times share a
//! core.
//! The full sweep (including the 100k row) holds every row to the same
//! bytes-per-session ceiling and writes `BENCH_scale.json` at the
//! repository root.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{criterion_group, criterion_main, Criterion};
use sada_fleet::{
    run_fleet, run_fleet_sharded, FleetReport, FleetScenario, Phases, SessionSpec, ShardScenario,
};
use sada_obs::SimDuration;

const REGIONS: usize = 8;
const SEED: u64 = 42;
const SESSION_CAP: usize = 2048;
const SPACING_US: u64 = 37;
/// Smoke-gate ceiling on flat peak-heap bytes per agent at the 10k row:
/// measured 333 B/agent (the count is deterministic) plus 10 %, so a ring
/// that grows by doubling and a handover that clones its events beside it
/// (549 B/agent), a world that compiles a table row per group again (769),
/// one that keeps its `WorldSpec` (1 020), a plane cloning every hosted
/// agent at build again (116 B/agent more), a heap object per component
/// name, an accidental per-agent heap object or a dense-`Config` round trip
/// sneaking back into the hot path fails loudly.
const SMOKE_BYTES_PER_AGENT_CEILING: u64 = 366;
/// Ceiling on what one session adds to the flat peak heap, in bytes, at
/// every row: the largest row, 1k, plus 10 %. A plane clones an agent when
/// a session first touches it, so a session's bytes include the two agents
/// it engages: 3 859 at the 1k row, 2 823 at 10k and 3 070 at 100k (5 709,
/// 4 791 and 5 104 while the capture ring grew by doubling and the handover
/// cloned its events). A committing session retains a spine and a chunk twice
/// over — its target and the fleet snapshot its fold leaves behind, under
/// 2 KB at any width — and a no-op session (every other one here) none; the
/// rest is the session's events, journal records and timestamps. With one
/// buffer per configuration the 10k row measured 6 596 and the 100k row
/// 27 126: each of the two copies was the world.
const SMOKE_BYTES_PER_SESSION_CEILING: u64 = 4_245;
/// Smoke-gate ceiling on the flat run's journal text per session at the
/// 10k row (recorded at every row): a configuration field is written as
/// its delta against the field before it, so a record costs the handful of
/// components its session changes, not the world's width — a bit string
/// per field again is 2 × 20 000 bytes a session there.
const SMOKE_JOURNAL_BYTES_PER_SESSION_CEILING: u64 = 1_024;
/// Smoke-gate ceiling on sharded (1 worker thread) over flat peak heap at
/// the 10k row — ROADMAP item 3's gate. A sharded run holds one shared
/// world plus, per region, the arena, simulator slots and control tables of
/// the agents that region hosts: measured 1.37× (9.14 MB over 6.68 MB;
/// both counts repeat to within a few KB). It read 1.04× (11.4 MB over
/// 11.0 MB) while every plane cloned its ring's events out beside its live
/// simulator; dropping the simulator before moving the events out cut the
/// flat peak more than the sharded one. With every endpoint registering
/// every agent of the world the same row measured 3.31× (124.0 MB over
/// 37.5 MB) — the regression this gate exists to catch.
const SMOKE_SHARD_OVER_FLAT_HEAP_CEILING: f64 = 1.5;
/// Smoke-gate ceilings on what compiling the world costs per group: how
/// the allocator calls of one `build_world()` grow with the group count
/// (the calls at 10k groups minus those at 1k, over the 9 000 groups
/// between), and the bytes still live when the 10k build returns. The
/// video cluster is one class compiled once and placed as one run, so a
/// group is two bits of the boot configuration and the rest is the class:
/// the calls measured 51 and 56 (a growth of 0.00056) and the bytes 0.468
/// (exact) plus 10 %. An allocation per group
/// reads a growth of 1.0, while a constant one adds nothing to it, so a
/// build that gains a constant allocation passes. A 20-byte placement row
/// per group measured 20.5 B, compiling every group's cluster into
/// world-wide tables 5.0 allocations and 460 B, keeping the spec 17.0 and
/// 908, and a heap object per predicate, per index row and per process
/// name 76.7 and 2 124 with the spec — any of them coming back fails.
const SMOKE_WORLD_ALLOC_GROWTH_PER_GROUP_CEILING: f64 = 0.001;
const SMOKE_WORLD_RETAINED_BYTES_PER_GROUP_CEILING: f64 = 0.52;

// ---------------------------------------------------------------------------
// Counting allocator: peak live heap per row
// ---------------------------------------------------------------------------

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
/// Allocator calls so far (a `realloc` counts as the `alloc` it defaults to).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed) + layout.size() as u64;
        PEAK.fetch_max(live, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Drops the high-water mark back to the current live size, so the next
/// row's peak measures that row alone.
fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

fn peak_heap() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

/// CI smoke mode: the 10k row + ceiling assert only.
fn smoke() -> bool {
    std::env::var_os("SADA_BENCH_SMOKE").is_some()
}

/// A strided adaptation storm: sessions spread evenly over the whole group
/// range (distinct groups, so no lock conflicts and every session commits),
/// each scope inside one region — the free-running scaling configuration.
fn strided_fleet(groups: usize) -> FleetScenario {
    let sessions = SESSION_CAP.min(2 * groups);
    let specs: Vec<SessionSpec> = (0..sessions)
        .map(|i| SessionSpec {
            id: i as u64 + 1,
            // Stride across the full range: region r owns a contiguous
            // slice of groups, so this lands sessions/REGIONS sessions in
            // every region instead of packing them all into region 0.
            flips: vec![(i * groups / sessions, i % 2 == 0)],
            priority: (i % 4) as u8,
            submit_at: SimDuration::from_micros(SPACING_US * i as u64),
            cancel_at: None,
        })
        .collect();
    let mut fleet = FleetScenario::new(groups, specs);
    fleet.seed = SEED;
    fleet.time_budget = SimDuration::from_secs(10);
    fleet
}

struct Row {
    groups: usize,
    agents: usize,
    sessions: usize,
    flat_wall_us: u128,
    sessions_per_sec: f64,
    events_per_sec: f64,
    peak_heap_bytes: u64,
    bytes_per_agent: u64,
    idle_peak_heap_bytes: u64,
    shard_wall_us_1t: u128,
    shard_sessions_per_sec_1t: f64,
    shard_peak_heap_bytes_1t: u64,
    /// Agents the sharded run's planes host, summed over its endpoints.
    shard_agents: usize,
    fingerprint: u64,
    world: WorldCost,
    /// The flat run's journal text per session.
    journal_bytes_per_session: u64,
    /// Where the flat run's wall clock went.
    flat_phases: Phases,
    /// Where the sharded run's wall clock went, at one worker thread.
    shard_phases_1t: Phases,
}

/// What one `build_world()` and its drop cost on their own.
struct WorldCost {
    build_us: u128,
    drop_us: u128,
    /// Allocator calls during the build.
    allocs: u64,
    /// Bytes live after the build that were not before it.
    retained_bytes: u64,
}

fn measure_world(fleet: &FleetScenario) -> WorldCost {
    let (allocs0, live0) = (ALLOCS.load(Ordering::Relaxed), LIVE.load(Ordering::Relaxed));
    let t = std::time::Instant::now();
    let world = fleet.build_world();
    let build_us = t.elapsed().as_micros();
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs0;
    let retained_bytes = LIVE.load(Ordering::Relaxed) - live0;
    let t = std::time::Instant::now();
    drop(world);
    WorldCost { build_us, drop_us: t.elapsed().as_micros(), allocs, retained_bytes }
}

impl Row {
    fn world_allocs_per_group(&self) -> f64 {
        self.world.allocs as f64 / self.groups as f64
    }

    fn world_retained_bytes_per_group(&self) -> f64 {
        self.world.retained_bytes as f64 / self.groups as f64
    }

    fn shard_over_flat_heap(&self) -> f64 {
        self.shard_peak_heap_bytes_1t as f64 / self.peak_heap_bytes as f64
    }

    fn shard_over_flat_wall(&self) -> f64 {
        self.shard_wall_us_1t as f64 / self.flat_wall_us as f64
    }

    /// Flat peak heap one session adds over the session-free run.
    fn bytes_per_session(&self) -> u64 {
        self.peak_heap_bytes.saturating_sub(self.idle_peak_heap_bytes) / self.sessions as u64
    }

    /// The per-session gate, at whatever width the row runs.
    fn assert_bytes_per_session(&self) {
        assert!(
            self.bytes_per_session() <= SMOKE_BYTES_PER_SESSION_CEILING,
            "per-session heap regressed: {} bytes/session at {} groups (ceiling {}) — is \
             something on the session path copying or keeping whole configurations again?",
            self.bytes_per_session(),
            self.groups,
            SMOKE_BYTES_PER_SESSION_CEILING,
        );
    }
}

/// One flat run: wall clock, peak heap, report.
fn run_flat(fleet: &FleetScenario) -> (std::time::Duration, u64, FleetReport) {
    reset_peak();
    let t = std::time::Instant::now();
    let report = run_fleet(fleet);
    (t.elapsed(), peak_heap(), report)
}

/// One sweep row: flat throughput + peak heap loaded and idle, then the
/// sharded thread-identity sweep.
fn run_row(groups: usize, threads: &[usize]) -> Row {
    let fleet = strided_fleet(groups);
    let sessions = fleet.sessions.len();
    let agents = 2 * groups;
    let world = measure_world(&fleet);

    // Idle first and its report dropped at once: peaks are absolute, so
    // both flat runs must start from the same live heap (the scenario).
    let (_, idle_peak, _) = run_flat(&FleetScenario { sessions: Vec::new(), ..fleet.clone() });
    let (flat_wall, peak, flat) = run_flat(&fleet);
    let ok = flat.results.iter().filter(|s| s.success).count();
    assert_eq!(ok, sessions, "{groups} groups: the strided storm must commit every session");

    let scn = ShardScenario::new(fleet, REGIONS);
    let mut runs = Vec::new();
    for &n in threads {
        reset_peak();
        let t = std::time::Instant::now();
        let r = run_fleet_sharded(&scn, n);
        runs.push((n, t.elapsed(), peak_heap(), r));
    }
    let (_, base_wall, base_peak, base) = &runs[0];
    assert_eq!(
        base.succeeded(),
        sessions,
        "{groups} groups: sharded run must commit every session"
    );
    let active = base.per_shard.iter().filter(|s| !s.is_global && s.sessions > 0).count();
    assert_eq!(active, REGIONS, "{groups} groups: the stride must load every region");
    for (n, _, _, r) in &runs {
        assert_eq!(
            r.fingerprint, base.fingerprint,
            "{groups} groups: {n} threads changed the event stream"
        );
        assert_eq!(
            r.final_config, base.final_config,
            "{groups} groups: {n} threads changed the final configuration"
        );
    }

    Row {
        groups,
        agents,
        sessions,
        flat_wall_us: flat_wall.as_micros(),
        sessions_per_sec: ok as f64 / flat_wall.as_secs_f64().max(1e-9),
        events_per_sec: flat.events.len() as f64 / flat_wall.as_secs_f64().max(1e-9),
        peak_heap_bytes: peak,
        bytes_per_agent: peak / agents as u64,
        idle_peak_heap_bytes: idle_peak,
        shard_wall_us_1t: base_wall.as_micros(),
        shard_sessions_per_sec_1t: base.succeeded() as f64 / base_wall.as_secs_f64().max(1e-9),
        shard_peak_heap_bytes_1t: *base_peak,
        shard_agents: base.per_shard.iter().map(|s| s.agents).sum(),
        fingerprint: base.fingerprint,
        world,
        journal_bytes_per_session: (flat.journal_text.len() / sessions) as u64,
        flat_phases: flat.phases,
        shard_phases_1t: base.phases,
    }
}

/// A run's phases in μs, as a JSON object, and their sum.
fn phases_json(p: &Phases) -> String {
    let fields = [
        ("world", p.world),
        ("partition", p.partition),
        ("build", p.build),
        ("step", p.step),
        ("parked", p.parked),
        ("distill", p.distill),
        ("merge", p.merge),
        ("fingerprint", p.fingerprint),
        ("config", p.config),
        ("drop", p.drop),
        ("sum", p.total()),
    ];
    let body: Vec<String> =
        fields.iter().map(|(name, d)| format!("\"{name}\": {}", d.as_micros())).collect();
    format!("{{{}}}", body.join(", "))
}

fn write_bench_json(rows: &[Row]) {
    // Only the full sweep writes this file, so `command` is the whole mode.
    let host = sada_bench::host_record();
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"groups\": {}, \"agents\": {}, \"sessions\": {}, \
                 \"flat_wall_us\": {}, \"sessions_per_sec\": {:.1}, \
                 \"events_per_sec\": {:.1}, \"peak_heap_bytes\": {}, \
                 \"bytes_per_agent\": {}, \"idle_peak_heap_bytes\": {}, \
                 \"bytes_per_session\": {}, \
                 \"shard_wall_us_1t\": {}, \
                 \"shard_sessions_per_sec_1t\": {:.1}, \"shard_peak_heap_bytes_1t\": {}, \
                 \"shard_over_flat_heap\": {:.2}, \"shard_over_flat_wall\": {:.2}, \
                 \"shard_agents\": {}, \
                 \"world_build_us\": {}, \"world_drop_us\": {}, \
                 \"world_allocs_per_group\": {:.4}, \
                 \"world_retained_bytes_per_group\": {:.3}, \
                 \"journal_bytes_per_session\": {}, \
                 \"flat_phases_us\": {}, \"shard_phases_us_1t\": {}, \
                 \"fingerprint\": \"{:#018x}\"}}",
                r.groups,
                r.agents,
                r.sessions,
                r.flat_wall_us,
                r.sessions_per_sec,
                r.events_per_sec,
                r.peak_heap_bytes,
                r.bytes_per_agent,
                r.idle_peak_heap_bytes,
                r.bytes_per_session(),
                r.shard_wall_us_1t,
                r.shard_sessions_per_sec_1t,
                r.shard_peak_heap_bytes_1t,
                r.shard_over_flat_heap(),
                r.shard_over_flat_wall(),
                r.shard_agents,
                r.world.build_us,
                r.world.drop_us,
                r.world_allocs_per_group(),
                r.world_retained_bytes_per_group(),
                r.journal_bytes_per_session,
                phases_json(&r.flat_phases),
                phases_json(&r.shard_phases_1t),
                r.fingerprint,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"scale\",\n  \"workload\": \"min(2 x groups, {SESSION_CAP}) \
         single-group sessions strided across the group range ({REGIONS} regions under \
         sharding; 2 agents per group); flat run_fleet for throughput and peak heap, \
         once more without sessions for the idle peak (bytes_per_session is the \
         difference per session, held under one ceiling at every row), run_fleet_sharded at 1/2/4/8 threads with fingerprints asserted \
         identical; before them one build_world() and its drop alone (world_* columns: \
         allocator calls and retained bytes of the build per group; the video world is one cluster class placed once per group); \
         shard_agents is the agents the sharded run's planes host between them, \
         shard_over_flat_wall is recorded and never asserted; journal_bytes_per_session is \
         the flat run's journal text per session; flat_phases_us and shard_phases_us_1t \
         are where each run's wall clock went (sum: the phases laid end to end, parked \
         lying inside step), to set beside flat_wall_us and shard_wall_us_1t\",\n  \
         \"command\": \"cargo bench -q -p sada-bench --bench bench_scale\",\n  \
         {host},\n  \"thread_sweep\": [1, 2, 4, 8],\n  \
         \"smoke_bytes_per_agent_ceiling\": {SMOKE_BYTES_PER_AGENT_CEILING},\n  \
         \"smoke_bytes_per_session_ceiling\": {SMOKE_BYTES_PER_SESSION_CEILING},\n  \
         \"smoke_journal_bytes_per_session_ceiling\": \
         {SMOKE_JOURNAL_BYTES_PER_SESSION_CEILING},\n  \
         \"smoke_shard_over_flat_heap_ceiling\": {SMOKE_SHARD_OVER_FLAT_HEAP_CEILING},\n  \
         \"smoke_world_alloc_growth_per_group_ceiling\": \
         {SMOKE_WORLD_ALLOC_GROWTH_PER_GROUP_CEILING},\n  \
         \"smoke_world_retained_bytes_per_group_ceiling\": \
         {SMOKE_WORLD_RETAINED_BYTES_PER_GROUP_CEILING},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        body.join(",\n"),
    );
    // crates/bench -> repository root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    std::fs::write(path, &json).expect("write BENCH_scale.json");
    println!("wrote {path}:\n{json}");
}

fn bench_scale(c: &mut Criterion) {
    if smoke() {
        return;
    }
    // Criterion timing on the smallest row only; the 10k/100k rows are
    // single-shot measurements in the JSON sweep below.
    let fleet = strided_fleet(1_000);
    let scn = ShardScenario::new(fleet.clone(), REGIONS);
    let mut g = c.benchmark_group("scale");
    g.sample_size(10);
    g.bench_function("flat_1k", |b| {
        b.iter(|| run_fleet(&fleet).results.iter().filter(|s| s.success).count())
    });
    g.bench_function("shard_1k_1t", |b| b.iter(|| run_fleet_sharded(&scn, 1).succeeded()));
    g.finish();
}

fn sweep() {
    let threads = [1usize, 2, 4, 8];
    if smoke() {
        let row = run_row(10_000, &threads);
        assert!(
            row.bytes_per_agent <= SMOKE_BYTES_PER_AGENT_CEILING,
            "flat peak heap regressed: {} bytes/agent at 10k groups (ceiling {})",
            row.bytes_per_agent,
            SMOKE_BYTES_PER_AGENT_CEILING,
        );
        row.assert_bytes_per_session();
        assert!(
            row.journal_bytes_per_session <= SMOKE_JOURNAL_BYTES_PER_SESSION_CEILING,
            "journal text regressed: {} bytes/session at 10k groups (ceiling {}) — is a \
             configuration field written in full again?",
            row.journal_bytes_per_session,
            SMOKE_JOURNAL_BYTES_PER_SESSION_CEILING,
        );
        assert!(
            row.shard_over_flat_heap() <= SMOKE_SHARD_OVER_FLAT_HEAP_CEILING,
            "sharded peak heap regressed: {} bytes at 1 thread is {:.2}x the flat {} bytes at \
             10k groups (ceiling {}x) — is every endpoint allocating for agents it does not \
             host, or compiling its own world, again?",
            row.shard_peak_heap_bytes_1t,
            row.shard_over_flat_heap(),
            row.peak_heap_bytes,
            SMOKE_SHARD_OVER_FLAT_HEAP_CEILING,
        );
        assert_eq!(
            row.shard_agents, row.agents,
            "the eight regions of the strided storm must host every agent exactly once"
        );
        // Allocations per group of the growth from 1k to 10k groups: what
        // the build spends on every world, whatever its size, cancels out.
        let small = measure_world(&strided_fleet(1_000));
        let alloc_growth =
            (row.world.allocs as f64 - small.allocs as f64) / (row.groups - 1_000) as f64;
        assert!(
            alloc_growth <= SMOKE_WORLD_ALLOC_GROWTH_PER_GROUP_CEILING
                && row.world_retained_bytes_per_group()
                    <= SMOKE_WORLD_RETAINED_BYTES_PER_GROUP_CEILING,
            "world build regressed: its allocations grow by {alloc_growth:.5} per group from 1k \
             to 10k groups ({} and {}; ceiling {}) and it retains {:.3} bytes per group at 10k \
             (ceiling {}) — is some compiled table a heap object per row again?",
            small.allocs,
            row.world.allocs,
            SMOKE_WORLD_ALLOC_GROWTH_PER_GROUP_CEILING,
            row.world_retained_bytes_per_group(),
            SMOKE_WORLD_RETAINED_BYTES_PER_GROUP_CEILING,
        );
        println!(
            "smoke ok: 10k groups, {} sessions, {} bytes/agent (ceiling {}), {} bytes/session \
             (ceiling {}), {} journal bytes/session (ceiling {}), sharded/flat peak heap \
             {:.2}x (ceiling {}x) and wall {:.2}x (not asserted) with {} agents hosted, world \
             build allocations growing by {alloc_growth:.5} per group from 1k to 10k groups \
             (ceiling {}) and {:.3} bytes (ceiling {}) per group, fingerprint {:#018x} \
             identical at 1/2/4/8 threads",
            row.sessions,
            row.bytes_per_agent,
            SMOKE_BYTES_PER_AGENT_CEILING,
            row.bytes_per_session(),
            SMOKE_BYTES_PER_SESSION_CEILING,
            row.journal_bytes_per_session,
            SMOKE_JOURNAL_BYTES_PER_SESSION_CEILING,
            row.shard_over_flat_heap(),
            SMOKE_SHARD_OVER_FLAT_HEAP_CEILING,
            row.shard_over_flat_wall(),
            row.shard_agents,
            SMOKE_WORLD_ALLOC_GROWTH_PER_GROUP_CEILING,
            row.world_retained_bytes_per_group(),
            SMOKE_WORLD_RETAINED_BYTES_PER_GROUP_CEILING,
            row.fingerprint,
        );
        return;
    }
    let rows: Vec<Row> =
        [1_000usize, 10_000, 100_000].iter().map(|&g| run_row(g, &threads)).collect();
    rows.iter().for_each(Row::assert_bytes_per_session);
    write_bench_json(&rows);
}

fn bench_entry(c: &mut Criterion) {
    bench_scale(c);
    sweep();
}

criterion_group!(benches, bench_entry);
criterion_main!(benches);
