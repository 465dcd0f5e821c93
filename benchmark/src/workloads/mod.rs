//! The five workloads, and what they share: input digests, the exact
//! facts read off a fleet report, and the session-level output checks.
//!
//! Generators are copies, not imports, of the ones in `crates/bench`, so
//! that crate can keep changing while the referee's inputs stay put.

use std::fmt::Write as _;

use sada_fleet::{
    fingerprint_events_unsharded, FleetReport, FleetScenario, SessionResult, ShardReport,
    ShardScenario,
};

use crate::harness::{ensure, Facts, Named, Twins};
use crate::layers::{hit_rate, session_facts, FleetView, DRIVER_RING};
use crate::stats::Fnv;

pub mod chaos_recover;
pub mod plan_frontier;
pub mod scenario_mix;
pub mod storm;

/// SplitMix64: one well-mixed word per call, for seed-derived choices.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Digest of a fleet scenario that carries no generated world: its scalar
/// settings and the session-spec list, one line per session.
pub fn digest_fleet(h: &mut Fnv, scn: &FleetScenario) {
    let mut line = String::new();
    let _ = writeln!(
        line,
        "fleet groups={} seed={} link_us={} budget_us={} journal={}",
        scn.groups,
        scn.seed,
        scn.link_latency.as_micros(),
        scn.time_budget.as_micros(),
        scn.render_journal
    );
    h.feed(line.as_bytes());
    for s in &scn.sessions {
        line.clear();
        let _ = writeln!(
            line,
            "session {} prio={} at={} cancel={:?} flips={:?}",
            s.id,
            s.priority,
            s.submit_at.as_micros(),
            s.cancel_at.map(|c| c.as_micros()),
            s.flips
        );
        h.feed(line.as_bytes());
    }
}

/// [`digest_fleet`] plus the partition, the crash instants and the fabric
/// fault plan.
pub fn digest_shard(h: &mut Fnv, scn: &ShardScenario) {
    digest_fleet(h, &scn.fleet);
    let line = format!(
        "shard regions={} crash_region={:?} crash_global={:?} faults={:?}\n",
        scn.regions,
        scn.crash_region.map(|(r, a, b)| (r, a.as_micros(), b.as_micros())),
        scn.crash_global.map(|(a, b)| (a.as_micros(), b.as_micros())),
        scn.fabric_faults
    );
    h.feed(line.as_bytes());
}

fn facts_of(results: &[SessionResult], events: u64, fingerprint: u64, exact: Named) -> Facts {
    Facts {
        attempted: results.len() as u64,
        failed: results.iter().filter(|r| !r.success).count() as u64,
        events,
        fingerprint,
        exact,
    }
}

pub fn flat_facts(r: &FleetReport) -> Facts {
    let mut exact = session_facts(&r.results, r.makespan_us);
    exact.extend([
        ("fleet.cache.hits", r.cache.hits as f64),
        ("fleet.cache.misses", r.cache.misses as f64),
        ("fleet.cache.hit_rate", hit_rate(r.cache.hits, r.cache.misses)),
        ("proto.manager.restores", r.restores as f64),
        ("simnet.sim.delivered", r.stats.delivered as f64),
        ("simnet.sim.dropped", r.stats.dropped as f64),
        ("obs.events", r.events.len() as f64),
    ]);
    facts_of(&r.results, r.events.len() as u64, fingerprint_events_unsharded(&r.events), exact)
}

fn shard_delivered(r: &ShardReport) -> u64 {
    r.per_shard.iter().map(|s| s.delivered).sum()
}

/// The facts of one iteration made of one or more sharded runs: session
/// results pooled, counters summed, makespans added (the runs are
/// sequential), fingerprints chained.
pub fn shard_facts(reports: &[&ShardReport]) -> Facts {
    let results: Vec<SessionResult> =
        reports.iter().flat_map(|r| r.results.iter().cloned()).collect();
    let sum = |f: &dyn Fn(&ShardReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    let hits = sum(&|r| r.per_shard.iter().map(|s| s.cache_hits).sum());
    let misses = sum(&|r| r.per_shard.iter().map(|s| s.cache_misses).sum());
    let journal_lines = |r: &ShardReport| {
        (r.journals.iter().map(|(_, text)| text.lines().count()).sum::<usize>()
            + r.global_journal.lines().count()) as u64
    };
    let mut exact = session_facts(&results, reports.iter().map(|r| r.makespan_us).sum());
    exact.extend([
        ("fleet.cache.hits", hits),
        ("fleet.cache.misses", misses),
        ("fleet.cache.hit_rate", hit_rate(hits as u64, misses as u64)),
        ("proto.manager.restores", sum(&|r| r.restores)),
        ("proto.journal.records", sum(&journal_lines)),
        ("simnet.sim.delivered", sum(&shard_delivered)),
        ("obs.events", sum(&|r| r.events.len() as u64)),
        ("fleet.shard.fabric_messages", sum(&|r| r.fabric.messages)),
        ("fleet.shard.retransmits", sum(&|r| r.retransmits)),
        ("fleet.shard.dropped", sum(&|r| r.fabric.dropped)),
        ("fleet.shard.duplicated", sum(&|r| r.fabric.duplicated)),
        ("fleet.shard.delayed", sum(&|r| r.fabric.delayed)),
        ("fleet.shard.abandoned", sum(&|r| r.abandoned)),
        ("fleet.shard.lease_expirations", sum(&|r| r.lease_expirations)),
        ("fleet.shard.residual_holds", sum(&|r| r.residual_holds)),
    ]);
    let mut fingerprint = Fnv::new();
    for r in reports {
        fingerprint.feed(&r.fingerprint.to_le_bytes());
    }
    let events = reports.iter().map(|r| r.events.len() as u64).sum();
    facts_of(&results, events, fingerprint.0, exact)
}

/// What a sharded run hands the shared fleet replays.
pub fn shard_view<'a>(scn: &'a ShardScenario, out: &'a ShardReport) -> FleetView<'a> {
    let delivered = shard_delivered(out);
    FleetView {
        scenario: &scn.fleet,
        results: &out.results,
        events: &out.events,
        journals: out.journals.iter().map(|(_, text)| text.as_str()).collect(),
        // One per endpoint, one for the partitioner.
        builds: out.per_shard.len() + 1,
        // Shard statistics expose deliveries only; timers are not counted.
        sim_events: delivered,
        delivered,
        makespan_us: out.makespan_us,
        sharded: true,
    }
}

/// The two ratios and the thread-dependent counter of sharded runs.
pub fn shard_ratios(reports: &[&ShardReport], twins: &Twins, wall_s: f64) -> Named {
    let promises: u64 = reports.iter().map(|r| r.fabric.promise_updates).sum();
    vec![
        ("fleet.shard.over_flat", twins.flat_wall_s.map_or(0.0, |flat| wall_s / flat)),
        ("fleet.shard.thread_speedup", twins.one_thread_wall_s.map_or(0.0, |one| one / wall_s)),
        ("fleet.shard.promise_updates", promises as f64),
    ]
}

/// No endpoint's ring may have wrapped: a truncated stream must never pass
/// for a complete one.
pub fn check_ring(r: &ShardReport) -> Result<(), String> {
    match r.per_shard.iter().find(|s| s.events >= DRIVER_RING) {
        Some(s) => Err(format!("shard {} filled its event ring ({} events)", s.shard, s.events)),
        None => Ok(()),
    }
}

pub fn check_all_commit(results: &[SessionResult], what: &str) -> Result<(), String> {
    match results.iter().find(|r| !r.success) {
        Some(r) => Err(format!("{what}: session {} did not commit: {r:?}", r.id)),
        None => Ok(()),
    }
}

/// Every session concluded, and the plane is quiescent: nothing held,
/// nothing abandoned.
pub fn check_concluded(r: &ShardReport, what: &str) -> Result<(), String> {
    if let Some(s) = r.results.iter().find(|s| s.completed_at.is_none()) {
        return Err(format!("{what}: session {} never concluded", s.id));
    }
    ensure(r.residual_holds == 0, || format!("{what}: {} residual holds", r.residual_holds))?;
    ensure(r.abandoned == 0, || format!("{what}: {} straddlers abandoned", r.abandoned))?;
    check_ring(r)
}

/// Two runs of one scenario that must be indistinguishable (thread count
/// is execution policy, not input).
pub fn check_same_run(a: &ShardReport, b: &ShardReport, what: &str) -> Result<(), String> {
    ensure(a.fingerprint == b.fingerprint, || {
        format!("{what}: fingerprint {:#x} vs {:#x}", a.fingerprint, b.fingerprint)
    })?;
    ensure(a.results == b.results, || format!("{what}: session results differ"))?;
    ensure(a.final_config == b.final_config, || format!("{what}: final configurations differ"))?;
    ensure(a.journals == b.journals && a.global_journal == b.global_journal, || {
        format!("{what}: journals differ")
    })
}
