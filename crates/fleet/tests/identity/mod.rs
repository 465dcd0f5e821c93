//! What a sharded run is pinned by, shared by the `shard_identity` tests of
//! `sada-fleet` and `sada-scenario` (the latter includes this file by path:
//! `sada-scenario` depends on `sada-fleet`, not the reverse).

use sada_fleet::{run_fleet_sharded, SessionResult, ShardReport, ShardScenario};
use sada_obs::{fnv1a, text::push_lines, Counts, Kind};
use sada_proto::parse_session_journal;

/// Merged-stream fingerprint, final configuration, restores summed over
/// shards, the FNV of every shard's journal text (region order, then the
/// global tier's plane) and of the records each text parses to (FNV-1a of
/// each record's context-free line: what the journal says, whatever form
/// its text takes), the FNV of the global write-ahead journal, the verdict
/// tally `(committed, gave up, cancelled, shed, rejected)`, the report rows'
/// hash (see [`results_fnv`]), the peak of concurrently admitted sessions,
/// the makespan, and every counter the report carries (see [`Counters`]).
#[derive(Debug)]
pub(crate) struct Identity {
    pub fingerprint: u64,
    pub final_config: &'static str,
    pub restores: u64,
    pub journal_fnvs: &'static [u64],
    pub records_fnvs: &'static [u64],
    pub global_journal_fnv: u64,
    pub verdicts: (usize, usize, usize, usize, u64),
    pub results_fnv: u64,
    pub max_concurrent: usize,
    pub makespan_us: u64,
    pub counters: Counters,
}

/// Every counter of a sharded report, summed over its planes: admission
/// (sheds, rejections, agent and scope breaker trips, suppressed sends),
/// the plan caches, the fabric's faults, and the global tier's
/// retransmission ladder with the regions' leases.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Counters {
    pub shed: u64,
    pub rejected: u64,
    pub breaker_trips: u64,
    pub scope_breaker_trips: u64,
    pub suppressed_sends: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub dropped: u64,
    pub duplicated: u64,
    pub delayed: u64,
    pub retransmits: u64,
    pub abandoned: u64,
    pub orphaned_releases: u64,
    pub lease_reclaims: u64,
    pub lease_expirations: u64,
}

/// `report`'s counters.
fn counters(report: &ShardReport) -> Counters {
    let c = &report.counts;
    Counters {
        shed: c[Kind::SessionShed],
        rejected: c[Kind::SessionRejected] + c[Kind::ScopeRejected],
        breaker_trips: c[Kind::BreakerOpened],
        scope_breaker_trips: c[Kind::ScopeBreakerOpened],
        suppressed_sends: report.suppressed_sends,
        cache_hits: report.per_shard.iter().map(|s| s.cache_hits).sum(),
        cache_misses: report.per_shard.iter().map(|s| s.cache_misses).sum(),
        dropped: report.fabric.dropped,
        duplicated: report.fabric.duplicated,
        delayed: report.fabric.delayed,
        retransmits: report.retransmits,
        abandoned: report.abandoned,
        orphaned_releases: report.orphaned_releases,
        lease_reclaims: c[Kind::LeaseReclaimed],
        lease_expirations: report.lease_expirations,
    }
}

/// FNV-1a over one line per report row, every field in a fixed text form:
/// the instants, the four verdict flags and the admission decision (with a
/// shed's retry hint).
fn results_fnv(results: &[SessionResult]) -> u64 {
    let mut text = String::new();
    for r in results {
        text += &format!(
            "{} {:?} {:?} {:?} {} {} {} {} {:?}\n",
            r.id,
            r.submitted_at,
            r.admitted_at,
            r.completed_at,
            r.success,
            r.gave_up,
            r.cancelled,
            r.shed,
            r.admission
        );
    }
    fnv1a(text)
}

/// FNV-1a over the `Display` line of every record `text` parses to.
fn records_fnv(text: &str) -> u64 {
    let mut lines = String::new();
    push_lines(&mut lines, parse_session_journal(text).expect("the run's journal parses"));
    fnv1a(lines)
}

fn hex(hashes: &[u64]) -> String {
    hashes.iter().map(|h| format!("{h:#018x}")).collect::<Vec<_>>().join(", ")
}

fn assert_identity(what: &str, report: &ShardReport, want: &Identity) {
    if report.events_evicted == 0 {
        assert_eq!(
            Counts::of(&report.events),
            report.counts,
            "{what}: counts are the stream's fold"
        );
    }
    let counters = counters(report);
    let count = |f: fn(&SessionResult) -> bool| report.results.iter().filter(|r| f(r)).count();
    let verdicts = (
        count(|r| r.success),
        count(|r| r.gave_up),
        count(|r| r.cancelled),
        count(|r| r.shed),
        counters.rejected,
    );
    let journal_fnvs: Vec<u64> = report.journals.iter().map(|(_, text)| fnv1a(text)).collect();
    let records_fnvs: Vec<u64> =
        report.journals.iter().map(|(_, text)| records_fnv(text)).collect();
    let global_journal_fnv = fnv1a(&report.global_journal);
    let rows = (results_fnv(&report.results), report.max_concurrent, report.makespan_us);
    let got = (
        report.fingerprint,
        report.final_config.as_str(),
        report.restores,
        (journal_fnvs.as_slice(), records_fnvs.as_slice()),
        global_journal_fnv,
        verdicts,
        rows,
        &counters,
    );
    let want_tuple = (
        want.fingerprint,
        want.final_config,
        want.restores,
        (want.journal_fnvs, want.records_fnvs),
        want.global_journal_fnv,
        want.verdicts,
        (want.results_fnv, want.max_concurrent, want.makespan_us),
        &want.counters,
    );
    assert!(
        got == want_tuple,
        "{what}: identity moved, want {want:?}, got\nIdentity {{ fingerprint: {:#018x}, \
         final_config: {:?}, restores: {}, journal_fnvs: &[{}], records_fnvs: &[{}], \
         global_journal_fnv: {global_journal_fnv:#018x}, verdicts: {verdicts:?}, \
         results_fnv: {:#018x}, max_concurrent: {}, makespan_us: {}, counters: {counters:?} }}",
        report.fingerprint,
        report.final_config,
        report.restores,
        hex(&journal_fnvs),
        hex(&records_fnvs),
        rows.0,
        rows.1,
        rows.2,
    );
}

/// Runs `scn` at 1 and at 4 worker threads and holds both to `want`.
pub(crate) fn assert_pinned(what: &str, scn: &ShardScenario, want: &Identity) {
    for threads in [1, 4] {
        let report = run_fleet_sharded(scn, threads);
        assert_eq!(report.events_evicted, 0, "{what}: the fingerprint must cover the whole stream");
        assert!(!report.global_journal.is_empty(), "{what}: the run must escalate straddlers");
        assert_identity(&format!("{what} @ {threads} threads"), &report, want);
    }
}
