//! What a sharded run is pinned by, shared by the `shard_identity` tests of
//! `sada-fleet` and `sada-scenario` (the latter includes this file by path:
//! `sada-scenario` depends on `sada-fleet`, not the reverse).

use sada_fleet::{run_fleet_sharded, SessionResult, ShardReport, ShardScenario};

/// Merged-stream fingerprint, final configuration, restores summed over
/// shards, the FNV of every shard's journal text (region order, then the
/// global tier's plane), the FNV of the global write-ahead journal, and the
/// verdict tally `(committed, gave up, cancelled, shed, rejected)`.
#[derive(Debug)]
pub(crate) struct Identity {
    pub fingerprint: u64,
    pub final_config: &'static str,
    pub restores: u64,
    pub journal_fnvs: &'static [u64],
    pub global_journal_fnv: u64,
    pub verdicts: (usize, usize, usize, usize, u64),
}

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn assert_identity(what: &str, report: &ShardReport, want: &Identity) {
    let count = |f: fn(&SessionResult) -> bool| report.results.iter().filter(|r| f(r)).count();
    let verdicts = (
        count(|r| r.success),
        count(|r| r.gave_up),
        count(|r| r.cancelled),
        count(|r| r.shed),
        report.rejected,
    );
    let journal_fnvs: Vec<u64> = report.journals.iter().map(|(_, text)| fnv(text)).collect();
    let shown: Vec<String> = journal_fnvs.iter().map(|h| format!("{h:#018x}")).collect();
    let global_journal_fnv = fnv(&report.global_journal);
    let got = (
        report.fingerprint,
        report.final_config.as_str(),
        report.restores,
        journal_fnvs.as_slice(),
        global_journal_fnv,
        verdicts,
    );
    let want_tuple = (
        want.fingerprint,
        want.final_config,
        want.restores,
        want.journal_fnvs,
        want.global_journal_fnv,
        want.verdicts,
    );
    assert!(
        got == want_tuple,
        "{what}: identity moved, want {want:?}, got\nIdentity {{ fingerprint: {:#018x}, \
         final_config: {:?}, restores: {}, journal_fnvs: &[{}], \
         global_journal_fnv: {global_journal_fnv:#018x}, verdicts: {verdicts:?} }}",
        report.fingerprint,
        report.final_config,
        report.restores,
        shown.join(", "),
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
