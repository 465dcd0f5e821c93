//! Soundness of the origination bound, small cases exhaustively.
//!
//! A region promises the global tier silence whenever it owes nothing — no
//! foreign request queued in its lock table, no reply on its way to the
//! relay (`shard.rs`, `RegionControl::origination_bound`). If that rule
//! ever promised too much, a fabric message would arrive behind its
//! receiver's clock; which run that happens in would depend on how the
//! wall clock interleaved the worker threads, so sampled seeds are the
//! wrong net. This test instead walks *every* cell of a small grid over the
//! ways a region can come to owe:
//!
//! 2 regions × {0, 1, 2} straddlers × local sessions that {hold, queue
//! behind, are disjoint from} the straddled slice × both priority orders ×
//! a region crash {never, while the foreign request is queued, while it is
//! granted} × promise fast path {on, off} × {1, 2, 4} worker threads.
//!
//! In every cell the fingerprint, journals, global journal, results and
//! final configuration are equal across thread counts and fast-path
//! settings, every session reaches a verdict and no hold is left behind.
//! Tests build with debug assertions, so the sender-side checks in
//! `Endpoint::flush` (a surfaced message's send instant against the bound
//! last published, its arrival against the edge's promise) and the
//! receiver-side panic in `Endpoint::step` are armed throughout.

use sada_fleet::{run_fleet_sharded, FleetScenario, SessionSpec, ShardReport, ShardScenario};
use sada_simnet::{SimDuration, SimTime};

/// Four groups over two regions: groups 0, 1 belong to region 0 and 2, 3 to
/// region 1. Every straddler takes group 1 — the straddled slice of region
/// 0, the region that crashes — so two straddlers also queue behind each
/// other there.
const GROUPS: usize = 4;
const REGIONS: usize = 2;
const STRADDLED: usize = 1;
const FIRST_STRADDLER: u64 = 100;

/// How region 0's local sessions relate to the straddled slice.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Locals {
    /// One holds the slice when the first request arrives and a second
    /// waits behind it: the request queues, and priority decides whether
    /// it is granted before or after the local waiter.
    Hold,
    /// They arrive while the straddler holds the slice and queue behind
    /// the foreign hold.
    QueueBehind,
    /// They adapt the region's other group.
    Disjoint,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Crash {
    Never,
    WhileQueued,
    WhileGranted,
}

fn session(id: u64, flips: &[(usize, bool)], priority: u8, submit_ms: u64) -> SessionSpec {
    SessionSpec {
        id,
        flips: flips.to_vec(),
        priority,
        submit_at: SimDuration::from_millis(submit_ms),
        cancel_at: None,
    }
}

fn cell(straddlers: usize, locals: Locals, straddler_first: bool) -> ShardScenario {
    let (local_prio, straddler_prio) = if straddler_first { (0, 1) } else { (1, 0) };
    let mut sessions = match locals {
        Locals::Hold => vec![
            session(1, &[(STRADDLED, true)], local_prio, 0),
            session(2, &[(STRADDLED, false)], local_prio, 1),
        ],
        Locals::QueueBehind => vec![
            session(1, &[(STRADDLED, true)], local_prio, 8),
            session(2, &[(STRADDLED, false)], local_prio, 9),
        ],
        Locals::Disjoint => {
            vec![session(1, &[(0, true)], local_prio, 0), session(2, &[(0, false)], local_prio, 1)]
        }
    };
    // Region 1 is never idle either.
    sessions.push(session(3, &[(3, true)], 0, 0));
    let crossings = [[(STRADDLED, true), (2, true)], [(STRADDLED, false), (3, false)]];
    for (i, flips) in crossings.iter().take(straddlers).enumerate() {
        sessions.push(session(FIRST_STRADDLER + i as u64, flips, straddler_prio, 2 + i as u64));
    }
    let mut fleet = FleetScenario::new(GROUPS, sessions);
    // Every cell concludes within a virtual second; the budget is what a
    // run without the fast path walks quantum by quantum.
    fleet.time_budget = SimDuration::from_secs(1);
    ShardScenario::new(fleet, REGIONS)
}

fn assert_same_run(what: &str, a: &ShardReport, b: &ShardReport) {
    assert_eq!(a.fingerprint, b.fingerprint, "{what}: event streams differ");
    assert_eq!(a.results, b.results, "{what}");
    assert_eq!(a.journals, b.journals, "{what}");
    assert_eq!(a.global_journal, b.global_journal, "{what}");
    assert_eq!(a.final_config, b.final_config, "{what}");
    assert_eq!(a.fabric.messages, b.fabric.messages, "{what}");
}

#[test]
fn every_small_case_is_thread_and_fastpath_invariant() {
    let mut cells = 0;
    for straddlers in 0..=2 {
        for locals in [Locals::Hold, Locals::QueueBehind, Locals::Disjoint] {
            for straddler_first in [true, false] {
                // The crash-free run of the cell says when its first
                // request reaches region 0 and when the straddler runs.
                let calm = run_fleet_sharded(&cell(straddlers, locals, straddler_first), 1);
                let first = calm.session(FIRST_STRADDLER);
                if let Some(first) = first {
                    let waited = first.admitted_at.unwrap() - first.submitted_at.unwrap();
                    let local = calm.session(1).unwrap();
                    match locals {
                        Locals::Hold => assert!(
                            first.admitted_at > local.completed_at,
                            "the request queued behind the holder: {first:?} {local:?}"
                        ),
                        Locals::QueueBehind => assert!(
                            local.admitted_at > first.completed_at,
                            "the local queued behind the foreign hold: {first:?} {local:?}"
                        ),
                        Locals::Disjoint => assert!(
                            local.admitted_at == local.submitted_at && waited <= 10_000,
                            "nobody waited for anybody: {first:?} {local:?}"
                        ),
                    }
                }
                for crash in [Crash::Never, Crash::WhileQueued, Crash::WhileGranted] {
                    let mut scn = cell(straddlers, locals, straddler_first);
                    let at = match (crash, first) {
                        (Crash::Never, _) => None,
                        // Two latencies after submission the request is in
                        // region 0's lock table — queued where a local
                        // holds the slice, granted outright elsewhere.
                        (Crash::WhileQueued, Some(s)) => Some(s.submitted_at.unwrap() + 2_500),
                        // Admitted by the global tier: every slice granted.
                        (Crash::WhileGranted, Some(s)) => Some(s.admitted_at.unwrap() + 500),
                        // No straddler, no fabric: the crash only has the
                        // region's own sessions to interrupt.
                        (Crash::WhileQueued, None) => Some(4_500),
                        (Crash::WhileGranted, None) => Some(6_500),
                    };
                    scn.crash_region = at
                        .map(|at| (0, SimTime::from_micros(at), SimTime::from_micros(at + 3_000)));
                    let what = format!(
                        "{straddlers} straddlers, locals {locals:?}, straddler first \
                         {straddler_first}, crash {crash:?}"
                    );
                    let base = run_fleet_sharded(&scn, 1);
                    for r in &base.results {
                        assert!(
                            r.completed_at.is_some(),
                            "{what}: session {} has no verdict",
                            r.id
                        );
                    }
                    assert_eq!(base.residual_holds, 0, "{what}");
                    assert_eq!(base.fabric.messages > 0, straddlers > 0, "{what}");
                    assert_eq!(base.restores > 0, crash != Crash::Never, "{what}");
                    for fastpath in [true, false] {
                        scn.promise_fastpath = fastpath;
                        for threads in [1, 2, 4] {
                            let run = run_fleet_sharded(&scn, threads);
                            let what = format!("{what}, fast path {fastpath}, {threads} threads");
                            assert_same_run(&what, &base, &run);
                            assert_eq!(run.residual_holds, 0, "{what}");
                        }
                    }
                    cells += 1;
                }
            }
        }
    }
    assert_eq!(cells, 3 * 3 * 2 * 3);
}
