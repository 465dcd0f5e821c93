//! The global tier: straddling sessions and their slice-by-slice escalation
//! handshake. Its fabric sends are tracked sends of its manager host, whose
//! ladder retransmits them.

use sada_expr::CompId;
use sada_obs::FleetEvent;
use sada_proto::ProtoTimer::{self, App};
use sada_proto::{GlobalRecord, LadderFire, Wire};
use sada_simnet::{Actor, ActorId, SimDuration, SimTime};

use crate::control::{ControlActor, Ctx, FleetTimer};
use crate::fabric::{FabricPayload, ShardMsg};

// ---------------------------------------------------------------------------
// Global tier
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    Pending,
    Granting,
    Running,
    Done,
    Cancelled,
}

/// One region's share of a straddling session's scope.
#[derive(Debug, Clone)]
pub(crate) struct Slice {
    pub(crate) region: u32,
    pub(crate) resources: Vec<u32>,
    pub(crate) comps: Vec<u32>,
}

#[derive(Clone)]
pub(crate) struct Straddler {
    pub(crate) sid: u64,
    pub(crate) priority: u8,
    pub(crate) submit_at: SimDuration,
    pub(crate) cancel_at: Option<SimDuration>,
    /// Ascending region order — slices are acquired strictly sequentially,
    /// so escalation is deadlock-free by the usual ordered-2PL argument.
    pub(crate) slices: Vec<Slice>,
    pub(crate) next: usize,
    pub(crate) phase: Phase,
    /// Durable: when the straddler first escalated (μs) — its submission
    /// instant in the report, where the inner plane's row holds the later
    /// instant it submitted the session itself.
    pub(crate) escalated_at: Option<u64>,
}

/// The token naming straddler `ix`'s send of `slice` in one direction on
/// the host's ladder: requests and releases retransmit independently. Its
/// value salts the ladder's jitter.
fn token(ix: usize, slice: usize, release: bool) -> u64 {
    (1 << 60) + ((ix as u64) << 12) + ((slice as u64) << 1) + u64::from(release)
}

/// The thin global tier: a full [`ControlActor`] over its own replica of
/// the fleet's agents, driving only the straddling sessions. Each straddler
/// submits through a lock-escalation handshake — per-region scope slices
/// acquired in ascending region order, grants carrying the regions'
/// authoritative component values, releases carrying the final ones back.
/// Each request and release is a tracked send of the inner plane's host,
/// stamped with its epoch; a crash drops the ladders with the host's state.
pub(crate) struct GlobalControl {
    pub(crate) inner: ControlActor<ShardMsg>,
    pub(crate) relay: ActorId,
    pub(crate) straddlers: Vec<Straddler>,
    /// Durable: the global tier's write-ahead journal — every irreversible
    /// step of the escalation handshake, written before the fabric
    /// messages it covers.
    pub(crate) global_journal: Vec<GlobalRecord>,
    /// Durable: releases given up past the lease horizon. The one ladder
    /// count without an event; the others are read from the plane's counts.
    pub(crate) orphaned_releases: u64,
}

impl GlobalControl {
    fn send(&self, ctx: &mut Ctx<'_, ShardMsg>, to: u32, payload: FabricPayload) {
        ctx.send(self.relay, Wire::App(ShardMsg { to, payload }));
    }

    /// The global tier's origination bound (see
    /// [`RegionControl::origination_bound`]): its next local event. Its
    /// sends hang on submit, cancel and ladder timers and on the completion
    /// of an inner session — all local events — so nothing tighter holds
    /// without a per-timer, per-edge analysis.
    ///
    /// [`RegionControl::origination_bound`]: crate::region::RegionControl::origination_bound
    pub(crate) fn origination_bound(&self, next_event_us: u64) -> u64 {
        next_event_us
    }

    /// Appends `rec` unless the journal already carries it — replay after
    /// a crash re-drives the handshake and must not duplicate history.
    fn journal_once(&mut self, rec: GlobalRecord) {
        if !self.global_journal.contains(&rec) {
            self.global_journal.push(rec);
        }
    }

    fn is_released(&self, sid: u64, region: u32) -> bool {
        self.global_journal.contains(&GlobalRecord::Released { session: sid, region })
    }

    /// Straddler `ix`'s slice at `region`, if it has one.
    fn slice_at(&self, ix: usize, region: u32) -> Option<usize> {
        self.straddlers[ix].slices.iter().position(|sl| sl.region == region)
    }

    /// The request (or release) of slice `sx` of straddler `ix`, under this
    /// epoch. Only the release of a straddler that ran (`Done`) carries
    /// final component values: a withdrawn or abandoned one never adapted
    /// anything, and a region holding its slice must not fold the global
    /// tier's view of values it never owned. While the region holds the
    /// slice the values cannot move, so a re-send rebuilds the same release.
    fn payload(&self, ix: usize, sx: usize, release: bool) -> FabricPayload {
        let (s, epoch) = (&self.straddlers[ix], self.inner.host.epoch());
        let (session, sl) = (s.sid, &s.slices[sx]);
        if !release {
            let (resources, comps, priority) = (sl.resources.clone(), sl.comps.clone(), s.priority);
            return FabricPayload::LockRequest { session, resources, comps, priority, epoch };
        }
        let ran = s.phase == Phase::Done;
        let value =
            |&c: &u32| (c, self.inner.fleet_config.contains(CompId::from_index(c as usize)));
        let values = sl.comps.iter().filter(|_| ran).map(value).collect();
        FabricPayload::LockRelease { session, epoch, values }
    }

    /// Puts slice `sx`'s request (or release) of straddler `ix` on the wire
    /// and tracks it on the host's ladder. Only releases are timed: a grant
    /// waits on lock queueing at the region, so a request's round trip
    /// says nothing of the fabric.
    fn send_tracked(&mut self, ctx: &mut Ctx<'_, ShardMsg>, ix: usize, sx: usize, release: bool) {
        let (sid, region) = (self.straddlers[ix].sid, self.straddlers[ix].slices[sx].region);
        self.send(ctx, region, self.payload(ix, sx, release));
        self.inner.host.track(ctx, (sid, token(ix, sx, release)), region, release);
    }

    /// A ladder of the host fired: re-send, or give the straddler up.
    fn on_ladder(
        &mut self,
        ctx: &mut Ctx<'_, ShardMsg>,
        (sid, token): (u64, u64),
        region: u32,
        fire: LadderFire,
    ) {
        let release = token & 1 == 1;
        match fire {
            // Past the lease horizon the region's restarted lock table no
            // longer carries the hold; the release is moot.
            LadderFire::Exhausted(_) if release => self.orphaned_releases += 1,
            LadderFire::Exhausted(attempts) => self.abandon(ctx, sid, region, attempts),
            LadderFire::Resend(attempt) => {
                let Some(ix) = self.straddlers.iter().position(|s| s.sid == sid) else { return };
                let Some(sx) = self.slice_at(ix, region) else { return };
                let ev = FleetEvent::FabricRetransmit { session: sid, region, attempt };
                self.inner.emit_fleet(ctx, sid, ev);
                self.send(ctx, region, self.payload(ix, sx, release));
            }
        }
    }

    /// Terminal verdict for a straddler whose request ladder exhausted:
    /// journal the abandonment, conclude the inner session with a clean
    /// rejection, and release the acquired slice prefix.
    fn abandon(&mut self, ctx: &mut Ctx<'_, ShardMsg>, sid: u64, region: u32, attempts: u32) {
        let Some(ix) = self.straddlers.iter().position(|s| s.sid == sid) else { return };
        if self.straddlers[ix].phase != Phase::Granting {
            return;
        }
        self.journal_once(GlobalRecord::Abandoned { session: sid, region });
        self.inner.emit_fleet(
            ctx,
            sid,
            FleetEvent::StraddlerAbandoned { session: sid, region, attempts },
        );
        self.straddlers[ix].phase = Phase::Cancelled;
        let upto = (self.straddlers[ix].next + 1).min(self.straddlers[ix].slices.len());
        self.release_slices(ctx, ix, upto);
        self.inner.conclude_abandoned(ctx, sid);
    }

    fn request_slice(&mut self, ctx: &mut Ctx<'_, ShardMsg>, ix: usize) {
        self.send_tracked(ctx, ix, self.straddlers[ix].next, false);
    }

    /// Sends `LockRelease` for the first `upto` slices of straddler `ix`,
    /// skipping slices whose release is already journaled as acknowledged,
    /// and retiring each slice's request ladder (the release supersedes
    /// it).
    fn release_slices(&mut self, ctx: &mut Ctx<'_, ShardMsg>, ix: usize, upto: usize) {
        let sid = self.straddlers[ix].sid;
        for sx in 0..upto.min(self.straddlers[ix].slices.len()) {
            if !self.is_released(sid, self.straddlers[ix].slices[sx].region) {
                self.inner.host.retire(ctx, (sid, token(ix, sx, false)));
                self.send_tracked(ctx, ix, sx, true);
            }
        }
    }

    fn begin(&mut self, ctx: &mut Ctx<'_, ShardMsg>, ix: usize) {
        if self.straddlers[ix].phase != Phase::Pending {
            return;
        }
        let sid = self.straddlers[ix].sid;
        let regions: Vec<u32> = self.straddlers[ix].slices.iter().map(|sl| sl.region).collect();
        self.journal_once(GlobalRecord::Escalated { session: sid, regions });
        self.straddlers[ix].phase = Phase::Granting;
        self.straddlers[ix].escalated_at.get_or_insert(ctx.now().as_micros());
        self.request_slice(ctx, ix);
    }

    fn on_granted(
        &mut self,
        ctx: &mut Ctx<'_, ShardMsg>,
        session: u64,
        region: u32,
        values: Vec<(u32, bool)>,
    ) {
        let Some(ix) = self.straddlers.iter().position(|s| s.sid == session) else { return };
        if self.straddlers[ix].phase != Phase::Granting {
            return; // a grant that raced a withdrawal; the release is out
        }
        let next = self.straddlers[ix].next;
        if next >= self.straddlers[ix].slices.len()
            || self.straddlers[ix].slices[next].region != region
        {
            return; // duplicate grant of an earlier slice in the chain
        }
        self.inner.host.retire(ctx, (session, token(ix, next, false)));
        self.journal_once(GlobalRecord::SliceGranted { session, region });
        self.inner.fold(values.into_iter().map(|(c, v)| (CompId::from_index(c as usize), v)));
        self.straddlers[ix].next += 1;
        if self.straddlers[ix].next < self.straddlers[ix].slices.len() {
            self.request_slice(ctx, ix);
        } else {
            // Every slice held and the source configuration assembled from
            // the grants: run the full protocol against the local replicas.
            self.journal_once(GlobalRecord::Submitted { session });
            self.straddlers[ix].phase = Phase::Running;
            let sid = self.straddlers[ix].sid;
            self.inner.submit_session(ctx, sid);
            self.sweep(ctx);
        }
    }

    fn on_ack(&mut self, ctx: &mut Ctx<'_, ShardMsg>, session: u64, region: u32) {
        let Some(ix) = self.straddlers.iter().position(|s| s.sid == session) else { return };
        let Some(sx) = self.slice_at(ix, region) else { return };
        if self.inner.host.retire(ctx, (session, token(ix, sx, true))) {
            self.journal_once(GlobalRecord::Released { session, region });
        } // else a duplicate ack: the ladder is already retired
    }

    fn withdraw(&mut self, ctx: &mut Ctx<'_, ShardMsg>, ix: usize) {
        let (sid, phase) = (self.straddlers[ix].sid, self.straddlers[ix].phase);
        if !matches!(phase, Phase::Pending | Phase::Granting) {
            return; // admitted or finished in the meantime — too late
        }
        self.journal_once(GlobalRecord::Withdrawn { session: sid });
        if phase == Phase::Granting {
            // Release every slice acquired or requested so far; a
            // still-queued request is cancelled by the region, a grant
            // in flight is answered by the (edge-FIFO) release behind it.
            let upto = (self.straddlers[ix].next + 1).min(self.straddlers[ix].slices.len());
            self.release_slices(ctx, ix, upto);
        }
        self.straddlers[ix].phase = Phase::Cancelled;
        self.inner.conclude_withdrawn(sid, ctx.now());
    }

    /// Detects straddlers whose inner session reached a terminal result and
    /// flows their final scope values back to the owning regions.
    fn sweep(&mut self, ctx: &mut Ctx<'_, ShardMsg>) {
        for ix in 0..self.straddlers.len() {
            if self.straddlers[ix].phase == Phase::Running
                && self.inner.is_done(self.straddlers[ix].sid)
            {
                self.straddlers[ix].phase = Phase::Done;
                let n = self.straddlers[ix].slices.len();
                self.release_slices(ctx, ix, n);
            }
        }
    }

    /// Rebuilds one straddler's wrapper state from the durable journal
    /// after a crash, re-driving its handshake under the new incarnation.
    fn restore_straddler(&mut self, ctx: &mut Ctx<'_, ShardMsg>, ix: usize) {
        let sid = self.straddlers[ix].sid;
        let (mut escalated, mut submitted, mut terminal, mut granted) = (false, false, false, 0);
        for rec in &self.global_journal {
            match rec {
                GlobalRecord::Escalated { session, .. } if *session == sid => escalated = true,
                GlobalRecord::SliceGranted { session, .. } if *session == sid => granted += 1,
                GlobalRecord::Submitted { session } if *session == sid => submitted = true,
                GlobalRecord::Withdrawn { session } if *session == sid => terminal = true,
                GlobalRecord::Abandoned { session, .. } if *session == sid => terminal = true,
                _ => {}
            }
        }
        let n = self.straddlers[ix].slices.len();
        if terminal {
            // Withdrawn or abandoned before the crash (its row concluded
            // then): re-issue the releases that never got acknowledged.
            self.straddlers[ix].phase = Phase::Cancelled;
            self.straddlers[ix].next = granted;
            self.release_slices(ctx, ix, (granted + 1).min(n));
            return;
        }
        if submitted {
            // The inner journal replay already restored (or finished) the
            // session itself; the wrapper only re-drives the release flow.
            self.straddlers[ix].next = n;
            if self.inner.is_done(sid) {
                self.straddlers[ix].phase = Phase::Done;
                self.release_slices(ctx, ix, n);
            } else {
                self.straddlers[ix].phase = Phase::Running;
            }
        } else if escalated {
            // A partial ascending chain died with the old incarnation:
            // re-drive it from slice 0 under the new epoch. Regions still
            // holding old-epoch leases reclaim them (grant values re-fold
            // idempotently — the slices stayed locked throughout).
            self.straddlers[ix].phase = Phase::Granting;
            self.straddlers[ix].next = 0;
            self.request_slice(ctx, ix);
        } else {
            // Never escalated: requeue. The crash dropped the submit
            // timer, so re-arm it (or begin immediately if it is due).
            self.straddlers[ix].phase = Phase::Pending;
            self.straddlers[ix].next = 0;
            let at = SimTime::ZERO + self.straddlers[ix].submit_at;
            if !ctx.set_timer_at(at, App(FleetTimer::GlobalSubmit(ix))) {
                self.begin(ctx, ix);
            }
        }
        // Pending/Granting/Running straddlers keep their withdrawal
        // deadline across the crash.
        if matches!(self.straddlers[ix].phase, Phase::Pending | Phase::Granting) {
            if let Some(at) = self.straddlers[ix].cancel_at {
                if !ctx.set_timer_at(SimTime::ZERO + at, App(FleetTimer::GlobalCancel(ix))) {
                    self.withdraw(ctx, ix);
                }
            }
        }
    }
}

impl Actor<Wire<ShardMsg>, ProtoTimer<FleetTimer>> for GlobalControl {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ShardMsg>) {
        self.inner.on_start(ctx);
        for ix in 0..self.straddlers.len() {
            ctx.set_timer(self.straddlers[ix].submit_at, App(FleetTimer::GlobalSubmit(ix)));
            if let Some(at) = self.straddlers[ix].cancel_at {
                ctx.set_timer(at, App(FleetTimer::GlobalCancel(ix)));
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, ShardMsg>, from: ActorId, msg: Wire<ShardMsg>) {
        match msg {
            Wire::App(m) => match m.payload {
                // A dead incarnation's reply; the re-driven chain re-earns it.
                FabricPayload::LockGranted { epoch, .. }
                | FabricPayload::ReleaseAck { epoch, .. }
                    if epoch != self.inner.host.epoch() => {}
                FabricPayload::LockGranted { session, region, values, .. } => {
                    self.on_granted(ctx, session, region, values);
                }
                FabricPayload::ReleaseAck { session, region, .. } => {
                    self.on_ack(ctx, session, region)
                }
                // The global tier never receives requests or releases.
                FabricPayload::LockRequest { .. } | FabricPayload::LockRelease { .. } => {}
            },
            other => {
                self.inner.on_message(ctx, from, other);
                self.sweep(ctx);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ShardMsg>, timer: ProtoTimer<FleetTimer>) {
        match timer {
            ProtoTimer::Ladder { tag, key } => {
                if let Some((region, fire)) = self.inner.host.ladder_fired(ctx, tag, key) {
                    self.on_ladder(ctx, key, region, fire);
                }
            }
            App(FleetTimer::GlobalSubmit(ix)) => self.begin(ctx, ix),
            App(FleetTimer::GlobalCancel(ix)) => self.withdraw(ctx, ix),
            inner => {
                self.inner.on_timer(ctx, inner);
                self.sweep(ctx);
            }
        }
    }

    fn on_crash(&mut self, now: SimTime) {
        // The journal, escalation instants and counters survive; the host's
        // crash bumps its epoch and drops every ladder.
        self.inner.on_crash(now);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, ShardMsg>) {
        self.inner.on_restart(ctx);
        // Replay straddlers in journal order (first appearance) so
        // re-driven handshakes hit the fabric in the same order the dead
        // incarnation decided them; never-journaled straddlers follow in
        // scenario order.
        let escalated = self.global_journal.iter().filter_map(|rec| match rec {
            GlobalRecord::Escalated { session, .. } => {
                self.straddlers.iter().position(|s| s.sid == *session)
            }
            _ => None,
        });
        let mut order: Vec<usize> = Vec::new();
        for ix in escalated.chain(0..self.straddlers.len()) {
            if !order.contains(&ix) {
                order.push(ix);
            }
        }
        for ix in order {
            self.restore_straddler(ctx, ix);
        }
        self.sweep(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::SessionSpec;
    use crate::driver::{disjoint_wave, FleetScenario};
    use crate::fabric::tests::{chaotic_faults, straddling_fleet};
    use crate::shard::{run_fleet_sharded, ShardScenario};

    #[test]
    fn straddling_session_escalates_and_commits() {
        // Groups 0..4 over 2 regions; session 9 straddles groups 1 and 2
        // (regions 0 and 1) while local sessions churn the same regions.
        let mut sessions = disjoint_wave(4, 1);
        sessions.push(SessionSpec {
            id: 9,
            flips: vec![(1, true), (2, true)],
            priority: 0,
            submit_at: SimDuration::from_millis(5),
            cancel_at: None,
        });
        let fleet = FleetScenario::new(4, sessions);
        let report = run_fleet_sharded(&ShardScenario::new(fleet, 2), 2);
        assert_eq!(report.succeeded(), 5, "results: {:?}", report.results);
        assert_eq!(report.final_config, "10101010");
        assert!(report.fabric.messages >= 4, "request/grant per slice + releases crossed");
        let global = report.per_shard.iter().find(|s| s.is_global).expect("global tier present");
        assert_eq!(global.sessions, 1);
        assert_eq!(global.completed, 1);
    }

    #[test]
    fn straddler_cancelled_before_grants_releases_slices() {
        // One long-running local session holds region 0's scope; the
        // straddler queues behind it and withdraws before the grant lands.
        let sessions = vec![
            SessionSpec {
                id: 1,
                flips: vec![(0, true)],
                priority: 0,
                submit_at: SimDuration::ZERO,
                cancel_at: None,
            },
            SessionSpec {
                id: 2,
                flips: vec![(0, false), (3, true)],
                priority: 0,
                submit_at: SimDuration::from_millis(1),
                cancel_at: Some(SimDuration::from_millis(4)),
            },
        ];
        let fleet = FleetScenario::new(4, sessions);
        let report = run_fleet_sharded(&ShardScenario::new(fleet, 2), 2);
        let s2 = report.session(2).expect("straddler reported");
        assert!(s2.cancelled && !s2.success, "results: {:?}", report.results);
        assert!(report.session(1).unwrap().success);
        // The withdrawn straddler's slices were released: group 0 moved by
        // session 1 only, group 3 stayed Old.
        assert_eq!(report.final_config, "01010110");
    }

    #[test]
    fn a_withdrawn_straddler_never_undoes_a_committed_flip() {
        // Session 1 flips group 1 and commits long before straddler 2
        // (groups 1 and 3, regions 0 and 1) escalates at 50 ms. Withdrawn
        // while region 0's grant is still on its way back, the straddler
        // never ran, so its release must carry no values: folding the
        // global tier's stale view of group 1 would revert session 1.
        for d_us in [0, 500, 1_000, 1_500, 2_000, 3_000, 5_000] {
            let submit_at = SimDuration::from_millis(50);
            let sessions = vec![
                SessionSpec {
                    id: 1,
                    flips: vec![(1, true)],
                    priority: 0,
                    submit_at: SimDuration::ZERO,
                    cancel_at: None,
                },
                SessionSpec {
                    id: 2,
                    flips: vec![(1, false), (3, true)],
                    priority: 0,
                    submit_at,
                    cancel_at: Some(submit_at + SimDuration::from_micros(d_us)),
                },
            ];
            let report =
                run_fleet_sharded(&ShardScenario::new(FleetScenario::new(4, sessions), 2), 2);
            assert!(report.session(1).unwrap().success, "d = {d_us} µs: {:?}", report.results);
            assert!(report.session(2).unwrap().cancelled, "d = {d_us} µs: {:?}", report.results);
            assert_eq!(report.final_config, "01011001", "d = {d_us} µs: session 1's flip undone");
        }
    }

    #[test]
    fn global_crash_mid_handshake_recovers_straddlers() {
        // Crash the global tier right as session 9's slice chain is being
        // acquired; the journal-driven restore re-drives it under a bumped
        // incarnation and the regions reclaim their old-epoch leases.
        let baseline = run_fleet_sharded(&ShardScenario::new(straddling_fleet(), 2), 2);
        let mut scn = ShardScenario::new(straddling_fleet(), 2);
        scn.crash_global = Some((SimTime::from_micros(5_500), SimTime::from_micros(12_000)));
        let report = run_fleet_sharded(&scn, 2);
        assert_eq!(report.succeeded(), baseline.succeeded(), "results: {:?}", report.results);
        assert_eq!(report.final_config, baseline.final_config);
        assert!(report.restores >= 1, "the global tier restored from its journal");
        assert!(
            !report.global_journal.is_empty(),
            "escalations are journaled ahead of the fabric traffic"
        );
        // Determinism holds across the crash too.
        let again = run_fleet_sharded(&scn, 4);
        assert_eq!(report.fingerprint, again.fingerprint);
        assert_eq!(report.global_journal, again.global_journal);
    }

    #[test]
    fn no_admitted_session_ends_without_a_journaled_outcome() {
        let mut scn = ShardScenario::new(straddling_fleet(), 2);
        scn.fabric_faults = chaotic_faults(3);
        scn.crash_global = Some((SimTime::from_micros(6_000), SimTime::from_micros(14_000)));
        let report = run_fleet_sharded(&scn, 2);
        for r in &report.results {
            assert!(
                r.completed_at.is_some() || r.cancelled,
                "session {} vanished without a terminal verdict: {:?}",
                r.id,
                report.results
            );
        }
    }
}
