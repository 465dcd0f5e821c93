//! The global tier: straddling sessions, their slice-by-slice escalation
//! handshake, and the fabric retransmission ladder.

use std::collections::HashMap;

use sada_expr::CompId;
use sada_obs::{Bus, FleetEvent};
use sada_proto::{GlobalRecord, Wire};
use sada_resilience::{RetryPolicy, RttEstimator};
use sada_simnet::{Actor, ActorId, Context, SimDuration, SimTime, TimerId};

use crate::control::{fleet_event, ControlActor};
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

/// Wrapper timer namespaces. The inner control plane owns `1 << 62` and
/// `1 << 63` plus small dynamic tags; the global tier claims bands in
/// between for the pre-submission lifecycle of straddling sessions and the
/// fabric retransmission ladder.
const TAG_GLOBAL_SUBMIT: u64 = 1 << 61;
const TAG_GLOBAL_CANCEL: u64 = 3 << 60;
const TAG_INNER_BASE: u64 = 1 << 62;
const TAG_FABRIC_BASE: u64 = 1 << 60;

/// Retransmission attempts before the global tier declares a region
/// unreachable. With the adaptive backoff schedule (200 ms doubling to an
/// 800 ms cap) the full ladder spans ≈ 9 virtual seconds — the **lease
/// horizon**: a region silent that long is treated as dead, requests
/// abandon their straddler with a journaled rejection and releases are
/// counted as orphaned (the region's restarted lock table no longer
/// carries the hold anyway).
const MAX_FABRIC_ATTEMPTS: u32 = 12;

/// One timer tag per (straddler, slice, direction): requests and releases
/// retransmit independently.
fn fabric_tag(ix: usize, slice: usize, release: bool) -> u64 {
    TAG_FABRIC_BASE + ((ix as u64) << 12) + ((slice as u64) << 1) + u64::from(release)
}

/// Arms `tag` to fire at the virtual instant `due_us` when that is still
/// ahead; `false` (nothing armed) when it is already due.
fn arm_if_future(ctx: &mut Context<'_, Wire<ShardMsg>>, due_us: u64, tag: u64) -> bool {
    let ahead = due_us.saturating_sub(ctx.now().as_micros());
    if ahead > 0 {
        ctx.set_timer(SimDuration::from_micros(ahead), tag);
    }
    ahead > 0
}

/// An unacknowledged fabric send the retransmission ladder is driving.
/// Volatile: a global-tier crash clears these and the journal-driven
/// restore re-issues whatever still matters under the new incarnation.
pub(crate) struct Outstanding {
    payload: FabricPayload,
    region: u32,
    session: u64,
    attempts: u32,
    timer: TimerId,
    sent_at: u64,
}

/// The thin global tier: a full [`ControlActor`] over its own replica of
/// the fleet's agents, driving only the straddling sessions. Each straddler
/// submits through a lock-escalation handshake — per-region scope slices
/// acquired in ascending region order, grants carrying the regions'
/// authoritative component values, releases carrying the final ones back.
pub(crate) struct GlobalControl {
    pub(crate) inner: ControlActor<ShardMsg>,
    pub(crate) relay: ActorId,
    pub(crate) bus: Bus,
    pub(crate) straddlers: Vec<Straddler>,
    /// Durable: the global tier's write-ahead journal — every irreversible
    /// step of the escalation handshake, written before the fabric
    /// messages it covers.
    pub(crate) global_journal: Vec<GlobalRecord>,
    /// Durable: incarnation number, bumped on restart and stamped into
    /// every fabric message as its epoch.
    pub(crate) incarnation: u64,
    /// Durable counters (they describe history, not in-flight state).
    pub(crate) retransmits: u64,
    pub(crate) abandoned: u64,
    pub(crate) orphaned_releases: u64,
    // Volatile from here down: a crash clears these and the journal-driven
    // restore re-issues whatever still matters under the new incarnation.
    pub(crate) retry: RetryPolicy,
    pub(crate) rtt: HashMap<u32, RttEstimator>,
    pub(crate) outstanding: HashMap<u64, Outstanding>,
}

impl GlobalControl {
    fn emit(&self, ctx: &Context<'_, Wire<ShardMsg>>, session: u64, ev: FleetEvent) {
        self.bus.emit(fleet_event(ctx.now(), ctx.self_id(), session, ev));
    }

    fn send(&self, ctx: &mut Context<'_, Wire<ShardMsg>>, to: u32, payload: FabricPayload) {
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

    /// The retransmission hint for `payload`: releases are pure round
    /// trips, so the per-region RTT estimator times them tightly; requests
    /// wait on lock *queueing* at the region, so they keep the slow
    /// default schedule (a queued grant is not a lost one).
    fn rto_hint(&self, region: u32, payload: &FabricPayload) -> Option<SimDuration> {
        match payload {
            FabricPayload::LockRelease { .. } => self.rtt.get(&region).and_then(RttEstimator::rto),
            _ => None,
        }
    }

    /// Sends `payload` with the retransmission ladder armed under `tag`
    /// (replacing any prior ladder on the same tag).
    fn send_tracked(
        &mut self,
        ctx: &mut Context<'_, Wire<ShardMsg>>,
        tag: u64,
        region: u32,
        payload: FabricPayload,
    ) {
        if let Some(prev) = self.outstanding.remove(&tag) {
            ctx.cancel_timer(prev.timer);
        }
        let session = payload.session();
        let hint = self.rto_hint(region, &payload);
        self.send(ctx, region, payload.clone());
        let delay = self.retry.deadline(0, tag ^ self.incarnation, hint);
        let timer = ctx.set_timer(delay, tag);
        self.outstanding.insert(
            tag,
            Outstanding {
                payload,
                region,
                session,
                attempts: 0,
                timer,
                sent_at: ctx.now().as_micros(),
            },
        );
    }

    /// Retires the ladder under `tag` (the awaited reply arrived).
    fn retire(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>, tag: u64) -> Option<Outstanding> {
        let o = self.outstanding.remove(&tag)?;
        ctx.cancel_timer(o.timer);
        Some(o)
    }

    fn on_fabric_timer(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>, tag: u64) {
        let Some(mut o) = self.outstanding.remove(&tag) else { return };
        o.attempts += 1;
        if o.attempts >= MAX_FABRIC_ATTEMPTS {
            if matches!(o.payload, FabricPayload::LockRelease { .. }) {
                // Past the lease horizon the region's restarted lock table
                // no longer carries the hold; the release is moot.
                self.orphaned_releases += 1;
            } else {
                self.abandon(ctx, o.session, o.region, o.attempts);
            }
            return;
        }
        let hint = self.rto_hint(o.region, &o.payload);
        let salt = tag ^ (u64::from(o.attempts) << 32) ^ self.incarnation;
        let delay = self.retry.deadline(o.attempts, salt, hint);
        self.retransmits += 1;
        self.emit(
            ctx,
            o.session,
            FleetEvent::FabricRetransmit {
                session: o.session,
                region: o.region,
                attempt: o.attempts,
            },
        );
        self.send(ctx, o.region, o.payload.clone());
        o.timer = ctx.set_timer(delay, tag);
        o.sent_at = ctx.now().as_micros();
        self.outstanding.insert(tag, o);
    }

    /// Terminal verdict for a straddler whose request ladder exhausted:
    /// journal the abandonment, conclude the inner session with a clean
    /// rejection, and release the acquired slice prefix.
    fn abandon(
        &mut self,
        ctx: &mut Context<'_, Wire<ShardMsg>>,
        sid: u64,
        region: u32,
        attempts: u32,
    ) {
        let Some(ix) = self.straddlers.iter().position(|s| s.sid == sid) else { return };
        if self.straddlers[ix].phase != Phase::Granting {
            return;
        }
        self.journal_once(GlobalRecord::Abandoned { session: sid, region });
        self.abandoned += 1;
        self.emit(ctx, sid, FleetEvent::StraddlerAbandoned { session: sid, region, attempts });
        self.straddlers[ix].phase = Phase::Cancelled;
        let upto = (self.straddlers[ix].next + 1).min(self.straddlers[ix].slices.len());
        self.release_slices(ctx, ix, upto);
        self.inner.conclude_abandoned(ctx, sid);
    }

    fn request_slice(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>, ix: usize) {
        let s = &self.straddlers[ix];
        let slice_ix = s.next;
        let sl = s.slices[slice_ix].clone();
        let payload = FabricPayload::LockRequest {
            session: s.sid,
            resources: sl.resources,
            comps: sl.comps,
            priority: s.priority,
            epoch: self.incarnation,
        };
        self.send_tracked(ctx, fabric_tag(ix, slice_ix, false), sl.region, payload);
    }

    /// Sends `LockRelease` (final component values included) for the first
    /// `upto` slices of straddler `ix`, skipping slices whose release is
    /// already journaled as acknowledged, and retiring each slice's
    /// request ladder (the release supersedes it).
    fn release_slices(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>, ix: usize, upto: usize) {
        let s = &self.straddlers[ix];
        let sid = s.sid;
        let msgs: Vec<(usize, u32, FabricPayload)> = s.slices[..upto.min(s.slices.len())]
            .iter()
            .enumerate()
            .filter(|(_, sl)| !self.is_released(sid, sl.region))
            .map(|(sx, sl)| {
                let values: Vec<(u32, bool)> = sl
                    .comps
                    .iter()
                    .map(|&c| (c, self.inner.fleet_config.contains(CompId::from_index(c as usize))))
                    .collect();
                (
                    sx,
                    sl.region,
                    FabricPayload::LockRelease { session: sid, epoch: self.incarnation, values },
                )
            })
            .collect();
        for (sx, region, payload) in msgs {
            self.retire(ctx, fabric_tag(ix, sx, false));
            self.send_tracked(ctx, fabric_tag(ix, sx, true), region, payload);
        }
    }

    fn begin(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>, ix: usize) {
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
        ctx: &mut Context<'_, Wire<ShardMsg>>,
        session: u64,
        region: u32,
        epoch: u64,
        values: Vec<(u32, bool)>,
    ) {
        if epoch != self.incarnation {
            return; // a dead incarnation's grant; the re-driven chain re-earns it
        }
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
        self.retire(ctx, fabric_tag(ix, next, false));
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

    fn on_ack(
        &mut self,
        ctx: &mut Context<'_, Wire<ShardMsg>>,
        session: u64,
        region: u32,
        epoch: u64,
    ) {
        if epoch != self.incarnation {
            return;
        }
        let Some((&tag, _)) = self.outstanding.iter().find(|(_, o)| {
            o.session == session
                && o.region == region
                && matches!(o.payload, FabricPayload::LockRelease { .. })
        }) else {
            return; // duplicate ack — the ladder is already retired
        };
        let o = self.retire(ctx, tag).expect("entry just found");
        if o.attempts == 0 {
            // Karn's rule: only never-retransmitted releases time the
            // round trip — an ack for any retransmission is ambiguous.
            let sample = ctx.now().as_micros().saturating_sub(o.sent_at);
            self.rtt.entry(region).or_default().observe(SimDuration::from_micros(sample));
        }
        self.journal_once(GlobalRecord::Released { session, region });
    }

    fn withdraw(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>, ix: usize) {
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
    fn sweep(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>) {
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
    fn restore_straddler(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>, ix: usize) {
        let sid = self.straddlers[ix].sid;
        let mut escalated = false;
        let mut submitted = false;
        let mut terminal = false;
        let mut granted = 0usize;
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
            let due = self.straddlers[ix].submit_at.as_micros();
            if !arm_if_future(ctx, due, TAG_GLOBAL_SUBMIT + ix as u64) {
                self.begin(ctx, ix);
            }
        }
        // Pending/Granting/Running straddlers keep their withdrawal
        // deadline across the crash.
        if matches!(self.straddlers[ix].phase, Phase::Pending | Phase::Granting) {
            if let Some(at) = self.straddlers[ix].cancel_at {
                if !arm_if_future(ctx, at.as_micros(), TAG_GLOBAL_CANCEL + ix as u64) {
                    self.withdraw(ctx, ix);
                }
            }
        }
    }
}

impl Actor<Wire<ShardMsg>> for GlobalControl {
    fn on_start(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>) {
        self.inner.on_start(ctx);
        for ix in 0..self.straddlers.len() {
            ctx.set_timer(self.straddlers[ix].submit_at, TAG_GLOBAL_SUBMIT + ix as u64);
            if let Some(at) = self.straddlers[ix].cancel_at {
                ctx.set_timer(at, TAG_GLOBAL_CANCEL + ix as u64);
            }
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Wire<ShardMsg>>,
        from: ActorId,
        msg: Wire<ShardMsg>,
    ) {
        match msg {
            Wire::App(m) => match m.payload {
                FabricPayload::LockGranted { session, region, epoch, values } => {
                    self.on_granted(ctx, session, region, epoch, values);
                }
                FabricPayload::ReleaseAck { session, region, epoch } => {
                    self.on_ack(ctx, session, region, epoch);
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

    fn on_timer(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>, tag: u64) {
        if !(TAG_FABRIC_BASE..TAG_INNER_BASE).contains(&tag) {
            self.inner.on_timer(ctx, tag);
            self.sweep(ctx);
        } else if tag >= TAG_GLOBAL_CANCEL {
            self.withdraw(ctx, (tag - TAG_GLOBAL_CANCEL) as usize);
        } else if tag >= TAG_GLOBAL_SUBMIT {
            self.begin(ctx, (tag - TAG_GLOBAL_SUBMIT) as usize);
        } else {
            self.on_fabric_timer(ctx, tag);
        }
    }

    fn on_crash(&mut self, now: SimTime) {
        // The durable image — global journal, incarnation, escalation
        // instants, history counters — survives; in-flight ladders and RTT
        // estimates die with the process.
        self.inner.on_crash(now);
        self.outstanding.clear();
        self.rtt.clear();
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>) {
        self.incarnation += 1;
        self.inner.on_restart(ctx);
        // Replay straddlers in journal order (first appearance) so
        // re-driven handshakes hit the fabric in the same order the dead
        // incarnation decided them; never-journaled straddlers follow in
        // scenario order.
        let mut order: Vec<usize> = Vec::new();
        for rec in &self.global_journal {
            let sid = match rec {
                GlobalRecord::Escalated { session, .. } => *session,
                _ => continue,
            };
            if let Some(ix) = self.straddlers.iter().position(|s| s.sid == sid) {
                if !order.contains(&ix) {
                    order.push(ix);
                }
            }
        }
        for ix in 0..self.straddlers.len() {
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
