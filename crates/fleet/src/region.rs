//! A region's control plane: the plain `ControlActor` plus the fabric-facing
//! lock-escalation shim and its origination rule.

use std::collections::{BTreeMap, HashMap};

use sada_expr::CompId;
use sada_obs::FleetEvent;
use sada_proto::ProtoTimer::{self, App};
use sada_proto::Wire;
use sada_simnet::{Actor, ActorId, SimDuration, SimTime};

use crate::control::{ControlActor, Ctx, FleetTimer};
use crate::fabric::{FabricPayload, ShardMsg};

// ---------------------------------------------------------------------------
// Region wrapper
// ---------------------------------------------------------------------------

/// A scope slice held (or queued) in this region on behalf of a globally
/// escalated session.
pub(crate) struct ForeignHold {
    resources: Vec<u32>,
    comps: Vec<u32>,
    priority: u8,
    /// The global-tier incarnation that requested the slice. A request
    /// under a *higher* epoch reclaims the lease (the old incarnation is
    /// dead); requests under a lower epoch are stale duplicates.
    epoch: u64,
    /// `LockGranted` already sent back to the global tier.
    acked: bool,
}

/// Region control plane: the plain [`ControlActor`] plus the fabric-facing
/// lock-escalation shim. Every delegated callback is followed by a sweep
/// that turns newly granted foreign holds into `LockGranted` replies (the
/// inner grant cascade skips ids without a scenario entry).
///
/// Under a lossy fabric the shim is an idempotent receiver: duplicate
/// requests re-grant (the slice's component values cannot change while it
/// is locked, so the grant is byte-identical), duplicate releases re-ack,
/// and a **release tombstone** per session records the highest epoch ever
/// released so a delay-faulted request overtaken by its own release cannot
/// resurrect a hold the global tier no longer tracks.
pub(crate) struct RegionControl {
    pub(crate) inner: ControlActor<ShardMsg>,
    pub(crate) relay: ActorId,
    pub(crate) region_id: u32,
    pub(crate) global_ep: u32,
    pub(crate) foreign: BTreeMap<u64, ForeignHold>,
    /// Release tombstones: session → highest epoch released/cancelled.
    pub(crate) released: HashMap<u64, u64>,
    /// Lease-GC deadlines (virtual μs) for holds that survived a region
    /// crash: if the global tier stays silent past the deadline, the hold
    /// is garbage-collected from the lock table. Any inbound fabric message
    /// for the session re-arms its deadline.
    pub(crate) lease_deadline: HashMap<u64, u64>,
    /// Leases armed so far: a lease timer's slot, which its tag renders.
    pub(crate) leases_armed: u64,
    /// Messages handed to the relay so far ([`RegionControl::send`]). Each
    /// spends one link latency inside the simulator before it surfaces in
    /// the endpoint's outbox; until the two counts meet the region still
    /// *owes* the fabric a message it has already decided to send.
    pub(crate) handed: u64,
}

/// How long a re-seized foreign hold may sit with **zero** fabric traffic
/// before the region declares the global tier's interest dead and reclaims
/// the lock-table entry. Comfortably past the ≈ 9 s span of the global
/// tier's retransmission ladder (`LADDER_ATTEMPTS` in
/// `crates/protocol/src/host.rs`), so a live-but-lossy global tier always
/// makes contact first.
const LEASE_HORIZON_US: u64 = 12_000_000;

impl RegionControl {
    fn grant(&mut self, ctx: &mut Ctx<'_, ShardMsg>, sid: u64) {
        let Some(hold) = self.foreign.get_mut(&sid) else { return };
        hold.acked = true;
        let epoch = hold.epoch;
        let values: Vec<(u32, bool)> = hold
            .comps
            .iter()
            .map(|&c| (c, self.inner.fleet_config.contains(CompId::from_index(c as usize))))
            .collect();
        let region = self.region_id;
        self.send(ctx, FabricPayload::LockGranted { session: sid, region, epoch, values });
    }

    /// Hands `payload` to the relay, addressed to the global tier. The one
    /// place a region puts anything on the fabric.
    fn send(&mut self, ctx: &mut Ctx<'_, ShardMsg>, payload: FabricPayload) {
        self.handed += 1;
        ctx.send(self.relay, Wire::App(ShardMsg { to: self.global_ep, payload }));
    }

    /// The region's **origination bound**: the earliest virtual instant at
    /// which it could put a message on the fabric *without first receiving
    /// one* (reactions to arrivals are the executor's business — it bounds
    /// them by the arrivals themselves).
    ///
    /// A region sends only `LockGranted` and `ReleaseAck`, and only from
    /// five sites. Three answer an arrival on the spot (`on_fabric`: the
    /// grant of a fresh request whose slice is free, the re-grant of a
    /// retransmitted one whose slice is held, the ack of a release). The
    /// other two — the `sweep` after every callback and the
    /// `unlock` cascade behind a release, a cancel or an expired lease —
    /// grant only a *queued* foreign hold, one whose `acked` flag is still
    /// down. So with no un-acked hold no local event can make the region
    /// speak, and the bound is "never"; with one, any local event might
    /// free the slice, and the bound is the next of them. A reply already
    /// handed to the relay but not yet `surfaced` in the outbox is owed
    /// too: `grant` raises `acked` one link latency before the message
    /// reaches the fabric, and its delivery to the relay is a local event.
    pub(crate) fn origination_bound(&self, next_event_us: u64, surfaced: u64) -> u64 {
        let owes = self.handed != surfaced || self.foreign.values().any(|h| !h.acked);
        if owes {
            next_event_us
        } else {
            u64::MAX
        }
    }

    /// Drops `session`'s lock-table entry — released if it was held,
    /// cancelled if still queued — and runs the grant cascade that frees:
    /// foreign waiters get their `LockGranted`, local ones are admitted.
    fn unlock(&mut self, ctx: &mut Ctx<'_, ShardMsg>, session: u64, was_held: bool) {
        let granted = if was_held {
            self.inner.locks_mut().release(session)
        } else {
            self.inner.locks_mut().cancel(session).unwrap_or_default()
        };
        for g in granted {
            if self.foreign.contains_key(&g) {
                self.grant(ctx, g);
            } else {
                self.inner.admit_granted(ctx, g);
            }
        }
    }

    /// `(session, resources, priority)` of the foreign holds whose grant
    /// has (`acked`) or has not yet been sent.
    fn holds(&self, acked: bool) -> Vec<(u64, Vec<u32>, u8)> {
        self.foreign
            .iter()
            .filter(|(_, h)| h.acked == acked)
            .map(|(&s, h)| (s, h.resources.clone(), h.priority))
            .collect()
    }

    fn sweep(&mut self, ctx: &mut Ctx<'_, ShardMsg>) {
        let pending: Vec<u64> =
            self.foreign.iter().filter(|(_, h)| !h.acked).map(|(&s, _)| s).collect();
        for sid in pending {
            if self.inner.locks_mut().is_held(sid) {
                self.grant(ctx, sid);
            }
        }
    }

    /// (Re-)arms the lease-GC deadline for `session`: one horizon of global
    /// silence from now. A superseded lease timer fires against a newer
    /// deadline and no-ops.
    fn arm_lease(&mut self, ctx: &mut Ctx<'_, ShardMsg>, session: u64) {
        self.lease_deadline.insert(session, ctx.now().as_micros() + LEASE_HORIZON_US);
        let slot = self.leases_armed;
        self.leases_armed += 1;
        let lease = App(FleetTimer::Lease { slot, session });
        ctx.set_timer(SimDuration::from_micros(LEASE_HORIZON_US), lease);
    }

    /// Garbage-collects a foreign hold whose lease ran out: tombstone the
    /// epoch, drop the lock-table entry (held or still queued), and run the
    /// same grant cascade a `LockRelease` would have. Values are **not**
    /// folded — they only ever flow through an acked release; past the
    /// horizon the region's own durable state is authoritative.
    fn expire_lease(&mut self, ctx: &mut Ctx<'_, ShardMsg>, session: u64) {
        let Some(hold) = self.foreign.remove(&session) else { return };
        self.lease_deadline.remove(&session);
        let t = self.released.entry(session).or_insert(0);
        *t = (*t).max(hold.epoch);
        self.inner.emit_fleet(
            ctx,
            session,
            FleetEvent::LeaseExpired { session, region: self.region_id },
        );
        let was_held = self.inner.locks_mut().is_held(session);
        self.unlock(ctx, session, was_held);
    }

    fn on_fabric(&mut self, ctx: &mut Ctx<'_, ShardMsg>, payload: FabricPayload) {
        // Any word from the global tier about a lease-watched session
        // renews its deadline: GC targets *silence*, not slowness.
        if self.lease_deadline.contains_key(&payload.session()) {
            self.arm_lease(ctx, payload.session());
        }
        match payload {
            FabricPayload::LockRequest { session, resources, comps, priority, epoch } => {
                // Tombstone first: a delayed/duplicated request whose
                // release already landed must not resurrect the hold.
                if self.released.get(&session).is_some_and(|&e| e >= epoch) {
                    return;
                }
                if let Some(hold) = self.foreign.get_mut(&session) {
                    match epoch.cmp(&hold.epoch) {
                        std::cmp::Ordering::Less => {} // stale duplicate
                        std::cmp::Ordering::Greater => {
                            // The global tier restarted: the lease survives
                            // under the new incarnation. Un-ack it so the
                            // caller's sweep re-grants (idempotently — the
                            // slice stayed locked, so its values are
                            // unchanged) with the new epoch.
                            hold.epoch = epoch;
                            hold.acked = false;
                            self.inner.emit_fleet(
                                ctx,
                                session,
                                FleetEvent::LeaseReclaimed {
                                    session,
                                    region: self.region_id,
                                    epoch,
                                },
                            );
                        }
                        std::cmp::Ordering::Equal => {
                            // Retransmitted request: if the slice is held
                            // its grant was lost — re-send it. If it is
                            // still queued the sweep grants when ready.
                            if self.inner.locks_mut().is_held(session) {
                                self.grant(ctx, session);
                            }
                        }
                    }
                    return;
                }
                let held = self.inner.locks_mut().try_acquire(session, &resources, priority);
                self.foreign.insert(
                    session,
                    ForeignHold { resources, comps, priority, epoch, acked: false },
                );
                if held {
                    self.grant(ctx, session);
                }
            }
            FabricPayload::LockRelease { session, epoch, values } => {
                // Always ack (echoing the release's epoch) so the global
                // tier retires the right retransmission ladder — even for
                // an unknown session, where the release itself is the only
                // state we ever had.
                let region = self.region_id;
                self.send(ctx, FabricPayload::ReleaseAck { session, region, epoch });
                let Some(hold) = self.foreign.get(&session) else {
                    let t = self.released.entry(session).or_insert(0);
                    *t = (*t).max(epoch);
                    return;
                };
                if epoch < hold.epoch {
                    return; // a dead incarnation's release; the live one decides
                }
                let t = self.released.entry(session).or_insert(0);
                *t = (*t).max(epoch);
                let was_held = self.inner.locks_mut().is_held(session);
                if was_held {
                    // Fold final values only out of a *held* slice (a
                    // straddler that never ran releases with none).
                    self.inner
                        .fold(values.into_iter().map(|(c, v)| (CompId::from_index(c as usize), v)));
                }
                self.foreign.remove(&session);
                self.lease_deadline.remove(&session);
                self.unlock(ctx, session, was_held);
            }
            // Regions never receive grants or acks.
            FabricPayload::LockGranted { .. } | FabricPayload::ReleaseAck { .. } => {}
        }
    }
}

impl Actor<Wire<ShardMsg>, ProtoTimer<FleetTimer>> for RegionControl {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ShardMsg>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, ShardMsg>, from: ActorId, msg: Wire<ShardMsg>) {
        match msg {
            Wire::App(m) => self.on_fabric(ctx, m.payload),
            other => self.inner.on_message(ctx, from, other),
        }
        self.sweep(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ShardMsg>, timer: ProtoTimer<FleetTimer>) {
        if let App(FleetTimer::Lease { session, .. }) = timer {
            // Expire only if this timer still carries the session's
            // *current* deadline (re-arms leave stale timers behind, which
            // no-op here).
            let now = ctx.now().as_micros();
            if self.lease_deadline.get(&session).is_some_and(|&dl| now >= dl) {
                self.expire_lease(ctx, session);
            }
        } else {
            self.inner.on_timer(ctx, timer);
        }
        self.sweep(ctx);
    }

    fn on_crash(&mut self, now: SimTime) {
        // Foreign-hold bookkeeping is wrapper state and survives the crash
        // (the global tier journals the escalation on its side); the inner
        // volatile image — including the lock table — dies. Lease timers
        // die with the crash; restart re-arms them.
        self.lease_deadline.clear();
        self.inner.on_crash(now);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, ShardMsg>) {
        // Re-seize granted escalations *before* journal replay, so restored
        // or requeued local sessions cannot steal the slices. Granted holds
        // are disjoint from local in-flight scopes (they were concurrently
        // held when the plane died), so both re-acquisitions must succeed.
        for (sid, res, prio) in self.holds(true) {
            let got = self.inner.locks_mut().try_acquire(sid, &res, prio);
            assert!(got, "escalated holds are disjoint from local in-flight scopes");
        }
        self.inner.on_restart(ctx);
        // Still-queued escalation requests rejoin the queue (or are granted
        // outright if the crash resolved their conflict).
        for (sid, res, prio) in self.holds(false) {
            self.inner.locks_mut().try_acquire(sid, &res, prio);
        }
        // Every surviving hold gets a lease: if its global ladder already
        // gave up while we were dead (an orphaned release / abandoned
        // request), no fabric traffic will ever arrive to clear it — the
        // deadline reclaims the lock-table entry instead of leaking it.
        let sessions: Vec<u64> = self.foreign.keys().copied().collect();
        for sid in sessions {
            self.arm_lease(ctx, sid);
        }
        self.sweep(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{disjoint_wave, FleetScenario};
    use crate::fabric::{Fabric, FabricEnvelope, FabricFaultPlan};
    use crate::shard::{build_endpoint, Endpoint, EndpointPlan};

    /// Region 0 of a two-region fleet as a bare endpoint, the test playing
    /// the global tier by hand: it mails requests onto the inbound edge and
    /// advances that edge's promise one quantum at a time.
    struct LoneRegion {
        ep: Endpoint,
        fabric: Fabric,
        /// Group 0's lock scope and components, as a slice request names them.
        resources: Vec<u32>,
        comps: Vec<u32>,
    }

    const GLOBAL: u32 = 2;
    const QUANTUM_US: u64 = 1_000;

    impl LoneRegion {
        /// One local session (id 1) takes group 0 at time zero.
        fn new(crash: Option<(SimTime, SimTime)>) -> Self {
            let fleet = FleetScenario::new(4, disjoint_wave(1, 1));
            assert_eq!(fleet.link_latency.as_micros(), QUANTUM_US);
            let world = fleet.build_world();
            let comps = world.scope_comps(&[(0, true)]);
            let plan = EndpointPlan {
                id: 0,
                specs: fleet.sessions.clone(),
                straddlers: Vec::new(),
                inbound: vec![GLOBAL],
                outbound: vec![GLOBAL],
                owned_groups: 0..2,
                crash,
                is_global: false,
            };
            LoneRegion {
                resources: world.resources_for(&comps),
                comps: comps.iter().map(|c| c.index() as u32).collect(),
                ep: build_endpoint(&fleet, world, 2, 1_000_000, plan),
                fabric: Fabric::new(&[0], GLOBAL, QUANTUM_US, FabricFaultPlan::default(), true),
            }
        }

        /// Mails a request for group 0 under `session`, arriving at `arrival_us`.
        fn request(&self, session: u64, arrival_us: u64) {
            let payload = FabricPayload::LockRequest {
                session,
                resources: self.resources.clone(),
                comps: self.comps.clone(),
                priority: 0,
                epoch: 0,
            };
            let mut st = self.fabric.state.lock().unwrap();
            let edge = st.edges.get_mut(&(GLOBAL, 0)).unwrap();
            edge.mail.push(FabricEnvelope { arrival_us, src: GLOBAL, seq: edge.next_seq, payload });
            edge.next_seq += 1;
        }

        /// Promises silence on the inbound edge before `us` and lets the
        /// endpoint run as far as that allows.
        fn run_to_promise(&mut self, us: u64) {
            self.fabric.state.lock().unwrap().edges.get_mut(&(GLOBAL, 0)).unwrap().promise_us = us;
            while self.ep.step(&self.fabric) {}
        }

        fn control(&self) -> &RegionControl {
            self.ep.plane.sim.actor(self.ep.plane.control_id).expect("region control at rest")
        }

        fn next_event_us(&self) -> u64 {
            self.ep.plane.sim.next_event_at().map_or(u64::MAX, |t| t.as_micros())
        }

        /// What the region has put on the fabric so far.
        fn sent(&self) -> Vec<FabricPayload> {
            let st = self.fabric.state.lock().unwrap();
            st.edges[&(0, GLOBAL)].mail.iter().map(|env| env.payload.clone()).collect()
        }

        /// The region's own promise to the global tier.
        fn promise_us(&self) -> u64 {
            self.fabric.state.lock().unwrap().edges[&(0, GLOBAL)].promise_us
        }
    }

    /// The origination rule, state by state: a region busy with its own
    /// session promises silence; a queued foreign request makes it owe; so
    /// does a grant on its way to the relay; once the grant is on the
    /// fabric it owes nothing again.
    #[test]
    fn a_region_owes_exactly_while_a_hold_is_queued_or_a_reply_is_in_flight() {
        let mut r = LoneRegion::new(None);
        // Session 1 is mid-protocol: plenty of local events, nothing owed.
        r.run_to_promise(2 * QUANTUM_US);
        assert!(r.next_event_us() < u64::MAX, "the local session is still running");
        assert_eq!(r.ep.origination_bound(), u64::MAX);
        assert_eq!(r.promise_us(), 3 * QUANTUM_US, "one latency past what it was promised");

        // A foreign request for the slice session 1 holds: queued, un-acked.
        r.request(9, 3 * QUANTUM_US);
        r.run_to_promise(4 * QUANTUM_US);
        assert!(r.control().foreign.get(&9).is_some_and(|h| !h.acked), "queued behind session 1");
        assert_eq!(r.ep.origination_bound(), r.next_event_us());
        assert!(r.promise_us() <= r.fabric.arrival_of(r.next_event_us()));

        // Walk on until session 1 finishes and the sweep grants the hold:
        // `acked` goes up a link latency before the grant surfaces.
        let mut promise = 4 * QUANTUM_US;
        while !r.control().foreign[&9].acked {
            promise += QUANTUM_US;
            assert!(promise < 200 * QUANTUM_US, "session 1 never released group 0");
            r.run_to_promise(promise);
        }
        assert_eq!((r.control().handed, r.ep.surfaced), (1, 0), "handed to the relay, in flight");
        assert!(r.sent().is_empty());
        assert_eq!(r.ep.origination_bound(), r.next_event_us());
        assert!(
            r.next_event_us() < promise + QUANTUM_US,
            "its delivery to the relay is that event"
        );

        // It surfaces: the region has said all it had to say.
        r.run_to_promise(promise + QUANTUM_US);
        assert_eq!((r.control().handed, r.ep.surfaced), (1, 1));
        assert!(matches!(r.sent()[..], [FabricPayload::LockGranted { session: 9, .. }]));
        assert_eq!(r.ep.origination_bound(), u64::MAX);
    }

    /// A crash loses the lock table, not the wrapper's foreign holds: a
    /// request that was queued when the region died rejoins the queue on
    /// restart, so the region owes from its first instant back.
    #[test]
    fn a_restarted_region_owes_for_the_hold_that_was_queued_when_it_died() {
        let (crash, restart) = (SimTime::from_micros(4_500), SimTime::from_micros(7_500));
        let mut r = LoneRegion::new(Some((crash, restart)));
        r.request(9, 3 * QUANTUM_US);
        r.run_to_promise(4 * QUANTUM_US);
        assert!(r.control().foreign.get(&9).is_some_and(|h| !h.acked), "queued behind session 1");
        // Dead: nothing runs, but what it owed it still owes.
        r.run_to_promise(7 * QUANTUM_US);
        assert!(r.ep.plane.sim.is_crashed(r.ep.plane.control_id));
        assert_eq!(r.ep.origination_bound(), r.next_event_us());
        assert_eq!(r.next_event_us(), restart.as_micros());
        // Back: session 1 is restored over its scope, the hold behind it.
        r.run_to_promise(8 * QUANTUM_US);
        assert!(!r.ep.plane.sim.is_crashed(r.ep.plane.control_id));
        assert!(!r.control().foreign[&9].acked, "queued again behind the restored session");
        assert_eq!(r.ep.origination_bound(), r.next_event_us());
        assert!(r.next_event_us() < u64::MAX);
        // And the grant still comes.
        let mut promise = 8 * QUANTUM_US;
        while r.sent().is_empty() {
            promise += QUANTUM_US;
            assert!(promise < 400 * QUANTUM_US, "the queued hold was never granted");
            r.run_to_promise(promise);
        }
        assert!(matches!(r.sent()[..], [FabricPayload::LockGranted { session: 9, .. }]));
        assert_eq!(r.ep.origination_bound(), u64::MAX);
    }
}
