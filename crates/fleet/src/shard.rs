//! Sharded control plane: the fleet runtime split across OS threads with a
//! deterministic cross-shard fabric.
//!
//! [`run_fleet`](crate::run_fleet) drives the whole fleet through one
//! control plane on one thread. This module runs *many* of that same plane
//! as **shards**: the group space is cut into `regions` contiguous blocks,
//! and each region is one [`build_plane`] — its own simulator, its own
//! agents, its own [`ControlActor`](crate::ControlActor) (scope-lock domain, plan cache, journal)
//! — pumped by a real OS thread. Regions are independent failure domains
//! that own their *mutable* state; the design-time component model — the
//! compiled [`FleetWorld`] — is built once per run on the calling thread
//! and read by every endpoint thread through a shared handle.
//! Sessions whose scope stays inside one region never
//! synchronize with anything; sessions that straddle regions escalate to a
//! thin **global tier** that acquires per-region scope slices over the
//! fabric before running the full protocol.
//!
//! ## Determinism
//!
//! The whole point of the refactor is that parallelism must not perturb
//! behavior: the same scenario at 1, 2, 4, or 8 worker threads produces
//! bit-for-bit identical final configurations, journals, and event streams.
//! Three mechanisms carry that guarantee:
//!
//! * **Fixed logical partition.** `regions` is part of the scenario, not of
//!   the execution; worker threads multiplex endpoints (`endpoint id %
//!   threads`), so thread count never changes which simulator owns what.
//! * **Deterministic fabric merge.** Cross-shard messages are timestamped
//!   at the sender, mapped to a quantized virtual arrival instant, and
//!   injected into the receiver sorted by `(arrival, source shard, per-edge
//!   sequence)` — wall-clock interleaving cannot reorder them.
//! * **Conservative virtual clocks.** Each endpoint advances only as far as
//!   every inbound fabric edge *promises* silence (a null-message protocol
//!   with one fabric latency of lookahead). What an endpoint promises is
//!   derived from the lock protocol, not from its simulator's queue: its
//!   **origination bound** is the earliest instant it could put a message
//!   on the fabric without first receiving one. A region that owes the
//!   global tier nothing — no queued foreign request, no reply still on its
//!   way to the relay — originates nothing, whatever its local sessions
//!   do, and promises silence dynamically; regions no straddler touches
//!   have no fabric edge at all. Straddler-free *moments*, not only
//!   straddler-free workloads, free-run.
//!
//! Each endpoint *is* the plane [`run_fleet`](crate::run_fleet) runs — the
//! same `build_plane` / `Plane::read` / `Plane::distill` code, with the
//! control actor wrapped in a fabric shim and an idle fabric relay
//! registered after it — so a `regions = 1` run is event-identical (modulo
//! shard tags) to the unsharded driver by construction; what the identity
//! tests pin is that the executor and the report merge add nothing on top.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::rc::Rc;
use std::time::{Duration, Instant};

use sada_expr::Config;
use sada_obs::{fingerprint_jsonl, Counts, Event, FleetEvent, Kind};
use sada_proto::{encode_global_journal, Wire};
use sada_resilience::jitter_us;
use sada_simnet::{ActorId, SimDuration, SimTime};

use crate::control::{fleet_event, SessionSpec};
use crate::driver::{
    build_plane, find_session, lap, makespan_us, max_concurrent, FleetScenario, Phases, Plane,
    PlaneOutcome, SessionResult,
};
use crate::fabric::{
    fault_salt, Fabric, FabricEnvelope, FabricFaultPlan, FabricPayload, FabricRelay, FabricStats,
    Outbox, ShardMsg, SALT_DELAY, SALT_DELAY_AMT, SALT_DROP, SALT_DUP, SALT_NULL,
};
use crate::global::{GlobalControl, Phase, Slice, Straddler};
use crate::region::RegionControl;
use crate::world::{push_range, Block, CompiledWorld, FleetWorld};

/// Endpoint-seed stride (the 64-bit golden ratio), so endpoint 0 keeps the
/// scenario seed (the `regions = 1` ≡ `run_fleet` equivalence) while the
/// rest get decorrelated streams.
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// A sharded fleet experiment: the underlying scenario plus the logical
/// partition, crash faults targeting one region and/or the global tier, and
/// a seeded chaos plan for the cross-shard fabric itself.
#[derive(Debug, Clone)]
pub struct ShardScenario {
    /// The fleet workload (groups, sessions, timing, resilience).
    pub fleet: FleetScenario,
    /// Number of regions the group space is cut into (contiguous blocks).
    /// Part of the *scenario*: results are invariant in worker threads, not
    /// in region count.
    pub regions: usize,
    /// Crash/restart instants for one region's control plane.
    pub crash_region: Option<(usize, SimTime, SimTime)>,
    /// Crash/restart instants for the global (straddler) tier's control
    /// plane. Ignored by workloads without straddlers — no global endpoint
    /// exists to crash.
    pub crash_global: Option<(SimTime, SimTime)>,
    /// Seeded fault plan for fabric messages (drop / duplicate /
    /// delay-burst / null-message suppression). Part of the scenario, so a
    /// lossy run is exactly as deterministic as a lossless one.
    pub fabric_faults: FabricFaultPlan,
}

impl ShardScenario {
    /// Wraps `fleet` in a `regions`-way partition with no fault plan.
    pub fn new(fleet: FleetScenario, regions: usize) -> Self {
        ShardScenario {
            fleet,
            regions,
            crash_region: None,
            crash_global: None,
            fabric_faults: FabricFaultPlan::default(),
        }
    }

    /// The region owning `group`: contiguous ascending blocks whose sizes
    /// differ by at most one group. Which blocks get the extra group when
    /// the division is uneven follows the rounding of `group * regions /
    /// groups`, not position: 10 groups in 4 regions split 3/2/3/2.
    pub(crate) fn region_of(&self, group: usize) -> usize {
        group * self.regions / self.fleet.groups.max(1)
    }

    /// The groups region `region` owns — the inverse of
    /// [`ShardScenario::region_of`].
    pub(crate) fn region_block(&self, region: usize) -> Range<usize> {
        let first = |r: usize| (r * self.fleet.groups).div_ceil(self.regions.max(1));
        first(region)..first(region + 1)
    }

    /// Checks what [`run_fleet_sharded`] requires of a scenario, naming the
    /// first rule it breaks.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let (fleet, regions) = (&self.fleet, self.regions);
        let rules = [
            (regions >= 1 && regions <= fleet.groups.max(1), "1 ≤ regions ≤ groups"),
            (
                fleet.crash_control.is_none(),
                "fleet.crash_control set: use crash_region/crash_global",
            ),
            (
                fleet.faults.is_empty(),
                "fleet.faults set: use crash_region/crash_global/fabric_faults",
            ),
            (!fleet.serialize, "fleet.serialize set: the serial baseline is inherently unsharded"),
            (self.crash_region.is_none_or(|(r, _, _)| r < regions), "crash_region out of range"),
        ];
        match rules.iter().find(|(holds, _)| !holds) {
            Some((_, rule)) => Err(format!("{rule} ({regions} regions, {} groups)", fleet.groups)),
            None => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Endpoints and the conservative executor
// ---------------------------------------------------------------------------

/// Everything a worker thread needs to *build* one endpoint — plain data,
/// since simulators are constructed inside the owning thread. Moved into
/// the worker and consumed by [`build_endpoint`].
pub(crate) struct EndpointPlan {
    pub(crate) id: u32,
    pub(crate) specs: Vec<SessionSpec>,
    /// Straddling sessions in their pristine state (global tier only).
    pub(crate) straddlers: Vec<Straddler>,
    pub(crate) inbound: Vec<u32>,
    pub(crate) outbound: Vec<u32>,
    /// The region's block of groups (empty for the global tier).
    pub(crate) owned_groups: Range<usize>,
    pub(crate) crash: Option<(SimTime, SimTime)>,
    pub(crate) is_global: bool,
}

/// One endpoint (a region or the global tier) under conservative
/// execution: a [`Plane`] plus its fabric-facing state.
pub(crate) struct Endpoint {
    pub(crate) id: u32,
    pub(crate) shard_tag: u32,
    /// Agents the plane hosts.
    pub(crate) agents: usize,
    pub(crate) plane: Plane<ShardMsg>,
    pub(crate) relay_id: ActorId,
    pub(crate) outbox: Outbox,
    pub(crate) inbound: Vec<u32>,
    pub(crate) outbound: Vec<u32>,
    pub(crate) staged: BTreeMap<u64, Vec<FabricEnvelope>>,
    pub(crate) ran_to_us: u64,
    pub(crate) budget_us: u64,
    pub(crate) done: bool,
    /// Messages drained from the outbox so far — the other side of
    /// [`RegionControl::handed`].
    pub(crate) surfaced: u64,
    /// The lower bound on any later send instant that the last `flush`
    /// derived its promise from; what surfaces afterwards is checked
    /// against it (debug builds).
    pub(crate) promised_lb: u64,
    /// Components whose final values this endpoint is authoritative for:
    /// the full membership of every owned cluster, as ascending disjoint
    /// ranges of ids.
    pub(crate) owned_comps: Vec<Range<usize>>,
    pub(crate) is_global: bool,
}

/// What an endpoint hosts, as ascending disjoint ranges: the agents it can
/// engage — those of its own clusters, and those its own sessions' scopes
/// reach (collaborative-set expansion may leave the cluster, and for the
/// global tier there is nothing else) — and the components of its clusters.
pub(crate) fn hosting(
    world: &CompiledWorld,
    owned_groups: Range<usize>,
    specs: &[SessionSpec],
) -> Block {
    let Block { comps, mut agents } = world.block(owned_groups);
    // A scope is a union of sets, so one expansion serves every spec.
    let flips: Vec<_> = specs.iter().flat_map(|s| s.flips.iter().copied()).collect();
    let reached = world.scope_comps(&flips).into_iter().filter_map(|c| world.agent_for(c));
    agents.extend(reached.map(|a| a..a + 1));
    agents.sort_unstable_by_key(|r| r.start);
    let mut hosted = Vec::new();
    agents.into_iter().for_each(|r| push_range(&mut hosted, r));
    Block { comps, agents: hosted }
}

pub(crate) fn build_endpoint(
    scn: &FleetScenario,
    world: FleetWorld,
    regions: usize,
    budget_us: u64,
    plan: EndpointPlan,
) -> Endpoint {
    let seed = scn.seed.wrapping_add(u64::from(plan.id).wrapping_mul(SEED_STRIDE));
    let shard_tag = plan.id + 1;
    let Block { comps: owned_comps, agents: hosted } =
        hosting(&world, plan.owned_groups, &plan.specs);
    let agents = hosted.iter().map(Range::len).sum();
    // The fabric relay takes the slot after the control plane.
    let relay_of = |control_id: ActorId| ActorId::from_index(control_id.index() + 1);
    let mut plane = if plan.is_global {
        let (specs, crash) = (plan.specs, plan.crash);
        build_plane(scn, world, hosted, seed, shard_tag, specs, crash, |mut inner, id| {
            inner.host.ladder.jitter_seed = scn.seed ^ 0x05AD_AFAB;
            let global = GlobalControl {
                inner,
                relay: relay_of(id),
                straddlers: plan.straddlers,
                global_journal: Vec::new(),
                orphaned_releases: 0,
            };
            ("global-control", global)
        })
    } else {
        let (specs, crash) = (plan.specs, plan.crash);
        build_plane(scn, world, hosted, seed, shard_tag, specs, crash, |inner, id| {
            let region = RegionControl {
                inner,
                relay: relay_of(id),
                region_id: plan.id,
                global_ep: regions as u32,
                foreign: BTreeMap::new(),
                released: HashMap::new(),
                lease_deadline: HashMap::new(),
                leases_armed: 0,
                handed: 0,
            };
            ("control", region)
        })
    };
    let relay_id = relay_of(plane.control_id);
    let outbox: Outbox = Rc::new(RefCell::new(Vec::new()));
    let got = plane.sim.add_actor("fabric-relay", FabricRelay { outbox: Rc::clone(&outbox) });
    assert_eq!(got, relay_id, "fabric relay must sit after the control plane");

    Endpoint {
        id: plan.id,
        shard_tag,
        agents,
        relay_id,
        outbox,
        inbound: plan.inbound,
        outbound: plan.outbound,
        staged: BTreeMap::new(),
        ran_to_us: 0,
        budget_us,
        done: false,
        surfaced: 0,
        promised_lb: 0,
        owned_comps,
        is_global: plan.is_global,
        plane,
    }
}

impl Endpoint {
    fn run_to(&mut self, us: u64) -> bool {
        if us <= self.ran_to_us && !(us == 0 && self.ran_to_us == 0 && !self.done) {
            return false;
        }
        self.plane.sim.run_until(SimTime::from_micros(us));
        let progressed = us > self.ran_to_us;
        self.ran_to_us = us.max(self.ran_to_us);
        progressed
    }

    /// One conservative scheduling step: drain inbound fabric mail, inject
    /// every arrival-complete batch at its quantized instant (sorted by
    /// `(src, seq)`), and advance local virtual time to the horizon every
    /// inbound promise allows. Returns whether anything moved.
    pub(crate) fn step(&mut self, fabric: &Fabric) -> bool {
        let mut progressed = false;
        let safe = {
            let mut st = fabric.state.lock().unwrap();
            for &src in &self.inbound {
                let e = st.edges.get_mut(&(src, self.id)).expect("active inbound edge");
                for env in e.mail.drain(..) {
                    self.staged.entry(env.arrival_us).or_default().push(env);
                }
            }
            // GVT bookkeeping: mail leaves the globally visible mailboxes
            // here, so in the *same* critical section fold its earliest
            // arrival into this endpoint's published bound — an envelope
            // is never invisible to a concurrent `gvt()` scan.
            if fabric.fastpath && !self.outbound.is_empty() {
                if let Some(&t) = self.staged.keys().next() {
                    let b = st.local_bound.entry(self.id).or_insert(0);
                    *b = (*b).min(t);
                }
            }
            self.inbound
                .iter()
                .map(|&src| st.edges[&(src, self.id)].promise_us)
                .min()
                .unwrap_or(u64::MAX)
        };
        loop {
            let next_batch = self.staged.keys().next().copied();
            if let Some(t) = next_batch {
                // A batch is complete once every inbound edge promises no
                // further arrival at or before it.
                if t <= self.budget_us && safe > t {
                    if t > 0 {
                        self.run_to(t - 1);
                    }
                    let mut batch = self.staged.remove(&t).expect("just peeked");
                    batch.sort_by_key(|e| (e.src, e.seq));
                    let now = self.plane.sim.now().as_micros();
                    // An arrival behind the receiver's clock means some
                    // sender broke its promise. Stop here: wrapping the
                    // delay would schedule the batch ~584 000 years out
                    // and the messages would silently vanish.
                    let delay = t.checked_sub(now).unwrap_or_else(|| {
                        panic!(
                            "violated promise: endpoint {} already at {now} μs received an \
                             arrival for {t} μs from endpoint(s) {:?}",
                            self.id,
                            batch.iter().map(|e| e.src).collect::<BTreeSet<u32>>()
                        )
                    });
                    let msgs: Vec<Wire<ShardMsg>> = batch
                        .into_iter()
                        .map(|env| Wire::App(ShardMsg { to: self.id, payload: env.payload }))
                        .collect();
                    self.plane.sim.inject_batch(
                        self.relay_id,
                        self.plane.control_id,
                        msgs,
                        SimDuration::from_micros(delay),
                    );
                    progressed = true;
                    continue;
                }
            }
            let mut horizon = self.budget_us;
            if let Some(t) = next_batch {
                horizon = horizon.min(t.saturating_sub(1));
            }
            horizon = horizon.min(safe.saturating_sub(1));
            progressed |= self.run_to(horizon);
            break;
        }
        progressed |= self.flush(fabric, safe);
        if !self.done
            && self.ran_to_us >= self.budget_us
            && self.staged.keys().next().is_none_or(|&t| t > self.budget_us)
            && safe > self.budget_us
        {
            self.done = true;
            progressed = true;
        }
        progressed
    }

    /// The wrapper's origination bound at the simulator's current state:
    /// the earliest instant this endpoint could send *unprovoked*. The
    /// simulator's next event is an input to the wrapper's rule and to
    /// nothing else — no promise reads the queue directly. A wrapper that
    /// cannot be asked (checked out mid-callback) reads as "owes".
    pub(crate) fn origination_bound(&self) -> u64 {
        let sim = &self.plane.sim;
        let next_event_us = sim.next_event_at().map_or(u64::MAX, |t| t.as_micros());
        let bound = if self.is_global {
            sim.actor::<GlobalControl>(self.plane.control_id)
                .map(|g| g.origination_bound(next_event_us))
        } else {
            sim.actor::<RegionControl>(self.plane.control_id)
                .map(|r| r.origination_bound(next_event_us, self.surfaced))
        };
        bound.unwrap_or(next_event_us)
    }

    /// Publishes outbox messages and refreshed arrival promises. The
    /// promise is the null message of the conservative protocol: arrival
    /// instant of the earliest message this endpoint could still send —
    /// unprovoked (its wrapper's origination bound), in reaction to a
    /// staged inbound arrival, or in reaction to one its own inbound edges
    /// have yet to deliver.
    ///
    /// The fault plan is applied here, at the sender, as messages enter the
    /// fabric: drops consume the sequence number without mailing, delays
    /// push the arrival to a later quantum boundary (reordering it behind
    /// later sends), duplicates mail a second envelope one quantum later.
    /// Every decision is a pure hash of `(seed, src, dst, seq)`, so the
    /// lossy schedule is part of the scenario, not the execution.
    fn flush(&mut self, fabric: &Fabric, safe: u64) -> bool {
        if self.outbound.is_empty() {
            debug_assert!(self.outbox.borrow().is_empty(), "fabric send without an active edge");
            return false;
        }
        let out: Vec<(u32, u64, FabricPayload)> = self.outbox.borrow_mut().drain(..).collect();
        self.surfaced += out.len() as u64;
        let origination = self.origination_bound();
        let next_staged = self.staged.keys().next().copied().unwrap_or(u64::MAX);
        let lb = origination.min(next_staged).min(safe);
        let mut progressed = false;
        let faults = &fabric.faults;
        let quantum = fabric.quantum_us;
        let mut fault_events: Vec<Event> = Vec::new();
        let mut st = fabric.state.lock().unwrap();
        for (dst, send_us, payload) in out {
            debug_assert!(
                send_us >= self.promised_lb,
                "endpoint {} sent at {send_us} μs after bounding its sends by {} μs: {payload:?}",
                self.id,
                self.promised_lb
            );
            let e = st.edges.get_mut(&(self.id, dst)).expect("fabric send on an inactive edge");
            debug_assert!(
                fabric.arrival_of(send_us) >= e.promise_us,
                "endpoint {} → {dst}: a send at {send_us} μs arrives before the promised {} μs",
                self.id,
                e.promise_us
            );
            let seq = e.next_seq;
            e.next_seq += 1;
            e.sent += 1;
            let mut arrival_us = fabric.arrival_of(send_us);
            if faults.is_active() && faults.armed_at(send_us) {
                if faults.roll(fault_salt(self.id, dst, seq, SALT_DROP), faults.drop_per_mille) {
                    // The sequence number is consumed — retransmissions get
                    // their own, keeping replay deterministic.
                    fault_events.push(self.fault_event(
                        send_us,
                        payload.session(),
                        FleetEvent::FabricDropped { src: self.id, dst, seq },
                    ));
                    progressed = true;
                    continue;
                }
                if faults.roll(fault_salt(self.id, dst, seq, SALT_DELAY), faults.delay_per_mille) {
                    let span = u64::from(faults.max_delay_quanta.max(1));
                    let quanta = 1 + jitter_us(
                        faults.seed,
                        fault_salt(self.id, dst, seq, SALT_DELAY_AMT),
                        span,
                    );
                    // Still ≥ the published promise (which lower-bounds the
                    // *undelayed* arrival), so the conservative clock holds.
                    arrival_us += quanta * quantum;
                    fault_events.push(self.fault_event(
                        send_us,
                        payload.session(),
                        FleetEvent::FabricDelayed { src: self.id, dst, seq, quanta: quanta as u32 },
                    ));
                }
                if faults.roll(fault_salt(self.id, dst, seq, SALT_DUP), faults.dup_per_mille) {
                    let dup_seq = e.next_seq;
                    e.next_seq += 1;
                    e.sent += 1;
                    e.mail.push(FabricEnvelope {
                        arrival_us: arrival_us + quantum,
                        src: self.id,
                        seq: dup_seq,
                        payload: payload.clone(),
                    });
                    fault_events.push(self.fault_event(
                        send_us,
                        payload.session(),
                        FleetEvent::FabricDuplicated { src: self.id, dst, seq },
                    ));
                }
            }
            e.mail.push(FabricEnvelope { arrival_us, src: self.id, seq, payload });
            progressed = true;
        }
        let mut promise = if lb > self.budget_us { u64::MAX } else { fabric.arrival_of(lb) };
        if fabric.fastpath {
            // Publish this endpoint's own horizon — what it could send
            // unprovoked or in reaction to what it has staged — then lift
            // the promise to the global bound when it clears the
            // quantum-step one: "no future sends" collapses the idle
            // null-message walk into a single jump. Scheduling-only:
            // fingerprints are asserted identical with the fast path on or
            // off.
            st.local_bound.insert(self.id, origination.min(next_staged));
            let gvt = st.gvt();
            let gvt_promise = if gvt > self.budget_us { u64::MAX } else { fabric.arrival_of(gvt) };
            promise = promise.max(gvt_promise);
        }
        for &dst in &self.outbound {
            let e = st.edges.get_mut(&(self.id, dst)).expect("active outbound edge");
            if promise > e.promise_us {
                // Null-message suppression: each distinct promise value is
                // dropped at most once per edge, so the periodic re-flush
                // always lands the second attempt — slowed, never stopped.
                if promise != u64::MAX
                    && faults.null_drop_per_mille > 0
                    && faults.armed_at(promise)
                    && promise != e.last_dropped_promise
                    && faults.roll(
                        fault_salt(self.id, dst, promise, SALT_NULL),
                        faults.null_drop_per_mille,
                    )
                {
                    e.last_dropped_promise = promise;
                    e.nulls_dropped += 1;
                    continue;
                }
                e.promise_us = promise;
                st.promise_updates += 1;
                progressed = true;
            }
        }
        drop(st);
        self.promised_lb = lb;
        // Emitted outside the fabric lock; ring order stays deterministic
        // because `run_to` never splits same-instant sim events across a
        // flush, so every fault event lands after all sim events at its
        // send instant regardless of how many flushes the wall clock saw.
        for ev in fault_events {
            self.plane.bus.emit(ev);
        }
        if progressed {
            fabric.cv.notify_all();
        }
        progressed
    }

    /// A fault event stamped at the faulted message's virtual send instant,
    /// attributed to the fabric relay.
    fn fault_event(&self, send_us: u64, session: u64, ev: FleetEvent) -> Event {
        fleet_event(SimTime::from_micros(send_us), self.relay_id, session, ev)
    }
}

// ---------------------------------------------------------------------------
// Distillation
// ---------------------------------------------------------------------------

/// Per-shard slice of a [`ShardReport`].
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard tag (region index + 1; the global tier is `regions + 1`).
    pub shard: u32,
    /// True for the global (straddler) tier.
    pub is_global: bool,
    /// Agents this shard's plane hosts, which is what sizes everything it
    /// allocates per agent: those of its own clusters plus those its
    /// sessions' scopes reach (for the global tier, only the latter).
    pub agents: usize,
    /// Sessions owned by this shard.
    pub sessions: usize,
    /// Sessions that reached a terminal result here.
    pub completed: usize,
    /// Events this shard contributed to the merged stream.
    pub events: usize,
    /// Messages its simulator delivered.
    pub delivered: u64,
    /// Times its control plane was rebuilt from the journal.
    pub restores: u64,
    /// Plan-cache hits in its final control-plane incarnation.
    pub cache_hits: u64,
    /// Plan-cache misses in its final control-plane incarnation.
    pub cache_misses: u64,
}

/// Plain-data result a worker thread ships back for one endpoint: the
/// plane's outcome plus what only its fabric shim knows and no event says —
/// the global tier's orphaned releases, and a region's foreign holds still
/// tracked at quiescence (a leak detector).
struct EndpointOutcome {
    id: u32,
    shard_tag: u32,
    is_global: bool,
    agents: usize,
    plane: PlaneOutcome,
    owned_comps: Vec<Range<usize>>,
    global_journal_text: String,
    orphaned_releases: u64,
    foreign_holds: u64,
}

/// Reads the endpoint's wrapper and its control plane, then distills the
/// plane: its simulator is dropped before its stream moves out.
fn distill_endpoint(ep: Endpoint) -> EndpointOutcome {
    let (sim, control_id) = (&ep.plane.sim, ep.plane.control_id);
    let (read, global_journal_text, orphaned_releases, foreign_holds) = if ep.is_global {
        let g = sim.actor::<GlobalControl>(control_id).expect("global control present");
        let mut read = ep.plane.read(&g.inner);
        // A straddler is submitted when it escalates; the inner plane
        // submits it only once every slice is granted.
        for s in &g.straddlers {
            let ix = read.results.binary_search_by_key(&s.sid, |r| r.id);
            if let (Some(t), Ok(ix)) = (s.escalated_at, ix) {
                read.results[ix].submitted_at = Some(t);
            }
        }
        (read, encode_global_journal(&g.global_journal), g.orphaned_releases, 0)
    } else {
        let r = sim.actor::<RegionControl>(control_id).expect("region control present");
        (ep.plane.read(&r.inner), String::new(), 0, r.foreign.len() as u64)
    };
    EndpointOutcome {
        id: ep.id,
        shard_tag: ep.shard_tag,
        is_global: ep.is_global,
        agents: ep.agents,
        plane: ep.plane.distill(read),
        owned_comps: ep.owned_comps,
        global_journal_text,
        orphaned_releases,
        foreign_holds,
    }
}

fn run_worker(
    scn: &FleetScenario,
    world: &FleetWorld,
    regions: usize,
    budget_us: u64,
    plans: Vec<EndpointPlan>,
    fabric: &Fabric,
) -> (Vec<EndpointOutcome>, Phases) {
    let mut mark = Instant::now();
    let mut eps: Vec<Endpoint> = plans
        .into_iter()
        .map(|p| build_endpoint(scn, world.clone(), regions, budget_us, p))
        .collect();
    let mut phases = Phases { build: lap(&mut mark), ..Phases::default() };
    loop {
        let mut progressed = false;
        let mut all_done = true;
        for ep in &mut eps {
            if ep.done {
                continue;
            }
            while ep.step(fabric) {
                progressed = true;
            }
            all_done &= ep.done;
        }
        if all_done {
            break;
        }
        if !progressed {
            // Blocked on a peer's virtual clock: park until a promise or
            // message lands (timeout only as a lost-wakeup safety net).
            let parked = Instant::now();
            let mut st = fabric.state.lock().unwrap();
            st.parks += 1;
            let _ = fabric
                .cv
                .wait_timeout(st, std::time::Duration::from_millis(1))
                .expect("fabric lock poisoned");
            phases.parked += parked.elapsed();
        }
    }
    phases.step = lap(&mut mark);
    let outcomes = eps.into_iter().map(distill_endpoint).collect();
    phases.distill = lap(&mut mark);
    (outcomes, phases)
}

// ---------------------------------------------------------------------------
// Report and driver
// ---------------------------------------------------------------------------

/// Everything a sharded fleet run produced.
pub struct ShardReport {
    /// Per-session results across all shards, ascending by session id.
    pub results: Vec<SessionResult>,
    /// The fleet configuration merged from the regions' authoritative
    /// per-group values, as a bit string.
    pub final_config: String,
    /// The deterministically merged event stream: ordered by `(virtual
    /// time, shard, intra-shard order)`, every event stamped with its shard.
    pub events: Vec<Event>,
    /// Events the shards' capture rings evicted before the run ended,
    /// summed over shards. Non-zero means `events` (and `fingerprint`) cover
    /// only the retained tails, not the whole stream.
    pub events_evicted: u64,
    /// FNV-1a fingerprint of the merged stream (shard tags included) —
    /// bit-for-bit identical across worker-thread counts.
    pub fingerprint: u64,
    /// Per-shard write-ahead journals `(shard tag, text)`.
    pub journals: Vec<(u32, String)>,
    /// The global tier's write-ahead journal (empty without straddlers) —
    /// the durable record every crash/restore replays.
    pub global_journal: String,
    /// Per-shard statistics, region order then the global tier.
    pub per_shard: Vec<ShardStats>,
    /// Cross-shard traffic counters.
    pub fabric: FabricStats,
    /// Events of each kind summed over shards, evicted ones included: every
    /// deterministic counter of the run that has an event (sheds,
    /// rejections, breaker trips, lease reclaims, …) is read from here.
    pub counts: Counts,
    /// Control-plane restores summed over shards (`fleet.restored`).
    pub restores: u64,
    /// Peak simultaneously admitted sessions across the whole fleet.
    pub max_concurrent: usize,
    /// First submission → last completion, virtual μs, across shards.
    pub makespan_us: u64,
    /// Protocol sends suppressed by open breakers (all shards).
    pub suppressed_sends: u64,
    /// Fabric retransmissions the global tier's ladder issued
    /// (`fleet.fabric_retx`).
    pub retransmits: u64,
    /// Straddlers abandoned after the ladder exhausted against a region
    /// (`fleet.straddler_abandoned`).
    pub abandoned: u64,
    /// Releases given up past the lease horizon (region presumed dead).
    pub orphaned_releases: u64,
    /// Foreign holds garbage-collected after a silent lease horizon (all
    /// regions; `fleet.lease_expired`) — each one a lock-table entry that
    /// would otherwise leak.
    pub lease_expirations: u64,
    /// Lock-table + foreign-hold residue at quiescence, summed over all
    /// control planes. Zero after any run whose sessions all terminated:
    /// every grant was released, cancelled, or lease-expired.
    pub residual_holds: u64,
    /// Wall-clock duration of the parallel run.
    pub wall: std::time::Duration,
    /// Where the whole run's wall clock went (never fingerprinted).
    pub phases: Phases,
}

impl ShardReport {
    /// The result row for session `id`.
    pub fn session(&self, id: u64) -> Option<&SessionResult> {
        find_session(&self.results, id)
    }

    /// Sessions that committed their adaptation.
    pub fn succeeded(&self) -> usize {
        self.results.iter().filter(|r| r.success).count()
    }
}

/// The deterministic merge of the shards' streams, given in shard order:
/// ordered by (virtual time, shard, intra-shard order). A shard's own
/// stream need not be time-sorted, so the merge is a *stable* sort on time
/// alone over the streams laid end to end. Each stream is moved in and
/// freed as it is appended — no event is cloned, and the sort's scratch
/// never sits beside a shard's buffer.
fn merge_streams(streams: Vec<Vec<Event>>) -> Vec<Event> {
    let mut merged = Vec::with_capacity(streams.iter().map(Vec::len).sum());
    for stream in streams {
        merged.extend(stream);
    }
    merged.sort_by_key(|e| e.at);
    merged
}

/// Copies bits `range` of `src` into `dst` (of the same width), a word at a
/// time.
fn copy_bits(dst: &mut Config, src: &Config, range: Range<usize>) {
    let mut at = range.start;
    while at < range.end {
        let (w, lo) = (at / 64, at % 64);
        let hi = (range.end - 64 * w).min(64);
        let mask = (u64::MAX >> (64 - (hi - lo))) << lo;
        dst.set_word(w, (dst.word(w) & !mask) | (src.word(w) & mask));
        at = 64 * w + hi;
    }
}

/// FNV-1a fingerprint over the encoded event stream, shard tags included —
/// the bit-for-bit identity compared across worker-thread counts.
pub fn fingerprint_events(events: &[Event]) -> u64 {
    fingerprint_jsonl(events, None)
}

/// Like [`fingerprint_events`] with shard tags normalized to zero — the
/// identity compared between a one-region sharded run and the unsharded
/// [`run_fleet`](crate::run_fleet) driver.
pub fn fingerprint_events_unsharded(events: &[Event]) -> u64 {
    fingerprint_jsonl(events, Some(0))
}

/// Runs `scenario` sharded across `threads` worker threads and reports.
///
/// Thread count is pure execution policy: any value produces bit-for-bit
/// identical results, journals, and event streams for a fixed scenario.
pub fn run_fleet_sharded(scenario: &ShardScenario, threads: usize) -> ShardReport {
    run_sharded(scenario, threads, true, None)
}

/// [`run_fleet_sharded`], with the GVT promise fast path on or off: when
/// the minimum over every endpoint's published event horizon (plus
/// undrained fabric mail) clears the budget, the fast path jumps promises
/// straight there instead of quantum-stepping. Pure wall-clock policy —
/// fingerprints, journals and results are bit-identical either way.
/// `world`, when given, is the run's world, compiled from `scenario`.
pub(crate) fn run_sharded(
    scenario: &ShardScenario,
    threads: usize,
    promise_fastpath: bool,
    world: Option<FleetWorld>,
) -> ShardReport {
    let fleet = &scenario.fleet;
    let regions = scenario.regions;
    assert!(threads >= 1, "at least one worker thread");
    if let Err(broken) = scenario.validate() {
        panic!("malformed ShardScenario: {broken}");
    }
    let budget_us = fleet.time_budget.as_micros();
    let quantum_us = fleet.link_latency.as_micros().max(1);

    // The one world of the run: compiled here, on the calling thread, and
    // shared immutably by every endpoint plane below.
    let mut mark = Instant::now();
    let world = world.unwrap_or_else(|| fleet.build_world());
    let mut phases = Phases { world: lap(&mut mark), ..Phases::default() };

    // Partition the workload by the fixed region map.
    let mut per_region: Vec<Vec<SessionSpec>> = vec![Vec::new(); regions];
    let mut straddlers: Vec<(SessionSpec, Vec<usize>)> = Vec::new();
    for spec in &fleet.sessions {
        let mut rs: Vec<usize> = spec.flips.iter().map(|&(g, _)| scenario.region_of(g)).collect();
        rs.sort_unstable();
        rs.dedup();
        if rs.len() <= 1 {
            per_region[rs.first().copied().unwrap_or(0)].push(spec.clone());
        } else {
            straddlers.push((spec.clone(), rs));
        }
    }
    let involved: Vec<u32> = straddlers
        .iter()
        .flat_map(|(_, rs)| rs.iter().map(|&r| r as u32))
        .collect::<BTreeSet<u32>>()
        .into_iter()
        .collect();
    let global_ep = regions as u32;

    let mut plans: Vec<EndpointPlan> = per_region
        .into_iter()
        .enumerate()
        .map(|(r, specs)| {
            let active = involved.contains(&(r as u32));
            EndpointPlan {
                id: r as u32,
                specs,
                straddlers: Vec::new(),
                inbound: if active { vec![global_ep] } else { Vec::new() },
                outbound: if active { vec![global_ep] } else { Vec::new() },
                owned_groups: scenario.region_block(r),
                crash: scenario.crash_region.and_then(|(cr, a, b)| (cr == r).then_some((a, b))),
                is_global: false,
            }
        })
        .collect();
    if !straddlers.is_empty() {
        // The inner scenario carries beyond-budget submission sentinels:
        // the wrapper owns the pre-submission lifecycle and submits only
        // once every region slice is held.
        let specs: Vec<SessionSpec> = straddlers
            .iter()
            .map(|(s, _)| SessionSpec {
                submit_at: SimDuration::from_micros(2 * budget_us + s.submit_at.as_micros()),
                ..s.clone()
            })
            .collect();
        let plan_straddlers: Vec<Straddler> = straddlers
            .iter()
            .map(|(s, rs)| Straddler {
                sid: s.id,
                priority: s.priority,
                submit_at: s.submit_at,
                cancel_at: s.cancel_at,
                slices: rs
                    .iter()
                    .map(|&r| {
                        let flips_r: Vec<(usize, bool)> = s
                            .flips
                            .iter()
                            .copied()
                            .filter(|&(g, _)| scenario.region_of(g) == r)
                            .collect();
                        let comps = world.scope_comps(&flips_r);
                        Slice {
                            region: r as u32,
                            resources: world.resources_for(&comps),
                            comps: comps.iter().map(|c| c.index() as u32).collect(),
                        }
                    })
                    .collect(),
                next: 0,
                phase: Phase::Pending,
                escalated_at: None,
            })
            .collect();
        plans.push(EndpointPlan {
            id: global_ep,
            specs,
            straddlers: plan_straddlers,
            inbound: involved.clone(),
            outbound: involved.clone(),
            owned_groups: 0..0,
            crash: scenario.crash_global,
            is_global: true,
        });
    }

    let fabric = Fabric::new(
        &involved,
        global_ep,
        quantum_us,
        scenario.fabric_faults.clone(),
        promise_fastpath,
    );
    phases.partition = lap(&mut mark);
    let started = Instant::now();
    let mut outcomes: Vec<EndpointOutcome> = Vec::new();
    let mut workers: Vec<Phases> = Vec::new();
    let mut per_worker: Vec<Vec<EndpointPlan>> = (0..threads).map(|_| Vec::new()).collect();
    for plan in plans {
        per_worker[plan.id as usize % threads].push(plan);
    }
    // The calling thread is worker 0 and the rest are spawned beside it, so
    // `threads` counts the threads that do work (a one-thread run spawns
    // nothing).
    let mut shares = per_worker.into_iter().filter(|mine| !mine.is_empty());
    std::thread::scope(|scope| {
        let first = shares.next();
        let handles: Vec<_> = shares
            .map(|mine| {
                let (world, fabric) = (&world, &fabric);
                scope.spawn(move || run_worker(fleet, world, regions, budget_us, mine, fabric))
            })
            .collect();
        let done = first
            .into_iter()
            .map(|mine| run_worker(fleet, &world, regions, budget_us, mine, &fabric));
        let joined = handles.into_iter().map(|h| h.join().expect("shard worker panicked"));
        for (mine, worker) in done.chain(joined) {
            outcomes.extend(mine);
            workers.push(worker);
        }
    });
    let wall = started.elapsed();
    let slowest =
        |phase: fn(&Phases) -> Duration| workers.iter().map(phase).max().unwrap_or_default();
    phases.build = slowest(|w| w.build);
    phases.step = slowest(|w| w.step);
    phases.parked = slowest(|w| w.parked);
    phases.distill = slowest(|w| w.distill);
    mark = Instant::now();
    outcomes.sort_by_key(|o| o.id);

    let shard_events: Vec<usize> = outcomes.iter().map(|o| o.plane.events.len()).collect();
    let events =
        merge_streams(outcomes.iter_mut().map(|o| std::mem::take(&mut o.plane.events)).collect());
    phases.merge = lap(&mut mark);
    let fingerprint = fingerprint_events(&events);
    phases.fingerprint = lap(&mut mark);

    // Regions are authoritative for their groups' component values (global
    // completions flowed back via `LockRelease`).
    let mut cfg = world.initial_config();
    for o in &outcomes {
        for range in &o.owned_comps {
            copy_bits(&mut cfg, &o.plane.fleet_config, range.clone());
        }
    }

    let per_shard: Vec<ShardStats> = outcomes
        .iter()
        .zip(shard_events)
        .map(|(o, events)| ShardStats {
            shard: o.shard_tag,
            is_global: o.is_global,
            agents: o.agents,
            sessions: o.plane.results.len(),
            completed: o.plane.results.iter().filter(|r| r.completed_at.is_some()).count(),
            events,
            delivered: o.plane.stats.delivered,
            restores: o.plane.counts[Kind::ControlRestored],
            cache_hits: o.plane.cache.hits,
            cache_misses: o.plane.cache.misses,
        })
        .collect();
    let mut results: Vec<SessionResult> =
        outcomes.iter_mut().flat_map(|o| std::mem::take(&mut o.plane.results)).collect();
    results.sort_by_key(|r| r.id);

    let counts: Counts = outcomes.iter().map(|o| &o.plane.counts).sum();
    let fabric_stats = {
        let st = fabric.state.lock().unwrap();
        let mut per_edge: Vec<(u32, u32, u64)> =
            st.edges.iter().map(|(&(s, d), e)| (s + 1, d + 1, e.sent)).collect();
        per_edge.sort_unstable();
        FabricStats {
            messages: per_edge.iter().map(|&(_, _, n)| n).sum(),
            per_edge,
            promise_updates: st.promise_updates,
            parks: st.parks,
            dropped: counts[Kind::FabricDropped],
            duplicated: counts[Kind::FabricDuplicated],
            delayed: counts[Kind::FabricDelayed],
            nulls_dropped: st.edges.values().map(|e| e.nulls_dropped).sum(),
        }
    };

    let mut report = ShardReport {
        final_config: cfg.to_bit_string(),
        fingerprint,
        events_evicted: outcomes.iter().map(|o| o.plane.events_evicted).sum(),
        journals: outcomes
            .iter_mut()
            .map(|o| (o.shard_tag, std::mem::take(&mut o.plane.journal_text)))
            .collect(),
        global_journal: outcomes
            .iter_mut()
            .find(|o| o.is_global)
            .map(|o| std::mem::take(&mut o.global_journal_text))
            .unwrap_or_default(),
        restores: counts[Kind::ControlRestored],
        max_concurrent: max_concurrent(&results),
        makespan_us: makespan_us(&results),
        suppressed_sends: outcomes.iter().map(|o| o.plane.suppressed_sends).sum(),
        retransmits: counts[Kind::FabricRetransmit],
        abandoned: counts[Kind::StraddlerAbandoned],
        orphaned_releases: outcomes.iter().map(|o| o.orphaned_releases).sum(),
        lease_expirations: counts[Kind::LeaseExpired],
        counts,
        residual_holds: outcomes.iter().map(|o| o.foreign_holds + o.plane.lock_holders).sum(),
        per_shard,
        fabric: fabric_stats,
        results,
        events,
        wall,
        phases: Phases::default(),
    };
    phases.config = lap(&mut mark);
    drop((outcomes, fabric, world, cfg));
    phases.drop = lap(&mut mark);
    report.phases = phases;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::tests::hosted_runs;
    use crate::driver::{disjoint_wave, run_fleet};
    use crate::world::tests::shared_hosts_spec;
    use sada_expr::CompId;

    #[test]
    fn disjoint_wave_shards_and_matches_unsharded_config() {
        let fleet = FleetScenario::new(8, disjoint_wave(8, 1));
        let unsharded = run_fleet(&fleet);
        let scn = ShardScenario::new(fleet, 4);
        let report = run_fleet_sharded(&scn, 2);
        assert_eq!(report.succeeded(), 8, "results: {:?}", report.results);
        assert_eq!(report.final_config, unsharded.final_config);
        assert_eq!(report.fabric.messages, 0, "disjoint waves never cross the fabric");
        assert_eq!(report.per_shard.len(), 4, "no straddlers ⇒ no global tier");
    }

    #[test]
    fn thread_count_is_invisible() {
        let mut fleet = FleetScenario::new(8, disjoint_wave(8, 1));
        // A straddler across regions 0|1 exercises the fabric too.
        fleet.sessions.push(SessionSpec {
            id: 100,
            flips: vec![(1, true), (2, true)],
            priority: 1,
            submit_at: SimDuration::from_millis(2),
            cancel_at: None,
        });
        let scn = ShardScenario::new(fleet, 4);
        let a = run_fleet_sharded(&scn, 1);
        let b = run_fleet_sharded(&scn, 4);
        assert_eq!(a.fingerprint, b.fingerprint, "event streams must be bit-for-bit identical");
        assert_eq!(a.final_config, b.final_config);
        assert_eq!(a.journals, b.journals);
        assert_eq!(a.results, b.results);
    }

    /// `run_fleet` is the same plane run directly; one region adds the
    /// shim, the relay, the conservative executor, and the merge — and must
    /// add nothing observable ("direct call ≡ executor + merge").
    #[test]
    fn one_region_is_event_identical_to_run_fleet() {
        let fleet = FleetScenario::new(4, disjoint_wave(4, 1));
        let unsharded = run_fleet(&fleet);
        let report = run_fleet_sharded(&ShardScenario::new(fleet, 1), 1);
        assert_eq!(
            fingerprint_events_unsharded(&report.events),
            fingerprint_events_unsharded(&unsharded.events),
            "one region replicates the unsharded run modulo shard tags"
        );
        assert_eq!(report.final_config, unsharded.final_config);
        // Event for event, not just hash for hash.
        assert_eq!(report.events.len(), unsharded.events.len());
        for (sharded, flat) in report.events.iter().zip(&unsharded.events) {
            assert_eq!(Event { shard: 0, ..sharded.clone() }, *flat);
        }
    }

    /// Both drivers hand their stream over in one exact-length vector: the
    /// flat one moves its ring's events out, the sharded one merges the
    /// shards' streams into a vector sized for all of them.
    #[test]
    fn reports_hand_over_exact_length_streams() {
        let mut fleet = FleetScenario::new(8, disjoint_wave(8, 1));
        fleet.sessions.push(SessionSpec {
            id: 100,
            flips: vec![(1, true), (2, true)],
            priority: 1,
            submit_at: SimDuration::from_millis(2),
            cancel_at: None,
        });
        let flat = run_fleet(&fleet).events;
        let sharded = run_fleet_sharded(&ShardScenario::new(fleet, 4), 2).events;
        for events in [flat, sharded] {
            assert!(!events.is_empty());
            assert_eq!(events.capacity(), events.len());
        }
    }

    /// The freeing merge is a stable sort of the shards' streams laid end
    /// to end: a shard's own stream out of time order keeps its order
    /// among equal instants, and equal instants across shards come out in
    /// shard order.
    #[test]
    fn the_merge_is_a_stable_sort_of_the_concatenation() {
        let ev = |shard: u32, at: u64, tag: u64| Event {
            at: SimTime::from_micros(at),
            actor: 0,
            session: 0,
            shard,
            payload: sada_obs::Payload::Net(sada_obs::NetEvent::TimerFired { tag }),
        };
        // Instants 5, 3, 5, 1 in shard 1 and 3, 5, 3 in shard 2.
        let streams = vec![
            vec![ev(1, 5, 0), ev(1, 3, 1), ev(1, 5, 2), ev(1, 1, 3)],
            Vec::new(),
            vec![ev(2, 3, 4), ev(2, 5, 5), ev(2, 3, 6)],
        ];
        let mut concatenated: Vec<Event> = streams.concat();
        concatenated.sort_by_key(|e| e.at);
        let merged = merge_streams(streams);
        assert_eq!(merged, concatenated);
        let tags: Vec<u64> = merged
            .iter()
            .map(|e| match e.payload {
                sada_obs::Payload::Net(sada_obs::NetEvent::TimerFired { tag }) => tag,
                _ => unreachable!("only timers were merged"),
            })
            .collect();
        assert_eq!(tags, [3, 1, 4, 6, 0, 2, 5]);
        assert_eq!(merged.capacity(), merged.len());
    }

    /// Every partition a validated scenario can have: the blocks are
    /// non-empty contiguous ranges that ascend and tile the group space, and
    /// `region_block` is `region_of` read the other way.
    #[test]
    fn region_blocks_partition_the_groups_and_invert_region_of() {
        for groups in 1..=48 {
            for regions in 1..=groups {
                let scn = ShardScenario::new(FleetScenario::new(groups, Vec::new()), regions);
                let mut next = 0;
                for r in 0..regions {
                    let block = scn.region_block(r);
                    assert_eq!(block.start, next, "{groups}/{regions}: block {r} follows on");
                    assert!(!block.is_empty(), "{groups}/{regions}: block {r} is empty");
                    for g in block.clone() {
                        assert_eq!(scn.region_of(g), r, "{groups}/{regions}: group {g}");
                    }
                    next = block.end;
                }
                assert_eq!(next, groups, "{groups}/{regions}: the blocks cover every group");
            }
        }
        // The uneven split the doc comment names.
        let scn = ShardScenario::new(FleetScenario::new(10, Vec::new()), 4);
        let sizes: Vec<usize> = (0..4).map(|r| scn.region_block(r).len()).collect();
        assert_eq!(sizes, [3, 2, 3, 2]);
    }

    /// One message per rule a scenario can break; `run_fleet_sharded`
    /// panics with the same text.
    #[test]
    fn a_malformed_scenario_is_an_error_naming_the_rule() {
        let base = || ShardScenario::new(FleetScenario::new(4, disjoint_wave(4, 1)), 2);
        assert_eq!(base().validate(), Ok(()));
        type Break = fn(&mut ShardScenario);
        let cases: [(Break, &str); 6] = [
            (|s| s.regions = 0, "1 ≤ regions ≤ groups (0 regions, 4 groups)"),
            (|s| s.regions = 5, "1 ≤ regions ≤ groups (5 regions, 4 groups)"),
            (
                |s| {
                    s.fleet.crash_control = Some((SimTime::from_millis(1), SimTime::from_millis(2)))
                },
                "fleet.crash_control set: use crash_region/crash_global (2 regions, 4 groups)",
            ),
            (
                |s| {
                    s.fleet.faults =
                        sada_simnet::FaultPlan::new().crash(ActorId::from_index(0), SimTime::ZERO)
                },
                "fleet.faults set: use crash_region/crash_global/fabric_faults \
                 (2 regions, 4 groups)",
            ),
            (
                |s| s.fleet.serialize = true,
                "fleet.serialize set: the serial baseline is inherently unsharded \
                 (2 regions, 4 groups)",
            ),
            (
                |s| s.crash_region = Some((2, SimTime::from_millis(1), SimTime::from_millis(2))),
                "crash_region out of range (2 regions, 4 groups)",
            ),
        ];
        for (break_it, message) in cases {
            let mut scn = base();
            break_it(&mut scn);
            assert_eq!(scn.validate(), Err(message.to_string()));
            let panic = std::panic::catch_unwind(|| run_fleet_sharded(&scn, 1).succeeded());
            let panic = panic.expect_err("a malformed scenario must not run");
            let text = panic.downcast_ref::<String>().expect("a formatted panic");
            assert_eq!(text, &format!("malformed ShardScenario: {message}"));
        }
    }

    /// What a plane allocates per agent follows what it hosts: on video
    /// worlds the regions host each agent exactly once between them, and
    /// the global tier hosts the agents its straddlers' scopes reach — no
    /// tier at all without a straddler.
    #[test]
    fn regions_host_the_fleet_once_and_the_global_tier_its_straddlers_scopes() {
        const GROUPS: usize = 12;
        for regions in 1..=4 {
            for straddlers in 0..=2 {
                // Straddler `k` spans the boundary between its two groups'
                // regions, when there is more than one region to span.
                let mut sessions = disjoint_wave(GROUPS, 1);
                let spans: Vec<Vec<(usize, bool)>> =
                    (0..straddlers).map(|k| vec![(k, false), (GROUPS - 1 - k, false)]).collect();
                for (k, flips) in spans.iter().enumerate() {
                    sessions.push(SessionSpec {
                        id: 100 + k as u64,
                        flips: flips.clone(),
                        priority: 0,
                        submit_at: SimDuration::from_millis(200),
                        cancel_at: None,
                    });
                }
                let fleet = FleetScenario::new(GROUPS, sessions);
                let world = fleet.build_world();
                let report = run_fleet_sharded(&ShardScenario::new(fleet, regions), 2);
                let what = format!("{regions} regions, {straddlers} straddlers");
                assert_eq!(report.succeeded(), GROUPS + straddlers, "{what}");

                let hosted_by = |global: bool| -> usize {
                    report
                        .per_shard
                        .iter()
                        .filter(|s| s.is_global == global)
                        .map(|s| s.agents)
                        .sum()
                };
                assert_eq!(hosted_by(false), world.model.process_count(), "{what}");
                let reached: BTreeSet<usize> = spans
                    .iter()
                    .filter(|_| regions > 1)
                    .flat_map(|flips| world.scope_comps(flips))
                    .filter_map(|c| world.agent_for(c))
                    .collect();
                assert_eq!(hosted_by(true), reached.len(), "{what}");
                let tiers = report.per_shard.iter().filter(|s| s.is_global).count();
                assert_eq!(tiers, usize::from(!reached.is_empty()), "{what}");
            }
        }
    }

    /// What an endpoint hosts, built from ranges of the placement runs, is
    /// what collecting ids built: for every group count up to 48, every
    /// region count and every region (and the global tier), its agent runs
    /// and owned components equal the per-id walk over its clusters and its
    /// sessions' scopes — a session of its own, and a straddler whose scope
    /// reaches the group after its block. Over the video world (one run of
    /// one-cluster placements) and a spec world whose processes host
    /// components of two clusters each (one placement, cut by every block).
    #[test]
    fn hosting_from_ranges_matches_the_per_id_collections() {
        let session = |id: u64, flips: Vec<(usize, bool)>| SessionSpec {
            id,
            flips,
            priority: 0,
            submit_at: SimDuration::ZERO,
            cancel_at: None,
        };
        for groups in 1..=48 {
            let worlds =
                [FleetWorld::build(groups), FleetWorld::from_spec(shared_hosts_spec(groups))];
            for world in &worlds {
                for regions in 1..=groups {
                    let scn = ShardScenario::new(FleetScenario::new(groups, Vec::new()), regions);
                    for r in 0..=regions {
                        let block = if r < regions { scn.region_block(r) } else { 0..0 };
                        let last = block.end.max(1) - 1;
                        let specs = [
                            session(1, vec![(block.start.min(groups - 1), true)]),
                            session(2, vec![(last, true), (block.end % groups, false)]),
                        ];
                        let owned: Vec<CompId> =
                            block.clone().flat_map(|g| world.cluster_comps(g)).collect();
                        let flips: Vec<_> = specs.iter().flat_map(|s| s.flips.clone()).collect();
                        let reached = world.scope_comps(&flips);
                        let mut agents: Vec<usize> = owned
                            .iter()
                            .chain(&reached)
                            .filter_map(|&c| world.agent_for(c))
                            .collect();
                        agents.sort_unstable();
                        agents.dedup();
                        let mut comps: Vec<usize> = owned.iter().map(|c| c.index()).collect();
                        comps.sort_unstable();

                        let hosted = hosting(world, block.clone(), &specs);
                        let what = format!("{groups} groups, {regions} regions, endpoint {r}");
                        assert_eq!(hosted.agents, hosted_runs(agents), "{what}");
                        let ids: Vec<usize> = hosted.comps.iter().cloned().flatten().collect();
                        assert_eq!(ids, comps, "{what}");
                    }
                }
            }
        }
    }

    /// The world is compiled once per run: every endpoint built from the
    /// run's handle reads the same allocation, never a private copy.
    #[test]
    fn endpoints_share_the_one_world_allocation() {
        let fleet = FleetScenario::new(4, disjoint_wave(4, 1));
        let world = fleet.build_world();
        let endpoint = |id: u32| {
            let plan = EndpointPlan {
                id,
                specs: Vec::new(),
                straddlers: Vec::new(),
                inbound: Vec::new(),
                outbound: Vec::new(),
                owned_groups: id as usize..id as usize + 1,
                crash: None,
                is_global: false,
            };
            build_endpoint(&fleet, world.clone(), 2, 1_000, plan)
        };
        let (a, b) = (endpoint(0), endpoint(1));
        assert!(FleetWorld::ptr_eq(&a.plane.world, &b.plane.world));
        assert!(FleetWorld::ptr_eq(&a.plane.world, &world));
        assert!(!FleetWorld::ptr_eq(&world, &fleet.build_world()), "a rebuild is a new world");
    }
}
