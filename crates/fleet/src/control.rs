//! The adaptation control plane: one actor, many concurrent sessions.
//!
//! The single-adaptation [`ManagerActor`](sada_proto::ManagerActor) is a
//! [`ManagerHost`] with one session; the control plane is that host with
//! **one core per admitted session**, multiplexed over a shared wire
//! (traffic is stamped with the session's [`SessionId`], agents echo it,
//! replies route back to the owning core), plus admission, scope locks,
//! per-scope breakers and the plan cache. Admission is governed by the
//! [`ScopeLockManager`]: a session whose scope (collaborative sets +
//! hosting processes) is free starts immediately; conflicting sessions
//! queue in priority/FIFO order and may be cancelled while queued.
//!
//! ## Durability split
//!
//! Crash faults destroy the volatile process image — embedded cores, lock
//! table, timers, the host's per-agent state. What survives is exactly
//! what a production control plane would keep on durable storage: the
//! interleaved session-tagged write-ahead [`journal`](ControlActor::journal)
//! (append order = decision order), one report row per session — written
//! where the plane decides its submission, admission, completion and
//! verdict, each write backed by the journal records of the same decision —
//! and the fleet configuration folded from completed sessions. On
//! restart the journal is partitioned by session: in-flight sessions replay
//! through [`ManagerCore::restore`] (their control-plane `Queued` prefix
//! stripped) and re-seize their scopes, queued-at-crash sessions requeue in
//! journal order, and scenario entries that never submitted are re-armed.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Range;
use std::rc::Rc;

use sada_expr::{CompId, Config};
use sada_obs::{Bus, Event, FleetEvent, Fnv1a, Payload};
use sada_proto::ProtoTimer::App;
use sada_proto::{
    JournalRecord, ManagerCore, ManagerEffect, ManagerEvent, ManagerHost, Outcome, ProtoTimer,
    ProtoTiming, Roster, SessionCore, SessionId, SessionRecord, Wire,
};
use sada_resilience::{
    shed_victim, BreakerConfig, BreakerTransition, BulkheadConfig, CircuitBreaker,
};
use sada_simnet::{Actor, ActorId, Context, SimDuration, SimTime, Timer};

use crate::cache::{CacheNoteKind, PlanCache, PlanCacheStats};
use crate::driver::SessionResult;
use crate::lock::ScopeLockManager;
use crate::planner::ScopedLazyPlanner;
use crate::world::{assign, FleetWorld};

/// One adaptation request the scenario will submit to the control plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSpec {
    /// Control-plane session id (nonzero; 0 is reserved for solo runs).
    pub id: u64,
    /// Groups to move, and the direction (`true` = toward `New`). The
    /// source and target configurations are computed **at admission** from
    /// the fleet configuration current at that instant, so queued sessions
    /// compose with whatever ran before them.
    pub flips: Vec<(usize, bool)>,
    /// Admission priority (higher first among queued sessions).
    pub priority: u8,
    /// Virtual time at which the request is submitted.
    pub submit_at: SimDuration,
    /// If set, withdraw the request at this virtual time unless it has
    /// been admitted by then.
    pub cancel_at: Option<SimDuration>,
}

/// Overload-protection policy for a control plane: per-agent circuit
/// breakers between the embedded cores and the wire, and bulkhead admission
/// bounds. The default (no breakers, unlimited bulkhead) reproduces the
/// historical always-admit behavior bit-for-bit; RTT-adaptive retransmission
/// deadlines are selected separately via `ProtoTiming::retry`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetResilience {
    /// Per-agent circuit breaker policy (`None` disables the gate).
    pub breaker: Option<BreakerConfig>,
    /// Per-scope circuit breaker policy (`None` disables the gate). Keyed
    /// by the session's scope-resource fingerprint, so a flapping scope
    /// trips alone: disjoint scopes that merely share an agent's shard keep
    /// admitting normally.
    pub scope_breaker: Option<BreakerConfig>,
    /// In-flight and waiting-room bounds with deterministic shedding.
    pub bulkhead: BulkheadConfig,
}

/// Typed admission outcome of one submitted session — the backpressure
/// signal a submitter acts on. Written into the session's durable report
/// row (backed by the journaled `Request`/`Outcome` record the decision
/// produces) as `SessionResult::admission`, replacing silent shedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The session entered the protocol (immediately or after queueing).
    Admitted,
    /// The bulkhead shed the session under overload. `retry_after_us` is
    /// the hint handed back to the submitter: observed mean service time
    /// scaled by the backlog-to-capacity ratio at the shed instant.
    Shed {
        /// Suggested resubmission delay, microseconds.
        retry_after_us: u64,
    },
    /// The session was refused fail-fast at its admission instant because
    /// its scope sat behind an open circuit breaker (per-agent or
    /// per-scope).
    Rejected,
}

/// A fleet plane's own timer kinds: its control actor's scenario
/// submissions and withdrawals, a region's lease expiry, and the global
/// tier's straddler submissions and withdrawals. A plane's simulator runs
/// them as the [`ProtoTimer::App`] kinds beside the protocol's own, and
/// [`Timer::tag`] is their one projection onto the numbers a `net.timer`
/// event carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetTimer {
    /// Scenario entry `.0` is submitted.
    Submit(usize),
    /// Scenario entry `.0` is withdrawn unless admitted by then.
    Cancel(usize),
    /// Straddler `.0` escalates.
    GlobalSubmit(usize),
    /// Straddler `.0` is withdrawn unless admitted by then.
    GlobalCancel(usize),
    /// A region reclaims its foreign hold of `session` unless a later lease
    /// renewed it.
    Lease {
        /// How many leases the region armed before this one.
        slot: u64,
        /// The held session.
        session: u64,
    },
}

impl Timer for FleetTimer {
    fn tag(&self) -> u64 {
        match *self {
            FleetTimer::Submit(ix) => (1 << 62) + ix as u64,
            FleetTimer::Cancel(ix) => (1 << 63) + ix as u64,
            FleetTimer::GlobalSubmit(ix) => (1 << 61) + ix as u64,
            FleetTimer::GlobalCancel(ix) => (3 << 60) + ix as u64,
            FleetTimer::Lease { slot, .. } => (1 << 61) + slot,
        }
    }
}

/// The callback context of a fleet plane's actors.
pub(crate) type Ctx<'a, M> = Context<'a, Wire<M>, ProtoTimer<FleetTimer>>;

/// Entries the shared plan cache may hold before LRU eviction kicks in.
const PLAN_CACHE_CAPACITY: usize = 128;

/// The control plane as a simulated process (speaks `Wire<M>` like
/// [`ManagerActor`](sada_proto::ManagerActor)).
pub(crate) struct ControlActor<M = ()> {
    world: Rc<FleetWorld>,
    /// The host of every session's core, over the agents this plane hosts.
    pub(crate) host: ManagerHost,
    scenario: Vec<SessionSpec>,
    /// Session id → scenario index (first occurrence wins, matching a
    /// linear scan). The scenario never changes after construction, so
    /// this stays valid across restarts.
    spec_by_id: HashMap<u64, usize>,
    timing: ProtoTiming,
    /// When true, every session maps to one shared lock resource — the
    /// serial baseline the benchmarks compare scope-parallelism against.
    serialize: bool,
    /// Overload-protection policy (breakers + bulkhead bounds).
    resilience: FleetResilience,
    // ---- volatile (destroyed by crash faults) ----
    active: BTreeMap<u64, Live>,
    locks: ScopeLockManager,
    /// Per-scope circuit breakers, created lazily on first failure
    /// evidence and keyed by [`ControlActor::scope_key`]. Volatile, like
    /// the host's per-agent set: a restored control plane re-learns which
    /// scopes are sick.
    scope_breakers: HashMap<u64, CircuitBreaker>,
    /// Sessions parked at the admission gate (in-flight cap reached before
    /// their scope was ever tried). Never holds lock-queue entries.
    gate: Vec<u64>,
    /// Waiting population (lock queue ∪ gate): session → (priority,
    /// enqueue sequence), the shed-victim ordering key.
    waiting: HashMap<u64, (u8, u64)>,
    /// Monotonic enqueue sequence (ties in shed-victim selection break
    /// toward the oldest waiter).
    queue_seq: u64,
    /// Session ids already submitted (guards double submission after a
    /// restart re-arms timers; rebuilt from the journal).
    submitted: HashSet<u64>,
    /// Fleet-wide plan cache shared by every session planner of this
    /// incarnation. Volatile on purpose: a restored control plane starts
    /// cold, so no cached path ever stands in for the durable journal.
    plan_cache: Rc<RefCell<PlanCache>>,
    // ---- durable (survives crash faults) ----
    /// The interleaved session-tagged write-ahead journal.
    pub journal: Vec<SessionRecord>,
    /// Fleet configuration folded from completed sessions.
    pub(crate) fleet_config: Config,
    /// One report row per scenario entry, at its index: submission,
    /// admission and completion instants, the verdict flags and the
    /// admission decision, each written where the plane decides it.
    rows: Vec<SessionResult>,
    /// `(sum, count)` of admission → completion over finished sessions, in
    /// μs: the service time a shed's retry hint scales.
    service_us: (u64, u64),
    _marker: std::marker::PhantomData<fn() -> M>,
}

/// An admitted session: its core, and what its flips reach, computed once
/// when it is admitted and dropped when it finishes.
struct Live {
    sess: SessionCore,
    /// The adaptation scope ([`CompiledWorld::scope_comps`]).
    ///
    /// [`CompiledWorld::scope_comps`]: crate::CompiledWorld::scope_comps
    scope: Vec<CompId>,
    /// The agents hosting the scope, in scope order.
    agents: Vec<usize>,
}

/// A control-plane event from `actor` about `session` (the bus it goes out
/// on stamps the shard).
pub(crate) fn fleet_event(at: SimTime, actor: ActorId, session: u64, ev: FleetEvent) -> Event {
    Event { at, actor: actor.index() as u32, session, shard: 0, payload: Payload::Fleet(ev) }
}

impl<M: Clone + 'static> ControlActor<M> {
    /// A control plane over the agents in `hosted` (ascending disjoint runs
    /// of agent indices; agent `p` lives at `ActorId(p)`), driving
    /// `scenario` under `timing`.
    pub(crate) fn new(
        world: Rc<FleetWorld>,
        hosted: Vec<Range<usize>>,
        scenario: Vec<SessionSpec>,
        timing: ProtoTiming,
        serialize: bool,
    ) -> Self {
        assert!(scenario.iter().all(|s| s.id != 0), "session id 0 is reserved for solo runs");
        let fleet_config = world.initial_config();
        let mut spec_by_id = HashMap::with_capacity(scenario.len());
        for (ix, s) in scenario.iter().enumerate() {
            spec_by_id.entry(s.id).or_insert(ix);
        }
        debug_assert!(hosted.windows(2).all(|w| w[0].end <= w[1].start), "runs ascend");
        let rows =
            scenario.iter().map(|s| SessionResult { id: s.id, ..Default::default() }).collect();
        ControlActor {
            world,
            host: ManagerHost::new(Roster::Runs(hosted), timing),
            scenario,
            spec_by_id,
            timing,
            serialize,
            resilience: FleetResilience::default(),
            active: BTreeMap::new(),
            locks: ScopeLockManager::new(),
            scope_breakers: HashMap::new(),
            gate: Vec::new(),
            waiting: HashMap::new(),
            queue_seq: 0,
            submitted: HashSet::new(),
            plan_cache: Rc::new(RefCell::new(PlanCache::new(PLAN_CACHE_CAPACITY))),
            journal: Vec::new(),
            fleet_config,
            rows,
            service_us: (0, 0),
            _marker: std::marker::PhantomData,
        }
    }

    /// Emits session-tagged control-plane and protocol events onto `bus`.
    pub(crate) fn with_bus(mut self, bus: Bus) -> Self {
        self.host.bus = bus;
        self
    }

    /// Installs the overload-protection policy (breakers + bulkhead).
    pub(crate) fn with_resilience(mut self, r: FleetResilience) -> Self {
        self.host.breaker = r.breaker;
        self.resilience = r;
        self
    }

    /// Plan-cache counters for the current incarnation (crash faults reset
    /// them along with the cache itself).
    pub(crate) fn cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.borrow().stats()
    }

    fn spec_ix(&self, session: u64) -> Option<usize> {
        self.spec_by_id.get(&session).copied()
    }

    /// The report row of scenario session `sid`.
    pub(crate) fn row(&self, sid: u64) -> &SessionResult {
        &self.rows[self.spec_by_id[&sid]]
    }

    fn row_mut(&mut self, sid: u64) -> &mut SessionResult {
        &mut self.rows[self.spec_by_id[&sid]]
    }

    fn resources_of(&self, spec: &SessionSpec) -> Vec<u32> {
        self.scope_resources(&self.world.scope_comps(&spec.flips))
    }

    /// The lock resources of a session over `scope`.
    fn scope_resources(&self, scope: &[CompId]) -> Vec<u32> {
        if self.serialize {
            // One global token: every session conflicts with every other.
            vec![u32::MAX]
        } else {
            self.world.resources_for(scope)
        }
    }

    /// Emits `ev` about `session` on this plane's bus (its host's).
    pub(crate) fn emit_fleet(&self, ctx: &Ctx<'_, M>, session: u64, ev: FleetEvent) {
        self.host.bus.emit(fleet_event(ctx.now(), ctx.self_id(), session, ev));
    }

    /// FNV-1a fingerprint of the sorted resources of scope `scope` — the
    /// identity of a scope for per-scope breaker purposes. Two sessions
    /// moving the same groups share a key; disjoint scopes practically never
    /// collide.
    fn scope_key(&self, scope: &[CompId]) -> u64 {
        let mut rs = self.scope_resources(scope);
        rs.sort_unstable();
        rs.iter().fold(Fnv1a::new(), |h, r| h.write(r.to_le_bytes())).finish()
    }

    /// Backpressure hint attached to a shed: observed mean service time
    /// (admission → completion over finished sessions; the protocol's base
    /// retry deadline before anything finished) scaled by how many
    /// capacity-widths of backlog stand in front of a resubmission.
    fn retry_after_hint(&self) -> u64 {
        let (sum, n) = self.service_us;
        let unit =
            sum.checked_div(n).map_or_else(|| self.timing.retry.base.as_micros(), |u| u.max(1));
        let capacity = self.resilience.bulkhead.max_in_flight.max(1) as u64;
        let backlog = (self.active.len() + self.waiting.len()) as u64;
        unit.saturating_mul(backlog / capacity + 1)
    }

    fn emit_scope_breaker(
        &self,
        ctx: &Ctx<'_, M>,
        session: u64,
        scope: u64,
        tr: BreakerTransition,
    ) {
        let ev = match tr {
            BreakerTransition::Opened { cooldown } => {
                FleetEvent::ScopeBreakerOpened { scope, cooldown_us: cooldown.as_micros() }
            }
            BreakerTransition::Probing => FleetEvent::ScopeBreakerProbed { scope },
            BreakerTransition::Closed => FleetEvent::ScopeBreakerClosed { scope },
        };
        self.emit_fleet(ctx, session, ev);
    }

    /// The first of a scope's `agents` (dense indices) whose open breaker
    /// gates it, if any.
    fn scope_gated(&self, now: SimTime, agents: &[usize]) -> Option<usize> {
        agents.iter().copied().find(|&a| self.host.blocks(a, now))
    }

    /// The agents hosting `scope`, in scope order.
    fn agents_of(&self, scope: &[CompId]) -> Vec<usize> {
        scope.iter().filter_map(|&c| self.world.agent_for(c)).collect()
    }

    /// Session `sid` around `core`, live over `scope`, hosted by `agents`.
    fn go_live(&mut self, sid: u64, core: ManagerCore, scope: Vec<CompId>, agents: Vec<usize>) {
        self.active.insert(sid, Live { sess: SessionCore::new(core), scope, agents });
    }

    /// Concludes `sid` without running its protocol: the journaled
    /// `Outcome { false, false }` (so a restored plane never resurrects it),
    /// the typed event and the completion instant. Hands back the row for
    /// the caller's verdict flag and admission decision.
    fn conclude(&mut self, ctx: &mut Ctx<'_, M>, sid: u64, ev: FleetEvent) -> &mut SessionResult {
        self.journal.push(SessionRecord {
            session: SessionId(sid),
            record: JournalRecord::Outcome { success: false, gave_up: false },
        });
        self.emit_fleet(ctx, sid, ev);
        let row = self.row_mut(sid);
        row.completed_at = Some(ctx.now().as_micros());
        row
    }

    /// Admits every session a lock release or cancellation just granted
    /// (ids without a scenario entry — foreign holds — are skipped).
    fn admit_all(&mut self, ctx: &mut Ctx<'_, M>, granted: Vec<u64>) {
        for sid in granted {
            self.admit_granted(ctx, sid);
        }
    }

    /// Terminates a session at its admission instant because a breaker
    /// gating it is open — an agent's, or its whole scope's (the
    /// collaborative set has been flapping, while disjoint scopes sharing an
    /// agent keep admitting). Journaled outcome, typed event, locks
    /// released: the session fails fast instead of hanging on suppressed
    /// sends.
    fn reject(&mut self, ctx: &mut Ctx<'_, M>, sid: u64, ev: FleetEvent) {
        self.conclude(ctx, sid, ev).admission = Some(Admission::Rejected);
        let granted = self.locks.release(sid);
        self.admit_all(ctx, granted);
    }

    /// Registers `session` in the waiting population (lock queue or gate).
    fn note_waiting(&mut self, session: u64, priority: u8) {
        self.queue_seq += 1;
        self.waiting.insert(session, (priority, self.queue_seq));
    }

    /// Sheds the least valuable waiter: lowest priority, oldest first. The
    /// victim's session resolves with a journaled `SessionShed` outcome —
    /// unsuccessful but not given up, exactly like a cancellation — so the
    /// durable record never shows a session that silently vanished.
    fn shed_overflow(&mut self, ctx: &mut Ctx<'_, M>) {
        let entries: Vec<(u64, u8, u64)> =
            self.waiting.iter().map(|(&sid, &(p, seq))| (sid, p, seq)).collect();
        let Some(victim) = shed_victim(&entries) else { return };
        self.waiting.remove(&victim);
        self.gate.retain(|&g| g != victim);
        let granted = self.locks.cancel(victim).unwrap_or_default();
        let waited_us =
            ctx.now().as_micros().saturating_sub(self.row(victim).submitted_at.unwrap_or(0));
        let retry_after_us = self.retry_after_hint();
        let ev = FleetEvent::SessionShed { session: victim, waited_us, retry_after_us };
        let row = self.conclude(ctx, victim, ev);
        row.shed = true;
        row.admission = Some(Admission::Shed { retry_after_us });
        // Cancelling a lock-queue entry may unblock compatible waiters
        // behind it; they hold their scopes now, so admit them (the
        // in-flight bound is enforced at every *admission decision*, not
        // retroactively against lock grants).
        self.admit_all(ctx, granted);
    }

    /// Admits gated sessions while in-flight capacity is available (highest
    /// priority first, oldest among ties). A gated session whose scope turns
    /// out to be busy moves into the lock queue and stays in `waiting`.
    fn drain_gate(&mut self, ctx: &mut Ctx<'_, M>) {
        while self.active.len() < self.resilience.bulkhead.max_in_flight {
            let Some(&sid) = self.gate.iter().max_by_key(|&&sid| {
                let (p, seq) = self.waiting.get(&sid).copied().unwrap_or((0, u64::MAX));
                (p, std::cmp::Reverse(seq), std::cmp::Reverse(sid))
            }) else {
                break;
            };
            self.gate.retain(|&g| g != sid);
            let Some(ix) = self.spec_ix(sid) else {
                self.waiting.remove(&sid);
                continue;
            };
            let spec = self.scenario[ix].clone();
            if self.locks.try_acquire(sid, &self.resources_of(&spec), spec.priority) {
                self.admit(ctx, ix);
            }
            // else: now lock-queued; `waiting` entry (and its age) carries over.
        }
    }

    /// Runs `ev` through live session `session`'s core, with the RTO of its
    /// slowest participant as the deadline hint, and applies the effects.
    fn step(&mut self, ctx: &mut Ctx<'_, M>, session: u64, ev: ManagerEvent) {
        let live = self.active.get_mut(&session).expect("only a live session steps");
        let hint = self.host.hint(|| live.agents.iter().copied());
        let in_timeout = matches!(ev, ManagerEvent::Timeout { .. });
        live.sess.core.set_timeout_hint(hint);
        let eff = live.sess.core.on_event(ev);
        self.apply(ctx, session, in_timeout, eff);
    }

    /// Feeds `effects` of session `session`'s core back into the world
    /// through the host (`in_timeout`: they answer a timeout), journals
    /// what it hands back, and handles completion (which may admit queued
    /// sessions).
    fn apply(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        session: u64,
        in_timeout: bool,
        effects: Vec<ManagerEffect>,
    ) {
        // Planner queries (inside core event handling) may have touched the
        // shared plan cache; surface those interactions as fleet events.
        for note in self.plan_cache.borrow_mut().take_notes() {
            let ev = match note.kind {
                CacheNoteKind::Hit => FleetEvent::PlanCacheHit { session: note.session },
                CacheNoteKind::Miss => FleetEvent::PlanCacheMiss { session: note.session },
                CacheNoteKind::Evicted => FleetEvent::PlanCacheEvicted { session: note.session },
            };
            self.emit_fleet(ctx, note.session, ev);
        }
        let live = self.active.get_mut(&session).expect("only a live session's core has effects");
        let mut completed = None;
        for eff in self.host.apply(ctx, SessionId(session), &mut live.sess, in_timeout, effects) {
            match eff {
                ManagerEffect::Complete(outcome) => completed = Some(outcome),
                ManagerEffect::Journal(rec) => {
                    self.journal.push(SessionRecord { session: SessionId(session), record: rec });
                }
                _ => {} // the host put it on the wire
            }
        }
        if let Some(outcome) = completed {
            self.finish(ctx, session, outcome);
        }
    }

    /// Submits scenario entry `ix`: computes the scope, and either admits
    /// the session immediately or queues it behind the conflicting holders.
    fn submit(&mut self, ctx: &mut Ctx<'_, M>, ix: usize) {
        let spec = self.scenario[ix].clone();
        if !self.submitted.insert(spec.id) {
            return; // restart re-armed a timer for an already submitted entry
        }
        self.row_mut(spec.id).submitted_at.get_or_insert(ctx.now().as_micros());
        let resources = self.resources_of(&spec);
        self.emit_fleet(
            ctx,
            spec.id,
            FleetEvent::SessionSubmitted { session: spec.id, resources: resources.len() as u32 },
        );
        // Bulkhead: a full control plane parks the newcomer at the admission
        // gate without even trying its scope; the scope-lock path below only
        // runs while in-flight capacity exists.
        if self.active.len() >= self.resilience.bulkhead.max_in_flight {
            self.park(ctx, ix, &spec);
            return;
        }
        if self.locks.try_acquire(spec.id, &resources, spec.priority) {
            self.admit(ctx, ix);
        } else {
            // The lock manager auto-enqueued the session on conflict.
            self.note_waiting(spec.id, spec.priority);
            let position = self.locks.position(spec.id).unwrap_or(0) as u32;
            self.queued(ctx, ix, &spec, position);
        }
    }

    /// Parks a session at the admission gate (in-flight cap reached). Gate
    /// parks journal the same `Queued` record as lock-queue entries so a
    /// crashed plane requeues them in order.
    fn park(&mut self, ctx: &mut Ctx<'_, M>, ix: usize, spec: &SessionSpec) {
        self.note_waiting(spec.id, spec.priority);
        self.gate.push(spec.id);
        self.queued(ctx, ix, spec, (self.waiting.len() - 1) as u32);
    }

    /// What every newly waiting session gets, lock-queued or gate-parked:
    /// the journaled queueing decision — so a crashed control plane requeues
    /// it (in order) even though no core exists for it yet; source/target
    /// are provisional, admission recomputes them against the then-current
    /// fleet configuration — the typed event, its withdrawal timer, and a
    /// shed of the least valuable waiter when the waiting room overflows.
    fn queued(&mut self, ctx: &mut Ctx<'_, M>, ix: usize, spec: &SessionSpec, position: u32) {
        let target = self.world.target_for(&self.fleet_config, &spec.flips);
        self.journal.push(SessionRecord {
            session: SessionId(spec.id),
            record: JournalRecord::Queued { source: self.fleet_config.clone(), target },
        });
        self.emit_fleet(ctx, spec.id, FleetEvent::SessionQueued { session: spec.id, position });
        self.arm_cancel(ctx, ix, spec);
        if self.waiting.len() > self.resilience.bulkhead.max_queued {
            self.shed_overflow(ctx);
        }
    }

    /// Arms the withdrawal timer of a waiting session that has one.
    fn arm_cancel(&self, ctx: &mut Ctx<'_, M>, ix: usize, spec: &SessionSpec) {
        if let Some(at) = spec.cancel_at {
            let delay = at.as_micros().saturating_sub(ctx.now().as_micros());
            ctx.set_timer(SimDuration::from_micros(delay), App(FleetTimer::Cancel(ix)));
        }
    }

    /// Admits a session whose scope locks are held: builds its scoped
    /// planner and embedded core, and fires the adaptation request.
    fn admit(&mut self, ctx: &mut Ctx<'_, M>, ix: usize) {
        let spec = self.scenario[ix].clone();
        self.waiting.remove(&spec.id);
        self.gate.retain(|&g| g != spec.id);
        let scope = self.world.scope_comps(&spec.flips);
        let agents = self.agents_of(&scope);
        // Fail fast behind an open breaker: an admitted session whose scope
        // includes a gated agent would only hang on suppressed sends while
        // holding its locks, convoying every scope it shares a lock with.
        if let Some(agent) = self.scope_gated(ctx.now(), &agents) {
            let ev = FleetEvent::SessionRejected { session: spec.id, agent: agent as u32 };
            self.reject(ctx, spec.id, ev);
            return;
        }
        // Per-scope breaker: admission doubles as the half-open probe — one
        // session is let through after the cooldown and its outcome decides
        // whether the scope's breaker closes or re-opens with a doubled
        // cooldown.
        if self.resilience.scope_breaker.is_some() {
            let key = self.scope_key(&scope);
            let now = ctx.now();
            if let Some((ok, tr)) = self.scope_breakers.get_mut(&key).map(|b| b.allow_send(now)) {
                if let Some(tr) = tr {
                    self.emit_scope_breaker(ctx, spec.id, key, tr);
                }
                if !ok {
                    let ev = FleetEvent::ScopeRejected { session: spec.id, scope: key };
                    self.reject(ctx, spec.id, ev);
                    return;
                }
            }
        }
        let source = self.fleet_config.clone();
        let target = self.world.target_for(&source, &spec.flips);
        let planner = ScopedLazyPlanner::new(Rc::clone(&self.world), &scope)
            .with_cache(Rc::clone(&self.plan_cache), spec.id);
        let core = ManagerCore::new(self.timing, Box::new(planner));
        self.go_live(spec.id, core, scope, agents);
        let now = ctx.now().as_micros();
        let row = self.row_mut(spec.id);
        row.admission = Some(Admission::Admitted);
        row.admitted_at = Some(now);
        let queued_for = now.saturating_sub(row.submitted_at.unwrap_or(0));
        self.emit_fleet(ctx, spec.id, FleetEvent::SessionAdmitted { session: spec.id, queued_for });
        self.step(ctx, spec.id, ManagerEvent::Request { source, target });
    }

    /// Completion: fold the session's final configuration into the fleet
    /// configuration, release its scope, and admit whoever that unblocks.
    fn finish(&mut self, ctx: &mut Ctx<'_, M>, session: u64, outcome: Outcome) {
        let live = self.active.remove(&session).expect("only a live session finishes");
        // Only its own scope's hosts can still name this session: an
        // engagement is recorded where the host sends, and a session's
        // planner addresses no agent outside its scope.
        for &agent in &live.agents {
            self.host.disengage(agent, session);
        }
        self.fold(live.scope.iter().map(|&c| (c, outcome.final_config.contains(c))));
        // Scope-breaker evidence: an unsuccessful protocol outcome (give-up
        // or rollback) marks the whole scope as flapping; a success heals
        // it. Breakers materialize only on first failure, so healthy scopes
        // never populate the map.
        if let Some(cfg) = self.resilience.scope_breaker {
            let key = self.scope_key(&live.scope);
            let now = ctx.now();
            let tr = if outcome.success {
                self.scope_breakers.get_mut(&key).and_then(|b| b.on_success(now))
            } else {
                self.scope_breakers
                    .entry(key)
                    .or_insert_with(|| CircuitBreaker::new(cfg))
                    .on_failure(now)
            };
            if let Some(tr) = tr {
                self.emit_scope_breaker(ctx, session, key, tr);
            }
        }
        let now = ctx.now().as_micros();
        let row = self.row_mut(session);
        row.completed_at = Some(now);
        row.success = outcome.success;
        row.gave_up = outcome.gave_up && !outcome.success;
        if let Some(admitted) = row.admitted_at {
            self.service_us.0 += now.saturating_sub(admitted);
            self.service_us.1 += 1;
        }
        self.emit_fleet(
            ctx,
            session,
            FleetEvent::SessionDone { session, success: outcome.success, gave_up: outcome.gave_up },
        );
        for timer in live.sess.timers.values() {
            ctx.cancel_timer(*timer);
        }
        let granted = self.locks.release(session);
        self.admit_all(ctx, granted);
        // Freed in-flight capacity: pull gated sessions in.
        self.drain_gate(ctx);
    }

    /// Withdraws a still-queued session (cancellation timer fired).
    fn cancel_queued(&mut self, ctx: &mut Ctx<'_, M>, ix: usize) {
        let sid = self.scenario[ix].id;
        if self.active.contains_key(&sid) || self.is_done(sid) {
            return; // admitted or finished in the meantime — too late
        }
        let granted = if self.gate.contains(&sid) {
            // Gate-parked sessions never entered the lock structures.
            self.gate.retain(|&g| g != sid);
            Vec::new()
        } else {
            match self.locks.cancel(sid) {
                Some(g) => g,
                None => return,
            }
        };
        self.waiting.remove(&sid);
        // A withdrawn request resolves unsuccessfully but *not* given up:
        // nothing is awaiting the user, the requester simply left.
        self.conclude(ctx, sid, FleetEvent::SessionCancelled { session: sid }).cancelled = true;
        self.admit_all(ctx, granted);
    }

    /// Routes an incoming protocol message to the owning session's core.
    fn route(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        agent: usize,
        session: SessionId,
        msg: sada_proto::ProtoMsg,
    ) {
        // Trust the echoed stamp when it names a live session; otherwise
        // fall back to the engagement map (rejoins after a completed
        // session still carry the old stamp).
        let sid = if session.0 != 0 && self.active.contains_key(&session.0) {
            session.0
        } else {
            match self.host.engaged(agent) {
                Some(s) if self.active.contains_key(&s) => s,
                _ => return, // nobody is engaging this agent — stale traffic
            }
        };
        self.step(ctx, sid, ManagerEvent::AgentMsg { agent, msg });
    }

    // ---- hooks for the sharded runtime (crate-internal) ----
    //
    // The shard wrappers drive admission decisions that originate outside
    // this actor's own timers: lock-escalation grants arriving over the
    // cross-shard fabric, and straddling sessions whose submission the
    // global tier schedules itself.

    /// Direct access to the scope-lock table, so a region can hold slices
    /// of globally escalated scopes under foreign (non-scenario) ids.
    pub(crate) fn locks_mut(&mut self) -> &mut ScopeLockManager {
        &mut self.locks
    }

    /// Sessions currently holding lock-table entries — the quiescence
    /// residue the shard report surfaces (must be zero after a clean run).
    pub(crate) fn lock_holder_count(&self) -> usize {
        self.locks.holders().len()
    }

    /// Submits scenario entry for session `sid` now (no-op for unknown or
    /// already-submitted ids).
    pub(crate) fn submit_session(&mut self, ctx: &mut Ctx<'_, M>, sid: u64) {
        if let Some(ix) = self.spec_ix(sid) {
            self.submit(ctx, ix);
        }
    }

    /// Admits session `sid` whose scope locks were granted out-of-band
    /// (lock-release cascade driven by a foreign hold being released).
    pub(crate) fn admit_granted(&mut self, ctx: &mut Ctx<'_, M>, sid: u64) {
        if let Some(ix) = self.spec_ix(sid) {
            self.admit(ctx, ix);
        }
    }

    /// Folds adapted component values into the durable fleet configuration:
    /// a finished session's final scope values, or — from the shard
    /// wrappers — those of a globally run session flowing back to the
    /// owning region. Journaled sources and queued targets still read the
    /// previous snapshot, so a fold that changes a bit copies what it
    /// changes (the spine and the scope's chunks, once each) and one that
    /// changes nothing leaves the snapshot shared.
    pub(crate) fn fold(&mut self, values: impl IntoIterator<Item = (CompId, bool)>) {
        assign(&mut self.fleet_config, values);
    }

    /// Whether session `sid` has reached a terminal result.
    pub(crate) fn is_done(&self, sid: u64) -> bool {
        self.row(sid).completed_at.is_some()
    }

    /// Concludes a never-admitted session as abandoned — the global tier's
    /// terminal verdict when its fabric retransmission ladder exhausts
    /// against an unreachable region. Idempotent: a session that already
    /// holds a result is left untouched.
    pub(crate) fn conclude_abandoned(&mut self, ctx: &mut Ctx<'_, M>, sid: u64) {
        if !self.is_done(sid) {
            let ev = FleetEvent::SessionDone { session: sid, success: false, gave_up: false };
            self.conclude(ctx, sid, ev);
        }
    }

    /// Concludes a never-submitted session as withdrawn at `now` — a
    /// straddler the global tier withdrew before every slice was granted.
    /// The row alone records it: the global tier journals the withdrawal,
    /// and no event is emitted here.
    pub(crate) fn conclude_withdrawn(&mut self, sid: u64, now: SimTime) {
        let row = self.row_mut(sid);
        row.cancelled = true;
        row.completed_at = Some(now.as_micros());
    }
}

impl<M: Clone + 'static> Actor<Wire<M>, ProtoTimer<FleetTimer>> for ControlActor<M> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        for (ix, spec) in self.scenario.iter().enumerate() {
            ctx.set_timer(spec.submit_at, App(FleetTimer::Submit(ix)));
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: ActorId, msg: Wire<M>) {
        if let Wire::Proto { epoch, session, msg: p } = msg {
            if let Some(agent) = self.host.on_arrival(from, epoch, ctx.now(), ctx.self_id()) {
                self.route(ctx, agent, session, p);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, timer: ProtoTimer<FleetTimer>) {
        match timer {
            App(FleetTimer::Submit(ix)) => self.submit(ctx, ix),
            App(FleetTimer::Cancel(ix)) => self.cancel_queued(ctx, ix),
            ProtoTimer::Core { session, token, .. } => {
                if let Some(live) = self.active.get_mut(&session) {
                    live.sess.timers.remove(&token);
                    self.step(ctx, session, ManagerEvent::Timeout { token });
                }
            }
            _ => {}
        }
    }

    fn on_crash(&mut self, _now: SimTime) {
        // The volatile process image dies; the journal, report rows, service
        // times and fleet configuration stand in for durable storage and
        // survive.
        self.active.clear();
        self.locks = ScopeLockManager::new();
        self.host.crash();
        self.submitted.clear();
        // Scope breakers and the waiting bookkeeping are process state too:
        // the restored plane re-learns them and rebuilds its queues from the
        // journal.
        self.gate.clear();
        self.waiting.clear();
        self.scope_breakers.clear();
        // The plan cache dies with the process, last proof included: the
        // restored incarnation starts cold, so journal replay never leans
        // on pre-crash plans or pre-crash safety proofs.
        self.plan_cache = Rc::new(RefCell::new(PlanCache::new(PLAN_CACHE_CAPACITY)));
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, M>) {
        // Partition the interleaved journal by session, preserving the
        // order in which sessions first appear (the requeue order).
        let mut order: Vec<u64> = Vec::new();
        let mut per: HashMap<u64, Vec<JournalRecord>> = HashMap::new();
        for rec in &self.journal {
            let sid = rec.session.0;
            per.entry(sid)
                .or_insert_with(|| {
                    order.push(sid);
                    Vec::new()
                })
                .push(rec.record.clone());
        }
        let is_done = |recs: &[JournalRecord]| {
            recs.iter().any(|r| matches!(r, JournalRecord::Outcome { .. }))
        };
        let has_request = |recs: &[JournalRecord]| {
            recs.iter().any(|r| matches!(r, JournalRecord::Request { .. }))
        };
        // Pass 1: restore in-flight sessions and re-seize their scopes
        // (guaranteed compatible — they held them when the plane died).
        let mut restore_effects: Vec<(u64, Vec<ManagerEffect>)> = Vec::new();
        for &sid in &order {
            let recs = &per[&sid];
            self.submitted.insert(sid);
            if is_done(recs) || !has_request(recs) {
                continue;
            }
            let Some(ix) = self.spec_ix(sid) else { continue };
            let spec = self.scenario[ix].clone();
            // Strip the control-plane queueing prefix: the embedded core
            // never saw those records (it journals from Request onward).
            let body: Vec<JournalRecord> = recs
                .iter()
                .filter(|r| !matches!(r, JournalRecord::Queued { .. }))
                .cloned()
                .collect();
            let scope = self.world.scope_comps(&spec.flips);
            // The restored planner reattaches to the (fresh, cold) cache:
            // replay re-plans from scratch, then later sessions of this
            // incarnation may share the recomputed entries.
            let planner = ScopedLazyPlanner::new(Rc::clone(&self.world), &scope)
                .with_cache(Rc::clone(&self.plan_cache), sid);
            let (core, eff) = ManagerCore::restore(self.timing, Box::new(planner), &body)
                .unwrap_or_else(|e| panic!("control-plane journal replay failed: {e}"));
            let resources = self.scope_resources(&scope);
            let seized = self.locks.try_acquire(sid, &resources, spec.priority);
            assert!(seized, "in-flight scopes are disjoint and must re-acquire");
            let agents = self.agents_of(&scope);
            self.go_live(sid, core, scope, agents);
            restore_effects.push((sid, eff));
        }
        // Pass 2: requeue sessions that were waiting when the plane died,
        // in journal order; some may now be admissible.
        let mut to_admit: Vec<usize> = Vec::new();
        for &sid in &order {
            let recs = &per[&sid];
            if is_done(recs) || has_request(recs) {
                continue;
            }
            let Some(ix) = self.spec_ix(sid) else { continue };
            let spec = self.scenario[ix].clone();
            // Bulkhead capacity is honoured across the restart boundary: once
            // the restored in-flight set fills it, the remainder re-parks at
            // the admission gate rather than seizing scopes it can't run.
            let admissible = self.active.len() + to_admit.len()
                < self.resilience.bulkhead.max_in_flight
                && self.locks.try_acquire(sid, &self.resources_of(&spec), spec.priority);
            if admissible {
                to_admit.push(ix);
            } else {
                if self.active.len() + to_admit.len() >= self.resilience.bulkhead.max_in_flight {
                    self.gate.push(sid);
                }
                self.note_waiting(sid, spec.priority);
                self.arm_cancel(ctx, ix, &spec);
            }
        }
        self.emit_fleet(
            ctx,
            0,
            FleetEvent::ControlRestored {
                active: self.active.len() as u32,
                queued: self.locks.queue_len() as u32,
            },
        );
        for (sid, eff) in restore_effects {
            self.apply(ctx, sid, false, eff);
        }
        for ix in to_admit {
            self.admit(ctx, ix);
        }
        // Re-arm scenario entries whose submission timer died unfired.
        for ix in 0..self.scenario.len() {
            let (id, at) = (self.scenario[ix].id, SimTime::ZERO + self.scenario[ix].submit_at);
            if !self.submitted.contains(&id) && !ctx.set_timer_at(at, App(FleetTimer::Submit(ix))) {
                self.submit(ctx, ix);
            }
        }
    }
}
