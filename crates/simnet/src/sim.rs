//! The event loop: queue, links, groups, and actor dispatch.

use std::collections::{HashMap, HashSet};
use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sada_obs::{Bus, Event as ObsEvent, NetEvent, Payload, SimDuration, SimTime};

use crate::actor::{Actor, ActorId, ArenaActor, Context, Op, TimerId};
use crate::fault::{Fault, FaultPlan, MsgPattern};
use crate::link::LinkConfig;
use crate::wheel::TimerWheel;

/// Identifies a multicast group created with [`Simulator::create_group`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupId(u32);

/// Identifies an actor arena created with [`Simulator::add_arena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArenaId(u32);

/// Aggregate network counters for a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to the network (including ones later dropped).
    pub sent: u64,
    /// Messages delivered to an actor.
    pub delivered: u64,
    /// Messages dropped by loss, partition, or unknown destination.
    pub dropped: u64,
    /// Timers that fired (cancelled timers excluded).
    pub(crate) timers_fired: u64,
    /// Total events dispatched.
    pub events_processed: u64,
    /// Actor crashes executed by fault injection.
    pub crashes: u64,
    /// Actor restarts executed by fault injection.
    pub restarts: u64,
}

/// Resolved form of a scheduled [`Fault`]: windows become on/off pairs.
enum FaultAction {
    Crash(ActorId),
    Restart(ActorId),
    PartitionOn(ActorId, ActorId),
    PartitionOff(ActorId, ActorId),
}

/// State of one installed [`Fault::DropMatching`] rule.
struct DropRule {
    predicate: MsgPattern,
    nth: u32,
    seen: u32,
    spent: bool,
}

enum EventKind<M> {
    // `inc` stamps Deliver with the *target's* incarnation at route time and
    // Timer with the *owner's* incarnation at arm time: a crash bumps the
    // incarnation, so everything in flight toward the old incarnation is
    // discarded at dispatch — even if the actor restarted in the meantime.
    Deliver { from: ActorId, to: ActorId, inc: u32, msg: M },
    Timer { owner: ActorId, id: TimerId, inc: u32, tag: u64 },
    Fault(FaultAction),
}

/// What stands behind a run of consecutive [`ActorId`]s.
enum Backing<M> {
    /// One boxed actor (a run of one id).
    Solo(Option<Box<dyn Actor<M>>>),
    /// Consecutive members of one [`ArenaActor`], from `first_member` up.
    Members { arena: u32, first_member: u32 },
    /// Nothing. A vacant id is addressable and allocates nothing; whatever
    /// reaches it is treated exactly as if it lay past the end of the id
    /// space.
    Vacant,
}

/// A run of consecutive ids `[first_id, end)` backed one way, registered
/// under one name. The extents of a simulator ascend and tile its id space.
struct Extent<M> {
    first_id: u32,
    end: u32,
    /// Hosted slot of `first_id` — the index into the per-actor tables,
    /// which hold hosted actors only, densely (unused when vacant).
    first_slot: u32,
    backing: Backing<M>,
}

/// Where a hosted id lives: its extent, and its slot in the per-actor
/// tables.
#[derive(Clone, Copy)]
struct Loc {
    extent: usize,
    slot: usize,
}

/// An actor checked out of its extent for the duration of one callback.
enum Taken<M> {
    Solo(Box<dyn Actor<M>>),
    Arena(Box<dyn ArenaActor<M>>, u32, u32),
}

/// Measures a message's wire size for the bandwidth model.
type Sizer<M> = Box<dyn Fn(&M) -> usize>;

/// A deterministic discrete-event simulator over message type `M`.
///
/// All nondeterminism (loss, jitter) flows from the single seed passed to
/// [`Simulator::new`], and simultaneous events are ordered by creation
/// sequence, so a run is a pure function of `(seed, actors, inputs)`.
pub struct Simulator<M> {
    now: SimTime,
    seq: u64,
    queue: TimerWheel<EventKind<M>>,
    /// The id table: what a plane does not host costs one vacant extent,
    /// not a slot per id.
    extents: Vec<Extent<M>>,
    arenas: Vec<Option<Box<dyn ArenaActor<M>>>>,
    /// Runs of hosted ids not yet started, in registration order, so
    /// `ensure_started` is O(new actors) instead of a full scan per step.
    unstarted: Vec<Range<u32>>,
    /// Net events buffered within one dispatch, delivered as a batch.
    net_buf: Vec<ObsEvent>,
    links: HashMap<(ActorId, ActorId), LinkConfig>,
    default_link: LinkConfig,
    link_busy_until: HashMap<(ActorId, ActorId), SimTime>,
    sizer: Option<Sizer<M>>,
    groups: Vec<Vec<ActorId>>,
    cancelled: HashSet<TimerId>,
    next_timer: u64,
    rng: StdRng,
    bus: Bus,
    stats: NetStats,
    /// Per hosted actor, by slot.
    incarnation: Vec<u32>,
    crashed: Vec<bool>,
    drop_rules: Vec<DropRule>,
    delay_bursts: Vec<(SimTime, SimTime, SimDuration)>,
}

impl<M: Clone + 'static> Simulator<M> {
    /// Creates an empty simulator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Simulator {
            now: SimTime::ZERO,
            seq: 0,
            queue: TimerWheel::new(),
            extents: Vec::new(),
            arenas: Vec::new(),
            unstarted: Vec::new(),
            net_buf: Vec::new(),
            links: HashMap::new(),
            default_link: LinkConfig::default(),
            link_busy_until: HashMap::new(),
            sizer: None,
            groups: Vec::new(),
            cancelled: HashSet::new(),
            next_timer: 0,
            rng: StdRng::seed_from_u64(seed),
            bus: Bus::new(),
            stats: NetStats::default(),
            incarnation: Vec::new(),
            crashed: Vec::new(),
            drop_rules: Vec::new(),
            delay_bursts: Vec::new(),
        }
    }

    /// Registers an actor and returns its id. `_name` labels the actor for
    /// the reader of the call; the simulator does not keep it.
    ///
    /// `on_start` runs when the simulation first runs (or immediately, at the
    /// current virtual time, if the run already began).
    pub fn add_actor<A: Actor<M> + 'static>(&mut self, _name: &str, actor: A) -> ActorId {
        self.register(1, Backing::Solo(Some(Box::new(actor))))
    }

    /// Appends an extent of `count` ids and returns the first of them.
    fn register(&mut self, count: u32, backing: Backing<M>) -> ActorId {
        let first_id = self.extents.last().map_or(0, |e| e.end);
        let end = first_id.checked_add(count).expect("actor ids are u32");
        let first_slot = self.incarnation.len() as u32;
        if !matches!(backing, Backing::Vacant) {
            let hosted = first_slot as usize + count as usize;
            self.incarnation.resize(hosted, 0);
            self.crashed.resize(hosted, false);
            self.unstarted.push(first_id..end);
        }
        self.extents.push(Extent { first_id, end, first_slot, backing });
        ActorId(first_id)
    }

    /// Registers an actor family (typically a
    /// [`CloneArena`](crate::CloneArena)); members are added with
    /// [`Simulator::add_arena_members`]. The arena itself has no id on the
    /// wire — only its members do.
    pub fn add_arena<A: ArenaActor<M> + 'static>(&mut self, arena: A) -> ArenaId {
        let id = ArenaId(self.arenas.len() as u32);
        self.arenas.push(Some(Box::new(arena)));
        id
    }

    /// Registers the run `members` of `arena`'s member indices at the next
    /// `members.len()` ids, and returns the first of them — assigned from
    /// the same sequence as solo actors and vacant runs, so interleaving the
    /// three preserves id layout. `_name` labels the run, as for
    /// [`Simulator::add_actor`].
    pub fn add_arena_members(
        &mut self,
        _name: &str,
        arena: ArenaId,
        members: Range<u32>,
    ) -> ActorId {
        assert!((arena.0 as usize) < self.arenas.len(), "unknown arena {arena:?}");
        let backing = Backing::Members { arena: arena.0, first_member: members.start };
        self.register(members.len() as u32, backing)
    }

    /// Leaves the next `count` ids vacant: nothing is allocated behind them,
    /// and sends, injections, faults and queries naming one behave as for an
    /// id past the end — a send is counted and reported as dropped, a fault
    /// is ignored, the id reads as never crashed at incarnation 0. What is
    /// registered afterwards keeps the id it would have had with every
    /// vacant id hosted.
    pub fn add_vacant(&mut self, count: u32) {
        if count > 0 {
            self.register(count, Backing::Vacant);
        }
    }

    /// The extent and slot of `id`, if an actor is hosted there.
    fn locate(&self, id: ActorId) -> Option<Loc> {
        let extent = self.extents.partition_point(|e| e.first_id <= id.0).checked_sub(1)?;
        let e = &self.extents[extent];
        if id.0 >= e.end || matches!(e.backing, Backing::Vacant) {
            return None;
        }
        Some(Loc { extent, slot: (e.first_slot + (id.0 - e.first_id)) as usize })
    }

    /// Immutable, downcast access to the arena `member` belongs to.
    ///
    /// Returns `None` if `member` is not an arena member, the arena is
    /// mid-callback, or its concrete type is not `T`.
    pub fn arena<T: ArenaActor<M> + 'static>(&self, member: ActorId) -> Option<&T> {
        match self.extents[self.locate(member)?.extent].backing {
            Backing::Members { arena, .. } => {
                self.arenas[arena as usize].as_ref()?.as_any().downcast_ref::<T>()
            }
            Backing::Solo(_) | Backing::Vacant => None,
        }
    }

    /// Number of hosted actors (vacant ids are not actors).
    pub fn actor_count(&self) -> usize {
        self.incarnation.len()
    }

    /// Immutable, downcast access to an actor's state.
    ///
    /// Returns `None` if the id is unknown, the actor is mid-callback, or the
    /// concrete type is not `T`.
    pub fn actor<T: Actor<M> + 'static>(&self, id: ActorId) -> Option<&T> {
        match &self.extents[self.locate(id)?.extent].backing {
            Backing::Solo(actor) => actor.as_ref()?.as_any().downcast_ref::<T>(),
            Backing::Members { .. } | Backing::Vacant => None,
        }
    }

    /// Mutable, downcast access to an actor's state.
    pub fn actor_mut<T: Actor<M> + 'static>(&mut self, id: ActorId) -> Option<&mut T> {
        let extent = self.locate(id)?.extent;
        match &mut self.extents[extent].backing {
            Backing::Solo(actor) => actor.as_mut()?.as_any_mut().downcast_mut::<T>(),
            Backing::Members { .. } | Backing::Vacant => None,
        }
    }

    /// Checks the actor at `id` (hosted at `loc`) out for one callback;
    /// arena members check out their whole arena (put back before the next
    /// dispatch).
    fn take_actor(&mut self, id: ActorId, loc: Loc) -> Option<Taken<M>> {
        let e = &mut self.extents[loc.extent];
        match &mut e.backing {
            Backing::Solo(actor) => actor.take().map(Taken::Solo),
            Backing::Members { arena, first_member } => {
                let (a, m) = (*arena, *first_member + (id.0 - e.first_id));
                self.arenas[a as usize].take().map(|boxed| Taken::Arena(boxed, a, m))
            }
            Backing::Vacant => None,
        }
    }

    fn put_back(&mut self, loc: Loc, taken: Taken<M>) {
        match taken {
            Taken::Solo(boxed) => {
                if let Backing::Solo(actor) = &mut self.extents[loc.extent].backing {
                    *actor = Some(boxed);
                }
            }
            Taken::Arena(boxed, arena, _) => self.arenas[arena as usize] = Some(boxed),
        }
    }

    /// Runs one callback of `taken` (checked out of `id`, hosted at `loc`)
    /// under a fresh [`Context`], puts the actor back, and applies the
    /// effects the callback requested.
    fn dispatch(
        &mut self,
        id: ActorId,
        loc: Loc,
        mut taken: Taken<M>,
        call: impl FnOnce(&mut Taken<M>, &mut Context<'_, M>),
    ) {
        self.flush_net();
        let mut ops = Vec::new();
        let mut ctx =
            Context { self_id: id, now: self.now, ops: &mut ops, next_timer: &mut self.next_timer };
        call(&mut taken, &mut ctx);
        self.put_back(loc, taken);
        self.apply_ops(id, loc.slot, ops);
    }

    /// Sets the link used for pairs without an explicit configuration.
    pub fn set_default_link(&mut self, cfg: LinkConfig) {
        self.default_link = cfg;
    }

    /// Configures the directed link `from → to`.
    pub fn set_link(&mut self, from: ActorId, to: ActorId, cfg: LinkConfig) {
        self.links.insert((from, to), cfg);
    }

    /// Returns the effective configuration of `from → to`.
    pub fn link(&self, from: ActorId, to: ActorId) -> LinkConfig {
        self.links.get(&(from, to)).copied().unwrap_or(self.default_link)
    }

    /// Installs a message sizer, enabling bandwidth-limited links to model
    /// transmission and queueing delay. Without a sizer, `bandwidth` is
    /// ignored (messages are treated as zero-sized).
    pub fn set_message_sizer(&mut self, sizer: Box<dyn Fn(&M) -> usize>) {
        self.sizer = Some(sizer);
    }

    /// Partitions (or heals) both directions between `a` and `b`.
    pub fn set_partitioned(&mut self, a: ActorId, b: ActorId, partitioned: bool) {
        for (x, y) in [(a, b), (b, a)] {
            let cfg = self.link(x, y).with_partitioned(partitioned);
            self.links.insert((x, y), cfg);
        }
    }

    /// Creates a multicast group over `members` (order irrelevant).
    pub fn create_group(&mut self, members: &[ActorId]) -> GroupId {
        let id = GroupId(self.groups.len() as u32);
        self.groups.push(members.to_vec());
        id
    }

    /// Installs the observability bus this simulator emits onto. All
    /// clones of a [`Bus`] share one sink list, so the harness keeps a
    /// clone and attaches whatever sinks it wants before (or during) the
    /// run.
    pub fn set_bus(&mut self, bus: Bus) {
        self.flush_net();
        self.bus = bus;
    }

    /// The bus this simulator emits onto.
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// Aggregate counters for the run so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an out-of-band delivery of `msg` from `from` to `to` after
    /// `delay` — the hook tests and drivers use to kick off scenarios.
    ///
    /// As an external stimulus it bypasses loss, jitter, and bandwidth on
    /// the link — but *not* partitions or crashes: a partitioned link or a
    /// dead target drops injected traffic exactly like actor-initiated
    /// sends, so fault windows cannot be smuggled around.
    pub fn inject(&mut self, from: ActorId, to: ActorId, msg: M, delay: SimDuration) {
        let Some(slot) = self.reachable_slot(from, to) else {
            self.stats.dropped += 1;
            self.emit_net(to, NetEvent::Dropped { from: from.0, to: to.0 });
            self.flush_net();
            return;
        };
        let at = self.now + delay;
        let inc = self.incarnation[slot];
        self.push_event(at, EventKind::Deliver { from, to, inc, msg });
    }

    /// The slot of `to` when an injection from `from` can reach it: hosted,
    /// up, and not partitioned away.
    fn reachable_slot(&self, from: ActorId, to: ActorId) -> Option<usize> {
        let slot = self.locate(to)?.slot;
        (!self.crashed[slot] && !self.link(from, to).partitioned).then_some(slot)
    }

    /// Batched [`Simulator::inject`]: schedules every message in `msgs`
    /// (from `from` to `to`, all after the same `delay`) with consecutive
    /// sequence numbers — bitwise identical to a loop of single injects,
    /// with the crash/partition check hoisted out of the loop.
    pub fn inject_batch(&mut self, from: ActorId, to: ActorId, msgs: Vec<M>, delay: SimDuration) {
        let Some(slot) = self.reachable_slot(from, to) else {
            for _ in &msgs {
                self.stats.dropped += 1;
                self.emit_net(to, NetEvent::Dropped { from: from.0, to: to.0 });
            }
            self.flush_net();
            return;
        };
        let at = self.now + delay;
        let inc = self.incarnation[slot];
        for msg in msgs {
            self.push_event(at, EventKind::Deliver { from, to, inc, msg });
        }
    }

    /// Installs every fault in `plan`: crash/restart and partition windows
    /// are scheduled at their virtual times (relative to time zero), drop
    /// rules and delay bursts take effect immediately.
    ///
    /// Plans compose — scheduling a second plan adds to the first.
    pub fn schedule_faults(&mut self, plan: &FaultPlan) {
        for fault in &plan.faults {
            match *fault {
                Fault::CrashActor { at, id } => {
                    self.push_event(at, EventKind::Fault(FaultAction::Crash(id)));
                }
                Fault::RestartActor { at, id } => {
                    self.push_event(at, EventKind::Fault(FaultAction::Restart(id)));
                }
                Fault::PartitionWindow { from, to, start, end } => {
                    self.push_event(start, EventKind::Fault(FaultAction::PartitionOn(from, to)));
                    self.push_event(end, EventKind::Fault(FaultAction::PartitionOff(from, to)));
                }
                Fault::DropMatching { nth, predicate } => {
                    self.drop_rules.push(DropRule {
                        predicate,
                        nth: nth.max(1),
                        seen: 0,
                        spent: false,
                    });
                }
                Fault::DelayBurst { window, extra_latency } => {
                    self.delay_bursts.push((window.0, window.1, extra_latency));
                }
            }
        }
    }

    /// Schedules a crash of `id` at absolute time `at`.
    pub fn crash_at(&mut self, id: ActorId, at: SimTime) {
        self.push_event(at, EventKind::Fault(FaultAction::Crash(id)));
    }

    /// Schedules a restart of `id` at absolute time `at`.
    pub fn restart_at(&mut self, id: ActorId, at: SimTime) {
        self.push_event(at, EventKind::Fault(FaultAction::Restart(id)));
    }

    /// True while `id` is crashed (between a crash and its restart).
    pub fn is_crashed(&self, id: ActorId) -> bool {
        self.locate(id).is_some_and(|loc| self.crashed[loc.slot])
    }

    /// The incarnation number of `id`: 0 until its first crash, then +1
    /// per crash. Restart does not change it.
    pub fn incarnation(&self, id: ActorId) -> u32 {
        self.locate(id).map_or(0, |loc| self.incarnation[loc.slot])
    }

    /// Buffers a network event for the bus, stamped with the current
    /// virtual time and `actor` as the acting party. Buffered events are
    /// flushed as one batch before the next actor callback (and at the end
    /// of every dispatch), so each sink observes exactly the per-message
    /// publish order. Free when no sink is attached.
    fn emit_net(&mut self, actor: ActorId, ev: NetEvent) {
        if !self.bus.has_sinks() {
            return;
        }
        // Session/shard stay 0 here; `emit_batch` stamps the bus's scope
        // and shard exactly as a direct `publish` would.
        self.net_buf.push(ObsEvent {
            at: self.now,
            actor: actor.0,
            session: 0,
            shard: 0,
            payload: Payload::Net(ev),
        });
    }

    /// Delivers buffered net events to every sink as one batch.
    fn flush_net(&mut self) {
        if !self.net_buf.is_empty() {
            self.bus.emit_batch(&mut self.net_buf);
        }
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at.as_micros(), seq, kind);
    }

    fn ensure_started(&mut self) {
        while !self.unstarted.is_empty() {
            let pending = std::mem::take(&mut self.unstarted);
            for id in pending.into_iter().flatten().map(ActorId) {
                let loc = self.locate(id).expect("only hosted ids await their start");
                let taken = match self.take_actor(id, loc) {
                    Some(t) => t,
                    None => continue,
                };
                self.dispatch(id, loc, taken, |taken, ctx| match taken {
                    Taken::Solo(a) => a.on_start(ctx),
                    Taken::Arena(a, _, m) => a.on_start(*m, ctx),
                });
            }
        }
        self.flush_net();
    }

    fn apply_ops(&mut self, from: ActorId, from_slot: usize, ops: Vec<Op<M>>) {
        for op in ops {
            match op {
                Op::Send { to, msg } => self.route(from, to, msg),
                Op::Multicast { group, msg } => {
                    let members = self.groups[group.0 as usize].clone();
                    for to in members {
                        if to != from {
                            self.route_cloned(from, to, &msg);
                        }
                    }
                }
                Op::SetTimer { id, delay, tag } => {
                    let at = self.now + delay;
                    let inc = self.incarnation[from_slot];
                    self.push_event(at, EventKind::Timer { owner: from, id, inc, tag });
                }
                Op::CancelTimer { id } => {
                    self.cancelled.insert(id);
                }
            }
        }
    }

    fn route_cloned(&mut self, from: ActorId, to: ActorId, msg: &M)
    where
        M: Clone,
    {
        self.route(from, to, msg.clone());
    }

    /// Applies installed [`Fault::DropMatching`] rules; true = drop.
    fn drop_rules_claim(&mut self, from: ActorId, to: ActorId) -> bool {
        let mut claimed = false;
        for rule in &mut self.drop_rules {
            if rule.spent || !rule.predicate.matches(from, to) {
                continue;
            }
            rule.seen += 1;
            if rule.seen == rule.nth {
                rule.spent = true;
                claimed = true;
            }
        }
        claimed
    }

    /// Extra latency from any active [`Fault::DelayBurst`] window (max over
    /// overlapping windows).
    fn burst_extra(&self) -> SimDuration {
        self.delay_bursts
            .iter()
            .filter(|&&(start, end, _)| self.now >= start && self.now < end)
            .map(|&(_, _, extra)| extra)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    fn route(&mut self, from: ActorId, to: ActorId, msg: M) {
        self.stats.sent += 1;
        self.emit_net(from, NetEvent::Sent { from: from.0, to: to.0 });
        let Some(Loc { slot, .. }) = self.locate(to) else {
            self.stats.dropped += 1;
            self.emit_net(from, NetEvent::Dropped { from: from.0, to: to.0 });
            return;
        };
        let cfg = self.link(from, to);
        debug_assert!(
            cfg.is_valid(),
            "invalid LinkConfig on {from}->{to}: loss={} jitter={:?}",
            cfg.loss,
            cfg.jitter
        );
        let lost = self.crashed[slot]
            || cfg.partitioned
            || (cfg.loss > 0.0 && self.rng.gen::<f64>() < cfg.loss);
        let lost = lost || self.drop_rules_claim(from, to);
        if lost {
            self.stats.dropped += 1;
            self.emit_net(to, NetEvent::Dropped { from: from.0, to: to.0 });
            return;
        }
        let jitter = if cfg.jitter > SimDuration::ZERO {
            SimDuration::from_micros(self.rng.gen_range(0..=cfg.jitter.as_micros()))
        } else {
            SimDuration::ZERO
        };
        // Bandwidth-limited links serialize messages: each transmission
        // starts when the link frees up and occupies it for size/bandwidth.
        let departure = match (cfg.bandwidth, self.sizer.as_ref()) {
            (Some(bw), Some(sizer)) => {
                let size = sizer(&msg) as u64;
                let tx_us = size.saturating_mul(1_000_000) / bw;
                let start = self
                    .link_busy_until
                    .get(&(from, to))
                    .copied()
                    .unwrap_or(SimTime::ZERO)
                    .max(self.now);
                let done = start + SimDuration::from_micros(tx_us);
                self.link_busy_until.insert((from, to), done);
                done
            }
            _ => self.now,
        };
        let at = departure + cfg.latency + jitter + self.burst_extra();
        let inc = self.incarnation[slot];
        self.push_event(at, EventKind::Deliver { from, to, inc, msg });
    }

    /// Dispatches the next event, if any. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        let progressed = self.step_inner();
        self.flush_net();
        progressed
    }

    fn step_inner(&mut self) -> bool {
        self.ensure_started();
        let (at_us, _seq, kind) = match self.queue.pop() {
            Some(ev) => ev,
            None => return false,
        };
        let at = SimTime::from_micros(at_us);
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.stats.events_processed += 1;
        match kind {
            EventKind::Deliver { from, to, inc, msg } => {
                let loc = self.locate(to).expect("only hosted ids are routed to");
                // A crash bumped the incarnation after this message was
                // routed: the in-flight message dies with the old process.
                if self.crashed[loc.slot] || self.incarnation[loc.slot] != inc {
                    self.stats.dropped += 1;
                    self.emit_net(to, NetEvent::Dropped { from: from.0, to: to.0 });
                    return true;
                }
                let taken = match self.take_actor(to, loc) {
                    Some(t) => t,
                    None => return true, // destination raced away; count as delivered-to-nobody
                };
                self.stats.delivered += 1;
                self.emit_net(to, NetEvent::Delivered { from: from.0, to: to.0 });
                self.dispatch(to, loc, taken, |taken, ctx| match taken {
                    Taken::Solo(a) => a.on_message(ctx, from, msg),
                    Taken::Arena(a, _, m) => a.on_message(*m, ctx, from, msg),
                });
                // New actors may have been created? (not supported mid-run)
                self.ensure_started();
            }
            EventKind::Timer { owner, id, inc, tag } => {
                if self.cancelled.remove(&id) {
                    return true;
                }
                let loc = self.locate(owner).expect("only hosted actors arm timers");
                // Timers armed by a previous incarnation died in the crash.
                if self.crashed[loc.slot] || self.incarnation[loc.slot] != inc {
                    return true;
                }
                let taken = match self.take_actor(owner, loc) {
                    Some(t) => t,
                    None => return true,
                };
                self.stats.timers_fired += 1;
                self.emit_net(owner, NetEvent::TimerFired { tag });
                self.dispatch(owner, loc, taken, |taken, ctx| match taken {
                    Taken::Solo(a) => a.on_timer(ctx, tag),
                    Taken::Arena(a, _, m) => a.on_timer(*m, ctx, tag),
                });
            }
            EventKind::Fault(action) => self.apply_fault(action),
        }
        true
    }

    fn apply_fault(&mut self, action: FaultAction) {
        match action {
            FaultAction::Crash(id) => {
                let Some(loc) = self.locate(id).filter(|loc| !self.crashed[loc.slot]) else {
                    return;
                };
                self.crashed[loc.slot] = true;
                // Bumping here (not at restart) kills everything in flight
                // toward or armed by the dying incarnation.
                self.incarnation[loc.slot] += 1;
                self.stats.crashes += 1;
                self.emit_net(id, NetEvent::Crashed);
                self.flush_net();
                if let Some(mut taken) = self.take_actor(id, loc) {
                    match &mut taken {
                        Taken::Solo(a) => a.on_crash(self.now),
                        Taken::Arena(a, _, m) => a.on_crash(*m, self.now),
                    }
                    self.put_back(loc, taken);
                }
            }
            FaultAction::Restart(id) => {
                let Some(loc) = self.locate(id).filter(|loc| self.crashed[loc.slot]) else {
                    return;
                };
                self.crashed[loc.slot] = false;
                self.stats.restarts += 1;
                self.emit_net(id, NetEvent::Restarted);
                let taken = match self.take_actor(id, loc) {
                    Some(t) => t,
                    None => return,
                };
                self.dispatch(id, loc, taken, |taken, ctx| match taken {
                    Taken::Solo(a) => a.on_restart(ctx),
                    Taken::Arena(a, _, m) => a.on_restart(*m, ctx),
                });
            }
            FaultAction::PartitionOn(from, to) => {
                let cfg = self.link(from, to).with_partitioned(true);
                self.links.insert((from, to), cfg);
            }
            FaultAction::PartitionOff(from, to) => {
                let cfg = self.link(from, to).with_partitioned(false);
                self.links.insert((from, to), cfg);
            }
        }
    }

    /// Runs until the queue drains.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs events with timestamps `<= deadline`; later events stay queued
    /// and the clock is left at the last dispatched event (never beyond
    /// `deadline`).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.ensure_started();
        let deadline_us = deadline.as_micros();
        loop {
            match self.queue.peek_time() {
                Some(at_us) if at_us <= deadline_us => {
                    self.step();
                }
                _ => break,
            }
        }
    }

    /// Convenience: [`Simulator::run_until`] `now + d`.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Timestamp of the earliest queued event, if any — the conservative
    /// lower bound a parallel-DES executor advertises to its peers before
    /// advancing its local clock.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.queue.peek_time().map(SimTime::from_micros)
    }

    /// Number of queued (undelivered) events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

impl<M: 'static> std::fmt::Debug for Simulator<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("actors", &self.incarnation.len())
            .field("pending_events", &self.queue.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::CloneArena;
    use sada_obs::RingSink;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A ring attached to `sim`'s bus: the `Net` events it records are the
    /// run's network trace.
    fn net_ring(sim: &Simulator<u32>) -> Rc<RefCell<RingSink>> {
        let ring = Rc::new(RefCell::new(RingSink::new(1 << 16)));
        sim.bus().attach(&ring);
        ring
    }

    /// The `(at, actor, event)` of every `Net` event `ring` recorded.
    fn net_events(ring: &RefCell<RingSink>) -> Vec<(SimTime, u32, NetEvent)> {
        let events = ring.borrow().events();
        events
            .into_iter()
            .filter_map(|e| match e.payload {
                Payload::Net(n) => Some((e.at, e.actor, n)),
                _ => None,
            })
            .collect()
    }

    #[derive(Clone, Default)]
    struct Collector {
        got: Vec<(SimTime, u32)>,
        timer_tags: Vec<u64>,
        echo: bool,
    }

    impl Actor<u32> for Collector {
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: ActorId, msg: u32) {
            self.got.push((ctx.now(), msg));
            if self.echo && msg > 0 {
                ctx.send(from, msg - 1);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, u32>, tag: u64) {
            self.timer_tags.push(tag);
        }
    }

    struct Starter {
        to: ActorId,
        n: u32,
    }
    impl Actor<u32> for Starter {
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            for i in 0..self.n {
                ctx.send(self.to, i);
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, u32>, _from: ActorId, _msg: u32) {}
    }

    #[test]
    fn messages_arrive_after_link_latency() {
        let mut sim = Simulator::new(1);
        let c = sim.add_actor("c", Collector::default());
        let s = sim.add_actor("s", Starter { to: c, n: 1 });
        sim.set_link(s, c, LinkConfig::reliable(SimDuration::from_millis(7)));
        sim.run();
        let col = sim.actor::<Collector>(c).unwrap();
        assert_eq!(col.got, vec![(SimTime::from_millis(7), 0)]);
    }

    #[test]
    fn ties_break_by_send_order() {
        let mut sim = Simulator::new(1);
        let c = sim.add_actor("c", Collector::default());
        let _s = sim.add_actor("s", Starter { to: c, n: 5 });
        sim.run();
        let col = sim.actor::<Collector>(c).unwrap();
        let msgs: Vec<u32> = col.got.iter().map(|&(_, m)| m).collect();
        assert_eq!(msgs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut sim = Simulator::new(1);
        let c = sim.add_actor("c", Collector::default());
        let s = sim.add_actor("s", Starter { to: c, n: 10 });
        sim.set_link(s, c, LinkConfig::lossy(SimDuration::ZERO, 1.0));
        sim.run();
        assert!(sim.actor::<Collector>(c).unwrap().got.is_empty());
        assert_eq!(sim.stats().dropped, 10);
    }

    #[test]
    fn partition_and_heal() {
        let mut sim = Simulator::new(1);
        let c = sim.add_actor("c", Collector::default());
        let s = sim.add_actor("s", Starter { to: c, n: 0 });
        sim.set_partitioned(s, c, true);
        // inject bypasses loss/jitter/bandwidth but NOT partitions: an
        // external stimulus still has to cross the (severed) link.
        sim.inject(s, c, 1, SimDuration::ZERO);
        sim.run();
        assert!(sim.actor::<Collector>(c).unwrap().got.is_empty());
        assert_eq!(sim.stats().dropped, 1);
        sim.set_partitioned(s, c, false);
        assert!(!sim.link(s, c).partitioned);
        sim.inject(s, c, 2, SimDuration::ZERO);
        sim.run();
        assert_eq!(sim.actor::<Collector>(c).unwrap().got.len(), 1);
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = |seed| {
            let mut sim = Simulator::new(seed);
            let c = sim.add_actor("c", Collector::default());
            let s = sim.add_actor("s", Starter { to: c, n: 100 });
            sim.set_link(
                s,
                c,
                LinkConfig::lossy(SimDuration::from_millis(2), 0.3)
                    .with_jitter(SimDuration::from_millis(4)),
            );
            sim.run();
            sim.actor::<Collector>(c).unwrap().got.clone()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should diverge");
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct T {
            fired: Vec<u64>,
        }
        impl Actor<u32> for T {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.set_timer(SimDuration::from_millis(1), 10);
                let dead = ctx.set_timer(SimDuration::from_millis(2), 20);
                ctx.cancel_timer(dead);
                ctx.set_timer(SimDuration::from_millis(3), 30);
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ActorId, _: u32) {}
            fn on_timer(&mut self, _ctx: &mut Context<'_, u32>, tag: u64) {
                self.fired.push(tag);
            }
        }
        let mut sim = Simulator::new(0);
        let t = sim.add_actor("t", T { fired: vec![] });
        sim.run();
        assert_eq!(sim.actor::<T>(t).unwrap().fired, vec![10, 30]);
        assert_eq!(sim.stats().timers_fired, 2);
    }

    #[test]
    fn multicast_reaches_all_but_sender() {
        struct Caster {
            group: Option<GroupId>,
        }
        impl Actor<u32> for Caster {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                if let Some(g) = self.group {
                    ctx.multicast(g, 99);
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ActorId, _: u32) {
                panic!("sender must not receive its own multicast");
            }
        }
        let mut sim = Simulator::new(0);
        let c1 = sim.add_actor("c1", Collector::default());
        let c2 = sim.add_actor("c2", Collector::default());
        let caster = sim.add_actor("caster", Caster { group: None });
        let g = sim.create_group(&[c1, c2, caster]);
        sim.actor_mut::<Caster>(caster).unwrap().group = Some(g);
        sim.run();
        assert_eq!(sim.actor::<Collector>(c1).unwrap().got.len(), 1);
        assert_eq!(sim.actor::<Collector>(c2).unwrap().got.len(), 1);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulator::new(0);
        let c = sim.add_actor("c", Collector::default());
        let s = sim.add_actor("s", Starter { to: c, n: 1 });
        sim.set_link(s, c, LinkConfig::reliable(SimDuration::from_millis(10)));
        sim.run_until(SimTime::from_millis(5));
        assert!(sim.actor::<Collector>(c).unwrap().got.is_empty());
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.actor::<Collector>(c).unwrap().got.len(), 1);
    }

    #[test]
    fn unknown_destination_counts_dropped() {
        let mut sim = Simulator::new(0);
        let s = sim.add_actor("s", Starter { to: ActorId::from_index(99), n: 1 });
        let _ = s;
        sim.run();
        assert_eq!(sim.stats().dropped, 1);
    }

    #[test]
    fn bandwidth_serializes_bursts() {
        // Three 1000-byte messages over a 1 MB/s link with zero latency:
        // transmissions complete at 1ms, 2ms, 3ms.
        struct Burst {
            to: ActorId,
        }
        impl Actor<u32> for Burst {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                for i in 0..3 {
                    ctx.send(self.to, i);
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ActorId, _: u32) {}
        }
        let mut sim = Simulator::new(0);
        sim.set_message_sizer(Box::new(|_| 1000));
        let c = sim.add_actor("c", Collector::default());
        let s = sim.add_actor("s", Burst { to: c });
        sim.set_link(s, c, LinkConfig::reliable(SimDuration::ZERO).with_bandwidth(1_000_000));
        sim.run();
        let got = &sim.actor::<Collector>(c).unwrap().got;
        let times: Vec<u64> = got.iter().map(|&(t, _)| t.as_micros()).collect();
        assert_eq!(times, vec![1_000, 2_000, 3_000], "serialized back-to-back");
    }

    #[test]
    fn bandwidth_without_sizer_is_ignored() {
        let mut sim = Simulator::new(0);
        let c = sim.add_actor("c", Collector::default());
        let s = sim.add_actor("s", Starter { to: c, n: 2 });
        sim.set_link(s, c, LinkConfig::reliable(SimDuration::ZERO).with_bandwidth(1));
        sim.run();
        let got = &sim.actor::<Collector>(c).unwrap().got;
        assert!(got.iter().all(|&(t, _)| t == SimTime::ZERO), "no sizer, no delay");
    }

    #[test]
    fn bandwidth_link_drains_between_bursts() {
        struct TwoBursts {
            to: ActorId,
        }
        impl Actor<u32> for TwoBursts {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.send(self.to, 0);
                ctx.set_timer(SimDuration::from_millis(10), 1);
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ActorId, _: u32) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _tag: u64) {
                ctx.send(self.to, 1);
            }
        }
        let mut sim = Simulator::new(0);
        sim.set_message_sizer(Box::new(|_| 1000));
        let c = sim.add_actor("c", Collector::default());
        let s = sim.add_actor("s", TwoBursts { to: c });
        sim.set_link(s, c, LinkConfig::reliable(SimDuration::ZERO).with_bandwidth(1_000_000));
        sim.run();
        let times: Vec<u64> =
            sim.actor::<Collector>(c).unwrap().got.iter().map(|&(t, _)| t.as_micros()).collect();
        // Second burst starts fresh at 10ms: no leftover queueing.
        assert_eq!(times, vec![1_000, 11_000]);
    }

    #[test]
    fn trace_records_send_and_delivery() {
        let mut sim = Simulator::new(0);
        let ring = net_ring(&sim);
        let c = sim.add_actor("c", Collector::default());
        let _s = sim.add_actor("s", Starter { to: c, n: 1 });
        sim.run();
        let kinds: Vec<NetEvent> = net_events(&ring).into_iter().map(|(_, _, n)| n).collect();
        let (from, to) = (1, 0);
        assert_eq!(kinds, [NetEvent::Sent { from, to }, NetEvent::Delivered { from, to }]);
    }

    #[test]
    fn external_bus_sinks_see_net_events() {
        use sada_obs::CounterSink;
        let bus = Bus::new();
        let counters = Rc::new(RefCell::new(CounterSink::default()));
        bus.attach(&counters);
        let mut sim = Simulator::new(0);
        sim.set_bus(bus.clone());
        let ring = net_ring(&sim);
        let c = sim.add_actor("c", Collector::default());
        let _s = sim.add_actor("s", Starter { to: c, n: 3 });
        sim.crash_at(c, SimTime::from_millis(1));
        sim.restart_at(c, SimTime::from_millis(2));
        sim.run();
        let counts = counters.borrow();
        assert_eq!(counts.net_sent, sim.stats().sent);
        assert_eq!(counts.net_delivered, sim.stats().delivered);
        assert_eq!(counts.net_dropped, sim.stats().dropped);
        assert_eq!(counts.crashes, 1);
        assert_eq!(counts.restarts, 1);
        // Every sink on the bus sees the same stream, all of it net events.
        assert_eq!(net_events(&ring).len() as u64, counts.total);
    }

    /// Counts lifecycle callbacks alongside received messages.
    #[derive(Clone, Default)]
    struct LifeTracker {
        got: Vec<(SimTime, u32)>,
        starts: u32,
        restarts: u32,
        crashes: u32,
    }

    impl Actor<u32> for LifeTracker {
        fn on_start(&mut self, _ctx: &mut Context<'_, u32>) {
            self.starts += 1;
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, _from: ActorId, msg: u32) {
            self.got.push((ctx.now(), msg));
        }
        fn on_crash(&mut self, _now: SimTime) {
            self.crashes += 1;
        }
        fn on_restart(&mut self, _ctx: &mut Context<'_, u32>) {
            self.restarts += 1;
        }
    }

    #[test]
    fn crash_drops_in_flight_messages_and_timers() {
        struct SelfTimer;
        impl Actor<u32> for SelfTimer {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.set_timer(SimDuration::from_millis(10), 1);
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ActorId, _: u32) {}
            fn on_timer(&mut self, _: &mut Context<'_, u32>, _: u64) {
                panic!("timer armed pre-crash must never fire");
            }
            fn on_restart(&mut self, _: &mut Context<'_, u32>) {
                // Stay quiet: the point is that the *pre-crash* timer died.
            }
        }
        let mut sim = Simulator::new(0);
        let victim = sim.add_actor("victim", SelfTimer);
        let c = sim.add_actor("c", Collector::default());
        let s = sim.add_actor("s", Starter { to: c, n: 0 });
        let _ = (c, s);
        // Message in flight toward the victim when the crash lands.
        sim.set_link(s, victim, LinkConfig::reliable(SimDuration::from_millis(8)));
        sim.run_until(SimTime::ZERO);
        sim.inject(s, victim, 7, SimDuration::from_millis(8));
        sim.crash_at(victim, SimTime::from_millis(5));
        sim.restart_at(victim, SimTime::from_millis(6));
        sim.run();
        // Both the timer (armed at incarnation 0) and the in-flight message
        // (stamped for incarnation 0) die, even though the victim is back
        // up before their scheduled times.
        assert_eq!(sim.stats().crashes, 1);
        assert_eq!(sim.stats().restarts, 1);
        assert_eq!(sim.stats().timers_fired, 0);
        assert_eq!(sim.incarnation(victim), 1);
        assert!(!sim.is_crashed(victim));
    }

    #[test]
    fn crash_and_restart_invoke_lifecycle_hooks() {
        let mut sim = Simulator::new(0);
        let a = sim.add_actor("a", LifeTracker::default());
        sim.crash_at(a, SimTime::from_millis(1));
        sim.restart_at(a, SimTime::from_millis(2));
        sim.run();
        let t = sim.actor::<LifeTracker>(a).unwrap();
        assert_eq!((t.starts, t.crashes, t.restarts), (1, 1, 1));
    }

    #[test]
    fn default_on_restart_reruns_on_start() {
        // Starter has no on_restart override, so restarting it re-sends.
        let mut sim = Simulator::new(0);
        let c = sim.add_actor("c", Collector::default());
        let s = sim.add_actor("s", Starter { to: c, n: 2 });
        sim.crash_at(s, SimTime::from_millis(1));
        sim.restart_at(s, SimTime::from_millis(2));
        sim.run();
        assert_eq!(sim.actor::<Collector>(c).unwrap().got.len(), 4);
    }

    #[test]
    fn messages_to_crashed_actor_are_dropped() {
        let mut sim = Simulator::new(0);
        let c = sim.add_actor("c", LifeTracker::default());
        let s = sim.add_actor("s", Starter { to: c, n: 0 });
        sim.crash_at(c, SimTime::from_millis(1));
        sim.run();
        sim.inject(s, c, 9, SimDuration::ZERO);
        sim.run();
        assert!(sim.actor::<LifeTracker>(c).unwrap().got.is_empty());
        assert_eq!(sim.stats().dropped, 1);
    }

    #[test]
    fn multicast_skips_crashed_member_and_resumes_after_restart() {
        struct Caster {
            group: Option<GroupId>,
        }
        impl Actor<u32> for Caster {
            fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: ActorId, msg: u32) {
                if let Some(g) = self.group {
                    ctx.multicast(g, msg);
                }
            }
        }
        let mut sim = Simulator::new(0);
        let m1 = sim.add_actor("m1", LifeTracker::default());
        let m2 = sim.add_actor("m2", LifeTracker::default());
        let caster = sim.add_actor("caster", Caster { group: None });
        let g = sim.create_group(&[m1, m2, caster]);
        sim.actor_mut::<Caster>(caster).unwrap().group = Some(g);
        sim.crash_at(m2, SimTime::from_millis(1));
        sim.run();
        // First multicast: m2 is down, only m1 receives.
        sim.inject(m1, caster, 1, SimDuration::ZERO);
        sim.run();
        assert_eq!(sim.actor::<LifeTracker>(m1).unwrap().got.len(), 1);
        assert!(sim.actor::<LifeTracker>(m2).unwrap().got.is_empty());
        // After restart the same group delivers to both again.
        sim.restart_at(m2, sim.now() + SimDuration::from_millis(1));
        sim.run();
        sim.inject(m1, caster, 2, SimDuration::ZERO);
        sim.run();
        assert_eq!(sim.actor::<LifeTracker>(m1).unwrap().got.len(), 2);
        assert_eq!(sim.actor::<LifeTracker>(m2).unwrap().got.len(), 1);
    }

    #[test]
    fn injected_messages_respect_partitions_dynamically() {
        // Partition windows from a fault plan gate injected traffic too.
        let mut sim = Simulator::new(0);
        let c = sim.add_actor("c", Collector::default());
        let s = sim.add_actor("s", Starter { to: c, n: 0 });
        let plan = crate::FaultPlan::new().partition_window(
            s,
            c,
            SimTime::from_millis(10),
            SimTime::from_millis(20),
        );
        sim.schedule_faults(&plan);
        sim.run_until(SimTime::from_millis(15));
        assert!(sim.link(s, c).partitioned, "window open at 15ms");
        sim.inject(s, c, 1, SimDuration::ZERO);
        sim.run_until(SimTime::from_millis(30));
        assert!(!sim.link(s, c).partitioned, "window closed at 20ms");
        sim.inject(s, c, 2, SimDuration::ZERO);
        sim.run();
        let got: Vec<u32> =
            sim.actor::<Collector>(c).unwrap().got.iter().map(|&(_, m)| m).collect();
        assert_eq!(got, vec![2], "in-window injection dropped, post-window delivered");
    }

    #[test]
    fn drop_matching_claims_exactly_the_nth_match() {
        let mut sim = Simulator::new(0);
        let c = sim.add_actor("c", Collector::default());
        let s = sim.add_actor("s", Starter { to: c, n: 5 });
        let plan = crate::FaultPlan::new()
            .drop_matching(2, crate::MsgPattern { from: Some(s), to: Some(c) });
        sim.schedule_faults(&plan);
        sim.run();
        let got: Vec<u32> =
            sim.actor::<Collector>(c).unwrap().got.iter().map(|&(_, m)| m).collect();
        assert_eq!(got, vec![0, 2, 3, 4], "exactly the 2nd send dropped");
        assert_eq!(sim.stats().dropped, 1);
    }

    #[test]
    fn delay_burst_defers_deliveries_in_window() {
        struct Spaced {
            to: ActorId,
        }
        impl Actor<u32> for Spaced {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.send(self.to, 0);
                ctx.set_timer(SimDuration::from_millis(50), 1);
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ActorId, _: u32) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _: u64) {
                ctx.send(self.to, 1);
            }
        }
        let mut sim = Simulator::new(0);
        let c = sim.add_actor("c", Collector::default());
        let s = sim.add_actor("s", Spaced { to: c });
        sim.set_link(s, c, LinkConfig::reliable(SimDuration::from_millis(1)));
        let plan = crate::FaultPlan::new()
            .delay_burst((SimTime::ZERO, SimTime::from_millis(10)), SimDuration::from_millis(25));
        sim.schedule_faults(&plan);
        sim.run();
        let times: Vec<u64> =
            sim.actor::<Collector>(c).unwrap().got.iter().map(|&(t, _)| t.as_micros()).collect();
        // First send (at 0, in window): 1ms latency + 25ms burst. Second
        // (at 50ms, outside): plain 1ms.
        assert_eq!(times, vec![26_000, 51_000]);
    }

    #[test]
    fn fault_plan_runs_are_deterministic() {
        let run = |seed| {
            let mut sim = Simulator::new(seed);
            let c = sim.add_actor("c", LifeTracker::default());
            let s = sim.add_actor("s", Starter { to: c, n: 50 });
            sim.set_link(
                s,
                c,
                LinkConfig::lossy(SimDuration::from_millis(2), 0.2)
                    .with_jitter(SimDuration::from_millis(3)),
            );
            let plan = crate::FaultPlan::new()
                .crash(c, SimTime::from_millis(4))
                .restart(c, SimTime::from_millis(9))
                .delay_burst(
                    (SimTime::from_millis(2), SimTime::from_millis(6)),
                    SimDuration::from_millis(10),
                );
            sim.schedule_faults(&plan);
            sim.run();
            (sim.actor::<LifeTracker>(c).unwrap().got.clone(), sim.stats())
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn arena_members_behave_like_solo_actors() {
        let mut sim = Simulator::new(0);
        // The stock arena, both members supplied.
        let echo = || Collector { echo: true, ..Default::default() };
        let arena = CloneArena::new(Collector::default(), 2, vec![(0, echo()), (1, echo())]);
        let arena = sim.add_arena(arena);
        let m0 = sim.add_arena_members("m", arena, 0..2);
        let m1 = ActorId::from_index(1);
        let s = sim.add_actor("s", Starter { to: m0, n: 0 });
        assert_eq!((m0.index(), s.index()), (0, 2));
        sim.inject(s, m0, 1, SimDuration::ZERO);
        sim.inject(s, m1, 0, SimDuration::ZERO);
        sim.run();
        let a = sim.arena::<CloneArena<Collector>>(m1).unwrap();
        assert_eq!(a.member(0).unwrap().got, vec![(SimTime::ZERO, 1)]);
        assert_eq!(a.member(1).unwrap().got, vec![(SimTime::ZERO, 0)]);
        assert_eq!(a.cloned(), 0);
        // Members are not downcastable as solo actors.
        assert!(sim.actor::<Collector>(m0).is_none());
        // Two injects plus m0's echo of `1 - 1` back to the starter.
        assert_eq!(sim.stats().delivered, 3);
    }

    #[test]
    fn arena_member_crash_is_isolated_to_that_member() {
        let mut sim = Simulator::new(0);
        let supplied = vec![(0, LifeTracker::default()), (1, LifeTracker::default())];
        let arena = sim.add_arena(CloneArena::new(LifeTracker::default(), 2, supplied));
        let m0 = sim.add_arena_members("m", arena, 0..2);
        let m1 = ActorId::from_index(1);
        let s = sim.add_actor("s", Starter { to: m0, n: 0 });
        sim.crash_at(m0, SimTime::from_millis(1));
        sim.restart_at(m0, SimTime::from_millis(3));
        sim.run_until(SimTime::from_millis(2));
        assert!(sim.is_crashed(m0));
        assert!(!sim.is_crashed(m1));
        // In-flight traffic to the crashed member dies; its sibling is fine.
        sim.inject(s, m0, 9, SimDuration::ZERO);
        sim.inject(s, m1, 0, SimDuration::ZERO);
        sim.run();
        let arena = sim.arena::<CloneArena<LifeTracker>>(m0).unwrap();
        let a = [arena.member(0).unwrap(), arena.member(1).unwrap()];
        assert_eq!((a[0].starts, a[1].starts), (1, 1));
        assert_eq!((a[0].crashes, a[1].crashes), (1, 0));
        assert_eq!((a[0].restarts, a[1].restarts), (1, 0));
        assert!(a[0].got.is_empty());
        assert_eq!(a[1].got.len(), 1);
        assert_eq!(sim.incarnation(m0), 1);
    }

    #[test]
    fn inject_batch_matches_inject_loop() {
        let run = |batched: bool| {
            let mut sim = Simulator::new(7);
            let ring = net_ring(&sim);
            let c = sim.add_actor("c", Collector::default());
            let s = sim.add_actor("s", Starter { to: c, n: 0 });
            if batched {
                sim.inject_batch(s, c, vec![1, 2, 3], SimDuration::from_millis(2));
            } else {
                for m in [1, 2, 3] {
                    sim.inject(s, c, m, SimDuration::from_millis(2));
                }
            }
            // A second wave toward a partitioned target drops identically.
            sim.set_partitioned(s, c, true);
            if batched {
                sim.inject_batch(s, c, vec![4, 5], SimDuration::ZERO);
            } else {
                for m in [4, 5] {
                    sim.inject(s, c, m, SimDuration::ZERO);
                }
            }
            sim.run();
            (sim.actor::<Collector>(c).unwrap().got.clone(), sim.stats(), net_events(&ring))
        };
        assert_eq!(run(true), run(false));
        let (got, stats, _) = run(true);
        assert_eq!(got.len(), 3);
        assert_eq!(stats.dropped, 2);
    }

    #[test]
    fn echo_conversation_terminates() {
        let mut sim = Simulator::new(0);
        let c = sim.add_actor("c", Collector { echo: true, ..Default::default() });
        let _ = sim.add_actor("s", Starter { to: c, n: 0 });
        sim.inject(ActorId::from_index(1), c, 3, SimDuration::ZERO);
        sim.run();
        // c receives 3, echoes 2 to s (a Starter, which ignores it): just one receipt.
        assert_eq!(sim.actor::<Collector>(c).unwrap().got.len(), 1);
        assert!(sim.stats().events_processed >= 2);
    }
}
