//! Actors and their interaction surface with the simulator.

use std::any::Any;
use std::convert::Infallible;
use std::fmt;

use crate::sim::GroupId;
use sada_obs::{SimDuration, SimTime};

/// Identifies an actor registered with a [`Simulator`].
///
/// Ids are dense indices assigned in registration order, which makes them
/// convenient map keys for protocol bookkeeping.
///
/// [`Simulator`]: crate::Simulator
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub(crate) u32);

impl ActorId {
    /// Returns the dense index of this actor.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw index.
    ///
    /// Only useful for table-driven tests; sending to an unregistered id is
    /// silently dropped by the simulator.
    pub const fn from_index(ix: usize) -> Self {
        ActorId(ix as u32)
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// Handle to a pending one-shot timer, used to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub(crate) u64);

/// What an actor arms a timer with and is handed back when it fires.
///
/// A simulator picks one timer type, as it picks one message type, and an
/// actor's timer kinds are values of it: an enum of what the actor waits
/// for, not a number it decodes. The simulator reads one thing off a
/// timer, its [`Timer::tag`], the `u64` a `net.timer` event carries.
pub trait Timer: Copy + Eq + fmt::Debug + 'static {
    /// The number a `net.timer` event renders this timer as.
    fn tag(&self) -> u64;
}

/// A bare number is its own tag.
impl Timer for u64 {
    fn tag(&self) -> u64 {
        *self
    }
}

/// No timer at all: the kinds of an actor family that has none of its own.
impl Timer for Infallible {
    fn tag(&self) -> u64 {
        match *self {}
    }
}

/// Upcast support so `dyn Actor` state can be inspected after a run.
///
/// Blanket-implemented for every `'static` type; user code never implements
/// this directly.
pub trait AsAny {
    /// Borrows the value as [`Any`].
    fn as_any(&self) -> &dyn Any;
    /// Mutably borrows the value as [`Any`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A simulated process.
///
/// An actor reacts to three stimuli: the start of the run, message delivery,
/// and timer expiry. All interaction with the outside world goes through the
/// [`Context`] passed to each callback; the callbacks themselves must not
/// block (there is nothing to block on — time only advances between events).
pub trait Actor<M, T = u64>: AsAny {
    /// Called once, at `SimTime::ZERO`, before any message flows.
    fn on_start(&mut self, ctx: &mut Context<'_, M, T>) {
        let _ = ctx;
    }

    /// Called when a message addressed to this actor is delivered.
    fn on_message(&mut self, ctx: &mut Context<'_, M, T>, from: ActorId, msg: M);

    /// Called when a timer armed via [`Context::set_timer`] fires, with the
    /// value it was armed with: the kind of timer and whatever it names. A
    /// cancelled timer, or one armed before a crash, never fires.
    fn on_timer(&mut self, ctx: &mut Context<'_, M, T>, timer: T) {
        let _ = (ctx, timer);
    }

    /// Called when fault injection crashes this actor.
    ///
    /// There is no [`Context`]: a dead process takes no actions. `now` is
    /// the crash instant, so post-mortem instrumentation (e.g. adjudicating
    /// destroyed work) can be timestamped. Implement this to model the loss
    /// of *volatile* state — anything the process held only in memory —
    /// while keeping what would have survived on durable storage. The
    /// default keeps all state (pure snapshot-restore semantics).
    fn on_crash(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Called when fault injection restarts this actor after a crash.
    ///
    /// Defaults to re-running [`Actor::on_start`], which is right for
    /// stateless actors; recovery-aware actors override this to re-announce
    /// themselves instead of re-issuing their boot sequence.
    fn on_restart(&mut self, ctx: &mut Context<'_, M, T>) {
        self.on_start(ctx);
    }
}

/// An actor family: one boxed object backing many registered actors
/// ("members"), each addressed by a dense member index.
///
/// Members are registered a run at a time with
/// `Simulator::add_arena_members` and are indistinguishable from solo
/// actors on the wire: each gets its own [`ActorId`], crash/incarnation
/// state, link configuration, and event stamps (a run shares one name). Only the *state storage* is shared, which lets a
/// 100k-agent fleet keep its agents in one contiguous allocation behind one
/// vtable instead of 100k separately boxed actors.
///
/// The stock arena is [`CloneArena`]: members are clones of one
/// [`Actor`], made when first touched, so the actor's state machine is
/// written once and the arena only changes where it lives and when it is
/// paid for. Implement the trait by hand only for a layout it cannot give.
pub trait ArenaActor<M, T = u64>: AsAny {
    /// Called once per member, at `SimTime::ZERO`, before any message flows.
    fn on_start(&mut self, member: u32, ctx: &mut Context<'_, M, T>) {
        let _ = (member, ctx);
    }

    /// Called when a message addressed to `member` is delivered.
    fn on_message(&mut self, member: u32, ctx: &mut Context<'_, M, T>, from: ActorId, msg: M);

    /// Called when a timer armed by `member` fires, with the value it was
    /// armed with (see [`Actor::on_timer`]).
    fn on_timer(&mut self, member: u32, ctx: &mut Context<'_, M, T>, timer: T) {
        let _ = (member, ctx, timer);
    }

    /// Called when fault injection crashes `member` (no [`Context`]: a dead
    /// process takes no actions).
    fn on_crash(&mut self, member: u32, now: SimTime) {
        let _ = (member, now);
    }

    /// Called when fault injection restarts `member` after a crash.
    /// Defaults to re-running [`ArenaActor::on_start`] for that member.
    fn on_restart(&mut self, member: u32, ctx: &mut Context<'_, M, T>) {
        self.on_start(member, ctx);
    }
}

/// The slot of a member that is neither supplied nor cloned yet.
const UNCLONED: u32 = u32::MAX;

/// The stock [`ArenaActor`]: every member is a copy of one prototype actor,
/// paid for when first touched.
///
/// The caller supplies some members up front; every other member is cloned
/// from the prototype on its first message, timer, crash or restart, and
/// until then costs a 4-byte slot. Only supplied members get a start
/// callback, and the constructor checks that the prototype's start asks
/// for nothing, so a member cloned on demand is exactly the clone an eager
/// arena would have made at build and started.
pub struct CloneArena<A> {
    prototype: A,
    /// Per member: its index into `members`, or `UNCLONED`.
    slots: Vec<u32>,
    /// The supplied members, then the clones in order of first touch.
    members: Vec<A>,
    supplied: usize,
}

impl<A: Clone> CloneArena<A> {
    /// An arena of `len` members of `prototype`, with the `supplied`
    /// `(member, actor)` pairs in place of clones; the first pair for a
    /// member wins.
    ///
    /// # Panics
    ///
    /// If `on_start` of a scratch clone of `prototype` asks for a send or a
    /// timer (a member cloned on demand never starts), or if a supplied
    /// member is not below `len`.
    pub fn new<M, T>(prototype: A, len: u32, supplied: Vec<(u32, A)>) -> Self
    where
        A: Actor<M, T>,
    {
        let (mut ops, mut next_timer) = (Vec::new(), 0);
        let mut ctx = Context {
            self_id: ActorId(u32::MAX),
            now: SimTime::ZERO,
            ops: &mut ops,
            next_timer: &mut next_timer,
        };
        prototype.clone().on_start(&mut ctx);
        assert!(
            ops.is_empty(),
            "the prototype's on_start sends or arms a timer, which a member cloned on demand \
             would never do"
        );
        let mut slots = vec![UNCLONED; len as usize];
        let mut members = Vec::new();
        for (member, actor) in supplied {
            let slot = &mut slots[member as usize];
            if *slot == UNCLONED {
                *slot = members.len() as u32;
                members.push(actor);
            }
        }
        let supplied = members.len();
        CloneArena { prototype, slots, members, supplied }
    }

    /// How many members have been cloned from the prototype (supplied ones
    /// are not counted).
    pub fn cloned(&self) -> usize {
        self.members.len() - self.supplied
    }

    /// Member `member`, if it was supplied or has been cloned.
    #[cfg(test)]
    pub(crate) fn member(&self, member: u32) -> Option<&A> {
        let slot = self.slots[member as usize];
        (slot != UNCLONED).then(|| &self.members[slot as usize])
    }

    /// Member `member`, cloned from the prototype on first touch.
    fn touch(&mut self, member: u32) -> &mut A {
        let slot = &mut self.slots[member as usize];
        if *slot == UNCLONED {
            *slot = self.members.len() as u32;
            self.members.push(self.prototype.clone());
        }
        &mut self.members[*slot as usize]
    }
}

impl<M, T, A: Actor<M, T> + Clone + 'static> ArenaActor<M, T> for CloneArena<A> {
    fn on_start(&mut self, member: u32, ctx: &mut Context<'_, M, T>) {
        // A member not yet cloned starts as the prototype, which asks for
        // nothing at start (checked at construction).
        let slot = self.slots[member as usize];
        if slot != UNCLONED {
            self.members[slot as usize].on_start(ctx);
        }
    }

    fn on_message(&mut self, member: u32, ctx: &mut Context<'_, M, T>, from: ActorId, msg: M) {
        self.touch(member).on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, member: u32, ctx: &mut Context<'_, M, T>, timer: T) {
        self.touch(member).on_timer(ctx, timer);
    }

    fn on_crash(&mut self, member: u32, now: SimTime) {
        self.touch(member).on_crash(now);
    }

    fn on_restart(&mut self, member: u32, ctx: &mut Context<'_, M, T>) {
        self.touch(member).on_restart(ctx);
    }
}

/// Deferred side effects produced by an actor callback.
#[derive(Debug)]
pub(crate) enum Op<M, T> {
    Send { to: ActorId, msg: M },
    Multicast { group: GroupId, msg: M },
    SetTimer { id: TimerId, delay: SimDuration, timer: T },
    CancelTimer { id: TimerId },
}

/// The capability surface handed to an [`Actor`] callback.
///
/// Effects requested through the context (sends, timers) are applied by the
/// simulator *after* the callback returns, in request order.
pub struct Context<'a, M, T = u64> {
    pub(crate) self_id: ActorId,
    pub(crate) now: SimTime,
    pub(crate) ops: &'a mut Vec<Op<M, T>>,
    pub(crate) next_timer: &'a mut u64,
}

impl<'a, M, T> Context<'a, M, T> {
    /// The id of the actor whose callback is running.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `msg` to `to` over the configured link (latency/loss apply).
    ///
    /// Sending to self is allowed and goes through the default link.
    pub fn send(&mut self, to: ActorId, msg: M) {
        self.ops.push(Op::Send { to, msg });
    }

    /// Sends `msg` to every member of `group`; per-member links apply
    /// independently, mirroring UDP multicast over heterogeneous receivers.
    pub fn multicast(&mut self, group: GroupId, msg: M) {
        self.ops.push(Op::Multicast { group, msg });
    }

    /// Arms a one-shot timer that fires `delay` from now and hands `timer`
    /// back to this actor's `on_timer`. The value says which of the actor's
    /// timer kinds it is, and carries what that kind names.
    ///
    /// Returns a [`TimerId`] that can be passed to [`Context::cancel_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, timer: T) -> TimerId {
        let id = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.ops.push(Op::SetTimer { id, delay, timer });
        id
    }

    /// Arms `timer` to fire at the instant `at` if that is still ahead, and
    /// returns whether it did; `false` means `at` is due now.
    pub fn set_timer_at(&mut self, at: SimTime, timer: T) -> bool {
        let ahead = at > self.now;
        if ahead {
            self.set_timer(at - self.now, timer);
        }
        ahead
    }

    /// Cancels a pending timer. Cancelling an already-fired or unknown timer
    /// is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.ops.push(Op::CancelTimer { id });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_queues_ops_in_order() {
        let mut ops = Vec::new();
        let mut next_timer = 0;
        let mut ctx: Context<'_, u8> = Context {
            self_id: ActorId(0),
            now: SimTime::from_millis(1),
            ops: &mut ops,
            next_timer: &mut next_timer,
        };
        ctx.send(ActorId(1), 42);
        let t = ctx.set_timer(SimDuration::from_millis(5), 9);
        ctx.cancel_timer(t);
        assert_eq!(ctx.now(), SimTime::from_millis(1));
        assert_eq!(ctx.self_id(), ActorId(0));
        assert_eq!(ops.len(), 3);
        matches!(&ops[0], Op::Send { to, msg: 42 } if *to == ActorId(1));
    }

    #[test]
    fn timer_ids_are_unique() {
        let mut ops = Vec::new();
        let mut next_timer = 0;
        let mut ctx: Context<'_, u8> = Context {
            self_id: ActorId(0),
            now: SimTime::ZERO,
            ops: &mut ops,
            next_timer: &mut next_timer,
        };
        let a = ctx.set_timer(SimDuration::ZERO, 0);
        let b = ctx.set_timer(SimDuration::ZERO, 0);
        assert_ne!(a, b);
    }

    /// Counts what reaches it.
    #[derive(Clone, Default)]
    struct Tally {
        messages: u32,
        timers: u32,
        crashes: u32,
        restarts: u32,
    }

    impl Actor<u8> for Tally {
        fn on_message(&mut self, _: &mut Context<'_, u8>, _: ActorId, _: u8) {
            self.messages += 1;
        }
        fn on_timer(&mut self, _: &mut Context<'_, u8>, _: u64) {
            self.timers += 1;
        }
        fn on_crash(&mut self, _: SimTime) {
            self.crashes += 1;
        }
        fn on_restart(&mut self, _: &mut Context<'_, u8>) {
            self.restarts += 1;
        }
    }

    #[test]
    fn an_unsupplied_members_first_message_timer_crash_or_restart_clones_the_prototype() {
        let supplied = vec![(5, Tally { messages: 10, ..Tally::default() }), (5, Tally::default())];
        let mut arena = CloneArena::new(Tally::default(), 6, supplied);
        let (mut ops, mut next_timer) = (Vec::new(), 0);
        let ctx = &mut Context {
            self_id: ActorId(0),
            now: SimTime::ZERO,
            ops: &mut ops,
            next_timer: &mut next_timer,
        };
        for member in 0..6 {
            arena.on_start(member, ctx);
        }
        assert_eq!(arena.cloned(), 0, "a start clones nobody");
        arena.on_message(0, ctx, ActorId(9), 1);
        assert_eq!(arena.cloned(), 1);
        arena.on_timer(1, ctx, 7);
        assert_eq!(arena.cloned(), 2);
        arena.on_crash(2, SimTime::ZERO);
        assert_eq!(arena.cloned(), 3);
        arena.on_restart(3, ctx);
        assert_eq!(arena.cloned(), 4);
        // A second touch finds the clone; a supplied member is no clone.
        arena.on_message(0, ctx, ActorId(9), 1);
        arena.on_message(5, ctx, ActorId(9), 1);
        assert_eq!(arena.cloned(), 4);
        let member = |m| arena.member(m).expect("touched or supplied");
        assert_eq!(
            [member(0).messages, member(1).timers, member(2).crashes, member(3).restarts],
            [2, 1, 1, 1]
        );
        assert!(arena.member(4).is_none(), "an untouched member costs its slot alone");
        assert_eq!(member(5).messages, 11, "the first supplied entry wins");
    }

    /// Asks at start for what `send` says: a message to itself, or a timer.
    #[derive(Clone)]
    struct Eager {
        send: bool,
    }

    impl Actor<u8> for Eager {
        fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
            if self.send {
                ctx.send(ctx.self_id(), 0);
            } else {
                ctx.set_timer(SimDuration::ZERO, 0);
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, u8>, _: ActorId, _: u8) {}
    }

    #[test]
    #[should_panic(expected = "on_start sends or arms a timer")]
    fn a_prototype_that_sends_at_start_is_refused() {
        CloneArena::new(Eager { send: true }, 1, Vec::new());
    }

    #[test]
    #[should_panic(expected = "on_start sends or arms a timer")]
    fn a_prototype_that_arms_a_timer_at_start_is_refused() {
        CloneArena::new(Eager { send: false }, 1, Vec::new());
    }

    #[test]
    fn actor_id_round_trips_index() {
        let id = ActorId::from_index(5);
        assert_eq!(id.index(), 5);
        assert_eq!(id.to_string(), "actor#5");
    }
}
