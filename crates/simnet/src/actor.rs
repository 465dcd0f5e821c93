//! Actors and their interaction surface with the simulator.

use std::any::Any;
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
pub trait Actor<M>: AsAny {
    /// Called once, at `SimTime::ZERO`, before any message flows.
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }

    /// Called when a message addressed to this actor is delivered.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: ActorId, msg: M);

    /// Called when a timer set via [`Context::set_timer`] fires.
    ///
    /// `tag` is the value supplied when the timer was armed; cancelled timers
    /// never fire.
    fn on_timer(&mut self, ctx: &mut Context<'_, M>, tag: u64) {
        let _ = (ctx, tag);
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
    fn on_restart(&mut self, ctx: &mut Context<'_, M>) {
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
/// The stock arena is `Vec<A>` for any [`Actor`] `A` (member `i` is element
/// `i`, every callback forwards to the element's own): the actor's state
/// machine is written once and the arena only changes where it lives.
/// Implement the trait by hand only for a layout a plain vector cannot give.
pub trait ArenaActor<M>: AsAny {
    /// Called once per member, at `SimTime::ZERO`, before any message flows.
    fn on_start(&mut self, member: u32, ctx: &mut Context<'_, M>) {
        let _ = (member, ctx);
    }

    /// Called when a message addressed to `member` is delivered.
    fn on_message(&mut self, member: u32, ctx: &mut Context<'_, M>, from: ActorId, msg: M);

    /// Called when a timer armed by `member` fires.
    fn on_timer(&mut self, member: u32, ctx: &mut Context<'_, M>, tag: u64) {
        let _ = (member, ctx, tag);
    }

    /// Called when fault injection crashes `member` (no [`Context`]: a dead
    /// process takes no actions).
    fn on_crash(&mut self, member: u32, now: SimTime) {
        let _ = (member, now);
    }

    /// Called when fault injection restarts `member` after a crash.
    /// Defaults to re-running [`ArenaActor::on_start`] for that member.
    fn on_restart(&mut self, member: u32, ctx: &mut Context<'_, M>) {
        self.on_start(member, ctx);
    }
}

impl<M, A: Actor<M> + 'static> ArenaActor<M> for Vec<A> {
    fn on_start(&mut self, member: u32, ctx: &mut Context<'_, M>) {
        self[member as usize].on_start(ctx);
    }

    fn on_message(&mut self, member: u32, ctx: &mut Context<'_, M>, from: ActorId, msg: M) {
        self[member as usize].on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, member: u32, ctx: &mut Context<'_, M>, tag: u64) {
        self[member as usize].on_timer(ctx, tag);
    }

    fn on_crash(&mut self, member: u32, now: SimTime) {
        self[member as usize].on_crash(now);
    }

    fn on_restart(&mut self, member: u32, ctx: &mut Context<'_, M>) {
        self[member as usize].on_restart(ctx);
    }
}

/// Deferred side effects produced by an actor callback.
#[derive(Debug)]
pub(crate) enum Op<M> {
    Send { to: ActorId, msg: M },
    Multicast { group: GroupId, msg: M },
    SetTimer { id: TimerId, delay: SimDuration, tag: u64 },
    CancelTimer { id: TimerId },
}

/// The capability surface handed to an [`Actor`] callback.
///
/// Effects requested through the context (sends, timers) are applied by the
/// simulator *after* the callback returns, in request order.
pub struct Context<'a, M> {
    pub(crate) self_id: ActorId,
    pub(crate) now: SimTime,
    pub(crate) ops: &'a mut Vec<Op<M>>,
    pub(crate) next_timer: &'a mut u64,
}

impl<'a, M> Context<'a, M> {
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

    /// Arms a one-shot timer that fires `delay` from now with `tag`.
    ///
    /// Returns a [`TimerId`] that can be passed to [`Context::cancel_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let id = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.ops.push(Op::SetTimer { id, delay, tag });
        id
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

    #[test]
    fn actor_id_round_trips_index() {
        let id = ActorId::from_index(5);
        assert_eq!(id.index(), 5);
        assert_eq!(id.to_string(), "actor#5");
    }
}
