//! The one host of an [`AgentCore`] on the simulated network.
//!
//! [`ScriptedAgent`](crate::ScriptedAgent) is this host plus timers; the
//! video server and clients are this host plus their filter chains. It
//! carries the effect loop (sends stamped with the incarnation's epoch and
//! the adopted session, observations stamped and emitted), the
//! stale-manager-epoch filter, and the restart with its rejoin ladder. The
//! embedding does the local work: reaching the safe state, the in-action,
//! resuming and rolling back.

use sada_obs::{AgentStateTag, Bus, Event, Payload, ProtoEvent};
use sada_simnet::{ActorId, Context, SimDuration, Timer};

use crate::agent::{state_tag, AgentCore, AgentEffect, AgentEvent, AgentState};
use crate::messages::{ProtoMsg, SessionId, Wire};

type Ctx<'a, M, T> = Context<'a, Wire<M>, T>;

/// Period between a restarted agent's `Rejoin` announcements.
const REJOIN_PERIOD: SimDuration = SimDuration::from_millis(100);
/// Announcements after the first one. The ladder (1.2 s) must outlast a
/// partition window plus the manager's phase timeout, or a lost rejoin
/// degenerates into the (safe but slower) pure-timeout recovery.
const REJOIN_RETRIES: u32 = 12;

/// What an agent's host reaches: the manager it reports to, the bus its
/// events go to, and the timer its rejoin ladder arms.
#[derive(Clone, Copy)]
pub struct Uplink<'a, T> {
    /// The manager's actor.
    pub manager: ActorId,
    /// Where the core's transitions are emitted.
    pub bus: &'a Bus,
    /// The embedding's kind for the rejoin timer; when it fires, the
    /// embedding calls [`AgentHost::rejoin_due`].
    pub rejoin: T,
}

/// What sits between an agent core and the wire (see the module docs).
#[derive(Clone, Default)]
pub struct AgentHost {
    core: AgentCore,
    /// This incarnation, stamped on every send.
    epoch: u64,
    /// The newest manager incarnation heard from.
    manager_epoch: u64,
    /// The session of the last accepted manager message, echoed on every
    /// send and bus event so a multi-session control plane can route the
    /// replies. [`SessionId::SOLO`] under a single-session manager.
    session: SessionId,
    /// `Rejoin` retransmissions left to this incarnation.
    rejoin_budget: u32,
    /// `Rejoin` announcements put on the wire, over every incarnation.
    rejoins_sent: u32,
}

impl AgentHost {
    /// The agent state machine.
    pub fn core(&self) -> &AgentCore {
        &self.core
    }

    /// This agent's incarnation number (0 until the first restart).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `Rejoin` announcements put on the wire.
    pub fn rejoins_sent(&self) -> u64 {
        u64::from(self.rejoins_sent)
    }

    /// Takes in a manager message stamped `epoch` and `session` and
    /// [drives](Self::drive) it. Residue of a manager incarnation older
    /// than the newest heard from is dropped. Once the message and the work
    /// it completed at once leave the core outside the running state, the
    /// manager has re-engaged this incarnation and the rejoin ladder stops;
    /// a `Resume` ignored in the running state does not count, because that
    /// lost-rejoin divergence is what the ladder exists for.
    pub fn on_message<M, T: Timer>(
        &mut self,
        ctx: &mut Ctx<'_, M, T>,
        up: Uplink<'_, T>,
        epoch: u64,
        session: SessionId,
        msg: ProtoMsg,
        work: impl FnMut(&mut Ctx<'_, M, T>, &AgentCore, AgentEffect) -> Option<AgentEvent>,
    ) {
        if epoch < self.manager_epoch {
            return;
        }
        self.manager_epoch = epoch;
        self.session = session;
        self.drive(ctx, up, AgentEvent::Msg(msg), work);
        if self.core.state() != AgentState::Running {
            self.rejoin_budget = 0;
        }
    }

    /// Feeds `first` to the core, then every event the local work completes
    /// at once. After each event the core's observations are emitted, its
    /// sends go on the wire, and its local work (`BeginReset`,
    /// `DoInAction`, `DoResume`, `DoRollback`) goes to `work`, which
    /// returns the event that work completed if it finished on the spot.
    /// Pre- and post-actions are no-ops here.
    pub fn drive<M, T: Timer>(
        &mut self,
        ctx: &mut Ctx<'_, M, T>,
        up: Uplink<'_, T>,
        first: AgentEvent,
        mut work: impl FnMut(&mut Ctx<'_, M, T>, &AgentCore, AgentEffect) -> Option<AgentEvent>,
    ) {
        let mut next = Some(first);
        while let Some(ev) = next.take() {
            let effects = self.core.on_event(ev);
            let obs = self.core.drain_obs();
            if up.bus.has_sinks() {
                let (at, actor, session) =
                    (ctx.now(), ctx.self_id().index() as u32, self.session.0);
                for payload in obs {
                    up.bus.emit(Event { at, actor, session, shard: 0, payload });
                }
            }
            for eff in effects {
                match eff {
                    AgentEffect::Send(msg) => self.send(ctx, up, msg),
                    AgentEffect::PreAction(_) | AgentEffect::PostAction(_) => {}
                    local => next = work(ctx, &self.core, local).or(next),
                }
            }
        }
    }

    /// Starts a new incarnation: a higher epoch, the core restored from its
    /// durable step, and a `Rejoin` announcement retransmitted every
    /// `REJOIN_PERIOD` until the manager re-engages this incarnation or
    /// `REJOIN_RETRIES` run out. A crash snaps the state machine back to
    /// running without an ordinary transition, so when the dead incarnation
    /// was elsewhere one is published here, and per-phase interval
    /// integration closes its phase at the restart instant.
    pub fn restart<M, T: Timer>(&mut self, ctx: &mut Ctx<'_, M, T>, up: Uplink<'_, T>) {
        self.epoch += 1;
        let prev = self.core.state();
        self.core = AgentCore::restore(self.core.last_completed());
        if prev != AgentState::Running {
            let (now, me) = (ctx.now(), ctx.self_id().index() as u32);
            up.bus.scoped(self.session.0).publish(now, me, || {
                Payload::Proto(ProtoEvent::AgentState {
                    from: state_tag(prev),
                    to: AgentStateTag::Running,
                    step: None,
                })
            });
        }
        self.rejoin_budget = REJOIN_RETRIES;
        self.announce(ctx, up);
    }

    /// The rejoin timer fired: announce again while the core is still
    /// running and the budget lasts. After that, recovery falls back to the
    /// manager's ordinary timeout ladder.
    pub fn rejoin_due<M, T: Timer>(&mut self, ctx: &mut Ctx<'_, M, T>, up: Uplink<'_, T>) {
        if self.rejoin_budget > 0 && self.core.state() == AgentState::Running {
            self.rejoin_budget -= 1;
            self.announce(ctx, up);
        }
    }

    fn announce<M, T: Timer>(&mut self, ctx: &mut Ctx<'_, M, T>, up: Uplink<'_, T>) {
        self.rejoins_sent += 1;
        self.send(ctx, up, ProtoMsg::Rejoin { last_completed: self.core.last_completed() });
        ctx.set_timer(REJOIN_PERIOD, up.rejoin);
    }

    fn send<M, T: Timer>(&self, ctx: &mut Ctx<'_, M, T>, up: Uplink<'_, T>, msg: ProtoMsg) {
        ctx.send(up.manager, Wire::Proto { epoch: self.epoch, session: self.session, msg });
    }
}

#[cfg(test)]
mod tests {
    // One test per host duty, run through a scripted agent. Hand mutations
    // of this file each fails under (each was run):
    //
    // * `an_older_manager_epoch_is_dropped_an_equal_one_accepted` — drop
    //   equal epochs (`<=`), accept every epoch, or never raise the mark.
    // * `the_session_is_adopted_and_echoed_on_replies_and_bus_events` —
    //   stamp `SOLO` on sends, or on bus events, or never adopt.
    // * `the_rejoin_ladder_retransmits_until_engaged_or_spent` — stop on any
    //   accepted message, never stop, one retry more or fewer, or another
    //   period.
    // * `the_synthetic_transition_is_published_only_off_running` — publish
    //   on every restart, or on none.

    use std::cell::RefCell;
    use std::rc::Rc;

    use sada_obs::RingSink;
    use sada_plan::ActionId;
    use sada_simnet::{Actor, FaultPlan, SimTime, Simulator};

    use super::*;
    use crate::messages::{LocalAction, ProtoTimer, StepId};
    use crate::sim::{AgentTiming, ScriptedAgent};

    const AGENT: ActorId = ActorId::from_index(0);

    /// What the manager heard: arrival (ms), epoch, session, message.
    type Heard = Vec<(u64, u64, u64, ProtoMsg)>;

    /// Records every protocol message it receives.
    #[derive(Default)]
    struct Manager(Heard);

    impl Actor<Wire<()>, ProtoTimer> for Manager {
        fn on_message(&mut self, ctx: &mut Ctx<'_, (), ProtoTimer>, _: ActorId, msg: Wire<()>) {
            if let Wire::Proto { epoch, session, msg } = msg {
                self.0.push((ctx.now().as_micros() / 1_000, epoch, session.0, msg));
            }
        }
    }

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    fn reset(step: u64, solo: bool) -> ProtoMsg {
        let action = LocalAction {
            action: ActionId(1),
            removes: vec![],
            adds: vec![],
            needs_global_drain: false,
        };
        ProtoMsg::Reset { step: StepId(step), action, solo }
    }

    /// A scripted agent reporting over 1 ms links to a recording manager,
    /// which sends it `inputs` — (ms, epoch, session, message) — while
    /// `faults` (built for the agent's id) strike. Returns what the manager
    /// heard and the agent's bus events.
    fn run(
        inputs: Vec<(u64, u64, u64, ProtoMsg)>,
        faults: impl FnOnce(ActorId) -> FaultPlan,
    ) -> (Heard, Vec<Event>) {
        let ring = Rc::new(RefCell::new(RingSink::new(1 << 12)));
        let bus = Bus::new();
        bus.attach(&ring);
        let mut sim: Simulator<Wire<()>, ProtoTimer> = Simulator::new(1);
        let manager = ActorId::from_index(1);
        let agent = ScriptedAgent::new(manager, AgentTiming::default()).with_bus(bus);
        assert_eq!(sim.add_actor("agent", agent), AGENT);
        assert_eq!(sim.add_actor("manager", Manager::default()), manager);
        sim.schedule_faults(&faults(AGENT));
        for (at, epoch, session, msg) in inputs {
            // Injected only now: a crash destroys what is in flight to it.
            let at = ms(at).as_micros();
            sim.run_until(SimTime::from_micros(at - 1));
            let wire = Wire::Proto { epoch, session: SessionId(session), msg };
            sim.inject(manager, AGENT, wire, SimDuration::from_micros(at - sim.now().as_micros()));
        }
        sim.run();
        let heard = std::mem::take(&mut sim.actor_mut::<Manager>(manager).unwrap().0);
        let events = ring.borrow().events();
        (heard, events)
    }

    fn no_faults(_: ActorId) -> FaultPlan {
        FaultPlan::new()
    }

    #[test]
    fn an_older_manager_epoch_is_dropped_an_equal_one_accepted() {
        let q = || ProtoMsg::QueryState;
        let (heard, _) = run(vec![(1, 2, 0, q()), (2, 1, 0, q()), (3, 2, 0, q())], no_faults);
        let answered: Vec<u64> = heard.iter().map(|h| h.0).collect();
        assert_eq!(answered, [2, 4], "epoch 2 answered, then 1 dropped, then 2 again answered");
    }

    #[test]
    fn the_session_is_adopted_and_echoed_on_replies_and_bus_events() {
        let (heard, events) =
            run(vec![(1, 0, 7, reset(1, false)), (20, 0, 9, ProtoMsg::QueryState)], no_faults);
        let replies: Vec<(u64, u64)> = heard.iter().map(|h| (h.0, h.2)).collect();
        // ResetDone once safe (5 ms), AdaptDone after the in-action (2 ms),
        // then the probe's report under the probe's session.
        assert_eq!(replies, [(7, 7), (9, 7), (21, 9)]);
        let stamped: Vec<(u64, u64)> =
            events.iter().map(|e| (e.at.as_micros() / 1_000, e.session)).collect();
        assert_eq!(stamped, [(1, 7), (6, 7), (8, 7)], "running → resetting → safe → adapted");
    }

    #[test]
    fn the_rejoin_ladder_retransmits_until_engaged_or_spent() {
        let crash = |a| FaultPlan::new().crash(a, ms(10)).restart(a, ms(20));
        let rejoins = |heard: &Heard| -> Vec<u64> {
            let rejoin = |h: &&(u64, u64, u64, ProtoMsg)| matches!(h.3, ProtoMsg::Rejoin { .. });
            heard.iter().filter(rejoin).map(|h| h.0).collect()
        };
        let (spent, _) = run(vec![], crash);
        let every_period: Vec<u64> = (0..13).map(|k| 21 + 100 * k).collect();
        assert_eq!(rejoins(&spent), every_period, "the first announcement and twelve retries");
        let first = (21, 1, 0, ProtoMsg::Rejoin { last_completed: None });
        assert_eq!(spent[0], first, "under the new incarnation");

        // A Resume the running core ignores does not stop the ladder; a
        // Reset that engages it does, even a solo one it has finished (in
        // 8 ms) and is running again by the next period.
        let resume = ProtoMsg::Resume { step: StepId(99) };
        let (engaged, _) = run(vec![(250, 0, 0, resume), (450, 0, 0, reset(1, true))], crash);
        assert_eq!(rejoins(&engaged), [21, 121, 221, 321, 421]);
    }

    #[test]
    fn the_synthetic_transition_is_published_only_off_running() {
        let crash = |a| FaultPlan::new().crash(a, ms(3)).restart(a, ms(20));
        let (_, events) = run(vec![(1, 0, 3, reset(1, false))], crash);
        let last = events.last().expect("transitions published");
        assert_eq!((last.at, last.session), (ms(20), 3), "at the restart, in the adopted session");
        let back = ProtoEvent::AgentState {
            from: AgentStateTag::Resetting,
            to: AgentStateTag::Running,
            step: None,
        };
        assert_eq!(last.payload, Payload::Proto(back));

        let (_, events) = run(vec![], crash);
        assert!(events.is_empty(), "a running incarnation is already where a restart lands");
    }
}
