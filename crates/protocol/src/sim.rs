//! Simnet adapters: running the manager and scriptable agents on the
//! discrete-event network.
//!
//! [`ManagerActor`] is the production adapter (the video application reuses
//! it unchanged); [`ScriptedAgent`] is a configurable stand-in for a real
//! process, used by the protocol tests and benches to exercise every failure
//! mode with controlled timing.

use std::marker::PhantomData;
use std::rc::Rc;

use sada_expr::Config;
use sada_obs::Bus;
use sada_plan::{ActionId, Path};
use sada_resilience::{BreakerConfig, ReannouncePolicy};
use sada_simnet::{Actor, ActorId, Context, SimDuration, SimTime};

use crate::agent::{AgentCore, AgentEffect, AgentEvent};
use crate::host::{ManagerHost, Roster, SessionCore};
use crate::journal::JournalRecord;
use crate::manager::{
    AdaptationPlanner, ManagerCore, ManagerEffect, ManagerEvent, Outcome, PlannedStep, ProtoTiming,
};
use crate::messages::{SessionId, Wire};

/// Placeholder planner installed while the real planner is carried across a
/// manager restart (never consulted).
struct NoopPlanner;

impl AdaptationPlanner for NoopPlanner {
    fn paths(&mut self, _from: &Config, _to: &Config, _k: usize) -> Vec<Path> {
        Vec::new()
    }

    fn compile(&mut self, _path: &Path) -> Vec<PlannedStep> {
        Vec::new()
    }
}

/// Application-message predicate that fires the adaptation request.
type Trigger<M> = Box<dyn Fn(&M) -> bool>;

/// The adaptation manager as a simulated process: a [`ManagerHost`] with
/// one session ([`SessionId::SOLO`]) plus the request that starts it.
///
/// Generic over the application payload `M` (the manager itself only speaks
/// [`ProtoMsg`](crate::ProtoMsg)). The adaptation request fires at
/// start-up; the outcome is readable from the actor state after the run.
///
/// The actor models the durability split of a crash-safe deployment: the
/// [`ManagerCore`], its timers and its host state are the volatile process
/// image and are rebuilt from scratch when fault injection crashes this
/// actor, while the write-ahead [`journal`](Self::journal) plays the role
/// of the durable log a production manager would fsync — it survives the
/// crash, and the restarted incarnation replays it through
/// [`ManagerCore::restore`], then reconciles agent state with
/// [`ProtoMsg::QueryState`](crate::ProtoMsg::QueryState) probes under a
/// bumped epoch.
pub struct ManagerActor<M> {
    host: ManagerHost,
    sess: SessionCore,
    /// How many agents the manager drives (its slowest one sets the hint).
    agents: usize,
    request: Option<(Config, Config)>,
    request_delay: SimDuration,
    trigger: Option<Trigger<M>>,
    /// Timing policy, kept so a restarted incarnation is rebuilt under the
    /// same policy the dead one ran.
    timing: ProtoTiming,
    /// The durable write-ahead adaptation journal (everything the core
    /// emitted as [`ManagerEffect::Journal`], in order). Survives crashes of
    /// this actor by construction — the simulator only destroys in-flight
    /// deliveries and timers, which is exactly the volatile set.
    pub journal: Vec<JournalRecord>,
    /// Times this manager crashed and was rebuilt from its journal.
    pub restores: u64,
    /// Final outcome, set when the adaptation completes.
    pub outcome: Option<Outcome>,
    /// Virtual time at which the outcome was produced (the realization
    /// latency; the simulation may quiesce later while stale timers drain).
    pub completed_at: Option<sada_simnet::SimTime>,
    /// Progress log (the manager's `Info` effects).
    pub infos: Vec<String>,
    _marker: PhantomData<fn() -> M>,
}

impl<M> ManagerActor<M> {
    /// Creates a manager actor that will drive `source → target` over the
    /// given agent actors as soon as the simulation starts.
    pub fn new(
        timing: ProtoTiming,
        planner: Box<dyn AdaptationPlanner>,
        agents: Vec<ActorId>,
        source: Config,
        target: Config,
    ) -> Self {
        ManagerActor {
            sess: SessionCore::new(ManagerCore::new(timing, planner)),
            agents: agents.len(),
            host: ManagerHost::new(Roster::Listed(agents), timing),
            request: Some((source, target)),
            request_delay: SimDuration::ZERO,
            trigger: None,
            timing,
            journal: Vec::new(),
            restores: 0,
            outcome: None,
            completed_at: None,
            infos: Vec::new(),
            _marker: PhantomData,
        }
    }

    /// Installs per-agent circuit breakers between the core and the wire:
    /// an agent that keeps timing out stops absorbing retransmissions and
    /// is re-engaged through a single seeded half-open probe.
    pub fn with_breakers(mut self, cfg: BreakerConfig) -> Self {
        self.host.breaker = Some(cfg);
        self
    }

    /// Emits the manager's protocol/plan events onto `bus` (timestamped
    /// with the virtual clock, attributed to this actor).
    pub fn with_bus(mut self, bus: Bus) -> Self {
        self.host.bus = bus;
        self
    }

    /// Delays the adaptation request by `delay` of simulated time after
    /// start-up (the case study streams video first, then hardens security).
    pub fn with_request_delay(mut self, delay: SimDuration) -> Self {
        self.request_delay = delay;
        self
    }

    /// Withholds the request until an application message satisfying
    /// `trigger` arrives — the hook a decision-making monitor uses to start
    /// the adaptation (e.g. "packet loss exceeded threshold, insert FEC").
    /// Overrides any request delay.
    pub fn with_request_trigger(mut self, trigger: Box<dyn Fn(&M) -> bool>) -> Self {
        self.trigger = Some(trigger);
        self
    }

    /// The manager's host (its breaker and suppression counters).
    pub fn host(&self) -> &ManagerHost {
        &self.host
    }
}

impl<M: Clone + 'static> ManagerActor<M> {
    /// Runs `ev` through the core, with the slowest agent's RTO as its
    /// deadline hint, and applies the effects.
    fn step(&mut self, ctx: &mut Context<'_, Wire<M>>, ev: ManagerEvent) {
        let in_timeout = matches!(ev, ManagerEvent::Timeout { .. });
        self.sess.core.set_timeout_hint(self.host.hint(|| 0..self.agents));
        let eff = self.sess.core.on_event(ev);
        self.apply(ctx, eff, in_timeout);
    }

    fn apply(&mut self, ctx: &mut Context<'_, Wire<M>>, eff: Vec<ManagerEffect>, timeout: bool) {
        for eff in self.host.apply(ctx, SessionId::SOLO, &mut self.sess, timeout, eff) {
            match eff {
                ManagerEffect::Complete(outcome) => {
                    self.outcome = Some(outcome);
                    self.completed_at = Some(ctx.now());
                }
                ManagerEffect::Journal(rec) => self.journal.push(rec),
                ManagerEffect::Info(s) => self.infos.push(s),
                _ => {} // the host put it on the wire
            }
        }
    }

    fn fire_request(&mut self, ctx: &mut Context<'_, Wire<M>>) {
        if let Some((source, target)) = self.request.take() {
            self.step(ctx, ManagerEvent::Request { source, target });
        }
    }
}

/// Timer tag reserved for the delayed adaptation request.
const TAG_REQUEST: u64 = u64::MAX;

impl<M: Clone + 'static> Actor<Wire<M>> for ManagerActor<M> {
    fn on_start(&mut self, ctx: &mut Context<'_, Wire<M>>) {
        if self.trigger.is_some() {
            // Waiting for the decision-making monitor.
        } else if self.request_delay > SimDuration::ZERO {
            ctx.set_timer(self.request_delay, TAG_REQUEST);
        } else {
            self.fire_request(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Wire<M>>, from: ActorId, msg: Wire<M>) {
        match msg {
            Wire::Proto { epoch, msg: p, .. } => {
                if let Some(agent) = self.host.on_arrival(from, epoch, ctx.now(), ctx.self_id()) {
                    self.step(ctx, ManagerEvent::AgentMsg { agent, msg: p });
                }
            }
            Wire::App(m) => {
                if self.trigger.as_ref().is_some_and(|t| t(&m)) {
                    self.fire_request(ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Wire<M>>, tag: u64) {
        if tag == TAG_REQUEST {
            self.fire_request(ctx);
            return;
        }
        self.sess.timers.remove(&tag);
        self.step(ctx, ManagerEvent::Timeout { token: tag });
    }

    fn on_crash(&mut self, _now: SimTime) {
        // The process image dies: armed timers and the host's per-agent
        // state are volatile. The journal field deliberately survives — it
        // stands in for the durable log of a real deployment.
        self.sess.timers.clear();
        self.host.crash();
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Wire<M>>) {
        self.restores += 1;
        // Carry the planner out of the dead core (planners are deterministic
        // and stateless with respect to protocol progress, so reuse is
        // sound) and replay the journal into a fresh one.
        let idle = ManagerCore::new(self.timing, Box::new(NoopPlanner));
        let dead = std::mem::replace(&mut self.sess.core, idle);
        let (core, eff) = ManagerCore::restore(self.timing, dead.into_planner(), &self.journal)
            .unwrap_or_else(|e| panic!("manager journal replay failed: {e}"));
        self.sess.core = core;
        self.apply(ctx, eff, false);
        // If the request had not yet fired (its arming timer died with the
        // crash), re-arm it for the originally scheduled instant; trigger
        // mode just keeps waiting for the application predicate.
        if self.request.is_some() && self.trigger.is_none() {
            let due = self.request_delay.as_micros();
            let now = ctx.now().as_micros();
            if due > now {
                ctx.set_timer(SimDuration::from_micros(due - now), TAG_REQUEST);
            } else {
                self.fire_request(ctx);
            }
        }
    }
}

/// How long each local operation takes on a [`ScriptedAgent`].
#[derive(Debug, Clone, Copy)]
pub struct AgentTiming {
    /// Delay from `reset` to the safe state (packet boundary + drain).
    pub safe_delay: SimDuration,
    /// Extra delay when the action's global safe condition requires
    /// draining in-flight traffic (the paper's expensive compound actions).
    pub drain_extra: SimDuration,
    /// Duration of the structural in-action.
    pub act_delay: SimDuration,
    /// Delay to restore full operation.
    pub resume_delay: SimDuration,
    /// Duration of a rollback.
    pub rollback_delay: SimDuration,
}

impl Default for AgentTiming {
    fn default() -> Self {
        AgentTiming {
            safe_delay: SimDuration::from_millis(5),
            drain_extra: SimDuration::from_millis(25),
            act_delay: SimDuration::from_millis(2),
            resume_delay: SimDuration::from_millis(1),
            rollback_delay: SimDuration::from_millis(2),
        }
    }
}

/// Timer tag for reaching the safe state.
const TAG_SAFE: u64 = 1;
/// Timer tag for completing the structural in-action.
const TAG_ACT: u64 = 2;
/// Timer tag for restoring full operation.
const TAG_RESUME: u64 = 3;
/// Timer tag for completing a rollback.
const TAG_ROLLBACK: u64 = 4;
/// Timer tag for retransmitting a post-restart `Rejoin` announcement.
const TAG_REJOIN: u64 = 5;

/// A process whose local adaptation behaviour is scripted: it reaches its
/// safe state, performs in-actions, resumes and rolls back after fixed
/// delays, and can be told to exhibit the paper's fail-to-reset failure.
///
/// Under fault injection it models the volatile-uncommitted crash model:
/// a crash destroys the step in progress (an applied-but-uncommitted
/// in-action is recorded as evaporated in [`ScriptedAgent::applied`])
/// while completed steps survive on durable storage; the restart bumps the
/// agent's epoch and announces [`ProtoMsg::Rejoin`] to the manager,
/// retransmitting on the [`ReannouncePolicy::default`] schedule until it
/// is resynchronized.
///
/// The agent holds its protocol state; what its embedding fixes for it
/// (manager, timing, bus) sits in an environment that clones share, so a
/// fleet of agents cloned from one prototype holds it once.
///
/// [`ProtoMsg::Rejoin`]: crate::ProtoMsg::Rejoin
#[derive(Clone)]
pub struct ScriptedAgent {
    core: AgentCore,
    env: Rc<AgentEnv>,
    /// When true, the agent reports `fail to reset` instead of reaching its
    /// safe state (a long critical communication segment).
    pub fail_to_reset: bool,
    /// Forward (`true`) and rollback (`false`) structural changes actually
    /// applied, in order — the ground truth tests compare against.
    pub applied: Vec<(ActionId, bool)>,
    /// Crashes suffered (fault injection).
    pub crashes: u64,
    /// `Rejoin` announcements put on the wire.
    pub rejoins_sent: u64,
    epoch: u64,
    manager_epoch: u64,
    /// `Rejoin` retransmissions left to this incarnation.
    rejoin_budget: u32,
    /// Last session seen on incoming protocol traffic; echoed on every
    /// outgoing message (and stamped on bus events) so a multi-session
    /// control plane can route this agent's replies. Stays
    /// [`SessionId::SOLO`] under a single-session manager.
    session: SessionId,
}

// A fleet keeps every agent of a plane in one arena: what an agent holds
// inline is paid once per agent, 200 000 times at 100k groups.
const _: () = assert!(std::mem::size_of::<ScriptedAgent>() <= 160);

/// What a [`ScriptedAgent`]'s embedding fixes for it. Shared by every clone
/// of one agent and copied on write.
#[derive(Clone)]
struct AgentEnv {
    manager: ActorId,
    timing: AgentTiming,
    bus: Bus,
}

impl ScriptedAgent {
    /// Creates an agent reporting to `manager`.
    pub fn new(manager: ActorId, timing: AgentTiming) -> Self {
        ScriptedAgent {
            core: AgentCore::new(),
            env: Rc::new(AgentEnv { manager, timing, bus: Bus::new() }),
            fail_to_reset: false,
            applied: Vec::new(),
            crashes: 0,
            rejoins_sent: 0,
            epoch: 0,
            manager_epoch: 0,
            rejoin_budget: 0,
            session: SessionId::SOLO,
        }
    }

    /// Emits the agent's protocol state transitions onto `bus` (timestamped
    /// with the virtual clock, attributed to this actor). Other clones of
    /// this agent keep the bus they had.
    pub fn with_bus(mut self, bus: Bus) -> Self {
        Rc::make_mut(&mut self.env).bus = bus;
        self
    }

    /// This agent's incarnation number (0 until the first crash/restart).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn send_rejoin<M: Clone + 'static>(&mut self, ctx: &mut Context<'_, Wire<M>>) {
        self.rejoins_sent += 1;
        ctx.send(
            self.env.manager,
            Wire::Proto {
                epoch: self.epoch,
                session: self.session,
                msg: crate::messages::ProtoMsg::Rejoin {
                    last_completed: self.core.last_completed(),
                },
            },
        );
        ctx.set_timer(ReannouncePolicy::default().period, TAG_REJOIN);
    }

    fn apply<M: Clone + 'static>(
        &mut self,
        ctx: &mut Context<'_, Wire<M>>,
        effects: Vec<AgentEffect>,
    ) {
        let env = &*self.env;
        let obs = self.core.drain_obs();
        if env.bus.has_sinks() {
            let (at, actor) = (ctx.now(), ctx.self_id().index() as u32);
            for payload in obs {
                env.bus.emit(sada_obs::Event {
                    at,
                    actor,
                    session: self.session.0,
                    shard: 0,
                    payload,
                });
            }
        }
        let timing = &env.timing;
        for eff in effects {
            match eff {
                AgentEffect::Send(msg) => ctx.send(
                    env.manager,
                    Wire::Proto { epoch: self.epoch, session: self.session, msg },
                ),
                AgentEffect::PreAction(_) | AgentEffect::PostAction(_) => {}
                AgentEffect::BeginReset(la) => {
                    // Reaching the safe state takes time — more when the
                    // global safe condition demands draining; a
                    // fail-to-reset agent discovers after the same delay
                    // that it cannot.
                    let delay = if la.needs_global_drain {
                        timing.safe_delay + timing.drain_extra
                    } else {
                        timing.safe_delay
                    };
                    ctx.set_timer(delay, TAG_SAFE);
                }
                // What the timers complete is read off the core when they
                // fire (`on_timer`), not carried here.
                AgentEffect::DoInAction(_) => {
                    ctx.set_timer(timing.act_delay, TAG_ACT);
                }
                AgentEffect::DoResume => {
                    ctx.set_timer(timing.resume_delay, TAG_RESUME);
                }
                AgentEffect::DoRollback(_) => {
                    ctx.set_timer(timing.rollback_delay, TAG_ROLLBACK);
                }
            }
        }
    }
}

impl<M: Clone + 'static> Actor<Wire<M>> for ScriptedAgent {
    fn on_message(&mut self, ctx: &mut Context<'_, Wire<M>>, _from: ActorId, msg: Wire<M>) {
        if let Wire::Proto { epoch, session, msg: p } = msg {
            if epoch < self.manager_epoch {
                return; // residue from a previous manager incarnation
            }
            self.manager_epoch = epoch;
            // Adopt the sender's session so replies (and this agent's bus
            // events) are tagged with the adaptation they belong to.
            self.session = session;
            let eff = self.core.on_event(AgentEvent::Msg(p));
            self.apply(ctx, eff);
            if self.core.state() != crate::AgentState::Running {
                // The manager has re-engaged this incarnation: the rejoin
                // announcement has served its purpose. (A Resume ignored in
                // the running state does NOT count — that is exactly the
                // lost-rejoin divergence the retransmissions exist for.)
                self.rejoin_budget = 0;
            }
        }
    }

    fn on_crash(&mut self, _now: SimTime) {
        self.crashes += 1;
        // The volatile-uncommitted model: a structural change that was
        // applied but never committed evaporates with the process image.
        // Record it as undone so the ground-truth replay sees what a fresh
        // process image actually contains.
        if let Some(la) = self.core.uncommitted_action() {
            self.applied.push((la.action, false));
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Wire<M>>) {
        // New incarnation: only durable state (completed steps) survives.
        self.epoch += 1;
        let prev = self.core.state();
        self.core = AgentCore::restore(self.core.last_completed());
        // The crash snapped the state machine back to Running without an
        // ordinary transition; emit one so per-phase interval integration
        // closes the dead incarnation's phase at the restart instant.
        if prev != crate::AgentState::Running {
            self.env.bus.scoped(self.session.0).publish(
                ctx.now(),
                ctx.self_id().index() as u32,
                || {
                    sada_obs::Payload::Proto(sada_obs::ProtoEvent::AgentState {
                        from: crate::agent::state_tag(prev),
                        to: sada_obs::AgentStateTag::Running,
                        step: None,
                    })
                },
            );
        }
        // The budget must outlast a partition window plus the manager's
        // phase timeout, or a lost rejoin degenerates into the (safe but
        // slower) pure-timeout recovery.
        self.rejoin_budget = ReannouncePolicy::default().budget;
        self.send_rejoin(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Wire<M>>, tag: u64) {
        if tag == TAG_REJOIN {
            // Keep announcing until the manager engages us (we leave the
            // running state) or the budget runs out; after that, recovery
            // falls back to the manager's ordinary timeout ladder.
            if self.rejoin_budget > 0 && self.core.state() == crate::AgentState::Running {
                self.rejoin_budget -= 1;
                self.send_rejoin(ctx);
            }
            return;
        }
        let ev = match tag {
            TAG_SAFE => {
                if self.fail_to_reset {
                    AgentEvent::CannotReset
                } else {
                    AgentEvent::SafeReached
                }
            }
            TAG_ACT => {
                // The structural change happens exactly here — atomically
                // with respect to the (blocked) data path — unless a
                // rollback or a new attempt overtook it and cancelled it.
                if let Some(la) = self.core.scheduled_in_action() {
                    self.applied.push((la.action, true));
                }
                AgentEvent::InActionDone
            }
            TAG_RESUME => AgentEvent::ResumeFinished,
            TAG_ROLLBACK => {
                // A forward change that was applied is undone here.
                if let Some(la) = self.core.uncommitted_action() {
                    self.applied.push((la.action, false));
                }
                AgentEvent::RollbackFinished
            }
            _ => return,
        };
        let eff = self.core.on_event(ev);
        self.apply(ctx, eff);
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use sada_obs::RingSink;

    use super::*;

    #[test]
    fn clones_share_one_environment_until_one_is_rebussed() {
        let timing =
            AgentTiming { act_delay: SimDuration::from_millis(9), ..AgentTiming::default() };
        let proto = ScriptedAgent::new(ActorId::from_index(3), timing).with_bus(Bus::new());
        let fleet = vec![proto; 3];
        assert!(fleet.iter().all(|a| Rc::ptr_eq(&a.env, &fleet[0].env)), "one environment");
        assert_eq!(Rc::strong_count(&fleet[0].env), 3);

        let bus = Bus::new();
        bus.attach(&Rc::new(RefCell::new(RingSink::new(1))));
        let moved = fleet[1].clone().with_bus(bus);
        assert!(!Rc::ptr_eq(&moved.env, &fleet[0].env), "copied on write");
        assert!(moved.env.bus.has_sinks());
        assert_eq!(moved.env.manager, ActorId::from_index(3));
        assert_eq!(moved.env.timing.act_delay, SimDuration::from_millis(9));
        for a in &fleet {
            assert!(Rc::ptr_eq(&a.env, &fleet[0].env));
            assert!(!a.env.bus.has_sinks(), "a sibling's bus never changes");
        }
    }
}
