//! Simnet adapters: running the manager and scriptable agents on the
//! discrete-event network.
//!
//! [`ManagerActor`] is the [`ManagerHost`] with one session (the video
//! application reuses it unchanged). [`ScriptedAgent`] is the
//! [`AgentHost`] plus timers that stand in for a real process's local
//! work: every fleet's agent, and the one the protocol tests and benches
//! drive through every failure mode with controlled timing.

use std::marker::PhantomData;
use std::rc::Rc;

use sada_expr::Config;
use sada_obs::Bus;
use sada_plan::{ActionId, Path};
use sada_resilience::BreakerConfig;
use sada_simnet::{Actor, ActorId, Context, SimDuration, SimTime};

use crate::agent::{AgentEffect, AgentEvent};
use crate::agent_host::{AgentHost, Uplink};
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

// Timer tags: the safe state reached, the in-action done, full operation
// restored, a rollback done, and the host's rejoin ladder.
const TAG_SAFE: u64 = 1;
const TAG_ACT: u64 = 2;
const TAG_RESUME: u64 = 3;
const TAG_ROLLBACK: u64 = 4;
const TAG_REJOIN: u64 = 5;

/// A process whose local adaptation behaviour is scripted: it reaches its
/// safe state, performs in-actions, resumes and rolls back after fixed
/// delays, and can be told to exhibit the paper's fail-to-reset failure.
///
/// Under fault injection it models the volatile-uncommitted crash model:
/// a crash destroys the step in progress (an applied-but-uncommitted
/// in-action is recorded as evaporated in [`ScriptedAgent::applied`])
/// while completed steps survive on durable storage; the restart is the
/// [`AgentHost`]'s: a bumped epoch and [`ProtoMsg::Rejoin`] announcements
/// until the manager resynchronizes it.
///
/// The agent holds its protocol state; what its embedding fixes for it
/// (manager, timing, bus) sits in an environment that clones share, so a
/// fleet of agents cloned from one prototype holds it once.
///
/// [`ProtoMsg::Rejoin`]: crate::ProtoMsg::Rejoin
#[derive(Clone)]
pub struct ScriptedAgent {
    host: AgentHost,
    env: Rc<AgentEnv>,
    /// When true, the agent reports `fail to reset` instead of reaching its
    /// safe state (a long critical communication segment).
    pub fail_to_reset: bool,
    /// Forward (`true`) and rollback (`false`) structural changes actually
    /// applied, in order — the ground truth tests compare against.
    pub applied: Vec<(ActionId, bool)>,
    /// Crashes suffered (fault injection).
    pub crashes: u64,
}

// A fleet plane clones an agent when a session or a fault first touches it:
// what an agent holds inline is paid once per engaged agent, 16 384 times
// for the 8 192 sessions of a 100k-group storm (an untouched one costs its
// arena a 4-byte slot).
const _: () = assert!(std::mem::size_of::<ScriptedAgent>() <= 144);

/// What a [`ScriptedAgent`]'s embedding fixes for it. Shared by every clone
/// of one agent and copied on write.
#[derive(Clone)]
struct AgentEnv {
    manager: ActorId,
    timing: AgentTiming,
    bus: Bus,
}

impl AgentEnv {
    fn uplink(&self) -> Uplink<'_> {
        Uplink { manager: self.manager, bus: &self.bus, rejoin_tag: TAG_REJOIN }
    }

    /// Schedules the local work: each piece completes when its timer fires
    /// (`on_timer`), which reads what it completes off the core.
    fn arm<M>(&self, ctx: &mut Context<'_, Wire<M>>, work: AgentEffect) -> Option<AgentEvent> {
        let t = &self.timing;
        let (delay, tag) = match work {
            // Reaching the safe state takes time — more when the global
            // safe condition demands draining; a fail-to-reset agent
            // discovers after the same delay that it cannot.
            AgentEffect::BeginReset(la) if la.needs_global_drain => {
                (t.safe_delay + t.drain_extra, TAG_SAFE)
            }
            AgentEffect::BeginReset(_) => (t.safe_delay, TAG_SAFE),
            AgentEffect::DoInAction(_) => (t.act_delay, TAG_ACT),
            AgentEffect::DoResume => (t.resume_delay, TAG_RESUME),
            // `DoRollback`: the host hands over nothing else.
            _ => (t.rollback_delay, TAG_ROLLBACK),
        };
        ctx.set_timer(delay, tag);
        None
    }
}

impl ScriptedAgent {
    /// Creates an agent reporting to `manager`.
    pub fn new(manager: ActorId, timing: AgentTiming) -> Self {
        ScriptedAgent {
            host: AgentHost::default(),
            env: Rc::new(AgentEnv { manager, timing, bus: Bus::new() }),
            fail_to_reset: false,
            applied: Vec::new(),
            crashes: 0,
        }
    }

    /// Emits the agent's protocol state transitions onto `bus` (timestamped
    /// with the virtual clock, attributed to this actor). Other clones of
    /// this agent keep the bus they had.
    pub fn with_bus(mut self, bus: Bus) -> Self {
        Rc::make_mut(&mut self.env).bus = bus;
        self
    }

    /// The agent's host (its incarnation and rejoin count).
    pub fn host(&self) -> &AgentHost {
        &self.host
    }
}

impl<M: Clone + 'static> Actor<Wire<M>> for ScriptedAgent {
    fn on_message(&mut self, ctx: &mut Context<'_, Wire<M>>, _from: ActorId, msg: Wire<M>) {
        if let Wire::Proto { epoch, session, msg } = msg {
            let env = &*self.env;
            self.host.on_message(ctx, env.uplink(), epoch, session, msg, |ctx, _, work| {
                env.arm(ctx, work)
            });
        }
    }

    fn on_crash(&mut self, _now: SimTime) {
        self.crashes += 1;
        // The volatile-uncommitted model: a structural change that was
        // applied but never committed evaporates with the process image.
        // Record it as undone so the ground-truth replay sees what a fresh
        // process image actually contains.
        if let Some(la) = self.host.core().uncommitted_action() {
            self.applied.push((la.action, false));
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Wire<M>>) {
        self.host.restart(ctx, self.env.uplink());
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Wire<M>>, tag: u64) {
        let core = self.host.core();
        let ev = match tag {
            TAG_REJOIN => return self.host.rejoin_due(ctx, self.env.uplink()),
            TAG_SAFE if self.fail_to_reset => AgentEvent::CannotReset,
            TAG_SAFE => AgentEvent::SafeReached,
            TAG_ACT => {
                // The structural change happens exactly here — atomically
                // with respect to the (blocked) data path — unless a
                // rollback or a new attempt overtook it and cancelled it.
                if let Some(la) = core.scheduled_in_action() {
                    self.applied.push((la.action, true));
                }
                AgentEvent::InActionDone
            }
            TAG_RESUME => AgentEvent::ResumeFinished,
            TAG_ROLLBACK => {
                // A forward change that was applied is undone here.
                if let Some(la) = core.uncommitted_action() {
                    self.applied.push((la.action, false));
                }
                AgentEvent::RollbackFinished
            }
            _ => return,
        };
        let env = &*self.env;
        self.host.drive(ctx, env.uplink(), ev, |ctx, _, work| env.arm(ctx, work));
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
