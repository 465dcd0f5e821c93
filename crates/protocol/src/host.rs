//! The one host of [`ManagerCore`]s on the simulated network.
//!
//! [`ManagerActor`](crate::ManagerActor) is this host with one session;
//! the fleet's control plane is this host with a session table. Keyed by
//! dense agent index, it carries what sits between a core and the wire:
//! breaker evidence (a send while handling a timeout is a retransmission,
//! any current arrival is success, an open breaker suppresses the send),
//! Karn-rule RTT sampling and the slowest-participant deadline hint, epoch
//! fencing, the effect loop, the retransmission ladders of the sends its
//! caller tracks ([`ManagerHost::track`]), and what a crash destroys.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

use sada_obs::{Bus, Event, FleetEvent, Payload};
use sada_resilience::{
    BreakerConfig, BreakerTransition, CircuitBreaker, RetryMode, RetryPolicy, RttEstimator,
};
use sada_simnet::{ActorId, Context, SimDuration, SimTime, TimerId};

use crate::manager::{ManagerCore, ManagerEffect, ProtoTiming};
use crate::messages::{SessionId, Wire};

/// Who a host's agents are, by dense agent index.
#[derive(Debug)]
pub enum Roster {
    /// Agent `i` is actor `ids[i]` (a solo manager's agents).
    Listed(Vec<ActorId>),
    /// Agent `p` is actor `p`, hosted if it lies in one of these ascending
    /// disjoint runs (a fleet plane's agents).
    Runs(Vec<Range<usize>>),
}

impl Roster {
    fn agent(&self, from: ActorId) -> Option<usize> {
        match self {
            Roster::Listed(ids) => ids.iter().position(|&a| a == from),
            Roster::Runs(runs) => hosting_run(runs, from.index()).map(|_| from.index()),
        }
    }

    fn actor(&self, agent: usize) -> Option<ActorId> {
        match self {
            Roster::Listed(ids) => ids.get(agent).copied(),
            Roster::Runs(runs) => hosting_run(runs, agent).map(|_| ActorId::from_index(agent)),
        }
    }
}

/// The run of `hosted` (ascending disjoint runs of agent indices) holding
/// agent `agent`, if a plane hosting them hosts it.
pub fn hosting_run(hosted: &[Range<usize>], agent: usize) -> Option<usize> {
    let run = hosted.partition_point(|r| r.end <= agent);
    (hosted.get(run)?.start <= agent).then_some(run)
}

/// One embedded manager core and the protocol timers it has armed.
pub struct SessionCore {
    /// The manager state machine.
    pub core: ManagerCore,
    /// Armed timers: core token → (simulator tag, handle).
    pub timers: HashMap<u64, (u64, TimerId)>,
}

impl SessionCore {
    /// A session around `core` with no timer armed.
    pub fn new(core: ManagerCore) -> Self {
        SessionCore { core, timers: HashMap::new() }
    }
}

/// Attempts before a tracked send's ladder is exhausted: about 9 virtual
/// seconds of the adaptive schedule (200 ms doubling to an 800 ms cap).
const LADDER_ATTEMPTS: u32 = 12;

/// What a fired ladder timer asks of the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderFire {
    /// Re-send the message (re-send `n`): the next deadline is armed.
    Resend(u32),
    /// The ladder ran out at this attempt and is gone.
    Exhausted(u32),
}

/// One tracked send's ladder: its re-sends so far and its armed timer.
struct Tracked {
    peer: u32,
    timed: bool,
    attempts: u32,
    tag: u64,
    timer: TimerId,
    sent_at: SimTime,
}

/// When, from which actor and for which session a host event goes out.
#[derive(Clone, Copy)]
struct Stamp(SimTime, ActorId, u64);

/// The host's process image: everything a crash destroys.
#[derive(Default)]
struct Volatile {
    /// Highest incarnation seen per agent.
    agent_epochs: HashMap<usize, u64>,
    /// First unanswered send per agent (Karn's rule).
    pending_since: HashMap<usize, SimTime>,
    /// Estimator and last reported RTO per agent (adaptive ladder only).
    rtt: HashMap<usize, (RttEstimator, u64)>,
    /// Breakers, created on an agent's first failure evidence.
    breakers: BTreeMap<usize, CircuitBreaker>,
    /// Agent → session whose send engaged it last.
    engaged: HashMap<usize, u64>,
    /// Timer tag → (session, core token), for sessions other than SOLO.
    tag_owner: HashMap<u64, (u64, u64)>,
    last_tag: u64,
    /// Tracked sends by (session, token); their tags are not in `tag_owner`.
    ladders: HashMap<(u64, u64), Tracked>,
    /// Estimator per tracked-send peer (timed sends only).
    peer_rtt: HashMap<u32, RttEstimator>,
}

/// What sits between manager cores and the wire (see the module docs).
pub struct ManagerHost {
    roster: Roster,
    adaptive: bool,
    /// Per-agent breaker policy between the cores and the wire (`None`: no
    /// gate).
    pub breaker: Option<BreakerConfig>,
    /// Where the cores' events and the host's own go.
    pub bus: Bus,
    /// The tracked sends' schedule: adaptive, whatever the cores' timing.
    pub ladder: RetryPolicy,
    /// This incarnation, stamped on every send.
    epoch: u64,
    v: Volatile,
    /// Times any breaker tripped open (survives crashes).
    pub breaker_trips: u64,
    /// Sends refused by open breakers (survives crashes).
    pub suppressed_sends: u64,
}

impl ManagerHost {
    /// A host for `roster` whose cores run under `timing`.
    pub fn new(roster: Roster, timing: ProtoTiming) -> Self {
        ManagerHost {
            roster,
            adaptive: timing.retry.mode == RetryMode::Adaptive,
            breaker: None,
            bus: Bus::new(),
            ladder: RetryPolicy::adaptive(),
            epoch: 0,
            v: Volatile::default(),
            breaker_trips: 0,
            suppressed_sends: 0,
        }
    }

    /// This incarnation's epoch, stamped on every send.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The session whose send engaged `agent` last.
    pub fn engaged(&self, agent: usize) -> Option<u64> {
        self.v.engaged.get(&agent).copied()
    }

    /// Forgets that `session` engaged `agent`, if it still is the one.
    pub fn disengage(&mut self, agent: usize, session: u64) {
        if self.engaged(agent) == Some(session) {
            self.v.engaged.remove(&agent);
        }
    }

    /// Whether `agent`'s breaker is open and holding at `now`.
    pub fn blocks(&self, agent: usize, now: SimTime) -> bool {
        self.v.breakers.get(&agent).is_some_and(|b| b.blocks(now))
    }

    /// Open time up to `now` of every agent breaker that ever tripped.
    pub fn breaker_open_us(&self, now: SimTime) -> Vec<(u32, u64)> {
        let tripped = self.v.breakers.iter().filter(|(_, b)| b.trips() > 0);
        tripped.map(|(&ix, b)| (ix as u32, b.open_time_us(now))).collect()
    }

    /// The RTO of the slowest of `agents`: the deadline hint of the core
    /// driving them. `None` before a sample, and under the fixed ladder,
    /// which keeps no estimator and never lists the agents.
    pub fn hint<I: IntoIterator<Item = usize>>(
        &self,
        agents: impl FnOnce() -> I,
    ) -> Option<SimDuration> {
        if !self.adaptive {
            return None;
        }
        agents().into_iter().filter_map(|a| self.v.rtt.get(&a)?.0.rto()).max()
    }

    /// Takes the `(session, token)` owning fired timer `tag` off the books.
    pub fn fired(&mut self, tag: u64) -> Option<(u64, u64)> {
        self.v.tag_owner.remove(&tag)
    }

    /// Cancels every timer of a session that is going away.
    pub fn cancel_timers<M>(&mut self, ctx: &mut Context<'_, Wire<M>>, sess: &SessionCore) {
        for (tag, id) in sess.timers.values() {
            self.v.tag_owner.remove(tag);
            ctx.cancel_timer(*id);
        }
    }

    /// Takes in a message stamped `epoch` from actor `from` at `now` (at
    /// host actor `me`), returning its agent index; `None` for an actor not
    /// driven here or residue of an incarnation older than the newest seen.
    /// Samples the RTT if a send was outstanding, and is success evidence
    /// for the breaker — even for an ack its core will discard as stale.
    pub fn on_arrival(
        &mut self,
        from: ActorId,
        epoch: u64,
        now: SimTime,
        me: ActorId,
    ) -> Option<usize> {
        let agent = self.roster.agent(from)?;
        let seen = self.v.agent_epochs.entry(agent).or_insert(0);
        if epoch < *seen {
            return None;
        }
        *seen = epoch;
        if let (Some(t0), true) = (self.v.pending_since.remove(&agent), self.adaptive) {
            let (estimator, last) = self.v.rtt.entry(agent).or_default();
            estimator.observe(now.saturating_since(t0));
            let us = |d: Option<SimDuration>| d.map_or(0, |d| d.as_micros());
            let (srtt_us, rto_us) = (us(estimator.srtt()), us(estimator.rto()));
            // The one report rule: a first sample (nothing reported reads
            // 0), then a move of the RTO by a quarter of the last report.
            if rto_us.abs_diff(*last).saturating_mul(4) >= *last {
                *last = rto_us;
                let ev = FleetEvent::TimeoutAdapted { agent: agent as u32, srtt_us, rto_us };
                self.emit(Stamp(now, me, self.engaged(agent).unwrap_or(0)), Payload::Fleet(ev));
            }
        }
        if let Some(tr) = self.v.breakers.get_mut(&agent).and_then(|b| b.on_success(now)) {
            self.transition(Stamp(now, me, self.engaged(agent).unwrap_or(0)), agent, tr);
        }
        Some(agent)
    }

    /// Puts `effects` of session `id`'s core on the wire and returns the
    /// rest (completion, journal records, progress notes) in order. Sends
    /// carry the session and this incarnation's epoch and pass the agent's
    /// breaker; answering a timeout (`in_timeout`), each is a
    /// retransmission. A [`SessionId::SOLO`] core's timers fire with their
    /// token as the tag; other sessions draw tags from one sequence.
    pub fn apply<M: Clone + 'static>(
        &mut self,
        ctx: &mut Context<'_, Wire<M>>,
        id: SessionId,
        sess: &mut SessionCore,
        in_timeout: bool,
        effects: Vec<ManagerEffect>,
    ) -> Vec<ManagerEffect> {
        let at = Stamp(ctx.now(), ctx.self_id(), id.0);
        for payload in sess.core.drain_obs() {
            self.emit(at, payload);
        }
        let rest = effects.into_iter().filter_map(|eff| match eff {
            ManagerEffect::Send { agent, msg } => {
                if self.on_send(agent, in_timeout, at) {
                    // A plane hosts every agent its sessions' scopes reach;
                    // a miss would drop the send without a trace.
                    let (sid, shard, to) = (id.0, self.bus.shard(), self.roster.actor(agent));
                    let to = to.unwrap_or_else(|| {
                        panic!("session {sid} addresses agent {agent}, which shard {shard} does not host")
                    });
                    ctx.send(to, Wire::Proto { epoch: self.epoch, session: id, msg });
                }
                None
            }
            ManagerEffect::SetTimer { token, after } => {
                let solo = id == SessionId::SOLO;
                let tag = if solo { token } else { self.v.last_tag + 1 };
                let timer = ctx.set_timer(after, tag);
                if !solo {
                    self.v.last_tag = tag;
                    self.v.tag_owner.insert(tag, (id.0, token));
                }
                sess.timers.insert(token, (tag, timer));
                None
            }
            ManagerEffect::CancelTimer { token } => {
                if let Some((tag, timer)) = sess.timers.remove(&token) {
                    self.v.tag_owner.remove(&tag);
                    ctx.cancel_timer(timer);
                }
                None
            }
            rest => Some(rest),
        });
        rest.collect()
    }

    /// Arms the ladder of a message to `peer` that the caller just put on the
    /// wire, keyed by `(session, token)` (replacing any ladder under it),
    /// until [`ManagerHost::retire`]. A `timed` send's deadlines follow
    /// `peer`'s RTT, which retiring it before any re-send samples (Karn's
    /// rule); an untimed one's reply may wait on queueing, so it is never
    /// sampled and keeps the base schedule.
    pub fn track<M>(
        &mut self,
        ctx: &mut Context<'_, Wire<M>>,
        key: (u64, u64),
        peer: u32,
        timed: bool,
    ) {
        if let Some(prev) = self.v.ladders.remove(&key) {
            ctx.cancel_timer(prev.timer);
        }
        self.arm(ctx, key, (peer, timed, 0));
    }

    /// Sets the timer of `key`'s attempt `attempts` to `peer`, its tag drawn
    /// from the one tag sequence.
    fn arm<M>(&mut self, ctx: &mut Context<'_, Wire<M>>, key: (u64, u64), t: (u32, bool, u32)) {
        let (peer, timed, attempts) = t;
        let hint = timed.then(|| self.v.peer_rtt.get(&peer)?.rto()).flatten();
        let salt = key.1 ^ (u64::from(attempts) << 32) ^ self.epoch;
        self.v.last_tag += 1;
        let (tag, sent_at) = (self.v.last_tag, ctx.now());
        let timer = ctx.set_timer(self.ladder.deadline(attempts, salt, hint), tag);
        self.v.ladders.insert(key, Tracked { peer, timed, attempts, tag, timer, sent_at });
    }

    /// Retires the ladder under `key` (its reply arrived, or the caller
    /// superseded it), returning whether one was live.
    pub fn retire<M>(&mut self, ctx: &mut Context<'_, Wire<M>>, key: (u64, u64)) -> bool {
        let Some(t) = self.v.ladders.remove(&key) else { return false };
        ctx.cancel_timer(t.timer);
        if t.timed && t.attempts == 0 {
            let sample = ctx.now().saturating_since(t.sent_at);
            self.v.peer_rtt.entry(t.peer).or_default().observe(sample);
        }
        true
    }

    /// Takes fired timer `tag` off a ladder's books: its key, its peer, and
    /// what the caller does next. `None` for a tag that is no ladder's
    /// ([`ManagerHost::fired`] never returns one that is).
    pub fn ladder_fired<M>(
        &mut self,
        ctx: &mut Context<'_, Wire<M>>,
        tag: u64,
    ) -> Option<((u64, u64), u32, LadderFire)> {
        let key = *self.v.ladders.iter().find(|(_, t)| t.tag == tag)?.0;
        let Tracked { peer, timed, attempts, .. } = self.v.ladders.remove(&key)?;
        let n = attempts + 1;
        if n == LADDER_ATTEMPTS {
            return Some((key, peer, LadderFire::Exhausted(n)));
        }
        self.arm(ctx, key, (peer, timed, n));
        Some((key, peer, LadderFire::Resend(n)))
    }

    /// The process image dies (the next incarnation stamps a higher
    /// epoch); the trip and suppression counters survive.
    pub fn crash(&mut self) {
        self.epoch += 1;
        self.v = Volatile::default();
    }

    /// Gates one send to `agent`, returning whether it goes out: inside a
    /// timeout it is failure evidence first, and an open breaker absorbs it
    /// (the core's ladder still journals an outcome). A send that goes out
    /// is stamped unless one is outstanding (Karn), and engages the agent.
    fn on_send(&mut self, agent: usize, in_timeout: bool, at: Stamp) -> bool {
        let Stamp(now, _, session) = at;
        if let (true, Some(cfg)) = (in_timeout, self.breaker) {
            let breaker = self.v.breakers.entry(agent).or_insert_with(|| CircuitBreaker::new(cfg));
            if let Some(tr) = breaker.on_failure(now) {
                self.transition(at, agent, tr);
            }
        }
        if let Some(breaker) = self.v.breakers.get_mut(&agent) {
            let (ok, tr) = breaker.allow_send(now);
            if let Some(tr) = tr {
                self.transition(at, agent, tr);
            }
            if !ok {
                self.suppressed_sends += 1;
                return false;
            }
        }
        self.v.pending_since.entry(agent).or_insert(now);
        self.v.engaged.insert(agent, session);
        true
    }

    /// Reports a breaker transition of `agent`, counting trips.
    fn transition(&mut self, at: Stamp, agent: usize, tr: BreakerTransition) {
        let agent = agent as u32;
        let ev = match tr {
            BreakerTransition::Opened { cooldown } => {
                self.breaker_trips += 1;
                FleetEvent::BreakerOpened { agent, cooldown_us: cooldown.as_micros() }
            }
            BreakerTransition::Probing => FleetEvent::BreakerProbed { agent },
            BreakerTransition::Closed => FleetEvent::BreakerClosed { agent },
        };
        self.emit(at, Payload::Fleet(ev));
    }

    fn emit(&self, Stamp(at, me, session): Stamp, payload: Payload) {
        if self.bus.has_sinks() {
            let actor = me.index() as u32;
            self.bus.emit(Event { at, actor, session, shard: 0, payload });
        }
    }
}

#[cfg(test)]
mod tests {
    // One test per host duty. Hand mutations of this file each fails under
    // (each was run):
    //
    // * `failure_evidence_is_a_send_inside_a_timeout` — count every send as
    //   failure evidence (drop `in_timeout`), or none.
    // * `an_open_breaker_suppresses_and_counts` — put a refused send on the
    //   wire anyway, or refuse it without counting.
    // * `a_retransmission_keeps_the_karn_stamp` — stamp every send
    //   (`insert` for `or_insert`).
    // * `rto_reports_come_on_the_first_sample_then_on_quarter_moves` — report
    //   every sample; skip the first; measure the move from the previous
    //   sample's RTO instead of the last report; a half instead of a quarter.
    // * `the_fixed_ladder_keeps_no_estimator` — sample whatever the ladder.
    // * `an_older_epoch_is_dropped_an_equal_one_accepted` — drop equal epochs
    //   (`<=`), or none.
    // * `crash_clears_volatile_state_and_keeps_the_counters` — keep the
    //   volatile state, keep the epoch, or reset a counter.
    //
    // The ladder of tracked sends, driven on a simulator by [`Rig`]:
    //
    // * `ladder_deadlines_follow_the_policy_and_exhaust_once` — drop the
    //   epoch or the attempt from the salt; re-arm from attempt 0; exhaust at
    //   11 or 13 attempts, or keep the ladder after exhausting.
    // * `a_re_sent_or_untimed_send_is_never_sampled` — sample a re-sent send
    //   (drop `attempts == 0`), or an untimed one (drop `timed`).
    // * `a_hint_is_given_only_to_timed_sends` — hint every send, or none.
    // * `a_crash_drops_every_ladder` — keep the ladders or the peer RTTs
    //   across a crash.
    // * `ladder_tags_and_core_tags_never_collide` — draw ladder tags from a
    //   counter of their own, or book them in `tag_owner`.

    use std::cell::RefCell;
    use std::rc::Rc;

    use sada_expr::Config;
    use sada_obs::RingSink;
    use sada_plan::Path;
    use sada_resilience::RetryPolicy;
    use sada_simnet::{Actor, Simulator};

    use super::*;
    use crate::manager::{AdaptationPlanner, PlannedStep};

    const ME: ActorId = ActorId::from_index(9);

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    /// A host over agents 0..4 at actors 0..4, with a ring on its bus.
    fn host(
        retry: RetryPolicy,
        breaker: Option<BreakerConfig>,
    ) -> (ManagerHost, Rc<RefCell<RingSink>>) {
        let ring = Rc::new(RefCell::new(RingSink::new(64)));
        let bus = Bus::new();
        bus.attach(&ring);
        let timing = ProtoTiming { retry, ..ProtoTiming::default() };
        #[allow(clippy::single_range_in_vec_init)] // one run of agents, not a list of indices
        let roster = Roster::Runs(vec![0..4]);
        let mut host = ManagerHost::new(roster, timing);
        (host.breaker, host.bus) = (breaker, bus);
        (host, ring)
    }

    fn fleet_events(ring: &Rc<RefCell<RingSink>>) -> Vec<FleetEvent> {
        let events = ring.borrow().events();
        events
            .into_iter()
            .filter_map(|e| match e.payload {
                Payload::Fleet(ev) => Some(ev),
                _ => None,
            })
            .collect()
    }

    fn tripping_at_once() -> Option<BreakerConfig> {
        Some(BreakerConfig { failure_threshold: 1, ..BreakerConfig::default() })
    }

    #[test]
    fn hosting_run_finds_the_run_or_the_gap() {
        let hosted = [1..2, 4..7, 9..11];
        let runs: Vec<_> = (0..12).map(|a| hosting_run(&hosted, a)).collect();
        let r = Some;
        assert_eq!(runs, [None, r(0), None, None, r(1), r(1), r(1), None, None, r(2), r(2), None]);
        assert_eq!(hosting_run(&[], 0), None);
    }

    #[test]
    fn failure_evidence_is_a_send_inside_a_timeout() {
        let (mut h, ring) = host(RetryPolicy::default(), tripping_at_once());
        for t in 0..3 {
            assert!(
                h.on_send(1, false, Stamp(ms(t), ME, 5)),
                "a first transmission is no evidence"
            );
        }
        assert!(h.v.breakers.is_empty(), "no breaker before the first failure");
        assert!(
            !h.on_send(1, true, Stamp(ms(3), ME, 5)),
            "a retransmission trips a threshold of one"
        );
        assert_eq!(h.breaker_trips, 1);
        assert!(matches!(fleet_events(&ring)[..], [FleetEvent::BreakerOpened { agent: 1, .. }]));
        assert_eq!(ring.borrow().events()[0].session, 5, "stamped with the sending session");
    }

    #[test]
    fn an_open_breaker_suppresses_and_counts() {
        let cfg = tripping_at_once();
        let (mut h, ring) = host(RetryPolicy::default(), cfg);
        assert!(!h.on_send(2, true, Stamp(ms(0), ME, 1)));
        assert!(!h.on_send(2, false, Stamp(ms(1), ME, 1)), "still open");
        assert!(h.on_send(3, false, Stamp(ms(1), ME, 1)), "another agent's breaker is its own");
        assert_eq!(h.suppressed_sends, 2);
        assert!(!h.v.pending_since.contains_key(&2), "a suppressed send is not outstanding");
        assert!(h.blocks(2, ms(1)) && !h.blocks(3, ms(1)));
        // After the hold (cooldown plus at most a quarter of jitter) one
        // probe goes out.
        let after = ms(cfg.unwrap().cooldown.as_micros() * 5 / 4 / 1_000 + 2);
        assert!(h.on_send(2, false, Stamp(after, ME, 1)), "the half-open probe");
        assert_eq!(h.suppressed_sends, 2);
        let evs = fleet_events(&ring);
        assert!(matches!(
            evs[..],
            [FleetEvent::BreakerOpened { .. }, FleetEvent::BreakerProbed { agent: 2 }]
        ));
    }

    #[test]
    fn a_retransmission_keeps_the_karn_stamp() {
        let (mut h, _) = host(RetryPolicy::adaptive(), None);
        assert!(h.on_send(0, false, Stamp(ms(0), ME, 1)));
        assert!(h.on_send(0, true, Stamp(ms(100), ME, 1)));
        assert_eq!(h.on_arrival(ActorId::from_index(0), 0, ms(130), ME), Some(0));
        // One 130 ms sample, not 30: RTO = srtt + 4 · srtt/2.
        assert_eq!(h.hint(|| [0, 1]), Some(SimDuration::from_millis(390)));
        assert_eq!(h.hint(|| [1]), None, "an unsampled agent has no RTO");
    }

    #[test]
    fn rto_reports_come_on_the_first_sample_then_on_quarter_moves() {
        let (mut h, ring) = host(RetryPolicy::adaptive(), None);
        let mut t = 0;
        for sample in [100, 100, 200, 240] {
            assert!(h.on_send(3, false, Stamp(ms(t), ME, 4)));
            t += sample;
            assert_eq!(h.on_arrival(ActorId::from_index(3), 0, ms(t), ME), Some(3));
        }
        // RTOs 300 → 250 (−17 %) → 325 (+8 % of the report, +30 % of the
        // sample before) → 415.314 ms (+38 % of the report).
        let rtos: Vec<u64> = fleet_events(&ring)
            .iter()
            .map(|ev| match ev {
                FleetEvent::TimeoutAdapted { agent: 3, rto_us, .. } => *rto_us,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(rtos, [300_000, 415_314]);
        assert_eq!(ring.borrow().events()[1].session, 4, "stamped with the engaging session");
    }

    #[test]
    fn the_fixed_ladder_keeps_no_estimator() {
        let (mut h, ring) = host(RetryPolicy::default(), None);
        assert!(h.on_send(0, false, Stamp(ms(0), ME, 1)));
        assert_eq!(h.on_arrival(ActorId::from_index(0), 0, ms(40), ME), Some(0));
        assert!(h.v.rtt.is_empty() && h.v.pending_since.is_empty());
        assert_eq!(h.hint(|| [0]), None);
        assert!(fleet_events(&ring).is_empty());
    }

    #[test]
    fn an_older_epoch_is_dropped_an_equal_one_accepted() {
        let (mut h, _) = host(RetryPolicy::default(), None);
        let a1 = ActorId::from_index(1);
        assert_eq!(h.on_arrival(a1, 2, ms(0), ME), Some(1));
        assert_eq!(h.on_arrival(a1, 1, ms(1), ME), None, "pre-crash residue");
        assert_eq!(h.on_arrival(a1, 2, ms(2), ME), Some(1), "the same incarnation again");
        assert_eq!(h.on_arrival(ActorId::from_index(0), 0, ms(3), ME), Some(0), "per agent");
        assert_eq!(h.on_arrival(ActorId::from_index(4), 0, ms(4), ME), None, "not driven here");
    }

    #[test]
    fn crash_clears_volatile_state_and_keeps_the_counters() {
        let (mut h, _) = host(RetryPolicy::adaptive(), tripping_at_once());
        assert!(h.on_send(0, false, Stamp(ms(0), ME, 7)));
        assert_eq!(h.on_arrival(ActorId::from_index(0), 3, ms(10), ME), Some(0));
        assert!(!h.on_send(1, true, Stamp(ms(10), ME, 7)));
        assert!(h.on_send(2, false, Stamp(ms(10), ME, 7)));
        h.v.tag_owner.insert(1, (7, 0));
        h.v.last_tag = 1;
        h.crash();
        assert_eq!(h.epoch, 1, "the next incarnation stamps a higher epoch");
        assert!(h.v.agent_epochs.is_empty() && h.v.pending_since.is_empty() && h.v.rtt.is_empty());
        assert!(h.v.breakers.is_empty() && h.v.engaged.is_empty() && h.v.tag_owner.is_empty());
        assert_eq!(h.v.last_tag, 0, "tags start over");
        assert_eq!((h.breaker_trips, h.suppressed_sends), (1, 1));
        assert_eq!(
            h.on_arrival(ActorId::from_index(0), 0, ms(20), ME),
            Some(0),
            "epochs forgotten"
        );
    }

    /// A planner the rig's core never consults.
    struct NoPlans;

    impl AdaptationPlanner for NoPlans {
        fn paths(&mut self, _: &Config, _: &Config, _: usize) -> Vec<Path> {
            Vec::new()
        }

        fn compile(&mut self, _: &Path) -> Vec<PlannedStep> {
            Vec::new()
        }
    }

    /// One scripted action of a [`Rig`].
    #[derive(Clone, Copy)]
    enum Step {
        /// Track a send under this key to this peer, timed or not.
        Track((u64, u64), u32, bool),
        /// Retire the ladder under this key.
        Retire((u64, u64)),
        /// Arm core token `.0` of session 7 to fire after `.1` ms.
        CoreTimer(u64, u64),
    }

    /// What a [`Rig`] saw, at which virtual μs.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Ladder(u64, (u64, u64), u32, LadderFire),
        Core(u64, (u64, u64)),
        Retired(u64, bool),
    }

    /// Script steps fire under tags from here up.
    const SCRIPT: u64 = 1 << 40;

    /// A host on the simulator that runs `script` (millisecond instants)
    /// and, on a restart, `after_restart`. A fired timer goes to the cores'
    /// books first, so a ladder tag found there is reported as a core's.
    struct Rig {
        host: ManagerHost,
        sess: SessionCore,
        script: Vec<(u64, Step)>,
        after_restart: Vec<Step>,
        seen: Vec<Seen>,
        tags: Vec<u64>,
    }

    impl Rig {
        fn step(&mut self, ctx: &mut Context<'_, Wire<()>>, step: Step) {
            match step {
                Step::Track(key, peer, timed) => self.host.track(ctx, key, peer, timed),
                Step::Retire(key) => {
                    let live = self.host.retire(ctx, key);
                    self.seen.push(Seen::Retired(ctx.now().as_micros(), live));
                }
                Step::CoreTimer(token, after_ms) => {
                    let after = SimDuration::from_millis(after_ms);
                    let effects = vec![ManagerEffect::SetTimer { token, after }];
                    self.host.apply(ctx, SessionId(7), &mut self.sess, false, effects);
                }
            }
        }
    }

    impl Actor<Wire<()>> for Rig {
        fn on_start(&mut self, ctx: &mut Context<'_, Wire<()>>) {
            for (i, &(at_ms, _)) in self.script.iter().enumerate() {
                ctx.set_timer(SimDuration::from_millis(at_ms), SCRIPT + i as u64);
            }
        }

        fn on_message(&mut self, _: &mut Context<'_, Wire<()>>, _: ActorId, _: Wire<()>) {}

        fn on_timer(&mut self, ctx: &mut Context<'_, Wire<()>>, tag: u64) {
            if tag >= SCRIPT {
                return self.step(ctx, self.script[(tag - SCRIPT) as usize].1);
            }
            self.tags.push(tag);
            let at = ctx.now().as_micros();
            if let Some(owner) = self.host.fired(tag) {
                self.seen.push(Seen::Core(at, owner));
            } else if let Some((key, peer, fire)) = self.host.ladder_fired(ctx, tag) {
                self.seen.push(Seen::Ladder(at, key, peer, fire));
            }
        }

        fn on_crash(&mut self, _: SimTime) {
            self.host.crash();
        }

        fn on_restart(&mut self, ctx: &mut Context<'_, Wire<()>>) {
            for step in self.after_restart.clone() {
                self.step(ctx, step);
            }
        }
    }

    /// A simulator holding one [`Rig`] over `script`, its host at `epoch`.
    fn rig(epoch: u64, script: Vec<(u64, Step)>) -> (Simulator<Wire<()>>, ActorId) {
        let timing = ProtoTiming::default();
        let mut host = ManagerHost::new(Roster::Listed(Vec::new()), timing);
        for _ in 0..epoch {
            host.crash();
        }
        let sess = SessionCore::new(ManagerCore::new(timing, Box::new(NoPlans)));
        let rig = Rig {
            host,
            sess,
            script,
            after_restart: Vec::new(),
            seen: Vec::new(),
            tags: Vec::new(),
        };
        let mut sim = Simulator::new(1);
        let id = sim.add_actor("rig", rig);
        (sim, id)
    }

    fn seen(sim: &Simulator<Wire<()>>, id: ActorId) -> &Rig {
        sim.actor::<Rig>(id).expect("the rig")
    }

    #[test]
    fn ladder_deadlines_follow_the_policy_and_exhaust_once() {
        let key = (4, (1 << 60) + 3);
        let (mut sim, id) = rig(2, vec![(0, Step::Track(key, 1, false))]);
        sim.run_for(SimDuration::from_secs(30));
        let (policy, mut at) = (RetryPolicy::adaptive(), 0);
        let want: Vec<Seen> = (0..12u32)
            .map(|a| {
                at += policy.deadline(a, key.1 ^ (u64::from(a) << 32) ^ 2, None).as_micros();
                let fire =
                    if a < 11 { LadderFire::Resend(a + 1) } else { LadderFire::Exhausted(12) };
                Seen::Ladder(at, key, 1, fire)
            })
            .collect();
        assert_eq!(seen(&sim, id).seen, want);
        assert!(seen(&sim, id).host.v.ladders.is_empty(), "an exhausted ladder is gone");
    }

    #[test]
    fn a_re_sent_or_untimed_send_is_never_sampled() {
        let (resent, untimed, timed) = ((1, 1), (1, 2), (1, 3));
        let (mut sim, id) = rig(
            0,
            vec![
                (0, Step::Track(resent, 1, true)),
                (0, Step::Track(untimed, 2, false)),
                (0, Step::Track(timed, 3, true)),
                (30, Step::Retire(untimed)),
                (40, Step::Retire(timed)),
                (250, Step::Retire(resent)),
            ],
        );
        sim.run_for(SimDuration::from_secs(1));
        let r = seen(&sim, id);
        let resend = Seen::Ladder(200_000, resent, 1, LadderFire::Resend(1));
        let want = [(30, true), (40, true)].map(|(ms, live)| Seen::Retired(ms * 1_000, live));
        assert_eq!(r.seen[..2], want);
        assert_eq!(r.seen[2..], [resend, Seen::Retired(250_000, true)], "retired after a re-send");
        let sampled: Vec<_> = r.host.v.peer_rtt.iter().map(|(p, e)| (*p, e.srtt())).collect();
        assert_eq!(sampled, [(3, Some(SimDuration::from_millis(40)))]);
    }

    #[test]
    fn a_hint_is_given_only_to_timed_sends() {
        let (probe, timed, untimed) = ((2, 1), (2, 2), (2, 3));
        let (mut sim, id) = rig(
            0,
            vec![
                (0, Step::Track(probe, 5, true)),
                (100, Step::Retire(probe)),
                (1_000, Step::Track(timed, 5, true)),
                (1_000, Step::Track(untimed, 5, false)),
            ],
        );
        sim.run_for(SimDuration::from_millis(1_350));
        // One 100 ms sample: RTO 300 ms for the timed send, the 200 ms base
        // for the untimed one.
        let fires: Vec<(u64, (u64, u64))> = seen(&sim, id)
            .seen
            .iter()
            .filter_map(|s| match s {
                Seen::Ladder(at, key, ..) => Some((*at, *key)),
                _ => None,
            })
            .collect();
        assert_eq!(fires, [(1_200_000, untimed), (1_300_000, timed)]);
    }

    #[test]
    fn a_crash_drops_every_ladder() {
        let (a, b, s) = ((3, 1), (3, 2), (3, 3));
        let script = vec![
            (0, Step::Track(a, 1, true)),
            (0, Step::Track(b, 2, false)),
            (0, Step::Track(s, 3, true)),
            (20, Step::Retire(s)),
        ];
        let (mut sim, id) = rig(0, script);
        sim.crash_at(id, SimTime::from_millis(50));
        sim.restart_at(id, SimTime::from_millis(60));
        sim.run_until(SimTime::from_millis(40));
        assert_eq!(seen(&sim, id).host.v.ladders.len(), 2, "two ladders live before the crash");
        sim.run_until(SimTime::from_millis(55));
        let r = seen(&sim, id);
        assert!(r.host.v.ladders.is_empty() && r.host.v.peer_rtt.is_empty());
        assert_eq!(r.host.epoch(), 1);
        // No pre-crash ladder answers a retire or fires after the restart.
        sim.actor_mut::<Rig>(id).unwrap().after_restart = vec![Step::Retire(a), Step::Retire(b)];
        sim.run_for(SimDuration::from_secs(30));
        let r = seen(&sim, id);
        assert_eq!(r.seen[1..], [Seen::Retired(60_000, false), Seen::Retired(60_000, false)]);
    }

    #[test]
    fn ladder_tags_and_core_tags_never_collide() {
        let key = (7, 9);
        let script = vec![(0, Step::CoreTimer(4, 5_000)), (0, Step::Track(key, 1, false))];
        let (mut sim, id) = rig(0, script);
        sim.run_for(SimDuration::from_millis(5_500));
        let r = seen(&sim, id);
        let first = r.seen.first().expect("the ladder fired first");
        assert_eq!(*first, Seen::Ladder(200_000, key, 1, LadderFire::Resend(1)));
        assert!(r.seen.contains(&Seen::Core(5_000_000, (7, 4))), "seen: {:?}", r.seen);
        let mut tags = r.tags.clone();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), r.tags.len(), "a tag fired twice: {:?}", r.tags);
    }
}
