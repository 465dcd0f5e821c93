//! The adaptation manager state machine (the paper's Figure 2) with the
//! Section 4.4 failure-handling ladder.
//!
//! Like [`AgentCore`](crate::AgentCore), `ManagerCore` is pure: events in,
//! effects out. Planning is delegated to an [`AdaptationPlanner`] so the
//! manager can re-plan after failures ("try the second minimum adaptation
//! path") without owning the SAG directly.

use std::collections::BTreeSet;

use sada_expr::Config;
use sada_obs::{ManagerPhaseTag, Payload, PlanEvent, ProtoEvent};
use sada_plan::{ActionId, Path};
use sada_simnet::SimDuration;

use sada_resilience::RetryPolicy;

use crate::journal::JournalRecord;
use crate::messages::{LocalAction, ProtoMsg, StepId};

/// The observability tag for a manager phase.
fn phase_tag(p: ManagerPhase) -> ManagerPhaseTag {
    match p {
        ManagerPhase::Running => ManagerPhaseTag::Running,
        ManagerPhase::Adapting => ManagerPhaseTag::Adapting,
        ManagerPhase::Resuming => ManagerPhaseTag::Resuming,
        ManagerPhase::RollingBack => ManagerPhaseTag::RollingBack,
        ManagerPhase::GaveUp => ManagerPhaseTag::GaveUp,
    }
}

/// One step of a compiled adaptation plan: the action, the configuration
/// transition it realizes, and each participating agent's local action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedStep {
    /// The distributed adaptive action.
    pub action: ActionId,
    /// Configuration before the step.
    pub from: Config,
    /// Configuration after the step.
    pub to: Config,
    /// Cost weight (for reporting).
    pub cost: u64,
    /// `(agent index, local action)` for every participating process.
    pub locals: Vec<(usize, LocalAction)>,
}

/// Supplies candidate paths and compiles them into per-process steps.
///
/// Implemented over the lazy search by [`SearchPlanner`](crate::SearchPlanner)
/// and the fleet's scoped planner; tests script failures by hand.
pub trait AdaptationPlanner {
    /// Up to `k` loopless paths from `from` to `to`, cheapest first, and
    /// prefix-stable: the first `k` paths of a larger `k` are these.
    fn paths(&mut self, from: &Config, to: &Config, k: usize) -> Vec<Path>;

    /// Compiles a path into executable steps with participant assignments.
    fn compile(&mut self, path: &Path) -> Vec<PlannedStep>;
}

/// Timing and retry policy for the realization phase.
#[derive(Debug, Clone, Copy)]
pub struct ProtoTiming {
    /// Retransmission deadline schedule (the paper's time-out mechanism):
    /// base interval, exponential backoff cap, deterministic jitter seed,
    /// and whether the base is the fixed ladder or an RTT-adaptive hint
    /// supplied by the host via [`ManagerCore::set_timeout_hint`].
    pub retry: RetryPolicy,
    /// Retransmissions of `reset` before declaring a loss-of-message
    /// failure ("several attempts to send the messages").
    pub send_retries: u32,
    /// Retransmissions of `resume` before the manager force-completes the
    /// step — after the first resume the adaptation must run to completion,
    /// so the manager never rolls back here.
    pub resume_force_limit: u32,
    /// Retransmissions of `rollback` before assuming the rollback happened.
    pub rollback_force_limit: u32,
}

impl Default for ProtoTiming {
    fn default() -> Self {
        ProtoTiming {
            retry: RetryPolicy::default(),
            send_retries: 3,
            resume_force_limit: 10,
            rollback_force_limit: 10,
        }
    }
}

/// The manager's coarse protocol phase (Figure 2's states; `Preparing` is
/// synchronous in this implementation and `Adapted` is transient).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManagerPhase {
    /// No adaptation in progress.
    Running,
    /// Resets sent; collecting `adapt done` from every participant.
    Adapting,
    /// Resumes sent (or solo auto-resume pending); collecting `resume done`.
    Resuming,
    /// Rollback commands sent; collecting `rollback done`.
    RollingBack,
    /// All recovery options exhausted; waiting for user intervention.
    GaveUp,
}

/// Final report of an adaptation request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// True when the system reached the requested target configuration.
    pub success: bool,
    /// True when the manager exhausted every recovery option and stopped at
    /// the current safe configuration awaiting the user.
    pub gave_up: bool,
    /// The configuration the system ended in (always safe).
    pub final_config: Config,
    /// Steps successfully committed.
    pub steps_committed: u32,
    /// Non-fatal anomalies (e.g. force-completed resumes).
    pub warnings: Vec<String>,
}

/// Inputs to the manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManagerEvent {
    /// An adaptation request: move the system from `source` to `target`.
    Request {
        /// Current (safe) configuration.
        source: Config,
        /// Desired (safe) configuration.
        target: Config,
    },
    /// A protocol message arrived from agent `agent`.
    AgentMsg {
        /// Agent index (0-based, dense).
        agent: usize,
        /// The message.
        msg: ProtoMsg,
    },
    /// A timer armed via [`ManagerEffect::SetTimer`] fired.
    Timeout {
        /// The token of the fired timer.
        token: u64,
    },
}

/// Outputs of the manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManagerEffect {
    /// Send `msg` to agent `agent`.
    Send {
        /// Destination agent index.
        agent: usize,
        /// The message.
        msg: ProtoMsg,
    },
    /// Arm a one-shot timer; deliver [`ManagerEvent::Timeout`] with `token`
    /// after `after`.
    SetTimer {
        /// Token echoed by the timeout event.
        token: u64,
        /// Delay.
        after: SimDuration,
    },
    /// Disarm the timer with `token` (best-effort; stale timeouts are also
    /// ignored by token comparison).
    CancelTimer {
        /// Token to disarm.
        token: u64,
    },
    /// The adaptation finished (successfully or not).
    Complete(Outcome),
    /// Append `record` to the write-ahead adaptation journal. The core emits
    /// this **before** the sends it covers, so a host that persists the
    /// record before acting on later effects gets crash-consistent
    /// write-ahead semantics; the host chooses the durability medium.
    Journal(JournalRecord),
    /// Progress note for human logs.
    Info(String),
}

/// The manager half of the realization-phase protocol.
pub struct ManagerCore {
    timing: ProtoTiming,
    planner: Box<dyn AdaptationPlanner>,
    phase: ManagerPhase,
    source: Config,
    target: Config,
    current: Config,
    goal_is_source: bool,
    steps: Vec<PlannedStep>,
    step_ix: usize,
    steps_committed: u32,
    step_id: StepId,
    next_attempt: u64,
    solo: bool,
    resume_sent: bool,
    pending_adapt: BTreeSet<usize>,
    pending_resume: BTreeSet<usize>,
    pending_rollback: BTreeSet<usize>,
    retries: u32,
    step_retry_used: bool,
    /// `(configuration planned from, action ids)` of every path this
    /// request has already started. A handful of entries, cleared per
    /// request and scanned by equality: a configuration compares in O(1)
    /// against the `current` it was cloned from, where hashing one reads
    /// every word of the world.
    tried_paths: Vec<(Config, Vec<ActionId>)>,
    timer_token: u64,
    timer_seq: u64,
    journal_seq: u64,
    /// RTT-derived deadline hint for the slowest participant of the current
    /// step, maintained by the host (volatile: not journaled, reset on
    /// restore — the estimator re-learns after a crash). Only consulted
    /// when the retry policy is in adaptive mode.
    timeout_hint: Option<SimDuration>,
    warnings: Vec<String>,
    queued_requests: std::collections::VecDeque<(Config, Config)>,
    /// Untimed observability payloads accumulated since the last drain; the
    /// embedding stamps them (virtual time, actor) and emits them on its bus.
    obs: Vec<Payload>,
}

impl std::fmt::Debug for ManagerCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ManagerCore")
            .field("phase", &self.phase)
            .field("current", &self.current)
            .field("step_ix", &self.step_ix)
            .field("steps", &self.steps.len())
            .finish()
    }
}

impl ManagerCore {
    /// Creates a manager with the given policy and planner.
    pub fn new(timing: ProtoTiming, planner: Box<dyn AdaptationPlanner>) -> Self {
        let idle = Config::empty(0);
        ManagerCore {
            timing,
            planner,
            phase: ManagerPhase::Running,
            source: idle.clone(),
            target: idle.clone(),
            current: idle,
            goal_is_source: false,
            steps: Vec::new(),
            step_ix: 0,
            steps_committed: 0,
            step_id: StepId(0),
            next_attempt: 1,
            solo: false,
            resume_sent: false,
            pending_adapt: BTreeSet::new(),
            pending_resume: BTreeSet::new(),
            pending_rollback: BTreeSet::new(),
            retries: 0,
            step_retry_used: false,
            tried_paths: Vec::new(),
            timer_token: 0,
            timer_seq: 0,
            journal_seq: 0,
            timeout_hint: None,
            warnings: Vec::new(),
            queued_requests: std::collections::VecDeque::new(),
            obs: Vec::new(),
        }
    }

    /// Takes the observability payloads produced since the last drain, in
    /// emission order. The core is pure and has no clock; whoever embeds it
    /// stamps these and forwards them to the bus.
    pub fn drain_obs(&mut self) -> Vec<Payload> {
        std::mem::take(&mut self.obs)
    }

    /// Sets the RTT-derived retransmission hint the host computed from its
    /// per-agent estimators (the RTO of the slowest participant). The core
    /// stays pure: it never measures latency itself, it only folds the hint
    /// into the next timer it arms. Ignored unless `timing.retry.mode` is
    /// `RetryMode::Adaptive`.
    pub fn set_timeout_hint(&mut self, hint: Option<SimDuration>) {
        self.timeout_hint = hint;
    }

    /// Records a phase change (and the transition event for it).
    fn set_phase(&mut self, to: ManagerPhase) {
        if to == self.phase {
            return;
        }
        let step = (self.step_id.0 != 0).then_some(self.step_id.0);
        self.obs.push(Payload::Proto(ProtoEvent::ManagerPhase {
            from: phase_tag(self.phase),
            to: phase_tag(to),
            step,
        }));
        self.phase = to;
    }

    /// Current protocol phase.
    pub fn phase(&self) -> ManagerPhase {
        self.phase
    }

    /// The configuration the manager believes the system is in (updated as
    /// steps commit).
    pub fn current_config(&self) -> &Config {
        &self.current
    }

    /// Feeds one event, returning the effects to perform **in order**.
    pub fn on_event(&mut self, ev: ManagerEvent) -> Vec<ManagerEffect> {
        match ev {
            ManagerEvent::Request { source, target } => self.on_request(source, target),
            ManagerEvent::AgentMsg { agent, msg } => self.on_agent_msg(agent, msg),
            ManagerEvent::Timeout { token } => self.on_timeout(token),
        }
    }

    fn on_request(&mut self, source: Config, target: Config) -> Vec<ManagerEffect> {
        if self.phase != ManagerPhase::Running {
            // One adaptation at a time (the centralized manager is the
            // serialization point); later requests wait their turn.
            let mut eff = Vec::new();
            self.journal(
                &mut eff,
                JournalRecord::Queued { source: source.clone(), target: target.clone() },
            );
            self.queued_requests.push_back((source, target));
            eff.push(ManagerEffect::Info(format!(
                "adaptation in progress; request queued ({} waiting)",
                self.queued_requests.len()
            )));
            return eff;
        }
        self.begin(source, target);
        let mut eff = Vec::new();
        self.journal(
            &mut eff,
            JournalRecord::Request { source: self.source.clone(), target: self.target.clone() },
        );
        eff.extend(self.select_and_start());
        eff
    }

    /// Takes up the request `source → target`, live and in replay alike.
    fn begin(&mut self, source: Config, target: Config) {
        (self.source, self.target, self.current) = (source.clone(), target, source);
        (self.goal_is_source, self.steps_committed, self.step_retry_used) = (false, 0, false);
        self.tried_paths.clear();
        self.warnings.clear();
    }

    fn goal(&self) -> &Config {
        if self.goal_is_source {
            &self.source
        } else {
            &self.target
        }
    }

    /// Whether this request already started `path` from the current
    /// configuration (the failure ladder never retries such a path).
    fn tried(&self, path: &Path) -> bool {
        let ids = path.action_ids();
        self.tried_paths.iter().any(|(from, tried)| *tried == ids && *from == self.current)
    }

    /// The ranks the ladder can use from `current`: with `t` paths tried
    /// there, the first untried one has rank at most `t + 1` (16 at most).
    fn ranked(&mut self) -> Vec<Path> {
        let tried = self.tried_paths.iter().filter(|(from, _)| *from == self.current).count();
        let (from, goal) = (self.current.clone(), self.goal().clone());
        self.planner.paths(&from, &goal, (tried + 1).min(16))
    }

    /// Picks the cheapest untried path from `current` to the goal and starts
    /// its first step; walks down the recovery ladder when nothing is left.
    fn select_and_start(&mut self) -> Vec<ManagerEffect> {
        if &self.current == self.goal() {
            return self.complete();
        }
        let candidates = self.ranked();
        let chosen = candidates.into_iter().enumerate().find(|(_, p)| !self.tried(p));
        match chosen {
            Some((rank, path)) => {
                self.obs.push(Payload::Plan(PlanEvent::PathSelected {
                    rank: rank as u32 + 1,
                    steps: path.len() as u32,
                    cost: path.cost,
                }));
                self.tried_paths.push((self.current.clone(), path.action_ids()));
                let steps = self.planner.compile(&path);
                debug_assert!(!steps.is_empty());
                let mut eff = Vec::new();
                self.journal(&mut eff, JournalRecord::PathSelected { actions: path.action_ids() });
                eff.push(ManagerEffect::Info(format!(
                    "executing path {path} toward {}",
                    if self.goal_is_source { "source (abort)" } else { "target" }
                )));
                self.steps = steps;
                self.step_ix = 0;
                eff.extend(self.start_step());
                eff
            }
            None if !self.goal_is_source => {
                // All paths to the target exhausted: try to return to the
                // source configuration.
                self.obs
                    .push(Payload::Plan(PlanEvent::PathsExhausted { returning_to_source: true }));
                self.goal_is_source = true;
                let mut eff = Vec::new();
                self.journal(&mut eff, JournalRecord::GoalReversed);
                eff.push(ManagerEffect::Info(
                    "all paths to target failed; attempting to return to source configuration"
                        .into(),
                ));
                eff.extend(self.select_and_start());
                eff
            }
            None => {
                // Even the way back failed: wait for user intervention.
                self.obs
                    .push(Payload::Plan(PlanEvent::PathsExhausted { returning_to_source: false }));
                self.set_phase(ManagerPhase::GaveUp);
                self.obs.push(Payload::Proto(ProtoEvent::OutcomeReached {
                    success: false,
                    gave_up: true,
                    steps_committed: u64::from(self.steps_committed),
                }));
                let mut eff = Vec::new();
                self.journal(&mut eff, JournalRecord::Outcome { success: false, gave_up: true });
                eff.push(ManagerEffect::Info(
                    "all recovery options exhausted; awaiting user intervention".into(),
                ));
                eff.push(ManagerEffect::Complete(Outcome {
                    success: false,
                    gave_up: true,
                    final_config: self.current.clone(),
                    steps_committed: self.steps_committed,
                    warnings: self.warnings.clone(),
                }));
                eff
            }
        }
    }

    fn complete(&mut self) -> Vec<ManagerEffect> {
        self.set_phase(ManagerPhase::Running);
        let success = !self.goal_is_source && self.current == self.target;
        self.obs.push(Payload::Proto(ProtoEvent::OutcomeReached {
            success,
            gave_up: false,
            steps_committed: u64::from(self.steps_committed),
        }));
        let mut eff = Vec::new();
        self.journal(&mut eff, JournalRecord::Outcome { success, gave_up: false });
        eff.push(ManagerEffect::Complete(Outcome {
            success,
            gave_up: false,
            final_config: self.current.clone(),
            steps_committed: self.steps_committed,
            warnings: self.warnings.clone(),
        }));
        // Serve the next queued request, re-anchored at wherever the system
        // actually ended up (its stated source may be stale).
        if let Some((source, target)) = self.queued_requests.pop_front() {
            let effective_source =
                if source == self.current { source } else { self.current.clone() };
            eff.push(ManagerEffect::Info("starting queued adaptation request".into()));
            eff.extend(self.on_request(effective_source, target));
        }
        eff
    }

    /// Appends a record to the write-ahead journal: the observability marker
    /// first (so traces carry the journal sequence), then the effect the
    /// host must persist before acting on anything that follows it.
    fn journal(&mut self, eff: &mut Vec<ManagerEffect>, rec: JournalRecord) {
        self.obs.push(Payload::Proto(ProtoEvent::JournalAppended { seq: self.journal_seq }));
        self.journal_seq += 1;
        eff.push(ManagerEffect::Journal(rec));
    }

    fn fresh_timer(&mut self, eff: &mut Vec<ManagerEffect>) {
        if self.timer_token != 0 {
            eff.push(ManagerEffect::CancelTimer { token: self.timer_token });
        }
        let prev = self.timer_token;
        self.timer_seq += 1;
        self.timer_token = self.timer_seq << 16 | u64::from(self.retries);
        // Stale-timeout rejection relies on this: a disarmed token must never
        // be reissued, or a late timeout could abort the wrong phase.
        debug_assert!(self.timer_token > prev, "timer tokens must be strictly monotonic");
        // Exponential backoff, capped: each retransmission of the same phase
        // doubles the wait, so a delay burst no longer walks the whole retry
        // budget at once and triggers a spurious rollback. The first timer of
        // a phase (retries == 0) is exactly the policy base, keeping the
        // happy path and its tests bit-identical; retried timers add a
        // deterministic seeded jitter of up to a quarter interval so a fleet
        // of retransmissions does not stay synchronized. In adaptive mode
        // the base comes from the host's RTT hint for the slowest
        // participant instead of the fixed ladder.
        let after = self.timing.retry.deadline(self.retries, self.timer_token, self.timeout_hint);
        eff.push(ManagerEffect::SetTimer { token: self.timer_token, after });
    }

    fn start_step(&mut self) -> Vec<ManagerEffect> {
        let step = self.steps[self.step_ix].clone();
        debug_assert_eq!(step.from, self.current, "plan out of sync with committed config");
        self.step_id = StepId(self.next_attempt);
        self.next_attempt += 1;
        self.solo = step.locals.len() == 1;
        self.resume_sent = false;
        self.retries = 0;
        self.pending_adapt = step.locals.iter().map(|(a, _)| *a).collect();
        self.pending_resume = self.pending_adapt.clone();
        self.pending_rollback.clear();
        self.obs.push(Payload::Proto(ProtoEvent::StepStarted {
            step: self.step_id.0,
            solo: self.solo,
            participants: step.locals.len() as u32,
        }));
        self.set_phase(ManagerPhase::Adapting);
        let mut eff = Vec::new();
        self.journal(
            &mut eff,
            JournalRecord::StepStarted { step: self.step_id, ix: self.step_ix as u32 },
        );
        for (agent, local) in &step.locals {
            eff.push(ManagerEffect::Send {
                agent: *agent,
                msg: ProtoMsg::Reset { step: self.step_id, action: local.clone(), solo: self.solo },
            });
        }
        self.fresh_timer(&mut eff);
        eff
    }

    fn on_agent_msg(&mut self, agent: usize, msg: ProtoMsg) -> Vec<ManagerEffect> {
        if msg.step().is_some_and(|s| s != self.step_id) {
            return Vec::new(); // stale attempt (rejoins carry no step)
        }
        match (self.phase, msg) {
            (_, ProtoMsg::Rejoin { last_completed }) => self.on_rejoin(agent, last_completed),
            (_, ProtoMsg::StateReport { engaged, adapted, failed, last_completed }) => {
                self.on_state_report(agent, engaged, adapted, failed, last_completed)
            }
            (ManagerPhase::Adapting, ProtoMsg::ResetDone { .. }) => Vec::new(),
            (ManagerPhase::Adapting, ProtoMsg::AdaptDone { .. }) => {
                // Idempotence: only a first-time ack from a still-pending
                // participant advances the barrier; replayed duplicates of
                // the last ack must not re-run the phase transition.
                if !self.pending_adapt.remove(&agent) {
                    return Vec::new();
                }
                if !self.pending_adapt.is_empty() {
                    return Vec::new();
                }
                // All in-actions done: the adapted state. Solo agents resume
                // autonomously; otherwise broadcast resume. Either way the
                // point of no return is passed.
                self.set_phase(ManagerPhase::Resuming);
                self.resume_sent = true;
                self.retries = 0;
                let mut eff = Vec::new();
                self.journal(&mut eff, JournalRecord::ResumeIssued { step: self.step_id });
                if !self.solo {
                    let step = &self.steps[self.step_ix];
                    for (a, _) in &step.locals {
                        eff.push(ManagerEffect::Send {
                            agent: *a,
                            msg: ProtoMsg::Resume { step: self.step_id },
                        });
                    }
                }
                self.fresh_timer(&mut eff);
                eff
            }
            (ManagerPhase::Resuming, ProtoMsg::AdaptDone { .. }) => {
                // Usually a duplicate ack. But an agent that crashed after
                // the resume barrier and was resynchronized (see
                // `on_rejoin`) re-runs the step and genuinely needs its
                // `Resume` again; it is recognizable because its
                // `ResumeDone` is still outstanding. Solo agents resume on
                // their own.
                if !self.solo && self.pending_resume.contains(&agent) {
                    vec![ManagerEffect::Send {
                        agent,
                        msg: ProtoMsg::Resume { step: self.step_id },
                    }]
                } else {
                    Vec::new()
                }
            }
            (ManagerPhase::Resuming, ProtoMsg::ResumeDone { .. }) => {
                if !self.pending_resume.remove(&agent) {
                    return Vec::new(); // duplicate delivery of the final ack
                }
                if !self.pending_resume.is_empty() {
                    return Vec::new();
                }
                let mut eff = vec![ManagerEffect::CancelTimer { token: self.timer_token }];
                eff.extend(self.commit_step());
                eff
            }
            (ManagerPhase::Adapting, ProtoMsg::FailToReset { .. }) => {
                let mut eff = vec![ManagerEffect::Info(format!(
                    "agent {agent} failed to reset; aborting step {}",
                    self.step_id
                ))];
                eff.extend(self.begin_rollback());
                eff
            }
            (ManagerPhase::RollingBack, ProtoMsg::ResumeDone { .. }) if self.solo => {
                // The solo participant self-resumed past the point of no
                // return before our rollback order reached it (its acks were
                // lost on the way here). The step is durably committed out
                // there and cannot be undone: abandon the rollback and adopt
                // the commit. Only solo steps can race this way — multi-agent
                // participants resume strictly on our Resume, which is never
                // followed by a rollback.
                let mut eff = vec![
                    ManagerEffect::Info(format!(
                        "agent {agent} had already committed step {}; abandoning its rollback",
                        self.step_id
                    )),
                    ManagerEffect::CancelTimer { token: self.timer_token },
                ];
                eff.extend(self.commit_step());
                eff
            }
            (ManagerPhase::RollingBack, ProtoMsg::RollbackDone { .. }) => {
                if !self.pending_rollback.remove(&agent) {
                    return Vec::new(); // duplicate delivery of the final ack
                }
                if !self.pending_rollback.is_empty() {
                    return Vec::new();
                }
                let mut eff = vec![ManagerEffect::CancelTimer { token: self.timer_token }];
                eff.extend(self.rollback_complete());
                eff
            }
            // Late FailToReset while rolling back, stray acks, etc.
            _ => Vec::new(),
        }
    }

    /// The crash-recovery rung of the failure ladder: a restarted agent
    /// announced itself mid-adaptation.
    ///
    /// The crash destroyed the agent's volatile protocol state (an
    /// uncommitted in-action, blocking, timers), so for safety purposes the
    /// agent stands at its last *committed* step. Resynchronization
    /// re-issues the current phase's command to that one agent:
    ///
    /// * `Adapting` — re-send `Reset`: the agent redoes the step from the
    ///   beginning (pre-crash partial progress evaporated with the crash).
    /// * `Resuming` — if its `ResumeDone` is outstanding, either the rejoin
    ///   itself proves completion (`last_completed` matches the current
    ///   attempt: the crash happened after the commit point and only the
    ///   ack was lost) or the agent must redo the step; the
    ///   `(Resuming, AdaptDone)` arm then re-issues its targeted `Resume`.
    /// * `RollingBack` — re-send `Rollback`; the restarted agent has
    ///   nothing structural to undo (the uncommitted change died with the
    ///   crash) and acknowledges immediately.
    ///
    /// If the agent instead stays down past the phase timeout, no rejoin
    /// arrives and the existing loss-of-message ladder (retransmit → abort
    /// → rollback → re-plan → give up) handles the crash as the paper's
    /// Section 4.4 failure classes — the safety argument is unchanged, only
    /// liveness improves when the process comes back in time.
    fn on_rejoin(&mut self, agent: usize, last_completed: Option<StepId>) -> Vec<ManagerEffect> {
        self.obs.push(Payload::Proto(ProtoEvent::RejoinReceived {
            agent: agent as u32,
            last_completed: last_completed.map(|s| s.0),
        }));
        if matches!(self.phase, ManagerPhase::Running | ManagerPhase::GaveUp) {
            return vec![ManagerEffect::Info(format!("agent {agent} rejoined while idle"))];
        }
        let step = &self.steps[self.step_ix];
        let Some(local) = step.locals.iter().find(|(a, _)| *a == agent).map(|(_, l)| l.clone())
        else {
            return vec![ManagerEffect::Info(format!(
                "agent {agent} rejoined (not a participant of {})",
                self.step_id
            ))];
        };
        match self.phase {
            ManagerPhase::Adapting => {
                // Whatever the agent had acknowledged pre-crash is void: put
                // it back on both barriers and start it over on this attempt
                // with a fresh retry budget.
                self.pending_adapt.insert(agent);
                self.pending_resume.insert(agent);
                self.retries = 0;
                let mut eff = vec![ManagerEffect::Info(format!(
                    "agent {agent} rejoined; resynchronizing into {}",
                    self.step_id
                ))];
                eff.push(ManagerEffect::Send {
                    agent,
                    msg: ProtoMsg::Reset { step: self.step_id, action: local, solo: self.solo },
                });
                self.fresh_timer(&mut eff);
                eff
            }
            ManagerPhase::Resuming => {
                if !self.pending_resume.contains(&agent) {
                    return vec![ManagerEffect::Info(format!(
                        "agent {agent} rejoined after acknowledging {}; nothing to resync",
                        self.step_id
                    ))];
                }
                if last_completed == Some(self.step_id) {
                    // Crashed between committing and the ack being heard:
                    // the rejoin itself is proof of completion.
                    self.pending_adapt.remove(&agent);
                    self.pending_resume.remove(&agent);
                    let mut eff = vec![ManagerEffect::Info(format!(
                        "agent {agent} rejoined having completed {}",
                        self.step_id
                    ))];
                    if self.pending_resume.is_empty() {
                        eff.push(ManagerEffect::CancelTimer { token: self.timer_token });
                        eff.extend(self.commit_step());
                    }
                    return eff;
                }
                // The uncommitted in-action died with the crash even though
                // the resume barrier has passed: the step *must* still run
                // to completion, so drive the agent through it again.
                self.retries = 0;
                let mut eff = vec![ManagerEffect::Info(format!(
                    "agent {agent} rejoined mid-resume; re-running {} to completion",
                    self.step_id
                ))];
                eff.push(ManagerEffect::Send {
                    agent,
                    msg: ProtoMsg::Reset { step: self.step_id, action: local, solo: self.solo },
                });
                self.fresh_timer(&mut eff);
                eff
            }
            ManagerPhase::RollingBack => {
                if !self.pending_rollback.contains(&agent) {
                    return vec![ManagerEffect::Info(format!(
                        "agent {agent} rejoined after rolling back {}",
                        self.step_id
                    ))];
                }
                self.retries = 0;
                let mut eff = vec![ManagerEffect::Info(format!(
                    "agent {agent} rejoined; re-sending rollback for {}",
                    self.step_id
                ))];
                eff.push(ManagerEffect::Send {
                    agent,
                    msg: ProtoMsg::Rollback { step: self.step_id },
                });
                self.fresh_timer(&mut eff);
                eff
            }
            ManagerPhase::Running | ManagerPhase::GaveUp => unreachable!("handled above"),
        }
    }

    /// Reconciliation: an agent answered the restored manager's
    /// [`ProtoMsg::QueryState`] probe with its actual protocol position.
    ///
    /// The journal restored the manager's *decision* state exactly, but
    /// whether an agent acted on a dispatched command may have been known
    /// only to the crashed incarnation. The report closes that gap, and the
    /// paper's rule decides the direction: before the first resume an
    /// unconfirmed step may be redone from scratch (abort semantics), after
    /// it the step must run to completion. Each resolution is mapped onto
    /// the ordinary barrier arms (synthesized acks or re-sent commands), so
    /// reconciliation reuses the exact guards the live protocol uses — and
    /// if a probe or report is lost, the phase timer is already armed and
    /// the ordinary retransmission ladder takes over.
    fn on_state_report(
        &mut self,
        agent: usize,
        engaged: Option<StepId>,
        adapted: bool,
        failed: bool,
        last_completed: Option<StepId>,
    ) -> Vec<ManagerEffect> {
        self.obs.push(Payload::Proto(ProtoEvent::StateReported {
            agent: agent as u32,
            engaged: engaged.map(|s| s.0),
            adapted,
            failed,
            last_completed: last_completed.map(|s| s.0),
        }));
        if matches!(self.phase, ManagerPhase::Running | ManagerPhase::GaveUp) {
            return vec![ManagerEffect::Info(format!("agent {agent} reported state while idle"))];
        }
        let step = &self.steps[self.step_ix];
        let Some(local) = step.locals.iter().find(|(a, _)| *a == agent).map(|(_, l)| l.clone())
        else {
            return vec![ManagerEffect::Info(format!(
                "agent {agent} reported state (not a participant of {})",
                self.step_id
            ))];
        };
        let completed = last_completed == Some(self.step_id);
        let on_step = engaged == Some(self.step_id);
        match self.phase {
            ManagerPhase::Adapting => {
                if completed {
                    // The agent already ran the whole step (the previous
                    // incarnation got further than its journal shows).
                    // Synthesize the acks the crash swallowed; the barrier
                    // arms dedupe via the pending sets.
                    let mut eff =
                        self.on_agent_msg(agent, ProtoMsg::AdaptDone { step: self.step_id });
                    if self.phase == ManagerPhase::Resuming {
                        eff.extend(
                            self.on_agent_msg(agent, ProtoMsg::ResumeDone { step: self.step_id }),
                        );
                    }
                    eff
                } else if on_step && failed {
                    self.on_agent_msg(agent, ProtoMsg::FailToReset { step: self.step_id })
                } else if on_step && adapted {
                    self.on_agent_msg(agent, ProtoMsg::AdaptDone { step: self.step_id })
                } else if on_step {
                    Vec::new() // engaged and working; the ack will come
                } else {
                    // Not engaged in this step at all: the Reset never
                    // arrived (or the agent crashed too). Re-issue it.
                    self.retries = 0;
                    let mut eff = vec![ManagerEffect::Send {
                        agent,
                        msg: ProtoMsg::Reset { step: self.step_id, action: local, solo: self.solo },
                    }];
                    self.fresh_timer(&mut eff);
                    eff
                }
            }
            ManagerPhase::Resuming => {
                if completed {
                    self.on_agent_msg(agent, ProtoMsg::ResumeDone { step: self.step_id })
                } else if on_step && adapted {
                    // Past the point of no return and still blocked on the
                    // resume signal the crash may have swallowed.
                    if self.solo {
                        Vec::new() // solo agents resume autonomously
                    } else {
                        vec![ManagerEffect::Send {
                            agent,
                            msg: ProtoMsg::Resume { step: self.step_id },
                        }]
                    }
                } else if on_step {
                    Vec::new() // mid-step; run-to-completion continues
                } else {
                    // The step must run to completion: drive the agent
                    // through it again from the start.
                    self.retries = 0;
                    let mut eff = vec![ManagerEffect::Send {
                        agent,
                        msg: ProtoMsg::Reset { step: self.step_id, action: local, solo: self.solo },
                    }];
                    self.fresh_timer(&mut eff);
                    eff
                }
            }
            ManagerPhase::RollingBack => {
                if on_step {
                    // Still holding (possibly partial) step state: tell it to
                    // undo — the Rollback may have been lost in the crash.
                    vec![ManagerEffect::Send {
                        agent,
                        msg: ProtoMsg::Rollback { step: self.step_id },
                    }]
                } else if completed {
                    // It finished the whole step before the abort decision
                    // reached it (solo self-resume): past the point of no
                    // return the commit stands, so fold the evidence into
                    // the barrier logic, which abandons the rollback.
                    self.on_agent_msg(agent, ProtoMsg::ResumeDone { step: self.step_id })
                } else {
                    // Nothing of this attempt survives on the agent: its
                    // rollback is trivially done.
                    self.on_agent_msg(agent, ProtoMsg::RollbackDone { step: self.step_id })
                }
            }
            ManagerPhase::Running | ManagerPhase::GaveUp => unreachable!("handled above"),
        }
    }

    fn commit_step(&mut self) -> Vec<ManagerEffect> {
        self.obs.push(Payload::Proto(ProtoEvent::StepCommitted { step: self.step_id.0 }));
        let mut eff = Vec::new();
        self.journal(&mut eff, JournalRecord::StepCommitted { step: self.step_id });
        let step = &self.steps[self.step_ix];
        self.current = step.to.clone();
        self.steps_committed += 1;
        self.step_retry_used = false;
        self.step_ix += 1;
        eff.extend(self.advance_after_commit());
        eff
    }

    /// What happens after a commit has been applied (shared between the live
    /// path and journal replay, which lands here after a trailing
    /// `StepCommitted` record).
    fn advance_after_commit(&mut self) -> Vec<ManagerEffect> {
        if self.step_ix < self.steps.len() {
            // "more adaptation steps remaining: prepare for the next step".
            self.start_step()
        } else if &self.current == self.goal() {
            self.complete()
        } else {
            // Path exhausted without reaching the goal — cannot happen with
            // well-formed plans, but re-plan defensively.
            self.select_and_start()
        }
    }

    fn begin_rollback(&mut self) -> Vec<ManagerEffect> {
        self.obs.push(Payload::Proto(ProtoEvent::RollbackIssued { step: self.step_id.0 }));
        self.set_phase(ManagerPhase::RollingBack);
        self.retries = 0;
        let mut eff = Vec::new();
        self.journal(&mut eff, JournalRecord::RollbackIssued { step: self.step_id });
        let step = &self.steps[self.step_ix];
        self.pending_rollback = step.locals.iter().map(|(a, _)| *a).collect();
        for (agent, _) in &step.locals {
            eff.push(ManagerEffect::Send {
                agent: *agent,
                msg: ProtoMsg::Rollback { step: self.step_id },
            });
        }
        self.fresh_timer(&mut eff);
        eff
    }

    fn rollback_complete(&mut self) -> Vec<ManagerEffect> {
        // The system is back at the step's source configuration (= current).
        let retry = !self.step_retry_used;
        let mut eff = Vec::new();
        self.journal(&mut eff, JournalRecord::RollbackComplete { step: self.step_id, retry });
        if retry {
            // Ladder rung 1: retry the same step once more.
            self.step_retry_used = true;
            eff.push(ManagerEffect::Info(format!("retrying step {} once", self.step_ix)));
            eff.extend(self.start_step());
        } else {
            // Ladder rungs 2-4: next-cheapest path, return to source, give up.
            self.step_retry_used = false;
            eff.extend(self.select_and_start());
        }
        eff
    }

    fn on_timeout(&mut self, token: u64) -> Vec<ManagerEffect> {
        if token != self.timer_token {
            return Vec::new(); // stale timer
        }
        self.obs.push(Payload::Proto(ProtoEvent::TimeoutFired {
            phase: phase_tag(self.phase),
            step: (self.step_id.0 != 0).then_some(self.step_id.0),
            retries: self.retries,
        }));
        match self.phase {
            ManagerPhase::Adapting => {
                if self.retries < self.timing.send_retries {
                    self.retries += 1;
                    self.obs.push(Payload::Proto(ProtoEvent::RetrySent {
                        step: self.step_id.0,
                        resends: self.retries,
                    }));
                    let step = self.steps[self.step_ix].clone();
                    let mut eff = vec![ManagerEffect::Info(format!(
                        "timeout in adapting; retransmitting reset (attempt {})",
                        self.retries
                    ))];
                    for (agent, local) in &step.locals {
                        if self.pending_adapt.contains(agent) {
                            eff.push(ManagerEffect::Send {
                                agent: *agent,
                                msg: ProtoMsg::Reset {
                                    step: self.step_id,
                                    action: local.clone(),
                                    solo: self.solo,
                                },
                            });
                        }
                    }
                    self.fresh_timer(&mut eff);
                    eff
                } else {
                    // Loss-of-message before any resume: abort the step.
                    let mut eff = vec![ManagerEffect::Info(
                        "reset/adapt phase timed out; aborting step (rollback)".into(),
                    )];
                    eff.extend(self.begin_rollback());
                    eff
                }
            }
            ManagerPhase::Resuming => {
                if self.retries < self.timing.resume_force_limit {
                    self.retries += 1;
                    self.obs.push(Payload::Proto(ProtoEvent::RetrySent {
                        step: self.step_id.0,
                        resends: self.retries,
                    }));
                    let step = self.steps[self.step_ix].clone();
                    let mut eff = Vec::new();
                    for (agent, local) in &step.locals {
                        if self.pending_resume.contains(agent) {
                            // Solo steps never send Resume; retransmit Reset
                            // instead, which elicits idempotent re-acks.
                            let msg = if self.solo {
                                ProtoMsg::Reset {
                                    step: self.step_id,
                                    action: local.clone(),
                                    solo: true,
                                }
                            } else {
                                ProtoMsg::Resume { step: self.step_id }
                            };
                            eff.push(ManagerEffect::Send { agent: *agent, msg });
                        }
                    }
                    self.fresh_timer(&mut eff);
                    eff
                } else {
                    // After resume the adaptation must run to completion: the
                    // unreachable agents will finish on their own. Commit.
                    self.warnings.push(format!(
                        "step {} force-completed: {} agent(s) never acknowledged resume",
                        self.step_ix,
                        self.pending_resume.len()
                    ));
                    let mut eff = vec![ManagerEffect::Info(
                        "resume acks lost; running to completion and committing step".into(),
                    )];
                    eff.extend(self.commit_step());
                    eff
                }
            }
            ManagerPhase::RollingBack => {
                if self.retries < self.timing.rollback_force_limit {
                    self.retries += 1;
                    self.obs.push(Payload::Proto(ProtoEvent::RetrySent {
                        step: self.step_id.0,
                        resends: self.retries,
                    }));
                    let step = self.steps[self.step_ix].clone();
                    let mut eff = Vec::new();
                    for (agent, _) in &step.locals {
                        if self.pending_rollback.contains(agent) {
                            eff.push(ManagerEffect::Send {
                                agent: *agent,
                                msg: ProtoMsg::Rollback { step: self.step_id },
                            });
                        }
                    }
                    self.fresh_timer(&mut eff);
                    eff
                } else {
                    self.warnings.push(format!(
                        "rollback of step {} assumed complete after retries exhausted",
                        self.step_ix
                    ));
                    self.rollback_complete()
                }
            }
            ManagerPhase::Running | ManagerPhase::GaveUp => Vec::new(),
        }
    }

    /// Consumes the core, returning its planner (used by hosts to carry the
    /// planner across a manager restart into [`ManagerCore::restore`]).
    pub(crate) fn into_planner(self) -> Box<dyn AdaptationPlanner> {
        self.planner
    }

    /// Rebuilds a manager from its write-ahead journal after a crash.
    ///
    /// Replay walks the records, mutating state exactly as the live code
    /// paths did when each record was written (journal records precede the
    /// sends they cover, so a persisted prefix never claims more than the
    /// crashed incarnation actually decided). No messages are re-sent and no
    /// observability events are re-emitted during replay — the journal is a
    /// record of decisions, not of traffic.
    ///
    /// After replay the manager lands in one of two situations:
    ///
    /// * **Between decisions** (the journal's last record fully determines
    ///   the next move — e.g. it ends at `StepCommitted` or `GoalReversed`):
    ///   the decision is simply re-taken live, re-journaling and re-sending
    ///   whatever the crash swallowed. Replay relies on the planner being
    ///   deterministic, which the DES guarantees.
    /// * **Inside a wait** (`StepStarted` / `ResumeIssued` /
    ///   `RollbackIssued` last): which acks the dead incarnation had already
    ///   collected is unknowable, so the barrier is reset conservatively to
    ///   the full participant set and a **reconciliation round** begins:
    ///   [`ProtoMsg::QueryState`] probes every participant, and each
    ///   `StateReport` answer folds back into the ordinary barrier arms.
    ///   The phase timer is armed before any report arrives,
    ///   so lost probes degrade into the existing retransmission ladder
    ///   rather than a hang.
    ///
    /// Returns the restored core plus the effects (probes, re-sends, timer)
    /// to perform. Errors only on a journal that is not replayable against
    /// this planner (corrupt input or a non-deterministic planner).
    pub fn restore(
        timing: ProtoTiming,
        planner: Box<dyn AdaptationPlanner>,
        journal: &[JournalRecord],
    ) -> Result<(Self, Vec<ManagerEffect>), String> {
        /// Where replay left off — the continuation to run live.
        enum Cursor {
            /// Idle (or gave up); maybe a queued request to serve.
            Idle,
            /// A goal is set; a path must be (re-)selected.
            Decide,
            /// A path is selected and compiled; its next step must start.
            StartStep,
            /// Waiting on the adapt barrier of the current step.
            WaitAdapt,
            /// Waiting on the resume barrier.
            WaitResume,
            /// Waiting on the rollback barrier.
            WaitRollback,
            /// A step just committed; advance (next step / complete / replan).
            AfterCommit,
            /// A rollback just finished; retry the step or replan.
            AfterRollback { retry: bool },
        }

        let mut core = ManagerCore::new(timing, planner);
        let mut cursor = Cursor::Idle;
        for (i, rec) in journal.iter().enumerate() {
            let fail = |why: &str| format!("journal record {i} not replayable: {why} ({rec})");
            match rec {
                JournalRecord::Request { source, target } => {
                    core.begin(source.clone(), target.clone());
                    core.phase = ManagerPhase::Running;
                    // A Request that served the queue popped its entry live.
                    if core.queued_requests.front().is_some_and(|(_, t)| t == target) {
                        core.queued_requests.pop_front();
                    }
                    cursor = Cursor::Decide;
                }
                JournalRecord::Queued { source, target } => {
                    core.queued_requests.push_back((source.clone(), target.clone()));
                }
                JournalRecord::PathSelected { actions } => {
                    let path = core
                        .ranked()
                        .into_iter()
                        .find(|p| &p.action_ids() == actions)
                        .ok_or_else(|| fail("planner no longer offers this path"))?;
                    core.tried_paths.push((core.current.clone(), path.action_ids()));
                    core.steps = core.planner.compile(&path);
                    core.step_ix = 0;
                    cursor = Cursor::StartStep;
                }
                JournalRecord::GoalReversed => {
                    core.goal_is_source = true;
                    cursor = Cursor::Decide;
                }
                JournalRecord::StepStarted { step, ix } => {
                    let ix = *ix as usize;
                    if ix >= core.steps.len() {
                        return Err(fail("step index out of range for the selected path"));
                    }
                    if core.steps[ix].from != core.current {
                        return Err(fail("step source disagrees with committed configuration"));
                    }
                    core.step_ix = ix;
                    core.step_id = *step;
                    core.next_attempt = step.0 + 1;
                    core.solo = core.steps[ix].locals.len() == 1;
                    core.resume_sent = false;
                    core.retries = 0;
                    core.pending_adapt = core.steps[ix].locals.iter().map(|(a, _)| *a).collect();
                    core.pending_resume = core.pending_adapt.clone();
                    core.pending_rollback.clear();
                    core.phase = ManagerPhase::Adapting;
                    cursor = Cursor::WaitAdapt;
                }
                JournalRecord::ResumeIssued { step } => {
                    if *step != core.step_id {
                        return Err(fail("resume for a step that is not current"));
                    }
                    core.phase = ManagerPhase::Resuming;
                    core.resume_sent = true;
                    core.pending_adapt.clear();
                    core.retries = 0;
                    cursor = Cursor::WaitResume;
                }
                JournalRecord::StepCommitted { step } => {
                    if *step != core.step_id {
                        return Err(fail("commit for a step that is not current"));
                    }
                    core.current = core.steps[core.step_ix].to.clone();
                    core.steps_committed += 1;
                    core.step_retry_used = false;
                    core.step_ix += 1;
                    cursor = Cursor::AfterCommit;
                }
                JournalRecord::RollbackIssued { step } => {
                    if *step != core.step_id {
                        return Err(fail("rollback for a step that is not current"));
                    }
                    core.phase = ManagerPhase::RollingBack;
                    core.pending_rollback =
                        core.steps[core.step_ix].locals.iter().map(|(a, _)| *a).collect();
                    core.retries = 0;
                    cursor = Cursor::WaitRollback;
                }
                JournalRecord::RollbackComplete { step, retry } => {
                    if *step != core.step_id {
                        return Err(fail("rollback completion for a step that is not current"));
                    }
                    core.step_retry_used = *retry;
                    core.pending_rollback.clear();
                    cursor = Cursor::AfterRollback { retry: *retry };
                }
                JournalRecord::Outcome { gave_up, .. } => {
                    core.phase =
                        if *gave_up { ManagerPhase::GaveUp } else { ManagerPhase::Running };
                    cursor = Cursor::Idle;
                }
            }
        }
        core.journal_seq = journal.len() as u64;
        core.obs.push(Payload::Proto(ProtoEvent::ManagerRestored {
            records: journal.len() as u64,
            phase: phase_tag(core.phase),
            step: (core.step_id.0 != 0).then_some(core.step_id.0),
        }));

        let mut eff = Vec::new();
        match cursor {
            Cursor::Idle => {
                // Re-taking a give-up decision would double-complete; a
                // successfully idle manager only owes service to the queue.
                if core.phase == ManagerPhase::Running {
                    if let Some((source, target)) = core.queued_requests.pop_front() {
                        let effective_source =
                            if source == core.current { source } else { core.current.clone() };
                        eff.push(ManagerEffect::Info("starting queued adaptation request".into()));
                        eff.extend(core.on_request(effective_source, target));
                    }
                }
            }
            Cursor::Decide => eff.extend(core.select_and_start()),
            Cursor::StartStep => eff.extend(core.start_step()),
            Cursor::AfterCommit => eff.extend(core.advance_after_commit()),
            Cursor::AfterRollback { retry } => {
                if retry {
                    eff.push(ManagerEffect::Info(format!("retrying step {} once", core.step_ix)));
                    eff.extend(core.start_step());
                } else {
                    eff.extend(core.select_and_start());
                }
            }
            Cursor::WaitAdapt | Cursor::WaitResume | Cursor::WaitRollback => {
                // Mid-wait: which acks the dead incarnation saw is unknown.
                // Reset the barrier conservatively and probe everyone.
                let participants: BTreeSet<usize> =
                    core.steps[core.step_ix].locals.iter().map(|(a, _)| *a).collect();
                match cursor {
                    Cursor::WaitAdapt => {
                        core.pending_adapt = participants.clone();
                        core.pending_resume = participants.clone();
                    }
                    Cursor::WaitResume => {
                        core.pending_adapt.clear();
                        core.pending_resume = participants.clone();
                    }
                    Cursor::WaitRollback => core.pending_rollback = participants.clone(),
                    _ => unreachable!(),
                }
                eff.push(ManagerEffect::Info(format!(
                    "restored mid-{:?}; reconciling {} with {} participant(s)",
                    core.phase,
                    core.step_id,
                    participants.len()
                )));
                for agent in &participants {
                    core.obs
                        .push(Payload::Proto(ProtoEvent::StateQueried { agent: *agent as u32 }));
                    eff.push(ManagerEffect::Send { agent: *agent, msg: ProtoMsg::QueryState });
                }
                core.fresh_timer(&mut eff);
            }
        }
        Ok((core, eff))
    }
}
