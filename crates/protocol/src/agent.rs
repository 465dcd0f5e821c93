//! The adaptation agent state machine (the paper's Figure 1).
//!
//! `AgentCore` is a *pure* state machine: it consumes [`AgentEvent`]s (wire
//! messages plus notifications from the local process) and emits
//! [`AgentEffect`]s (wire replies plus commands to the local process). The
//! actual blocking, draining and filter swapping is done by the embedding
//! process (a simnet actor in this repository); this split is what lets the
//! test suite cover every arc of the diagram, including the dashed failure
//! arcs, without a network.

use sada_obs::{AgentStateTag, Payload, ProtoEvent};

use crate::messages::{LocalAction, ProtoMsg, StepId};

/// The observability tag for an agent state (exported so embedding actors
/// outside this crate — e.g. the video clients — can emit synthetic
/// transitions for crash recovery).
pub fn state_tag(s: AgentState) -> AgentStateTag {
    match s {
        AgentState::Running => AgentStateTag::Running,
        AgentState::Resetting => AgentStateTag::Resetting,
        AgentState::Safe => AgentStateTag::Safe,
        AgentState::Adapted => AgentStateTag::Adapted,
        AgentState::Resuming => AgentStateTag::Resuming,
        AgentState::RollingBack => AgentStateTag::RollingBack,
        AgentState::FailedReset => AgentStateTag::FailedReset,
    }
}

/// The agent states of Figure 1 (plus the two failure-handling states the
/// figure draws as dashed transitions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentState {
    /// Full operation; no adaptation in progress.
    Running,
    /// Pre-action done; driving the process toward its safe state (partial
    /// operation).
    Resetting,
    /// Blocked in the (local + global) safe state; in-action underway.
    Safe,
    /// In-action finished; blocked awaiting `resume` (skipped for solo
    /// steps).
    Adapted,
    /// Restoring full operation.
    Resuming,
    /// Undoing the step after a `rollback` command.
    RollingBack,
    /// Reported fail-to-reset; awaiting the manager's rollback.
    FailedReset,
}

/// Inputs to the agent: wire messages and local-process notifications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AgentEvent {
    /// A protocol message arrived from the manager.
    Msg(ProtoMsg),
    /// The local process reached its local safe state *and* the global safe
    /// condition required by the current action.
    SafeReached,
    /// The local in-action completed.
    InActionDone,
    /// Full operation has been restored.
    ResumeFinished,
    /// The rollback finished; the process is as it was before the step.
    RollbackFinished,
    /// The process cannot reach a safe state in reasonable time
    /// (fail-to-reset, Section 4.4).
    CannotReset,
}

/// Outputs of the agent: wire replies and commands to the local process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AgentEffect {
    /// Send a protocol message to the manager.
    Send(ProtoMsg),
    /// Perform the pre-action (initialize new components, …) — must not
    /// interfere with functional behaviour.
    PreAction(LocalAction),
    /// Start driving the process to its safe state (set the "resetting"
    /// flag, stop at the next packet boundary, drain if required).
    BeginReset(LocalAction),
    /// Perform the structural in-action (the actual recomposition).
    DoInAction(LocalAction),
    /// Restore full operation (unblock the process).
    DoResume,
    /// Perform the post-action (destroy old components, …).
    PostAction(LocalAction),
    /// Undo the step and unblock. `Some(inverse)` when the in-action had
    /// already executed and must be structurally reverted; `None` when no
    /// structural change happened (only blocking/draining to undo).
    DoRollback(Option<LocalAction>),
}

/// One step attempt as an agent holds it: the attempt id, this process's
/// share of the action, and whether it is the only participant.
#[derive(Debug, Clone)]
struct Attempt {
    step: StepId,
    action: LocalAction,
    solo: bool,
}

/// The agent half of the realization-phase protocol.
///
/// Attempts are boxed: an agent has at most one step in flight, and a
/// large fleet's agents are nearly all idle, so the inline state is a
/// pointer wide whether or not a step is under way.
#[derive(Debug, Clone)]
pub struct AgentCore {
    state: AgentState,
    current: Option<Box<Attempt>>,
    in_action_done: bool,
    /// Most recently fully-completed step, for idempotent re-acks when the
    /// manager retransmits after losing our answer.
    last_completed: Option<StepId>,
    /// A new attempt received mid-rollback (the manager moved on while our
    /// acks were lost): started as soon as the rollback finishes.
    pending_restart: Option<Box<Attempt>>,
    /// Untimed observability payloads accumulated since the last drain; the
    /// embedding stamps them (virtual time, actor) and emits them on its bus.
    obs: Vec<Payload>,
}

impl Default for AgentCore {
    fn default() -> Self {
        Self::new()
    }
}

impl AgentCore {
    /// A fresh agent in the running state.
    pub fn new() -> Self {
        AgentCore {
            state: AgentState::Running,
            current: None,
            in_action_done: false,
            last_completed: None,
            pending_restart: None,
            obs: Vec::new(),
        }
    }

    /// Rebuilds the state machine a process recovers after a crash: back in
    /// the running state with only the durably-recorded `last_completed`
    /// step surviving. Any step that was in progress — its blocking state,
    /// an uncommitted in-action — was volatile and is simply gone; the
    /// restarted agent relies on the manager's rejoin handling (or plain
    /// `Reset` retransmissions) to be resynchronized.
    pub fn restore(last_completed: Option<StepId>) -> Self {
        AgentCore { last_completed, ..AgentCore::new() }
    }

    /// Current protocol state.
    pub fn state(&self) -> AgentState {
        self.state
    }

    /// The step attempt in progress, if any.
    pub fn current_step(&self) -> Option<StepId> {
        self.current.as_ref().map(|c| c.step)
    }

    /// The most recent step this agent fully completed (acknowledged with
    /// `ResumeDone`) — the durable part of its protocol state.
    pub fn last_completed(&self) -> Option<StepId> {
        self.last_completed
    }

    /// The structural change that has been applied but not yet committed:
    /// the current step's in-action after it ran, before `ResumeFinished`
    /// (or a rollback) resolved it. This is exactly what a crash destroys
    /// under the volatile-uncommitted failure model, so embedding processes
    /// use it in their crash hooks to revert ground-truth bookkeeping.
    pub fn uncommitted_action(&self) -> Option<&LocalAction> {
        self.current.as_deref().filter(|_| self.in_action_done).map(|c| &c.action)
    }

    /// The in-action the process was told to perform ([`AgentEffect::DoInAction`])
    /// and has not yet reported done: the current step's action while the
    /// machine is in the safe state. A rollback or a new attempt that
    /// arrives first moves the machine out of `Safe`; the in-action is then
    /// cancelled, and a process that performs its in-actions after a delay
    /// must not perform it.
    pub(crate) fn scheduled_in_action(&self) -> Option<&LocalAction> {
        self.current.as_deref().filter(|_| self.state == AgentState::Safe).map(|c| &c.action)
    }

    /// Takes the observability payloads produced since the last drain, in
    /// emission order. The core is pure and has no clock; whoever embeds it
    /// stamps these and forwards them to the bus.
    pub fn drain_obs(&mut self) -> Vec<Payload> {
        std::mem::take(&mut self.obs)
    }

    /// Feeds one event, returning the effects to perform **in order**.
    pub fn on_event(&mut self, ev: AgentEvent) -> Vec<AgentEffect> {
        let before = self.state;
        let eff = self.dispatch(ev);
        // Every arc of Figure 1 moves the state at most once per event, so a
        // before/after diff captures the full transition history.
        if self.state != before {
            self.obs.push(Payload::Proto(ProtoEvent::AgentState {
                from: state_tag(before),
                to: state_tag(self.state),
                step: self.current_step().map(|s| s.0),
            }));
        }
        eff
    }

    fn dispatch(&mut self, ev: AgentEvent) -> Vec<AgentEffect> {
        use AgentEffect as E;
        use AgentEvent::*;
        use AgentState::*;
        match (self.state, ev) {
            // ---- reconciliation ---------------------------------------------
            // A restored manager incarnation probing where we actually stand.
            // Answered from any state; the report is a snapshot, not a
            // transition, so it never moves the state machine.
            (_, Msg(ProtoMsg::QueryState)) => {
                vec![E::Send(ProtoMsg::StateReport {
                    engaged: self.current_step(),
                    adapted: self.uncommitted_action().is_some(),
                    failed: self.state == FailedReset,
                    last_completed: self.last_completed,
                })]
            }

            // ---- happy path -------------------------------------------------
            (Running, Msg(ProtoMsg::Reset { step, action, solo })) => {
                // Duplicate of a step we already finished: re-acknowledge.
                if self.last_completed == Some(step) {
                    return vec![
                        E::Send(ProtoMsg::AdaptDone { step }),
                        E::Send(ProtoMsg::ResumeDone { step }),
                    ];
                }
                self.state = Resetting;
                self.in_action_done = false;
                let eff = vec![E::PreAction(action.clone()), E::BeginReset(action.clone())];
                self.current = Some(Box::new(Attempt { step, action, solo }));
                eff
            }
            (Resetting, SafeReached) => {
                self.state = Safe;
                let cur = self.current.as_deref().expect("resetting implies a step");
                vec![
                    E::Send(ProtoMsg::ResetDone { step: cur.step }),
                    E::DoInAction(cur.action.clone()),
                ]
            }
            (Safe, InActionDone) => {
                let &Attempt { step, solo, .. } =
                    self.current.as_deref().expect("safe implies a step");
                self.in_action_done = true;
                if solo {
                    // Only participant: adapted -> resuming without blocking.
                    self.state = Resuming;
                    vec![E::Send(ProtoMsg::AdaptDone { step }), E::DoResume]
                } else {
                    self.state = Adapted;
                    vec![E::Send(ProtoMsg::AdaptDone { step })]
                }
            }
            (Adapted, Msg(ProtoMsg::Resume { step })) if self.matches(step) => {
                self.state = Resuming;
                vec![E::DoResume]
            }
            (Resuming, ResumeFinished) => {
                let cur = self.current.take().expect("resuming implies a step");
                self.state = Running;
                self.last_completed = Some(cur.step);
                vec![E::Send(ProtoMsg::ResumeDone { step: cur.step }), E::PostAction(cur.action)]
            }

            // ---- failure handling (dashed arcs) -----------------------------
            (Resetting, CannotReset) => {
                let step = self.current_step().expect("resetting implies a step");
                self.state = FailedReset;
                vec![E::Send(ProtoMsg::FailToReset { step })]
            }
            (Resetting | Safe | Adapted | FailedReset, Msg(ProtoMsg::Rollback { step }))
                if self.matches(step) =>
            {
                self.state = RollingBack;
                // Only undo the structural change if it actually happened.
                vec![E::DoRollback(self.uncommitted_action().map(LocalAction::inverse))]
            }
            (RollingBack, RollbackFinished) => {
                let step = self.current_step().expect("rolling back implies a step");
                self.in_action_done = false;
                let mut eff = vec![E::Send(ProtoMsg::RollbackDone { step })];
                self.current = self.pending_restart.take();
                if let Some(next) = self.current.as_deref() {
                    // Implicitly-aborted attempt undone: start the new one.
                    self.state = Resetting;
                    eff.push(E::PreAction(next.action.clone()));
                    eff.push(E::BeginReset(next.action.clone()));
                } else {
                    self.state = Running;
                }
                eff
            }
            // Rollback for a step we are not engaged in. Two very different
            // situations share this state:
            (Running, Msg(ProtoMsg::Rollback { step })) => {
                if self.last_completed == Some(step) {
                    // The step ran to completion here — a solo participant
                    // resumes autonomously, so it can commit before a
                    // rollback order issued by a manager that never heard
                    // its (lost) acks arrives. Resume was the point of no
                    // return: the post-action already destroyed the old
                    // components and the commit cannot be undone. Re-ack
                    // completion so the manager adopts the commit instead
                    // of believing a rollback that never happened.
                    vec![
                        E::Send(ProtoMsg::AdaptDone { step }),
                        E::Send(ProtoMsg::ResumeDone { step }),
                    ]
                } else {
                    // We never started the step (our Reset was lost):
                    // nothing to undo — acknowledge so the manager moves on.
                    vec![E::Send(ProtoMsg::RollbackDone { step })]
                }
            }

            // A Reset for a *different* attempt while one is in progress:
            // every ack and rollback command of the old attempt was lost and
            // the manager has moved on. Treat it as an implicit abort —
            // undo any structural change, then start the new attempt
            // (liveness: without this the agent would stay blocked forever).
            (
                Resetting | Safe | Adapted | FailedReset,
                Msg(ProtoMsg::Reset { step, action, solo }),
            ) if !self.matches(step) => {
                self.state = RollingBack;
                self.pending_restart = Some(Box::new(Attempt { step, action, solo }));
                vec![E::DoRollback(self.uncommitted_action().map(LocalAction::inverse))]
            }

            // ---- retransmission tolerance -----------------------------------
            // Manager re-sent Reset because our answer was lost: re-ack
            // according to how far we actually got.
            (Resetting, Msg(ProtoMsg::Reset { step, .. })) if self.matches(step) => vec![],
            (Safe, Msg(ProtoMsg::Reset { step, .. })) if self.matches(step) => {
                vec![E::Send(ProtoMsg::ResetDone { step })]
            }
            (Adapted, Msg(ProtoMsg::Reset { step, .. })) if self.matches(step) => {
                vec![E::Send(ProtoMsg::ResetDone { step }), E::Send(ProtoMsg::AdaptDone { step })]
            }
            (FailedReset, Msg(ProtoMsg::Reset { step, .. })) if self.matches(step) => {
                vec![E::Send(ProtoMsg::FailToReset { step })]
            }
            // Duplicate Resume while resuming or after completion.
            (Resuming, Msg(ProtoMsg::Resume { step })) if self.matches(step) => vec![],
            (Running, Msg(ProtoMsg::Resume { step })) => {
                if self.last_completed == Some(step) {
                    vec![E::Send(ProtoMsg::ResumeDone { step })]
                } else {
                    vec![]
                }
            }

            // Anything else (stale step ids, out-of-order junk) is dropped.
            _ => vec![],
        }
    }

    fn matches(&self, step: StepId) -> bool {
        self.current_step() == Some(step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sada_plan::ActionId;

    fn la() -> LocalAction {
        LocalAction {
            action: ActionId(1),
            removes: vec![],
            adds: vec![],
            needs_global_drain: false,
        }
    }

    fn reset(step: u64, solo: bool) -> AgentEvent {
        AgentEvent::Msg(ProtoMsg::Reset { step: StepId(step), action: la(), solo })
    }

    #[test]
    fn happy_path_multi_participant() {
        let mut a = AgentCore::new();
        assert_eq!(a.state(), AgentState::Running);

        let eff = a.on_event(reset(1, false));
        assert_eq!(a.state(), AgentState::Resetting);
        assert!(matches!(eff[0], AgentEffect::PreAction(_)));
        assert!(matches!(eff[1], AgentEffect::BeginReset(_)));

        let eff = a.on_event(AgentEvent::SafeReached);
        assert_eq!(a.state(), AgentState::Safe);
        assert_eq!(eff[0], AgentEffect::Send(ProtoMsg::ResetDone { step: StepId(1) }));
        assert!(matches!(eff[1], AgentEffect::DoInAction(_)));

        let eff = a.on_event(AgentEvent::InActionDone);
        assert_eq!(a.state(), AgentState::Adapted, "blocked awaiting resume");
        assert_eq!(eff, vec![AgentEffect::Send(ProtoMsg::AdaptDone { step: StepId(1) })]);

        let eff = a.on_event(AgentEvent::Msg(ProtoMsg::Resume { step: StepId(1) }));
        assert_eq!(a.state(), AgentState::Resuming);
        assert_eq!(eff, vec![AgentEffect::DoResume]);

        let eff = a.on_event(AgentEvent::ResumeFinished);
        assert_eq!(a.state(), AgentState::Running);
        assert_eq!(eff[0], AgentEffect::Send(ProtoMsg::ResumeDone { step: StepId(1) }));
        assert!(matches!(eff[1], AgentEffect::PostAction(_)), "post-action after resume");
    }

    #[test]
    fn solo_step_skips_adapted_blocking() {
        let mut a = AgentCore::new();
        let _ = a.on_event(reset(2, true));
        let _ = a.on_event(AgentEvent::SafeReached);
        let eff = a.on_event(AgentEvent::InActionDone);
        assert_eq!(a.state(), AgentState::Resuming, "direct adapted -> resuming");
        assert_eq!(eff[0], AgentEffect::Send(ProtoMsg::AdaptDone { step: StepId(2) }));
        assert_eq!(eff[1], AgentEffect::DoResume);
    }

    #[test]
    fn rollback_after_solo_completion_reacks_the_commit() {
        // A solo participant resumes autonomously, so a rollback order can
        // arrive after the step already committed here (the manager never
        // heard our lost acks). Resume was the point of no return: the
        // commit stands, and completion is re-acknowledged so the manager
        // adopts it instead of believing a rollback that never happened.
        let mut a = AgentCore::new();
        let _ = a.on_event(reset(12, true));
        let _ = a.on_event(AgentEvent::SafeReached);
        let _ = a.on_event(AgentEvent::InActionDone);
        let _ = a.on_event(AgentEvent::ResumeFinished);
        assert_eq!(a.state(), AgentState::Running);
        assert_eq!(a.last_completed(), Some(StepId(12)));
        let eff = a.on_event(AgentEvent::Msg(ProtoMsg::Rollback { step: StepId(12) }));
        assert_eq!(
            eff,
            vec![
                AgentEffect::Send(ProtoMsg::AdaptDone { step: StepId(12) }),
                AgentEffect::Send(ProtoMsg::ResumeDone { step: StepId(12) }),
            ],
            "a committed step is re-acked as complete, never as rolled back"
        );
        assert_eq!(a.state(), AgentState::Running, "the report does not move the machine");
    }

    #[test]
    fn fail_to_reset_reports_and_awaits_rollback() {
        let mut a = AgentCore::new();
        let _ = a.on_event(reset(3, false));
        let eff = a.on_event(AgentEvent::CannotReset);
        assert_eq!(a.state(), AgentState::FailedReset);
        assert_eq!(eff, vec![AgentEffect::Send(ProtoMsg::FailToReset { step: StepId(3) })]);
        let eff = a.on_event(AgentEvent::Msg(ProtoMsg::Rollback { step: StepId(3) }));
        assert_eq!(a.state(), AgentState::RollingBack);
        // In-action never ran: nothing structural to revert.
        assert_eq!(eff[0], AgentEffect::DoRollback(None));
        let eff = a.on_event(AgentEvent::RollbackFinished);
        assert_eq!(a.state(), AgentState::Running);
        assert_eq!(eff, vec![AgentEffect::Send(ProtoMsg::RollbackDone { step: StepId(3) })]);
    }

    #[test]
    fn rollback_after_in_action_applies_inverse() {
        let mut a = AgentCore::new();
        let action = LocalAction {
            action: ActionId(0),
            removes: vec![sada_expr::CompId::from_index(0)],
            adds: vec![sada_expr::CompId::from_index(1)],
            needs_global_drain: false,
        };
        let _ = a.on_event(AgentEvent::Msg(ProtoMsg::Reset {
            step: StepId(4),
            action: action.clone(),
            solo: false,
        }));
        let _ = a.on_event(AgentEvent::SafeReached);
        let _ = a.on_event(AgentEvent::InActionDone);
        let eff = a.on_event(AgentEvent::Msg(ProtoMsg::Rollback { step: StepId(4) }));
        assert_eq!(eff, vec![AgentEffect::DoRollback(Some(action.inverse()))]);
    }

    #[test]
    fn duplicate_reset_reacks_by_progress() {
        let mut a = AgentCore::new();
        let _ = a.on_event(reset(5, false));
        assert_eq!(a.on_event(reset(5, false)), vec![], "still resetting: silent");
        let _ = a.on_event(AgentEvent::SafeReached);
        assert_eq!(
            a.on_event(reset(5, false)),
            vec![AgentEffect::Send(ProtoMsg::ResetDone { step: StepId(5) })]
        );
        let _ = a.on_event(AgentEvent::InActionDone);
        assert_eq!(
            a.on_event(reset(5, false)),
            vec![
                AgentEffect::Send(ProtoMsg::ResetDone { step: StepId(5) }),
                AgentEffect::Send(ProtoMsg::AdaptDone { step: StepId(5) }),
            ]
        );
    }

    #[test]
    fn duplicate_reset_after_completion_reacks_everything() {
        let mut a = AgentCore::new();
        let _ = a.on_event(reset(6, true));
        let _ = a.on_event(AgentEvent::SafeReached);
        let _ = a.on_event(AgentEvent::InActionDone);
        let _ = a.on_event(AgentEvent::ResumeFinished);
        assert_eq!(a.state(), AgentState::Running);
        let eff = a.on_event(reset(6, true));
        assert_eq!(
            eff,
            vec![
                AgentEffect::Send(ProtoMsg::AdaptDone { step: StepId(6) }),
                AgentEffect::Send(ProtoMsg::ResumeDone { step: StepId(6) }),
            ],
            "completed step: re-ack, do not redo"
        );
    }

    #[test]
    fn duplicate_resume_handling() {
        let mut a = AgentCore::new();
        let _ = a.on_event(reset(7, false));
        let _ = a.on_event(AgentEvent::SafeReached);
        let _ = a.on_event(AgentEvent::InActionDone);
        let _ = a.on_event(AgentEvent::Msg(ProtoMsg::Resume { step: StepId(7) }));
        assert_eq!(a.on_event(AgentEvent::Msg(ProtoMsg::Resume { step: StepId(7) })), vec![]);
        let _ = a.on_event(AgentEvent::ResumeFinished);
        assert_eq!(
            a.on_event(AgentEvent::Msg(ProtoMsg::Resume { step: StepId(7) })),
            vec![AgentEffect::Send(ProtoMsg::ResumeDone { step: StepId(7) })]
        );
    }

    #[test]
    fn new_attempt_reset_mid_step_aborts_and_restarts() {
        let mut a = AgentCore::new();
        let action = LocalAction {
            action: ActionId(0),
            removes: vec![sada_expr::CompId::from_index(0)],
            adds: vec![sada_expr::CompId::from_index(1)],
            needs_global_drain: false,
        };
        // Old attempt progresses through its in-action; every ack is "lost".
        let _ = a.on_event(AgentEvent::Msg(ProtoMsg::Reset {
            step: StepId(20),
            action: action.clone(),
            solo: false,
        }));
        let _ = a.on_event(AgentEvent::SafeReached);
        let _ = a.on_event(AgentEvent::InActionDone);
        assert_eq!(a.state(), AgentState::Adapted);
        // The manager gave up on attempt 20 and starts attempt 21.
        let eff = a.on_event(AgentEvent::Msg(ProtoMsg::Reset {
            step: StepId(21),
            action: action.clone(),
            solo: false,
        }));
        assert_eq!(a.state(), AgentState::RollingBack);
        assert_eq!(
            eff,
            vec![AgentEffect::DoRollback(Some(action.inverse()))],
            "undo the applied change"
        );
        // Rollback finishes: the new attempt begins automatically.
        let eff = a.on_event(AgentEvent::RollbackFinished);
        assert_eq!(a.state(), AgentState::Resetting);
        assert_eq!(a.current_step(), Some(StepId(21)));
        assert_eq!(eff[0], AgentEffect::Send(ProtoMsg::RollbackDone { step: StepId(20) }));
        assert!(matches!(eff[1], AgentEffect::PreAction(_)));
        assert!(matches!(eff[2], AgentEffect::BeginReset(_)));
        // And it can complete normally.
        let _ = a.on_event(AgentEvent::SafeReached);
        let _ = a.on_event(AgentEvent::InActionDone);
        let _ = a.on_event(AgentEvent::Msg(ProtoMsg::Resume { step: StepId(21) }));
        let eff = a.on_event(AgentEvent::ResumeFinished);
        assert_eq!(eff[0], AgentEffect::Send(ProtoMsg::ResumeDone { step: StepId(21) }));
        assert_eq!(a.state(), AgentState::Running);
    }

    #[test]
    fn new_attempt_reset_before_in_action_restarts_without_undo() {
        let mut a = AgentCore::new();
        let _ = a.on_event(reset(30, false));
        assert_eq!(a.state(), AgentState::Resetting);
        let eff = a.on_event(reset(31, false));
        assert_eq!(eff, vec![AgentEffect::DoRollback(None)], "nothing structural to undo");
        let _ = a.on_event(AgentEvent::RollbackFinished);
        assert_eq!(a.current_step(), Some(StepId(31)));
        assert_eq!(a.state(), AgentState::Resetting);
    }

    #[test]
    fn stale_step_ids_ignored() {
        let mut a = AgentCore::new();
        let _ = a.on_event(reset(8, false));
        assert_eq!(a.on_event(AgentEvent::Msg(ProtoMsg::Resume { step: StepId(99) })), vec![]);
        assert_eq!(a.on_event(AgentEvent::Msg(ProtoMsg::Rollback { step: StepId(99) })), vec![]);
        assert_eq!(a.state(), AgentState::Resetting);
    }

    #[test]
    fn rollback_for_unstarted_step_acks_immediately() {
        let mut a = AgentCore::new();
        let eff = a.on_event(AgentEvent::Msg(ProtoMsg::Rollback { step: StepId(10) }));
        assert_eq!(eff, vec![AgentEffect::Send(ProtoMsg::RollbackDone { step: StepId(10) })]);
        assert_eq!(a.state(), AgentState::Running);
    }

    #[test]
    fn uncommitted_action_tracks_the_crash_window() {
        let mut a = AgentCore::new();
        assert!(a.uncommitted_action().is_none());
        let _ = a.on_event(reset(40, false));
        assert!(a.uncommitted_action().is_none(), "nothing applied while resetting");
        let _ = a.on_event(AgentEvent::SafeReached);
        assert!(a.uncommitted_action().is_none(), "in-action scheduled, not applied");
        let _ = a.on_event(AgentEvent::InActionDone);
        assert_eq!(a.uncommitted_action(), Some(&la()), "applied but uncommitted");
        let _ = a.on_event(AgentEvent::Msg(ProtoMsg::Resume { step: StepId(40) }));
        assert_eq!(a.uncommitted_action(), Some(&la()), "still uncommitted while resuming");
        let _ = a.on_event(AgentEvent::ResumeFinished);
        assert!(a.uncommitted_action().is_none(), "commit point passed");
        assert_eq!(a.last_completed(), Some(StepId(40)));
    }

    #[test]
    fn restore_keeps_only_durable_state() {
        let mut a = AgentCore::new();
        let _ = a.on_event(reset(50, true));
        let _ = a.on_event(AgentEvent::SafeReached);
        let _ = a.on_event(AgentEvent::InActionDone);
        let _ = a.on_event(AgentEvent::ResumeFinished);
        let _ = a.on_event(reset(51, false));
        let _ = a.on_event(AgentEvent::SafeReached);
        let _ = a.on_event(AgentEvent::InActionDone);
        // Crash here: step 51 applied but uncommitted; 50 is durable.
        let r = AgentCore::restore(a.last_completed());
        assert_eq!(r.state(), AgentState::Running);
        assert_eq!(r.current_step(), None, "in-progress attempt lost");
        assert!(r.uncommitted_action().is_none());
        assert_eq!(r.last_completed(), Some(StepId(50)));
        // The restored machine still re-acks its completed step on duplicates.
        let mut r = r;
        let eff = r.on_event(reset(50, true));
        assert_eq!(
            eff,
            vec![
                AgentEffect::Send(ProtoMsg::AdaptDone { step: StepId(50) }),
                AgentEffect::Send(ProtoMsg::ResumeDone { step: StepId(50) }),
            ]
        );
    }

    #[test]
    fn query_state_reports_position_without_moving() {
        let mut a = AgentCore::new();
        let q = AgentEvent::Msg(ProtoMsg::QueryState);
        assert_eq!(
            a.on_event(q.clone()),
            vec![AgentEffect::Send(ProtoMsg::StateReport {
                engaged: None,
                adapted: false,
                failed: false,
                last_completed: None,
            })],
            "idle agent reports an empty snapshot"
        );
        let _ = a.on_event(reset(60, false));
        let _ = a.on_event(AgentEvent::SafeReached);
        let _ = a.on_event(AgentEvent::InActionDone);
        assert_eq!(a.state(), AgentState::Adapted);
        assert_eq!(
            a.on_event(q.clone()),
            vec![AgentEffect::Send(ProtoMsg::StateReport {
                engaged: Some(StepId(60)),
                adapted: true,
                failed: false,
                last_completed: None,
            })]
        );
        assert_eq!(a.state(), AgentState::Adapted, "the probe is not a transition");
        let _ = a.on_event(AgentEvent::Msg(ProtoMsg::Resume { step: StepId(60) }));
        let _ = a.on_event(AgentEvent::ResumeFinished);
        assert_eq!(
            a.on_event(q),
            vec![AgentEffect::Send(ProtoMsg::StateReport {
                engaged: None,
                adapted: false,
                failed: false,
                last_completed: Some(StepId(60)),
            })]
        );
    }

    #[test]
    fn query_state_reports_failed_reset() {
        let mut a = AgentCore::new();
        let _ = a.on_event(reset(61, false));
        let _ = a.on_event(AgentEvent::CannotReset);
        assert_eq!(
            a.on_event(AgentEvent::Msg(ProtoMsg::QueryState)),
            vec![AgentEffect::Send(ProtoMsg::StateReport {
                engaged: Some(StepId(61)),
                adapted: false,
                failed: true,
                last_completed: None,
            })]
        );
    }

    #[test]
    fn resume_in_adapted_requires_matching_step() {
        let mut a = AgentCore::new();
        let _ = a.on_event(reset(11, false));
        let _ = a.on_event(AgentEvent::SafeReached);
        let _ = a.on_event(AgentEvent::InActionDone);
        assert_eq!(a.on_event(AgentEvent::Msg(ProtoMsg::Resume { step: StepId(12) })), vec![]);
        assert_eq!(a.state(), AgentState::Adapted, "wrong step id keeps us blocked");
    }
}
