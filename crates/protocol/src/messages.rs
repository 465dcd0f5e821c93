//! Wire messages between the adaptation manager and its agents, and the
//! timers the protocol arms.

use std::convert::Infallible;
use std::fmt;

use sada_expr::CompId;
use sada_plan::ActionId;
use sada_simnet::Timer;

/// Identifies one adaptation session at the fleet control plane.
///
/// The single-adaptation stack predates sessions; everything it does runs
/// as [`SessionId::SOLO`] (session 0), which the journal text codec and the
/// JSONL trace codec both elide so pre-fleet artifacts stay byte-identical.
/// The control plane in `sada-fleet` allocates nonzero ids, one per
/// admitted adaptation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SessionId(pub u64);

impl SessionId {
    /// The implicit session of a single-adaptation run.
    pub const SOLO: SessionId = SessionId(0);
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

/// Identifies one *execution attempt* of one adaptation step.
///
/// Retried steps get fresh ids so stale acknowledgements from an earlier
/// attempt cannot be confused with the current one (the manager ignores
/// mismatched ids; agents re-acknowledge duplicates of the current id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StepId(pub u64);

impl fmt::Display for StepId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "step#{}", self.0)
    }
}

/// The slice of an adaptive action that one process must perform: which of
/// its components to remove and add, and whether the global safe condition
/// requires draining in-flight traffic first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalAction {
    /// The distributed action this local action belongs to.
    pub action: ActionId,
    /// Components this process removes during its in-action.
    pub removes: Vec<CompId>,
    /// Components this process adds during its in-action.
    pub adds: Vec<CompId>,
    /// When true, the local safe state is not enough: the process must also
    /// wait for the global safe condition (e.g. "the receiver has received
    /// all the datagram packets that the sender has sent", Section 3.2).
    pub needs_global_drain: bool,
}

impl LocalAction {
    /// The inverse local action, applied during rollback.
    pub fn inverse(&self) -> LocalAction {
        LocalAction {
            action: self.action,
            removes: self.adds.clone(),
            adds: self.removes.clone(),
            needs_global_drain: self.needs_global_drain,
        }
    }
}

/// Protocol messages (the `Courier`-font names of Figures 1 and 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoMsg {
    /// Manager → agent: begin the step — perform the pre-action and drive
    /// the process toward its (local + global) safe state. `solo` tells the
    /// agent it is the only participant, so it may resume without waiting
    /// for `Resume` (Figure 1's direct adapted → resuming arc).
    Reset {
        /// The step attempt this message belongs to.
        step: StepId,
        /// What this process must do.
        action: LocalAction,
        /// True when this agent is the only participant.
        solo: bool,
    },
    /// Agent → manager: the process is blocked in its safe state.
    ResetDone {
        /// Echoed step attempt.
        step: StepId,
    },
    /// Agent → manager: the local in-action completed; process blocked in
    /// the adapted state (unless solo).
    AdaptDone {
        /// Echoed step attempt.
        step: StepId,
    },
    /// Manager → agent: all participants adapted; resume full operation.
    Resume {
        /// The step attempt being resumed.
        step: StepId,
    },
    /// Agent → manager: full operation restored; post-action performed.
    ResumeDone {
        /// Echoed step attempt.
        step: StepId,
    },
    /// Manager → agent: abort the step — restore the state prior to the
    /// adaptation and resume.
    Rollback {
        /// The step attempt being aborted.
        step: StepId,
    },
    /// Agent → manager: rollback finished; process running as before.
    RollbackDone {
        /// Echoed step attempt.
        step: StepId,
    },
    /// Agent → manager: the process cannot reach a safe state in reasonable
    /// time (a long critical communication segment) — Section 4.4's
    /// fail-to-reset failure.
    FailToReset {
        /// Echoed step attempt.
        step: StepId,
    },
    /// Agent → manager: the process crashed and came back up under a new
    /// incarnation. `last_completed` is the most recent step attempt the
    /// agent committed to durable storage before the crash — everything
    /// after it (an uncommitted in-action, blocking state, timers) was
    /// volatile and is gone. The manager answers by resynchronizing the
    /// agent into the current step or, if the crash already tripped the
    /// timeout ladder, by letting the ordinary abort/rollback handling run.
    Rejoin {
        /// Last step the agent fully completed before crashing, if any.
        last_completed: Option<StepId>,
    },
    /// Manager → agent: a restored manager incarnation probing the agent's
    /// actual protocol position during its reconciliation round. Stepless:
    /// the agent answers from whatever state it is in.
    QueryState,
    /// Agent → manager: answer to [`ProtoMsg::QueryState`]. A snapshot of
    /// the agent's protocol position, from which the manager resolves
    /// applied-but-uncommitted steps (rollback before the first resume,
    /// run-to-completion after it).
    StateReport {
        /// The step attempt the agent is currently engaged in, if any.
        engaged: Option<StepId>,
        /// True when the engaged step's local in-action has completed (the
        /// agent is at or past the adapted state).
        adapted: bool,
        /// True when the agent failed to reset for the engaged step.
        failed: bool,
        /// Last step attempt the agent fully committed, if any.
        last_completed: Option<StepId>,
    },
}

impl ProtoMsg {
    /// The step attempt the message refers to, if it refers to one.
    ///
    /// [`ProtoMsg::Rejoin`] and the reconciliation pair
    /// ([`ProtoMsg::QueryState`] / [`ProtoMsg::StateReport`]) are the only
    /// stepless messages: a restarted process (agent or manager) does not
    /// know its peer's current attempt, so these must pass the
    /// stale-step filters unconditionally. `StateReport::engaged` names a
    /// step, but as payload the *receiver* judges, not as a filter key.
    pub(crate) fn step(&self) -> Option<StepId> {
        match self {
            ProtoMsg::Reset { step, .. }
            | ProtoMsg::ResetDone { step }
            | ProtoMsg::AdaptDone { step }
            | ProtoMsg::Resume { step }
            | ProtoMsg::ResumeDone { step }
            | ProtoMsg::Rollback { step }
            | ProtoMsg::RollbackDone { step }
            | ProtoMsg::FailToReset { step } => Some(*step),
            ProtoMsg::Rejoin { .. } | ProtoMsg::QueryState | ProtoMsg::StateReport { .. } => None,
        }
    }
}

/// The combined wire format carried by the simulated network: protocol
/// traffic multiplexed with application traffic of type `M`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Wire<M> {
    /// Manager/agent coordination, stamped with the sender's incarnation
    /// number. A process starts at epoch 0 and bumps it on every restart;
    /// receivers track the highest epoch seen per peer and discard anything
    /// older, so pre-crash traffic still in flight cannot be mistaken for
    /// the restarted process's messages.
    Proto {
        /// Sender's incarnation number.
        epoch: u64,
        /// Adaptation session the message belongs to. Manager-side senders
        /// stamp their session; agents echo the session of the step they
        /// are engaged in, so a control plane hosting many sessions can
        /// route each reply to the right embedded manager core.
        /// [`SessionId::SOLO`] everywhere in single-adaptation runs.
        session: SessionId,
        /// The protocol message.
        msg: ProtoMsg,
    },
    /// Application payload (video packets in the case study).
    App(M),
}

/// A timer the protocol arms, by kind, or one of its embedding's own kinds
/// `K` (the way [`Wire`] carries application messages).
///
/// A [`ScriptedAgent`](crate::ScriptedAgent)'s local work completes when
/// its timer fires; a solo manager's request may wait on one; the rest are
/// a manager core's timeouts and the retransmission ladders of a host's
/// tracked sends. Core and ladder timers draw their `tag` from their host's
/// one sequence, so a stream names each firing once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoTimer<K = Infallible> {
    /// A scripted agent reached its safe state (or found it cannot).
    Safe,
    /// A scripted agent's in-action is done.
    Act,
    /// A scripted agent restored full operation.
    Resume,
    /// A scripted agent's rollback is done.
    Rollback,
    /// A scripted agent's rejoin announcement is due.
    Rejoin,
    /// A solo manager's delayed adaptation request is due.
    Request,
    /// Timer `token` of `session`'s manager core; a solo core's `tag` is
    /// its token.
    Core {
        /// Drawn from the host's tag sequence.
        tag: u64,
        /// The session whose core armed it.
        session: u64,
        /// The core's token for it.
        token: u64,
    },
    /// The deadline of a tracked send's current attempt.
    Ladder {
        /// Drawn from the host's tag sequence for this attempt.
        tag: u64,
        /// The send's `(session, token)`.
        key: (u64, u64),
    },
    /// One of the embedding's own kinds.
    App(K),
}

impl<K: Timer> Timer for ProtoTimer<K> {
    fn tag(&self) -> u64 {
        match self {
            ProtoTimer::Safe => 1,
            ProtoTimer::Act => 2,
            ProtoTimer::Resume => 3,
            ProtoTimer::Rollback => 4,
            ProtoTimer::Rejoin => 5,
            ProtoTimer::Request => u64::MAX,
            ProtoTimer::Core { tag, .. } | ProtoTimer::Ladder { tag, .. } => *tag,
            ProtoTimer::App(k) => k.tag(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sada_expr::CompId;

    fn la() -> LocalAction {
        LocalAction {
            action: ActionId(0),
            removes: vec![CompId::from_index(1)],
            adds: vec![CompId::from_index(2)],
            needs_global_drain: true,
        }
    }

    #[test]
    fn inverse_swaps_adds_and_removes() {
        let a = la();
        let inv = a.inverse();
        assert_eq!(inv.removes, a.adds);
        assert_eq!(inv.adds, a.removes);
        assert_eq!(inv.inverse(), a, "involution");
    }

    #[test]
    fn step_accessor_covers_all_variants() {
        let s = StepId(9);
        let msgs = vec![
            ProtoMsg::Reset { step: s, action: la(), solo: false },
            ProtoMsg::ResetDone { step: s },
            ProtoMsg::AdaptDone { step: s },
            ProtoMsg::Resume { step: s },
            ProtoMsg::ResumeDone { step: s },
            ProtoMsg::Rollback { step: s },
            ProtoMsg::RollbackDone { step: s },
            ProtoMsg::FailToReset { step: s },
        ];
        for m in msgs {
            assert_eq!(m.step(), Some(s));
        }
        assert_eq!(s.to_string(), "step#9");
    }

    #[test]
    fn rejoin_is_stepless() {
        assert_eq!(ProtoMsg::Rejoin { last_completed: None }.step(), None);
        assert_eq!(ProtoMsg::Rejoin { last_completed: Some(StepId(3)) }.step(), None);
    }

    #[test]
    fn reconciliation_messages_are_stepless() {
        // A restored manager probes agents whose step bookkeeping it cannot
        // assume; both directions must bypass every stale-step filter.
        assert_eq!(ProtoMsg::QueryState.step(), None);
        let report = ProtoMsg::StateReport {
            engaged: Some(StepId(4)),
            adapted: true,
            failed: false,
            last_completed: Some(StepId(3)),
        };
        assert_eq!(report.step(), None);
    }

    #[test]
    fn wire_multiplexes() {
        let w: Wire<u32> = Wire::App(7);
        assert_eq!(w, Wire::App(7));
        let p: Wire<u32> = Wire::Proto {
            epoch: 0,
            session: SessionId::SOLO,
            msg: ProtoMsg::ResetDone { step: StepId(1) },
        };
        assert!(matches!(p, Wire::Proto { .. }));
        // Same message under a later incarnation is a different wire value.
        let p1: Wire<u32> = Wire::Proto {
            epoch: 1,
            session: SessionId::SOLO,
            msg: ProtoMsg::ResetDone { step: StepId(1) },
        };
        assert_ne!(p, p1);
        // And so is the same message under a different session.
        let p2: Wire<u32> = Wire::Proto {
            epoch: 0,
            session: SessionId(3),
            msg: ProtoMsg::ResetDone { step: StepId(1) },
        };
        assert_ne!(p, p2);
        assert_eq!(SessionId(3).to_string(), "session#3");
        assert_eq!(SessionId::default(), SessionId::SOLO);
    }
}
