//! Per-phase adaptation latency and event-count summaries over a bus stream.
//!
//! The paper reports adaptation cost as a single number; debugging the
//! protocol needs the breakdown: how long agents spent driving to their
//! local safe states, performing in-actions, parked at the adapt-done
//! barrier, resuming, or rolling back. [`Metrics::from_events`] reconstructs
//! those buckets from the unified event stream by integrating each agent's
//! state-transition intervals, and folds the same stream's per-kind
//! [`Counts`] — so the numbers always describe exactly the run the trace
//! describes.

use std::collections::HashMap;

use crate::bus::Sink;
use crate::event::{AgentStateTag, Event, Payload, ProtoEvent};
use crate::sinks::Counts;
use crate::time::{SimDuration, SimTime};

/// Aggregated per-phase latencies and event counts for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Total agent time in `Resetting` (reset → local-safe).
    pub reset_to_safe: SimDuration,
    /// Total agent time in `Safe` (drain wait + blocked in-action).
    pub(crate) safe_wait: SimDuration,
    /// Total agent time in `Adapted` (waiting out the adapt-done barrier).
    pub(crate) adapt_barrier: SimDuration,
    /// Total agent time in `Resuming`.
    pub(crate) resume: SimDuration,
    /// Total agent time in `RollingBack`.
    pub(crate) rollback: SimDuration,
    /// Events of each kind.
    pub counts: Counts,
    /// Virtual time between the first and last event in the stream.
    pub span: SimDuration,
}

impl Metrics {
    /// Reconstructs metrics from an event stream (any order-preserving
    /// slice: a ring sink's contents, a decoded JSONL trace, …).
    pub fn from_events(events: &[Event]) -> Metrics {
        let mut m = Metrics::default();
        // Per-agent (state, entered-at) for interval integration.
        let mut agent_state: HashMap<u32, (AgentStateTag, SimTime)> = HashMap::new();
        let mut first: Option<SimTime> = None;
        let mut last = SimTime::ZERO;
        for ev in events {
            first.get_or_insert(ev.at);
            last = last.max(ev.at);
            m.counts.accept(ev);
            if let Payload::Proto(ProtoEvent::AgentState { from, to, .. }) = &ev.payload {
                let entry = agent_state.entry(ev.actor).or_insert((*from, ev.at));
                let (prev, since) = *entry;
                m.credit(prev, ev.at.saturating_since(since));
                *entry = (*to, ev.at);
            }
        }
        // Close any interval still open at the end of the stream (an agent
        // stranded mid-phase still accrues its time).
        for (_, (state, since)) in agent_state {
            m.credit(state, last.saturating_since(since));
        }
        m.span = last.saturating_since(first.unwrap_or(SimTime::ZERO));
        m
    }

    fn credit(&mut self, state: AgentStateTag, d: SimDuration) {
        match state {
            AgentStateTag::Resetting => self.reset_to_safe += d,
            AgentStateTag::Safe => self.safe_wait += d,
            AgentStateTag::Adapted => self.adapt_barrier += d,
            AgentStateTag::Resuming => self.resume += d,
            AgentStateTag::RollingBack => self.rollback += d,
            AgentStateTag::Running | AgentStateTag::FailedReset => {}
        }
    }

    /// The per-phase latency table, in protocol order, for rendering.
    pub fn phase_rows(&self) -> [(&'static str, SimDuration); 5] {
        [
            ("reset -> local-safe", self.reset_to_safe),
            ("safe-wait (in-action)", self.safe_wait),
            ("adapt-done barrier", self.adapt_barrier),
            ("resume", self.resume),
            ("rollback", self.rollback),
        ]
    }

    /// Sum of all phase buckets (total agent non-Running time).
    pub fn total_phase_time(&self) -> SimDuration {
        self.reset_to_safe + self.safe_wait + self.adapt_barrier + self.resume + self.rollback
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Kind;
    use crate::event::NetEvent;

    fn agent(at: u64, actor: u32, from: AgentStateTag, to: AgentStateTag) -> Event {
        Event {
            at: SimTime::from_micros(at),
            actor,
            session: 0,
            shard: 0,
            payload: Payload::Proto(ProtoEvent::AgentState { from, to, step: Some(1) }),
        }
    }

    #[test]
    fn integrates_agent_state_intervals_per_actor() {
        use AgentStateTag::*;
        let events = vec![
            agent(100, 1, Running, Resetting),
            agent(100, 2, Running, Resetting),
            agent(400, 1, Resetting, Safe),
            agent(600, 1, Safe, Adapted),
            agent(700, 2, Resetting, Safe),
            agent(900, 1, Adapted, Resuming),
            agent(950, 1, Resuming, Running),
        ];
        let m = Metrics::from_events(&events);
        // Actor 1: 300 resetting, 200 safe, 300 adapted, 50 resuming.
        // Actor 2: 600 resetting, then safe until the last event (950-700).
        assert_eq!(m.reset_to_safe, SimDuration::from_micros(900));
        assert_eq!(m.safe_wait, SimDuration::from_micros(450));
        assert_eq!(m.adapt_barrier, SimDuration::from_micros(300));
        assert_eq!(m.resume, SimDuration::from_micros(50));
        assert_eq!(m.rollback, SimDuration::ZERO);
        assert_eq!(m.span, SimDuration::from_micros(850));
        assert_eq!(m.total_phase_time(), SimDuration::from_micros(1_700));
    }

    #[test]
    fn counts_follow_the_stream() {
        let at = SimTime::from_micros(5);
        let ev = |actor: u32, payload: Payload| Event { at, actor, session: 0, shard: 0, payload };
        let events = vec![
            ev(0, Payload::Net(NetEvent::Sent { from: 0, to: 1 })),
            ev(1, Payload::Net(NetEvent::Delivered { from: 0, to: 1 })),
            ev(1, Payload::Net(NetEvent::Dropped { from: 0, to: 1 })),
            ev(0, Payload::Proto(ProtoEvent::StepStarted { step: 1, solo: true, participants: 1 })),
            ev(0, Payload::Proto(ProtoEvent::StepCommitted { step: 1 })),
            ev(
                0,
                Payload::Proto(ProtoEvent::TimeoutFired {
                    phase: crate::event::ManagerPhaseTag::Adapting,
                    step: Some(1),
                    retries: 1,
                }),
            ),
            ev(0, Payload::Proto(ProtoEvent::RetrySent { step: 1, resends: 2 })),
            ev(0, Payload::Proto(ProtoEvent::RollbackIssued { step: 1 })),
        ];
        let m = Metrics::from_events(&events);
        assert_eq!(m.counts, Counts::of(&events));
        let c = |kind| m.counts[kind];
        assert_eq!((c(Kind::Sent), c(Kind::Delivered), c(Kind::Dropped)), (1, 1, 1));
        assert_eq!((c(Kind::StepStarted), c(Kind::StepCommitted)), (1, 1));
        assert_eq!((c(Kind::TimeoutFired), c(Kind::RetrySent), c(Kind::RollbackIssued)), (1, 1, 1));
        assert_eq!(m.span, SimDuration::ZERO);
    }

    #[test]
    fn empty_stream_is_all_zero() {
        assert_eq!(Metrics::from_events(&[]), Metrics::default());
    }
}
