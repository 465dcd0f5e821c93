//! Parameterized response obligations and the combined safe-state monitor.
//!
//! The paper's criterion: *"If all the obligations of the formula are
//! fulfilled in a state, then the state can be automatically identified as
//! a safe state."* A critical communication segment is naturally a response
//! obligation — its start event obliges a matching completion event — so
//! the detector tracks the outstanding-obligation multiset per specification
//! and per key (e.g. packet sequence number).

use std::collections::HashMap;

use crate::formula::Formula;
use crate::monitor::Monitor;

/// A parameterized response specification `trigger(k) ⇒ ◇ response(k)`:
/// every trigger event with key `k` opens an obligation that only the
/// matching response event discharges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseSpec {
    /// Human-readable name (e.g. `"packet-decoded"`).
    pub(crate) name: String,
    /// Event name that opens an obligation.
    pub(crate) trigger: String,
    /// Event name that discharges it.
    pub(crate) response: String,
}

impl ResponseSpec {
    /// Builds a spec.
    pub fn new(name: &str, trigger: &str, response: &str) -> Self {
        ResponseSpec { name: name.into(), trigger: trigger.into(), response: response.into() }
    }
}

/// An occurrence fed to a [`SafeStateMonitor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObligationEvent {
    /// Event name (matched against triggers/responses).
    pub(crate) name: String,
    /// Correlation key (packet seq, session id, …).
    pub(crate) key: u64,
}

impl ObligationEvent {
    /// Builds an event.
    pub fn new(name: &str, key: u64) -> Self {
        ObligationEvent { name: name.into(), key }
    }
}

/// Tracks outstanding obligations for a set of [`ResponseSpec`]s.
#[derive(Debug, Clone)]
pub(crate) struct ObligationTracker {
    specs: Vec<ResponseSpec>,
    /// `(spec index, key) -> outstanding count` (triggers may repeat).
    open: HashMap<(usize, u64), u32>,
}

impl ObligationTracker {
    /// A tracker over `specs`.
    pub(crate) fn new(specs: Vec<ResponseSpec>) -> Self {
        ObligationTracker { specs, open: HashMap::new() }
    }

    /// Processes one event: opens and/or discharges obligations. An event
    /// may be a trigger of one spec and a response of another.
    pub(crate) fn observe(&mut self, ev: &ObligationEvent) {
        for (ix, spec) in self.specs.iter().enumerate() {
            if spec.trigger == ev.name {
                *self.open.entry((ix, ev.key)).or_insert(0) += 1;
            }
            if spec.response == ev.name {
                if let Some(n) = self.open.get_mut(&(ix, ev.key)) {
                    *n -= 1;
                    if *n == 0 {
                        self.open.remove(&(ix, ev.key));
                    }
                }
                // A response with no matching trigger is ignored: fulfilling
                // a non-existent obligation cannot make a state unsafe.
            }
        }
    }

    /// All obligations fulfilled — the paper's safe-state criterion.
    pub(crate) fn all_fulfilled(&self) -> bool {
        self.open.is_empty()
    }
}

/// The full automatic safe-state detector: a state is safe when the ptLTL
/// *condition* holds at it and no response *obligation* is outstanding.
#[derive(Debug, Clone)]
pub struct SafeStateMonitor {
    condition: Monitor,
    tracker: ObligationTracker,
    last_condition: bool,
}

impl SafeStateMonitor {
    /// Combines a ptLTL state condition with response obligations. Use
    /// `Formula::Const(true)` when only obligations matter.
    pub fn new(condition: Formula, specs: Vec<ResponseSpec>) -> Self {
        SafeStateMonitor {
            condition: Monitor::new(condition),
            tracker: ObligationTracker::new(specs),
            last_condition: false,
        }
    }

    /// Consumes one state: `events` that occurred entering it, plus the
    /// proposition oracle for the ptLTL condition. Returns whether the new
    /// state is safe.
    pub fn step(&mut self, events: &[ObligationEvent], holds: &dyn Fn(&str) -> bool) -> bool {
        for ev in events {
            self.tracker.observe(ev);
        }
        self.last_condition = self.condition.step(holds);
        self.is_safe()
    }

    /// Whether the most recent state is safe.
    pub(crate) fn is_safe(&self) -> bool {
        self.last_condition && self.tracker.all_fulfilled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, key: u64) -> ObligationEvent {
        ObligationEvent::new(name, key)
    }

    #[test]
    fn obligations_open_and_discharge_by_key() {
        let mut t = ObligationTracker::new(vec![ResponseSpec::new("decode", "sent", "decoded")]);
        assert!(t.all_fulfilled());
        t.observe(&ev("sent", 1));
        t.observe(&ev("sent", 2));
        t.observe(&ev("decoded", 1));
        assert!(!t.all_fulfilled(), "key 2 is still outstanding");
        t.observe(&ev("decoded", 2));
        assert!(t.all_fulfilled());
    }

    #[test]
    fn duplicate_triggers_need_matching_responses() {
        let mut t = ObligationTracker::new(vec![ResponseSpec::new("x", "start", "end")]);
        t.observe(&ev("start", 7));
        t.observe(&ev("start", 7));
        t.observe(&ev("end", 7));
        assert!(!t.all_fulfilled(), "the second trigger is still outstanding");
        t.observe(&ev("end", 7));
        assert!(t.all_fulfilled());
    }

    #[test]
    fn unmatched_response_is_ignored() {
        let mut t = ObligationTracker::new(vec![ResponseSpec::new("x", "start", "end")]);
        t.observe(&ev("end", 9));
        assert!(t.all_fulfilled());
        t.observe(&ev("start", 9));
        assert!(!t.all_fulfilled(), "the early response discharged nothing");
    }

    #[test]
    fn multiple_specs_share_events_independently() {
        let mut t = ObligationTracker::new(vec![
            ResponseSpec::new("a", "req", "resp"),
            ResponseSpec::new("b", "resp", "ack"), // resp triggers the next stage
        ]);
        t.observe(&ev("req", 1));
        t.observe(&ev("resp", 1));
        assert!(!t.all_fulfilled(), "stage b now open");
        t.observe(&ev("ack", 1));
        assert!(t.all_fulfilled());
    }

    #[test]
    fn safe_state_monitor_combines_condition_and_obligations() {
        let cond = crate::parse_formula("!resetting").unwrap();
        let mut m = SafeStateMonitor::new(cond, vec![ResponseSpec::new("seg", "start", "end")]);
        // Quiet state: safe.
        assert!(m.step(&[], &|_| false));
        // A segment opens: unsafe even though the condition holds.
        assert!(!m.step(&[ev("start", 5)], &|_| false));
        // Segment closes but we are resetting: still unsafe.
        assert!(!m.step(&[ev("end", 5)], &|p| p == "resetting"));
        // Everything settled: safe again.
        assert!(m.step(&[], &|_| false));
        assert!(m.is_safe());
    }

    #[test]
    fn detector_finds_the_papers_safe_points() {
        // The hand-held's DES decoder: "not decoding a packet" is the local
        // safe state (Section 5.2). Model each packet as an obligation.
        let mut m = SafeStateMonitor::new(
            Formula::Const(true),
            vec![ResponseSpec::new("decode", "pkt_in", "pkt_out")],
        );
        let mut safe_points = Vec::new();
        let timeline: Vec<Vec<ObligationEvent>> = vec![
            vec![],
            vec![ev("pkt_in", 1)],
            vec![ev("pkt_out", 1), ev("pkt_in", 2)],
            vec![ev("pkt_out", 2)],
            vec![],
        ];
        for (i, events) in timeline.iter().enumerate() {
            if m.step(events, &|_| false) {
                safe_points.push(i);
            }
        }
        assert_eq!(safe_points, vec![0, 3, 4], "exactly the between-packet states");
    }
}
