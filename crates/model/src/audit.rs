//! Independent safety auditing of recorded adaptation runs.
//!
//! Section 3 defines a safe dynamic adaptation process by two conditions:
//! dependency relationships hold in every (quiescent) configuration, and no
//! critical communication segment (CCS) is interrupted. Section 3.3 proves
//! this equivalent to "executes along a safe adaptation path with every
//! adaptive action performed in its global safe state".
//!
//! The auditor consumes a flat [`AuditEvent`] log emitted by instrumented
//! runs — segment open/close brackets per critical-communication id, atomic
//! in-actions with the component set they touch, and configuration
//! snapshots — and reports every violation of either condition. Because the
//! log is produced by the *application* (packet codecs, filter chains) and
//! not by the adaptation protocol, a buggy or deliberately unsafe protocol
//! (the hot-swap baseline) cannot hide its violations.

use std::collections::HashMap;
use std::fmt;

use sada_expr::{CompId, Config, InvariantSet};

/// One entry in a run's audit log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditEvent {
    /// A critical communication segment with identifier `cid` began; it
    /// involves component `comp` (e.g. "decoder D1 started decoding packet
    /// 17").
    SegmentStart {
        /// Critical communication identifier (the paper's CID).
        cid: u64,
        /// The component performing the segment's atomic actions.
        comp: CompId,
    },
    /// The segment `cid` completed normally.
    SegmentEnd {
        /// Critical communication identifier.
        cid: u64,
        /// Must match the opening component.
        comp: CompId,
    },
    /// The segment `cid` was destroyed by an environmental fault (process
    /// crash, partition outage) rather than by an adaptive action. Closes
    /// the bracket without counting a completion. The paper's safety
    /// conditions constrain the *adaptation*, not the environment: an
    /// in-action cutting a segment is still a violation (checked in-line at
    /// the [`AuditEvent::InAction`] event), while a crash eating a packet
    /// mid-transmission is a fault the run merely has to survive.
    SegmentLost {
        /// Critical communication identifier.
        cid: u64,
        /// Must match the opening component.
        comp: CompId,
    },
    /// An adaptive in-action executed atomically, touching `comps`.
    InAction {
        /// Human-readable action label (for reporting).
        label: String,
        /// Components removed or added by the in-action.
        comps: Vec<CompId>,
    },
    /// The system observed configuration `config` at a quiescent point
    /// (before the adaptation, between steps, after completion or rollback).
    ConfigSnapshot {
        /// The observed component set.
        config: Config,
    },
}

/// Why an audited run is unsafe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// A quiescent configuration violated the dependency invariants.
    UnsafeConfiguration,
    /// An in-action executed while a critical communication segment
    /// involving a touched component was still open.
    InterruptedSegment {
        /// The open segment's critical communication identifier.
        cid: u64,
        /// The component whose segment was cut.
        comp: CompId,
    },
    /// Segment brackets were malformed (end without start, mismatched
    /// component, or still-open segment at end of log).
    MalformedSegment {
        /// The offending critical communication identifier.
        cid: u64,
    },
}

/// A single audit finding, with the index of the offending log event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Index into the audited event slice (log length for end-of-log
    /// findings).
    pub(crate) at: usize,
    /// What went wrong.
    pub kind: ViolationKind,
    /// Human-readable description.
    pub(crate) detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event {}: {}", self.at, self.detail)
    }
}

/// The outcome of auditing one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Every violation found, in log order.
    pub violations: Vec<Violation>,
    /// Configurations checked.
    pub configs_checked: usize,
    /// Segments that opened and closed cleanly.
    pub segments_completed: usize,
    /// Segments adjudicated lost to environmental faults (crash outages).
    pub(crate) segments_lost: usize,
    /// In-actions observed.
    pub(crate) in_actions: usize,
}

impl AuditReport {
    /// True when the run satisfied both safety conditions.
    pub fn is_safe(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks recorded runs against an invariant set.
#[derive(Debug, Clone)]
pub struct SafetyAuditor {
    invariants: InvariantSet,
}

impl SafetyAuditor {
    /// Builds an auditor for the given dependency invariants.
    pub fn new(invariants: InvariantSet) -> Self {
        SafetyAuditor { invariants }
    }

    /// Replays `log` and reports every safety violation.
    ///
    /// The checks mirror the paper's two-part safety definition:
    ///
    /// 1. every [`AuditEvent::ConfigSnapshot`] must satisfy the invariants
    ///    (safe adaptation path: the system is always *at* or *between* safe
    ///    configurations, and snapshots are taken at quiescent points);
    /// 2. every [`AuditEvent::InAction`] must find no open segment on a
    ///    component it touches (adaptive actions happen in global safe
    ///    states).
    ///
    /// Bracket hygiene (ends match starts; nothing left open) is also
    /// enforced so that instrumentation bugs surface as audit failures
    /// instead of silent vacuous passes.
    pub fn audit(&self, log: &[AuditEvent]) -> AuditReport {
        let mut report = AuditReport::default();
        let mut open: HashMap<u64, CompId> = HashMap::new();
        for (ix, ev) in log.iter().enumerate() {
            match ev {
                AuditEvent::SegmentStart { cid, comp } => {
                    if open.insert(*cid, *comp).is_some() {
                        report.violations.push(Violation {
                            at: ix,
                            kind: ViolationKind::MalformedSegment { cid: *cid },
                            detail: format!("segment {cid} started twice"),
                        });
                    }
                }
                AuditEvent::SegmentEnd { cid, comp } => match open.remove(cid) {
                    Some(start_comp) if start_comp == *comp => {
                        report.segments_completed += 1;
                    }
                    Some(start_comp) => {
                        report.violations.push(Violation {
                            at: ix,
                            kind: ViolationKind::MalformedSegment { cid: *cid },
                            detail: format!(
                                "segment {cid} ended by c{} but started by c{}",
                                comp.index(),
                                start_comp.index()
                            ),
                        });
                    }
                    None => {
                        report.violations.push(Violation {
                            at: ix,
                            kind: ViolationKind::MalformedSegment { cid: *cid },
                            detail: format!("segment {cid} ended without starting"),
                        });
                    }
                },
                AuditEvent::SegmentLost { cid, comp } => match open.remove(cid) {
                    Some(start_comp) if start_comp == *comp => {
                        report.segments_lost += 1;
                    }
                    Some(start_comp) => {
                        report.violations.push(Violation {
                            at: ix,
                            kind: ViolationKind::MalformedSegment { cid: *cid },
                            detail: format!(
                                "segment {cid} lost by c{} but started by c{}",
                                comp.index(),
                                start_comp.index()
                            ),
                        });
                    }
                    None => {
                        report.violations.push(Violation {
                            at: ix,
                            kind: ViolationKind::MalformedSegment { cid: *cid },
                            detail: format!("segment {cid} lost without starting"),
                        });
                    }
                },
                AuditEvent::InAction { label, comps } => {
                    report.in_actions += 1;
                    for (&cid, &comp) in &open {
                        if comps.contains(&comp) {
                            report.violations.push(Violation {
                                at: ix,
                                kind: ViolationKind::InterruptedSegment { cid, comp },
                                detail: format!(
                                    "in-action {label:?} interrupted segment {cid} on c{}",
                                    comp.index()
                                ),
                            });
                        }
                    }
                }
                AuditEvent::ConfigSnapshot { config } => {
                    report.configs_checked += 1;
                    if !self.invariants.satisfied_by(config) {
                        report.violations.push(Violation {
                            at: ix,
                            kind: ViolationKind::UnsafeConfiguration,
                            detail: format!(
                                "configuration {config} violates dependency invariants"
                            ),
                        });
                    }
                }
            }
        }
        for (&cid, &comp) in &open {
            report.violations.push(Violation {
                at: log.len(),
                kind: ViolationKind::MalformedSegment { cid },
                detail: format!("segment {cid} on c{} never ended", comp.index()),
            });
        }
        // Deterministic ordering even for the HashMap-derived findings.
        report
            .violations
            .sort_by(|a, b| (a.at, format!("{:?}", a.kind)).cmp(&(b.at, format!("{:?}", b.kind))));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sada_expr::Universe;

    fn setup() -> (Universe, SafetyAuditor, CompId, CompId) {
        let mut u = Universe::new();
        let inv = InvariantSet::parse(&["one_of(A, B)"], &mut u).unwrap();
        let a = u.id("A").unwrap();
        let b = u.id("B").unwrap();
        (u, SafetyAuditor::new(inv), a, b)
    }

    #[test]
    fn clean_run_is_safe() {
        let (u, auditor, a, b) = setup();
        let log = vec![
            AuditEvent::ConfigSnapshot { config: u.config_of(&["A"]) },
            AuditEvent::SegmentStart { cid: 1, comp: a },
            AuditEvent::SegmentEnd { cid: 1, comp: a },
            AuditEvent::InAction { label: "A->B".into(), comps: vec![a, b] },
            AuditEvent::ConfigSnapshot { config: u.config_of(&["B"]) },
        ];
        let report = auditor.audit(&log);
        assert!(report.is_safe(), "{:?}", report.violations);
        assert_eq!(report.configs_checked, 2);
        assert_eq!(report.segments_completed, 1);
        assert_eq!(report.in_actions, 1);
    }

    #[test]
    fn unsafe_configuration_is_flagged() {
        let (u, auditor, _a, _b) = setup();
        let log = vec![AuditEvent::ConfigSnapshot { config: u.config_of(&["A", "B"]) }];
        let report = auditor.audit(&log);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::UnsafeConfiguration);
    }

    #[test]
    fn interrupting_an_open_segment_is_flagged() {
        let (_u, auditor, a, b) = setup();
        let log = vec![
            AuditEvent::SegmentStart { cid: 7, comp: a },
            AuditEvent::InAction { label: "A->B".into(), comps: vec![a, b] },
            AuditEvent::SegmentEnd { cid: 7, comp: a },
        ];
        let report = auditor.audit(&log);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(
            report.violations[0].kind,
            ViolationKind::InterruptedSegment { cid: 7, comp: a }
        );
        assert_eq!(report.violations[0].at, 1);
    }

    #[test]
    fn in_action_on_unrelated_component_is_fine() {
        let (_u, auditor, a, b) = setup();
        let log = vec![
            AuditEvent::SegmentStart { cid: 7, comp: a },
            AuditEvent::InAction { label: "touch B".into(), comps: vec![b] },
            AuditEvent::SegmentEnd { cid: 7, comp: a },
        ];
        assert!(auditor.audit(&log).is_safe());
    }

    #[test]
    fn malformed_brackets_are_flagged() {
        let (_u, auditor, a, b) = setup();
        // end-without-start
        let r1 = auditor.audit(&[AuditEvent::SegmentEnd { cid: 1, comp: a }]);
        assert!(matches!(r1.violations[0].kind, ViolationKind::MalformedSegment { cid: 1 }));
        // double start
        let r2 = auditor.audit(&[
            AuditEvent::SegmentStart { cid: 1, comp: a },
            AuditEvent::SegmentStart { cid: 1, comp: a },
            AuditEvent::SegmentEnd { cid: 1, comp: a },
        ]);
        assert!(!r2.is_safe());
        // mismatched component
        let r3 = auditor.audit(&[
            AuditEvent::SegmentStart { cid: 1, comp: a },
            AuditEvent::SegmentEnd { cid: 1, comp: b },
        ]);
        assert!(!r3.is_safe());
        // never closed
        let r4 = auditor.audit(&[AuditEvent::SegmentStart { cid: 1, comp: a }]);
        assert_eq!(r4.violations[0].at, 1, "reported at end of log");
    }

    #[test]
    fn concurrent_segments_tracked_independently() {
        let (_u, auditor, a, b) = setup();
        let log = vec![
            AuditEvent::SegmentStart { cid: 1, comp: a },
            AuditEvent::SegmentStart { cid: 2, comp: b },
            AuditEvent::SegmentEnd { cid: 1, comp: a },
            // Only cid 2 (component b) is open; touching a is fine now.
            AuditEvent::InAction { label: "touch A".into(), comps: vec![a] },
            AuditEvent::SegmentEnd { cid: 2, comp: b },
        ];
        let report = auditor.audit(&log);
        assert!(report.is_safe(), "{:?}", report.violations);
        assert_eq!(report.segments_completed, 2);
    }

    #[test]
    fn fault_lost_segment_closes_without_completing() {
        let (_u, auditor, a, b) = setup();
        let log = vec![
            AuditEvent::SegmentStart { cid: 1, comp: a },
            AuditEvent::SegmentLost { cid: 1, comp: a },
            // The segment is closed: an in-action on `a` is now legal.
            AuditEvent::InAction { label: "A->B".into(), comps: vec![a, b] },
        ];
        let report = auditor.audit(&log);
        assert!(report.is_safe(), "{:?}", report.violations);
        assert_eq!(report.segments_completed, 0);
        assert_eq!(report.segments_lost, 1);
    }

    #[test]
    fn lost_event_hygiene_is_enforced() {
        let (_u, auditor, a, b) = setup();
        // lost-without-start
        let r1 = auditor.audit(&[AuditEvent::SegmentLost { cid: 3, comp: a }]);
        assert!(matches!(r1.violations[0].kind, ViolationKind::MalformedSegment { cid: 3 }));
        // mismatched component
        let r2 = auditor.audit(&[
            AuditEvent::SegmentStart { cid: 3, comp: a },
            AuditEvent::SegmentLost { cid: 3, comp: b },
        ]);
        assert!(!r2.is_safe());
    }

    #[test]
    fn in_action_before_the_loss_is_still_a_violation() {
        // A crash cannot retroactively excuse an adaptive action that cut a
        // live segment: the interruption check fires at the InAction event.
        let (_u, auditor, a, b) = setup();
        let log = vec![
            AuditEvent::SegmentStart { cid: 9, comp: a },
            AuditEvent::InAction { label: "A->B".into(), comps: vec![a, b] },
            AuditEvent::SegmentLost { cid: 9, comp: a },
        ];
        let report = auditor.audit(&log);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(
            report.violations[0].kind,
            ViolationKind::InterruptedSegment { cid: 9, comp: a }
        );
    }

    #[test]
    fn multiple_violations_all_reported_in_order() {
        let (u, auditor, a, _b) = setup();
        let log = vec![
            AuditEvent::ConfigSnapshot { config: u.config_of(&["A", "B"]) },
            AuditEvent::SegmentStart { cid: 1, comp: a },
            AuditEvent::InAction { label: "A->B".into(), comps: vec![a] },
            AuditEvent::ConfigSnapshot { config: u.empty_config() },
        ];
        let report = auditor.audit(&log);
        // unsafe snapshot, interrupted segment, unsafe snapshot, unclosed segment
        assert_eq!(report.violations.len(), 4);
        let ats: Vec<usize> = report.violations.iter().map(|v| v.at).collect();
        assert_eq!(ats, vec![0, 2, 3, 4]);
    }
}
