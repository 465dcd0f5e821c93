//! Bridges audit-event streams into the temporal detector, so safe states
//! can be identified *automatically* from the same instrumentation the
//! safety auditor consumes — closing the loop the paper proposes in
//! Section 7.
//!
//! Obligations are identified by the typed [`ObligationKey`] (component +
//! segment edge); the legacy string form (`seg_start_c0`) appears only at
//! the [`ResponseSpec`] parser boundary, via the key's `Display`. The
//! detector consumes either a flat [`AuditEvent`] log or, through
//! [`derive_temporal_events`], the unified observability bus stream
//! directly.

use sada_expr::CompId;
use sada_model::AuditEvent;
use sada_obs::{Event, ObligationKey, Payload, SegmentEdge, TemporalEvent, NO_ACTOR};

use crate::formula::Formula;
use crate::obligations::{ObligationEvent, ResponseSpec, SafeStateMonitor};

/// For each component in `comps`, derives the response obligation "every
/// segment started on this component eventually ends".
pub(crate) fn segment_specs(comps: &[CompId]) -> Vec<ResponseSpec> {
    comps
        .iter()
        .map(|&c| {
            ResponseSpec::new(
                &format!("segment-c{}", c.index()),
                &ObligationKey::start(c).to_string(),
                &ObligationKey::end(c).to_string(),
            )
        })
        .collect()
}

/// The typed obligation identity an audit event carries for `comps`, if
/// any: which segment bracket edge, on which component, correlated by cid.
fn obligation_key(ev: &AuditEvent, comps: &[CompId]) -> Option<(ObligationKey, u64)> {
    match ev {
        AuditEvent::SegmentStart { cid, comp } if comps.contains(comp) => {
            Some((ObligationKey::start(*comp), *cid))
        }
        AuditEvent::SegmentEnd { cid, comp } if comps.contains(comp) => {
            Some((ObligationKey::end(*comp), *cid))
        }
        _ => None,
    }
}

fn to_obligation_events(ev: &AuditEvent, comps: &[CompId]) -> Vec<ObligationEvent> {
    match obligation_key(ev, comps) {
        Some((key, cid)) => vec![ObligationEvent::new(&key.to_string(), cid)],
        None => Vec::new(),
    }
}

/// Replays an audit log and returns the indices after which an adaptive
/// action touching `comps` could run safely: positions where every segment
/// obligation on those components is fulfilled.
///
/// This is the paper's automatic safe-state identification: the same
/// temporal criterion the agents implement by hand ("the decoder is not
/// decoding a packet", drained streams) is *derived* from the event stream.
pub fn safe_points(log: &[AuditEvent], comps: &[CompId]) -> Vec<usize> {
    let mut monitor = SafeStateMonitor::new(Formula::Const(true), segment_specs(comps));
    let mut out = Vec::new();
    for (ix, ev) in log.iter().enumerate() {
        let events = to_obligation_events(ev, comps);
        if monitor.step(&events, &|_| false) {
            out.push(ix);
        }
    }
    out
}

/// Consumes a unified bus stream and derives the temporal-layer events it
/// implies for `comps`: one obligation opened/discharged per segment
/// bracket edge (identified by the typed [`ObligationKey`]) plus a
/// [`TemporalEvent::SafePoint`] each time the monitor *re-enters* safety
/// after being unsafe. The derived events ride the same [`Event`] envelope
/// (obligations keep the observing actor; safe points are system-level and
/// carry [`NO_ACTOR`]), so callers can merge them back onto a bus or into
/// a trace.
pub fn derive_temporal_events(stream: &[Event], comps: &[CompId]) -> Vec<Event> {
    let mut monitor = SafeStateMonitor::new(Formula::Const(true), segment_specs(comps));
    let mut out = Vec::new();
    let mut was_safe = true;
    for (ix, ev) in stream.iter().enumerate() {
        let typed = match &ev.payload {
            Payload::Audit(a) => obligation_key(a, comps),
            _ => None,
        };
        let obls = match (&ev.payload, typed) {
            (Payload::Audit(a), Some(_)) => to_obligation_events(a, comps),
            _ => Vec::new(),
        };
        if let Some((key, cid)) = typed {
            let t = match key.edge {
                SegmentEdge::Start => TemporalEvent::ObligationOpened { key, cid },
                SegmentEdge::End => TemporalEvent::ObligationDischarged { key, cid },
            };
            out.push(Event {
                at: ev.at,
                actor: ev.actor,
                session: ev.session,
                shard: ev.shard,
                payload: Payload::Temporal(t),
            });
        }
        let safe = monitor.step(&obls, &|_| false);
        if safe && !was_safe {
            out.push(Event {
                at: ev.at,
                actor: NO_ACTOR,
                session: ev.session,
                shard: ev.shard,
                payload: Payload::Temporal(TemporalEvent::SafePoint { index: ix as u64 }),
            });
        }
        was_safe = safe;
    }
    out
}

/// Convenience verdict: would an in-action on `comps` at position `at`
/// (i.e. after `log[at]` was processed) have been safe?
pub fn is_safe_at(log: &[AuditEvent], comps: &[CompId], at: usize) -> bool {
    safe_points(&log[..=at.min(log.len().saturating_sub(1))], comps)
        .last()
        .is_some_and(|&p| p == at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sada_expr::Universe;
    use sada_model::{AuditEvent, SafetyAuditor};
    use sada_obs::{NetEvent, SimTime};

    fn comp(i: usize) -> CompId {
        CompId::from_index(i)
    }

    fn log_with_gap() -> Vec<AuditEvent> {
        vec![
            AuditEvent::SegmentStart { cid: 1, comp: comp(0) }, // 0: open
            AuditEvent::SegmentEnd { cid: 1, comp: comp(0) },   // 1: closed
            AuditEvent::SegmentStart { cid: 2, comp: comp(0) }, // 2: open
            AuditEvent::SegmentStart { cid: 3, comp: comp(1) }, // 3: both open
            AuditEvent::SegmentEnd { cid: 2, comp: comp(0) },   // 4: only c1 open
            AuditEvent::SegmentEnd { cid: 3, comp: comp(1) },   // 5: closed
        ]
    }

    /// The same log, riding the bus envelope with a network event wedged in
    /// between every audit fact.
    fn stream_with_gap() -> Vec<Event> {
        let mut out = Vec::new();
        for (ix, a) in log_with_gap().into_iter().enumerate() {
            out.push(Event {
                at: SimTime::from_millis(ix as u64),
                actor: 0,
                session: 0,
                shard: 0,
                payload: Payload::Audit(a),
            });
            out.push(Event {
                at: SimTime::from_millis(ix as u64),
                actor: 1,
                session: 0,
                shard: 0,
                payload: Payload::Net(NetEvent::Sent { from: 1, to: 0 }),
            });
        }
        out
    }

    #[test]
    fn safe_points_match_segment_gaps() {
        let log = log_with_gap();
        assert_eq!(safe_points(&log, &[comp(0)]), vec![1, 4, 5]);
        assert_eq!(safe_points(&log, &[comp(1)]), vec![0, 1, 2, 5]);
        assert_eq!(safe_points(&log, &[comp(0), comp(1)]), vec![1, 5]);
    }

    #[test]
    fn derived_temporal_events_bracket_obligations() {
        let stream = stream_with_gap();
        let derived = derive_temporal_events(&stream, &[comp(0), comp(1)]);
        let opened = derived
            .iter()
            .filter(|e| {
                matches!(e.payload, Payload::Temporal(TemporalEvent::ObligationOpened { .. }))
            })
            .count();
        let discharged = derived
            .iter()
            .filter(|e| {
                matches!(e.payload, Payload::Temporal(TemporalEvent::ObligationDischarged { .. }))
            })
            .count();
        assert_eq!((opened, discharged), (3, 3), "one bracket pair per segment");
        // Safety is re-entered twice: after cid 1 closes and after 2 and 3
        // both close. Safe-point indices point at the discharging events.
        let safe_ixs: Vec<u64> = derived
            .iter()
            .filter_map(|e| match e.payload {
                Payload::Temporal(TemporalEvent::SafePoint { index }) => Some(index),
                _ => None,
            })
            .collect();
        assert_eq!(safe_ixs, vec![2, 10]);
        // The typed key round-trips through the parser-boundary string form.
        let first_key = derived
            .iter()
            .find_map(|e| match e.payload {
                Payload::Temporal(TemporalEvent::ObligationOpened { key, .. }) => Some(key),
                _ => None,
            })
            .unwrap();
        assert_eq!(first_key.to_string().parse::<ObligationKey>().unwrap(), first_key);
    }

    #[test]
    fn is_safe_at_spot_checks() {
        let log = log_with_gap();
        assert!(is_safe_at(&log, &[comp(0)], 1));
        assert!(!is_safe_at(&log, &[comp(0)], 2));
        assert!(is_safe_at(&log, &[comp(0)], 4));
    }

    /// The detector and the hand-written auditor must agree: inserting an
    /// in-action at a detector-approved point passes the audit; inserting
    /// it anywhere else fails.
    #[test]
    fn detector_agrees_with_safety_auditor() {
        let mut u = Universe::new();
        let a = u.intern("A");
        let b = u.intern("B");
        let auditor = SafetyAuditor::new(sada_expr::InvariantSet::new());
        let base = vec![
            AuditEvent::SegmentStart { cid: 1, comp: a },
            AuditEvent::SegmentEnd { cid: 1, comp: a },
            AuditEvent::SegmentStart { cid: 2, comp: a },
            AuditEvent::SegmentEnd { cid: 2, comp: a },
        ];
        let touched = vec![a, b];
        for insert_at in 0..=base.len() {
            let mut log = base.clone();
            log.insert(
                insert_at,
                AuditEvent::InAction { label: "A->B".into(), comps: touched.clone() },
            );
            let audit_ok = auditor.audit(&log).is_safe();
            // The detector judges the prefix *before* the in-action.
            let detector_ok = if insert_at == 0 {
                true // nothing open at the origin
            } else {
                is_safe_at(&base, &touched, insert_at - 1)
            };
            assert_eq!(audit_ok, detector_ok, "divergence when inserting in-action at {insert_at}");
        }
    }
}
