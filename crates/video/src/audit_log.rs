//! Shared run instrumentation: the audit face of the unified event bus,
//! plus the "current configuration" view used to designate decoders.
//!
//! Every recorded [`AuditEvent`] is published on the run's [`Bus`] as a
//! timestamped `Payload::Audit` event, so the safety auditor, the temporal
//! monitor, the JSONL trace and the timeline report all replay the *same*
//! stream. The handle keeps an [`AuditTrail`] sink attached for its own
//! reads (`events()`, loss adjudication); callers can attach further sinks
//! to the same bus. The simulation is single-threaded by construction, so
//! `Rc<RefCell<…>>` is the right tool.

use std::cell::RefCell;
use std::rc::Rc;

use sada_expr::{CompId, Config};
use sada_model::AuditEvent;
use sada_obs::{AuditTrail, Bus, Payload, SimTime, NO_ACTOR};

/// Cloneable handle to the run-wide audit instrumentation.
#[derive(Debug, Clone)]
pub struct AuditShared {
    bus: Bus,
    config: Rc<RefCell<Config>>,
    trail: Rc<RefCell<AuditTrail>>,
}

impl AuditShared {
    /// Starts instrumentation on `bus` with the system in `initial`
    /// configuration (published as the first snapshot, at time zero). An
    /// [`AuditTrail`] sink is attached to the bus so the handle can read
    /// back the audit-layer projection of the stream.
    pub fn new(bus: &Bus, initial: Config) -> Self {
        let trail = Rc::new(RefCell::new(AuditTrail::new()));
        bus.attach(&trail);
        let shared =
            AuditShared { bus: bus.clone(), config: Rc::new(RefCell::new(initial.clone())), trail };
        shared.emit(SimTime::ZERO, AuditEvent::ConfigSnapshot { config: initial });
        shared
    }

    /// The bus every audit event is published on.
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// The configuration as currently believed by the instrumentation.
    pub(crate) fn config(&self) -> Config {
        self.config.borrow().clone()
    }

    fn emit(&self, at: SimTime, ev: AuditEvent) {
        // Audit facts are system-level (segments span sender and receiver),
        // so they carry the NO_ACTOR sentinel rather than one process.
        self.bus.publish(at, NO_ACTOR, || Payload::Audit(ev));
    }

    /// Records the start of a critical communication segment.
    pub(crate) fn segment_start(&self, now: SimTime, cid: u64, comp: CompId) {
        self.emit(now, AuditEvent::SegmentStart { cid, comp });
    }

    /// Records the clean completion of a segment.
    pub(crate) fn segment_end(&self, now: SimTime, cid: u64, comp: CompId) {
        self.emit(now, AuditEvent::SegmentEnd { cid, comp });
    }

    /// Records a segment destroyed by an environmental fault (the packet
    /// died in a crash outage, not under an adaptive action).
    pub(crate) fn segment_lost(&self, now: SimTime, cid: u64, comp: CompId) {
        self.emit(now, AuditEvent::SegmentLost { cid, comp });
    }

    /// Closes every still-open segment whose cid has the given high-16-bit
    /// `owner` tag as [`AuditEvent::SegmentLost`], returning the closed
    /// set. Called when the owning client restarts after a crash (and again
    /// by the scenario harness at end of run, in case the client never came
    /// back): packets multicast while the client was down were destroyed by
    /// the fault, so their segments can never end normally and must not be
    /// counted as interrupted by later adaptive actions. The caller
    /// suppresses normal segment-ends for the returned cids — a packet
    /// still in flight at restart (at most one link latency's worth) is
    /// conservatively treated as lost too.
    pub(crate) fn adjudicate_lost(&self, now: SimTime, owner: u64) -> Vec<(u64, CompId)> {
        let open: Vec<(u64, CompId)> = {
            let trail = self.trail.borrow();
            let mut open = std::collections::HashMap::new();
            for ev in trail.events() {
                match ev {
                    AuditEvent::SegmentStart { cid, comp } => {
                        open.insert(*cid, *comp);
                    }
                    AuditEvent::SegmentEnd { cid, .. } | AuditEvent::SegmentLost { cid, .. } => {
                        open.remove(cid);
                    }
                    _ => {}
                }
            }
            let mut v: Vec<_> = open.into_iter().filter(|(cid, _)| cid >> 48 == owner).collect();
            v.sort_unstable();
            v
        };
        for &(cid, comp) in &open {
            self.segment_lost(now, cid, comp);
        }
        open
    }

    /// Records an atomic structural in-action and updates the configuration
    /// view.
    pub(crate) fn in_action(&self, now: SimTime, label: &str, removes: &[CompId], adds: &[CompId]) {
        {
            let mut config = self.config.borrow_mut();
            for &c in removes {
                config.remove(c);
            }
            for &c in adds {
                config.insert(c);
            }
        }
        let comps = removes.iter().chain(adds).copied().collect();
        self.emit(now, AuditEvent::InAction { label: label.to_string(), comps });
    }

    /// Records a configuration snapshot at a quiescent point.
    pub(crate) fn snapshot(&self, now: SimTime) {
        let config = self.config.borrow().clone();
        self.emit(now, AuditEvent::ConfigSnapshot { config });
    }

    /// The audit-layer projection of the bus stream, for the auditor.
    pub(crate) fn events(&self) -> Vec<AuditEvent> {
        self.trail.borrow().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sada_expr::Universe;
    use sada_obs::Counts;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn log_accumulates_and_tracks_config() {
        let mut u = Universe::new();
        let a = u.intern("A");
        let b = u.intern("B");
        let bus = Bus::new();
        let shared = AuditShared::new(&bus, u.config_of(&["A"]));
        let clone = shared.clone();
        clone.segment_start(t(1), 1, a);
        clone.segment_end(t(2), 1, a);
        shared.in_action(t(3), "A->B", &[a], &[b]);
        assert_eq!(shared.config(), u.config_of(&["B"]));
        shared.snapshot(t(4));
        let ev = shared.events();
        assert_eq!(ev.len(), 5, "initial snapshot + 4 events");
        assert!(matches!(ev[0], AuditEvent::ConfigSnapshot { .. }));
        assert!(matches!(ev.last(), Some(AuditEvent::ConfigSnapshot { .. })));
    }

    #[test]
    fn every_audit_fact_rides_the_shared_bus() {
        let mut u = Universe::new();
        let a = u.intern("A");
        let bus = Bus::new();
        let counts = Rc::new(RefCell::new(Counts::new()));
        bus.attach(&counts);
        let shared = AuditShared::new(&bus, u.config_of(&["A"]));
        shared.segment_start(t(1), 7, a);
        shared.segment_lost(t(2), 7, a);
        let counts = counts.borrow();
        let audit = counts.layers().into_iter().find(|&(layer, _)| layer == "audit");
        assert_eq!(audit, Some(("audit", 3)), "snapshot + start + lost, all published");
        assert_eq!(counts.total(), 3, "nothing but audit events emitted here");
        assert_eq!(shared.events().len(), 3, "trail sees the same stream");
    }

    #[test]
    fn adjudication_closes_only_the_owners_open_segments() {
        let mut u = Universe::new();
        let a = u.intern("A");
        let bus = Bus::new();
        let shared = AuditShared::new(&bus, u.config_of(&["A"]));
        let owned = (2 << 48) | 5;
        let other = (1 << 48) | 9;
        shared.segment_start(t(1), owned, a);
        shared.segment_start(t(1), other, a);
        let closed = shared.adjudicate_lost(t(3), 2);
        assert_eq!(closed, vec![(owned, a)]);
        let lost: Vec<_> = shared
            .events()
            .into_iter()
            .filter(|e| matches!(e, AuditEvent::SegmentLost { .. }))
            .collect();
        assert_eq!(lost, vec![AuditEvent::SegmentLost { cid: owned, comp: a }]);
    }
}
