//! Ready-made sinks: bounded ring buffer, category counters, audit trail.

use std::collections::VecDeque;

use sada_model::AuditEvent;

use crate::bus::Sink;
use crate::event::{Event, NetEvent, Payload};

/// Keeps the most recent `capacity` events (older ones are evicted), so a
/// long run's tail can be inspected at bounded memory.
#[derive(Debug, Clone)]
pub struct RingSink {
    capacity: usize,
    buf: VecDeque<Event>,
    seen: u64,
}

impl RingSink {
    /// A ring holding at most `capacity` events. Capacity zero keeps
    /// nothing but still counts.
    pub fn new(capacity: usize) -> Self {
        RingSink { capacity, buf: VecDeque::with_capacity(capacity.min(4096)), seen: 0 }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.buf.iter().cloned().collect()
    }

    /// Number of retained events (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events observed over the sink's lifetime (including evicted).
    pub fn total_seen(&self) -> u64 {
        self.seen
    }
}

impl Sink for RingSink {
    fn accept(&mut self, ev: &Event) {
        self.seen += 1;
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(ev.clone());
    }

    fn accept_batch(&mut self, evs: &[Event]) {
        self.seen += evs.len() as u64;
        if self.capacity == 0 {
            return;
        }
        // Only the last `capacity` events of the batch can survive; skip
        // straight to them instead of cloning events that would be evicted
        // before the batch even finishes.
        let keep = &evs[evs.len().saturating_sub(self.capacity)..];
        let evict = (self.buf.len() + keep.len()).saturating_sub(self.capacity);
        self.buf.drain(..evict);
        self.buf.extend(keep.iter().cloned());
    }
}

/// Counts events per layer and per network kind without retaining them —
/// the cheapest always-on metrics sink.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSink {
    /// Every event observed.
    pub total: u64,
    /// Net-layer sends.
    pub net_sent: u64,
    /// Net-layer deliveries.
    pub net_delivered: u64,
    /// Net-layer drops.
    pub net_dropped: u64,
    /// Net-layer timer firings.
    pub timers_fired: u64,
    /// Crash faults.
    pub crashes: u64,
    /// Restart faults.
    pub restarts: u64,
    /// Protocol-layer events.
    pub proto: u64,
    /// Audit-layer events.
    pub audit: u64,
    /// Temporal-layer events.
    pub(crate) temporal: u64,
    /// Planning-layer events.
    pub plan: u64,
    /// Control-plane (fleet scheduling) events.
    pub(crate) fleet: u64,
}

impl CounterSink {
    /// A zeroed counter set.
    pub fn new() -> Self {
        CounterSink::default()
    }
}

impl Sink for CounterSink {
    fn accept(&mut self, ev: &Event) {
        self.total += 1;
        match &ev.payload {
            Payload::Net(n) => match n {
                NetEvent::Sent { .. } => self.net_sent += 1,
                NetEvent::Delivered { .. } => self.net_delivered += 1,
                NetEvent::Dropped { .. } => self.net_dropped += 1,
                NetEvent::TimerFired { .. } => self.timers_fired += 1,
                NetEvent::Crashed => self.crashes += 1,
                NetEvent::Restarted => self.restarts += 1,
            },
            Payload::Proto(_) => self.proto += 1,
            Payload::Audit(_) => self.audit += 1,
            Payload::Temporal(_) => self.temporal += 1,
            Payload::Plan(_) => self.plan += 1,
            Payload::Fleet(_) => self.fleet += 1,
        }
    }
}

/// Collects the audit-layer projection of the stream: exactly the flat
/// [`AuditEvent`] log the safety auditor replays. This is what replaced the
/// video audit log's private event vec.
#[derive(Debug, Clone, Default)]
pub struct AuditTrail {
    events: Vec<AuditEvent>,
}

impl AuditTrail {
    /// An empty trail.
    pub fn new() -> Self {
        AuditTrail::default()
    }

    /// The collected audit events, in emission order.
    pub fn events(&self) -> &[AuditEvent] {
        &self.events
    }

    /// Clones the trail out for the auditor.
    pub fn to_vec(&self) -> Vec<AuditEvent> {
        self.events.clone()
    }

    /// Number of audit events collected.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no audit event has been observed.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl Sink for AuditTrail {
    fn accept(&mut self, ev: &Event) {
        if let Payload::Audit(a) = &ev.payload {
            self.events.push(a.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use sada_expr::CompId;

    fn ev(at: u64, payload: Payload) -> Event {
        Event { at: SimTime::from_micros(at), actor: 0, session: 0, shard: 0, payload }
    }

    #[test]
    fn ring_evicts_oldest_and_keeps_counting() {
        let mut ring = RingSink::new(2);
        for i in 0..5 {
            ring.accept(&ev(i, Payload::Net(NetEvent::TimerFired { tag: i })));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.total_seen(), 5);
        let kept: Vec<u64> = ring.events().iter().map(|e| e.at.as_micros()).collect();
        assert_eq!(kept, vec![3, 4], "oldest first, newest retained");
    }

    #[test]
    fn zero_capacity_ring_retains_nothing() {
        let mut ring = RingSink::new(0);
        ring.accept(&ev(1, Payload::Net(NetEvent::Crashed)));
        assert!(ring.is_empty());
        assert_eq!(ring.total_seen(), 1);
    }

    #[test]
    fn ring_accept_batch_matches_per_event_accept() {
        let batch: Vec<Event> =
            (0..7).map(|i| ev(i, Payload::Net(NetEvent::TimerFired { tag: i }))).collect();
        for cap in [0, 1, 2, 3, 7, 10] {
            let mut looped = RingSink::new(cap);
            for e in &batch {
                looped.accept(e);
            }
            let mut batched = RingSink::new(cap);
            batched.accept_batch(&batch);
            assert_eq!(batched.events(), looped.events(), "capacity {cap}");
            assert_eq!(batched.total_seen(), looped.total_seen(), "capacity {cap}");
        }
        // A second batch on a pre-populated ring exercises the drain path.
        let mut looped = RingSink::new(4);
        let mut batched = RingSink::new(4);
        for sink in [&mut looped, &mut batched] {
            sink.accept_batch(&batch[..3]);
        }
        for e in &batch {
            looped.accept(e);
        }
        batched.accept_batch(&batch);
        assert_eq!(batched.events(), looped.events());
    }

    #[test]
    fn counters_split_by_layer_and_kind() {
        let mut c = CounterSink::new();
        c.accept(&ev(0, Payload::Net(NetEvent::Sent { from: 0, to: 1 })));
        c.accept(&ev(1, Payload::Net(NetEvent::Delivered { from: 0, to: 1 })));
        c.accept(&ev(2, Payload::Net(NetEvent::Dropped { from: 0, to: 1 })));
        c.accept(&ev(3, Payload::Net(NetEvent::Crashed)));
        c.accept(&ev(4, Payload::Net(NetEvent::Restarted)));
        c.accept(&ev(
            5,
            Payload::Audit(AuditEvent::SegmentStart { cid: 1, comp: CompId::from_index(0) }),
        ));
        assert_eq!(c.total, 6);
        assert_eq!((c.net_sent, c.net_delivered, c.net_dropped), (1, 1, 1));
        assert_eq!((c.crashes, c.restarts, c.audit), (1, 1, 1));
    }

    #[test]
    fn audit_trail_projects_only_audit_events() {
        let mut t = AuditTrail::new();
        t.accept(&ev(0, Payload::Net(NetEvent::Crashed)));
        let a = AuditEvent::SegmentStart { cid: 9, comp: CompId::from_index(2) };
        t.accept(&ev(1, Payload::Audit(a.clone())));
        assert_eq!(t.events(), &[a]);
        assert_eq!(t.len(), 1);
    }
}
