//! Ready-made sinks: bounded ring buffer, per-kind counts, audit trail.

use std::collections::VecDeque;
use std::iter::Sum;
use std::ops::Index;

use sada_model::AuditEvent;

use crate::bus::Sink;
use crate::codec::{Kind, KINDS};
use crate::event::{Event, Payload};

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

/// Events counted per [`Kind`]: a fold of the stream into one slot per row
/// of the kind table (indexed, not hashed). A run's deterministic counters
/// are read from it, so they can be rebuilt from its trace alone
/// ([`Counts::of`]); shards merge theirs by addition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts([u64; KINDS]);

impl Default for Counts {
    fn default() -> Self {
        Counts([0; KINDS])
    }
}

impl Counts {
    /// Nothing counted.
    pub fn new() -> Self {
        Counts::default()
    }

    /// The fold of `events`.
    pub fn of(events: &[Event]) -> Counts {
        let mut counts = Counts::new();
        counts.accept_batch(events);
        counts
    }

    /// Every event counted.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Every kind and its count, in table order.
    pub fn iter(&self) -> impl Iterator<Item = (Kind, u64)> + '_ {
        Kind::ALL.into_iter().zip(self.0)
    }

    /// Every layer — what a kind's name says before its `.` — and its
    /// events, in table order.
    pub fn layers(&self) -> Vec<(&'static str, u64)> {
        let mut layers: Vec<(&'static str, u64)> = Vec::new();
        for (kind, n) in self.iter() {
            let layer = kind.name().split_once('.').map_or(kind.name(), |(layer, _)| layer);
            match layers.last_mut() {
                Some((last, sum)) if *last == layer => *sum += n,
                _ => layers.push((layer, n)),
            }
        }
        layers
    }
}

impl Index<Kind> for Counts {
    type Output = u64;

    fn index(&self, kind: Kind) -> &u64 {
        &self.0[kind as usize]
    }
}

impl<'a> Sum<&'a Counts> for Counts {
    fn sum<I: Iterator<Item = &'a Counts>>(shards: I) -> Counts {
        let mut sum = Counts::new();
        for counts in shards {
            sum.0.iter_mut().zip(counts.0).for_each(|(n, m)| *n += m);
        }
        sum
    }
}

impl Sink for Counts {
    fn accept(&mut self, ev: &Event) {
        self.0[Kind::of(&ev.payload) as usize] += 1;
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
    use crate::event::NetEvent;
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
    fn counts_fold_by_kind_and_merge_by_addition() {
        let events = [
            ev(0, Payload::Net(NetEvent::Sent { from: 0, to: 1 })),
            ev(1, Payload::Net(NetEvent::Sent { from: 1, to: 0 })),
            ev(2, Payload::Net(NetEvent::Crashed)),
            ev(3, Payload::Audit(AuditEvent::SegmentStart { cid: 1, comp: CompId::from_index(0) })),
        ];
        let mut c = Counts::new();
        for e in &events {
            c.accept(e);
        }
        assert_eq!(c, Counts::of(&events), "a sink and a fold of the same stream agree");
        assert_eq!((c[Kind::Sent], c[Kind::Crashed], c[Kind::SegmentStart]), (2, 1, 1));
        assert_eq!((c[Kind::Delivered], c.total()), (0, 4));
        let layers = [("net", 3), ("proto", 0), ("audit", 1), ("temporal", 0), ("plan", 0)];
        assert_eq!(c.layers()[..5], layers);
        let nonzero: Vec<&str> = c.iter().filter(|&(_, n)| n > 0).map(|(k, _)| k.name()).collect();
        assert_eq!(nonzero, ["net.sent", "net.crashed", "audit.seg_start"], "table order");
        let merged: Counts = [c.clone(), Counts::of(&events[2..])].iter().sum();
        assert_eq!((merged[Kind::Sent], merged[Kind::Crashed], merged.total()), (2, 2, 6));
    }

    #[test]
    fn kinds_are_the_table_in_order() {
        assert_eq!(Kind::ALL.len(), KINDS);
        for (ix, kind) in Kind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, ix, "{kind:?}");
        }
        assert_eq!(Kind::of(&Payload::Net(NetEvent::Crashed)).name(), "net.crashed");
        assert_eq!(Kind::SessionShed.name(), "fleet.shed");
        let layers: Vec<&str> = Counts::new().layers().iter().map(|&(layer, _)| layer).collect();
        assert_eq!(layers, ["net", "proto", "audit", "temporal", "plan", "fleet"], "one run each");
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
