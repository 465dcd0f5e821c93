//! The event bus: one producer-facing handle, pluggable consumer sinks.
//!
//! A [`Bus`] is a cheaply-cloneable handle to a shared sink list; every
//! layer of a run (simulator, protocol adapters, audit log, harness) holds a
//! clone of the same bus and emits through it. Sinks are attached by the
//! harness depending on what it wants out of the run — nothing, counters, a
//! bounded ring, a replayable JSONL trace — and emission with zero sinks is
//! a branch on an empty vec, so instrumented hot paths cost nothing when
//! nobody is listening (use [`Bus::publish`], which defers payload
//! construction).

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::event::{Event, Payload};
use crate::time::SimTime;

/// A consumer of bus events.
///
/// Sinks observe every event emitted after they attach, in emission order.
/// `accept` must not emit back onto the same bus (single-threaded
/// re-entrancy would panic the underlying `RefCell`).
pub trait Sink {
    /// Observes one event.
    fn accept(&mut self, ev: &Event);

    /// Observes a batch of events, in order. Semantically identical to
    /// calling [`Sink::accept`] on each; sinks with a cheaper bulk path
    /// (ring buffers, buffered writers) override this.
    fn accept_batch(&mut self, evs: &[Event]) {
        for ev in evs {
            self.accept(ev);
        }
    }
}

/// A shared handle to one attached sink.
type SinkHandle = Rc<RefCell<dyn Sink>>;

/// The shared, layer-spanning event bus.
///
/// Clones share the same sink list (`Rc` semantics): attaching a sink
/// through any clone makes it visible to every producer. The simulation is
/// single-threaded, so interior mutability is `RefCell`, not locks.
#[derive(Clone, Default)]
pub struct Bus {
    sinks: Rc<RefCell<Vec<SinkHandle>>>,
    /// Session stamped onto emitted events (0 = unscoped, leave as-is).
    scope: u64,
    /// Shard stamped onto emitted events (0 = unsharded, leave as-is).
    shard: u32,
}

impl Bus {
    /// A bus with no sinks attached.
    pub fn new() -> Self {
        Bus::default()
    }

    /// A clone of this bus that stamps `session` onto every event emitted
    /// through it (events already carrying a nonzero session keep theirs).
    /// Producers stay session-agnostic; the control plane hands each
    /// embedded manager core a scoped clone and the whole event stream
    /// comes out session-tagged.
    pub fn scoped(&self, session: u64) -> Bus {
        Bus { sinks: Rc::clone(&self.sinks), scope: session, shard: self.shard }
    }

    /// A clone of this bus that stamps `shard` onto every event emitted
    /// through it (events already carrying a nonzero shard keep theirs).
    /// A sharded runtime hands each region's simulator a stamped clone and
    /// the merged multi-shard stream comes out shard-tagged; producers stay
    /// shard-agnostic, exactly like [`Bus::scoped`] for sessions.
    pub fn sharded(&self, shard: u32) -> Bus {
        Bus { sinks: Rc::clone(&self.sinks), scope: self.scope, shard }
    }

    /// The shard this handle stamps (0 when unsharded).
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Attaches `sink`; it observes every event emitted from now on. The
    /// caller keeps its handle and reads results out after the run.
    pub fn attach<S: Sink + 'static>(&self, sink: &Rc<RefCell<S>>) {
        self.sinks.borrow_mut().push(sink.clone() as SinkHandle);
    }

    /// Detaches a previously attached sink (no-op if absent).
    pub fn detach<S: Sink + 'static>(&self, sink: &Rc<RefCell<S>>) {
        let target = Rc::as_ptr(sink) as *const ();
        self.sinks.borrow_mut().retain(|s| Rc::as_ptr(s) as *const () != target);
    }

    /// True when at least one sink is attached. Producers with non-trivial
    /// payload construction should guard on this (or use [`Bus::publish`]).
    pub fn has_sinks(&self) -> bool {
        !self.sinks.borrow().is_empty()
    }

    /// Number of attached sinks.
    pub(crate) fn sink_count(&self) -> usize {
        self.sinks.borrow().len()
    }

    /// Delivers `ev` to every attached sink, in attachment order. A scoped
    /// handle fills in its session, a sharded handle its shard, on events
    /// that do not carry one.
    pub fn emit(&self, mut ev: Event) {
        if self.scope != 0 && ev.session == 0 {
            ev.session = self.scope;
        }
        if self.shard != 0 && ev.shard == 0 {
            ev.shard = self.shard;
        }
        for sink in self.sinks.borrow().iter() {
            sink.borrow_mut().accept(&ev);
        }
    }

    /// Delivers every event in `evs` to every attached sink and clears the
    /// vec (the caller keeps its capacity for reuse). Stamping is identical
    /// to per-event [`Bus::emit`]; delivery is sink-major — each sink sees
    /// the whole batch in order, so any *single* sink observes exactly the
    /// per-message emission order (only the cross-sink interleaving
    /// changes, which no sink can observe).
    pub fn emit_batch(&self, evs: &mut Vec<Event>) {
        if evs.is_empty() {
            return;
        }
        if self.scope != 0 || self.shard != 0 {
            for ev in evs.iter_mut() {
                if self.scope != 0 && ev.session == 0 {
                    ev.session = self.scope;
                }
                if self.shard != 0 && ev.shard == 0 {
                    ev.shard = self.shard;
                }
            }
        }
        for sink in self.sinks.borrow().iter() {
            sink.borrow_mut().accept_batch(evs);
        }
        evs.clear();
    }

    /// Emits a stamped event, building the payload only if a sink is
    /// attached — the zero-overhead form for hot paths.
    pub fn publish(&self, at: SimTime, actor: u32, payload: impl FnOnce() -> Payload) {
        if self.has_sinks() {
            self.emit(Event {
                at,
                actor,
                session: self.scope,
                shard: self.shard,
                payload: payload(),
            });
        }
    }
}

impl fmt::Debug for Bus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bus").field("sinks", &self.sink_count()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NetEvent;

    struct Probe {
        seen: Vec<Event>,
    }

    impl Sink for Probe {
        fn accept(&mut self, ev: &Event) {
            self.seen.push(ev.clone());
        }
    }

    fn net(at: u64) -> Event {
        Event {
            at: SimTime::from_micros(at),
            actor: 0,
            session: 0,
            shard: 0,
            payload: Payload::Net(NetEvent::Crashed),
        }
    }

    #[test]
    fn clones_share_the_sink_list() {
        let bus = Bus::new();
        let other = bus.clone();
        let probe = Rc::new(RefCell::new(Probe { seen: Vec::new() }));
        bus.attach(&probe);
        assert!(other.has_sinks());
        other.emit(net(5));
        assert_eq!(probe.borrow().seen.len(), 1);
        assert_eq!(probe.borrow().seen[0].at, SimTime::from_micros(5));
    }

    #[test]
    fn detach_stops_delivery_for_that_sink_only() {
        let bus = Bus::new();
        let a = Rc::new(RefCell::new(Probe { seen: Vec::new() }));
        let b = Rc::new(RefCell::new(Probe { seen: Vec::new() }));
        bus.attach(&a);
        bus.attach(&b);
        bus.emit(net(1));
        bus.detach(&a);
        bus.emit(net(2));
        assert_eq!(a.borrow().seen.len(), 1);
        assert_eq!(b.borrow().seen.len(), 2);
        assert_eq!(bus.sink_count(), 1);
    }

    #[test]
    fn publish_skips_payload_construction_with_zero_sinks() {
        let bus = Bus::new();
        let mut built = false;
        bus.publish(SimTime::ZERO, 0, || {
            built = true;
            Payload::Net(NetEvent::Crashed)
        });
        assert!(!built, "payload must not be built when no sink is attached");
        let probe = Rc::new(RefCell::new(Probe { seen: Vec::new() }));
        bus.attach(&probe);
        bus.publish(SimTime::ZERO, 0, || {
            built = true;
            Payload::Net(NetEvent::Crashed)
        });
        assert!(built);
        assert_eq!(probe.borrow().seen.len(), 1);
    }

    #[test]
    fn scoped_handle_stamps_session_without_overriding() {
        let bus = Bus::new();
        let probe = Rc::new(RefCell::new(Probe { seen: Vec::new() }));
        bus.attach(&probe);
        let scoped = bus.scoped(7);
        assert_eq!(scoped.scope, 7);
        assert_eq!(bus.scope, 0, "scoping is a property of the clone only");
        scoped.emit(net(1));
        scoped.publish(SimTime::from_micros(2), 0, || Payload::Net(NetEvent::Crashed));
        let mut pre_tagged = net(3);
        pre_tagged.session = 3;
        scoped.emit(pre_tagged);
        bus.emit(net(4));
        let sessions: Vec<u64> = probe.borrow().seen.iter().map(|e| e.session).collect();
        assert_eq!(sessions, vec![7, 7, 3, 0]);
    }

    #[test]
    fn sharded_handle_stamps_shard_without_overriding() {
        let bus = Bus::new();
        let probe = Rc::new(RefCell::new(Probe { seen: Vec::new() }));
        bus.attach(&probe);
        let sharded = bus.sharded(3);
        assert_eq!(sharded.shard(), 3);
        assert_eq!(bus.shard(), 0, "sharding is a property of the clone only");
        sharded.emit(net(1));
        sharded.publish(SimTime::from_micros(2), 0, || Payload::Net(NetEvent::Crashed));
        let mut pre_tagged = net(3);
        pre_tagged.shard = 9;
        sharded.emit(pre_tagged);
        // A scoped clone of a sharded handle keeps the shard, and vice versa.
        sharded.scoped(5).emit(net(4));
        bus.emit(net(5));
        let stamps: Vec<(u32, u64)> =
            probe.borrow().seen.iter().map(|e| (e.shard, e.session)).collect();
        assert_eq!(stamps, vec![(3, 0), (3, 0), (9, 0), (3, 5), (0, 0)]);
    }

    #[test]
    fn debug_does_not_recurse_into_sinks() {
        let bus = Bus::new();
        assert_eq!(format!("{bus:?}"), "Bus { sinks: 0 }");
    }

    #[test]
    fn emit_batch_stamps_and_delivers_like_per_event_emit() {
        let make = || {
            let mut evs = vec![net(1), net(2), net(3)];
            evs[1].session = 3;
            evs[2].shard = 9;
            evs
        };
        let batched = {
            let bus = Bus::new();
            let probe = Rc::new(RefCell::new(Probe { seen: Vec::new() }));
            bus.attach(&probe);
            let mut evs = make();
            bus.scoped(7).sharded(2).emit_batch(&mut evs);
            assert!(evs.is_empty(), "batch vec is drained for reuse");
            let seen = probe.borrow().seen.clone();
            seen
        };
        let looped = {
            let bus = Bus::new();
            let probe = Rc::new(RefCell::new(Probe { seen: Vec::new() }));
            bus.attach(&probe);
            let handle = bus.scoped(7).sharded(2);
            for ev in make() {
                handle.emit(ev);
            }
            let seen = probe.borrow().seen.clone();
            seen
        };
        assert_eq!(batched, looped);
        let stamps: Vec<(u64, u32)> = batched.iter().map(|e| (e.session, e.shard)).collect();
        assert_eq!(stamps, vec![(7, 2), (3, 2), (7, 9)]);
    }

    #[test]
    fn default_accept_batch_forwards_each_event() {
        let mut probe = Probe { seen: Vec::new() };
        probe.accept_batch(&[net(1), net(2)]);
        assert_eq!(probe.seen.len(), 2);
        assert_eq!(probe.seen[1].at, SimTime::from_micros(2));
    }
}
