//! # sada-simnet — deterministic discrete-event network simulation
//!
//! This crate is the testbed substrate for the DSN 2004 safe-adaptation
//! reproduction. The paper evaluated its protocol on a physical wireless
//! testbed (a video server multicasting to an iPAQ and a laptop). Because the
//! protocol's correctness argument is entirely about *message orderings,
//! losses and timeouts*, we replace the testbed with a seeded discrete-event
//! simulator: every run is a deterministic function of its seed, which lets
//! the test suite replay the paper's failure scenarios (loss-of-message,
//! fail-to-reset) exactly.
//!
//! ## Model
//!
//! * [`Simulator`] owns a virtual clock ([`SimTime`], microsecond
//!   resolution), a priority queue of events, and a set of [`Actor`]s.
//! * Actors communicate by sending messages over directed links configured
//!   with latency, jitter and loss probability ([`LinkConfig`]), or to
//!   multicast groups.
//! * Actors set one-shot timers and are woken with the value they armed:
//!   a simulator picks one [`Timer`] type, as it picks one message type,
//!   and a `net.timer` event renders a timer as its [`Timer::tag`].
//! * A run of ids can share one [`ArenaActor`]. The stock arena,
//!   [`CloneArena`], clones a member from one prototype when a message,
//!   timer, crash or restart first reaches it; until then the member costs
//!   a 4-byte slot.
//! * Ties in delivery time are broken by a global sequence number so runs
//!   are reproducible bit-for-bit.
//!
//! ## Fault injection
//!
//! A [`FaultPlan`] schedules process- and network-level faults alongside
//! the ordinary event queue: [`Fault::CrashActor`] /
//! [`Fault::RestartActor`] pairs, directed [`Fault::PartitionWindow`]s,
//! targeted [`Fault::DropMatching`] rules, and [`Fault::DelayBurst`]s.
//! Crashing an actor bumps its *incarnation number*: every message in
//! flight toward it and every timer it had armed is discarded at dispatch,
//! and traffic routed to it while down is dropped — so a crash is a real
//! process death, not a pause. Restart runs [`Actor::on_restart`]
//! (defaulting to `on_start`) on the surviving state; actors model
//! volatile-state loss in [`Actor::on_crash`]. Fault plans are plain data:
//! they compare, clone, and round-trip through a line-oriented text form
//! ([`FaultPlan::to_text`] / [`FaultPlan::parse`]) so failing chaos cases
//! can be stored as replayable regression files. [`chaos`] samples random
//! plans reproducibly from a seed and an intensity knob.
//!
//! ## Example
//!
//! ```
//! use sada_simnet::{Actor, ActorId, Context, Simulator};
//!
//! struct Ping { peer: Option<ActorId>, got: u32 }
//! impl Actor<u32> for Ping {
//!     fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
//!         if let Some(p) = self.peer { ctx.send(p, 1); }
//!     }
//!     fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: ActorId, msg: u32) {
//!         self.got += 1;
//!         if msg < 3 { ctx.send(from, msg + 1); }
//!     }
//! }
//!
//! let mut sim = Simulator::new(7);
//! let a = sim.add_actor("a", Ping { peer: None, got: 0 });
//! let b = sim.add_actor("b", Ping { peer: Some(a), got: 0 });
//! sim.run();
//! assert_eq!(sim.actor::<Ping>(a).unwrap().got + sim.actor::<Ping>(b).unwrap().got, 3);
//! assert!(sim.now().as_micros() > 0);
//! # let _ = b;
//! ```

mod actor;
mod fault;
mod link;
mod sim;
mod wheel;

pub use actor::{Actor, ActorId, ArenaActor, AsAny, CloneArena, Context, Timer, TimerId};
pub use fault::{chaos, ChaosOpts, Fault, FaultPlan, MsgPattern};
pub use link::LinkConfig;
pub use sim::{ArenaId, GroupId, NetStats, Simulator};
pub use wheel::TimerWheel;
// The clock and the text tokenizer live in the observability spine so every
// layer shares them; the historical `sada_simnet::SimTime` path keeps
// working via this re-export, and crates above that do not depend on
// `sada-obs` (`sada-scenario`) reach `text` the same way.
pub use sada_obs::{text, SimDuration, SimTime};
