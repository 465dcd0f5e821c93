//! # sada-obs — the unified observability spine
//!
//! The paper's safety argument depends on reconstructing *exactly what the
//! system did*: which critical segments were open, which protocol phase each
//! agent was in, when the manager's timeouts fired. This crate is the one
//! account of that. Every layer of the reproduction — the network simulator,
//! the manager/agent protocol cores, the application audit log, the temporal
//! monitor, the planner — emits typed, timestamped [`Event`]s onto a shared
//! [`Bus`], and every consumer (the safety auditor, the temporal monitor,
//! `report -- timeline`, chaos counterexample dumps) reads the same stream.
//!
//! * [`Event`] / [`Payload`] — the layer-tagged taxonomy (Net / Proto /
//!   Audit / Temporal / Plan), stamped with [`SimTime`] and actor identity.
//! * [`Bus`] / [`Sink`] — the cheaply-cloneable producer handle and the
//!   pluggable consumer contract. Zero attached sinks ⇒ near-zero cost.
//! * [`RingSink`], [`Counts`], [`AuditTrail`], [`JsonlSink`] — bounded
//!   retention, the per-[`Kind`] count every report counter is read from,
//!   the auditor's flat log, and a replayable line-oriented trace codec.
//! * [`Metrics`] — per-protocol-phase latency breakdown plus the stream's
//!   [`Counts`], reconstructed from any stream.
//! * [`ObligationKey`] — the typed obligation identity shared with the
//!   temporal layer (the stringly form survives only at parser boundaries).
//! * [`fnv1a`] / [`Fnv1a`] — the one FNV-1a of the workspace; the JSONL
//!   encoder fingerprints a stream through it without writing the text
//!   ([`fingerprint_jsonl`]).
//! * [`text`] — the one tokenizer under every line-oriented text format of
//!   the workspace (this crate's JSONL, the journals, fault plans, fabric
//!   messages, scenario files) and their one [`text::ParseError`].
//!
//! This crate sits at the bottom of the workspace: it depends only on
//! `sada-expr` (component identities, configurations) and `sada-model` (the
//! audit-event vocabulary). [`SimTime`]/[`SimDuration`] live here and are
//! re-exported by `sada-simnet` so the whole stack shares one clock.

mod bus;
mod codec;
mod event;
mod fnv;
mod key;
mod metrics;
mod sinks;
pub mod text;
mod time;

pub use bus::{Bus, Sink};
pub use codec::{
    decode_event, decode_lines, encode_event, encode_event_into, fingerprint_jsonl, JsonlSink, Kind,
};
pub use event::{
    AgentStateTag, Event, FleetEvent, ManagerPhaseTag, NetEvent, Payload, PlanEvent, ProtoEvent,
    TemporalEvent, NO_ACTOR,
};
pub use fnv::{fnv1a, Fnv1a};
pub use key::{ObligationKey, SegmentEdge};
pub use metrics::Metrics;
pub use sinks::{AuditTrail, Counts, RingSink};
pub use time::{SimDuration, SimTime};

/// The encoder's jump tables, for the tests that hold them to the byte-wise
/// hash. Not part of the observability API.
#[doc(hidden)]
pub mod oracle {
    use crate::fnv::Fnv1a;

    /// Every constant piece the JSONL encoder absorbs in one step: its text,
    /// and the state `h` becomes by absorbing it that way.
    pub fn absorb_pieces(h: Fnv1a) -> Vec<(&'static str, Fnv1a)> {
        crate::codec::pieces().into_iter().map(|piece| (piece.text, h.absorb(piece))).collect()
    }
}

// The audit vocabulary is part of the event taxonomy; re-export it so bus
// consumers need not depend on sada-model directly.
pub use sada_model::AuditEvent;
