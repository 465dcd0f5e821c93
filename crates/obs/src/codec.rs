//! Replayable JSONL trace codec and the [`JsonlSink`] that records it.
//!
//! Each event encodes to exactly one JSON object per line with a stable
//! `kind` discriminator, so traces are diffable with line tools and
//! replayable with [`decode_lines`]. Both directions are generated from one
//! table of kinds (see `events!` below) over [`crate::text`]'s tokenizer and
//! the small value subset actually used (u64 numbers, strings, bools,
//! arrays of u64) — the build environment vendors no serde.
//!
//! The codec is a bijection on the event taxonomy:
//! `decode_event(encode_event(e)) == e` (property-tested).

use std::fmt::{self, Write as _};

use sada_expr::{CompId, Config};
use sada_model::AuditEvent;

use crate::bus::Sink;
use crate::event::{
    AgentStateTag, Event, FleetEvent, ManagerPhaseTag, NetEvent, Payload, PlanEvent, ProtoEvent,
    TemporalEvent,
};
use crate::fnv::{Fnv1a, Piece};
use crate::key::ObligationKey;
use crate::text::{escape_json, records, Cursor, Fields, ParseError};
use crate::time::SimTime;

/// Records every event as one JSONL line.
///
/// Lines accumulate in one contiguous newline-terminated buffer, so
/// recording an event is an append into an amortized allocation rather
/// than a fresh `String` per event.
#[derive(Default)]
pub struct JsonlSink {
    /// The whole trace.
    buf: String,
    count: usize,
}

impl JsonlSink {
    /// An empty in-memory trace.
    pub fn new() -> Self {
        JsonlSink::default()
    }

    /// Number of recorded lines.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The whole trace as one newline-terminated string (a `.jsonl` file).
    pub fn dump(&self) -> String {
        self.buf.clone()
    }

    fn record(&mut self, ev: &Event) {
        encode_event_into(&mut self.buf, ev);
        self.buf.push('\n');
        self.count += 1;
    }
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").field("lines", &self.count).finish()
    }
}

impl Sink for JsonlSink {
    fn accept(&mut self, ev: &Event) {
        self.record(ev);
    }

    fn accept_batch(&mut self, evs: &[Event]) {
        // ~96 bytes/line is the codec's own sizing hint; one reserve up
        // front keeps the batch append from re-growing mid-loop.
        self.buf.reserve(evs.len() * 96);
        for ev in evs {
            self.record(ev);
        }
    }
}

/// Encodes one event as a single JSON line (no trailing newline).
///
/// Convenience wrapper over [`encode_event_into`] that allocates a fresh
/// `String`; sinks reuse one buffer, and fingerprints write no text at all
/// ([`fingerprint_jsonl`]).
pub fn encode_event(ev: &Event) -> String {
    let mut out = String::with_capacity(96);
    encode_event_into(&mut out, ev);
    out
}

/// Appends one event, encoded as a single JSON line (no trailing newline),
/// to `out`. The caller owns the buffer, so a loop over many events can
/// clear and reuse one allocation instead of building a `String` per event.
pub fn encode_event_into(out: &mut String, ev: &Event) {
    encode_line(out, ev, ev.shard);
}

/// FNV-1a of the events' JSONL — each event's [`encode_event`] line and a
/// newline — computed from the encoder's pieces without writing the text.
/// `shard`, when given, stands in for every event's shard tag.
pub fn fingerprint_jsonl(events: &[Event], shard: Option<u32>) -> u64 {
    let mut h = Fnv1a::new();
    for ev in events {
        encode_line(&mut h, ev, shard.unwrap_or(ev.shard));
        h.text("\n");
    }
    h.finish()
}

/// Where an encoded line goes: a `String` gets the JSONL text, an [`Fnv1a`]
/// state absorbs it — a constant piece in one step, the rest byte by byte.
trait Out {
    /// A constant piece of the line.
    fn piece(&mut self, piece: &'static Piece);
    /// Text known only at run time: a name, a label, a bit string.
    fn text(&mut self, text: &str);
    /// A decimal integer.
    fn uint(&mut self, n: u64);
}

impl Out for String {
    fn piece(&mut self, piece: &'static Piece) {
        self.push_str(piece.text);
    }

    fn text(&mut self, text: &str) {
        self.push_str(text);
    }

    fn uint(&mut self, n: u64) {
        let mut digits = [0; 20];
        let digits = decimal(n, &mut digits);
        self.push_str(std::str::from_utf8(digits).expect("decimal digits are ASCII"));
    }
}

impl Out for Fnv1a {
    fn piece(&mut self, piece: &'static Piece) {
        *self = self.absorb(piece);
    }

    fn text(&mut self, text: &str) {
        *self = self.write(text);
    }

    fn uint(&mut self, n: u64) {
        *self = self.write(decimal(n, &mut [0; 20]));
    }
}

/// `value`'s `Display` text, through `out` without a buffer.
fn display<O: Out>(out: &mut O, value: impl fmt::Display) {
    struct Through<'a, O>(&'a mut O);
    impl<O: Out> fmt::Write for Through<'_, O> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0.text(s);
            Ok(())
        }
    }
    let _ = write!(Through(out), "{value}");
}

/// `n` in decimal, from the end of `digits`. Every line carries four to a
/// dozen integers: digits from a stack buffer, not one `fmt::Arguments`
/// per number.
fn decimal(mut n: u64, digits: &mut [u8; 20]) -> &[u8] {
    let mut at = digits.len(); // u64::MAX has twenty
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    &digits[at..]
}

/// The envelope's constant pieces, and the two booleans.
static AT: Piece = Piece::new("{\"at\":");
static ACTOR: Piece = Piece::new(",\"actor\":");
static SESSION: Piece = Piece::new(",\"session\":");
static SHARD: Piece = Piece::new(",\"shard\":");
static TRUE: Piece = Piece::new("true");
static FALSE: Piece = Piece::new("false");

/// One event's line, without its newline, with `shard` for its shard tag.
fn encode_line<O: Out>(out: &mut O, ev: &Event, shard: u32) {
    encode_payload(out, ev, shard);
    out.text("}");
}

/// Opens the object: the envelope every event shares, up to its kind.
fn head<O: Out>(out: &mut O, ev: &Event, shard: u32, kind: &'static Piece) {
    out.piece(&AT);
    out.uint(ev.at.as_micros());
    out.piece(&ACTOR);
    out.uint(ev.actor.into());
    // Session 0 is elided so single-adaptation traces (including the
    // pinned golden trace) keep their pre-fleet byte-for-byte form.
    if ev.session != 0 {
        out.piece(&SESSION);
        out.uint(ev.session);
    }
    // Shard 0 is elided the same way: unsharded traces keep their
    // pre-shard byte-for-byte form.
    if shard != 0 {
        out.piece(&SHARD);
        out.uint(shard.into());
    }
    out.piece(kind);
}

/// Decodes one JSONL line back into an [`Event`].
pub fn decode_event(line: &str) -> Result<Event, ParseError> {
    decode(Cursor::new(line))
}

/// Decodes a whole `.jsonl` trace (blank lines and `#` comments skipped).
pub fn decode_lines(text: &str) -> Result<Vec<Event>, ParseError> {
    records(text).map(decode).collect()
}

fn decode(line: Cursor<'_>) -> Result<Event, ParseError> {
    let f = Fields::json(line)?;
    Ok(Event {
        at: SimTime::from_micros(f.int("at")?),
        actor: f.int("actor")?,
        // Pre-fleet traces carry no session key and pre-shard traces no
        // shard key; they decode as session 0, shard 0.
        session: f.opt_int("session")?.unwrap_or(0),
        shard: f.opt_int("shard")?.unwrap_or(0),
        payload: decode_payload(f.raw_str("kind")?, &f)?,
    })
}

/// How one field type travels in a JSON line: written after its key's
/// piece (`,"key":`), read back from the line's [`Fields`].
trait Wire {
    type Value;
    fn put<O: Out>(out: &mut O, key: &'static Piece, value: &Self::Value);
    fn get(f: &Fields<'_>, key: &str) -> Result<Self::Value, ParseError>;
}

fn put_uint<O: Out>(out: &mut O, key: &'static Piece, value: u64) {
    out.piece(key);
    out.uint(value);
}

/// Writes the value `write` writes, quoted but unescaped: for names and
/// bit strings, which hold nothing to escape.
fn put_name<O: Out>(out: &mut O, key: &'static Piece, write: impl FnOnce(&mut O)) {
    out.piece(key);
    out.text("\"");
    write(out);
    out.text("\"");
}

/// Reads a quoted name back through `parse`.
fn get_name<T>(
    f: &Fields<'_>,
    key: &str,
    what: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, ParseError> {
    let name = f.raw_str(key)?;
    parse(name.as_str()).ok_or_else(|| name.unknown(what))
}

/// The field types: the name a table row uses, the Rust type of the event
/// field it stands for, and the two directions.
macro_rules! wire {
    ($($name:ty => $value:ty {
        put($out:ident, $put_key:ident, $v:ident) $put:block
        get($f:ident, $get_key:ident) $get:block
    })*) => {$(
        impl Wire for $name {
            type Value = $value;
            fn put<O: Out>($out: &mut O, $put_key: &'static Piece, $v: &$value) $put
            fn get($f: &Fields<'_>, $get_key: &str) -> Result<$value, ParseError> $get
        }
    )*};
}

/// A `u64` that older traces do not carry: always written, 0 when absent.
struct OrZero;

wire! {
    u64 => u64 {
        put(out, key, v) { put_uint(out, key, *v) }
        get(f, key) { f.int(key) }
    }
    u32 => u32 {
        put(out, key, v) { put_uint(out, key, (*v).into()) }
        get(f, key) { f.int(key) }
    }
    OrZero => u64 {
        put(out, key, v) { put_uint(out, key, *v) }
        get(f, key) { Ok(f.opt_int(key)?.unwrap_or(0)) }
    }
    Option<u64> => Option<u64> {
        // `None` is an absent key.
        put(out, key, v) { v.iter().for_each(|&v| put_uint(out, key, v)) }
        get(f, key) { f.opt_int(key) }
    }
    bool => bool {
        put(out, key, v) {
            out.piece(key);
            out.piece(if *v { &TRUE } else { &FALSE });
        }
        get(f, key) { f.parse(key, Cursor::next_bool) }
    }
    String => String {
        put(out, key, v) {
            out.piece(key);
            out.text("\"");
            escape_json(v, |piece| out.text(piece));
            out.text("\"");
        }
        get(f, key) { Ok(f.parse(key, Cursor::next_str)?.into_owned()) }
    }
    CompId => CompId {
        put(out, key, v) { put_uint(out, key, v.index() as u64) }
        get(f, key) { f.parse(key, next_comp) }
    }
    Vec<CompId> => Vec<CompId> {
        put(out, key, v) {
            out.piece(key);
            out.text("[");
            for (ix, comp) in v.iter().enumerate() {
                if ix > 0 {
                    out.text(",");
                }
                out.uint(comp.index() as u64);
            }
            out.text("]");
        }
        get(f, key) { f.parse(key, |c| c.next_array(next_comp)) }
    }
    Config => Config {
        put(out, key, v) { put_name(out, key, |out| display(out, v)) }
        get(f, key) { f.raw_str(key)?.config(None) }
    }
    AgentStateTag => AgentStateTag {
        put(out, key, v) { put_name(out, key, |out| out.text(v.as_str())) }
        get(f, key) { get_name(f, key, "agent state", AgentStateTag::parse) }
    }
    ManagerPhaseTag => ManagerPhaseTag {
        put(out, key, v) { put_name(out, key, |out| out.text(v.as_str())) }
        get(f, key) { get_name(f, key, "manager phase", ManagerPhaseTag::parse) }
    }
    ObligationKey => ObligationKey {
        put(out, key, v) { put_name(out, key, |out| display(out, v)) }
        get(f, key) { get_name(f, key, "obligation key", |s| s.parse().ok()) }
    }
}

fn next_comp(c: &mut Cursor<'_>) -> Result<CompId, ParseError> {
    Ok(CompId::from_index(c.next_int::<u32>()? as usize))
}

/// Each JSON key a row may carry, and its piece `,"key":` — stated once
/// here, so every row carrying the key shares one jump table.
macro_rules! keys {
    ($($key:ident)*) => {
        #[allow(non_upper_case_globals)]
        mod keys {
            use crate::fnv::Piece;
            $(pub(super) static $key: Piece = Piece::new(concat!(",\"", stringify!($key), "\":"));)*

            /// Every key's piece.
            pub(super) fn all() -> Vec<&'static Piece> {
                vec![$(&$key),*]
            }
        }
    };
}

keys! {
    from to tag step solo participants phase retries resends agent last success gave_up steps seq
    records engaged adapted failed cid comp label comps config key index rank cost to_source id
    resources queued_for position active queued waited_us retry_after_us cooldown_us scope srtt_us
    rto_us src dst quanta region attempt epoch attempts domain objective
}

/// The event taxonomy's wire form, one row per kind: the `kind` string,
/// the variant, and for each of its fields the JSON key (one of `keys!`)
/// and how it travels. Both directions and the dense [`Kind`] are generated
/// from the row, so they cannot drift; the encoder's `match` is exhaustive,
/// so a variant without a row does not compile.
macro_rules! events {
    ($($kind:literal => $layer:ident($of:ident::$variant:ident $({
        $($field:ident: $key:ident $ty:ty),*
    })?),)*) => {
        /// An event's kind: one row of the table. Its [`Kind::name`] is
        /// the `kind` its JSONL lines carry, and its discriminant is the
        /// row's index, so a per-kind count is an array slot, not a hash.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Kind {
            $(#[doc = concat!("`", $kind, "`")] $variant,)*
        }

        /// How many rows the table has.
        pub(crate) const KINDS: usize = [$($kind),*].len();

        /// Each row's `,"kind":"…"` piece, at its kind's index.
        static KIND_PIECES: [Piece; KINDS] =
            [$(Piece::new(concat!(",\"kind\":\"", $kind, "\""))),*];

        impl Kind {
            /// Every kind, in table order.
            pub const ALL: [Kind; KINDS] = [$(Kind::$variant),*];

            /// The kind of `payload`.
            pub fn of(payload: &Payload) -> Kind {
                match payload {$(
                    Payload::$layer($of::$variant { .. }) => Kind::$variant,
                )*}
            }

            /// The `kind` string of its JSONL lines, e.g. `fleet.shed`.
            pub fn name(self) -> &'static str {
                match self {$(Kind::$variant => $kind,)*}
            }
        }

        fn encode_payload<O: Out>(out: &mut O, ev: &Event, shard: u32) {
            match &ev.payload {$(
                Payload::$layer($of::$variant $({ $($field),* })?) => {
                    head(out, ev, shard, &KIND_PIECES[Kind::$variant as usize]);
                    $($(<$ty as Wire>::put(out, &keys::$key, $field);)*)?
                }
            )*}
        }

        fn decode_payload(kind: Cursor<'_>, f: &Fields<'_>) -> Result<Payload, ParseError> {
            Ok(match kind.as_str() {
                $($kind => Payload::$layer($of::$variant $({
                    $($field: <$ty as Wire>::get(f, stringify!($key))?),*
                })?),)*
                _ => return Err(kind.unknown("event kind")),
            })
        }
    };
}

events! {
    "net.sent" => Net(NetEvent::Sent { from: from u32, to: to u32 }),
    "net.delivered" => Net(NetEvent::Delivered { from: from u32, to: to u32 }),
    "net.dropped" => Net(NetEvent::Dropped { from: from u32, to: to u32 }),
    "net.timer" => Net(NetEvent::TimerFired { tag: tag u64 }),
    "net.crashed" => Net(NetEvent::Crashed),
    "net.restarted" => Net(NetEvent::Restarted),
    "proto.agent" => Proto(ProtoEvent::AgentState {
        from: from AgentStateTag, to: to AgentStateTag, step: step Option<u64>
    }),
    "proto.manager" => Proto(ProtoEvent::ManagerPhase {
        from: from ManagerPhaseTag, to: to ManagerPhaseTag, step: step Option<u64>
    }),
    "proto.step_started" => Proto(ProtoEvent::StepStarted {
        step: step u64, solo: solo bool, participants: participants u32
    }),
    "proto.step_committed" => Proto(ProtoEvent::StepCommitted { step: step u64 }),
    "proto.timeout" => Proto(ProtoEvent::TimeoutFired {
        phase: phase ManagerPhaseTag, step: step Option<u64>, retries: retries u32
    }),
    "proto.retry" => Proto(ProtoEvent::RetrySent { step: step u64, resends: resends u32 }),
    "proto.rollback" => Proto(ProtoEvent::RollbackIssued { step: step u64 }),
    "proto.rejoin" => Proto(ProtoEvent::RejoinReceived {
        agent: agent u32, last_completed: last Option<u64>
    }),
    "proto.outcome" => Proto(ProtoEvent::OutcomeReached {
        success: success bool, gave_up: gave_up bool, steps_committed: steps u64
    }),
    "proto.journal" => Proto(ProtoEvent::JournalAppended { seq: seq u64 }),
    "proto.manager_restored" => Proto(ProtoEvent::ManagerRestored {
        records: records u64, phase: phase ManagerPhaseTag, step: step Option<u64>
    }),
    "proto.state_queried" => Proto(ProtoEvent::StateQueried { agent: agent u32 }),
    "proto.state_reported" => Proto(ProtoEvent::StateReported {
        agent: agent u32, engaged: engaged Option<u64>, adapted: adapted bool,
        failed: failed bool, last_completed: last Option<u64>
    }),
    "audit.seg_start" => Audit(AuditEvent::SegmentStart { cid: cid u64, comp: comp CompId }),
    "audit.seg_end" => Audit(AuditEvent::SegmentEnd { cid: cid u64, comp: comp CompId }),
    "audit.seg_lost" => Audit(AuditEvent::SegmentLost { cid: cid u64, comp: comp CompId }),
    "audit.in_action" => Audit(AuditEvent::InAction {
        label: label String, comps: comps Vec<CompId>
    }),
    "audit.config" => Audit(AuditEvent::ConfigSnapshot { config: config Config }),
    "temporal.opened" => Temporal(TemporalEvent::ObligationOpened {
        key: key ObligationKey, cid: cid u64
    }),
    "temporal.discharged" => Temporal(TemporalEvent::ObligationDischarged {
        key: key ObligationKey, cid: cid u64
    }),
    "temporal.safe_point" => Temporal(TemporalEvent::SafePoint { index: index u64 }),
    "plan.path" => Plan(PlanEvent::PathSelected {
        rank: rank u32, steps: steps u32, cost: cost u64
    }),
    "plan.exhausted" => Plan(PlanEvent::PathsExhausted { returning_to_source: to_source bool }),
    "fleet.submitted" => Fleet(FleetEvent::SessionSubmitted {
        session: id u64, resources: resources u32
    }),
    "fleet.admitted" => Fleet(FleetEvent::SessionAdmitted {
        session: id u64, queued_for: queued_for u64
    }),
    "fleet.queued" => Fleet(FleetEvent::SessionQueued { session: id u64, position: position u32 }),
    "fleet.cancelled" => Fleet(FleetEvent::SessionCancelled { session: id u64 }),
    "fleet.done" => Fleet(FleetEvent::SessionDone {
        session: id u64, success: success bool, gave_up: gave_up bool
    }),
    "fleet.restored" => Fleet(FleetEvent::ControlRestored { active: active u32, queued: queued u32 }),
    "fleet.cache_hit" => Fleet(FleetEvent::PlanCacheHit { session: id u64 }),
    "fleet.cache_miss" => Fleet(FleetEvent::PlanCacheMiss { session: id u64 }),
    "fleet.cache_evicted" => Fleet(FleetEvent::PlanCacheEvicted { session: id u64 }),
    // Pre-backpressure traces carry no hint; they decode as 0.
    "fleet.shed" => Fleet(FleetEvent::SessionShed {
        session: id u64, waited_us: waited_us u64, retry_after_us: retry_after_us OrZero
    }),
    "fleet.rejected" => Fleet(FleetEvent::SessionRejected { session: id u64, agent: agent u32 }),
    "fleet.breaker_open" => Fleet(FleetEvent::BreakerOpened {
        agent: agent u32, cooldown_us: cooldown_us u64
    }),
    "fleet.breaker_probe" => Fleet(FleetEvent::BreakerProbed { agent: agent u32 }),
    "fleet.breaker_close" => Fleet(FleetEvent::BreakerClosed { agent: agent u32 }),
    "fleet.scope_breaker_open" => Fleet(FleetEvent::ScopeBreakerOpened {
        scope: scope u64, cooldown_us: cooldown_us u64
    }),
    "fleet.scope_breaker_probe" => Fleet(FleetEvent::ScopeBreakerProbed { scope: scope u64 }),
    "fleet.scope_breaker_close" => Fleet(FleetEvent::ScopeBreakerClosed { scope: scope u64 }),
    "fleet.scope_rejected" => Fleet(FleetEvent::ScopeRejected { session: id u64, scope: scope u64 }),
    "fleet.rto" => Fleet(FleetEvent::TimeoutAdapted {
        agent: agent u32, srtt_us: srtt_us u64, rto_us: rto_us u64
    }),
    "fleet.fabric_drop" => Fleet(FleetEvent::FabricDropped { src: src u32, dst: dst u32, seq: seq u64 }),
    "fleet.fabric_dup" => Fleet(FleetEvent::FabricDuplicated {
        src: src u32, dst: dst u32, seq: seq u64
    }),
    "fleet.fabric_delay" => Fleet(FleetEvent::FabricDelayed {
        src: src u32, dst: dst u32, seq: seq u64, quanta: quanta u32
    }),
    "fleet.fabric_retx" => Fleet(FleetEvent::FabricRetransmit {
        session: id u64, region: region u32, attempt: attempt u32
    }),
    "fleet.lease_reclaim" => Fleet(FleetEvent::LeaseReclaimed {
        session: id u64, region: region u32, epoch: epoch u64
    }),
    "fleet.straddler_abandoned" => Fleet(FleetEvent::StraddlerAbandoned {
        session: id u64, region: region u32, attempts: attempts u32
    }),
    "fleet.domain" => Fleet(FleetEvent::DomainTagged { domain: domain u32, objective: objective u32 }),
    "fleet.lease_expired" => Fleet(FleetEvent::LeaseExpired { session: id u64, region: region u32 }),
}

/// Every constant piece the encoder absorbs in one step: the envelope's,
/// the booleans, the kinds' and the keys'.
pub(crate) fn pieces() -> Vec<&'static Piece> {
    let envelope = [&AT, &ACTOR, &SESSION, &SHARD, &TRUE, &FALSE];
    envelope.into_iter().chain(&KIND_PIECES).chain(keys::all()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_ACTOR;
    use crate::key::SegmentEdge;

    fn round_trip(ev: Event) {
        let line = encode_event(&ev);
        assert!(!line.contains('\n'), "one event per line: {line:?}");
        let back = decode_event(&line).unwrap_or_else(|e| panic!("{e}\nline: {line}"));
        assert_eq!(back, ev, "line: {line}");
    }

    #[test]
    fn integers_are_written_as_display_writes_them() {
        let powers = (0..20).map(|e| 10u64.pow(e));
        for n in powers.flat_map(|p| [p - 1, p, p + 1]).chain([0, u64::MAX]) {
            let mut out = String::from("x");
            out.uint(n);
            assert_eq!(out, format!("x{n}"));
        }
    }

    #[test]
    fn every_variant_round_trips() {
        let comp = CompId::from_index(3);
        let mut config = Config::empty(7);
        config.insert(CompId::from_index(0));
        config.insert(CompId::from_index(5));
        let cases: Vec<Payload> = vec![
            Payload::Net(NetEvent::Sent { from: 1, to: 2 }),
            Payload::Net(NetEvent::Delivered { from: 0, to: 3 }),
            Payload::Net(NetEvent::Dropped { from: 2, to: 2 }),
            Payload::Net(NetEvent::TimerFired { tag: u64::MAX }),
            Payload::Net(NetEvent::Crashed),
            Payload::Net(NetEvent::Restarted),
            Payload::Proto(ProtoEvent::AgentState {
                from: AgentStateTag::Running,
                to: AgentStateTag::Resetting,
                step: Some(4),
            }),
            Payload::Proto(ProtoEvent::AgentState {
                from: AgentStateTag::RollingBack,
                to: AgentStateTag::FailedReset,
                step: None,
            }),
            Payload::Proto(ProtoEvent::ManagerPhase {
                from: ManagerPhaseTag::Adapting,
                to: ManagerPhaseTag::GaveUp,
                step: Some(9),
            }),
            Payload::Proto(ProtoEvent::StepStarted { step: 7, solo: true, participants: 3 }),
            Payload::Proto(ProtoEvent::StepCommitted { step: 7 }),
            Payload::Proto(ProtoEvent::TimeoutFired {
                phase: ManagerPhaseTag::Resuming,
                step: None,
                retries: 2,
            }),
            Payload::Proto(ProtoEvent::RetrySent { step: 1, resends: 2 }),
            Payload::Proto(ProtoEvent::RollbackIssued { step: 5 }),
            Payload::Proto(ProtoEvent::RejoinReceived { agent: 1, last_completed: None }),
            Payload::Proto(ProtoEvent::RejoinReceived { agent: 2, last_completed: Some(3) }),
            Payload::Proto(ProtoEvent::OutcomeReached {
                success: false,
                gave_up: true,
                steps_committed: 2,
            }),
            Payload::Proto(ProtoEvent::JournalAppended { seq: 11 }),
            Payload::Proto(ProtoEvent::ManagerRestored {
                records: 6,
                phase: ManagerPhaseTag::RollingBack,
                step: Some(4),
            }),
            Payload::Proto(ProtoEvent::ManagerRestored {
                records: 0,
                phase: ManagerPhaseTag::Running,
                step: None,
            }),
            Payload::Proto(ProtoEvent::StateQueried { agent: 2 }),
            Payload::Proto(ProtoEvent::StateReported {
                agent: 2,
                engaged: Some(4),
                adapted: true,
                failed: false,
                last_completed: None,
            }),
            Payload::Proto(ProtoEvent::StateReported {
                agent: 0,
                engaged: None,
                adapted: false,
                failed: true,
                last_completed: Some(3),
            }),
            Payload::Audit(AuditEvent::SegmentStart { cid: 1 << 48, comp }),
            Payload::Audit(AuditEvent::SegmentEnd { cid: 42, comp }),
            Payload::Audit(AuditEvent::SegmentLost { cid: 0, comp }),
            Payload::Audit(AuditEvent::InAction {
                label: "E1 -> E2 \"quoted\"\nline".into(),
                comps: vec![CompId::from_index(0), CompId::from_index(1)],
            }),
            Payload::Audit(AuditEvent::InAction { label: String::new(), comps: vec![] }),
            Payload::Audit(AuditEvent::ConfigSnapshot { config }),
            Payload::Temporal(TemporalEvent::ObligationOpened {
                key: ObligationKey { comp, edge: SegmentEdge::Start },
                cid: 99,
            }),
            Payload::Temporal(TemporalEvent::ObligationDischarged {
                key: ObligationKey { comp, edge: SegmentEdge::End },
                cid: 99,
            }),
            Payload::Temporal(TemporalEvent::SafePoint { index: 12 }),
            Payload::Plan(PlanEvent::PathSelected { rank: 1, steps: 5, cost: 1210 }),
            Payload::Plan(PlanEvent::PathsExhausted { returning_to_source: true }),
        ];
        for (i, payload) in cases.into_iter().enumerate() {
            round_trip(Event {
                at: SimTime::from_micros(i as u64 * 17),
                actor: i as u32,
                session: (i as u64) % 3,
                shard: (i as u32) % 2,
                payload,
            });
        }
    }

    #[test]
    fn fleet_variants_round_trip() {
        let cases: Vec<Payload> = vec![
            Payload::Fleet(FleetEvent::SessionSubmitted { session: 4, resources: 6 }),
            Payload::Fleet(FleetEvent::SessionAdmitted { session: 4, queued_for: 12_500 }),
            Payload::Fleet(FleetEvent::SessionQueued { session: 9, position: 2 }),
            Payload::Fleet(FleetEvent::SessionCancelled { session: 9 }),
            Payload::Fleet(FleetEvent::SessionDone { session: 4, success: true, gave_up: false }),
            Payload::Fleet(FleetEvent::ControlRestored { active: 3, queued: 2 }),
            Payload::Fleet(FleetEvent::PlanCacheHit { session: 7 }),
            Payload::Fleet(FleetEvent::PlanCacheMiss { session: 1 }),
            Payload::Fleet(FleetEvent::PlanCacheEvicted { session: 3 }),
            Payload::Fleet(FleetEvent::SessionShed {
                session: 11,
                waited_us: 4_200,
                retry_after_us: 25_000,
            }),
            Payload::Fleet(FleetEvent::SessionRejected { session: 12, agent: 7 }),
            Payload::Fleet(FleetEvent::BreakerOpened { agent: 5, cooldown_us: 400_000 }),
            Payload::Fleet(FleetEvent::BreakerProbed { agent: 5 }),
            Payload::Fleet(FleetEvent::BreakerClosed { agent: 5 }),
            Payload::Fleet(FleetEvent::ScopeBreakerOpened {
                scope: 0xdead_beef_cafe,
                cooldown_us: 800_000,
            }),
            Payload::Fleet(FleetEvent::ScopeBreakerProbed { scope: 0xdead_beef_cafe }),
            Payload::Fleet(FleetEvent::ScopeBreakerClosed { scope: 0xdead_beef_cafe }),
            Payload::Fleet(FleetEvent::ScopeRejected { session: 13, scope: 0xdead_beef_cafe }),
            Payload::Fleet(FleetEvent::TimeoutAdapted { agent: 2, srtt_us: 9_800, rto_us: 31_000 }),
            Payload::Fleet(FleetEvent::DomainTagged { domain: 2, objective: 1 }),
            Payload::Fleet(FleetEvent::LeaseExpired { session: 100, region: 3 }),
        ];
        for (i, payload) in cases.into_iter().enumerate() {
            round_trip(Event {
                at: SimTime::from_micros(i as u64),
                actor: 0,
                session: i as u64,
                shard: i as u32 % 3,
                payload,
            });
        }
    }

    #[test]
    fn session_zero_is_elided_and_decodes_back() {
        let ev = Event {
            at: SimTime::from_micros(5),
            actor: 1,
            session: 0,
            shard: 0,
            payload: Payload::Net(NetEvent::Crashed),
        };
        let line = encode_event(&ev);
        assert!(!line.contains("session"), "session 0 must be elided: {line}");
        assert_eq!(decode_event(&line).unwrap(), ev);
        // A pre-fleet line (no session key anywhere) decodes as session 0.
        let old = "{\"at\":5,\"actor\":1,\"kind\":\"net.crashed\"}";
        assert_eq!(decode_event(old).unwrap(), ev);
        // And a tagged line carries its session through.
        let tagged = Event { session: 7, ..ev };
        let line = encode_event(&tagged);
        assert!(line.contains("\"session\":7"), "{line}");
        assert_eq!(decode_event(&line).unwrap(), tagged);
    }

    #[test]
    fn shard_zero_is_elided_and_decodes_back() {
        let ev = Event {
            at: SimTime::from_micros(5),
            actor: 1,
            session: 0,
            shard: 0,
            payload: Payload::Net(NetEvent::Crashed),
        };
        let line = encode_event(&ev);
        assert!(!line.contains("shard"), "shard 0 must be elided: {line}");
        // A pre-shard line (no shard key anywhere) decodes as shard 0.
        let old = "{\"at\":5,\"actor\":1,\"kind\":\"net.crashed\"}";
        assert_eq!(decode_event(old).unwrap(), ev);
        // And a tagged line carries its shard through, alongside a session.
        let tagged = Event { session: 7, shard: 3, ..ev };
        let line = encode_event(&tagged);
        assert!(line.contains("\"shard\":3"), "{line}");
        assert_eq!(decode_event(&line).unwrap(), tagged);
    }

    #[test]
    fn pre_backpressure_shed_lines_decode_with_zero_hint() {
        // PR 6 traces encoded fleet.shed without a retry_after_us field.
        let old = "{\"at\":9,\"actor\":2,\"kind\":\"fleet.shed\",\"id\":11,\"waited_us\":4200}";
        let ev = decode_event(old).unwrap();
        assert_eq!(
            ev.payload,
            Payload::Fleet(FleetEvent::SessionShed {
                session: 11,
                waited_us: 4_200,
                retry_after_us: 0
            })
        );
    }

    #[test]
    fn no_actor_sentinel_round_trips() {
        round_trip(Event {
            at: SimTime::ZERO,
            actor: NO_ACTOR,
            session: 0,
            shard: 0,
            payload: Payload::Net(NetEvent::Crashed),
        });
    }

    #[test]
    fn decode_lines_skips_comments_and_blanks() {
        let ev = Event {
            at: SimTime::ZERO,
            actor: 0,
            session: 0,
            shard: 0,
            payload: Payload::Net(NetEvent::Crashed),
        };
        let text = format!("# header\n\n{}\n  \n{}\n", encode_event(&ev), encode_event(&ev));
        let events = decode_lines(&text).unwrap();
        assert_eq!(events, vec![ev.clone(), ev]);
    }

    #[test]
    fn decode_reports_line_numbers() {
        let err = decode_lines("# ok\nnot json\n").unwrap_err().to_string();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn unknown_kind_is_an_error() {
        let err =
            decode_event("{\"at\":0,\"actor\":0,\"kind\":\"weird\"}").unwrap_err().to_string();
        assert!(err.contains("unknown event kind"), "{err}");
    }

    #[test]
    fn unicode_labels_survive() {
        round_trip(Event {
            at: SimTime::from_micros(1),
            actor: 0,
            session: 0,
            shard: 0,
            payload: Payload::Audit(AuditEvent::InAction {
                label: "näive → übergang".into(),
                comps: vec![],
            }),
        });
    }

    #[test]
    fn jsonl_sink_records_and_dumps() {
        let mut sink = JsonlSink::new();
        let ev = Event {
            at: SimTime::from_micros(3),
            actor: 1,
            session: 0,
            shard: 0,
            payload: Payload::Net(NetEvent::Restarted),
        };
        sink.accept(&ev);
        assert_eq!(sink.len(), 1);
        let dump = sink.dump();
        assert!(dump.ends_with('\n'));
        assert_eq!(decode_lines(&dump).unwrap(), vec![ev.clone()]);
        assert_eq!(dump, encode_event(&ev) + "\n");
    }

    #[test]
    fn jsonl_sink_batch_matches_per_event_accept() {
        let evs: Vec<Event> = (0..5)
            .map(|i| Event {
                at: SimTime::from_micros(i),
                actor: i as u32,
                session: i % 2,
                shard: 0,
                payload: Payload::Net(NetEvent::TimerFired { tag: i }),
            })
            .collect();
        let mut looped = JsonlSink::new();
        for ev in &evs {
            looped.accept(ev);
        }
        let mut batched = JsonlSink::new();
        batched.accept_batch(&evs);
        assert_eq!(batched.dump(), looped.dump());
        assert_eq!(batched.len(), looped.len());
    }
}
