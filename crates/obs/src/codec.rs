//! Replayable JSONL trace codec and the [`JsonlSink`] that records it.
//!
//! Each event encodes to exactly one JSON object per line with a stable
//! `kind` discriminator, so traces are diffable with line tools and
//! replayable with [`decode_lines`]. The encoder/decoder are hand-rolled
//! over the small value subset actually used (u64 numbers, strings, bools,
//! arrays of u64) — the build environment vendors no serde.
//!
//! The codec is a bijection on the event taxonomy:
//! `decode_event(encode_event(e)) == e` (property-tested).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use sada_expr::{CompId, Config};
use sada_model::AuditEvent;

use crate::bus::Sink;
use crate::event::{
    AgentStateTag, Event, FleetEvent, ManagerPhaseTag, NetEvent, Payload, PlanEvent, ProtoEvent,
    TemporalEvent,
};
use crate::key::ObligationKey;
use crate::time::SimTime;

/// Records every event as one JSONL line.
///
/// Lines accumulate in one contiguous newline-terminated buffer, so
/// recording an event is an append into an amortized allocation rather
/// than a fresh `String` per event. [`JsonlSink::streaming`] instead
/// writes each line through a `BufWriter` and retains nothing in memory —
/// the form a 100k-agent run uses to spill its trace to disk.
#[derive(Default)]
pub struct JsonlSink {
    /// The whole in-memory trace (streaming mode reuses it as scratch for
    /// exactly one line at a time).
    buf: String,
    count: usize,
    out: Option<std::io::BufWriter<Box<dyn std::io::Write>>>,
    io_error: Option<std::io::Error>,
}

impl JsonlSink {
    /// An empty in-memory trace.
    pub fn new() -> Self {
        JsonlSink::default()
    }

    /// A sink that writes each line through a `BufWriter` over `w` instead
    /// of retaining the trace in memory ([`JsonlSink::dump`] returns `""`).
    /// Call [`JsonlSink::flush`] at end of run to drain the buffer and
    /// surface the first I/O error, if any.
    pub fn streaming(w: impl std::io::Write + 'static) -> Self {
        JsonlSink {
            buf: String::new(),
            count: 0,
            out: Some(std::io::BufWriter::new(Box::new(w))),
            io_error: None,
        }
    }

    /// The recorded lines, in emission order (empty in streaming mode).
    pub fn lines(&self) -> impl Iterator<Item = &str> {
        self.buf.lines()
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
        match self.out {
            None => self.buf.clone(),
            Some(_) => String::new(),
        }
    }

    /// Flushes the underlying writer (no-op for an in-memory sink) and
    /// reports the first I/O error encountered since the last call.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if let Some(err) = self.io_error.take() {
            return Err(err);
        }
        match self.out.as_mut() {
            Some(w) => std::io::Write::flush(w),
            None => Ok(()),
        }
    }

    fn record(&mut self, ev: &Event) {
        encode_event_into(&mut self.buf, ev);
        self.buf.push('\n');
        self.count += 1;
        if let Some(w) = self.out.as_mut() {
            if let Err(err) = std::io::Write::write_all(w, self.buf.as_bytes()) {
                self.io_error.get_or_insert(err);
            }
            self.buf.clear();
        }
    }
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("lines", &self.count)
            .field("streaming", &self.out.is_some())
            .finish()
    }
}

impl Sink for JsonlSink {
    fn accept(&mut self, ev: &Event) {
        self.record(ev);
    }

    fn accept_batch(&mut self, evs: &[Event]) {
        if self.out.is_none() {
            // ~96 bytes/line is the codec's own sizing hint; one reserve
            // up front keeps the batch append from re-growing mid-loop.
            self.buf.reserve(evs.len() * 96);
        }
        for ev in evs {
            self.record(ev);
        }
    }
}

fn esc(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Obj<'a> {
    buf: &'a mut String,
}

impl<'a> Obj<'a> {
    fn new(
        buf: &'a mut String,
        at: SimTime,
        actor: u32,
        session: u64,
        shard: u32,
        kind: &str,
    ) -> Self {
        let _ = write!(buf, "{{\"at\":{},\"actor\":{}", at.as_micros(), actor);
        // Session 0 is elided so single-adaptation traces (including the
        // pinned golden trace) keep their pre-fleet byte-for-byte form.
        if session != 0 {
            let _ = write!(buf, ",\"session\":{session}");
        }
        // Shard 0 is elided the same way: unsharded traces keep their
        // pre-shard byte-for-byte form.
        if shard != 0 {
            let _ = write!(buf, ",\"shard\":{shard}");
        }
        let _ = write!(buf, ",\"kind\":\"{kind}\"");
        Obj { buf }
    }

    fn num(self, key: &str, v: u64) -> Self {
        let _ = write!(self.buf, ",\"{key}\":{v}");
        self
    }

    fn opt_num(self, key: &str, v: Option<u64>) -> Self {
        match v {
            Some(v) => self.num(key, v),
            None => self,
        }
    }

    fn boolean(self, key: &str, v: bool) -> Self {
        let _ = write!(self.buf, ",\"{key}\":{v}");
        self
    }

    fn string(self, key: &str, v: &str) -> Self {
        let _ = write!(self.buf, ",\"{key}\":");
        esc(self.buf, v);
        self
    }

    /// A configuration as its bit string, rendered in place: `0` and `1`
    /// need no escaping.
    fn bits(self, key: &str, v: &Config) -> Self {
        let _ = write!(self.buf, ",\"{key}\":\"{v}\"");
        self
    }

    fn nums(self, key: &str, vs: impl Iterator<Item = u64>) -> Self {
        let _ = write!(self.buf, ",\"{key}\":[");
        for (i, v) in vs.enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            let _ = write!(self.buf, "{v}");
        }
        self.buf.push(']');
        self
    }

    fn finish(self) {
        self.buf.push('}');
    }
}

/// Encodes one event as a single JSON line (no trailing newline).
///
/// Convenience wrapper over [`encode_event_into`] that allocates a fresh
/// `String`; hot paths (fingerprinting, sinks) reuse a buffer instead.
pub fn encode_event(ev: &Event) -> String {
    let mut out = String::with_capacity(96);
    encode_event_into(&mut out, ev);
    out
}

/// Appends one event, encoded as a single JSON line (no trailing newline),
/// to `out`. The caller owns the buffer, so a loop over many events can
/// clear and reuse one allocation instead of building a `String` per event.
pub fn encode_event_into(out: &mut String, ev: &Event) {
    fn o<'b>(out: &'b mut String, ev: &Event, kind: &str) -> Obj<'b> {
        Obj::new(out, ev.at, ev.actor, ev.session, ev.shard, kind)
    }
    match &ev.payload {
        Payload::Net(n) => match n {
            NetEvent::Sent { from, to } => o(out, ev, "net.sent")
                .num("from", u64::from(*from))
                .num("to", u64::from(*to))
                .finish(),
            NetEvent::Delivered { from, to } => o(out, ev, "net.delivered")
                .num("from", u64::from(*from))
                .num("to", u64::from(*to))
                .finish(),
            NetEvent::Dropped { from, to } => o(out, ev, "net.dropped")
                .num("from", u64::from(*from))
                .num("to", u64::from(*to))
                .finish(),
            NetEvent::TimerFired { tag } => o(out, ev, "net.timer").num("tag", *tag).finish(),
            NetEvent::Crashed => o(out, ev, "net.crashed").finish(),
            NetEvent::Restarted => o(out, ev, "net.restarted").finish(),
        },
        Payload::Proto(p) => match p {
            ProtoEvent::AgentState { from, to, step } => o(out, ev, "proto.agent")
                .string("from", from.as_str())
                .string("to", to.as_str())
                .opt_num("step", *step)
                .finish(),
            ProtoEvent::ManagerPhase { from, to, step } => o(out, ev, "proto.manager")
                .string("from", from.as_str())
                .string("to", to.as_str())
                .opt_num("step", *step)
                .finish(),
            ProtoEvent::StepStarted { step, solo, participants } => {
                o(out, ev, "proto.step_started")
                    .num("step", *step)
                    .boolean("solo", *solo)
                    .num("participants", u64::from(*participants))
                    .finish()
            }
            ProtoEvent::StepCommitted { step } => {
                o(out, ev, "proto.step_committed").num("step", *step).finish()
            }
            ProtoEvent::TimeoutFired { phase, step, retries } => o(out, ev, "proto.timeout")
                .string("phase", phase.as_str())
                .opt_num("step", *step)
                .num("retries", u64::from(*retries))
                .finish(),
            ProtoEvent::RetrySent { step, resends } => o(out, ev, "proto.retry")
                .num("step", *step)
                .num("resends", u64::from(*resends))
                .finish(),
            ProtoEvent::RollbackIssued { step } => {
                o(out, ev, "proto.rollback").num("step", *step).finish()
            }
            ProtoEvent::RejoinReceived { agent, last_completed } => o(out, ev, "proto.rejoin")
                .num("agent", u64::from(*agent))
                .opt_num("last", *last_completed)
                .finish(),
            ProtoEvent::OutcomeReached { success, gave_up, steps_committed } => {
                o(out, ev, "proto.outcome")
                    .boolean("success", *success)
                    .boolean("gave_up", *gave_up)
                    .num("steps", *steps_committed)
                    .finish()
            }
            ProtoEvent::JournalAppended { seq } => {
                o(out, ev, "proto.journal").num("seq", *seq).finish()
            }
            ProtoEvent::ManagerRestored { records, phase, step } => {
                o(out, ev, "proto.manager_restored")
                    .num("records", *records)
                    .string("phase", phase.as_str())
                    .opt_num("step", *step)
                    .finish()
            }
            ProtoEvent::StateQueried { agent } => {
                o(out, ev, "proto.state_queried").num("agent", u64::from(*agent)).finish()
            }
            ProtoEvent::StateReported { agent, engaged, adapted, failed, last_completed } => {
                o(out, ev, "proto.state_reported")
                    .num("agent", u64::from(*agent))
                    .opt_num("engaged", *engaged)
                    .boolean("adapted", *adapted)
                    .boolean("failed", *failed)
                    .opt_num("last", *last_completed)
                    .finish()
            }
        },
        Payload::Audit(a) => match a {
            AuditEvent::SegmentStart { cid, comp } => o(out, ev, "audit.seg_start")
                .num("cid", *cid)
                .num("comp", comp.index() as u64)
                .finish(),
            AuditEvent::SegmentEnd { cid, comp } => o(out, ev, "audit.seg_end")
                .num("cid", *cid)
                .num("comp", comp.index() as u64)
                .finish(),
            AuditEvent::SegmentLost { cid, comp } => o(out, ev, "audit.seg_lost")
                .num("cid", *cid)
                .num("comp", comp.index() as u64)
                .finish(),
            AuditEvent::InAction { label, comps } => o(out, ev, "audit.in_action")
                .string("label", label)
                .nums("comps", comps.iter().map(|c| c.index() as u64))
                .finish(),
            AuditEvent::ConfigSnapshot { config } => {
                o(out, ev, "audit.config").bits("config", config).finish()
            }
        },
        Payload::Temporal(t) => match t {
            TemporalEvent::ObligationOpened { key, cid } => o(out, ev, "temporal.opened")
                .string("key", &key.to_string())
                .num("cid", *cid)
                .finish(),
            TemporalEvent::ObligationDischarged { key, cid } => o(out, ev, "temporal.discharged")
                .string("key", &key.to_string())
                .num("cid", *cid)
                .finish(),
            TemporalEvent::SafePoint { index } => {
                o(out, ev, "temporal.safe_point").num("index", *index).finish()
            }
        },
        Payload::Plan(p) => match p {
            PlanEvent::PathSelected { rank, steps, cost } => o(out, ev, "plan.path")
                .num("rank", u64::from(*rank))
                .num("steps", u64::from(*steps))
                .num("cost", *cost)
                .finish(),
            PlanEvent::PathsExhausted { returning_to_source } => {
                o(out, ev, "plan.exhausted").boolean("to_source", *returning_to_source).finish()
            }
        },
        Payload::Fleet(fl) => match fl {
            FleetEvent::SessionSubmitted { session, resources } => o(out, ev, "fleet.submitted")
                .num("id", *session)
                .num("resources", u64::from(*resources))
                .finish(),
            FleetEvent::SessionAdmitted { session, queued_for } => o(out, ev, "fleet.admitted")
                .num("id", *session)
                .num("queued_for", *queued_for)
                .finish(),
            FleetEvent::SessionQueued { session, position } => o(out, ev, "fleet.queued")
                .num("id", *session)
                .num("position", u64::from(*position))
                .finish(),
            FleetEvent::SessionCancelled { session } => {
                o(out, ev, "fleet.cancelled").num("id", *session).finish()
            }
            FleetEvent::SessionDone { session, success, gave_up } => o(out, ev, "fleet.done")
                .num("id", *session)
                .boolean("success", *success)
                .boolean("gave_up", *gave_up)
                .finish(),
            FleetEvent::ControlRestored { active, queued } => o(out, ev, "fleet.restored")
                .num("active", u64::from(*active))
                .num("queued", u64::from(*queued))
                .finish(),
            FleetEvent::PlanCacheHit { session } => {
                o(out, ev, "fleet.cache_hit").num("id", *session).finish()
            }
            FleetEvent::PlanCacheMiss { session } => {
                o(out, ev, "fleet.cache_miss").num("id", *session).finish()
            }
            FleetEvent::PlanCacheEvicted { session } => {
                o(out, ev, "fleet.cache_evicted").num("id", *session).finish()
            }
            FleetEvent::SessionShed { session, waited_us, retry_after_us } => {
                o(out, ev, "fleet.shed")
                    .num("id", *session)
                    .num("waited_us", *waited_us)
                    .num("retry_after_us", *retry_after_us)
                    .finish()
            }
            FleetEvent::SessionRejected { session, agent } => o(out, ev, "fleet.rejected")
                .num("id", *session)
                .num("agent", u64::from(*agent))
                .finish(),
            FleetEvent::BreakerOpened { agent, cooldown_us } => o(out, ev, "fleet.breaker_open")
                .num("agent", u64::from(*agent))
                .num("cooldown_us", *cooldown_us)
                .finish(),
            FleetEvent::BreakerProbed { agent } => {
                o(out, ev, "fleet.breaker_probe").num("agent", u64::from(*agent)).finish()
            }
            FleetEvent::BreakerClosed { agent } => {
                o(out, ev, "fleet.breaker_close").num("agent", u64::from(*agent)).finish()
            }
            FleetEvent::ScopeBreakerOpened { scope, cooldown_us } => {
                o(out, ev, "fleet.scope_breaker_open")
                    .num("scope", *scope)
                    .num("cooldown_us", *cooldown_us)
                    .finish()
            }
            FleetEvent::ScopeBreakerProbed { scope } => {
                o(out, ev, "fleet.scope_breaker_probe").num("scope", *scope).finish()
            }
            FleetEvent::ScopeBreakerClosed { scope } => {
                o(out, ev, "fleet.scope_breaker_close").num("scope", *scope).finish()
            }
            FleetEvent::ScopeRejected { session, scope } => {
                o(out, ev, "fleet.scope_rejected").num("id", *session).num("scope", *scope).finish()
            }
            FleetEvent::TimeoutAdapted { agent, srtt_us, rto_us } => o(out, ev, "fleet.rto")
                .num("agent", u64::from(*agent))
                .num("srtt_us", *srtt_us)
                .num("rto_us", *rto_us)
                .finish(),
            FleetEvent::FabricDropped { src, dst, seq } => o(out, ev, "fleet.fabric_drop")
                .num("src", u64::from(*src))
                .num("dst", u64::from(*dst))
                .num("seq", *seq)
                .finish(),
            FleetEvent::FabricDuplicated { src, dst, seq } => o(out, ev, "fleet.fabric_dup")
                .num("src", u64::from(*src))
                .num("dst", u64::from(*dst))
                .num("seq", *seq)
                .finish(),
            FleetEvent::FabricDelayed { src, dst, seq, quanta } => o(out, ev, "fleet.fabric_delay")
                .num("src", u64::from(*src))
                .num("dst", u64::from(*dst))
                .num("seq", *seq)
                .num("quanta", u64::from(*quanta))
                .finish(),
            FleetEvent::FabricRetransmit { session, region, attempt } => {
                o(out, ev, "fleet.fabric_retx")
                    .num("id", *session)
                    .num("region", u64::from(*region))
                    .num("attempt", u64::from(*attempt))
                    .finish()
            }
            FleetEvent::LeaseReclaimed { session, region, epoch } => {
                o(out, ev, "fleet.lease_reclaim")
                    .num("id", *session)
                    .num("region", u64::from(*region))
                    .num("epoch", *epoch)
                    .finish()
            }
            FleetEvent::StraddlerAbandoned { session, region, attempts } => {
                o(out, ev, "fleet.straddler_abandoned")
                    .num("id", *session)
                    .num("region", u64::from(*region))
                    .num("attempts", u64::from(*attempts))
                    .finish()
            }
            FleetEvent::DomainTagged { domain, objective } => o(out, ev, "fleet.domain")
                .num("domain", u64::from(*domain))
                .num("objective", u64::from(*objective))
                .finish(),
            FleetEvent::LeaseExpired { session, region } => o(out, ev, "fleet.lease_expired")
                .num("id", *session)
                .num("region", u64::from(*region))
                .finish(),
        },
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Val {
    Num(u64),
    Str(String),
    Bool(bool),
    Arr(Vec<u64>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser { s: s.as_bytes(), i: 0 }
    }

    fn skip_ws(&mut self) {
        while self.i < self.s.len() && matches!(self.s[self.i], b' ' | b'\t') {
            self.i += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.i < self.s.len() && self.s[self.i] == b {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.i))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.s.get(self.i).copied()
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            self.i += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                // Multi-byte UTF-8: copy the raw bytes through.
                _ => {
                    let start = self.i - 1;
                    let mut end = self.i;
                    while end < self.s.len() && self.s[end] & 0xC0 == 0x80 {
                        end += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.s[start..end]).map_err(|_| "invalid utf-8")?,
                    );
                    self.i = end;
                }
            }
        }
    }

    fn parse_num(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.i;
        while self.i < self.s.len() && self.s[self.i].is_ascii_digit() {
            self.i += 1;
        }
        if start == self.i {
            return Err(format!("expected number at byte {start}"));
        }
        std::str::from_utf8(&self.s[start..self.i])
            .unwrap()
            .parse()
            .map_err(|e| format!("bad number: {e}"))
    }

    fn parse_value(&mut self) -> Result<Val, String> {
        match self.peek().ok_or("unexpected end of line")? {
            b'"' => Ok(Val::Str(self.parse_string()?)),
            b't' => {
                if self.s[self.i..].starts_with(b"true") {
                    self.i += 4;
                    Ok(Val::Bool(true))
                } else {
                    Err("bad literal".into())
                }
            }
            b'f' => {
                if self.s[self.i..].starts_with(b"false") {
                    self.i += 5;
                    Ok(Val::Bool(false))
                } else {
                    Err("bad literal".into())
                }
            }
            b'[' => {
                self.expect(b'[')?;
                let mut arr = Vec::new();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(Val::Arr(arr));
                }
                loop {
                    arr.push(self.parse_num()?);
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Val::Arr(arr));
                        }
                        _ => return Err("bad array".into()),
                    }
                }
            }
            b if b.is_ascii_digit() => Ok(Val::Num(self.parse_num()?)),
            other => Err(format!("unexpected byte {:?}", other as char)),
        }
    }

    fn parse_object(&mut self) -> Result<BTreeMap<String, Val>, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(map);
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            let val = self.parse_value()?;
            map.insert(key, val);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(map);
                }
                _ => return Err("bad object".into()),
            }
        }
    }
}

struct Fields {
    map: BTreeMap<String, Val>,
}

impl Fields {
    fn num(&self, key: &str) -> Result<u64, String> {
        match self.map.get(key) {
            Some(Val::Num(n)) => Ok(*n),
            _ => Err(format!("missing numeric field {key:?}")),
        }
    }

    fn opt_num(&self, key: &str) -> Result<Option<u64>, String> {
        match self.map.get(key) {
            None => Ok(None),
            Some(Val::Num(n)) => Ok(Some(*n)),
            _ => Err(format!("field {key:?} is not a number")),
        }
    }

    fn string(&self, key: &str) -> Result<&str, String> {
        match self.map.get(key) {
            Some(Val::Str(s)) => Ok(s),
            _ => Err(format!("missing string field {key:?}")),
        }
    }

    fn boolean(&self, key: &str) -> Result<bool, String> {
        match self.map.get(key) {
            Some(Val::Bool(b)) => Ok(*b),
            _ => Err(format!("missing bool field {key:?}")),
        }
    }

    fn arr(&self, key: &str) -> Result<&[u64], String> {
        match self.map.get(key) {
            Some(Val::Arr(a)) => Ok(a),
            _ => Err(format!("missing array field {key:?}")),
        }
    }

    fn comp(&self, key: &str) -> Result<CompId, String> {
        Ok(CompId::from_index(self.num(key)? as usize))
    }

    fn agent_state(&self, key: &str) -> Result<AgentStateTag, String> {
        let s = self.string(key)?;
        AgentStateTag::parse(s).ok_or_else(|| format!("unknown agent state {s:?}"))
    }

    fn manager_phase(&self, key: &str) -> Result<ManagerPhaseTag, String> {
        let s = self.string(key)?;
        ManagerPhaseTag::parse(s).ok_or_else(|| format!("unknown manager phase {s:?}"))
    }

    fn key(&self, key: &str) -> Result<ObligationKey, String> {
        self.string(key)?.parse()
    }
}

fn config_from_bit_string(bits: &str) -> Result<Config, String> {
    Config::from_bit_string(bits).map_err(|other| format!("invalid bit {other:?} in config"))
}

/// Decodes one JSONL line back into an [`Event`].
pub fn decode_event(line: &str) -> Result<Event, String> {
    let map = Parser::new(line).parse_object()?;
    let f = Fields { map };
    let at = SimTime::from_micros(f.num("at")?);
    let actor = f.num("actor")? as u32;
    let kind = f.string("kind")?;
    let payload = match kind {
        "net.sent" => {
            Payload::Net(NetEvent::Sent { from: f.num("from")? as u32, to: f.num("to")? as u32 })
        }
        "net.delivered" => Payload::Net(NetEvent::Delivered {
            from: f.num("from")? as u32,
            to: f.num("to")? as u32,
        }),
        "net.dropped" => {
            Payload::Net(NetEvent::Dropped { from: f.num("from")? as u32, to: f.num("to")? as u32 })
        }
        "net.timer" => Payload::Net(NetEvent::TimerFired { tag: f.num("tag")? }),
        "net.crashed" => Payload::Net(NetEvent::Crashed),
        "net.restarted" => Payload::Net(NetEvent::Restarted),
        "proto.agent" => Payload::Proto(ProtoEvent::AgentState {
            from: f.agent_state("from")?,
            to: f.agent_state("to")?,
            step: f.opt_num("step")?,
        }),
        "proto.manager" => Payload::Proto(ProtoEvent::ManagerPhase {
            from: f.manager_phase("from")?,
            to: f.manager_phase("to")?,
            step: f.opt_num("step")?,
        }),
        "proto.step_started" => Payload::Proto(ProtoEvent::StepStarted {
            step: f.num("step")?,
            solo: f.boolean("solo")?,
            participants: f.num("participants")? as u32,
        }),
        "proto.step_committed" => {
            Payload::Proto(ProtoEvent::StepCommitted { step: f.num("step")? })
        }
        "proto.timeout" => Payload::Proto(ProtoEvent::TimeoutFired {
            phase: f.manager_phase("phase")?,
            step: f.opt_num("step")?,
            retries: f.num("retries")? as u32,
        }),
        "proto.retry" => Payload::Proto(ProtoEvent::RetrySent {
            step: f.num("step")?,
            resends: f.num("resends")? as u32,
        }),
        "proto.rollback" => Payload::Proto(ProtoEvent::RollbackIssued { step: f.num("step")? }),
        "proto.rejoin" => Payload::Proto(ProtoEvent::RejoinReceived {
            agent: f.num("agent")? as u32,
            last_completed: f.opt_num("last")?,
        }),
        "proto.outcome" => Payload::Proto(ProtoEvent::OutcomeReached {
            success: f.boolean("success")?,
            gave_up: f.boolean("gave_up")?,
            steps_committed: f.num("steps")?,
        }),
        "proto.journal" => Payload::Proto(ProtoEvent::JournalAppended { seq: f.num("seq")? }),
        "proto.manager_restored" => Payload::Proto(ProtoEvent::ManagerRestored {
            records: f.num("records")?,
            phase: f.manager_phase("phase")?,
            step: f.opt_num("step")?,
        }),
        "proto.state_queried" => {
            Payload::Proto(ProtoEvent::StateQueried { agent: f.num("agent")? as u32 })
        }
        "proto.state_reported" => Payload::Proto(ProtoEvent::StateReported {
            agent: f.num("agent")? as u32,
            engaged: f.opt_num("engaged")?,
            adapted: f.boolean("adapted")?,
            failed: f.boolean("failed")?,
            last_completed: f.opt_num("last")?,
        }),
        "audit.seg_start" => {
            Payload::Audit(AuditEvent::SegmentStart { cid: f.num("cid")?, comp: f.comp("comp")? })
        }
        "audit.seg_end" => {
            Payload::Audit(AuditEvent::SegmentEnd { cid: f.num("cid")?, comp: f.comp("comp")? })
        }
        "audit.seg_lost" => {
            Payload::Audit(AuditEvent::SegmentLost { cid: f.num("cid")?, comp: f.comp("comp")? })
        }
        "audit.in_action" => Payload::Audit(AuditEvent::InAction {
            label: f.string("label")?.to_string(),
            comps: f.arr("comps")?.iter().map(|&c| CompId::from_index(c as usize)).collect(),
        }),
        "audit.config" => Payload::Audit(AuditEvent::ConfigSnapshot {
            config: config_from_bit_string(f.string("config")?)?,
        }),
        "temporal.opened" => Payload::Temporal(TemporalEvent::ObligationOpened {
            key: f.key("key")?,
            cid: f.num("cid")?,
        }),
        "temporal.discharged" => Payload::Temporal(TemporalEvent::ObligationDischarged {
            key: f.key("key")?,
            cid: f.num("cid")?,
        }),
        "temporal.safe_point" => {
            Payload::Temporal(TemporalEvent::SafePoint { index: f.num("index")? })
        }
        "plan.path" => Payload::Plan(PlanEvent::PathSelected {
            rank: f.num("rank")? as u32,
            steps: f.num("steps")? as u32,
            cost: f.num("cost")?,
        }),
        "plan.exhausted" => Payload::Plan(PlanEvent::PathsExhausted {
            returning_to_source: f.boolean("to_source")?,
        }),
        "fleet.submitted" => Payload::Fleet(FleetEvent::SessionSubmitted {
            session: f.num("id")?,
            resources: f.num("resources")? as u32,
        }),
        "fleet.admitted" => Payload::Fleet(FleetEvent::SessionAdmitted {
            session: f.num("id")?,
            queued_for: f.num("queued_for")?,
        }),
        "fleet.queued" => Payload::Fleet(FleetEvent::SessionQueued {
            session: f.num("id")?,
            position: f.num("position")? as u32,
        }),
        "fleet.cancelled" => Payload::Fleet(FleetEvent::SessionCancelled { session: f.num("id")? }),
        "fleet.done" => Payload::Fleet(FleetEvent::SessionDone {
            session: f.num("id")?,
            success: f.boolean("success")?,
            gave_up: f.boolean("gave_up")?,
        }),
        "fleet.restored" => Payload::Fleet(FleetEvent::ControlRestored {
            active: f.num("active")? as u32,
            queued: f.num("queued")? as u32,
        }),
        "fleet.cache_hit" => Payload::Fleet(FleetEvent::PlanCacheHit { session: f.num("id")? }),
        "fleet.cache_miss" => Payload::Fleet(FleetEvent::PlanCacheMiss { session: f.num("id")? }),
        "fleet.cache_evicted" => {
            Payload::Fleet(FleetEvent::PlanCacheEvicted { session: f.num("id")? })
        }
        "fleet.shed" => Payload::Fleet(FleetEvent::SessionShed {
            session: f.num("id")?,
            waited_us: f.num("waited_us")?,
            // Pre-backpressure traces carry no hint; they decode as 0.
            retry_after_us: f.opt_num("retry_after_us")?.unwrap_or(0),
        }),
        "fleet.rejected" => Payload::Fleet(FleetEvent::SessionRejected {
            session: f.num("id")?,
            agent: f.num("agent")? as u32,
        }),
        "fleet.breaker_open" => Payload::Fleet(FleetEvent::BreakerOpened {
            agent: f.num("agent")? as u32,
            cooldown_us: f.num("cooldown_us")?,
        }),
        "fleet.breaker_probe" => {
            Payload::Fleet(FleetEvent::BreakerProbed { agent: f.num("agent")? as u32 })
        }
        "fleet.breaker_close" => {
            Payload::Fleet(FleetEvent::BreakerClosed { agent: f.num("agent")? as u32 })
        }
        "fleet.scope_breaker_open" => Payload::Fleet(FleetEvent::ScopeBreakerOpened {
            scope: f.num("scope")?,
            cooldown_us: f.num("cooldown_us")?,
        }),
        "fleet.scope_breaker_probe" => {
            Payload::Fleet(FleetEvent::ScopeBreakerProbed { scope: f.num("scope")? })
        }
        "fleet.scope_breaker_close" => {
            Payload::Fleet(FleetEvent::ScopeBreakerClosed { scope: f.num("scope")? })
        }
        "fleet.scope_rejected" => Payload::Fleet(FleetEvent::ScopeRejected {
            session: f.num("id")?,
            scope: f.num("scope")?,
        }),
        "fleet.rto" => Payload::Fleet(FleetEvent::TimeoutAdapted {
            agent: f.num("agent")? as u32,
            srtt_us: f.num("srtt_us")?,
            rto_us: f.num("rto_us")?,
        }),
        "fleet.fabric_drop" => Payload::Fleet(FleetEvent::FabricDropped {
            src: f.num("src")? as u32,
            dst: f.num("dst")? as u32,
            seq: f.num("seq")?,
        }),
        "fleet.fabric_dup" => Payload::Fleet(FleetEvent::FabricDuplicated {
            src: f.num("src")? as u32,
            dst: f.num("dst")? as u32,
            seq: f.num("seq")?,
        }),
        "fleet.fabric_delay" => Payload::Fleet(FleetEvent::FabricDelayed {
            src: f.num("src")? as u32,
            dst: f.num("dst")? as u32,
            seq: f.num("seq")?,
            quanta: f.num("quanta")? as u32,
        }),
        "fleet.fabric_retx" => Payload::Fleet(FleetEvent::FabricRetransmit {
            session: f.num("id")?,
            region: f.num("region")? as u32,
            attempt: f.num("attempt")? as u32,
        }),
        "fleet.lease_reclaim" => Payload::Fleet(FleetEvent::LeaseReclaimed {
            session: f.num("id")?,
            region: f.num("region")? as u32,
            epoch: f.num("epoch")?,
        }),
        "fleet.straddler_abandoned" => Payload::Fleet(FleetEvent::StraddlerAbandoned {
            session: f.num("id")?,
            region: f.num("region")? as u32,
            attempts: f.num("attempts")? as u32,
        }),
        "fleet.domain" => Payload::Fleet(FleetEvent::DomainTagged {
            domain: f.num("domain")? as u32,
            objective: f.num("objective")? as u32,
        }),
        "fleet.lease_expired" => Payload::Fleet(FleetEvent::LeaseExpired {
            session: f.num("id")?,
            region: f.num("region")? as u32,
        }),
        other => return Err(format!("unknown event kind {other:?}")),
    };
    // Pre-fleet traces carry no session key; they decode as session 0.
    let session = f.opt_num("session")?.unwrap_or(0);
    // Pre-shard traces carry no shard key; they decode as shard 0.
    let shard = f.opt_num("shard")?.unwrap_or(0) as u32;
    Ok(Event { at, actor, session, shard, payload })
}

/// Decodes a whole `.jsonl` trace (blank lines and `#` comments skipped).
pub fn decode_lines(text: &str) -> Result<Vec<Event>, String> {
    let mut out = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(decode_event(line).map_err(|e| format!("line {}: {e}", no + 1))?);
    }
    Ok(out)
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
        let err = decode_lines("# ok\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn unknown_kind_is_an_error() {
        let err = decode_event("{\"at\":0,\"actor\":0,\"kind\":\"weird\"}").unwrap_err();
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
        assert_eq!(sink.lines().collect::<Vec<_>>(), vec![encode_event(&ev)]);
        assert!(sink.flush().is_ok());
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

    #[test]
    fn streaming_jsonl_sink_writes_through_and_retains_nothing() {
        use std::cell::RefCell;
        use std::rc::Rc;

        /// Shared byte buffer standing in for a trace file.
        #[derive(Clone, Default)]
        struct Shared(Rc<RefCell<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let file = Shared::default();
        let mut streamed = JsonlSink::streaming(file.clone());
        let mut recorded = JsonlSink::new();
        let evs: Vec<Event> = (0..3)
            .map(|i| Event {
                at: SimTime::from_micros(i),
                actor: 0,
                session: 0,
                shard: i as u32,
                payload: Payload::Net(NetEvent::Crashed),
            })
            .collect();
        streamed.accept(&evs[0]);
        streamed.accept_batch(&evs[1..]);
        for ev in &evs {
            recorded.accept(ev);
        }
        assert_eq!(streamed.len(), 3);
        assert_eq!(streamed.dump(), "", "streaming retains nothing in memory");
        streamed.flush().unwrap();
        assert_eq!(String::from_utf8(file.0.borrow().clone()).unwrap(), recorded.dump());
    }
}
