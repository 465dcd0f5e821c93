//! The adaptation journal: a write-ahead log of manager decision points.
//!
//! Every irreversible decision the [`ManagerCore`](crate::ManagerCore) makes
//! — accepting a request, committing to a path, dispatching a step, passing
//! the resume barrier, ordering or finishing a rollback, reaching an outcome
//! — is emitted as a [`JournalRecord`] *before* the wire messages it covers
//! (`ManagerEffect::Journal` precedes the `Send`s in the effect list). The
//! host chooses the durability medium: the simulator keeps the vector across
//! incarnations, a real deployment would fsync a file. After a crash,
//! [`ManagerCore::restore`](crate::ManagerCore::restore) replays the journal
//! to the exact phase/step/attempt state and reconciles with the agents.
//!
//! Volatile bookkeeping is deliberately *not* journaled: retransmission
//! counters, armed timers, and which acknowledgements have arrived are all
//! reconstructible (conservatively) from the agents themselves, which is what
//! the reconciliation round does.
//!
//! Records serialize to a line-oriented text form ([`encode_journal`] /
//! [`parse_journal`]) in the same `verb key=value` style as
//! `sada_simnet::FaultPlan`, so a failing chaos run can dump its journal next
//! to the trace and the run can be replayed from any prefix.
//!
//! A record costs its change, not the width of the world. Each `source=` /
//! `target=` field is either the configuration's bit string or, when
//! strictly shorter, `@` and its delta against the configuration field
//! written just before it in the text (the previous `request` / `queued`
//! line's `target`, or this line's `source`): `+<id>` / `-<id>` terms in
//! ascending id order, so `target=@-4+5` is the configuration before it with
//! component 4 removed and 5 added, and a bare `@` is the same one. The
//! first field and every field whose width differs from the one before are
//! bit strings, the choice is canonical (parse, then encode, gives the text
//! back), and every line prefix of a journal is a journal. Reading a delta
//! clones the configuration before it and changes the bits it names, so a
//! parsed journal shares storage the way the live run's records did. A
//! record's `Display` line is context-free: every configuration in full.

use std::fmt::{self, Write as _};

use sada_expr::Config;
use sada_obs::text::{list, push_lines, read_records, Cursor, Fields, ParseError};
use sada_plan::ActionId;

use crate::messages::{SessionId, StepId};

/// One durable manager decision point, in the order it was taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// An adaptation request was accepted and planning began. `source` is
    /// the *effective* source (queued requests are re-anchored at the
    /// configuration the previous adaptation actually ended in).
    Request {
        /// Configuration the adaptation starts from.
        source: Config,
        /// Configuration the adaptation drives toward.
        target: Config,
    },
    /// A request arrived while another adaptation was in flight and was
    /// queued behind it.
    Queued {
        /// The queued request's stated source.
        source: Config,
        /// The queued request's target.
        target: Config,
    },
    /// The planner committed to a path (its action ids, in step order) from
    /// the current configuration toward the current goal.
    PathSelected {
        /// Action ids of the chosen path, cheapest untried candidate first.
        actions: Vec<ActionId>,
    },
    /// Every path to the target is exhausted; the goal reversed to the
    /// source configuration (the ladder's return-to-source rung).
    GoalReversed,
    /// A step attempt was dispatched: resets go out under this attempt id.
    StepStarted {
        /// The fresh attempt id.
        step: StepId,
        /// Index of the step within the committed path.
        ix: u32,
    },
    /// The adapt-done barrier passed and resumes were issued — the point of
    /// no return; after this record the step must run to completion.
    ResumeIssued {
        /// The attempt passing the barrier.
        step: StepId,
    },
    /// All resume-dones arrived (or the force-complete rung fired): the
    /// step's configuration transition became durable.
    StepCommitted {
        /// The committed attempt.
        step: StepId,
    },
    /// The step was abandoned and rollback commands were issued.
    RollbackIssued {
        /// The attempt being rolled back.
        step: StepId,
    },
    /// The rollback finished (acknowledged or assumed). `retry` is true when
    /// the ladder's retry-once rung re-runs the same step next.
    RollbackComplete {
        /// The attempt that was rolled back.
        step: StepId,
        /// Whether the same step is retried once more.
        retry: bool,
    },
    /// The adaptation resolved (successfully, aborted back to the source, or
    /// given up at a safe intermediate configuration).
    Outcome {
        /// Target configuration reached.
        success: bool,
        /// Every recovery option exhausted; awaiting the user.
        gave_up: bool,
    },
}

impl fmt::Display for JournalRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalRecord::Request { source, target } => {
                write!(f, "request source={source} target={target}")
            }
            JournalRecord::Queued { source, target } => {
                write!(f, "queued source={source} target={target}")
            }
            JournalRecord::PathSelected { actions } => {
                write!(f, "path actions={}", list(actions, |a, f| write!(f, "{}", a.0)))
            }
            JournalRecord::GoalReversed => write!(f, "reverse"),
            JournalRecord::StepStarted { step, ix } => write!(f, "step id={} ix={ix}", step.0),
            JournalRecord::ResumeIssued { step } => write!(f, "resume id={}", step.0),
            JournalRecord::StepCommitted { step } => write!(f, "commit id={}", step.0),
            JournalRecord::RollbackIssued { step } => write!(f, "rollback id={}", step.0),
            JournalRecord::RollbackComplete { step, retry } => {
                write!(f, "rolledback id={} retry={retry}", step.0)
            }
            JournalRecord::Outcome { success, gave_up } => {
                write!(f, "outcome success={success} gave_up={gave_up}")
            }
        }
    }
}

/// Serializes a journal to its line-oriented text form (one record per
/// line, in order).
pub fn encode_journal(records: &[JournalRecord]) -> String {
    write_journal(records.iter().map(|r| (r, SessionId::SOLO)))
}

/// Parses the text form produced by [`encode_journal`]. Blank lines and `#`
/// comments are ignored.
pub fn parse_journal(text: &str) -> Result<Vec<JournalRecord>, ParseError> {
    read_journal(text, parse_record)
}

/// The one writer of both journal kinds: a record's line, with each
/// configuration field the shorter of its bit string and its delta against
/// the field written just before it, then ` session=N` unless solo.
fn write_journal<'a>(records: impl Iterator<Item = (&'a JournalRecord, SessionId)>) -> String {
    let mut out = String::new();
    let mut prev = None;
    for (record, session) in records {
        match record {
            JournalRecord::Request { source, target }
            | JournalRecord::Queued { source, target } => {
                let verb =
                    if let JournalRecord::Request { .. } = record { "request" } else { "queued" };
                out.push_str(verb);
                out.push_str(" source=");
                push_config(&mut out, source, prev);
                out.push_str(" target=");
                push_config(&mut out, target, Some(source));
                prev = Some(target);
            }
            _ => write!(out, "{record}").expect("writing to a String cannot fail"),
        }
        // Session 0 is elided, so a solo journal is byte-identical to the
        // pre-fleet text form; and because `parse_record` never looks at a
        // field it does not know, the pre-fleet parser still reads tagged
        // lines (it just drops the tag). Both directions stay compatible.
        if session != SessionId::SOLO {
            write!(out, " session={}", session.0).expect("writing to a String cannot fail");
        }
        out.push('\n');
    }
    // The text outlives the run in its report: it keeps its length, not
    // the last doubling of its growth.
    out.shrink_to_fit();
    out
}

/// Writes `config` as `@` and its delta against `prev` when that is
/// strictly shorter than its bit string, and as the bit string otherwise.
/// The differing components are walked twice — once to size the delta,
/// stopping at the bit string's length, once to write it — and never
/// collected.
fn push_config(out: &mut String, config: &Config, prev: Option<&Config>) {
    let width = config.width();
    let shorter = |prev: &&Config| {
        // `@`, then a sign and the digits of each differing id.
        let sized = prev.diff(config).try_fold(1, |len, id| {
            let len = len + 2 + id.index().checked_ilog10().unwrap_or(0) as usize;
            (len < width).then_some(len)
        });
        sized.is_some_and(|len| len < width)
    };
    let written = match prev.filter(|prev| prev.width() == width).filter(shorter) {
        Some(prev) => {
            out.push('@');
            prev.diff(config).try_for_each(|id| {
                let sign = if config.contains(id) { '+' } else { '-' };
                write!(out, "{sign}{}", id.index())
            })
        }
        None => write!(out, "{config}"),
    };
    written.expect("writing to a String cannot fail");
}

/// The one reader of both journal kinds: `line` reads each line's fields,
/// handed the configuration field read last (what a delta applies to).
fn read_journal<T>(
    text: &str,
    mut line: impl FnMut(&Fields<'_>, &mut Option<Config>) -> Result<T, ParseError>,
) -> Result<Vec<T>, ParseError> {
    let mut prev = None;
    read_records(text, |l| line(&Fields::words(l)?, &mut prev))
}

fn parse_record(f: &Fields<'_>, prev: &mut Option<Config>) -> Result<JournalRecord, ParseError> {
    let step = |key| f.int(key).map(StepId);
    let boolean = |key| f.parse(key, Cursor::next_bool);
    let mut configs = || -> Result<(Config, Config), ParseError> {
        let source = f.get("source")?.config(prev.as_ref())?;
        let field = f.get("target")?;
        let target = field.config(Some(&source))?;
        if target.width() != source.width() {
            return Err(field.expected(format!("a configuration of width {}", source.width())));
        }
        *prev = Some(target.clone());
        Ok((source, target))
    };
    Ok(match f.verb.as_str() {
        "request" => configs().map(|(source, target)| JournalRecord::Request { source, target })?,
        "queued" => configs().map(|(source, target)| JournalRecord::Queued { source, target })?,
        "path" => JournalRecord::PathSelected {
            actions: f.parse("actions", |c| c.next_list(|c| c.next_int().map(ActionId)))?,
        },
        "reverse" => JournalRecord::GoalReversed,
        "step" => JournalRecord::StepStarted { step: step("id")?, ix: f.int("ix")? },
        "resume" => JournalRecord::ResumeIssued { step: step("id")? },
        "commit" => JournalRecord::StepCommitted { step: step("id")? },
        "rollback" => JournalRecord::RollbackIssued { step: step("id")? },
        "rolledback" => {
            JournalRecord::RollbackComplete { step: step("id")?, retry: boolean("retry")? }
        }
        "outcome" => {
            JournalRecord::Outcome { success: boolean("success")?, gave_up: boolean("gave_up")? }
        }
        _ => return Err(f.verb.unknown("journal verb")),
    })
}

/// One journal record tagged with the adaptation session it belongs to.
///
/// The fleet control plane interleaves every session's decision points into
/// a single durable journal (append order is the decision order, which
/// restore needs for requeue ordering); partitioning the records by session
/// recovers each session's plain `Vec<JournalRecord>` for
/// [`ManagerCore::restore`](crate::ManagerCore::restore).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionRecord {
    /// The session the record belongs to ([`SessionId::SOLO`] outside the
    /// control plane).
    pub session: SessionId,
    /// The decision point.
    pub record: JournalRecord,
}

impl From<JournalRecord> for SessionRecord {
    fn from(record: JournalRecord) -> Self {
        SessionRecord { session: SessionId::SOLO, record }
    }
}

/// The record's context-free line, tagged as [`encode_session_journal`]
/// tags it.
impl fmt::Display for SessionRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.record.fmt(f)?;
        if self.session != SessionId::SOLO {
            write!(f, " session={}", self.session.0)?;
        }
        Ok(())
    }
}

/// Serializes a session-tagged journal to its line-oriented text form: the
/// solo text of its records, each line tagged ` session=N` unless solo.
pub fn encode_session_journal(records: &[SessionRecord]) -> String {
    write_journal(records.iter().map(|r| (&r.record, r.session)))
}

/// Parses the text form produced by [`encode_session_journal`]. Lines
/// without a `session=` field — i.e. every pre-fleet journal — parse as
/// [`SessionId::SOLO`]. Blank lines and `#` comments are ignored.
pub fn parse_session_journal(text: &str) -> Result<Vec<SessionRecord>, ParseError> {
    read_journal(text, |f, prev| {
        let session = f.opt_int("session")?.map_or(SessionId::SOLO, SessionId);
        Ok(SessionRecord { session, record: parse_record(f, prev)? })
    })
}

/// One durable decision point of the *global* (straddler) control tier.
///
/// The global tier runs scope-straddling sessions by acquiring per-region
/// lock slices over the cross-shard fabric. Each irreversible step of that
/// handshake — escalating a session onto the fabric, durably applying a
/// region's grant, submitting the fully-held session to the embedded
/// control plane, confirming a region's release, withdrawing, or abandoning
/// an unreachable region — is journaled *before* the fabric messages it
/// covers, mirroring the [`JournalRecord`] write-ahead discipline. After a
/// crash the global tier replays this journal to re-drive partial ascending
/// lock chains under a bumped incarnation (regions reclaim stale leases by
/// epoch comparison) and requeues waiting straddlers in journal order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GlobalRecord {
    /// A straddling session began its ascending-order slice acquisition.
    Escalated {
        /// The straddling session.
        session: u64,
        /// The regions its scope crosses, ascending.
        regions: Vec<u32>,
    },
    /// A region's `LockGranted` was applied durably (its authoritative
    /// component values folded into the global configuration).
    SliceGranted {
        /// The straddling session.
        session: u64,
        /// The granting region.
        region: u32,
    },
    /// Every slice was held and the session entered the embedded control
    /// plane (whose own session journal takes over from here).
    Submitted {
        /// The straddling session.
        session: u64,
    },
    /// A region acknowledged the session's `LockRelease`: the slice is free
    /// and the final component values are folded on the region's side.
    Released {
        /// The straddling session.
        session: u64,
        /// The acknowledging region.
        region: u32,
    },
    /// The session withdrew before every slice was granted; releases for
    /// the acquired prefix are (re-)issued until acknowledged.
    Withdrawn {
        /// The straddling session.
        session: u64,
    },
    /// The fabric retransmission ladder exhausted against an unreachable
    /// region: the session resolves with a clean `Rejected` outcome and its
    /// acquired prefix is released.
    Abandoned {
        /// The straddling session.
        session: u64,
        /// The unreachable region.
        region: u32,
    },
}

impl fmt::Display for GlobalRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GlobalRecord::Escalated { session, regions } => {
                let regions = list(regions, |r, f| write!(f, "{r}"));
                write!(f, "escalated session={session} regions={regions}")
            }
            GlobalRecord::SliceGranted { session, region } => {
                write!(f, "slice session={session} region={region}")
            }
            GlobalRecord::Submitted { session } => write!(f, "submitted session={session}"),
            GlobalRecord::Released { session, region } => {
                write!(f, "released session={session} region={region}")
            }
            GlobalRecord::Withdrawn { session } => write!(f, "withdrawn session={session}"),
            GlobalRecord::Abandoned { session, region } => {
                write!(f, "abandoned session={session} region={region}")
            }
        }
    }
}

/// Serializes a global-tier journal to its line-oriented text form.
pub fn encode_global_journal(records: &[GlobalRecord]) -> String {
    let mut out = String::new();
    push_lines(&mut out, records);
    out
}

/// Parses the text form produced by [`encode_global_journal`]. Blank lines
/// and `#` comments are ignored.
pub fn parse_global_journal(text: &str) -> Result<Vec<GlobalRecord>, ParseError> {
    read_records(text, parse_global_record)
}

fn parse_global_record(line: Cursor<'_>) -> Result<GlobalRecord, ParseError> {
    let f = Fields::words(line)?;
    Ok(match f.verb.as_str() {
        "escalated" => GlobalRecord::Escalated {
            session: f.int("session")?,
            regions: f.parse("regions", |c| c.next_list(Cursor::next_int))?,
        },
        "slice" => {
            GlobalRecord::SliceGranted { session: f.int("session")?, region: f.int("region")? }
        }
        "submitted" => GlobalRecord::Submitted { session: f.int("session")? },
        "released" => {
            GlobalRecord::Released { session: f.int("session")?, region: f.int("region")? }
        }
        "withdrawn" => GlobalRecord::Withdrawn { session: f.int("session")? },
        "abandoned" => {
            GlobalRecord::Abandoned { session: f.int("session")?, region: f.int("region")? }
        }
        _ => return Err(f.verb.unknown("global journal verb")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sada_expr::CompId;

    fn cfg(bits: &str) -> Config {
        Config::from_bit_string(bits).unwrap()
    }

    fn sample() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Request { source: cfg("0101"), target: cfg("0110") },
            JournalRecord::Queued { source: cfg("0110"), target: cfg("1001") },
            JournalRecord::PathSelected { actions: vec![ActionId(2), ActionId(0)] },
            JournalRecord::StepStarted { step: StepId(1), ix: 0 },
            JournalRecord::ResumeIssued { step: StepId(1) },
            JournalRecord::StepCommitted { step: StepId(1) },
            JournalRecord::StepStarted { step: StepId(2), ix: 1 },
            JournalRecord::RollbackIssued { step: StepId(2) },
            JournalRecord::RollbackComplete { step: StepId(2), retry: true },
            JournalRecord::GoalReversed,
            JournalRecord::PathSelected { actions: vec![] },
            JournalRecord::Outcome { success: false, gave_up: false },
        ]
    }

    #[test]
    fn text_round_trip_is_identity() {
        let records = sample();
        let text = encode_journal(&records);
        let parsed = parse_journal(&text).unwrap();
        assert_eq!(records, parsed, "text:\n{text}");
    }

    #[test]
    fn configuration_fields_travel_as_deltas() {
        let wide = |ids: &[usize]| Config::from_ids(16, ids.iter().map(|&i| CompId::from_index(i)));
        let records = vec![
            JournalRecord::Request { source: wide(&[0, 4]), target: wide(&[0, 5]) },
            JournalRecord::PathSelected { actions: vec![ActionId(3)] },
            JournalRecord::Queued { source: wide(&[0, 5]), target: wide(&[0, 5, 12]) },
            // A new width starts from a bit string; a delta as long as the
            // bit string is not written.
            JournalRecord::Request { source: cfg("0110"), target: cfg("0110") },
            JournalRecord::Queued { source: cfg("1001"), target: cfg("0000") },
        ];
        let text = encode_journal(&records);
        assert_eq!(
            text,
            "request source=0000000000010001 target=@-4+5\npath actions=3\n\
             queued source=@ target=@+12\nrequest source=0110 target=@\n\
             queued source=1001 target=0000\n"
        );
        let parsed = parse_journal(&text).unwrap();
        assert_eq!(parsed, records);
        // A delta is applied to a clone: an empty one shares the storage of
        // the configuration before it.
        let (JournalRecord::Request { target, .. }, JournalRecord::Queued { source, .. }) =
            (&parsed[0], &parsed[2])
        else {
            unreachable!("the records above")
        };
        assert!(sada_expr::oracle::shares_storage(target, source));
        // At a chunked width a delta copies only the chunks it touches.
        let source = Config::from_ids(10_000, [CompId::from_index(7)]);
        let mut target = source.clone();
        target.insert(CompId::from_index(9_000));
        let wide = encode_journal(&[JournalRecord::Request { source, target }]);
        assert!(wide.ends_with(" target=@+9000\n"), "{wide}");
        let parsed = parse_journal(&wide).unwrap();
        let JournalRecord::Request { source, target } = &parsed[0] else { unreachable!() };
        assert_eq!(sada_expr::oracle::shared_chunks(source, target), 2, "3 chunks, 1 copied");
        // Every line prefix is a journal of its own.
        for cut in 0..=records.len() {
            let prefix: String = text.split_inclusive('\n').take(cut).collect();
            assert_eq!(parse_journal(&prefix).unwrap(), records[..cut], "{prefix}");
        }
    }

    #[test]
    fn parse_ignores_comments_and_blanks() {
        let parsed = parse_journal("# preamble\n\nstep id=4 ix=1\n").unwrap();
        assert_eq!(parsed, vec![JournalRecord::StepStarted { step: StepId(4), ix: 1 }]);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_journal("explode id=1").is_err());
        assert!(parse_journal("step ix=1").is_err());
        assert!(parse_journal("step id=x ix=1").is_err());
        assert!(parse_journal("request source=012 target=000").is_err());
        assert!(parse_journal("request source=@ target=000").is_err());
        assert!(parse_journal("request source=01 target=011").is_err());
        assert!(parse_journal("rolledback id=1 retry=maybe").is_err());
    }

    #[test]
    fn config_bits_preserve_order() {
        // The leftmost bit is the highest component index, as in the paper.
        let c = cfg("100");
        assert!(c.contains(CompId::from_index(2)));
        assert!(!c.contains(CompId::from_index(0)));
        assert_eq!(c.to_bit_string(), "100");
    }

    fn arb_config(width: usize) -> impl Strategy<Value = Config> {
        proptest::collection::vec(any::<bool>(), width).prop_map(|bits| {
            let mut c = Config::empty(bits.len());
            for (ix, b) in bits.iter().enumerate() {
                if *b {
                    c.insert(CompId::from_index(ix));
                }
            }
            c
        })
    }

    fn arb_step() -> impl Strategy<Value = StepId> {
        (1u64..1_000).prop_map(StepId)
    }

    fn arb_record() -> impl Strategy<Value = JournalRecord> {
        prop_oneof![
            (arb_config(7), arb_config(7))
                .prop_map(|(source, target)| JournalRecord::Request { source, target }),
            (arb_config(7), arb_config(7))
                .prop_map(|(source, target)| JournalRecord::Queued { source, target }),
            proptest::collection::vec((0u32..64).prop_map(ActionId), 0..5)
                .prop_map(|actions| JournalRecord::PathSelected { actions }),
            Just(JournalRecord::GoalReversed),
            (arb_step(), 0u32..16).prop_map(|(step, ix)| JournalRecord::StepStarted { step, ix }),
            arb_step().prop_map(|step| JournalRecord::ResumeIssued { step }),
            arb_step().prop_map(|step| JournalRecord::StepCommitted { step }),
            arb_step().prop_map(|step| JournalRecord::RollbackIssued { step }),
            (arb_step(), any::<bool>())
                .prop_map(|(step, retry)| JournalRecord::RollbackComplete { step, retry }),
            (any::<bool>(), any::<bool>())
                .prop_map(|(success, gave_up)| JournalRecord::Outcome { success, gave_up }),
        ]
    }

    #[test]
    fn old_sessionless_lines_parse_as_session_zero() {
        let records = sample();
        // A pre-fleet journal (no session fields anywhere) read by the new
        // parser: every record lands in session 0.
        let old_text = encode_journal(&records);
        let tagged = parse_session_journal(&old_text).unwrap();
        assert!(tagged.iter().all(|r| r.session == SessionId::SOLO));
        assert_eq!(tagged.iter().map(|r| r.record.clone()).collect::<Vec<_>>(), records);
        // And a solo session-tagged journal encodes byte-identically to the
        // pre-fleet form.
        let solo: Vec<SessionRecord> = records.into_iter().map(SessionRecord::from).collect();
        assert_eq!(encode_session_journal(&solo), old_text);
    }

    #[test]
    fn old_parser_reads_tagged_lines_by_dropping_the_tag() {
        let tagged: Vec<SessionRecord> = sample()
            .into_iter()
            .enumerate()
            .map(|(i, record)| SessionRecord { session: SessionId(i as u64 % 3), record })
            .collect();
        let text = encode_session_journal(&tagged);
        // Forward compatibility: the session-less parser accepts the tagged
        // text, ignoring the unknown field.
        let stripped = parse_journal(&text).unwrap();
        assert_eq!(stripped, tagged.iter().map(|r| r.record.clone()).collect::<Vec<_>>());
    }

    fn arb_session_record() -> impl Strategy<Value = SessionRecord> {
        (0u64..9, arb_record())
            .prop_map(|(s, record)| SessionRecord { session: SessionId(s), record })
    }

    fn arb_global_record() -> impl Strategy<Value = GlobalRecord> {
        let session = 1u64..1_000;
        prop_oneof![
            (session.clone(), proptest::collection::vec(0u32..16, 0..5))
                .prop_map(|(session, regions)| GlobalRecord::Escalated { session, regions }),
            (session.clone(), 0u32..16)
                .prop_map(|(session, region)| GlobalRecord::SliceGranted { session, region }),
            session.clone().prop_map(|session| GlobalRecord::Submitted { session }),
            (session.clone(), 0u32..16)
                .prop_map(|(session, region)| GlobalRecord::Released { session, region }),
            session.clone().prop_map(|session| GlobalRecord::Withdrawn { session }),
            (session, 0u32..16)
                .prop_map(|(session, region)| GlobalRecord::Abandoned { session, region }),
        ]
    }

    #[test]
    fn global_journal_text_round_trips() {
        let records = vec![
            GlobalRecord::Escalated { session: 7, regions: vec![0, 3] },
            GlobalRecord::SliceGranted { session: 7, region: 0 },
            GlobalRecord::SliceGranted { session: 7, region: 3 },
            GlobalRecord::Submitted { session: 7 },
            GlobalRecord::Released { session: 7, region: 0 },
            GlobalRecord::Withdrawn { session: 9 },
            GlobalRecord::Abandoned { session: 11, region: 2 },
        ];
        let text = encode_global_journal(&records);
        assert_eq!(parse_global_journal(&text).unwrap(), records, "text:\n{text}");
    }

    #[test]
    fn global_journal_rejects_malformed_lines() {
        assert!(parse_global_journal("teleported session=1").is_err());
        assert!(parse_global_journal("slice session=1").is_err());
        assert!(parse_global_journal("slice session=x region=0").is_err());
        assert!(parse_global_journal("escalated session=1 regions=0,oops").is_err());
    }

    proptest! {
        #[test]
        fn every_journal_round_trips(records in proptest::collection::vec(arb_record(), 0..40)) {
            let text = encode_journal(&records);
            let parsed = parse_journal(&text).unwrap();
            // The text form is canonical: what parses encodes back to it.
            prop_assert_eq!(encode_journal(&parsed), text);
            prop_assert_eq!(records, parsed);
        }

        #[test]
        fn every_global_journal_round_trips(
            records in proptest::collection::vec(arb_global_record(), 0..40),
        ) {
            let text = encode_global_journal(&records);
            let parsed = parse_global_journal(&text).unwrap();
            prop_assert_eq!(records, parsed);
        }

        #[test]
        fn every_session_journal_round_trips(
            records in proptest::collection::vec(arb_session_record(), 0..40),
        ) {
            let text = encode_session_journal(&records);
            let parsed = parse_session_journal(&text).unwrap();
            prop_assert_eq!(encode_session_journal(&parsed), text.clone());
            prop_assert_eq!(&records, &parsed);
            // The session-less view of the same text is the record column.
            let stripped = parse_journal(&text).unwrap();
            let expected: Vec<JournalRecord> =
                records.iter().map(|r| r.record.clone()).collect();
            prop_assert_eq!(stripped, expected);
        }
    }
}
