//! Every text a disk or a peer can hand the control plane — JSONL traces,
//! the three journals, fault plans, fabric messages — is parsed or rejected
//! with a `ParseError`, never a panic; and what each format rejects, it
//! rejects at a pinned line and column. The harness is `hostile/mod.rs`
//! (`parse_scenario` is held to it in `crates/scenario/tests/hostile_text.rs`).

mod hostile;

use hostile::{assert_rejections, check, hostile};
use proptest::prelude::*;
use sada_expr::{CompId, Config};
use sada_fleet::{encode_fabric_msg, parse_fabric_msg};
use sada_obs::{decode_lines, encode_event, AuditEvent, Event, NetEvent, Payload, SimTime};
use sada_proto::{
    encode_global_journal, encode_journal, encode_session_journal, parse_global_journal,
    parse_journal, parse_session_journal, JournalRecord,
};
use sada_simnet::FaultPlan;

#[rustfmt::skip]
const JSONL_TOKENS: &[&str] = &[
    "{", "}", "[", "]", "\"", "\\", "\\\"", "\\n", "\\u", "\\u00", "\\u0041", "\\ud800", "\\x",
    "{\"at\":", "\"actor\":0", "\"actor\":", "\"session\":", "\"shard\":", "\"kind\":",
    "\"net.crashed\"", "\"net.sent\"", "\"audit.in_action\"", "\"audit.config\"", "\"proto.agent\"",
    "\"from\":", "\"to\":", "\"label\":\"", "\"comps\":[", "\"config\":\"01\"", "\"running\"",
    "\"step\":", "[1,2]", "[]", "[1,", "fals", "null", "1.5", "{\"at\":0,\"actor\":0,\"kind\":",
];

const JSONL_VALID: &str = concat!(
    "{\"at\":5,\"actor\":1,\"session\":7,\"shard\":3,\"kind\":\"net.sent\",\"from\":1,\"to\":2}\n",
    "{\"at\":6,\"actor\":4294967295,\"kind\":\"proto.agent\",\"from\":\"running\",\"to\":\"safe\",\"step\":4}\n",
    "{\"at\":7,\"actor\":0,\"kind\":\"audit.in_action\",\"label\":\"a \\\"b\\\" \\u0001 \\n→\",\"comps\":[0,65]}\n",
    "{\"at\":8,\"actor\":0,\"kind\":\"audit.config\",\"config\":\"1001\"}\n",
    "{\"at\":9,\"actor\":2,\"kind\":\"proto.step_started\",\"step\":7,\"solo\":true,\"participants\":3}\n",
    "{\"at\":9,\"actor\":2,\"kind\":\"temporal.opened\",\"key\":\"seg_start_c3\",\"cid\":99}\n",
);

#[rustfmt::skip]
const JOURNAL_TOKENS: &[&str] = &[
    "request", "queued", "path", "reverse", "step", "resume", "commit", "rollback", "rolledback",
    "outcome", "escalated", "slice", "submitted", "released", "withdrawn", "abandoned", "explode",
    "source=", "target=", "source=0101", "target=01x1", "actions=", "actions=-", "actions=1,2",
    "actions=1,", "id=", "id=4", "ix=", "ix=1", "retry=", "retry=true", "retry=maybe", "success=",
    "gave_up=false", "session=", "session=7", "regions=", "regions=0,3", "regions=-", "region=",
    "region=2", "future=x", "=", "==", "@", "source=@", "target=@", "target=@-0+1", "+0", "-3",
    "+4294967296", "@+", "+-",
];

const JOURNAL_VALID: &str = "request source=0101100 target=@-2+6 session=7\n\
    queued source=@+0 target=@-3 session=2\nrequest source=1 target=0\nqueued source=0 target=@\n\
    path actions=2,0,7 session=3\npath actions=-\nreverse\nstep id=4 ix=1 session=9\n\
    resume id=4\ncommit id=4\nrollback id=5\nrolledback id=5 retry=true\n\
    outcome success=false gave_up=true session=2\n# a comment\n";

const GLOBAL_VALID: &str = "escalated session=7 regions=0,3\nescalated session=8 regions=-\n\
    slice session=7 region=0\nsubmitted session=7\nreleased session=7 region=3\n\
    withdrawn session=9\nabandoned session=11 region=2\n";

#[rustfmt::skip]
const FAULT_TOKENS: &[&str] = &[
    "crash", "restart", "partition", "drop", "delay", "explode", "at=", "at=5", "id=", "id=0",
    "from=", "from=1", "from=*", "from=q", "to=", "to=*", "to=2", "start=", "start=10", "end=",
    "end=90", "nth=", "nth=3", "extra=", "extra=1500", "=",
];

const FAULT_VALID: &str = "crash at=120000 id=2\nrestart at=250000 id=2\n\
    partition from=0 to=1 start=10000 end=90000\ndrop nth=3 from=* to=1\n\
    delay start=5000 end=20000 extra=1500\n";

#[rustfmt::skip]
const FABRIC_TOKENS: &[&str] = &[
    "lock_request", "lock_granted", "lock_release", "release_ack", "bogus", "session=", "session=9",
    "epoch=", "epoch=2", "priority=", "priority=1", "resources=", "resources=3,7", "resources=-",
    "comps=", "comps=2,3", "region=", "region=1", "values=", "values=2:1,3:0", "values=-",
    "values=2:", "values=2:2", "values=:1", "=",
];

const FABRIC_VALID: &str = "lock_request session=9 epoch=2 priority=1 resources=3,7 comps=2,3\n\
    lock_granted session=9 region=1 epoch=2 values=2:1,3:0\n\
    lock_release session=9 epoch=2 values=-\nrelease_ack session=9 region=1 epoch=2\n";

/// `parse_fabric_msg` reads one line; hostile text has several.
fn first_line(text: &str) -> &str {
    text.lines().next().unwrap_or("")
}

proptest! {
    #[test]
    fn no_text_panics_the_jsonl_decoder(text in hostile(JSONL_TOKENS, JSONL_VALID)) {
        let encode = |evs: &Vec<_>| evs.iter().map(|ev| encode_event(ev) + "\n").collect();
        check(&text, decode_lines, encode)?;
    }

    #[test]
    fn no_text_panics_the_journal_parsers(text in hostile(JOURNAL_TOKENS, JOURNAL_VALID)) {
        check(&text, parse_journal, |r| encode_journal(r))?;
        check(&text, parse_session_journal, |r| encode_session_journal(r))?;
    }

    #[test]
    fn no_text_panics_the_global_journal_parser(text in hostile(JOURNAL_TOKENS, GLOBAL_VALID)) {
        check(&text, parse_global_journal, |r| encode_global_journal(r))?;
    }

    #[test]
    fn no_text_panics_the_fault_plan_parser(text in hostile(FAULT_TOKENS, FAULT_VALID)) {
        check(&text, FaultPlan::parse, FaultPlan::to_text)?;
    }

    #[test]
    fn no_text_panics_the_fabric_message_parser(text in hostile(FABRIC_TOKENS, FABRIC_VALID)) {
        check(first_line(&text), parse_fabric_msg, encode_fabric_msg)?;
    }
}

#[test]
fn the_valid_corpora_parse() {
    // The truncations above are only hostile if the whole lines are not.
    assert_eq!(decode_lines(JSONL_VALID).unwrap().len(), 6);
    assert_eq!(parse_session_journal(JOURNAL_VALID).unwrap().len(), 13);
    assert_eq!(parse_global_journal(GLOBAL_VALID).unwrap().len(), 7);
    assert_eq!(FaultPlan::parse(FAULT_VALID).unwrap().faults.len(), 5);
    for line in FABRIC_VALID.lines() {
        parse_fabric_msg(line).unwrap();
    }
}

/// What each format rejects, and where: a missing field, a number that is
/// no number or does not fit its field, a bad list item, a bad bit, an
/// unknown verb, kind or name, an unterminated string, a bad escape,
/// trailing text — and the line number of a later line.
#[test]
fn malformed_jsonl_is_rejected_where_it_goes_wrong() {
    #[rustfmt::skip]
    assert_rejections(decode_lines, &[
        ("{\"at\":0,\"actor\":0,\"kind\":\"net.sent\",\"from\":1}", 1, 46, "field 'to'"),
        ("{\"at\":x,\"actor\":0,\"kind\":\"net.crashed\"}", 1, 7, "a JSON value"),
        ("{\"at\":0,\"actor\":4294967296,\"kind\":\"net.crashed\"}", 1, 17, "u32"),
        ("{\"at\":18446744073709551616,\"actor\":0,\"kind\":\"net.crashed\"}", 1, 7, "u64"),
        ("{\"at\":0,\"actor\":0,\"kind\":\"proto.retry\",\"step\":1,\"resends\":4294967296}", 1, 59, "u32"),
        ("{\"at\":0,\"actor\":0,\"kind\":\"audit.seg_end\",\"cid\":1,\"comp\":4294967296}", 1, 57, "u32"),
        ("{\"at\":0,\"actor\":0,\"kind\":\"audit.in_action\",\"label\":\"\",\"comps\":[1,x]}", 1, 66, "u64"),
        ("{\"at\":0,\"actor\":0,\"kind\":\"audit.in_action\",\"label\":\"\",\"comps\":[1,4294967296]}", 1, 66, "u32"),
        ("{\"at\":0,\"actor\":0,\"kind\":\"audit.config\",\"config\":\"01x1\"}", 1, 53, "'0' or '1'"),
        ("{\"at\":0,\"actor\":0,\"kind\":\"weird\"}", 1, 27, "a known event kind (unknown event kind \"weird\")"),
        ("{\"at\":0,\"actor\":0,\"kind\":\"proto.agent\",\"from\":\"running\",\"to\":\"flying\"}", 1, 63, "a known agent state (unknown agent state \"flying\")"),
        ("{\"at\":0,\"actor\":0,\"kind\":\"temporal.opened\",\"key\":\"seg_mid_c1\",\"cid\":1}", 1, 51, "a known obligation key (unknown obligation key \"seg_mid_c1\")"),
        ("{\"at\":0,\"actor\":0,\"kind\":\"audit.in_action\",\"label\":\"open,\"comps\":[]}", 1, 59, "',' or '}'"),
        ("{\"at\":0,\"actor\":0,\"kind\":\"audit.in_action\",\"label\":\"open", 1, 52, "a terminated string"),
        ("{\"at\":0,\"actor\":0,\"kind\":\"audit.in_action\",\"label\":\"a\\u00zz\",\"comps\":[]}", 1, 55, "an escape: \\\" \\\\ \\n \\r \\t or \\u and four hex digits"),
        ("{\"at\":0,\"actor\":0,\"kind\":\"audit.in_action\",\"label\":\"a\\ud800\",\"comps\":[]}", 1, 55, "an escape: \\\" \\\\ \\n \\r \\t or \\u and four hex digits"),
        ("{\"at\":0,\"actor\":0,\"kind\":\"audit.in_action\",\"label\":\"a\\q\",\"comps\":[]}", 1, 55, "an escape: \\\" \\\\ \\n \\r \\t or \\u and four hex digits"),
        ("{\"at\":0,\"actor\":0,\"kind\":\"net.crashed\"}garbage", 1, 40, "the end"),
        ("{\"at\":0,\"actor\":0,\"kind\":\"net.crashed\",\"solo\":maybe}", 1, 47, "a JSON value"),
        ("{\"at\":0 \"actor\":0}", 1, 9, "',' or '}'"),
        ("# ok\n\nnot json\n", 3, 1, "'{'"),
        ("{\"at\":0,\"actor\":0,\"kind\":\"net.crashed\"}\n  {\"at\":1,\"actor\":0,\"kind\":\"net.timer\"}\n", 2, 40, "field 'tag'"),
    ]);
}

/// Every state of the JSON-line scanner: around each token, in each kind of
/// value, at the spill past the inline fields, and at the end of the line.
#[test]
fn malformed_jsonl_is_rejected_in_every_scanner_state() {
    #[rustfmt::skip]
    assert_rejections(decode_lines, &[
        ("{}", 1, 3, "field 'at'"),
        ("{ }", 1, 4, "field 'at'"),
        ("{", 1, 2, "'\"'"),
        ("{at:0}", 1, 2, "'\"'"),
        ("{\"at\":0,}", 1, 9, "'\"'"),
        ("{\"at\":0,\"act", 1, 9, "a terminated string"),
        ("{\"at\" 0}", 1, 7, "':'"),
        ("{\"at\":}", 1, 7, "a JSON value"),
        ("{\"at\": ,\"actor\":0}", 1, 8, "a JSON value"),
        ("{\"at\":-1,\"actor\":0,\"kind\":\"net.crashed\"}", 1, 7, "a JSON value"),
        ("{\"at\":1.5,\"actor\":0,\"kind\":\"net.crashed\"}", 1, 8, "',' or '}'"),
        ("{\"at\":null,\"actor\":0,\"kind\":\"net.crashed\"}", 1, 7, "a JSON value"),
        ("{\"at\":0,\"actor\":0,\"kind\":\"net.crashed\",\"x\":fals}", 1, 44, "true or false"),
        ("{\"at\":0,\"actor\":0,\"kind\":\"net.crashed\",\"x\":\"open}", 1, 44, "a terminated string"),
        ("{\"at\":0,\"actor\":0,\"kind\":\"audit.in_action\",\"label\":\"\",\"comps\":[1,2", 1, 67, "']'"),
        ("{\"at\":0,\"actor\":0,\"kind\":\"audit.in_action\",\"label\":\"\",\"comps\":[", 1, 64, "u64"),
        ("{\"at\":0,\"actor\":0,\"kind\":\"audit.in_action\",\"label\":\"\",\"comps\":[1 2]}", 1, 66, "']'"),
        ("{\"at\":0,\"actor\":0,\"kind\":\"audit.in_action\",\"label\":\"\",\"comps\":[1,]}", 1, 66, "u64"),
        ("{\"at\":0,\"actor\":0,\"kind\":\"audit.in_action\",\"label\":\"\",\"comps\":[18446744073709551616]}", 1, 64, "u64"),
        ("{\"at\":0,\"actor\":0,\"kind\":\"audit.in_action\",\"label\":1,\"comps\":[]}", 1, 52, "'\"'"),
        ("{\"at\":0,\"actor\":0,\"kind\":\"net.sent\",\"from\":\"1\",\"to\":2}", 1, 44, "u32"),
        ("{\"at\":0,\"actor\":0,\"kind\":\"proto.step_started\",\"step\":1,\"solo\":1,\"participants\":1}", 1, 63, "true or false"),
        ("{\"at\":0,\"actor\":0,\"k\\u0069nd\":\"net.crashed\"}", 1, 45, "field 'kind'"),
        ("{\"at\":0,\"actor\":0,\"kind\":\"net.crashed\"}}", 1, 40, "the end"),
        ("{\"at\":0,\"actor\":0,\"kind\":\"net.crashed\"} x", 1, 41, "the end"),
        ("{\"x0\":0,\"x1\":0,\"x2\":0,\"x3\":0,\"x4\":0,\"x5\":0,\"x6\":0,\"x7\":0,\"x8\":0,\"x9\":0,\"x10\":0,\"x11\":0,\"at\":0,\"actor\":x}", 1, 103, "a JSON value"),
        ("{\"x0\":0,\"x1\":0,\"x2\":0,\"x3\":0,\"x4\":0,\"x5\":0,\"x6\":0,\"x7\":0,\"x8\":0,\"x9\":0,\"x10\":0,\"x11\":0,\"at\":0,\"actor\":0}", 1, 105, "field 'kind'"),
    ]);
}

/// What the JSON-line scanner accepts beyond what the encoder writes:
/// whitespace around every token, an escaped (and so unknown) key, a
/// repeated key (the last one counts), more fields than the view holds
/// inline, and arrays with spaces.
#[test]
fn loose_jsonl_decodes_to_the_event_it_spells() {
    let crashed = |at: u64| Event {
        at: SimTime::from_micros(at),
        actor: 1,
        session: 0,
        shard: 0,
        payload: Payload::Net(NetEvent::Crashed),
    };
    let in_action = |comps: &[usize]| Event {
        payload: Payload::Audit(AuditEvent::InAction {
            label: "x".into(),
            comps: comps.iter().copied().map(CompId::from_index).collect(),
        }),
        ..crashed(5)
    };
    let spill: String = (0..12).map(|i| format!("\"x{i}\":{i},")).collect();
    #[rustfmt::skip]
    let rows = [
        ("{ \"at\" : 5 , \"actor\" : 1 , \"kind\" : \"net.crashed\" }".to_string(), crashed(5)),
        ("\t{\t\"at\":5,\"actor\":1,\"kind\":\"net.crashed\"}\t  ".to_string(), crashed(5)),
        ("{\"at\":5,\"a\\\"b\":1,\"actor\":1,\"kind\":\"net.crashed\"}".to_string(), crashed(5)),
        ("{\"at\":5,\"x\":[ ],\"y\":true,\"z\":\"w\",\"actor\":1,\"kind\":\"net.crashed\"}".to_string(), crashed(5)),
        ("{\"at\":1,\"actor\":1,\"kind\":\"net.crashed\",\"at\":5}".to_string(), crashed(5)),
        (format!("{{\"at\":1,{spill}\"actor\":1,\"kind\":\"net.crashed\",\"at\":5}}"), crashed(5)),
        (format!("{{{spill}\"at\":5,\"actor\":1,\"kind\":\"net.crashed\"}}"), crashed(5)),
        ("{\"at\":5,\"actor\":1,\"kind\":\"audit.in_action\",\"label\":\"x\",\"comps\":[1, 2]}".to_string(), in_action(&[1, 2])),
        ("{\"at\":5,\"actor\":1,\"kind\":\"audit.in_action\",\"label\":\"x\",\"comps\":[ 1 , 2 ]}".to_string(), in_action(&[1, 2])),
        ("{\"at\":5,\"actor\":1,\"kind\":\"audit.in_action\",\"label\":\"x\",\"comps\":[ ]}".to_string(), in_action(&[])),
        ("{\"at\":05,\"actor\":1,\"kind\":\"net.crashed\"}".to_string(), crashed(5)),
    ];
    for (text, want) in rows {
        assert_eq!(decode_lines(&text), Ok(vec![want]), "{text:?}");
    }
}

/// `width` bits of `0101…` with `bad` in place of the bit at `at`.
fn bits_with(width: usize, at: usize, bad: char) -> String {
    let bit = |i: usize| if i & 1 == 0 { '0' } else { '1' };
    (0..width).map(|i| if i == at { bad } else { bit(i) }).collect()
}

/// A bad byte in a bit string at the first byte, around the first eight and
/// around the first sixty-four, whichever way a reader cuts the string.
#[test]
fn a_bad_bit_is_rejected_where_it_stands() {
    let good = bits_with(128, usize::MAX, '0');
    for at in [0, 7, 8, 63, 64, 65, 127] {
        for bad in ['2', '/', '\u{b}', 'é'] {
            let source = format!("request source={} target={good}", bits_with(128, at, bad));
            let target = format!("queued source={good} target={}", bits_with(130, at, bad));
            assert_rejections(parse_journal, &[(&source, 1, 16 + at, "'0' or '1'")]);
            assert_rejections(parse_journal, &[(&target, 1, 151 + at, "'0' or '1'")]);
        }
    }
}

/// Bits end at any ASCII whitespace: a tab, a form feed, a carriage return.
#[test]
fn bits_end_at_any_whitespace() {
    let (a, b) = (bits_with(128, usize::MAX, '0'), bits_with(128, 3, '1'));
    let want = vec![JournalRecord::Request {
        source: Config::from_bit_string(&a).unwrap(),
        target: Config::from_bit_string(&b).unwrap(),
    }];
    for sep in ["\t", "\x0c", " \t ", "\r"] {
        let text = format!("request source={a}{sep}target={b}{sep}\n");
        assert_eq!(parse_journal(&text), Ok(want.clone()), "{text:?}");
    }
}

#[test]
fn malformed_journals_are_rejected_where_they_go_wrong() {
    #[rustfmt::skip]
    assert_rejections(parse_journal, &[
        ("step ix=1", 1, 10, "field 'id'"),
        ("step id=x ix=1", 1, 9, "u64"),
        ("step id=4 ix=4294967296", 1, 14, "u32"),
        ("step id=18446744073709551616 ix=1", 1, 9, "u64"),
        ("path actions=1,x", 1, 16, "u32"),
        ("path actions=1,", 1, 16, "u32"),
        ("path actions=-1", 1, 15, "the end"),
        ("request source=012 target=000", 1, 18, "'0' or '1'"),
        ("request source=01 target=0é", 1, 27, "'0' or '1'"),
        ("explode id=1", 1, 1, "a known journal verb (unknown journal verb \"explode\")"),
        ("rolledback id=1 retry=maybe", 1, 23, "true or false"),
        ("rolledback id=1 retry=truely", 1, 27, "the end"),
        ("step id=4 ix", 1, 11, "key=value"),
        ("step id=4 =1", 1, 13, "field 'ix'"),
        ("reverse\n# c\n  commit id=4 id=\n", 3, 18, "u64"),
        // Configuration fields: the two of a line share one width, and a
        // delta needs a configuration before it, names components inside
        // the width in strictly ascending order, and changes each one.
        ("request source=01 target=011", 1, 26, "a configuration of width 2"),
        ("queued source=0101 target=01", 1, 27, "a configuration of width 4"),
        ("request source=@ target=0", 1, 16, "'0' or '1' (no configuration precedes '@')"),
        ("path actions=1\nqueued source=@-0 target=@", 2, 15, "'0' or '1' (no configuration precedes '@')"),
        ("request source=0101 target=@+4", 1, 29, "a component below the width 4"),
        ("request source=01 target=10\nqueued source=@+2 target=@", 2, 16, "a component below the width 2"),
        ("request source=0101 target=@+1-0", 1, 31, "a component above 1"),
        ("request source=0101 target=@+1+1", 1, 31, "a component above 1"),
        ("request source=0101 target=@+0", 1, 29, "a component the configuration lacks"),
        ("request source=0101 target=@-1", 1, 29, "a component the configuration holds"),
        ("request source=0101 target=@x", 1, 29, "'-' or '+'"),
        ("request source=0101 target=@+1,2", 1, 31, "'-' or '+'"),
        ("request source=0101 target=@+", 1, 30, "usize"),
        ("request source=0101 target=@+18446744073709551616", 1, 30, "usize"),
    ]);
    #[rustfmt::skip]
    assert_rejections(parse_session_journal, &[
        ("commit id=4 session=x", 1, 21, "u64"),
        ("commit id=4 session=18446744073709551616", 1, 21, "u64"),
        ("commit id=4\nwarp id=4 session=1", 2, 1, "a known journal verb (unknown journal verb \"warp\")"),
        ("request source=0101 target=@+1 session=3\nqueued source=@+0 target=@ session=4", 2, 16, "a component the configuration lacks"),
    ]);
    #[rustfmt::skip]
    assert_rejections(parse_global_journal, &[
        ("teleported session=1", 1, 1, "a known global journal verb (unknown global journal verb \"teleported\")"),
        ("slice session=1", 1, 16, "field 'region'"),
        ("slice session=x region=0", 1, 15, "u64"),
        ("slice session=1 region=4294967296", 1, 24, "u32"),
        ("escalated session=1 regions=0,oops", 1, 31, "u32"),
        ("escalated session=1 regions=", 1, 29, "u32"),
        ("submitted", 1, 10, "field 'session'"),
    ]);
}

#[test]
fn malformed_fault_plans_are_rejected_where_they_go_wrong() {
    #[rustfmt::skip]
    assert_rejections(FaultPlan::parse, &[
        ("explode at=5 id=0", 1, 1, "a known fault verb (unknown fault verb \"explode\")"),
        ("crash at=x id=0", 1, 10, "u64"),
        ("crash id=0", 1, 11, "field 'at'"),
        ("crash at=5 id=4294967296", 1, 15, "u32"),
        ("drop nth=4294967296 from=* to=*", 1, 10, "u32"),
        ("drop nth=1 from=q to=*", 1, 17, "u32"),
        ("drop nth=1 from=*2 to=*", 1, 18, "the end"),
        ("crash at=5 id=0\ndelay start=1 end=2 extra=-3\n", 2, 27, "u64"),
    ]);
}

#[test]
fn malformed_fabric_messages_are_rejected_where_they_go_wrong() {
    #[rustfmt::skip]
    assert_rejections(parse_fabric_msg, &[
        ("lock_request session=1", 1, 23, "field 'resources'"),
        ("bogus x=1", 1, 1, "a known fabric verb (unknown fabric verb \"bogus\")"),
        ("", 1, 1, "a word"),
        ("lock_request session=1 epoch=0 priority=256 resources=- comps=-", 1, 41, "u8"),
        ("lock_granted session=1 region=4294967296 epoch=0 values=-", 1, 31, "u32"),
        ("lock_request session=1 epoch=0 priority=1 resources=3,x comps=-", 1, 55, "u32"),
        ("lock_granted session=1 region=0 epoch=0 values=2:2", 1, 50, "'0' or '1'"),
        ("lock_granted session=1 region=0 epoch=0 values=2", 1, 49, "':'"),
        ("lock_release session=1 epoch=0 values=2:1,", 1, 43, "u32"),
        ("release_ack session=1 region=0 epoch", 1, 32, "key=value"),
    ]);
}
