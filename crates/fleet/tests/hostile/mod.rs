//! Hostile text against a line-oriented parser, written once for every
//! format built on `sada_obs::text` (shared by `sada-fleet`'s and
//! `sada-scenario`'s `hostile_text` tests; the latter includes this file by
//! path, as `shard_identity` does with `identity/`, and so do the spec
//! file's and the ptLTL parser's tests).
//!
//! Two tools. [`hostile`] generates text stitched from a format's own
//! tokens, near-tokens, multi-byte characters and valid lines cut short, and
//! [`check`] holds a parser to it: no panic, an error that points inside
//! the text, and on success a value that survives its own re-encoding.
//! [`assert_rejections`] pins the exact `ParseError` of a table of malformed
//! inputs.

use std::fmt::Debug;

use proptest::prelude::*;
use sada_obs::text::ParseError;

/// What every format shares: separators, list and comment punctuation,
/// digits at the edge of the integer widths, and characters of two, three
/// and four bytes to land hard against a token or at the end of a line.
const SHARED: &[&str] = &[
    " ",
    "  ",
    "\t",
    "\n",
    "\r\n",
    "#",
    "-",
    ",",
    ":",
    "=",
    "*",
    "0",
    "1",
    "7",
    "255",
    "256",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "+1",
    "-1",
    "01",
    "true",
    "false",
    "tru",
    "é",
    "→",
    "😀",
    "\u{a0}",
    "\u{0}",
    "ß",
];

/// Whole lines of `valid` around one hostile stretch: `tokens`, the shared
/// fragments, valid lines cut short or with a token spliced in, and
/// arbitrary characters, stitched together. The stretch
/// may be empty, so some texts parse; most fail, on a line that is not the
/// first.
pub(crate) fn hostile(tokens: &[&'static str], valid: &str) -> BoxedStrategy<String> {
    let lines: Vec<String> = valid.lines().map(|line| format!("{line}\n")).collect();
    let line = prop::sample::select(lines).boxed();
    let token = prop::sample::select([tokens, SHARED].concat()).prop_map(str::to_string).boxed();
    // A valid line up to a random character, and then either nothing (a
    // truncation), or a token and the rest of the line (a splice: the way
    // into the readers behind a well-formed envelope).
    let cut = (line.clone(), any::<usize>(), token.clone(), any::<bool>()).prop_map(
        |(line, at, token, splice)| {
            let mut at = at % line.len();
            while !line.is_char_boundary(at) {
                at -= 1;
            }
            let (head, tail) = line.split_at(at);
            if splice {
                [head, &token, tail].concat()
            } else {
                head.to_string()
            }
        },
    );
    let any_char = any::<u32>().prop_map(|bits| {
        char::from_u32(bits % 0x11_0000).map_or_else(|| "\u{fffd}".to_string(), String::from)
    });
    let stretch = prop::collection::vec(prop_oneof![3 => token, 3 => cut, 1 => any_char], 0..10);
    let lines = |n| prop::collection::vec(line.clone(), 0..n);
    (lines(4), stretch, lines(3))
        .prop_map(|(before, stretch, after)| [before, stretch, after].concat().concat())
        .boxed()
}

/// Runs of binary-operator `links` (such as `"a | "`), 40 links each and
/// open at the end, for the expression parsers' token lists: two stitched
/// together pass the parsers' nesting bound, as a chain's links count
/// toward it.
#[allow(dead_code)] // the line formats have no binary operators
pub(crate) fn chains(links: &[&str]) -> Vec<&'static str> {
    links.iter().map(|link| &*link.repeat(40).leak()).collect()
}

/// Holds `parse` to one text: an error names a place inside the text, and
/// what parses re-encodes to text that parses to the same value.
pub(crate) fn check<T: PartialEq + Debug>(
    text: &str,
    parse: impl Fn(&str) -> Result<T, ParseError>,
    encode: impl Fn(&T) -> String,
) -> Result<(), TestCaseError> {
    match parse(text) {
        Err(e) => {
            let line = text.lines().nth(e.line.wrapping_sub(1));
            prop_assert!(
                line.is_some() || (e.line == 1 && text.is_empty()),
                "{:?}: no line {}: {}",
                text,
                e.line,
                e
            );
            let len = line.map_or(0, str::len);
            prop_assert!(
                (1..=len + 1).contains(&e.column),
                "{:?}: column past the line: {}",
                text,
                e
            );
        }
        Ok(value) => {
            let canonical = encode(&value);
            prop_assert_eq!(
                parse(&canonical),
                Ok(value),
                "{:?} re-encoded as {:?}",
                text,
                canonical
            );
        }
    }
    Ok(())
}

/// Holds `parse` to a table of malformed inputs: each is rejected with
/// exactly `(line, column, expected)`.
pub(crate) fn assert_rejections<T: Debug>(
    parse: impl Fn(&str) -> Result<T, ParseError>,
    rows: &[(&str, usize, usize, &str)],
) {
    for &(text, line, column, expected) in rows {
        let want = ParseError { line, column, expected: expected.to_string() };
        match parse(text) {
            Err(got) => assert_eq!(got, want, "{text:?}"),
            Ok(value) => panic!("{text:?} must be rejected with {want:?}, parsed as {value:?}"),
        }
    }
}
