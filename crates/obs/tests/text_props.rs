//! Property corpus for `sada_obs::text`, the tokenizer under every text
//! format: no text makes a reader panic, every error points inside the text
//! it was given, and a reader never hands back more than it was given. The
//! formats built on it are held to hostile text of their own in
//! `crates/fleet/tests/hostile_text.rs`.

use proptest::prelude::*;

use sada_expr::{CompId, Config};
use sada_obs::text::{list, push_json_str, read_records, records, Cursor, Fields, ParseError};

/// Near-tokens of both lexical families, numbers at the edge of each
/// integer width, and characters of two, three and four bytes.
const TOKENS: &[&str] = &[
    " ",
    "\t",
    "\n",
    "#",
    "-",
    ",",
    ":",
    "=",
    "*",
    "{",
    "}",
    "[",
    "]",
    "\"",
    "\\",
    "0",
    "1",
    "01",
    "255",
    "256",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "+1",
    "@",
    "@+1-2",
    "true",
    "false",
    "tru",
    "k=",
    "k=1,2",
    "k=-",
    "\"k\":",
    "\"k\":[1,2]",
    "\"k\":\"v\"",
    "verb",
    "é",
    "→",
    "😀",
    "\u{a0}",
    "\u{0}",
];

/// What can stand between two quotes.
const STRING_TOKENS: &[&str] = &[
    "\\", "\\\\", "\\\"", "\\n", "\\r", "\\t", "\\q", "\\u", "\\u00", "\\u0041", "\\u001f",
    "\\ud800", "\\u+041", "a", "0", " ", "é", "→", "😀",
];

fn stitched(tokens: &'static [&'static str], max: usize) -> BoxedStrategy<String> {
    let token = prop::sample::select(tokens.to_vec()).prop_map(str::to_string);
    let any_char = any::<u32>().prop_map(|bits| {
        char::from_u32(bits % 0x11_0000).map_or_else(|| "\u{fffd}".to_string(), String::from)
    });
    prop::collection::vec(prop_oneof![6 => token, 1 => any_char], 0..max)
        .prop_map(|parts| parts.concat())
        .boxed()
}

/// Free text, or a string literal of near-escapes, closed or not.
fn arb_text() -> BoxedStrategy<String> {
    let quoted = (stitched(STRING_TOKENS, 6), any::<bool>())
        .prop_map(|(body, closed)| format!("\"{body}{}", if closed { "\"" } else { "" }));
    prop_oneof![stitched(TOKENS, 10), quoted].boxed()
}

type Reader = fn(&mut Cursor<'_>) -> Result<(), ParseError>;

/// Every reader of the cursor, its result dropped.
const READERS: &[Reader] = &[
    |c| c.next_u64().map(drop),
    |c| c.next_int::<u8>().map(drop),
    |c| c.next_int::<u32>().map(drop),
    |c| c.next_int::<usize>().map(drop),
    |c| c.next_bool().map(drop),
    |c| c.either(b'0', b'1').map(drop),
    |c| c.expect(b':'),
    |c| c.expect_end(),
    |c| c.word().map(drop),
    |c| c.field(Cursor::next_u64).map(drop),
    |c| c.raw_str().map(drop),
    |c| c.next_str().map(drop),
    |c| c.next_list(Cursor::next_int::<u32>).map(drop),
    |c| c.next_array(Cursor::next_u64).map(drop),
    |c| c.items(|c| Ok((c.next_int::<u32>()?, c.expect(b':')?, c.either(b'f', b't')?))).map(drop),
    |c| c.config(None).map(drop),
    |c| c.config(Some(&Config::from_ids(5, [CompId::from_index(2)]))).map(drop),
    |c| {
        c.tail();
        Ok(())
    },
];

/// An error names a place on the line it was raised on.
fn in_bounds(text: &str, e: &ParseError) -> bool {
    text.lines()
        .nth(e.line - 1)
        .or(Some("").filter(|_| e.line == 1))
        .is_some_and(|line| (1..=line.len() + 1).contains(&e.column))
}

proptest! {
    #[test]
    fn no_text_panics_a_reader(text in arb_text()) {
        // Every record as the iterator stamps it, and every raw line —
        // blank, comment or neither — as a one-line text of its own.
        let stamped = records(&text).map(|c| (c, text.as_str()));
        for (line, text) in stamped.chain(text.lines().map(|l| (Cursor::new(l), l))) {
            for (ix, read) in READERS.iter().enumerate() {
                let mut c = line;
                match read(&mut c) {
                    Err(e) => prop_assert!(in_bounds(text, &e), "reader {}: {:?}: {}", ix, text, e),
                    Ok(()) => prop_assert!(line.as_str().ends_with(c.as_str()), "reader {}", ix),
                }
            }
            for fields in [Fields::words(line), Fields::json(line)] {
                let fields = match fields {
                    Ok(fields) => fields,
                    Err(e) => {
                        prop_assert!(in_bounds(text, &e), "{:?}: {}", text, e);
                        continue;
                    }
                };
                prop_assert!(fields.opt("absent").is_none());
                for read in READERS {
                    if let Err(e) = fields.parse("k", |c| read(c)) {
                        prop_assert!(in_bounds(text, &e), "{:?}: {}", text, e);
                    }
                }
            }
        }
    }

    /// `read_records` is `records` read and collected, the first error
    /// included, into a vector reserved once for the text's lines: long
    /// texts cross the 64-byte chunks the newline count runs in.
    #[test]
    fn read_records_collects_into_one_reservation(text in stitched(TOKENS, 160)) {
        let read = |c: Cursor<'_>| {
            if c.as_str().contains('=') {
                Err(c.expected("no '='"))
            } else {
                Ok(c.as_str().to_string())
            }
        };
        let got = read_records(&text, read);
        prop_assert_eq!(&got, &records(&text).map(read).collect::<Result<Vec<_>, _>>());
        if let Ok(got) = got {
            prop_assert_eq!(got.capacity(), text.lines().count());
        }
    }

    #[test]
    fn every_string_survives_the_escape_table(s in stitched(STRING_TOKENS, 12)) {
        let mut quoted = String::new();
        push_json_str(&mut quoted, &s);
        prop_assert!(!quoted.contains('\n'), "one line: {:?}", quoted);
        let mut c = Cursor::new(&quoted);
        let back = c.next_str();
        prop_assert_eq!(back.as_deref(), Ok(s.as_str()), "{:?}", quoted);
        prop_assert_eq!(c.expect_end(), Ok(()));
    }

    #[test]
    fn every_list_reads_back(items in prop::collection::vec(any::<u32>(), 0..6)) {
        let word = list(&items, |x, f| write!(f, "{x}")).to_string();
        prop_assert_eq!(word == "-", items.is_empty());
        let back = Cursor::new(&word).whole(|c| c.next_list(Cursor::next_int::<u32>));
        prop_assert_eq!(back, Ok(items), "{:?}", word);
    }
}

#[test]
fn a_number_that_does_not_fit_its_field_is_an_error() {
    assert_eq!(Cursor::new("255").next_int::<u8>(), Ok(255));
    let too_wide = Cursor::new(" 256").next_int::<u8>().unwrap_err();
    assert_eq!((too_wide.line, too_wide.column, too_wide.expected.as_str()), (1, 2, "u8"));
    assert!(Cursor::new("4294967296").next_int::<u32>().is_err());
    assert!(Cursor::new("18446744073709551616").next_u64().is_err());
    assert!(Cursor::new("+1").next_u64().is_err(), "a sign is not a digit");
    assert!(Cursor::new("").next_u64().is_err());
}

#[test]
fn records_skip_blanks_and_comments_and_keep_their_line_numbers() {
    let errs: Vec<ParseError> =
        records("# c\n\n  a\n \t\n#\n b").map(|c| c.expected("x")).collect();
    let places: Vec<(usize, usize)> = errs.iter().map(|e| (e.line, e.column)).collect();
    assert_eq!(places, [(3, 3), (6, 2)]);
    assert_eq!(errs[0].to_string(), "line 3: column 3: expected x");
}

#[test]
fn fields_ignore_unknown_keys_and_the_last_of_a_repeated_key_counts() {
    let f = Fields::words(Cursor::new("step id=1 future=x id=2 ix=0")).unwrap();
    assert_eq!(f.verb.as_str(), "step");
    assert_eq!(f.int::<u64>("id"), Ok(2));
    assert_eq!(f.opt_int::<u32>("absent"), Ok(None));
    let missing = f.int::<u32>("nope").unwrap_err();
    assert_eq!((missing.column, missing.expected.as_str()), (29, "field 'nope'"));
    // More fields than the view holds inline: the rest spill, none is lost.
    let wide: String = (0..40).map(|i| format!(" k{i}={i}")).collect();
    let wide = format!("verb{wide} k3=99");
    let f = Fields::words(Cursor::new(&wide)).unwrap();
    assert_eq!(
        (f.int::<u32>("k0"), f.int::<u32>("k39"), f.int::<u32>("k3")),
        (Ok(0), Ok(39), Ok(99))
    );
    let f = Fields::json(Cursor::new(" {\"b\":[1,2],\"a\":\"x\\\"y\",\"a\":true} ")).unwrap();
    assert_eq!(f.parse("a", Cursor::next_bool), Ok(true));
    assert_eq!(f.get("b").unwrap().as_str(), "[1,2]");
}
