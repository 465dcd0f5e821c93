//! `parse_spec_file` against hostile text: never a panic, and what it
//! rejects it rejects at a line of the text. The generator is
//! `sada-fleet`'s hostile-text harness, included by path as
//! `sada-scenario` does.

#[allow(dead_code)] // this test draws texts from the harness; it checks them itself
#[path = "../../fleet/tests/hostile/mod.rs"]
mod hostile;

use hostile::{chains, hostile};
use proptest::prelude::*;
use sada_core::specfile::parse_spec_file;
use sada_expr::MAX_NESTING;

#[rustfmt::skip]
const TOKENS: &[&str] = &[
    "[processes]\n", "[components]\n", "[invariants]\n", "[actions]\n", "[channels]\n", "[", "]",
    "@", " @ ", "->", " -> ", "cost", " cost ", "drain", " drain", "+", "-", "(", ")", ",", ", ",
    "A", "B", "host", "one_of(A, B)", "A => B", "((((((((((((((((", "!!!!!!!!!!!!!!!!",
];

const VALID: &str = "[processes]\nhost\nedge\n[components]\nA @ host\nB @ edge\n\
    [invariants]\none_of(A, B)\n[actions]\nA -> B cost 5\n(B) -> (A) cost 7 drain\n\
    +A cost 1\n-B cost 1\n[channels]\nA -> B\n";

/// One side of an action or channel: names, lists, near-lists, nothing.
const SIDES: &[&str] =
    &["A", "B", "GHOST", "(A)", "(A, B)", "(B, A)", "(A,A)", "(B)", "()", "(A", "B)", ""];

/// VALID's processes, components and invariants, then action and channel
/// lines stitched from [`SIDES`]: most are well-formed lines the builder
/// must judge (one removing and adding a component among them).
fn stitched() -> impl Strategy<Value = String> {
    let side = || prop::sample::select(SIDES.to_vec());
    let form = prop::sample::select(vec!["->", "+", "-", "", "@"]);
    let action =
        (side(), side(), form, any::<u8>(), any::<bool>()).prop_map(|(l, r, form, cost, drain)| {
            let drain = if drain { " drain" } else { "" };
            match form {
                "+" | "-" => format!("{form}{l} cost {cost}{drain}\n"),
                _ => format!("{l} {form} {r} cost {cost}{drain}\n"),
            }
        });
    let channel = (side(), side()).prop_map(|(l, r)| format!("{l} -> {r}\n"));
    let (system, _) = VALID.split_once("[actions]").expect("VALID has actions");
    let lines = |s: BoxedStrategy<String>| {
        prop::collection::vec(s, 0..6).prop_map(|v: Vec<String>| v.concat())
    };
    (lines(action.boxed()), lines(channel.boxed()))
        .prop_map(move |(a, c)| format!("{system}[actions]\n{a}[channels]\n{c}"))
}

/// Holds the parser to one text: no panic, and an error names one of the
/// text's lines.
fn check(text: &str) -> Result<(), TestCaseError> {
    if let Err(e) = parse_spec_file(text) {
        let lines = text.lines().count().max(1);
        prop_assert!((1..=lines).contains(&e.line), "{:?}: no line {}: {}", text, e.line, e);
    }
    Ok(())
}

proptest! {
    #[test]
    fn no_text_panics_the_spec_file_parser(
        text in hostile(&[TOKENS, &chains(&["A <=> ", "A | ", "A => "])].concat(), VALID),
    ) {
        check(&text)?;
    }

    #[test]
    fn no_stitched_action_or_channel_panics_the_spec_file_parser(text in stitched()) {
        check(&text)?;
    }
}

#[test]
fn the_valid_corpus_parses() {
    let spec = parse_spec_file(VALID).unwrap();
    assert_eq!((spec.universe().len(), spec.actions().len()), (2, 4));
    assert_eq!((spec.model().channels().len(), spec.drain_actions().len()), (1, 1));
}

/// [`VALID`] with its invariant nested `depth` levels deep.
fn nested(depth: usize) -> String {
    let invariant = format!("{}one_of(A, B){}", "(".repeat(depth - 1), ")".repeat(depth - 1));
    VALID.replace("one_of(A, B)", &invariant)
}

/// An invariant nested exactly as deep as the parser allows compiles into a
/// spec on the test's own thread; one nested 10 000 levels deep is a
/// rejection at its line, not an aborted process.
#[test]
fn an_invariant_nested_to_the_bound_compiles_and_one_past_it_is_rejected() {
    let spec = parse_spec_file(&nested(MAX_NESTING)).expect("nesting up to the bound compiles");
    assert_eq!(spec.safe_configs().len(), 2, "the nesting changes nothing it says");
    for depth in [MAX_NESTING + 1, 10_000] {
        let err = parse_spec_file(&nested(depth)).unwrap_err();
        assert_eq!(err.line, 8, "the invariant's line");
        assert!(err.to_string().contains("nested deeper than 64 levels"), "{err}");
    }
}
