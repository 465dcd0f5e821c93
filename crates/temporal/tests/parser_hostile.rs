//! `parse_formula` against hostile text: never a panic, not even nested
//! or chained past the parser's bound, and what parses prints back to
//! itself. The
//! generator is `sada-fleet`'s hostile-text harness, included by path as
//! the spec file's test does.

#[allow(dead_code)] // this test draws texts from the harness; it checks them itself
#[path = "../../fleet/tests/hostile/mod.rs"]
mod hostile;

use hostile::{chains, hostile};
use proptest::prelude::*;
use sada_tl::{parse_formula, MAX_NESTING};

/// The language's tokens and near-tokens, and runs of nesting: a handful of
/// them pass the parser's bound.
#[rustfmt::skip]
const TOKENS: &[&str] = &[
    "(", ")", "!", "&", "|", "=>", "=", ">", "since", "yesterday", "once", "historically", "a",
    "b_2", "_", "sinc", "((((((((((((((((", "!!!!!!!!!!!!!!!!", "once yesterday once yesterday ",
    "a => a => a => a => a => a => a => a => ",
];

/// Well-formed formulas, one a line.
const VALID: &str =
    "historically (send => once ready)\n!a since (b & yesterday c)\n(a | b) & !false\n";

proptest! {
    /// A formula prints with every binary node in parentheses, so its
    /// printed form may nest past the bound the text it came from kept
    /// within: then, and only then, the printed form is refused.
    #[test]
    fn no_text_panics_the_formula_parser(
        text in hostile(&[TOKENS, &chains(&["a | ", "a & ", "a since "])].concat(), VALID),
    ) {
        if let Ok(f) = parse_formula(&text) {
            let printed = f.to_string();
            match parse_formula(&printed) {
                Ok(back) => prop_assert_eq!(back, f, "{:?} printed as {:?}", text, printed),
                Err(e) => prop_assert!(e.to_string().contains("nested deeper than"), "{}", e),
            }
        }
    }
}

/// `depth` levels of `open` around `a`, closed by as many `close`: for an
/// `open` such as `"a | "`, a chain of `depth` links.
fn nest(depth: usize, open: &str, close: &str) -> String {
    format!("{}a{}", open.repeat(depth), close.repeat(depth))
}

#[test]
fn nesting_parses_to_the_bound_and_is_an_error_past_it() {
    let chains = [("a | ", ""), ("a & ", ""), ("a since ", "")];
    let nests = [("(", ")"), ("!", ""), ("historically ", ""), ("a => ", "")];
    for (open, close) in nests.into_iter().chain(chains) {
        assert!(parse_formula(&nest(MAX_NESTING, open, close)).is_ok(), "{open}");
        for depth in [MAX_NESTING + 1, 10_000, 100_000] {
            let err = parse_formula(&nest(depth, open, close)).unwrap_err().to_string();
            assert!(err.contains("nested deeper than 64 levels"), "{open}: {err}");
        }
    }
}
