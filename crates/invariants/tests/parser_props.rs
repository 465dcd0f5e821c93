//! Property corpus for the invariant parser: no text makes it panic, and
//! what an expression prints is what parses back to it.

use proptest::prelude::*;

use sada_expr::{parse_expr, CompId, Expr, Universe};

/// Source text stitched from the language's own tokens, near-tokens, and
/// multi-byte characters — so that `<`, `=` and identifiers end up hard
/// against a multi-byte character and at the end of the input — plus
/// arbitrary characters.
fn arb_source() -> BoxedStrategy<String> {
    let fragments = vec![
        "<", "=", ">", "<=", "<=>", "=>", "(", ")", ",", "!", "&", ".", "|", "^", " ", "\t", "\n",
        "A", "b_2", "_", "one_of", "one_of(", "true", "false", "0", "é", "→", "😀", "\u{a0}",
        "\u{0}", "ß", "Ω",
    ];
    let fragment = prop::sample::select(fragments).prop_map(str::to_string);
    let any_char = any::<u32>().prop_map(|bits| {
        char::from_u32(bits % 0x11_0000).map_or_else(|| "\u{fffd}".to_string(), String::from)
    });
    prop::collection::vec(prop_oneof![fragment, any_char], 0..12)
        .prop_map(|parts| parts.concat())
        .boxed()
}

/// Width shared by every generated expression.
const NVARS: usize = 6;

fn universe() -> Universe {
    let mut u = Universe::new();
    for ix in 0..NVARS {
        u.intern(&format!("C{ix}"));
    }
    u
}

/// Expressions of the shapes the parser builds: `&`, `|` and `^` nodes have
/// at least two operands (one operand in parentheses is that operand, none
/// prints as a constant); `one_of` takes any number.
fn arb_parsed_shape() -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(Expr::Const),
        (0usize..NVARS).prop_map(|ix| Expr::var(CompId::from_index(ix))),
    ];
    leaf.prop_recursive(4, 48, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(Expr::not),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Expr::and),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Expr::or),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Expr::xor),
            prop::collection::vec(inner.clone(), 0..4).prop_map(Expr::exactly_one),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.implies(b)),
            (inner.clone(), inner).prop_map(|(a, b)| a.iff(b)),
        ]
    })
}

proptest! {
    #[test]
    fn no_source_text_panics_the_parser(src in arb_source()) {
        let mut u = Universe::new();
        if let Err(e) = parse_expr(&src, &mut u) {
            prop_assert!(e.at <= src.len(), "{:?} reported past its end: {}", src, e);
        }
    }

    #[test]
    fn printed_expressions_parse_back_to_themselves(e in arb_parsed_shape()) {
        let mut u = universe();
        let text = e.display(&u).to_string();
        prop_assert_eq!(parse_expr(&text, &mut u), Ok(e), "{}", text);
        prop_assert_eq!(u.len(), NVARS, "no name was invented on the way");
    }
}
