//! `parse_scenario` against hostile text: never a panic, and what it rejects
//! it rejects at a pinned line and column — every error, the numeric ones
//! included, carries its line. Companion of
//! `crates/fleet/tests/hostile_text.rs`, whose harness this includes by
//! path (`sada-scenario` depends on `sada-fleet`, not the reverse).

#[path = "../../fleet/tests/hostile/mod.rs"]
mod hostile;

use hostile::{assert_rejections, check, hostile};
use proptest::prelude::*;
use sada_scenario::{encode_scenario, parse_scenario, validate};

#[rustfmt::skip]
const TOKENS: &[&str] = &[
    "sada-scenario v1\n", "sada-scenario v1", "sada-scenario", "seed", "seed 7\n", "domain",
    "domain iaas latency_ms\n", "serverless", "iaas", "video", "latency_ms", "energy_watts", "comp",
    "comp a 0\n", "inv", "inv (a ^ b)\n", "action", "cluster", "session", "0,1", "0,", "0:t", "1:f",
    "0:x", ":t", "t", "f", "a__to__b", "warp",
];

const VALID: &str = "sada-scenario v1\nseed 7\ndomain serverless energy_watts\n\
    comp fn0_a 0\ncomp fn0_b 1\ninv one_of(fn0_a, fn0_b)\ninv (fn0_a ^ fn0_b)\n\
    action fn0_a__to__fn0_b 94 14 0 1\naction fn0_b__to__fn0_a 208 18 1,0 -\n\
    cluster 0,1 0 1\nsession 1 0 72171 - 0:t\nsession 2 255 142634 150000 0:f,0:t\n";

proptest! {
    #[test]
    fn no_text_panics_the_scenario_parser(tail in hostile(TOKENS, VALID)) {
        // Nearly every text without the header fails on line 1: run each
        // text with the header in front as well.
        for text in [format!("sada-scenario v1\n{tail}"), tail] {
            check(&text, parse_scenario, encode_scenario)?;
        }
    }
}

#[test]
fn the_valid_corpus_parses() {
    let scenario = parse_scenario(VALID).unwrap();
    assert_eq!((scenario.spec.comps.len(), scenario.sessions.len()), (2, 2));
}

#[test]
fn malformed_scenarios_are_rejected_where_they_go_wrong() {
    #[rustfmt::skip]
    assert_rejections(parse_scenario, &[
        ("", 1, 1, "\"sada-scenario v1\""),
        ("sada-scenario v0\nseed 1\n", 1, 1, "\"sada-scenario v1\""),
        ("# c\n\nsada-scenario v1\nseed 1\n", 4, 7, "a domain record"),
        ("sada-scenario v1\ndomain iaas latency_ms\n", 2, 23, "a seed record"),
        ("sada-scenario v1\nseed x\n", 2, 6, "u64"),
        ("sada-scenario v1\nseed 1 2\n", 2, 8, "the end"),
        ("sada-scenario v1\nseed 18446744073709551616\n", 2, 6, "u64"),
        ("sada-scenario v1\nseed 1\ndomain lambda latency_ms\n", 3, 8, "a known domain (unknown domain \"lambda\")"),
        ("sada-scenario v1\nseed 1\ndomain iaas joules\n", 3, 13, "a known objective (unknown objective \"joules\")"),
        ("sada-scenario v1\nseed 1\ndomain iaas\n", 3, 12, "a word"),
        ("sada-scenario v1\nseed 7\ndomain iaas latency_ms\ncomp a\n", 4, 7, "a word"),
        ("sada-scenario v1\nseed 7\ndomain iaas latency_ms\ncomp a x\n", 4, 8, "usize"),
        ("sada-scenario v1\nseed 7\ndomain iaas latency_ms\naction a 1 x - -\n", 4, 12, "u64"),
        ("sada-scenario v1\nseed 7\ndomain iaas latency_ms\naction a 1 2 0,x -\n", 4, 16, "usize"),
        ("sada-scenario v1\nseed 7\ndomain iaas latency_ms\naction a 1 2 - \n", 4, 16, "a word"),
        ("sada-scenario v1\nseed 7\ndomain iaas latency_ms\naction a 1 2 - - -\n", 4, 18, "the end"),
        ("sada-scenario v1\nseed 7\ndomain iaas latency_ms\ncluster 0,1 0 \n", 4, 15, "a word"),
        ("sada-scenario v1\nseed 7\ndomain iaas latency_ms\ncluster 0,1 -0 1\n", 4, 14, "the end"),
        ("sada-scenario v1\nseed 7\ndomain iaas latency_ms\nsession 1 256 5 - 0:t\n", 4, 11, "u8"),
        ("sada-scenario v1\nseed 7\ndomain iaas latency_ms\nsession 1 0 5 x 0:t\n", 4, 15, "u64"),
        ("sada-scenario v1\nseed 7\ndomain iaas latency_ms\nsession 1 0 5 - 0:x\n", 4, 19, "'f' or 't'"),
        ("sada-scenario v1\nseed 7\ndomain iaas latency_ms\nsession 1 0 5 - 0\n", 4, 18, "':'"),
        ("sada-scenario v1\nseed 7\ndomain iaas latency_ms\nsession 1 0 5 - 0:t,\n", 4, 21, "usize"),
        ("sada-scenario v1\nseed 7\ndomain iaas latency_ms\nwarp 1\n", 4, 1, "a known scenario record (unknown scenario record \"warp\")"),
        ("sada-scenario v1\nseed 7\ndomain iaas latency_ms\nseed\n", 4, 5, "a word"),
    ]);
}

/// Texts that parse into a spec that does not compile: `validate` returns
/// the compiler's error, where these once panicked inside the compile.
#[test]
fn specs_that_parse_but_do_not_compile_are_rejected() {
    #[rustfmt::skip]
    let rows = [
        ("cluster 0,1 0 1", "cluster 0,999999 0 1", "cluster 0: comp 999999 out of range"),
        ("inv (fn0_a ^ fn0_b)", "inv (fn0_a ^ fn9_b)", "invariants may only mention declared components, not fn9_b"),
        ("inv (fn0_a ^ fn0_b)", "inv ((( fn0_a", "invariant 1 does not parse: parse error at byte 9: expected ')', found None"),
        ("94 14 0 1", "94 14 0 0", "action fn0_a__to__fn0_b: removes and adds overlap"),
        ("comp fn0_b", "comp fn0_a", "component names must be unique: fn0_a is declared twice"),
        ("cluster 0,1 0 1", "cluster 0,1 0,1 1", "initial configuration violates the invariants"),
    ];
    for (line, hostile, why) in rows {
        let text = VALID.replacen(line, hostile, 1);
        let scenario = parse_scenario(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
        assert_eq!(validate(&scenario), Err(why.to_string()), "{text:?}");
    }
}
