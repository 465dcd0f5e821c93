//! The `sadaplan` command line on the case study's spec file: its standard
//! output, byte for byte, with no configurations and with the paper's
//! request asking for the three cheapest paths.

use std::path::PathBuf;
use std::process::Command;

use sada_core::specfile::CASE_STUDY_SPEC;

const SAFE_SET: &str = "\
components: 7
actions:    17
safe configurations (8):
  0100101  {D4,D1,E1}
  0101001  {D4,D2,E1}
  1001010  {D5,D2,E2}
  1010010  {D5,D3,E2}
  1100101  {D5,D4,D1,E1}
  1101001  {D5,D4,D2,E1}
  1101010  {D5,D4,D2,E2}
  1110010  {D5,D4,D3,E2}
SAG: 8 nodes, 16 arcs
";

const THREE_PATHS: &str = "\
path #1: [A2, A17, A1, A16, A4] cost=50
    A2  D1 -> D2                   0100101 -> 0101001
    A17  +D5                        0101001 -> 1101001
    A1  E1 -> E2                   1101001 -> 1101010
    A16  -D4                        1101010 -> 1001010
    A4  D2 -> D3                   1001010 -> 1010010
path #2: [A17, A2, A1, A16, A4] cost=50
    A17  +D5                        0100101 -> 1100101
    A2  D1 -> D2                   1100101 -> 1101001
    A1  E1 -> E2                   1101001 -> 1101010
    A16  -D4                        1101010 -> 1001010
    A4  D2 -> D3                   1001010 -> 1010010
path #3: [A2, A17, A1, A4, A16] cost=50
    A2  D1 -> D2                   0100101 -> 0101001
    A17  +D5                        0101001 -> 1101001
    A1  E1 -> E2                   1101001 -> 1101010
    A4  D2 -> D3                   1101010 -> 1110010
    A16  -D4                        1110010 -> 1010010
";

/// Runs `sadaplan` on the case study's spec file with `args` after the
/// path, and returns its standard output, failing on a non-zero exit.
fn sadaplan(args: &[&str]) -> String {
    let file = format!("case_study_{}.spec", args.len());
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(file);
    std::fs::write(&path, CASE_STUDY_SPEC).expect("the spec file is written");
    let out = Command::new(env!("CARGO_BIN_EXE_sadaplan"))
        .arg(&path)
        .args(args)
        .output()
        .expect("sadaplan runs");
    assert!(out.status.success(), "sadaplan failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("sadaplan prints UTF-8")
}

#[test]
fn without_configurations_it_prints_the_safe_set_and_the_sag() {
    assert_eq!(sadaplan(&[]), SAFE_SET);
}

#[test]
fn with_the_papers_request_it_prints_the_three_cheapest_paths() {
    assert_eq!(sadaplan(&["0100101", "1010010", "3"]), format!("{SAFE_SET}{THREE_PATHS}"));
}
