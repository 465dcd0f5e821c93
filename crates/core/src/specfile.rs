//! A textual format for adaptation specifications, so systems can be
//! described, planned, and checked without writing Rust (the analysis
//! phase's deliverable as a reviewable artifact).
//!
//! ## Format
//!
//! Line-oriented, `#` comments, four sections:
//!
//! ```text
//! [processes]
//! video-server
//! handheld-client
//!
//! [components]
//! E1 @ video-server
//! D1 @ handheld-client
//!
//! [invariants]
//! one_of(E1, E2)
//! E1 => D1
//!
//! [actions]
//! E1 -> E2 cost 10
//! (D1, E1) -> (D2, E2) cost 100 drain
//! +D5 cost 10
//! -D4 cost 10
//! ```
//!
//! Components must be declared (with their hosting process) before use,
//! each under a name the invariant language reads as one identifier
//! ([`sada_expr::is_component_name`]: no spaces or dashes, no keyword);
//! invariants use the `sada-expr` language; actions are replacements
//! (`old -> new`, either side a single name or a parenthesized list),
//! insertions (`+C`), or removals (`-C`), each with a mandatory
//! `cost <n>` and an optional trailing `drain` marker for actions whose
//! global safe condition requires draining in-flight traffic.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use sada_expr::{is_component_name, parse_expr, Config, InvariantSet, Universe};
use sada_model::SystemModel;
use sada_plan::{Action, ActionId};

use crate::spec::AdaptationSpec;

/// A spec-file parsing error with its line number (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecFileError {
    /// 1-based line of the offending input.
    pub(crate) line: usize,
    /// Description.
    pub(crate) msg: String,
}

impl fmt::Display for SpecFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec file line {}: {}", self.line, self.msg)
    }
}

impl Error for SpecFileError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    None,
    Processes,
    Components,
    Invariants,
    Actions,
}

fn err(line: usize, msg: impl Into<String>) -> SpecFileError {
    SpecFileError { line, msg: msg.into() }
}

/// Splits a component list: either `Name` or `(A, B, C)`.
fn parse_comp_list(s: &str, line: usize) -> Result<Vec<String>, SpecFileError> {
    let s = s.trim();
    let inner = if let Some(stripped) = s.strip_prefix('(') {
        stripped
            .strip_suffix(')')
            .ok_or_else(|| err(line, format!("unbalanced parentheses in {s:?}")))?
    } else {
        s
    };
    let parts: Vec<String> =
        inner.split(',').map(|p| p.trim().to_string()).filter(|p| !p.is_empty()).collect();
    if parts.is_empty() {
        return Err(err(line, format!("empty component list in {s:?}")));
    }
    Ok(parts)
}

/// Parses a spec file into an executable [`AdaptationSpec`].
///
/// # Errors
///
/// Returns a [`SpecFileError`] naming the first offending line: unknown
/// sections, undeclared components or processes, component names no
/// invariant can mention, malformed actions, or invariant syntax errors.
pub fn parse_spec_file(src: &str) -> Result<AdaptationSpec, SpecFileError> {
    let mut section = Section::None;
    let mut universe = Universe::new();
    let mut model = SystemModel::new();
    let mut proc_names: Vec<String> = Vec::new();
    let mut invariants = InvariantSet::new();
    let mut actions: Vec<Action> = Vec::new();
    let mut drain: HashSet<ActionId> = HashSet::new();

    for (ix, raw) in src.lines().enumerate() {
        let line_no = ix + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[') {
            let name = name
                .strip_suffix(']')
                .ok_or_else(|| err(line_no, "unterminated section header"))?;
            section = match name.trim() {
                "processes" => Section::Processes,
                "components" => Section::Components,
                "invariants" => Section::Invariants,
                "actions" => Section::Actions,
                other => return Err(err(line_no, format!("unknown section {other:?}"))),
            };
            continue;
        }
        match section {
            Section::None => return Err(err(line_no, "content before any [section]")),
            Section::Processes => {
                if proc_names.iter().any(|p| p == line) {
                    return Err(err(line_no, format!("duplicate process {line:?}")));
                }
                proc_names.push(line.to_string());
                model.add_process();
            }
            Section::Components => {
                let (comp, proc) = line
                    .split_once('@')
                    .ok_or_else(|| err(line_no, "expected 'Component @ process'"))?;
                let comp = comp.trim();
                let proc = proc.trim();
                if !is_component_name(comp) {
                    let msg = format!("{comp:?} is not a component name an invariant can mention");
                    return Err(err(line_no, msg));
                }
                if universe.id(comp).is_some() {
                    return Err(err(line_no, format!("duplicate component {comp:?}")));
                }
                let pix = proc_names
                    .iter()
                    .position(|p| p == proc)
                    .ok_or_else(|| err(line_no, format!("undeclared process {proc:?}")))?;
                let id = universe.intern(comp);
                model.place(id, sada_model::ProcessId(pix as u32));
            }
            Section::Invariants => {
                let before = universe.len();
                let e = parse_expr(line, &mut universe).map_err(|e| err(line_no, e.to_string()))?;
                if universe.len() != before {
                    return Err(err(line_no, "invariant mentions an undeclared component"));
                }
                invariants.push(e);
            }
            Section::Actions => {
                // Forms: "old -> new cost N [drain]" | "+C cost N" | "-C cost N"
                let drain_marked = line.ends_with("drain");
                let body = line.strip_suffix("drain").unwrap_or(line).trim();
                let (head, cost_str) = body
                    .rsplit_once("cost")
                    .ok_or_else(|| err(line_no, "action missing 'cost <n>'"))?;
                let cost: u64 = cost_str
                    .trim()
                    .parse()
                    .map_err(|_| err(line_no, format!("invalid cost {:?}", cost_str.trim())))?;
                let head = head.trim();
                let id = actions.len() as u32;
                let cfg_of = |names: &[String], line_no: usize| -> Result<Config, SpecFileError> {
                    let mut cfg = universe.empty_config();
                    for n in names {
                        let cid = universe
                            .id(n)
                            .ok_or_else(|| err(line_no, format!("undeclared component {n:?}")))?;
                        cfg.insert(cid);
                    }
                    Ok(cfg)
                };
                let action = if let Some(rest) = head.strip_prefix('+') {
                    let adds = parse_comp_list(rest, line_no)?;
                    Action::insert(id, head, &cfg_of(&adds, line_no)?, cost)
                } else if let Some(rest) = head.strip_prefix('-') {
                    let removes = parse_comp_list(rest, line_no)?;
                    Action::remove(id, head, &cfg_of(&removes, line_no)?, cost)
                } else {
                    let (old, new) = head
                        .split_once("->")
                        .ok_or_else(|| err(line_no, "expected 'old -> new', '+C', or '-C'"))?;
                    let removes = parse_comp_list(old, line_no)?;
                    let adds = parse_comp_list(new, line_no)?;
                    Action::replace(
                        id,
                        head,
                        &cfg_of(&removes, line_no)?,
                        &cfg_of(&adds, line_no)?,
                        cost,
                    )
                };
                if drain_marked {
                    drain.insert(action.id());
                }
                actions.push(action);
            }
        }
    }
    if proc_names.is_empty() {
        return Err(err(src.lines().count().max(1), "no [processes] declared"));
    }
    Ok(AdaptationSpec::new(universe, invariants, actions, model, drain))
}

/// Parses a configuration argument: either a bit string (`0100101`, paper
/// order) or a brace/comma list of component names (`{E1,D1,D4}` or
/// `E1,D1,D4`).
///
/// # Errors
///
/// Returns a message naming the unknown component or malformed bit string.
pub fn parse_config_arg(u: &Universe, s: &str) -> Result<Config, String> {
    let s = s.trim();
    if s.len() == u.len() && s.chars().all(|c| c == '0' || c == '1') {
        return Ok(u.config_from_bits(s));
    }
    let inner = s.strip_prefix('{').and_then(|x| x.strip_suffix('}')).unwrap_or(s);
    let mut cfg = u.empty_config();
    for name in inner.split(',').map(str::trim).filter(|x| !x.is_empty()) {
        let id = u.id(name).ok_or_else(|| format!("unknown component {name:?}"))?;
        cfg.insert(id);
    }
    Ok(cfg)
}

/// The paper's case study, rendered in the spec-file format (kept in sync
/// by a unit test against [`crate::casestudy::case_study`]).
pub const CASE_STUDY_SPEC: &str = r#"
# DSN 2004 video multicasting case study (Section 5)
[processes]
video-server
handheld-client
laptop-client

[components]
E1 @ video-server
E2 @ video-server
D1 @ handheld-client
D2 @ handheld-client
D3 @ handheld-client
D4 @ laptop-client
D5 @ laptop-client

[invariants]
one_of(D1, D2, D3)      # hand-held resource constraint
one_of(E1, E2)          # security constraint
E1 => (D1 | D2) & D4
E2 => (D3 | D2) & D5

[actions]
E1 -> E2 cost 10
D1 -> D2 cost 10
D1 -> D3 cost 10
D2 -> D3 cost 10
D4 -> D5 cost 10
(D1, E1) -> (D2, E2) cost 100 drain
(D1, E1) -> (D3, E2) cost 100 drain
(D2, E1) -> (D3, E2) cost 100 drain
(D4, E1) -> (D5, E2) cost 100 drain
(D1, D4) -> (D2, D5) cost 50 drain
(D1, D4) -> (D3, D5) cost 50 drain
(D2, D4) -> (D3, D5) cost 50 drain
(D1, D4, E1) -> (D2, D5, E2) cost 150 drain
(D1, D4, E1) -> (D3, D5, E2) cost 150 drain
(D2, D4, E1) -> (D3, D5, E2) cost 150 drain
-D4 cost 10
+D5 cost 10
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::casestudy::case_study;

    #[test]
    fn case_study_spec_file_matches_builtin() {
        let parsed = parse_spec_file(CASE_STUDY_SPEC).expect("case-study spec parses");
        let builtin = case_study();
        // Same safe configurations, same SAG shape, same MAP.
        assert_eq!(parsed.safe_configs(), builtin.spec.safe_configs());
        let ps = parsed.build_sag();
        let bs = builtin.spec.build_sag();
        assert_eq!(ps.node_count(), bs.node_count());
        assert_eq!(ps.edge_count(), bs.edge_count());
        let u = parsed.universe();
        let src = parse_config_arg(u, "0100101").unwrap();
        let dst = parse_config_arg(u, "{D5,D3,E2}").unwrap();
        let map = parsed.minimum_adaptation_path(&src, &dst).unwrap();
        assert_eq!(map.cost, 50);
        let labels: Vec<String> = map.action_ids().iter().map(|a| a.to_string()).collect();
        assert_eq!(labels, vec!["A2", "A17", "A1", "A16", "A4"]);
        // Drain markers carried over.
        assert_eq!(parsed.drain_actions().len(), 10);
    }

    #[test]
    fn minimal_spec_parses() {
        let spec = parse_spec_file(
            "[processes]\nhost\n[components]\nA @ host\nB @ host\n[invariants]\none_of(A, B)\n[actions]\nA -> B cost 5\n",
        )
        .unwrap();
        assert_eq!(spec.universe().len(), 2);
        assert_eq!(spec.actions().len(), 1);
        assert_eq!(spec.safe_configs().len(), 2);
    }

    #[test]
    fn error_reports_line_numbers() {
        let e = parse_spec_file("[processes]\nhost\n[components]\nA @ nowhere\n").unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.to_string().contains("nowhere"));
    }

    #[test]
    fn undeclared_component_in_invariant_rejected() {
        let e = parse_spec_file(
            "[processes]\nhost\n[components]\nA @ host\n[invariants]\nA => GHOST\n",
        )
        .unwrap_err();
        assert_eq!(e.line, 6);
        assert!(e.msg.contains("undeclared"));
    }

    #[test]
    fn malformed_actions_rejected() {
        let base = "[processes]\nhost\n[components]\nA @ host\nB @ host\n[actions]\n";
        for (bad, needle) in [
            ("A -> B\n", "cost"),
            ("A -> B cost x\n", "invalid cost"),
            ("A B cost 5\n", "expected"),
            ("+GHOST cost 5\n", "undeclared"),
            ("(A, B -> C cost 5\n", "unbalanced"),
        ] {
            let e = parse_spec_file(&format!("{base}{bad}")).unwrap_err();
            assert!(e.msg.contains(needle), "{bad:?} gave {e}");
        }
    }

    /// A component no invariant could mention is refused where it is
    /// declared, on its line.
    #[test]
    fn component_names_an_invariant_cannot_mention_are_rejected() {
        for bad in ["", "A B", "A-1", "1A", "true", "false", "one_of"] {
            let src = format!("[processes]\nhost\n[components]\nA @ host\n{bad} @ host\n");
            let e = parse_spec_file(&src).unwrap_err();
            assert_eq!(e.line, 5, "{bad:?}");
            assert!(e.msg.contains("not a component name"), "{bad:?} gave {e}");
        }
        let dup = parse_spec_file("[processes]\nhost\n[components]\nA @ host\nA @ host\n");
        assert!(dup.unwrap_err().msg.contains("duplicate component"));
    }

    #[test]
    fn content_before_section_rejected() {
        let e = parse_spec_file("hello\n").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn unknown_section_rejected() {
        let e = parse_spec_file("[wat]\n").unwrap_err();
        assert!(e.msg.contains("unknown section"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let spec =
            parse_spec_file("# header\n\n[processes]\nhost # trailing\n[components]\nA @ host\n")
                .unwrap();
        assert_eq!(spec.universe().len(), 1);
    }

    #[test]
    fn config_arg_both_forms() {
        let cs = case_study();
        let u = cs.spec.universe();
        assert_eq!(parse_config_arg(u, "0100101").unwrap(), cs.source);
        assert_eq!(parse_config_arg(u, "{D4,D1,E1}").unwrap(), cs.source);
        assert_eq!(parse_config_arg(u, "D4, D1, E1").unwrap(), cs.source);
        assert!(parse_config_arg(u, "{NOPE}").is_err());
    }
}
