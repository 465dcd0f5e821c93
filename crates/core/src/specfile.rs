//! A textual format for adaptation specifications, so systems can be
//! described, planned, and checked without writing Rust (the analysis
//! phase's deliverable as a reviewable artifact).
//!
//! ## Format
//!
//! Line-oriented, `#` comments, five sections:
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
//!
//! [channels]
//! E1 -> D1
//! ```
//!
//! The file is a syntax only: each line is pushed, in file order (a
//! section may repeat), into [`SpecBuilder`], the one compiler every
//! specification goes through, and what it refuses is an error at that
//! line. Components are declared on a named process before use, under a
//! name the invariant language reads as one identifier
//! ([`sada_expr::is_component_name`]); invariants use the `sada-expr`
//! language; actions are replacements (`old -> new`, either side a name or
//! a parenthesized list), insertions (`+C`) or removals (`-C`), each with
//! a mandatory positive `cost <n>` and an optional trailing `drain` marker for
//! actions whose global safe condition requires draining in-flight
//! traffic; channels are directed `from -> to` pairs of components.

use std::error::Error;
use std::fmt;

use sada_expr::{Config, Universe};
use sada_proto::{AdaptationSpec, SpecBuilder};

/// A spec-file parsing error with its line number (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecFileError {
    /// 1-based line of the offending input.
    pub line: usize,
    /// Description.
    pub msg: String,
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
    Channels,
}

/// The indices of a component list: either `Name` or `(A, B, C)`.
fn comp_list(b: &SpecBuilder, s: &str) -> Result<Vec<usize>, Box<dyn Error>> {
    let s = s.trim();
    let inner = match s.strip_prefix('(') {
        Some(open) => open.strip_suffix(')').ok_or(format!("unbalanced parentheses in {s:?}"))?,
        None => s,
    };
    let names = inner.split(',').map(str::trim).filter(|p| !p.is_empty());
    let ixs = names.map(|n| b.comp_index(n)).collect::<Result<Vec<_>, _>>()?;
    if ixs.is_empty() {
        return Err(format!("empty component list in {s:?}").into());
    }
    Ok(ixs)
}

/// Parses a spec file into an executable [`AdaptationSpec`]: each line is
/// pushed into one [`SpecBuilder`], and what the builder refuses is an
/// error at that line.
///
/// # Errors
///
/// Returns a [`SpecFileError`] naming the first offending line: unknown
/// sections, undeclared components or processes, malformed actions or
/// channels, or any entry the builder refuses (see [`SpecBuilder`]).
pub fn parse_spec_file(src: &str) -> Result<AdaptationSpec, SpecFileError> {
    let mut file =
        SpecFile { section: Section::None, b: SpecBuilder::default(), procs: Vec::new() };
    for (ix, raw) in src.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if !line.is_empty() {
            file.push(line).map_err(|e| SpecFileError { line: ix + 1, msg: e.to_string() })?;
        }
    }
    if file.procs.is_empty() {
        let line = src.lines().count().max(1);
        return Err(SpecFileError { line, msg: "no [processes] declared".into() });
    }
    Ok(file.b.finish())
}

/// A spec file read so far: the section it is in, the builder, and the
/// process names in declaration order.
struct SpecFile<'s> {
    section: Section,
    b: SpecBuilder,
    procs: Vec<&'s str>,
}

impl<'s> SpecFile<'s> {
    /// Reads one line, comment and blanks stripped.
    fn push(&mut self, line: &'s str) -> Result<(), Box<dyn Error>> {
        if let Some(name) = line.strip_prefix('[') {
            let name = name.strip_suffix(']').ok_or("unterminated section header")?;
            self.section = match name.trim() {
                "processes" => Section::Processes,
                "components" => Section::Components,
                "invariants" => Section::Invariants,
                "actions" => Section::Actions,
                "channels" => Section::Channels,
                other => return Err(format!("unknown section {other:?}").into()),
            };
            return Ok(());
        }
        let b = &mut self.b;
        match self.section {
            Section::None => return Err("content before any [section]".into()),
            Section::Processes => {
                if self.procs.contains(&line) {
                    return Err(format!("duplicate process {line:?}").into());
                }
                self.procs.push(line);
                b.processes(1);
            }
            Section::Components => {
                let (comp, proc) = line.split_once('@').ok_or("expected 'Component @ process'")?;
                let proc = proc.trim();
                let pix = self.procs.iter().position(|&p| p == proc);
                b.comp(comp.trim(), pix.ok_or(format!("undeclared process {proc:?}"))?)?;
            }
            Section::Invariants => b.parse_invariants(&[line])?,
            Section::Actions => {
                // Forms: "old -> new cost N [drain]" | "+C cost N" | "-C cost N"
                let drain = line.ends_with("drain");
                let body = line.strip_suffix("drain").unwrap_or(line).trim();
                let (head, cost) = body.rsplit_once("cost").ok_or("action missing 'cost <n>'")?;
                let cost = cost.trim();
                let cost: u64 = cost.parse().map_err(|_| format!("invalid cost {cost:?}"))?;
                let head = head.trim();
                let (removes, adds) = if let Some(rest) = head.strip_prefix('+') {
                    (Vec::new(), comp_list(b, rest)?)
                } else if let Some(rest) = head.strip_prefix('-') {
                    (comp_list(b, rest)?, Vec::new())
                } else {
                    let replace = head.split_once("->");
                    let (old, new) = replace.ok_or("expected 'old -> new', '+C', or '-C'")?;
                    (comp_list(b, old)?, comp_list(b, new)?)
                };
                b.action(head, &removes, &adds, cost, drain)?;
            }
            Section::Channels => {
                let (from, to) = line.split_once("->").ok_or("expected 'from -> to'")?;
                b.channel(b.comp_index(from.trim())?, b.comp_index(to.trim())?)?;
            }
        }
        Ok(())
    }
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

/// The paper's case study in the spec-file format: Table 2's actions,
/// Figure 3's deployment and channels. [`crate::casestudy::case_study`]
/// compiles it.
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

[channels]
E1 -> D1
E1 -> D4
E2 -> D3
E2 -> D5
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::casestudy::case_study;

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
        assert!(e.msg.contains("may only mention declared components"), "{e}");
    }

    /// Every malformed action is refused on its own line, the last of the
    /// text, including the two that reached a panic in the action table
    /// before the builder checked overlap.
    #[test]
    fn malformed_actions_rejected() {
        let base = "[processes]\nhost\n[components]\nA @ host\nB @ host\n[actions]\n";
        for (bad, needle) in [
            ("A -> B\n", "cost"),
            ("A -> B cost x\n", "invalid cost"),
            ("A B cost 5\n", "expected"),
            ("+GHOST cost 5\n", "undeclared"),
            ("(A, B -> C cost 5\n", "unbalanced"),
            ("A -> A cost 5\n", "action A -> A: removes and adds overlap"),
            ("(A, B) -> (B) cost 5\n", "action (A, B) -> (B): removes and adds overlap"),
            ("A -> B cost 0\n", "action A -> B: cost 0"),
        ] {
            let e = parse_spec_file(&format!("{base}{bad}")).unwrap_err();
            assert_eq!(e.line, 7, "{bad:?} gave {e}");
            assert!(e.msg.contains(needle), "{bad:?} gave {e}");
        }
    }

    #[test]
    fn channels_join_declared_components() {
        let base = "[processes]\nhost\n[components]\nA @ host\nB @ host\n[channels]\n";
        let spec = parse_spec_file(&format!("{base}A -> B\n")).unwrap();
        let ch = spec.model().channels();
        assert_eq!((ch.len(), ch[0].from.index(), ch[0].to.index()), (1, 0, 1));
        for (bad, needle) in [("A B\n", "expected 'from -> to'"), ("A -> GHOST\n", "undeclared")] {
            let e = parse_spec_file(&format!("{base}{bad}")).unwrap_err();
            assert_eq!(e.line, 7, "{bad:?} gave {e}");
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
        assert!(dup.unwrap_err().msg.contains("A is declared twice"));
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
