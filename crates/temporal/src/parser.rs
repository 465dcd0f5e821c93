//! Parser for the ptLTL surface syntax.
//!
//! Grammar (loosest first):
//!
//! ```text
//! formula := implies
//! implies := since ( "=>" since )*           // right-assoc
//! since   := or ( "since" or )*              // left-assoc
//! or      := and ( "|" and )*
//! and     := unary ( "&" unary )*
//! unary   := "!" unary | "yesterday" unary | "once" unary
//!          | "historically" unary | atom
//! atom    := "true" | "false" | IDENT | "(" formula ")"
//! ```

use std::error::Error;
use std::fmt;

use crate::formula::Formula;

/// The deepest nesting a formula may have — a parenthesis, a unary
/// operator, the right side of `=>` and each link of a `|`, `&` or `since`
/// chain (which folds what came before it one level deeper) are one level
/// each — so that no text builds a formula deeper than a default thread's
/// stack can print, monitor or drop.
pub const MAX_NESTING: usize = 64;

/// A ptLTL syntax error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TlParseError {
    /// Byte offset of the problem.
    pub(crate) at: usize,
    /// Description.
    pub(crate) msg: String,
}

impl fmt::Display for TlParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "temporal formula parse error at byte {}: {}", self.at, self.msg)
    }
}

impl Error for TlParseError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    LParen,
    RParen,
    Bang,
    Amp,
    Pipe,
    Arrow,
    KwSince,
    KwYesterday,
    KwOnce,
    KwHistorically,
    KwTrue,
    KwFalse,
}

fn lex(src: &str) -> Result<Vec<(usize, Tok)>, TlParseError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] as char {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                out.push((i, Tok::LParen));
                i += 1;
            }
            ')' => {
                out.push((i, Tok::RParen));
                i += 1;
            }
            '!' => {
                out.push((i, Tok::Bang));
                i += 1;
            }
            '&' => {
                out.push((i, Tok::Amp));
                i += 1;
            }
            '|' => {
                out.push((i, Tok::Pipe));
                i += 1;
            }
            '=' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    out.push((i, Tok::Arrow));
                    i += 2;
                } else {
                    return Err(TlParseError { at: i, msg: "expected '=>'".into() });
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let c = bytes[i] as char;
                    if c.is_ascii_alphanumeric() || c == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let word = &src[start..i];
                let tok = match word {
                    "since" => Tok::KwSince,
                    "yesterday" => Tok::KwYesterday,
                    "once" => Tok::KwOnce,
                    "historically" => Tok::KwHistorically,
                    "true" => Tok::KwTrue,
                    "false" => Tok::KwFalse,
                    _ => Tok::Ident(word.to_string()),
                };
                out.push((start, tok));
            }
            other => {
                return Err(TlParseError { at: i, msg: format!("unexpected character {other:?}") })
            }
        }
    }
    Ok(out)
}

struct P {
    toks: Vec<(usize, Tok)>,
    pos: usize,
    len: usize,
    depth: usize,
}

type Rule = fn(&mut P) -> Result<Formula, TlParseError>;

impl P {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn here(&self) -> usize {
        self.toks.get(self.pos).map(|&(a, _)| a).unwrap_or(self.len)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(_, t)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn formula(&mut self) -> Result<Formula, TlParseError> {
        self.implies()
    }

    /// One level of nesting deeper, or the error past [`MAX_NESTING`].
    fn deeper(&mut self) -> Result<(), TlParseError> {
        if self.depth == MAX_NESTING {
            let msg = format!("nested deeper than {MAX_NESTING} levels");
            return Err(TlParseError { at: self.here(), msg });
        }
        self.depth += 1;
        Ok(())
    }

    /// `rule`, one level of nesting deeper.
    fn nested(&mut self, rule: Rule) -> Result<Formula, TlParseError> {
        self.deeper()?;
        let f = rule(self);
        self.depth -= 1;
        f
    }

    /// `operand (op operand)*`, folded to the left by `node`: each link
    /// puts what came before it one level deeper, and counts as one.
    fn chain(
        &mut self,
        op: &Tok,
        operand: Rule,
        node: fn(Formula, Formula) -> Formula,
    ) -> Result<Formula, TlParseError> {
        let outer = self.depth;
        let mut fold = || {
            let mut lhs = operand(self)?;
            while self.peek() == Some(op) {
                self.deeper()?;
                self.bump();
                lhs = node(lhs, operand(self)?);
            }
            Ok(lhs)
        };
        let f = fold();
        self.depth = outer;
        f
    }

    fn implies(&mut self) -> Result<Formula, TlParseError> {
        let lhs = self.since()?;
        if self.peek() == Some(&Tok::Arrow) {
            self.bump();
            let rhs = self.nested(P::implies)?;
            Ok(Formula::implies(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn since(&mut self) -> Result<Formula, TlParseError> {
        self.chain(&Tok::KwSince, P::or, Formula::since)
    }

    fn or(&mut self) -> Result<Formula, TlParseError> {
        self.chain(&Tok::Pipe, P::and, Formula::or)
    }

    fn and(&mut self) -> Result<Formula, TlParseError> {
        self.chain(&Tok::Amp, P::unary, Formula::and)
    }

    fn unary(&mut self) -> Result<Formula, TlParseError> {
        let op: fn(Formula) -> Formula = match self.peek() {
            Some(Tok::Bang) => Formula::not,
            Some(Tok::KwYesterday) => Formula::yesterday,
            Some(Tok::KwOnce) => Formula::once,
            Some(Tok::KwHistorically) => Formula::historically,
            _ => return self.atom(),
        };
        self.bump();
        Ok(op(self.nested(P::unary)?))
    }

    fn atom(&mut self) -> Result<Formula, TlParseError> {
        let at = self.here();
        match self.bump() {
            Some(Tok::KwTrue) => Ok(Formula::Const(true)),
            Some(Tok::KwFalse) => Ok(Formula::Const(false)),
            Some(Tok::Ident(name)) => Ok(Formula::Atom(name)),
            Some(Tok::LParen) => {
                let f = self.nested(P::formula)?;
                match self.bump() {
                    Some(Tok::RParen) => Ok(f),
                    other => Err(TlParseError {
                        at: self.here(),
                        msg: format!("expected ')', found {other:?}"),
                    }),
                }
            }
            other => Err(TlParseError { at, msg: format!("expected a formula, found {other:?}") }),
        }
    }
}

/// Parses a ptLTL formula.
///
/// # Errors
///
/// Returns [`TlParseError`] on invalid syntax, trailing input, or nesting
/// deeper than [`MAX_NESTING`].
///
/// # Examples
///
/// ```
/// # use sada_tl::parse_formula;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let f = parse_formula("historically (send => once ready)")?;
/// assert_eq!(f.to_string(), "historically (send => once ready)");
/// # Ok(())
/// # }
/// ```
pub fn parse_formula(src: &str) -> Result<Formula, TlParseError> {
    let toks = lex(src)?;
    let mut p = P { toks, pos: 0, len: src.len(), depth: 0 };
    let f = p.formula()?;
    if p.pos != p.toks.len() {
        return Err(TlParseError { at: p.here(), msg: "trailing input".into() });
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(src: &str, display: &str) {
        let f = parse_formula(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        assert_eq!(f.to_string(), display, "source: {src}");
    }

    #[test]
    fn precedence() {
        ok("a & b | c", "((a & b) | c)");
        ok("a | b & c", "(a | (b & c))");
        ok("!a & b", "(!a & b)");
        ok("a => b => c", "(a => (b => c))");
    }

    #[test]
    fn temporal_operators() {
        ok("once a", "once a");
        ok("historically (a => once b)", "historically (a => once b)");
        ok("yesterday yesterday a", "yesterday yesterday a");
        ok("!err since reset", "(!err since reset)");
        ok("a since b since c", "((a since b) since c)");
    }

    #[test]
    fn since_binds_tighter_than_implies() {
        ok("a since b => c", "((a since b) => c)");
    }

    #[test]
    fn constants() {
        ok("true & !false", "(true & !false)");
    }

    #[test]
    fn errors() {
        assert!(parse_formula("").is_err());
        assert!(parse_formula("a &").is_err());
        assert!(parse_formula("(a").is_err());
        assert!(parse_formula("a b").is_err());
        assert!(parse_formula("a = b").is_err());
        assert!(parse_formula("@").is_err());
    }

    #[test]
    fn parse_display_round_trip() {
        for src in [
            "historically (send => once ready)",
            "(!err since reset) & once go",
            "yesterday (a | b) => once (c & d)",
        ] {
            let f = parse_formula(src).unwrap();
            let again = parse_formula(&f.to_string()).unwrap();
            assert_eq!(f, again, "{src}");
        }
    }
}
