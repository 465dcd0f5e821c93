//! Hand-written lexer and recursive-descent parser for the invariant
//! language.
//!
//! Grammar (loosest binding first):
//!
//! ```text
//! expr    := iff
//! iff     := implies ( "<=>" implies )*
//! implies := or ( "=>" or )*          // right-associative
//! or      := xor ( "|" xor )*
//! xor     := and ( "^" and )*
//! and     := unary ( ("&" | ".") unary )*
//! unary   := "!" unary | atom
//! atom    := "true" | "false" | IDENT | "(" expr ")"
//!          | "one_of" "(" expr ("," expr)* ")"
//! ```
//!
//! `.` is accepted as a synonym for `&` because the paper writes conjunction
//! as `·`; `one_of` is the paper's ⨂ ("exclusively select one from a given
//! set"); `=>` is the dependency arrow `→`.

use std::error::Error;
use std::fmt;

use crate::config::Universe;
use crate::expr::Expr;

/// An error produced while parsing an invariant expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the source where the problem was detected.
    pub at: usize,
    /// Human-readable description.
    pub(crate) msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.at, self.msg)
    }
}

impl Error for ParseError {}

/// A token; identifiers borrow their text from the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok<'s> {
    Ident(&'s str),
    LParen,
    RParen,
    Comma,
    Bang,
    Amp,
    Pipe,
    Caret,
    Arrow,  // =>
    DArrow, // <=>
    True,
    False,
    OneOf,
}

/// The buffers one parse leaves behind for the next, so that parsing a
/// whole invariant set allocates the expressions it returns and nothing
/// else.
#[derive(Default)]
pub(crate) struct Scratch<'s> {
    toks: Vec<(usize, Tok<'s>)>,
    /// Operands of the n-ary nodes under construction, innermost last; a
    /// finished node takes its own off the end, as a `Vec` of exactly
    /// their number.
    operands: Vec<Expr>,
}

/// Replaces the contents of `toks` by the tokens of `src`, each with its
/// byte offset.
fn lex<'s>(src: &'s str, toks: &mut Vec<(usize, Tok<'s>)>) -> Result<(), ParseError> {
    toks.clear();
    let bytes = src.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        // Bytes, not characters: everything the language accepts is ASCII,
        // and any byte of a multi-byte character lands in the last arm.
        let c = bytes[i] as char;
        let (tok, len) = match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
                continue;
            }
            '(' => (Tok::LParen, 1),
            ')' => (Tok::RParen, 1),
            ',' => (Tok::Comma, 1),
            '!' => (Tok::Bang, 1),
            '&' | '.' => (Tok::Amp, 1),
            '|' => (Tok::Pipe, 1),
            '^' => (Tok::Caret, 1),
            '=' if bytes.get(i + 1) == Some(&b'>') => (Tok::Arrow, 2),
            '=' => return Err(ParseError { at: i, msg: "expected '=>'".into() }),
            '<' if bytes[i..].starts_with(b"<=>") => (Tok::DArrow, 3),
            '<' => return Err(ParseError { at: i, msg: "expected '<=>'".into() }),
            other => match word_len(&bytes[i..]) {
                0 => {
                    let msg = format!("unexpected character {other:?}");
                    return Err(ParseError { at: i, msg });
                }
                // ASCII on both sides of each cut, so both are boundaries.
                len => (word_token(&src[i..i + len]), len),
            },
        };
        toks.push((i, tok));
        i += len;
    }
    Ok(())
}

/// Length of the word `bytes` starts with — a letter or `_`, then letters,
/// digits and `_` — or 0 when it starts with none.
fn word_len(bytes: &[u8]) -> usize {
    match bytes.first() {
        Some(b) if b.is_ascii_alphabetic() || *b == b'_' => {
            1 + bytes[1..].iter().take_while(|b| b.is_ascii_alphanumeric() || **b == b'_').count()
        }
        _ => 0,
    }
}

/// The token a whole word lexes as: a keyword, or a component name.
fn word_token(word: &str) -> Tok<'_> {
    match word {
        "true" => Tok::True,
        "false" => Tok::False,
        "one_of" => Tok::OneOf,
        name => Tok::Ident(name),
    }
}

/// Whether an invariant can mention a component called `name`: it must
/// lex as one identifier — a letter or `_`, then letters, digits and `_` —
/// and not as one of the keywords `true`, `false` and `one_of`. What the
/// lexer reads, so spec-file readers reject any other name where it is
/// declared.
pub fn is_component_name(name: &str) -> bool {
    !name.is_empty()
        && word_len(name.as_bytes()) == name.len()
        && matches!(word_token(name), Tok::Ident(_))
}

struct Parser<'a, 's> {
    toks: &'a [(usize, Tok<'s>)],
    pos: usize,
    universe: &'a mut Universe,
    operands: &'a mut Vec<Expr>,
    src_len: usize,
}

type Rule = fn(&mut Parser<'_, '_>) -> Result<Expr, ParseError>;

impl<'s> Parser<'_, 's> {
    fn peek(&self) -> Option<Tok<'s>> {
        self.toks.get(self.pos).map(|&(_, t)| t)
    }

    fn here(&self) -> usize {
        self.toks.get(self.pos).map(|&(at, _)| at).unwrap_or(self.src_len)
    }

    fn bump(&mut self) -> Option<Tok<'s>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: Tok<'s>, what: &str) -> Result<(), ParseError> {
        let at = self.here();
        match self.bump() {
            Some(t) if t == want => Ok(()),
            other => Err(ParseError { at, msg: format!("expected {what}, found {other:?}") }),
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.iff()
    }

    fn iff(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.implies()?;
        while self.peek() == Some(Tok::DArrow) {
            self.bump();
            let rhs = self.implies()?;
            lhs = lhs.iff(rhs);
        }
        Ok(lhs)
    }

    fn implies(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.or()?;
        if self.peek() == Some(Tok::Arrow) {
            self.bump();
            // Right-associative: a => b => c ≡ a => (b => c).
            let rhs = self.implies()?;
            Ok(lhs.implies(rhs))
        } else {
            Ok(lhs)
        }
    }

    /// One n-ary precedence level, `operand (op operand)*`: a lone operand
    /// is the result as it stands; a node (and its `Vec`) exists only once
    /// the level has seen its operator.
    fn level(
        &mut self,
        op: Tok<'s>,
        operand: Rule,
        node: fn(Vec<Expr>) -> Expr,
    ) -> Result<Expr, ParseError> {
        let first = operand(self)?;
        if self.peek() != Some(op) {
            return Ok(first);
        }
        let mine = self.operands.len();
        self.operands.push(first);
        while self.peek() == Some(op) {
            self.bump();
            let next = operand(self)?;
            self.operands.push(next);
        }
        Ok(node(self.operands.drain(mine..).collect()))
    }

    fn or(&mut self) -> Result<Expr, ParseError> {
        self.level(Tok::Pipe, |p| p.xor(), Expr::or)
    }

    fn xor(&mut self) -> Result<Expr, ParseError> {
        self.level(Tok::Caret, |p| p.and(), Expr::xor)
    }

    fn and(&mut self) -> Result<Expr, ParseError> {
        self.level(Tok::Amp, |p| p.unary(), Expr::and)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.peek() == Some(Tok::Bang) {
            self.bump();
            Ok(Expr::not(self.unary()?))
        } else {
            self.atom()
        }
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        let at = self.here();
        match self.bump() {
            Some(Tok::True) => Ok(Expr::Const(true)),
            Some(Tok::False) => Ok(Expr::Const(false)),
            Some(Tok::Ident(name)) => Ok(Expr::var(self.universe.intern(name))),
            Some(Tok::LParen) => {
                let e = self.expr()?;
                self.expect(Tok::RParen, "')'")?;
                Ok(e)
            }
            Some(Tok::OneOf) => {
                self.expect(Tok::LParen, "'(' after one_of")?;
                let mine = self.operands.len();
                if self.peek() != Some(Tok::RParen) {
                    let item = self.expr()?;
                    self.operands.push(item);
                    while self.peek() == Some(Tok::Comma) {
                        self.bump();
                        let item = self.expr()?;
                        self.operands.push(item);
                    }
                }
                self.expect(Tok::RParen, "')' closing one_of")?;
                // `one_of()` is unsatisfiable (zero of zero operands can
                // never be exactly one) — accepted for round-tripping.
                Ok(Expr::exactly_one(self.operands.drain(mine..).collect()))
            }
            other => {
                Err(ParseError { at, msg: format!("expected an expression, found {other:?}") })
            }
        }
    }
}

/// [`parse_expr`] through caller-owned buffers. Lexes the whole source
/// before parsing any of it, so a lexical error anywhere wins over a
/// syntax error before it.
pub(crate) fn parse_with<'s>(
    src: &'s str,
    universe: &mut Universe,
    scratch: &mut Scratch<'s>,
) -> Result<Expr, ParseError> {
    lex(src, &mut scratch.toks)?;
    // A failed parse leaves its pending operands behind.
    scratch.operands.clear();
    let mut p = Parser {
        toks: &scratch.toks,
        pos: 0,
        universe,
        operands: &mut scratch.operands,
        src_len: src.len(),
    };
    let e = p.expr()?;
    if p.pos != p.toks.len() {
        return Err(ParseError { at: p.here(), msg: "trailing input after expression".into() });
    }
    Ok(e)
}

/// Parses one invariant expression, interning any new component names into
/// `universe`.
///
/// # Errors
///
/// Returns a [`ParseError`] pinpointing the first offending byte on invalid
/// syntax or trailing input.
///
/// # Examples
///
/// ```
/// # use sada_expr::{parse_expr, Universe};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut u = Universe::new();
/// let e = parse_expr("E1 => (D1 | D2) & D4", &mut u)?;
/// assert!(e.eval(&u.config_of(&["D1", "D4"])), "false antecedent");
/// # Ok(())
/// # }
/// ```
pub fn parse_expr(src: &str, universe: &mut Universe) -> Result<Expr, ParseError> {
    parse_with(src, universe, &mut Scratch::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Universe;

    fn parses_to(src: &str, expect: &str) {
        let mut u = Universe::new();
        let e = parse_expr(src, &mut u).unwrap_or_else(|err| panic!("{src}: {err}"));
        assert_eq!(e.display(&u).to_string(), expect, "source: {src}");
    }

    #[test]
    fn precedence_and_over_or() {
        parses_to("A | B & C", "(A | (B & C))");
        parses_to("A & B | C", "((A & B) | C)");
    }

    #[test]
    fn precedence_xor_between_and_and_or() {
        parses_to("A ^ B & C", "(A ^ (B & C))");
        parses_to("A | B ^ C", "(A | (B ^ C))");
    }

    #[test]
    fn implication_is_loosest_and_right_associative() {
        parses_to("A => B | C", "(A => (B | C))");
        parses_to("A => B => C", "(A => (B => C))");
    }

    #[test]
    fn iff_chains() {
        parses_to("A <=> B <=> C", "((A <=> B) <=> C)");
    }

    #[test]
    fn paper_dependency_invariant() {
        // E1 → (D1 ∨ D2) ∧ D4
        parses_to("E1 => (D1 | D2) & D4", "(E1 => ((D1 | D2) & D4))");
    }

    #[test]
    fn paper_structural_invariant() {
        parses_to("one_of(D1, D2, D3)", "one_of(D1, D2, D3)");
    }

    #[test]
    fn dot_is_conjunction() {
        parses_to("A . B", "(A & B)");
    }

    #[test]
    fn negation_binds_tightest() {
        parses_to("!A & B", "(!A & B)");
        parses_to("!(A & B)", "!(A & B)");
        parses_to("!!A", "!!A");
    }

    #[test]
    fn constants_parse() {
        parses_to("true & A", "(true & A)");
        parses_to("false | A", "(false | A)");
    }

    #[test]
    fn interning_reuses_ids() {
        let mut u = Universe::new();
        let _ = parse_expr("A & A & B", &mut u).unwrap();
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn error_on_garbage() {
        let mut u = Universe::new();
        let err = parse_expr("A @ B", &mut u).unwrap_err();
        assert_eq!(err.at, 2);
        assert!(err.to_string().contains("unexpected character"));
    }

    #[test]
    fn error_on_trailing_input() {
        let mut u = Universe::new();
        let err = parse_expr("A B", &mut u).unwrap_err();
        assert!(err.msg.contains("trailing"));
    }

    #[test]
    fn error_on_unbalanced_paren() {
        let mut u = Universe::new();
        assert!(parse_expr("(A & B", &mut u).is_err());
        assert!(parse_expr("one_of(A, B", &mut u).is_err());
    }

    #[test]
    fn error_on_lone_equals() {
        let mut u = Universe::new();
        assert!(parse_expr("A = B", &mut u).is_err());
        assert!(parse_expr("A <= B", &mut u).is_err());
    }

    /// Every malformed shape, with the byte it is reported at and the
    /// message, exactly as the `String`-token lexer reported them. A byte of
    /// a multi-byte character is reported as the Latin-1 character of that
    /// byte — odd, but what callers have been shown so far.
    #[test]
    fn malformed_inputs_keep_their_position_and_message() {
        let table: &[(&str, usize, &str)] = &[
            ("", 0, "expected an expression, found None"),
            (" ", 1, "expected an expression, found None"),
            ("A @ B", 2, "unexpected character '@'"),
            ("A B", 2, "trailing input after expression"),
            ("(A & B", 6, "expected ')', found None"),
            ("one_of(A, B", 11, "expected ')' closing one_of, found None"),
            ("A = B", 2, "expected '=>'"),
            ("A <= B", 2, "expected '<=>'"),
            ("A <", 2, "expected '<=>'"),
            ("A =", 2, "expected '=>'"),
            ("one_of A", 7, "expected '(' after one_of, found Some(Ident(\"A\"))"),
            ("one_of(A,, B)", 9, "expected an expression, found Some(Comma)"),
            ("one_of(A B)", 9, "expected ')' closing one_of, found Some(Ident(\"B\"))"),
            ("A &", 3, "expected an expression, found None"),
            ("& A", 0, "expected an expression, found Some(Amp)"),
            ("A . . B", 4, "expected an expression, found Some(Amp)"),
            ("A | | B", 4, "expected an expression, found Some(Pipe)"),
            ("A ^", 3, "expected an expression, found None"),
            ("!", 1, "expected an expression, found None"),
            ("A => ", 5, "expected an expression, found None"),
            ("A <=> ", 6, "expected an expression, found None"),
            ("()", 1, "expected an expression, found Some(RParen)"),
            ("A)", 1, "trailing input after expression"),
            ("((A)", 4, "expected ')', found None"),
            ("true false", 5, "trailing input after expression"),
            ("one_of(A, B) C", 13, "trailing input after expression"),
            ("A , B", 2, "trailing input after expression"),
            // A syntax error *before* a lexical one: the lexical one wins,
            // because the whole source is lexed before any of it is parsed.
            ("A B @", 4, "unexpected character '@'"),
            ("(A @", 3, "unexpected character '@'"),
            ("A => B <", 7, "expected '<=>'"),
            // Multi-byte characters, alone and hard against ASCII.
            ("é", 0, "unexpected character 'Ã'"),
            ("A é", 2, "unexpected character 'Ã'"),
            ("Aé", 1, "unexpected character 'Ã'"),
            ("A<é", 1, "expected '<=>'"),
            ("A =é", 2, "expected '=>'"),
            ("x😀", 1, "unexpected character 'ð'"),
            ("A &\u{a0}B", 3, "unexpected character 'Â'"),
        ];
        for &(src, at, msg) in table {
            let err = parse_expr(src, &mut Universe::new()).expect_err(src);
            assert_eq!(err, ParseError { at, msg: msg.to_string() }, "source: {src:?}");
        }
    }

    /// A name is a component name exactly when it parses, alone, as one
    /// variable of that name.
    #[test]
    fn component_names_are_what_the_lexer_reads_as_one_identifier() {
        let good = ["A", "_", "_x9", "D5", "One_of", "truex"];
        let bad = ["", " A", "A B", "A-1", "1A", "é", "Aé", "A.B", "true", "false", "one_of"];
        let table = good.map(|n| (n, true)).into_iter().chain(bad.map(|n| (n, false)));
        for (name, ok) in table {
            let mut u = Universe::new();
            let lone_var = match parse_expr(name, &mut u) {
                Ok(Expr::Var(id)) => u.name(id) == name,
                _ => false,
            };
            assert_eq!(is_component_name(name), ok, "{name:?}");
            assert_eq!(lone_var, ok, "{name:?} alone parses as itself");
        }
    }

    #[test]
    fn a_failed_source_leaves_nothing_behind_for_the_next() {
        // The set parser reuses its buffers: operands pending when a source
        // fails must not leak into the next parse through the same buffers.
        let mut scratch = Scratch::default();
        let mut u = Universe::new();
        assert!(parse_with("one_of(A, B & C, (D | ", &mut u, &mut scratch).is_err());
        let e = parse_with("one_of(X, Y)", &mut u, &mut scratch).unwrap();
        assert_eq!(e.display(&u).to_string(), "one_of(X, Y)");
    }

    #[test]
    fn parsed_semantics_match_manual_construction() {
        let mut u = Universe::new();
        let e = parse_expr("one_of(E1, E2) & (E1 => D1)", &mut u).unwrap();
        assert!(e.eval(&u.config_of(&["E1", "D1"])));
        assert!(!e.eval(&u.config_of(&["E1"])));
        assert!(e.eval(&u.config_of(&["E2"])));
        assert!(!e.eval(&u.config_of(&["E1", "E2", "D1"])));
    }
}
