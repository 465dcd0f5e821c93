//! The one tokenizer under every line-oriented text format of the
//! workspace: JSONL traces (`crate::codec`), the manager, session and global
//! journals (`sada_proto::journal`), fault plans (`sada_simnet::fault`),
//! fabric messages (`sada_fleet::fabric`) and scenario files
//! (`sada_scenario::codec`).
//!
//! Two lexical families share it. A *word* line is `verb key=value …` (or,
//! for scenario files, positional words); a *JSON* line is one flat object
//! of numbers, strings, booleans and number arrays. Either way a format is
//! read through a [`Cursor`] — a borrowed slice that knows its line and
//! column — and usually through [`Fields`], the keyed view of one line, so
//! every reader is total: malformed text is a [`ParseError`] naming the
//! place and what was allowed there, never a panic, and a number that does
//! not fit its field is an error rather than a truncation
//! ([`Cursor::next_int`] is the only way to read a narrow one).

use std::borrow::Cow;
use std::fmt::{self, Write as _};

use sada_expr::Config;

/// Where a text stopped being what its format allows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the text (1 for a single-line entry point).
    pub line: usize,
    /// 1-based byte column within that line.
    pub column: usize,
    /// What the format allows at that place.
    pub expected: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: column {}: expected {}", self.line, self.column, self.expected)
    }
}

impl std::error::Error for ParseError {}

/// The records of a text: one per line, blank lines and `#` comments
/// skipped, each a cursor stamped with its line number.
pub fn records(text: &str) -> impl Iterator<Item = Cursor<'_>> {
    text.lines().enumerate().filter_map(|(ix, line)| {
        let mut record = Cursor { rest: line, line: ix + 1, column: 1 };
        record.skip_ws();
        (!record.rest.is_empty() && !record.rest.starts_with('#')).then_some(record)
    })
}

/// Appends one line per record — the write side of [`records`].
pub fn push_lines<T: fmt::Display>(out: &mut String, records: impl IntoIterator<Item = T>) {
    for record in records {
        writeln!(out, "{record}").expect("writing to a String cannot fail");
    }
}

/// A list as one word: the items comma-joined, `-` when there are none
/// ([`Cursor::next_list`] reads it back).
pub fn list<'a, T>(
    items: &'a [T],
    item: impl Fn(&T, &mut fmt::Formatter<'_>) -> fmt::Result + 'a,
) -> impl fmt::Display + 'a {
    struct List<'a, T, F>(&'a [T], F);
    impl<T, F: Fn(&T, &mut fmt::Formatter<'_>) -> fmt::Result> fmt::Display for List<'_, T, F> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            if self.0.is_empty() {
                return f.write_str("-");
            }
            for (ix, x) in self.0.iter().enumerate() {
                if ix > 0 {
                    f.write_str(",")?;
                }
                (self.1)(x, f)?;
            }
            Ok(())
        }
    }
    List(items, item)
}

/// The JSON two-character escapes: the letter after the backslash and the
/// character it stands for. Other control characters travel as `\u00XX`.
const ESCAPES: [(u8, char); 5] =
    [(b'"', '"'), (b'\\', '\\'), (b'n', '\n'), (b'r', '\r'), (b't', '\t')];

/// Appends `s` as a JSON string, quotes included.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        if let Some(&(letter, _)) = ESCAPES.iter().find(|&&(_, c)| c == ch) {
            out.push('\\');
            out.push(letter as char);
        } else if (ch as u32) < 0x20 {
            let _ = write!(out, "\\u{:04x}", ch as u32);
        } else {
            out.push(ch);
        }
    }
    out.push('"');
}

/// A borrowed slice of one line that knows where in the text it starts.
/// Reading consumes from the front; every token-level reader skips ASCII
/// whitespace first.
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'a> {
    rest: &'a str,
    line: usize,
    column: usize,
}

type Parsed<T> = Result<T, ParseError>;

impl<'a> Cursor<'a> {
    /// A cursor over a text that is one line of its own (line 1).
    pub fn new(line: &'a str) -> Self {
        Cursor { rest: line, line: 1, column: 1 }
    }

    /// What is left to read.
    pub fn as_str(&self) -> &'a str {
        self.rest
    }

    /// The error "`what` was expected here".
    pub fn expected(&self, what: impl Into<String>) -> ParseError {
        ParseError { line: self.line, column: self.column, expected: what.into() }
    }

    /// The error for a discriminator — a verb, a kind, a tag — that is none
    /// of the format's own; the cursor is the offending word.
    pub fn unknown(&self, what: &str) -> ParseError {
        self.expected(format!("a known {what} (unknown {what} {:?})", self.rest))
    }

    /// Splits off the first `n` bytes. `n` is always found by scanning for
    /// an ASCII byte or the end, so it is a character boundary.
    fn take(&mut self, n: usize) -> Cursor<'a> {
        let (head, tail) = self.rest.split_at(n);
        let taken = Cursor { rest: head, ..*self };
        self.rest = tail;
        self.column += n;
        taken
    }

    /// Splits off the bytes before the first one `stop` accepts (all of
    /// them if none does). Either every byte `stop` accepts is ASCII or
    /// every byte it rejects is, so the split is a character boundary.
    fn take_until(&mut self, stop: impl Fn(u8) -> bool) -> Cursor<'a> {
        let n = self.rest.bytes().position(stop).unwrap_or(self.rest.len());
        self.take(n)
    }

    fn skip_ws(&mut self) {
        self.take_until(|b| !b.is_ascii_whitespace());
    }

    /// The next byte after any whitespace, not consumed.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.rest.bytes().next()
    }

    /// Consumes `byte` (ASCII) if it is the very next byte.
    fn eat_here(&mut self, byte: u8) -> bool {
        let hit = self.rest.as_bytes().first() == Some(&byte);
        if hit {
            self.take(1);
        }
        hit
    }

    /// Consumes `byte` (ASCII) if it is next after any whitespace.
    pub fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        self.eat_here(byte)
    }

    /// Consumes `byte` (ASCII) or fails.
    pub fn expect(&mut self, byte: u8) -> Parsed<()> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.expected(format!("{:?}", byte as char)))
        }
    }

    /// Fails unless only whitespace is left (of the line, or of the one
    /// value the cursor spans).
    pub fn expect_end(&mut self) -> Parsed<()> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.expected("the end")),
        }
    }

    /// Runs `read` and requires it to consume the cursor to its end.
    pub fn whole<T>(mut self, read: impl FnOnce(&mut Self) -> Parsed<T>) -> Parsed<T> {
        let value = read(&mut self)?;
        self.expect_end()?;
        Ok(value)
    }

    /// The next whitespace-delimited word.
    pub fn word(&mut self) -> Parsed<Cursor<'a>> {
        match self.peek() {
            None => Err(self.expected("a word")),
            Some(_) => Ok(self.take_until(|b| b.is_ascii_whitespace())),
        }
    }

    /// The next word, read to its end by `read` — one positional field.
    pub fn field<T>(&mut self, read: impl FnOnce(&mut Self) -> Parsed<T>) -> Parsed<T> {
        self.word()?.whole(read)
    }

    /// Everything up to the end of the line, trimmed.
    pub fn tail(&mut self) -> &'a str {
        self.skip_ws();
        self.take(self.rest.len()).rest.trim_end()
    }

    /// A run of decimal digits that fits a `u64`.
    pub fn next_u64(&mut self) -> Parsed<u64> {
        self.next_int()
    }

    /// A run of decimal digits that fits `T`: a value out of the field's
    /// range is an error, never a truncation.
    pub fn next_int<T: TryFrom<u64>>(&mut self) -> Parsed<T> {
        self.skip_ws();
        let start = *self;
        let digits = self.take_until(|b| !b.is_ascii_digit()).rest;
        // `parse` accepts a sign; the digit scan above does not.
        let value = digits.parse::<u64>().ok().and_then(|v| T::try_from(v).ok());
        value.ok_or_else(|| start.expected(std::any::type_name::<T>()))
    }

    /// `true` or `false`.
    pub fn next_bool(&mut self) -> Parsed<bool> {
        self.skip_ws();
        for (literal, value) in [("true", true), ("false", false)] {
            if self.rest.starts_with(literal) {
                self.take(literal.len());
                return Ok(value);
            }
        }
        Err(self.expected("true or false"))
    }

    /// One of two ASCII bytes: `no` reads as false, `yes` as true.
    pub fn either(&mut self, no: u8, yes: u8) -> Parsed<bool> {
        if self.eat(no) {
            Ok(false)
        } else if self.eat(yes) {
            Ok(true)
        } else {
            Err(self.expected(format!("{:?} or {:?}", no as char, yes as char)))
        }
    }

    /// Comma-separated items, at least one.
    pub fn items<T>(&mut self, mut item: impl FnMut(&mut Self) -> Parsed<T>) -> Parsed<Vec<T>> {
        let mut out = vec![item(self)?];
        while self.eat(b',') {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// What [`list`] writes: `-`, or comma-separated items.
    pub fn next_list<T>(&mut self, item: impl FnMut(&mut Self) -> Parsed<T>) -> Parsed<Vec<T>> {
        if self.eat(b'-') {
            Ok(Vec::new())
        } else {
            self.items(item)
        }
    }

    /// A JSON array: `[]`, or the items between brackets.
    pub fn next_array<T>(&mut self, item: impl FnMut(&mut Self) -> Parsed<T>) -> Parsed<Vec<T>> {
        self.expect(b'[')?;
        let out = if self.peek() == Some(b']') { Vec::new() } else { self.items(item)? };
        self.expect(b']')?;
        Ok(out)
    }

    /// A configuration's bit string, to the end of the cursor.
    pub fn config(mut self) -> Parsed<Config> {
        let bits = self.take(self.rest.len());
        Config::from_bit_string(bits.rest).map_err(|bad| {
            let at = bits.rest.find(bad).unwrap_or(0);
            Cursor { column: bits.column + at, ..bits }.expected("'0' or '1'")
        })
    }

    /// The contents of a JSON string, escapes still in place.
    pub fn raw_str(&mut self) -> Parsed<Cursor<'a>> {
        self.skip_ws();
        let open = *self;
        self.expect(b'"')?;
        let bytes = self.rest.as_bytes();
        let mut n = 0;
        while n < bytes.len() && bytes[n] != b'"' {
            // The byte after a backslash cannot close the string.
            n += if bytes[n] == b'\\' { 2 } else { 1 };
        }
        if n >= bytes.len() {
            return Err(open.expected("a terminated string"));
        }
        let raw = self.take(n);
        self.take(1);
        Ok(raw)
    }

    /// A JSON string, unescaped (borrowed when it holds no escape).
    pub fn next_str(&mut self) -> Parsed<Cow<'a, str>> {
        let mut raw = self.raw_str()?;
        let mut out = Cow::Borrowed(raw.take_until(|b| b == b'\\').rest);
        while raw.eat_here(b'\\') {
            let escape = raw;
            let bad =
                || escape.expected("an escape: \\\" \\\\ \\n \\r \\t or \\u and four hex digits");
            let ch = if raw.eat_here(b'u') {
                let hex = raw.rest.get(..4).filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                let code = u32::from_str_radix(hex.ok_or_else(bad)?, 16).map_err(|_| bad())?;
                raw.take(4);
                char::from_u32(code).ok_or_else(bad)?
            } else {
                ESCAPES.iter().find(|&&(letter, _)| raw.eat_here(letter)).ok_or_else(bad)?.1
            };
            out.to_mut().push(ch);
            out.to_mut().push_str(raw.take_until(|b| b == b'\\').rest);
        }
        Ok(out)
    }

    /// Skips one JSON value of the subset the traces use — a number, a
    /// string, a boolean, an array of numbers — and returns it unread.
    fn json_value(&mut self) -> Parsed<Cursor<'a>> {
        self.skip_ws();
        let start = *self;
        match self.peek() {
            Some(b'"') => {
                self.raw_str()?;
            }
            Some(b'[') => {
                self.next_array(Cursor::next_u64)?;
            }
            Some(b't' | b'f') => {
                self.next_bool()?;
            }
            // Only the digits: whether they fit is the typed reader's call.
            _ if self.take_until(|b| !b.is_ascii_digit()).rest.is_empty() => {
                return Err(start.expected("a JSON value"));
            }
            _ => {}
        }
        Ok(Cursor { rest: &start.rest[..start.rest.len() - self.rest.len()], ..start })
    }
}

/// Fields kept in the view itself; a line with more spills to the heap.
const INLINE_FIELDS: usize = 12;

/// The keyed view of one line: `verb key=value …` or one JSON object. Keys
/// and values are slices of the line; nothing is copied and, up to
/// [`INLINE_FIELDS`] fields, nothing allocated. A key the format does not
/// know is never looked up and so is ignored — that is how an older reader
/// accepts a newer writer's line; of a repeated key the last one counts.
#[derive(Debug)]
pub struct Fields<'a> {
    /// The line's first word (for a JSON object, the empty start of the line).
    pub verb: Cursor<'a>,
    inline: [(&'a str, Cursor<'a>); INLINE_FIELDS],
    len: usize,
    spill: Vec<(&'a str, Cursor<'a>)>,
    /// The end of the line: where a missing field is reported.
    end: Cursor<'a>,
}

impl<'a> Fields<'a> {
    fn empty(verb: Cursor<'a>) -> Self {
        Fields { verb, inline: [("", verb); INLINE_FIELDS], len: 0, spill: Vec::new(), end: verb }
    }

    fn push(&mut self, key: &'a str, value: Cursor<'a>) {
        match self.inline.get_mut(self.len) {
            Some(slot) => {
                *slot = (key, value);
                self.len += 1;
            }
            None => self.spill.push((key, value)),
        }
    }

    /// Reads a `verb key=value …` line.
    pub fn words(mut line: Cursor<'a>) -> Parsed<Self> {
        let mut fields = Fields::empty(line.word()?);
        while line.peek().is_some() {
            let mut value = line.word()?;
            let key = value.take_until(|b| b == b'=');
            value.expect(b'=').map_err(|_| key.expected("key=value"))?;
            fields.push(key.rest, value);
        }
        fields.end = line;
        Ok(fields)
    }

    /// Reads a line that is one flat JSON object, keys in any order.
    pub fn json(mut line: Cursor<'a>) -> Parsed<Self> {
        line.skip_ws();
        let mut fields = Fields::empty(line.take(0));
        line.expect(b'{')?;
        if !line.eat(b'}') {
            loop {
                let key = line.raw_str()?;
                line.expect(b':')?;
                fields.push(key.rest, line.json_value()?);
                if !line.eat(b',') {
                    line.expect(b'}').map_err(|_| line.expected("',' or '}'"))?;
                    break;
                }
            }
        }
        line.expect_end()?;
        fields.end = line;
        Ok(fields)
    }

    /// The value of `key`, if the line has one.
    pub fn opt(&self, key: &str) -> Option<Cursor<'a>> {
        let fields = self.inline[..self.len].iter().chain(&self.spill);
        fields.rev().find(|(k, _)| *k == key).map(|&(_, value)| value)
    }

    /// The value of `key`; a line without one is an error.
    pub fn get(&self, key: &str) -> Parsed<Cursor<'a>> {
        self.opt(key).ok_or_else(|| self.end.expected(format!("field '{key}'")))
    }

    /// The whole value of `key`, read by `read`.
    pub fn parse<T>(
        &self,
        key: &str,
        read: impl FnOnce(&mut Cursor<'a>) -> Parsed<T>,
    ) -> Parsed<T> {
        self.get(key)?.whole(read)
    }

    /// The whole value of `key` as an integer that fits `T`.
    pub fn int<T: TryFrom<u64>>(&self, key: &str) -> Parsed<T> {
        self.parse(key, Cursor::next_int)
    }

    /// The whole value of `key` as an integer that fits `T`, if present.
    pub fn opt_int<T: TryFrom<u64>>(&self, key: &str) -> Parsed<Option<T>> {
        self.opt(key).map(|value| value.whole(Cursor::next_int)).transpose()
    }
}
