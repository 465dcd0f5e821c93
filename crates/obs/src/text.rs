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
use std::cell::Cell;
use std::fmt::{self, Write as _};

use sada_expr::{CompId, Config};

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

/// Reads every record of `text` with `read`, into one vector reserved up
/// front with a slot per line, so a long trace or journal is collected
/// without regrowing (a blank or comment line over-reserves its slot). The
/// first error stops the read.
pub fn read_records<T>(
    text: &str,
    mut read: impl FnMut(Cursor<'_>) -> Result<T, ParseError>,
) -> Result<Vec<T>, ParseError> {
    // Newlines 64 bytes at a time: a byte sum per chunk vectorizes, a
    // count per byte does not.
    let newlines = |chunk: &[u8]| chunk.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>();
    let lines: usize = text.as_bytes().chunks(64).map(|c| usize::from(newlines(c))).sum();
    let unterminated = !text.is_empty() && !text.ends_with('\n');
    let mut out = Vec::with_capacity(lines + usize::from(unterminated));
    for record in records(text) {
        out.push(read(record)?);
    }
    Ok(out)
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
    escape_json(s, |piece| out.push_str(piece));
    out.push('"');
}

/// Hands `s` to `write` as the contents of a JSON string, in pieces: runs
/// that need no escape, and escapes. Every character that needs one is
/// ASCII, so the runs are cut at byte offsets.
pub(crate) fn escape_json(s: &str, mut write: impl FnMut(&str)) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (at, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        write(&s[run..at]);
        run = at + 1;
        let mut escape =
            [b'\\', b'u', b'0', b'0', HEX[usize::from(b >> 4)], HEX[usize::from(b & 15)]];
        let len = match ESCAPES.iter().find(|&&(_, c)| c == char::from(b)) {
            Some(&(letter, _)) => {
                escape[1] = letter;
                2
            }
            None => escape.len(),
        };
        write(std::str::from_utf8(&escape[..len]).expect("escapes are ASCII"));
    }
    write(&s[run..]);
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
        self.expected_at(0, what)
    }

    /// The error "`what` was expected `offset` bytes on".
    fn expected_at(&self, offset: usize, what: impl Into<String>) -> ParseError {
        ParseError { line: self.line, column: self.column + offset, expected: what.into() }
    }

    /// The bytes `from..to` of what is left, as a cursor of their own. Both
    /// ends are found by scanning for ASCII bytes, so they are character
    /// boundaries.
    fn span(&self, from: usize, to: usize) -> Cursor<'a> {
        Cursor { rest: &self.rest[from..to], line: self.line, column: self.column + from }
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
        self.take(skip_space(self.rest.as_bytes(), 0));
    }

    /// The next byte after any whitespace, not consumed.
    pub(crate) fn peek(&mut self) -> Option<u8> {
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
            Some(_) => Ok(self.take(whitespace_at(self.rest.as_bytes()))),
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
        let (len, value) = digits(self.rest.as_bytes());
        match value.filter(|_| len > 0).and_then(|v| T::try_from(v).ok()) {
            Some(value) => {
                self.take(len);
                Ok(value)
            }
            None => Err(self.expected(std::any::type_name::<T>())),
        }
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

    /// A configuration, to the end of the cursor: its bit string, or `@`
    /// and a delta against `prev` — `+<id>` / `-<id>` terms in strictly
    /// ascending id order, each of which must change a bit, so that a bare
    /// `@` is `prev` itself. The delta is applied to a clone of `prev`, so
    /// the result shares every part of `prev`'s storage the delta leaves
    /// alone.
    pub fn config(mut self, prev: Option<&Config>) -> Parsed<Config> {
        let at = self;
        if !self.eat_here(b'@') {
            let bits = self.take(self.rest.len());
            return Config::from_bit_string(bits.rest).map_err(|bad| {
                let at = bits.rest.find(bad).unwrap_or(0);
                Cursor { column: bits.column + at, ..bits }.expected("'0' or '1'")
            });
        }
        let prev = prev.ok_or_else(|| at.expected("'0' or '1' (no configuration precedes '@')"))?;
        let mut config = prev.clone();
        let mut floor = 0;
        while !self.rest.is_empty() {
            let term = self;
            let add = self.either(b'-', b'+')?;
            let id: usize = self.next_int()?;
            if id >= config.width() {
                return Err(
                    term.expected(format!("a component below the width {}", config.width()))
                );
            }
            if id < floor {
                return Err(term.expected(format!("a component above {}", floor - 1)));
            }
            let comp = CompId::from_index(id);
            if config.contains(comp) == add {
                let holds = if add { "lacks" } else { "holds" };
                return Err(term.expected(format!("a component the configuration {holds}")));
            }
            if add {
                config.insert(comp);
            } else {
                config.remove(comp);
            }
            floor = id + 1;
        }
        Ok(config)
    }

    /// The contents of a JSON string, escapes still in place.
    pub fn raw_str(&mut self) -> Parsed<Cursor<'a>> {
        self.skip_ws();
        let open = *self;
        self.expect(b'"')?;
        let n = string_len(self.rest.as_bytes()).ok_or_else(|| open.expected(UNTERMINATED))?;
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
}

const UNTERMINATED: &str = "a terminated string";

/// The offset of the first byte at or after `i` that is not ASCII
/// whitespace.
fn skip_space(bytes: &[u8], mut i: usize) -> usize {
    while bytes.get(i).is_some_and(u8::is_ascii_whitespace) {
        i += 1;
    }
    i
}

/// A byte in every byte of a word, and the high bit of every byte.
const ONES: u64 = 0x0101_0101_0101_0101;
const HIGHS: u64 = ONES * 0x80;

/// The next eight bytes from `at` as one word, the first lowest.
fn word_at(bytes: &[u8], at: usize) -> Option<u64> {
    let eight = bytes.get(at..at + 8)?;
    Some(u64::from_le_bytes(eight.try_into().expect("eight bytes")))
}

/// The offset of the first ASCII whitespace byte (the length if none),
/// eight bytes at a time: a word none of whose bytes is below `!` holds no
/// whitespace and is passed over whole. A bit string is most of a journal,
/// and is one word.
fn whitespace_at(bytes: &[u8]) -> usize {
    let mut at = 0;
    while let Some(word) = word_at(bytes, at) {
        // Some byte is below 0x21 exactly when this leaves a high bit set.
        if word.wrapping_sub(ONES * 0x21) & !word & HIGHS != 0 {
            if let Some(n) = bytes[at..at + 8].iter().position(u8::is_ascii_whitespace) {
                return at + n;
            }
        }
        at += 8;
    }
    at + bytes[at..].iter().position(u8::is_ascii_whitespace).unwrap_or(bytes.len() - at)
}

/// Just past the closing quote of the JSON string that opens at
/// `bytes[open]`.
fn string_end(bytes: &[u8], open: usize) -> Result<usize, (usize, &'static str)> {
    match string_len(&bytes[open + 1..]) {
        Some(n) => Ok(open + n + 2),
        None => Err((open, UNTERMINATED)),
    }
}

/// The length of a JSON string's contents up to its closing quote, `None`
/// when nothing closes it. The byte after a backslash cannot close it.
fn string_len(bytes: &[u8]) -> Option<usize> {
    let mut n = 0;
    while n < bytes.len() && bytes[n] != b'"' {
        n += if bytes[n] == b'\\' { 2 } else { 1 };
    }
    (n < bytes.len()).then_some(n)
}

/// The leading run of decimal digits: its length, and its value if that
/// fits a `u64`. A sign is not a digit.
fn digits(bytes: &[u8]) -> (usize, Option<u64>) {
    let (mut n, mut value) = (0, Some(0u64));
    while let Some(digit) = bytes.get(n).map(|b| b.wrapping_sub(b'0')).filter(|&d| d < 10) {
        value = value.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(digit)));
        n += 1;
    }
    (n, value)
}

/// Just past the `]` of the JSON array of numbers that opens at
/// `bytes[open]`; or where it goes wrong, and what was expected there.
fn array_end(bytes: &[u8], open: usize) -> Result<usize, (usize, &'static str)> {
    let mut i = skip_space(bytes, open + 1);
    if bytes.get(i) == Some(&b']') {
        return Ok(i + 1);
    }
    loop {
        match digits(&bytes[i..]) {
            (n, Some(_)) if n > 0 => i = skip_space(bytes, i + n),
            _ => return Err((i, "u64")),
        }
        match bytes.get(i) {
            Some(b',') => i = skip_space(bytes, i + 1),
            Some(b']') => return Ok(i + 1),
            _ => return Err((i, "']'")),
        }
    }
}

/// Fields kept in the view itself; a line with more spills to the heap.
const INLINE_FIELDS: usize = 12;

/// The keyed view of one line: `verb key=value …` or one JSON object. Keys
/// and values are slices of the line; nothing is copied and, up to
/// twelve fields, nothing allocated. A key the format does not
/// know is never looked up and so is ignored — that is how an older reader
/// accepts a newer writer's line; of a repeated key the last one counts.
#[derive(Debug)]
pub struct Fields<'a> {
    /// The line's first word (for a JSON object, the empty start of the line).
    pub verb: Cursor<'a>,
    /// The line the values' offsets count from.
    line: Cursor<'a>,
    inline: [Field; INLINE_FIELDS],
    len: usize,
    spill: Vec<Field>,
    /// A bit per [`key_hash`] of the keys so far, and whether two keys have
    /// shared one. Without a shared hash the keys are distinct, and a
    /// lookup may stop at the first match.
    hashes: u64,
    shared: bool,
    /// Where the next lookup looks first: just past the last field found.
    /// A line is read in the order it was written.
    next: Cell<usize>,
    /// The end of the line: where a missing field is reported.
    end: Cursor<'a>,
}

/// The offsets in the line a key and its value run between, and what the
/// scan already read of the value.
#[derive(Debug, Clone, Copy, Default)]
struct Field {
    key: (usize, usize),
    value: (usize, usize),
    read: Read,
}

/// What a scan read of a value on its way past it.
#[derive(Debug, Clone, Copy, Default)]
enum Read {
    /// Nothing: the value is read when it is asked for.
    #[default]
    Not,
    /// Digits that fit a `u64`, and their value.
    Number(u64),
    /// A JSON string: its contents are all of it but the quotes.
    Str,
}

/// Six bits of a key. No two keys of a line that an encoder of the
/// workspace writes — any JSONL kind, journal record, fabric message or
/// fault — share them, so those lines never take the slow lookup.
fn key_hash(key: &[u8]) -> u32 {
    let (first, last) = key.first().zip(key.last()).map_or((0, 0), |(&f, &l)| (f, l));
    (u32::from(first) * 6 + u32::from(last) * 9 + key.len() as u32) % 64
}

impl<'a> Fields<'a> {
    fn empty(line: Cursor<'a>, verb: Cursor<'a>) -> Self {
        let inline = [Field::default(); INLINE_FIELDS];
        let (hashes, shared, next) = (0, false, Cell::new(0));
        Fields { verb, line, inline, len: 0, spill: Vec::new(), hashes, shared, next, end: verb }
    }

    fn push(&mut self, key: (usize, usize), value: (usize, usize), read: Read) {
        let bit = 1 << key_hash(&self.line.rest.as_bytes()[key.0..key.1]);
        self.shared |= self.hashes & bit != 0;
        self.hashes |= bit;
        let field = Field { key, value, read };
        match self.inline.get_mut(self.len) {
            Some(slot) => {
                *slot = field;
                self.len += 1;
            }
            None => {
                self.shared = true;
                self.spill.push(field);
            }
        }
    }

    /// The field of `key`: the last one of that key, or — when keys are
    /// distinct — the only one, looked for first where the last lookup
    /// left off.
    #[inline]
    fn field(&self, key: &str) -> Option<&Field> {
        let bytes = self.line.rest.as_bytes();
        let is = |f: &&Field| bytes[f.key.0..f.key.1] == *key.as_bytes();
        let fields = &self.inline[..self.len];
        if self.shared {
            return self.spill.iter().rev().chain(fields.iter().rev()).find(is);
        }
        let next = self.next.get();
        let ix = match fields.get(next) {
            Some(f) if is(&f) => next,
            _ => fields.iter().position(|f| is(&f))?,
        };
        self.next.set(ix + 1);
        Some(&fields[ix])
    }

    fn value(&self, field: &Field) -> Cursor<'a> {
        self.line.span(field.value.0, field.value.1)
    }

    /// Reads a `verb key=value …` line.
    pub fn words(mut line: Cursor<'a>) -> Parsed<Self> {
        let start = line;
        let mut fields = Fields::empty(start, line.word()?);
        while line.peek().is_some() {
            let mut value = line.word()?;
            let key = value.take_until(|b| b == b'=');
            value.expect(b'=').map_err(|_| key.expected("key=value"))?;
            let (from, to) = (key.column - start.column, value.column - start.column);
            fields.push((from, from + key.rest.len()), (to, to + value.rest.len()), Read::Not);
        }
        fields.end = line;
        Ok(fields)
    }

    /// Reads a line that is one flat JSON object, keys in any order, of the
    /// values the traces use: numbers, strings, booleans and arrays of
    /// numbers. One pass over the bytes records where each key and value
    /// lies, reads a number's value from its digits (whether it fits its
    /// field is the typed reader's call) and marks a string; any other
    /// value is read when its key is looked up. A line is rejected where
    /// the pass stopped.
    pub fn json(line: Cursor<'a>) -> Parsed<Self> {
        let mut fields = Fields::empty(line, line);
        let end = fields.scan_json().map_err(|(at, what)| line.expected_at(at, what))?;
        fields.end = line.span(end, end);
        Ok(fields)
    }

    /// [`Fields::json`]'s pass: the end of the line, or where the line goes
    /// wrong and what was expected there.
    fn scan_json(&mut self) -> Result<usize, (usize, &'static str)> {
        let bytes = self.line.rest.as_bytes();
        let mut i = skip_space(bytes, 0);
        self.verb = self.line.span(i, i);
        if bytes.get(i) != Some(&b'{') {
            return Err((i, "'{'"));
        }
        i = skip_space(bytes, i + 1);
        if bytes.get(i) == Some(&b'}') {
            i += 1;
        } else {
            loop {
                if bytes.get(i) != Some(&b'"') {
                    return Err((i, "'\"'"));
                }
                let key = (i + 1, string_end(bytes, i)? - 1);
                i = skip_space(bytes, key.1 + 1);
                if bytes.get(i) != Some(&b':') {
                    return Err((i, "':'"));
                }
                let start = skip_space(bytes, i + 1);
                let rest = &bytes[start..];
                let mut read = Read::Not;
                i = match rest.first() {
                    Some(b'"') => {
                        read = Read::Str;
                        string_end(bytes, start)?
                    }
                    Some(b'[') => array_end(bytes, start)?,
                    Some(b't') if rest.starts_with(b"true") => start + 4,
                    Some(b'f') if rest.starts_with(b"false") => start + 5,
                    Some(b't' | b'f') => return Err((start, "true or false")),
                    _ => match digits(rest) {
                        (0, _) => return Err((start, "a JSON value")),
                        (n, value) => {
                            read = value.map_or(Read::Not, Read::Number);
                            start + n
                        }
                    },
                };
                self.push(key, (start, i), read);
                i = skip_space(bytes, i);
                match bytes.get(i) {
                    Some(b',') => i = skip_space(bytes, i + 1),
                    Some(b'}') => {
                        i += 1;
                        break;
                    }
                    _ => return Err((i, "',' or '}'")),
                }
            }
        }
        i = skip_space(bytes, i);
        if i < bytes.len() {
            return Err((i, "the end"));
        }
        Ok(i)
    }

    /// The value of `key`, if the line has one.
    #[inline]
    pub fn opt(&self, key: &str) -> Option<Cursor<'a>> {
        self.field(key).map(|field| self.value(field))
    }

    /// The value of `key`; a line without one is an error.
    #[inline]
    pub fn get(&self, key: &str) -> Parsed<Cursor<'a>> {
        self.opt(key).ok_or_else(|| self.missing(key))
    }

    fn missing(&self, key: &str) -> ParseError {
        self.end.expected(format!("field '{key}'"))
    }

    /// The whole value of `key`, read by `read`.
    #[inline]
    pub fn parse<T>(
        &self,
        key: &str,
        read: impl FnOnce(&mut Cursor<'a>) -> Parsed<T>,
    ) -> Parsed<T> {
        self.get(key)?.whole(read)
    }

    /// The whole value of `key` as an integer that fits `T`.
    #[inline]
    pub fn int<T: TryFrom<u64>>(&self, key: &str) -> Parsed<T> {
        self.opt_int(key)?.ok_or_else(|| self.missing(key))
    }

    /// The whole value of `key` as an integer that fits `T`, if present.
    /// A number the scan already read is not read again.
    #[inline]
    pub fn opt_int<T: TryFrom<u64>>(&self, key: &str) -> Parsed<Option<T>> {
        let Some(field) = self.field(key) else { return Ok(None) };
        if let Read::Number(n) = field.read {
            if let Ok(n) = T::try_from(n) {
                return Ok(Some(n));
            }
        }
        self.value(field).whole(Cursor::next_int).map(Some)
    }

    /// The contents of `key`'s string value, escapes still in place. A
    /// string the scan already read is not read again.
    #[inline]
    pub(crate) fn raw_str(&self, key: &str) -> Parsed<Cursor<'a>> {
        let field = self.field(key).ok_or_else(|| self.missing(key))?;
        match field.read {
            Read::Str => Ok(self.line.span(field.value.0 + 1, field.value.1 - 1)),
            _ => self.value(field).whole(Cursor::raw_str),
        }
    }
}
