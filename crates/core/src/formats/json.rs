//! A small, dependency-free, **zero-copy** JSON document model, reader and
//! writer.
//!
//! JSON is "the most widely supported structural format" among the studied
//! DBMSs (paper Table III), and the converters must *parse* native JSON
//! explain output, so a full round-trip implementation is required — and it
//! sits on the ingest hot path of every fingerprinting/TED campaign, so it
//! must not allocate where the input already holds the bytes.
//!
//! One reader, and the trees it builds:
//!
//! * [`JsonReader`] — the one grammar: borrowed [`JsonEvent`]s plus the
//!   structured helpers (`next_key`, `array_next`, `read_value`,
//!   `skip_value`, …). Escape-free strings and object keys are
//!   [`Cow::Borrowed`] spans of the input and numbers are parsed in place.
//!   Converters with a known schema walk explain output, plans and request
//!   bodies through it without materializing a tree at all.
//! * [`parse`] — the reader's [`JsonReader::read_value`] plus
//!   [`JsonReader::finish`]: a borrowed [`JsonValue`] tree over the input
//!   `&str`. The only allocations are the container `Vec`s and the decoded
//!   forms of strings that contain escapes. [`JsonValue::into_owned`]
//!   detaches a tree (`JsonValue<'static>`) for documents that must outlive
//!   their input, e.g. `minidoc` collections.
//!
//! Object member order is preserved (`Vec<(Cow<str>, JsonValue)>`), which
//! keeps serialized plans stable and diffable.

use std::borrow::Cow;
use std::fmt;

use crate::error::{Error, Result};

/// A JSON value, generic over the lifetime of the input it may borrow from.
///
/// Values built programmatically (emitters, documents) use `Cow::Owned` or
/// `'static` string literals; values built by [`parse`] borrow every
/// escape-free string from the input. [`JsonValue::into_owned`] converts the
/// latter into the former.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number that lexed as an integer.
    Int(i64),
    /// A number with a fraction or exponent.
    Float(f64),
    /// A string; borrowed from the input unless it contained escapes.
    Str(Cow<'a, str>),
    /// An array.
    Array(Vec<JsonValue<'a>>),
    /// An object; member order is preserved.
    Object(Vec<(Cow<'a, str>, JsonValue<'a>)>),
}

/// A fully owned JSON value (no borrows into any input buffer).
pub type OwnedJsonValue = JsonValue<'static>;

/// Object member list, as stored by [`JsonValue::Object`].
pub type JsonMembers<'a> = Vec<(Cow<'a, str>, JsonValue<'a>)>;

impl<'a> JsonValue<'a> {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue<'a>> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer accessor (floats with integral values are *not* coerced).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            JsonValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric accessor, widening integers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Boolean accessor.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array accessor.
    pub fn as_array(&self) -> Option<&[JsonValue<'a>]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Object accessor.
    pub fn as_object(&self) -> Option<&[(Cow<'a, str>, JsonValue<'a>)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Converts every borrowed string into an owned one, detaching the
    /// value from the buffer it was parsed from.
    pub fn into_owned(self) -> OwnedJsonValue {
        match self {
            JsonValue::Null => JsonValue::Null,
            JsonValue::Bool(b) => JsonValue::Bool(b),
            JsonValue::Int(i) => JsonValue::Int(i),
            JsonValue::Float(f) => JsonValue::Float(f),
            JsonValue::Str(s) => JsonValue::Str(Cow::Owned(s.into_owned())),
            JsonValue::Array(items) => {
                JsonValue::Array(items.into_iter().map(JsonValue::into_owned).collect())
            }
            JsonValue::Object(members) => JsonValue::Object(
                members
                    .into_iter()
                    .map(|(k, v)| (Cow::Owned(k.into_owned()), v.into_owned()))
                    .collect(),
            ),
        }
    }

    /// Serializes compactly (no insignificant whitespace).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => out.push_str(&i.to_string()),
            JsonValue::Float(f) => {
                if f.is_finite() {
                    out.push_str(&format!("{f:?}"));
                } else {
                    // JSON has no NaN/Infinity; emit null like most encoders.
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_json_string(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            JsonValue::Object(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_json_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for JsonValue<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

/// Convenience constructor for an object from pairs.
pub fn object<'a>(
    pairs: impl IntoIterator<Item = (impl Into<Cow<'a, str>>, JsonValue<'a>)>,
) -> JsonValue<'a> {
    JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

impl<'a> From<&'a str> for JsonValue<'a> {
    fn from(s: &'a str) -> Self {
        JsonValue::Str(Cow::Borrowed(s))
    }
}

impl From<String> for JsonValue<'_> {
    fn from(s: String) -> Self {
        JsonValue::Str(Cow::Owned(s))
    }
}

impl<'a> From<Cow<'a, str>> for JsonValue<'a> {
    fn from(s: Cow<'a, str>) -> Self {
        JsonValue::Str(s)
    }
}

impl From<i64> for JsonValue<'_> {
    fn from(i: i64) -> Self {
        JsonValue::Int(i)
    }
}

impl From<usize> for JsonValue<'_> {
    fn from(i: usize) -> Self {
        JsonValue::Int(i as i64)
    }
}

impl From<f64> for JsonValue<'_> {
    fn from(f: f64) -> Self {
        JsonValue::Float(f)
    }
}

impl From<bool> for JsonValue<'_> {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

/// Nesting bound: real explain plans nest a few dozen levels at most; the
/// bound turns stack exhaustion on adversarial input into a parse error.
const MAX_DEPTH: usize = 512;

/// Initial capacity for object member vectors: explain nodes typically have
/// a handful of members, and starting above `Vec`'s 1→2→4 growth ladder
/// saves two reallocations per object on the ingest hot path.
const OBJECT_CAPACITY: usize = 8;
/// Initial capacity for array element vectors.
const ARRAY_CAPACITY: usize = 4;

/// Returns the index of the first *special* string byte (closing quote,
/// backslash, or a control character) at or after `i`, scanning eight bytes
/// per step (SWAR); the caller handles the byte found. `bytes[i..]` is
/// inside a string, so a hit is guaranteed before the buffer ends on valid
/// input; on truncated input this returns `bytes.len()`.
#[inline]
fn scan_string_span(bytes: &[u8], mut i: usize) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    while i + 8 <= bytes.len() {
        let chunk = u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
        // Zero-byte trick: a lane is zero iff its high "borrow" bit sets.
        let quotes = chunk ^ (ONES * u64::from(b'"'));
        let slashes = chunk ^ (ONES * u64::from(b'\\'));
        let hit = (quotes.wrapping_sub(ONES) & !quotes & HIGHS)
            | (slashes.wrapping_sub(ONES) & !slashes & HIGHS)
            // Control characters: lanes below 0x20 (high bit clear).
            | (chunk.wrapping_sub(ONES * 0x20) & !chunk & HIGHS);
        if hit != 0 {
            return i + (hit.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'"' || b == b'\\' || b < 0x20 {
            return i;
        }
        i += 1;
    }
    i
}

/// The borrowed low-level scanner under [`JsonReader`]; it never copies
/// bytes unless a string contains escapes.
struct Lexer<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Lexer<'a> {
        Lexer {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        const SPACES: u64 = 0x2020_2020_2020_2020;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b' ' => {
                    // Pretty-printed plans indent with long space runs; eat
                    // them eight at a time.
                    self.pos += 1;
                    while self.pos + 8 <= self.bytes.len()
                        && u64::from_le_bytes(
                            self.bytes[self.pos..self.pos + 8]
                                .try_into()
                                .expect("8 bytes"),
                        ) == SPACES
                    {
                        self.pos += 8;
                    }
                    while self.bytes.get(self.pos) == Some(&b' ') {
                        self.pos += 1;
                    }
                }
                b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => return,
            }
        }
    }

    fn lex_literal(&mut self, literal: &'static str) -> Result<()> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(())
        } else {
            Err(Error::parse(self.pos, format!("expected '{literal}'")))
        }
    }

    /// Scans a string. Escape-free content comes back as a borrowed span of
    /// the input; escaped content is decoded into an owned buffer.
    fn lex_string(&mut self) -> Result<Cow<'a, str>> {
        if self.peek() != Some(b'"') {
            return Err(Error::parse(self.pos, "expected '\"'"));
        }
        let start = self.pos; // at the opening quote
        let content = start + 1;
        let i = scan_string_span(self.bytes, content);
        match self.bytes.get(i) {
            None => Err(Error::parse(start, "unterminated JSON string")),
            Some(b'"') => {
                self.pos = i + 1;
                // `content` and `i` sit on ASCII quote boundaries, so the
                // slice is valid UTF-8 (the input is a `&str`).
                Ok(Cow::Borrowed(&self.text[content..i]))
            }
            Some(b'\\') => self.lex_string_escaped(start, i).map(Cow::Owned),
            Some(_) => Err(Error::parse(i, "raw control character in string")),
        }
    }

    /// Slow path: the string contains at least one escape (at
    /// `first_escape`); decode it into an owned buffer.
    fn lex_string_escaped(&mut self, start: usize, first_escape: usize) -> Result<String> {
        let mut s = String::with_capacity(first_escape - start + 16);
        s.push_str(&self.text[start + 1..first_escape]);
        self.pos = first_escape;
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(Error::parse(start, "unterminated JSON string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(Error::parse(self.pos, "unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let cp = self.lex_hex4()?;
                            if (0xD800..=0xDBFF).contains(&cp) {
                                // Surrogate pair.
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let low = self.lex_hex4()?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err(Error::parse(
                                            self.pos,
                                            "invalid low surrogate",
                                        ));
                                    }
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                    s.push(char::from_u32(combined).ok_or_else(|| {
                                        Error::parse(self.pos, "bad surrogate pair")
                                    })?);
                                } else {
                                    return Err(Error::parse(self.pos, "lone high surrogate"));
                                }
                            } else {
                                s.push(
                                    char::from_u32(cp).ok_or_else(|| {
                                        Error::parse(self.pos, "invalid code point")
                                    })?,
                                );
                            }
                        }
                        other => {
                            return Err(Error::parse(
                                self.pos - 1,
                                format!("unknown escape '\\{}'", other as char),
                            ))
                        }
                    }
                }
                other if other < 0x20 => {
                    return Err(Error::parse(
                        self.pos - 1,
                        "raw control character in string",
                    ))
                }
                other => {
                    if other < 0x80 {
                        s.push(other as char);
                    } else {
                        // Copy a whole UTF-8 sequence; the input is a `&str`,
                        // so the run is valid by construction.
                        let seq_start = self.pos - 1;
                        let mut end = self.pos;
                        while end < self.bytes.len() && self.bytes[end] & 0xC0 == 0x80 {
                            end += 1;
                        }
                        s.push_str(&self.text[seq_start..end]);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn lex_hex4(&mut self) -> Result<u32> {
        if self.pos + 4 > self.bytes.len() {
            return Err(Error::UnexpectedEof("\\u escape".to_owned()));
        }
        // Decode from bytes: slicing `text` here could split a multi-byte
        // character when the escape is malformed (e.g. `\uaaé`) and panic.
        let mut cp = 0u32;
        for &b in &self.bytes[self.pos..self.pos + 4] {
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| Error::parse(self.pos, "bad \\u escape"))?;
            cp = cp * 16 + digit;
        }
        self.pos += 4;
        Ok(cp)
    }

    /// Parses a number in place (no intermediate `String`).
    fn lex_number(&mut self) -> Result<JsonEvent<'a>> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(JsonEvent::Float)
                .map_err(|e| Error::parse(start, format!("bad number: {e}")))
        } else {
            match text.parse::<i64>() {
                Ok(i) => Ok(JsonEvent::Int(i)),
                // Overflowing integers fall back to floats, as in most parsers.
                Err(_) => text
                    .parse::<f64>()
                    .map(JsonEvent::Float)
                    .map_err(|e| Error::parse(start, format!("bad number: {e}"))),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pull reader
// ---------------------------------------------------------------------------

/// One event of the SAX-style pull reader.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonEvent<'a> {
    /// `{`
    ObjectStart,
    /// `}`
    ObjectEnd,
    /// `[`
    ArrayStart,
    /// `]`
    ArrayEnd,
    /// An object member key (the following event(s) are its value).
    Key(Cow<'a, str>),
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer number.
    Int(i64),
    /// A fractional/exponent number.
    Float(f64),
    /// A string value.
    Str(Cow<'a, str>),
    /// The end of a fully consumed, well-formed document.
    Eof,
}

#[derive(Clone, Copy)]
struct Frame {
    is_object: bool,
    /// Items (members or elements) consumed so far in this container.
    count: u32,
    /// A key was emitted (objects) or an element separator was consumed
    /// ([`JsonReader::array_next`]): the next event must be a value.
    pending_value: bool,
}

/// The one JSON reader: repeatedly call [`JsonReader::next_event`] (or the
/// structured helpers) to walk a document without building a tree, or
/// [`JsonReader::read_value`] to build one.
///
/// The reader validates structure as it goes — commas, colons, nesting
/// depth, trailing garbage — and reports byte-offset parse errors. Strings
/// and keys without escapes are borrowed spans.
pub struct JsonReader<'a> {
    lx: Lexer<'a>,
    stack: Vec<Frame>,
    started: bool,
    peeked: Option<JsonEvent<'a>>,
}

impl<'a> JsonReader<'a> {
    /// A reader over a complete JSON document.
    pub fn new(input: &'a str) -> JsonReader<'a> {
        JsonReader {
            lx: Lexer::new(input),
            stack: Vec::new(),
            started: false,
            peeked: None,
        }
    }

    /// The next event of the document.
    pub fn next_event(&mut self) -> Result<JsonEvent<'a>> {
        if let Some(ev) = self.peeked.take() {
            return Ok(ev);
        }
        self.lx.skip_ws();
        let Some(&frame) = self.stack.last() else {
            // Top level: exactly one value, then Eof.
            if self.started {
                return if self.lx.pos == self.lx.bytes.len() {
                    Ok(JsonEvent::Eof)
                } else {
                    Err(Error::parse(
                        self.lx.pos,
                        "trailing characters after JSON document",
                    ))
                };
            }
            self.started = true;
            return self.value_start();
        };
        if frame.is_object {
            if frame.pending_value {
                let top = self.stack.last_mut().expect("checked");
                top.pending_value = false;
                top.count += 1;
                return self.value_start();
            }
            match self.lx.peek() {
                Some(b'}') => {
                    self.stack.pop();
                    self.lx.pos += 1;
                    Ok(JsonEvent::ObjectEnd)
                }
                Some(b',') if frame.count > 0 => {
                    self.lx.pos += 1;
                    self.lx.skip_ws();
                    self.lex_key().map(JsonEvent::Key)
                }
                _ if frame.count == 0 => self.lex_key().map(JsonEvent::Key),
                _ => Err(Error::parse(self.lx.pos, "expected ',' or '}' in object")),
            }
        } else {
            if frame.pending_value {
                self.stack.last_mut().expect("checked").pending_value = false;
                return self.value_start();
            }
            match self.lx.peek() {
                Some(b']') => {
                    self.stack.pop();
                    self.lx.pos += 1;
                    Ok(JsonEvent::ArrayEnd)
                }
                Some(b',') if frame.count > 0 => {
                    self.lx.pos += 1;
                    self.lx.skip_ws();
                    self.stack.last_mut().expect("checked").count += 1;
                    self.value_start()
                }
                _ if frame.count == 0 => {
                    self.stack.last_mut().expect("checked").count = 1;
                    self.value_start()
                }
                _ => Err(Error::parse(self.lx.pos, "expected ',' or ']' in array")),
            }
        }
    }

    /// Peeks at the next event without consuming it.
    pub fn peek_event(&mut self) -> Result<&JsonEvent<'a>> {
        if self.peeked.is_none() {
            let ev = self.next_event()?;
            self.peeked = Some(ev);
        }
        Ok(self.peeked.as_ref().expect("just filled"))
    }

    /// If the next value is an object, consumes its `ObjectStart` and
    /// returns `true`; otherwise skips the whole value and returns
    /// `false`. The schema-directed "descend if it has structure, ignore
    /// it otherwise" step of every converter.
    pub fn enter_object(&mut self) -> Result<bool> {
        if matches!(self.peek_event()?, JsonEvent::ObjectStart) {
            self.next_event()?;
            Ok(true)
        } else {
            self.skip_value()?;
            Ok(false)
        }
    }

    /// If the next value is an array, consumes its `ArrayStart` and
    /// returns `true`; otherwise skips the whole value and returns
    /// `false`.
    pub fn enter_array(&mut self) -> Result<bool> {
        if matches!(self.peek_event()?, JsonEvent::ArrayStart) {
            self.next_event()?;
            Ok(true)
        } else {
            self.skip_value()?;
            Ok(false)
        }
    }

    /// Inside an object (after `ObjectStart`): the next member key, or
    /// `None` when the closing `}` is reached (which is consumed).
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>> {
        // Fast path: read the key straight off the lexer without building a
        // `JsonEvent` (the hottest call of schema-directed converters).
        match self.stack.last() {
            Some(&frame) if self.peeked.is_none() && frame.is_object && !frame.pending_value => {
                self.lx.skip_ws();
                match self.lx.peek() {
                    Some(b'}') => {
                        self.stack.pop();
                        self.lx.pos += 1;
                        return Ok(None);
                    }
                    Some(b',') if frame.count > 0 => {
                        self.lx.pos += 1;
                        self.lx.skip_ws();
                    }
                    _ if frame.count == 0 => {}
                    _ => return Err(Error::parse(self.lx.pos, "expected ',' or '}' in object")),
                }
                self.lex_key().map(Some)
            }
            _ => self.next_key_by_event(),
        }
    }

    /// [`JsonReader::next_key`] in terms of events: a peeked event or a
    /// position that is not between object members.
    fn next_key_by_event(&mut self) -> Result<Option<Cow<'a, str>>> {
        let offset = self.lx.pos;
        match self.next_event()? {
            JsonEvent::Key(k) => Ok(Some(k)),
            JsonEvent::ObjectEnd => Ok(None),
            _ => Err(Error::parse(offset, "expected an object member")),
        }
    }

    /// Inside an array (after `ArrayStart`): `true` if another element
    /// follows (left unconsumed), `false` when the closing `]` is reached
    /// (which is consumed).
    pub fn array_next(&mut self) -> Result<bool> {
        // Fast path: settle the separator question straight off the lexer.
        match self.stack.last() {
            Some(&frame) if self.peeked.is_none() && !frame.is_object && !frame.pending_value => {
                self.lx.skip_ws();
                match self.lx.peek() {
                    Some(b']') => {
                        self.stack.pop();
                        self.lx.pos += 1;
                        return Ok(false);
                    }
                    Some(b',') if frame.count > 0 => self.lx.pos += 1,
                    _ if frame.count == 0 => {}
                    _ => return Err(Error::parse(self.lx.pos, "expected ',' or ']' in array")),
                }
                let top = self.stack.last_mut().expect("in array");
                top.count += 1;
                top.pending_value = true;
                Ok(true)
            }
            _ => self.array_next_by_event(),
        }
    }

    /// [`JsonReader::array_next`] in terms of events: a peeked event or a
    /// position that is not between array elements.
    fn array_next_by_event(&mut self) -> Result<bool> {
        if matches!(self.peek_event()?, JsonEvent::ArrayEnd) {
            self.next_event()?;
            Ok(false)
        } else {
            Ok(true)
        }
    }

    /// Materializes the next value (scalar or whole subtree) as a
    /// [`JsonValue`].
    pub fn read_value(&mut self) -> Result<JsonValue<'a>> {
        let offset = self.lx.pos;
        match self.next_event()? {
            JsonEvent::Null => Ok(JsonValue::Null),
            JsonEvent::Bool(b) => Ok(JsonValue::Bool(b)),
            JsonEvent::Int(i) => Ok(JsonValue::Int(i)),
            JsonEvent::Float(f) => Ok(JsonValue::Float(f)),
            JsonEvent::Str(s) => Ok(JsonValue::Str(s)),
            JsonEvent::ObjectStart => {
                let mut members = Vec::with_capacity(OBJECT_CAPACITY);
                while let Some(key) = self.next_key()? {
                    members.push((key, self.read_value()?));
                }
                Ok(JsonValue::Object(members))
            }
            JsonEvent::ArrayStart => {
                let mut items = Vec::with_capacity(ARRAY_CAPACITY);
                while self.array_next()? {
                    items.push(self.read_value()?);
                }
                Ok(JsonValue::Array(items))
            }
            _ => Err(Error::parse(offset, "expected a JSON value")),
        }
    }

    /// Skips the next value (scalar or whole subtree) without building it.
    pub fn skip_value(&mut self) -> Result<()> {
        let offset = self.lx.pos;
        match self.next_event()? {
            JsonEvent::Null
            | JsonEvent::Bool(_)
            | JsonEvent::Int(_)
            | JsonEvent::Float(_)
            | JsonEvent::Str(_) => Ok(()),
            JsonEvent::ObjectStart | JsonEvent::ArrayStart => {
                let mut depth = 1usize;
                while depth > 0 {
                    match self.next_event()? {
                        JsonEvent::ObjectStart | JsonEvent::ArrayStart => depth += 1,
                        JsonEvent::ObjectEnd | JsonEvent::ArrayEnd => depth -= 1,
                        JsonEvent::Eof => {
                            return Err(Error::UnexpectedEof("JSON value".to_owned()))
                        }
                        _ => {}
                    }
                }
                Ok(())
            }
            _ => Err(Error::parse(offset, "expected a JSON value")),
        }
    }

    /// Asserts the document is fully consumed (no trailing characters).
    pub fn finish(&mut self) -> Result<()> {
        let offset = self.lx.pos;
        match self.next_event()? {
            JsonEvent::Eof => Ok(()),
            _ => Err(Error::parse(
                offset,
                "trailing characters after JSON document",
            )),
        }
    }

    /// Reads the next value with `read`, which starts by consuming the
    /// value's first event. If `read` rejects a well-formed value, the rest
    /// of it is skipped and the fault is the inner error. A syntax error
    /// ([`Error::Parse`] or [`Error::UnexpectedEof`], which `read` must not
    /// raise for schema faults) is the outer error.
    pub fn read_or_skip<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<Result<T>> {
        let depth = self.stack.len();
        match read(self) {
            Err(e @ (Error::Parse { .. } | Error::UnexpectedEof(_))) => Err(e),
            Err(fault) => {
                // A peeked event is consumed by dropping it.
                self.peeked = None;
                while self.stack.len() > depth {
                    self.next_event()?;
                }
                Ok(Err(fault))
            }
            Ok(value) => Ok(Ok(value)),
        }
    }

    /// Lexes an object key and its `:`, leaving the member's value pending.
    fn lex_key(&mut self) -> Result<Cow<'a, str>> {
        let key = self.lx.lex_string()?;
        self.lx.skip_ws();
        if self.lx.peek() != Some(b':') {
            return Err(Error::parse(self.lx.pos, "expected ':' in object"));
        }
        self.lx.pos += 1;
        self.stack.last_mut().expect("in object").pending_value = true;
        Ok(key)
    }

    fn value_start(&mut self) -> Result<JsonEvent<'a>> {
        // A value may start inside at most `MAX_DEPTH` open containers.
        if self.stack.len() > MAX_DEPTH {
            return Err(Error::parse(self.lx.pos, "JSON nested too deeply"));
        }
        match self.lx.peek() {
            None => Err(Error::UnexpectedEof("JSON value".to_owned())),
            Some(b'{') => {
                self.push_frame(true);
                Ok(JsonEvent::ObjectStart)
            }
            Some(b'[') => {
                self.push_frame(false);
                Ok(JsonEvent::ArrayStart)
            }
            Some(b'"') => Ok(JsonEvent::Str(self.lx.lex_string()?)),
            Some(b't') => self.lx.lex_literal("true").map(|()| JsonEvent::Bool(true)),
            Some(b'f') => self
                .lx
                .lex_literal("false")
                .map(|()| JsonEvent::Bool(false)),
            Some(b'n') => self.lx.lex_literal("null").map(|()| JsonEvent::Null),
            Some(b'-' | b'0'..=b'9') => self.lx.lex_number(),
            Some(other) => Err(Error::parse(
                self.lx.pos,
                format!("unexpected character {:?} in JSON", other as char),
            )),
        }
    }

    fn push_frame(&mut self, is_object: bool) {
        self.lx.pos += 1;
        self.stack.push(Frame {
            is_object,
            count: 0,
            pending_value: false,
        });
    }
}

/// Parses a JSON document into a borrowed tree: [`JsonReader::read_value`]
/// then [`JsonReader::finish`]. Escape-free strings and keys are zero-copy
/// spans of `input`.
pub fn parse(input: &str) -> Result<JsonValue<'_>> {
    let mut reader = JsonReader::new(input);
    let value = reader.read_value()?;
    reader.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap(), JsonValue::Int(42));
        assert_eq!(parse("-7").unwrap(), JsonValue::Int(-7));
        assert_eq!(parse("2.5").unwrap(), JsonValue::Float(2.5));
        assert_eq!(parse("1e3").unwrap(), JsonValue::Float(1000.0));
        assert_eq!(parse("\"hi\"").unwrap(), JsonValue::Str("hi".into()));
    }

    #[test]
    fn parses_structures_preserving_order() {
        let v = parse(r#"{"b": 1, "a": [2, {"c": null}]}"#).unwrap();
        let members = v.as_object().unwrap();
        assert_eq!(members[0].0, "b");
        assert_eq!(members[1].0, "a");
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn escape_free_strings_are_borrowed() {
        let doc = r#"{"plan": "Seq Scan", "esc\nape": "a\tb"}"#;
        let v = parse(doc).unwrap();
        let members = v.as_object().unwrap();
        assert!(matches!(&members[0].0, Cow::Borrowed(_)));
        assert!(matches!(&members[0].1, JsonValue::Str(Cow::Borrowed(_))));
        // Escaped spellings decode into owned buffers.
        assert!(matches!(&members[1].0, Cow::Owned(_)));
        assert_eq!(members[1].0, "esc\nape");
        assert!(matches!(&members[1].1, JsonValue::Str(Cow::Owned(_))));
        assert_eq!(members[1].1.as_str(), Some("a\tb"));
    }

    #[test]
    fn into_owned_detaches_from_input() {
        let text = String::from(r#"{"a": ["b", 1]}"#);
        let owned: OwnedJsonValue = parse(&text).unwrap().into_owned();
        drop(text);
        assert_eq!(owned.get("a").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn get_returns_none_on_miss_and_non_objects() {
        let v = parse(r#"{"a": 1}"#).unwrap();
        assert!(v.get("b").is_none());
        assert!(JsonValue::Int(1).get("a").is_none());
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = JsonValue::Str("a\"b\\c\nd\te\u{8}\u{c}\u{1}é😀".into());
        let text = original.to_compact();
        assert_eq!(parse(&text).unwrap(), original);
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            JsonValue::Str("😀".into())
        );
        assert!(parse("\"\\ud83d\"").is_err());
        assert!(parse("\"\\ud83dx\"").is_err());
    }

    #[test]
    fn compact_and_pretty_agree() {
        let v = parse(r#"{"plan": {"ops": [1, 2.5, true, null], "name": "scan"}}"#).unwrap();
        assert_eq!(parse(&v.to_pretty()).unwrap(), v);
        assert_eq!(parse(&v.to_compact()).unwrap(), v);
        assert!(v.to_pretty().contains('\n'));
        assert!(!v.to_compact().contains('\n'));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "01x",
            "\"unterminated",
            "{\"a\":1} extra",
            "[1 2]",
            "\"\\q\"",
            "{a:1}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let mut doc = String::new();
        for _ in 0..600 {
            doc.push('[');
        }
        for _ in 0..600 {
            doc.push(']');
        }
        assert!(parse(&doc).is_err());
        let mut r = JsonReader::new(&doc);
        let deep = std::iter::from_fn(|| Some(r.next_event()))
            .take(601)
            .find(|e| e.is_err());
        assert!(deep.is_some(), "reader must bound nesting too");
    }

    #[test]
    fn malformed_unicode_escape_with_multibyte_tail_errors_not_panics() {
        // The 4-byte hex window lands mid-way through the two-byte 'é':
        // must be a parse error, never a char-boundary panic.
        assert!(parse("\"\\uaaaéx\"").is_err());
        assert!(parse("\"\\uéé\"").is_err());
        assert!(parse("\"\\u+12f\"").is_err(), "sign is not a hex digit");
    }

    #[test]
    fn raw_control_characters_rejected() {
        assert!(parse("\"a\u{1}b\"").is_err());
    }

    #[test]
    fn integer_overflow_falls_back_to_float() {
        let v = parse("99999999999999999999999999").unwrap();
        assert!(matches!(v, JsonValue::Float(_)));
    }

    #[test]
    fn integer_extremes_parse_exactly() {
        assert_eq!(
            parse("-9223372036854775808").unwrap(),
            JsonValue::Int(i64::MIN)
        );
        assert_eq!(
            parse("9223372036854775807").unwrap(),
            JsonValue::Int(i64::MAX)
        );
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(JsonValue::Float(f64::NAN).to_compact(), "null");
        assert_eq!(JsonValue::Float(f64::INFINITY).to_compact(), "null");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap().to_pretty(), "[]");
        assert_eq!(parse("{}").unwrap().to_pretty(), "{}");
    }

    #[test]
    fn object_helper_builds_objects() {
        let v = object([("a", JsonValue::Int(1)), ("b", JsonValue::from("x"))]);
        assert_eq!(v.get("a").unwrap().as_int(), Some(1));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x"));
    }

    // -- pull reader -------------------------------------------------------

    #[test]
    fn reader_event_stream() {
        let mut r = JsonReader::new(r#"{"a": [1, "x"], "b": null}"#);
        let mut events = Vec::new();
        loop {
            let ev = r.next_event().unwrap();
            if ev == JsonEvent::Eof {
                break;
            }
            events.push(ev);
        }
        assert_eq!(
            events,
            vec![
                JsonEvent::ObjectStart,
                JsonEvent::Key("a".into()),
                JsonEvent::ArrayStart,
                JsonEvent::Int(1),
                JsonEvent::Str("x".into()),
                JsonEvent::ArrayEnd,
                JsonEvent::Key("b".into()),
                JsonEvent::Null,
                JsonEvent::ObjectEnd,
            ]
        );
    }

    #[test]
    fn reader_skip_value_skips_subtrees() {
        let mut r = JsonReader::new(r#"{"skip": {"deep": [1, {"x": 2}]}, "keep": 7}"#);
        assert_eq!(r.next_event().unwrap(), JsonEvent::ObjectStart);
        assert_eq!(r.next_key().unwrap().as_deref(), Some("skip"));
        r.skip_value().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("keep"));
        assert_eq!(r.next_event().unwrap(), JsonEvent::Int(7));
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn reader_array_iteration() {
        let mut r = JsonReader::new(r#"[10, 20, 30]"#);
        assert_eq!(r.next_event().unwrap(), JsonEvent::ArrayStart);
        let mut total = 0;
        while r.array_next().unwrap() {
            match r.next_event().unwrap() {
                JsonEvent::Int(i) => total += i,
                other => panic!("unexpected {other:?}"),
            }
        }
        r.finish().unwrap();
        assert_eq!(total, 60);
    }

    #[test]
    fn reader_rejects_malformed_like_the_parser() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "{\"a\":1} extra",
            "[1 2]",
            "\"\\q\"",
            "{a:1}",
        ] {
            let mut r = JsonReader::new(bad);
            let mut failed = false;
            for _ in 0..64 {
                match r.next_event() {
                    Err(_) => {
                        failed = true;
                        break;
                    }
                    Ok(JsonEvent::Eof) => break,
                    Ok(_) => {}
                }
            }
            assert!(failed, "{bad:?} should fail in the reader");
        }
    }

    #[test]
    fn read_or_skip_resumes_after_a_rejected_value() {
        let mut r = JsonReader::new(r#"{"a": {"b": [1, {"c": 2}], "d": 3}, "e": 4}"#);
        assert_eq!(r.next_event().unwrap(), JsonEvent::ObjectStart);
        assert_eq!(r.next_key().unwrap().as_deref(), Some("a"));
        let fault = r
            .read_or_skip(|r| {
                assert_eq!(r.next_event()?, JsonEvent::ObjectStart);
                r.next_key()?;
                assert_eq!(r.next_event()?, JsonEvent::ArrayStart);
                r.array_next()?;
                r.skip_value()?;
                Err::<(), _>(Error::Semantic("rejected".into()))
            })
            .unwrap();
        assert_eq!(fault, Err(Error::Semantic("rejected".into())));
        assert_eq!(r.next_key().unwrap().as_deref(), Some("e"));
        assert_eq!(
            r.read_or_skip(|r| r.read_value()).unwrap(),
            Ok(JsonValue::Int(4))
        );
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();

        // A syntax error inside the value is the outer error.
        let mut r = JsonReader::new(r#"{"a": [1 2]}"#);
        assert_eq!(r.next_event().unwrap(), JsonEvent::ObjectStart);
        r.next_key().unwrap();
        let err = r.read_or_skip(|r| r.read_value()).unwrap_err();
        assert_eq!(err, Error::parse(9, "expected ',' or ']' in array"));
    }

    /// Drains a reader's events up to `Eof` or the first error.
    fn drain(doc: &str) -> Result<()> {
        let mut r = JsonReader::new(doc);
        while r.next_event()? != JsonEvent::Eof {}
        Ok(())
    }

    /// Every malformed input of the JSON unit and property tests, and the
    /// nesting bound's edge, with the exact outcome (error text and byte
    /// offset) of [`parse`], which builds values through `read_value`, and
    /// of an event drain through `next_event`: the two paths must agree
    /// with the pinned error, and so with each other.
    #[test]
    fn reader_error_offsets_match_parser() {
        let at = |offset, message: &str| Err(Error::parse(offset, message));
        let eof = |what: &str| Err(Error::UnexpectedEof(what.to_owned()));
        let deep = |n: usize, inner: &str| format!("{}{inner}{}", "[".repeat(n), "]".repeat(n));
        let trailing = "trailing characters after JSON document";
        let mut table: Vec<(String, Result<()>)> = vec![
            ("".into(), eof("JSON value")),
            ("{".into(), at(1, "expected '\"'")),
            ("}".into(), at(0, "unexpected character '}' in JSON")),
            ("[1,".into(), eof("JSON value")),
            ("{\"a\"}".into(), at(4, "expected ':' in object")),
            ("{\"a\":}".into(), at(5, "unexpected character '}' in JSON")),
            ("tru".into(), at(0, "expected 'true'")),
            ("01x".into(), at(2, trailing)),
            ("\"unterminated".into(), at(0, "unterminated JSON string")),
            ("{\"a\":1} extra".into(), at(8, trailing)),
            ("[1 2]".into(), at(3, "expected ',' or ']' in array")),
            ("\"\\q\"".into(), at(2, "unknown escape '\\q'")),
            ("{a:1}".into(), at(1, "expected '\"'")),
            ("{\"a\" 1}".into(), at(5, "expected ':' in object")),
            ("nul".into(), at(0, "expected 'null'")),
            ("{\"a\":1,}".into(), at(7, "expected '\"'")),
            ("[1,]".into(), at(3, "unexpected character ']' in JSON")),
            (
                "{\"a\" :  x}".into(),
                at(8, "unexpected character 'x' in JSON"),
            ),
            (
                "\"ab\u{1}c\"".into(),
                at(3, "raw control character in string"),
            ),
            (
                "{\"a\":1 \"b\":2}".into(),
                at(7, "expected ',' or '}' in object"),
            ),
            ("{} {}".into(), at(3, trailing)),
            ("\"\\u00".into(), eof("\\u escape")),
        ];
        // The nesting bound: a value may start inside at most MAX_DEPTH
        // open containers, so an empty array at depth 513 is accepted.
        let too_deep = || at(513, "JSON nested too deeply");
        for (n, empty, scalar) in [
            (511, Ok(()), Ok(())),
            (512, Ok(()), Ok(())),
            (513, Ok(()), too_deep()),
            (514, too_deep(), too_deep()),
        ] {
            table.push((deep(n, ""), empty));
            table.push((deep(n, "1"), scalar));
        }
        for (doc, expected) in &table {
            let shown: String = doc.chars().take(24).collect();
            assert_eq!(&parse(doc).map(drop), expected, "parse {shown:?}");
            assert_eq!(&drain(doc), expected, "event drain {shown:?}");
        }
    }

    #[test]
    fn reader_expectation_helpers_flag_wrong_shapes() {
        let mut r = JsonReader::new("[1, 2]");
        assert_eq!(r.next_event().unwrap(), JsonEvent::ArrayStart);
        assert!(r.array_next().unwrap());
        assert!(r.next_key().is_err(), "not inside an object");
    }
}
