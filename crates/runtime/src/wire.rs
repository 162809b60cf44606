//! The JSON wire codec of the HTTP serving protocol.
//!
//! Like the binary artifact codec (`crate::codec`), this module is
//! deliberately boring and dependency-free: a recursive-descent JSON parser
//! over raw bytes ([`Json::parse`]), a writer that renders numbers with
//! Rust's shortest-round-trip formatting, and explicit encode/decode
//! functions for every message the HTTP front-end ([`crate::http`])
//! exchanges.  There is no reflection and no external serialization crate —
//! the workspace builds hermetically.
//!
//! The two decide bodies carry nearly all the traffic, so they skip the
//! [`Json`] tree: [`decode_decide_request_into`] and
//! [`decode_decide_response`] walk the bytes once with the same parser,
//! putting each number straight into its state row or decision.  They
//! return exactly what a [`Json::parse`] followed by a walk of the tree
//! would; the other, low-traffic messages take that route.
//!
//! # Exactness
//!
//! `f64` values are rendered with Rust's `Display` formatting, which emits
//! the shortest decimal string that parses back to the identical bit
//! pattern.  A state or action that travels through this codec therefore
//! round-trips *bit-exactly* (the end-to-end HTTP test pins
//! `decide_batch`-over-the-wire against the in-process call).  `u64`
//! counters (request totals, generations, latency nanoseconds) take the
//! dedicated [`Json::U64`] path and render as exact decimal digits — an
//! `f64` detour would silently round anything beyond 2^53.  Non-finite
//! numbers are not representable in JSON: the parser rejects `NaN` and
//! `Infinity` spellings and overflowing literals, a
//! [`RemoteShard`](crate::RemoteShard) refuses non-finite states before
//! encoding them, and verified shields never produce non-finite actions.
//!
//! # Request / response shapes
//!
//! Decide requests accept a single state or a batch (both are routed
//! through the lane-batched `decide_batch` kernels server-side):
//!
//! ```json
//! {"state": [0.1, -0.2]}
//! {"states": [[0.1, -0.2], [0.0, 0.3]]}
//! ```
//!
//! Responses, telemetry, and errors are documented per-endpoint in the
//! README's wire-protocol reference; [`decide_response_into`],
//! [`telemetry_response`], [`deployed_response`], [`health_response`], and
//! [`error_body`] are the single source of truth for their shapes.

use crate::arena::StateArena;
use crate::telemetry::DeploymentTelemetry;
use crate::ArtifactMetadata;
use std::borrow::Cow;
use std::fmt;
use std::fmt::Write as _;
use vrl::shield::ShieldDecision;

/// Maximum nesting depth accepted by the JSON parser: a decide request is
/// at most 3 levels deep (`{"states": [[...]]}`), so 16 is generous while
/// still bounding recursion on adversarial input.
pub const MAX_JSON_DEPTH: usize = 16;

/// Why decoding a wire message failed.  Every variant maps to a structured
/// 4xx response; malformed input can never panic the server.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The body is not syntactically valid JSON.
    Syntax {
        /// Byte offset of the offending input.
        at: usize,
        /// What the parser expected.
        expected: &'static str,
    },
    /// JSON nesting exceeded [`MAX_JSON_DEPTH`].
    TooDeep {
        /// Byte offset where the depth limit was hit.
        at: usize,
    },
    /// The JSON is well-formed but does not match the request schema.
    Schema(String),
    /// A batch request exceeded the server's configured state limit.
    BatchTooLarge {
        /// Number of states in the request.
        len: usize,
        /// Maximum the server accepts per request.
        max: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Syntax { at, expected } => {
                write!(f, "malformed JSON at byte {at}: expected {expected}")
            }
            WireError::TooDeep { at } => {
                write!(
                    f,
                    "JSON nesting at byte {at} exceeds depth {MAX_JSON_DEPTH}"
                )
            }
            WireError::Schema(msg) => write!(f, "request shape invalid: {msg}"),
            WireError::BatchTooLarge { len, max } => {
                write!(
                    f,
                    "batch of {len} states exceeds the per-request limit of {max}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A parsed JSON value.
///
/// Numbers come in two flavours: nonnegative integer literals (no sign,
/// no fraction, no exponent) that fit a `u64` parse to [`Json::U64`] and
/// render as exact decimal digits — counters and generation numbers
/// survive beyond 2^53, where `f64` would silently round — while every
/// other number parses to [`Json::Num`] with shortest-round-trip `f64`
/// rendering.  Objects preserve key order as a `Vec` of pairs, which
/// keeps the parser allocation-light and renders deterministically.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number other than a `u64`-representable integer literal.
    Num(f64),
    /// A nonnegative integer literal, kept exact (no `f64` round-trip).
    U64(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document; trailing non-whitespace is a
    /// syntax error.
    pub fn parse(bytes: &[u8]) -> Result<Json, WireError> {
        let mut p = Parser::new(bytes);
        p.skip_ws();
        let value = p.value(0)?;
        p.end()?;
        Ok(value)
    }

    /// Looks up a key in an object; `None` on missing key or non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view of either number flavour; `None` for non-numbers.
    /// Integers beyond 2^53 round exactly as an `f64` parse of their
    /// digits would, so existing `f64` consumers see identical values.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::U64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Exact integer view: the value of a [`Json::U64`], or a
    /// [`Json::Num`] that is a nonnegative integer with no fractional
    /// part; `None` otherwise.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_f64(out, *v),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => write_json_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes `v` in the shortest form that round-trips bit-exactly through
/// `str::parse::<f64>()`.  Non-finite values (unreachable on validated
/// traffic) degrade to `null` rather than emitting invalid JSON.
fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Writes `values` as a JSON array of [`write_f64`] numbers.
fn write_f64_array(out: &mut String, values: &[f64]) {
    out.push('[');
    for (i, &value) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_f64(out, value);
    }
    out.push(']');
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    /// `bytes` as text when the whole input is UTF-8: number tokens and
    /// keys are then sliced out as `&str` without validating each again,
    /// which costs nearly as much as parsing the number.
    text: Option<&'a str>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Parser {
            bytes,
            text: std::str::from_utf8(bytes).ok(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, expected: &'static str) -> Result<(), WireError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(WireError::Syntax {
                at: self.pos,
                expected,
            })
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, WireError> {
        if depth > MAX_JSON_DEPTH {
            return Err(WireError::TooDeep { at: self.pos });
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(WireError::Syntax {
                at: self.pos,
                expected: "a JSON value",
            }),
        }
    }

    fn literal(&mut self, word: &'static [u8], value: Json) -> Result<Json, WireError> {
        if self.bytes[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(WireError::Syntax {
                at: self.pos,
                expected: "true, false, or null",
            })
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, WireError> {
        let mut pairs = Vec::new();
        self.each_member(|p, key| {
            let value = p.value(depth + 1)?;
            pairs.push((key.into_owned(), value));
            Ok(())
        })?;
        Ok(Json::Obj(pairs))
    }

    fn array(&mut self, depth: usize) -> Result<Json, WireError> {
        let mut items = Vec::new();
        self.each_item(|p| {
            items.push(p.value(depth + 1)?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    /// Walks the object at the cursor, calling `member` with each key and
    /// the cursor on that key's value; `member` must parse exactly that
    /// value.  Syntax errors are those [`Json::parse`] reports, at the same
    /// offsets: both parse objects through this walk.
    fn each_member(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        self.eat(b'{', "'{'")?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.key()?;
            self.skip_ws();
            self.eat(b':', "':' after object key")?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    return Err(WireError::Syntax {
                        at: self.pos,
                        expected: "',' or '}' in object",
                    })
                }
            }
        }
    }

    /// Walks the array at the cursor, calling `item` with the cursor on
    /// each element; `item` must parse exactly that element.
    fn each_item(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        self.eat(b'[', "'['")?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    return Err(WireError::Syntax {
                        at: self.pos,
                        expected: "',' or ']' in array",
                    })
                }
            }
        }
    }

    /// An object key: borrowed from the input when it holds no escape,
    /// else decoded by [`Parser::string`], which also reports every
    /// malformed key.
    fn key(&mut self) -> Result<Cow<'a, str>, WireError> {
        let bytes = self.bytes;
        if self.peek() == Some(b'"') {
            let start = self.pos + 1;
            let span = bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .map(|len| start + len);
            if let Some(end) = span.filter(|&end| bytes[end] == b'"') {
                if let Some(key) = self.slice(start, end) {
                    self.pos = end + 1;
                    return Ok(Cow::Borrowed(key));
                }
            }
        }
        self.string().map(Cow::Owned)
    }

    /// The input from `start` to `end` as text; `None` when it is not UTF-8.
    fn slice(&self, start: usize, end: usize) -> Option<&'a str> {
        match self.text {
            Some(text) => text.get(start..end),
            None => std::str::from_utf8(&self.bytes[start..end]).ok(),
        }
    }

    /// Skips trailing whitespace and requires the end of the input.
    fn end(&mut self) -> Result<(), WireError> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::Syntax {
                at: self.pos,
                expected: "end of input",
            })
        }
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.eat(b'"', "'\"' to open a string")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => {
                    return Err(WireError::Syntax {
                        at: self.pos,
                        expected: "closing '\"'",
                    })
                }
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or(WireError::Syntax {
                        at: self.pos,
                        expected: "escape character",
                    })?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(WireError::Syntax {
                                            at: self.pos,
                                            expected: "a low surrogate",
                                        });
                                    }
                                    let combined =
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or(WireError::Syntax {
                                at: self.pos,
                                expected: "a valid unicode escape",
                            })?);
                        }
                        _ => {
                            return Err(WireError::Syntax {
                                at: self.pos - 1,
                                expected: "a valid escape character",
                            })
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(WireError::Syntax {
                        at: self.pos,
                        expected: "no raw control characters in strings",
                    })
                }
                Some(_) => {
                    // Consume the whole unescaped span in one UTF-8
                    // validation pass; invalid UTF-8 is a syntax error, not
                    // a panic.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    let span = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| {
                        WireError::Syntax {
                            at: start,
                            expected: "valid UTF-8 string content",
                        }
                    })?;
                    out.push_str(span);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, WireError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or(WireError::Syntax {
                at: self.pos,
                expected: "4 hex digits",
            })?;
            let digit = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => {
                    return Err(WireError::Syntax {
                        at: self.pos,
                        expected: "a hex digit",
                    })
                }
            };
            code = (code << 4) | digit as u32;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, WireError> {
        let bytes = self.bytes;
        let start = self.pos;
        let digits = |at: usize| {
            at + bytes[at..]
                .iter()
                .take_while(|b| b.is_ascii_digit())
                .count()
        };
        let negative = bytes.get(start) == Some(&b'-');
        self.pos = digits(start + usize::from(negative));
        let fraction = self.peek() == Some(b'.');
        if fraction {
            self.pos = digits(self.pos + 1);
        }
        let exponent = matches!(self.peek(), Some(b'e' | b'E'));
        if exponent {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.pos = digits(self.pos);
        }
        let integer_literal = !(negative || fraction || exponent);
        let text = self.slice(start, self.pos).expect("ASCII digits");
        // Nonnegative integer literals that fit a u64 stay exact; wider
        // integers (and everything signed / fractional / exponential)
        // take the f64 path, exactly as before.
        if integer_literal {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => Err(WireError::Syntax {
                at: start,
                expected: "a finite JSON number",
            }),
        }
    }
}

/// What parsing one value of a decide body yields.  The outer `Err` is a
/// syntax error, which ends the parse.  The inner one is a schema error,
/// which waits for the rest of the document, since a later syntax error
/// outranks it.
type Shaped<T> = Result<Result<T, WireError>, WireError>;

// The decide walks below parse containers at depths 0 to 3 without the
// depth check `Parser::value` makes; that check could not fail there.
const _: () = assert!(MAX_JSON_DEPTH >= 3);

/// The typed walks of the two decide bodies.  Each walk parses exactly the
/// bytes `Parser::value` would, with the same syntax errors at the same
/// offsets, and only the values it keeps skip the [`Json`] tree: numbers
/// go straight to their destination, and everything else is parsed with
/// `value` and dropped.
impl<'a> Parser<'a> {
    /// Parses one complete document, walking the members of a top-level
    /// object with `member`; any other top-level value has no members.
    fn members(
        bytes: &'a [u8],
        member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        let mut p = Parser::new(bytes);
        p.skip_ws();
        if p.peek() == Some(b'{') {
            p.each_member(member)?;
        } else {
            p.value(0)?;
        }
        p.end()
    }

    /// Parses the value at the cursor, at `depth`, as an array of numbers
    /// appended to `out`; the schema error names `field`.
    fn numbers(&mut self, depth: usize, field: &str, out: &mut Vec<f64>) -> Shaped<()> {
        if self.peek() != Some(b'[') {
            self.value(depth)?;
            return Ok(Err(WireError::Schema(format!(
                "\"{field}\" must be an array of numbers"
            ))));
        }
        let mut shape = Ok(());
        self.each_item(|p| {
            match p.value(depth + 1)?.as_f64() {
                Some(v) => out.push(v),
                None if shape.is_ok() => {
                    shape = Err(WireError::Schema(format!(
                        "\"{field}\" must contain only numbers"
                    )));
                }
                None => {}
            }
            Ok(())
        })?;
        Ok(shape)
    }

    /// Parses the value at the cursor as the batch of a `"states"` request,
    /// one arena row per state.  Every row is counted, so
    /// [`WireError::BatchTooLarge`] carries the full count, but rows past
    /// `max_batch` or after a malformed row are only parsed.
    fn state_rows(&mut self, max_batch: usize, arena: &mut StateArena) -> Shaped<()> {
        if self.peek() != Some(b'[') {
            self.value(1)?;
            return Ok(Err(WireError::Schema(
                "\"states\" must be an array of state vectors".to_string(),
            )));
        }
        let mut len = 0;
        let mut shape = Ok(());
        self.each_item(|p| {
            len += 1;
            if len <= max_batch && shape.is_ok() {
                shape = p.numbers(2, "states[i]", arena.push_row())?;
            } else {
                p.value(2)?;
            }
            Ok(())
        })?;
        if len > max_batch {
            return Ok(Err(WireError::BatchTooLarge {
                len,
                max: max_batch,
            }));
        }
        Ok(shape)
    }

    /// Parses the value at the cursor as the `"decisions"` array of a
    /// batched decide response.
    fn decisions(&mut self) -> Shaped<Vec<ShieldDecision>> {
        if self.peek() != Some(b'[') {
            self.value(1)?;
            return Ok(Err(no_decisions_array()));
        }
        let mut decoded = Ok(Vec::new());
        self.each_item(|p| {
            match &mut decoded {
                Ok(list) => match p.decision()? {
                    Ok(decision) => list.push(decision),
                    Err(error) => decoded = Err(error),
                },
                Err(_) => {
                    p.value(2)?;
                }
            }
            Ok(())
        })?;
        Ok(decoded)
    }

    /// Parses the value at the cursor as one decision,
    /// `{"action": [...], "intervened": bool}`.  A bad `"action"` outranks
    /// a bad `"intervened"` wherever each appears.
    fn decision(&mut self) -> Shaped<ShieldDecision> {
        let no_action = || WireError::Schema("decision without \"action\"".to_string());
        if self.peek() != Some(b'{') {
            self.value(2)?;
            return Ok(Err(no_action()));
        }
        let mut action = None;
        let mut intervened = None;
        self.each_member(|p, key| {
            match &*key {
                "action" if action.is_none() => {
                    let mut values = Vec::new();
                    action = Some(p.numbers(3, "action", &mut values)?.map(|()| values));
                }
                "intervened" if intervened.is_none() => intervened = Some(p.value(3)?),
                _ => {
                    p.value(3)?;
                }
            }
            Ok(())
        })?;
        Ok(match (action, intervened) {
            (None, _) => Err(no_action()),
            (Some(Err(error)), _) => Err(error),
            (Some(Ok(action)), Some(Json::Bool(intervened))) => {
                Ok(ShieldDecision { action, intervened })
            }
            (Some(Ok(_)), _) => Err(WireError::Schema(
                "decision without boolean \"intervened\"".to_string(),
            )),
        })
    }
}

fn no_decisions_array() -> WireError {
    WireError::Schema("response has no \"decisions\" array".to_string())
}

/// Decodes a `POST …/decide` body into `arena` (reset first), accepting
/// exactly one of `"state"` (a single state vector) or `"states"` (a batch
/// of state vectors).  Returns whether the request used the batched shape,
/// which controls the response framing.
///
/// The body is walked once and no [`Json`] value is built: each number
/// lands in its arena row as it is parsed, and the rows keep their
/// allocations across a connection's keep-alive requests.  The result is
/// the one a [`Json::parse`] of the body followed by a walk of the tree
/// would give: a syntax error anywhere outranks a schema error, the first
/// occurrence of a duplicate key wins, and other keys are parsed and
/// ignored.
///
/// # Errors
///
/// [`WireError::Syntax`] / [`WireError::TooDeep`] on malformed JSON,
/// [`WireError::Schema`] on a well-formed body of the wrong shape, and
/// [`WireError::BatchTooLarge`] when the batch exceeds `max_batch`.
pub fn decode_decide_request_into(
    body: &[u8],
    max_batch: usize,
    arena: &mut StateArena,
) -> Result<bool, WireError> {
    arena.reset();
    let mut single = None;
    let mut batch = None;
    Parser::members(body, |p, key| {
        match &*key {
            "state" if single.is_none() => {
                single = Some(p.numbers(1, "state", arena.push_row())?);
            }
            "states" if batch.is_none() => batch = Some(p.state_rows(max_batch, arena)?),
            _ => {
                p.value(1)?;
            }
        }
        Ok(())
    })?;
    match (single, batch) {
        (Some(_), Some(_)) => Err(WireError::Schema(
            "provide either \"state\" or \"states\", not both".to_string(),
        )),
        (Some(shape), None) => shape.map(|()| false),
        (None, Some(shape)) => shape.map(|()| true),
        (None, None) => Err(WireError::Schema(
            "body must contain \"state\" or \"states\"".to_string(),
        )),
    }
}

/// Encodes a decide response into `out` (cleared first, capacity kept).
/// Batched requests get `{"deployment", "count", "decisions": [...]}`;
/// single-state requests get `{"deployment", "decision": {...}}`, each
/// decision as `{"action": [...], "intervened": bool}`.  The bytes are
/// those [`Json::render`] gives for the same object; no [`Json`] value is
/// built.
///
/// # Panics
///
/// When `batched` is false and `decisions` is empty.
pub fn decide_response_into(
    deployment: &str,
    decisions: &[ShieldDecision],
    batched: bool,
    out: &mut Vec<u8>,
) {
    out.clear();
    // An empty buffer is valid UTF-8, so this reuses its allocation.
    let mut text = String::from_utf8(std::mem::take(out)).unwrap_or_default();
    text.push_str("{\"deployment\":");
    write_json_string(&mut text, deployment);
    if batched {
        let _ = write!(text, ",\"count\":{},\"decisions\":[", decisions.len());
        for (i, decision) in decisions.iter().enumerate() {
            if i > 0 {
                text.push(',');
            }
            write_decision(&mut text, decision);
        }
        text.push(']');
    } else {
        text.push_str(",\"decision\":");
        write_decision(&mut text, &decisions[0]);
    }
    text.push('}');
    *out = text.into_bytes();
}

fn write_decision(out: &mut String, decision: &ShieldDecision) {
    out.push_str("{\"action\":");
    write_f64_array(out, &decision.action);
    out.push_str(",\"intervened\":");
    out.push_str(if decision.intervened { "true" } else { "false" });
    out.push('}');
}

/// Encodes a telemetry response; latency percentiles travel as integer
/// nanoseconds (see the estimator contract documented on
/// [`DeploymentTelemetry`]).  Counters render through [`Json::U64`], so
/// they stay exact beyond 2^53.
pub fn telemetry_response(telemetry: &DeploymentTelemetry) -> String {
    Json::Obj(vec![
        (
            "deployment".to_string(),
            Json::Str(telemetry.deployment.clone()),
        ),
        ("generation".to_string(), Json::U64(telemetry.generation)),
        ("requests".to_string(), Json::U64(telemetry.requests)),
        ("decisions".to_string(), Json::U64(telemetry.decisions)),
        (
            "interventions".to_string(),
            Json::U64(telemetry.interventions),
        ),
        ("redeploys".to_string(), Json::U64(telemetry.redeploys)),
        (
            "intervention_rate".to_string(),
            Json::Num(telemetry.intervention_rate),
        ),
        (
            "p50_latency_ns".to_string(),
            Json::U64(telemetry.p50_latency.as_nanos().min(u64::MAX as u128) as u64),
        ),
        (
            "p99_latency_ns".to_string(),
            Json::U64(telemetry.p99_latency.as_nanos().min(u64::MAX as u128) as u64),
        ),
    ])
    .render()
}

/// Encodes the success response of an artifact `PUT`: the generation now
/// serving plus the artifact's display metadata.
pub fn deployed_response(deployment: &str, generation: u64, meta: &ArtifactMetadata) -> String {
    Json::Obj(vec![
        ("deployment".to_string(), Json::Str(deployment.to_string())),
        ("generation".to_string(), Json::U64(generation)),
        (
            "environment".to_string(),
            Json::Str(meta.environment.clone()),
        ),
        ("state_dim".to_string(), Json::U64(meta.state_dim as u64)),
        ("action_dim".to_string(), Json::U64(meta.action_dim as u64)),
        ("pieces".to_string(), Json::U64(meta.pieces as u64)),
        (
            "oracle_parameters".to_string(),
            Json::U64(meta.oracle_parameters as u64),
        ),
        ("label".to_string(), Json::Str(meta.label.clone())),
    ])
    .render()
}

/// Encodes the `GET /healthz` response: overall status, whole seconds
/// since the process trace epoch, and one `{"name", "generation"}`
/// object per deployment (sorted by name server-side).
pub fn health_response(deployments: &[(String, u64)], uptime_seconds: u64) -> String {
    Json::Obj(vec![
        ("status".to_string(), Json::Str("ok".to_string())),
        ("uptime_seconds".to_string(), Json::U64(uptime_seconds)),
        (
            "deployments".to_string(),
            Json::Arr(
                deployments
                    .iter()
                    .map(|(name, generation)| {
                        Json::Obj(vec![
                            ("name".to_string(), Json::Str(name.clone())),
                            ("generation".to_string(), Json::U64(*generation)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

/// Encodes the success response of a deployment `DELETE`:
/// `{"deployment", "undeployed": true}`.
pub fn undeployed_response(deployment: &str) -> String {
    Json::Obj(vec![
        ("deployment".to_string(), Json::Str(deployment.to_string())),
        ("undeployed".to_string(), Json::Bool(true)),
    ])
    .render()
}

/// Encodes a batched decide request (`{"states": [[...], ...]}`) into
/// `out`, cleared first so its capacity is reused: the client half of
/// [`decode_decide_request_into`].  Each coordinate renders with
/// shortest-round-trip precision, so the shard evaluates exactly the bits
/// the client held.
pub fn decide_batch_request_into(states: &[Vec<f64>], out: &mut String) {
    out.clear();
    out.push_str("{\"states\":[");
    for (i, state) in states.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_f64_array(out, state);
    }
    out.push_str("]}");
}

/// [`decide_batch_request_into`] into a fresh `String`.
#[must_use]
pub fn decide_batch_request(states: &[Vec<f64>]) -> String {
    let mut out = String::new();
    decide_batch_request_into(states, &mut out);
    out
}

/// Decodes a **batched** decide response (`{"decisions": [...]}`) back into
/// shield decisions.  This is the client half of [`decide_response_into`]: the
/// shortest-round-trip `f64` rendering guarantees every action coordinate
/// parses back to the identical bit pattern, so a decision that crosses the
/// wire twice (shard → router → client) is still bit-exact.
///
/// Like [`decode_decide_request_into`], it walks the body once without
/// building a [`Json`] value; each decision's action is the only
/// allocation it keeps.  Errors rank as in a walk of the parsed tree.
///
/// # Errors
///
/// [`WireError::Syntax`] / [`WireError::TooDeep`] on malformed JSON,
/// [`WireError::Schema`] when the body is not a batched decide response.
pub fn decode_decide_response(body: &[u8]) -> Result<Vec<ShieldDecision>, WireError> {
    let mut decisions = None;
    Parser::members(body, |p, key| {
        if key == "decisions" && decisions.is_none() {
            decisions = Some(p.decisions()?);
        } else {
            p.value(1)?;
        }
        Ok(())
    })?;
    decisions.unwrap_or_else(|| Err(no_decisions_array()))
}

/// Decodes the generation from an artifact-`PUT` success response.
///
/// # Errors
///
/// [`WireError::Syntax`] / [`WireError::Schema`] as [`decode_decide_response`].
pub fn decode_deployed_response(body: &[u8]) -> Result<u64, WireError> {
    Json::parse(body)?
        .get("generation")
        .and_then(Json::as_u64)
        .ok_or_else(|| WireError::Schema("response has no \"generation\"".to_string()))
}

/// Decodes a telemetry response back into a [`DeploymentTelemetry`] — the
/// client half of [`telemetry_response`].  Counters travel as exact `u64`
/// digits and percentiles as integer nanoseconds, so the decoded snapshot
/// equals the shard's own.
///
/// # Errors
///
/// [`WireError::Syntax`] / [`WireError::Schema`] as [`decode_decide_response`].
pub fn decode_telemetry_response(body: &[u8]) -> Result<DeploymentTelemetry, WireError> {
    let json = Json::parse(body)?;
    let field_u64 = |key: &str| -> Result<u64, WireError> {
        json.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| WireError::Schema(format!("telemetry has no integer \"{key}\"")))
    };
    let deployment = match json.get("deployment") {
        Some(Json::Str(name)) => name.clone(),
        _ => {
            return Err(WireError::Schema(
                "telemetry has no \"deployment\"".to_string(),
            ))
        }
    };
    let intervention_rate = json
        .get("intervention_rate")
        .and_then(Json::as_f64)
        .ok_or_else(|| WireError::Schema("telemetry has no \"intervention_rate\"".to_string()))?;
    Ok(DeploymentTelemetry {
        deployment,
        generation: field_u64("generation")?,
        requests: field_u64("requests")?,
        decisions: field_u64("decisions")?,
        interventions: field_u64("interventions")?,
        redeploys: field_u64("redeploys")?,
        intervention_rate,
        p50_latency: std::time::Duration::from_nanos(field_u64("p50_latency_ns")?),
        p99_latency: std::time::Duration::from_nanos(field_u64("p99_latency_ns")?),
    })
}

/// Decodes a `GET /healthz` response into
/// `(uptime_seconds, [(deployment, generation)])` — the client half of
/// [`health_response`], used by the fleet health prober.
///
/// # Errors
///
/// [`WireError::Syntax`] / [`WireError::Schema`] as [`decode_decide_response`].
pub fn decode_health_response(body: &[u8]) -> Result<(u64, Vec<(String, u64)>), WireError> {
    let json = Json::parse(body)?;
    let uptime = json
        .get("uptime_seconds")
        .and_then(Json::as_u64)
        .ok_or_else(|| WireError::Schema("healthz has no \"uptime_seconds\"".to_string()))?;
    let Some(Json::Arr(rows)) = json.get("deployments") else {
        return Err(WireError::Schema(
            "healthz has no \"deployments\" array".to_string(),
        ));
    };
    let deployments = rows
        .iter()
        .map(|row| {
            let name = match row.get("name") {
                Some(Json::Str(name)) => name.clone(),
                _ => {
                    return Err(WireError::Schema(
                        "healthz deployment without \"name\"".to_string(),
                    ))
                }
            };
            let generation = row
                .get("generation")
                .and_then(Json::as_u64)
                .ok_or_else(|| {
                    WireError::Schema("healthz deployment without \"generation\"".to_string())
                })?;
            Ok((name, generation))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((uptime, deployments))
}

/// Decodes a structured error envelope into `(status, code, message)`;
/// `None` when the body is not an [`error_body`]-shaped envelope (e.g. a
/// shard returning garbage).
pub fn decode_error_body(body: &[u8]) -> Option<(u16, String, String)> {
    let json = Json::parse(body).ok()?;
    let error = json.get("error")?;
    let status = error.get("status").and_then(Json::as_u64)?;
    let code = match error.get("code") {
        Some(Json::Str(code)) => code.clone(),
        _ => return None,
    };
    let message = match error.get("message") {
        Some(Json::Str(message)) => message.clone(),
        _ => return None,
    };
    Some((u16::try_from(status).ok()?, code, message))
}

/// Encodes the structured error body every non-2xx response carries:
/// `{"error": {"status", "code", "message", "request_id"}}`.  The
/// request id is the one echoed in the `X-Request-Id` response header,
/// so a failing call can be correlated with its trace spans.
pub fn error_body(status: u16, code: &str, message: &str, request_id: &str) -> String {
    Json::Obj(vec![(
        "error".to_string(),
        Json::Obj(vec![
            ("status".to_string(), Json::U64(status as u64)),
            ("code".to_string(), Json::Str(code.to_string())),
            ("message".to_string(), Json::Str(message.to_string())),
            ("request_id".to_string(), Json::Str(request_id.to_string())),
        ]),
    )])
    .render()
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip() {
        let source = br#"{"a": [1, -2.5, 1e-3], "b": "x\n\"y\"", "c": true, "d": null, "e": {}}"#;
        let parsed = Json::parse(source).unwrap();
        assert_eq!(
            parsed.get("a"),
            Some(&Json::Arr(vec![
                Json::U64(1),
                Json::Num(-2.5),
                Json::Num(1e-3)
            ]))
        );
        assert_eq!(parsed.get("b"), Some(&Json::Str("x\n\"y\"".to_string())));
        let rendered = parsed.render();
        assert_eq!(Json::parse(rendered.as_bytes()).unwrap(), parsed);
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        for v in [
            0.1,
            -1.0 / 3.0,
            f64::MIN_POSITIVE,
            1.7976931348623157e308,
            -0.0,
            2.2250738585072014e-308,
            123456.78901234567,
        ] {
            let rendered = Json::Num(v).render();
            match Json::parse(rendered.as_bytes()).unwrap() {
                Json::Num(back) => assert_eq!(back.to_bits(), v.to_bits(), "{v} via {rendered}"),
                other => panic!("expected a number, got {other:?}"),
            }
        }
    }

    #[test]
    fn u64_counters_round_trip_beyond_2_53() {
        // 2^53 + 1 is the first integer an f64 cannot represent: the old
        // f64-only path rendered it as 9007199254740992.  The U64 path
        // must keep every digit, all the way to u64::MAX.
        for v in [9_007_199_254_740_993u64, u64::MAX - 1, u64::MAX] {
            let rendered = Json::U64(v).render();
            assert_eq!(rendered, v.to_string(), "exact digits");
            match Json::parse(rendered.as_bytes()).unwrap() {
                Json::U64(back) => assert_eq!(back, v),
                other => panic!("expected U64, got {other:?}"),
            }
        }
        // Integer literals wider than u64 still parse (as f64), and the
        // numeric accessors agree across both flavours.
        let wide = Json::parse(b"18446744073709551616").unwrap(); // 2^64
        assert!(matches!(wide, Json::Num(_)));
        assert_eq!(Json::U64(3).as_f64(), Some(3.0));
        assert_eq!(Json::U64(3).as_u64(), Some(3));
        assert_eq!(Json::Num(3.0).as_u64(), Some(3));
        assert_eq!(Json::Num(3.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Str("3".into()).as_f64(), None);
        // "-0" keeps its sign bit through the f64 path.
        assert!(
            matches!(Json::parse(b"-0").unwrap(), Json::Num(v) if v.to_bits() == (-0.0f64).to_bits())
        );
    }

    #[test]
    fn unicode_escapes_decode() {
        let parsed = Json::parse(br#""\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(parsed, Json::Str("é😀".to_string()));
        assert!(Json::parse(br#""\ud83d""#).is_err(), "lone high surrogate");
    }

    #[test]
    fn object_keys_decode_as_string_values_do() {
        // Keys without escapes are borrowed from the input and the rest go
        // through `string`: either way a key reads, or fails, exactly as the
        // same bytes do as a string value.
        let keys: &[&[u8]] = &[
            b"\"plain\"",
            b"\"\"",
            b"\"st\\u0061te\"",
            b"\"a\\\"b\\\\c\\/\"",
            b"\"\xc3\xa9\\ud83d\\ude00\"",
            b"\"\\ud83d\"",
            b"\"\\q\"",
            b"\"\xff\"",
            b"\"a\x01\"",
            b"\"unterminated",
            b"\"escape at end\\",
        ];
        for key in keys {
            let object = Json::parse(&[b"{", *key, b":1}"].concat());
            let array = Json::parse(&[b"[", *key, b",1]"].concat());
            let text = String::from_utf8_lossy(key);
            match (object, array) {
                (Ok(Json::Obj(pairs)), Ok(Json::Arr(items))) => {
                    assert_eq!(Json::Str(pairs[0].0.clone()), items[0], "{text}");
                }
                (object, array) => assert_eq!(object, array, "{text}"),
            }
        }
    }

    #[test]
    fn malformed_inputs_error_without_panicking() {
        let cases: &[&[u8]] = &[
            b"",
            b"{",
            b"}",
            b"[1,]",
            b"{\"a\":}",
            b"{\"a\" 1}",
            b"nul",
            b"\"unterminated",
            b"1e999",
            b"NaN",
            b"Infinity",
            b"{\"a\":1}garbage",
            b"\x00",
            b"\"\xff\xfe\"",
            b"[\"\\q\"]",
        ];
        for case in cases {
            assert!(Json::parse(case).is_err(), "{case:?} must not parse");
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let mut deep = Vec::new();
        deep.extend(std::iter::repeat_n(b'[', MAX_JSON_DEPTH + 2));
        deep.extend(std::iter::repeat_n(b']', MAX_JSON_DEPTH + 2));
        assert_eq!(
            Json::parse(&deep),
            Err(WireError::TooDeep {
                at: MAX_JSON_DEPTH + 1
            })
        );
        let mut ok = Vec::new();
        ok.extend(std::iter::repeat_n(b'[', MAX_JSON_DEPTH));
        ok.extend(std::iter::repeat_n(b']', MAX_JSON_DEPTH));
        assert!(Json::parse(&ok).is_ok());
    }

    /// [`decode_decide_request_into`] on a fresh arena, as owned rows.
    fn decode_request(body: &[u8], max_batch: usize) -> Result<(Vec<Vec<f64>>, bool), WireError> {
        let mut arena = StateArena::new();
        let batched = decode_decide_request_into(body, max_batch, &mut arena)?;
        Ok((arena.rows().to_vec(), batched))
    }

    #[test]
    fn decide_requests_decode_both_shapes() {
        let single = decode_request(br#"{"state": [0.25, -0.5]}"#, 16).unwrap();
        assert_eq!(single, (vec![vec![0.25, -0.5]], false));
        let batch = decode_request(br#"{"states": [[1], [2], [3]]}"#, 16).unwrap();
        assert_eq!(batch, (vec![vec![1.0], vec![2.0], vec![3.0]], true));
        let empty = decode_request(br#"{"states": []}"#, 16).unwrap();
        assert!(empty.0.is_empty());
    }

    #[test]
    fn decide_request_schema_violations_are_schema_errors() {
        let cases: &[&[u8]] = &[
            b"{}",
            b"[1,2]",
            b"{\"state\": 1}",
            b"{\"state\": [\"x\"]}",
            b"{\"states\": [[1], 2]}",
            b"{\"states\": {\"a\": 1}}",
            b"{\"state\": [1], \"states\": [[1]]}",
        ];
        for case in cases {
            assert!(
                matches!(decode_request(case, 16), Err(WireError::Schema(_))),
                "{} must be a schema error",
                String::from_utf8_lossy(case)
            );
        }
    }

    #[test]
    fn oversized_batches_are_rejected() {
        let body = format!(
            "{{\"states\": [{}]}}",
            std::iter::repeat_n("[0]", 9).collect::<Vec<_>>().join(",")
        );
        assert_eq!(
            decode_request(body.as_bytes(), 8),
            Err(WireError::BatchTooLarge { len: 9, max: 8 })
        );
        assert!(decode_request(body.as_bytes(), 9).is_ok());
    }

    #[test]
    fn truncations_and_mutations_never_panic() {
        // Mirrors the artifact-codec fuzz corpus style: every truncation
        // length and a byte-flip sweep of a valid request must yield clean
        // errors or clean parses, never a panic.
        let valid = br#"{"states": [[0.1, -2.5e-3], [1, 2]], "tag": "x\u00e9"}"#;
        for len in 0..valid.len() {
            let _ = decode_request(&valid[..len], 64);
        }
        for i in 0..valid.len() {
            let mut mutated = valid.to_vec();
            mutated[i] ^= 0x15;
            let _ = decode_request(&mutated, 64);
            mutated[i] = 0xFF;
            let _ = decode_request(&mutated, 64);
        }
    }

    #[test]
    fn batch_requests_reach_the_server_decoder_bit_exactly() {
        // Shard-to-shard decides travel as `decide_batch_request` bodies, so
        // the client encoder and the server decoder must agree on every bit.
        let states = vec![
            vec![0.1, -1.0 / 3.0, -0.0],
            vec![f64::MIN_POSITIVE, 5e-324, -5e-324],
            vec![f64::MAX, f64::MIN, 1e22],
            vec![],
            vec![123456.78901234567, 4_503_599_627_370_497.0, 1e-300],
        ];
        let body = decide_batch_request(&states);
        let (decoded, batched) = decode_request(body.as_bytes(), states.len()).unwrap();
        assert!(batched);
        assert_eq!(decoded.len(), states.len());
        for (sent, got) in states.iter().zip(decoded.iter()) {
            let sent: Vec<u64> = sent.iter().map(|v| v.to_bits()).collect();
            let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(sent, got, "via {body}");
        }
        // An empty batch is a valid (empty) request.
        let empty = decode_request(decide_batch_request(&[]).as_bytes(), 0).unwrap();
        assert!(empty.1 && empty.0.is_empty());
        // The reusing encoder writes the same bytes over a dirty buffer.
        let mut reused = String::from("stale");
        decide_batch_request_into(&states, &mut reused);
        assert_eq!(reused, body);
    }

    #[test]
    fn non_finite_states_cannot_cross_the_wire() {
        // JSON has no spelling for NaN or ±inf: the encoder writes `null`,
        // which the server decoder refuses as a schema error.  Callers that
        // hold a non-finite state must refuse it before encoding.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let body = decide_batch_request(&[vec![0.5, bad]]);
            assert_eq!(body, "{\"states\":[[0.5,null]]}");
            assert!(
                matches!(
                    decode_request(body.as_bytes(), 8),
                    Err(WireError::Schema(_))
                ),
                "{bad} must not decode as a state"
            );
        }
    }

    #[test]
    fn every_strict_prefix_of_a_decide_response_is_an_error() {
        // A response cut short in transit must fail to decode rather than
        // yield fewer (or shorter) decisions than the shard sent.
        let decisions = vec![
            ShieldDecision {
                action: vec![0.5, -1.25e-7],
                intervened: true,
            },
            ShieldDecision {
                action: vec![-0.0, 3.0],
                intervened: false,
            },
        ];
        let mut body = Vec::new();
        decide_response_into("pendulum", &decisions, true, &mut body);
        assert_eq!(decode_decide_response(&body).unwrap(), decisions);
        for len in 0..body.len() {
            assert!(
                decode_decide_response(&body[..len]).is_err(),
                "prefix of {len} bytes decoded: {}",
                String::from_utf8_lossy(&body[..len])
            );
        }
    }

    #[test]
    fn error_body_is_well_formed() {
        let body = error_body(
            422,
            "checksum_mismatch",
            "artifact payload corrupted: \"x\"",
            "req-0000000000000001-abcd",
        );
        let parsed = Json::parse(body.as_bytes()).unwrap();
        let error = parsed.get("error").unwrap();
        assert_eq!(error.get("status"), Some(&Json::U64(422)));
        assert_eq!(
            error.get("code"),
            Some(&Json::Str("checksum_mismatch".to_string()))
        );
        assert_eq!(
            error.get("request_id"),
            Some(&Json::Str("req-0000000000000001-abcd".to_string()))
        );
    }

    #[test]
    fn responses_decode_back_to_their_sources() {
        // decide: encode → decode is bit-exact on awkward f64s.
        let decisions = vec![
            ShieldDecision {
                action: vec![0.1, -1.0 / 3.0, -0.0, 2.0],
                intervened: true,
            },
            ShieldDecision {
                action: vec![f64::MIN_POSITIVE, 1.7976931348623157e308],
                intervened: false,
            },
        ];
        let mut body = Vec::new();
        decide_response_into("d", &decisions, true, &mut body);
        let back = decode_decide_response(&body).unwrap();
        assert_eq!(back.len(), decisions.len());
        for (a, b) in back.iter().zip(decisions.iter()) {
            assert_eq!(a.intervened, b.intervened);
            for (x, y) in a.action.iter().zip(b.action.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // Single-shape and malformed bodies are schema errors, not panics.
        decide_response_into("d", &decisions, false, &mut body);
        assert!(decode_decide_response(&body).is_err());
        assert!(decode_decide_response(b"{}").is_err());
        assert!(decode_decide_response(b"garbage").is_err());

        // telemetry round-trips exactly (u64 counters, ns percentiles).
        let telemetry = DeploymentTelemetry {
            deployment: "pendulum".to_string(),
            generation: 3,
            requests: 9_007_199_254_740_993, // > 2^53: must stay exact
            decisions: 42,
            interventions: 7,
            redeploys: 2,
            intervention_rate: 7.0 / 42.0,
            p50_latency: std::time::Duration::from_nanos(12_345),
            p99_latency: std::time::Duration::from_nanos(98_765),
        };
        let body = telemetry_response(&telemetry);
        assert_eq!(
            decode_telemetry_response(body.as_bytes()).unwrap(),
            telemetry
        );
        assert!(decode_telemetry_response(b"{}").is_err());

        // healthz round-trips.
        let body = health_response(&[("a".to_string(), 1), ("b".to_string(), 5)], 99);
        let (uptime, deployments) = decode_health_response(body.as_bytes()).unwrap();
        assert_eq!(uptime, 99);
        assert_eq!(
            deployments,
            vec![("a".to_string(), 1), ("b".to_string(), 5)]
        );

        // PUT success and DELETE success decode.
        let meta = ArtifactMetadata {
            environment: "toy".to_string(),
            state_dim: 1,
            action_dim: 1,
            pieces: 1,
            oracle_parameters: 10,
            label: String::new(),
        };
        let body = deployed_response("toy", 4, &meta);
        assert_eq!(decode_deployed_response(body.as_bytes()).unwrap(), 4);
        let body = undeployed_response("toy");
        let json = Json::parse(body.as_bytes()).unwrap();
        assert_eq!(json.get("undeployed"), Some(&Json::Bool(true)));

        // Error envelopes decode to (status, code, message).
        let body = error_body(503, "unavailable", "both replicas down", "req-1");
        assert_eq!(
            decode_error_body(body.as_bytes()),
            Some((
                503,
                "unavailable".to_string(),
                "both replicas down".to_string()
            ))
        );
        assert_eq!(decode_error_body(b"not json"), None);
        assert_eq!(decode_error_body(b"{\"error\": 1}"), None);
    }

    /// The decide response as the `Json` DOM renders it: the reference the
    /// direct encoder must match byte for byte.
    fn dom_decide_response(
        deployment: &str,
        decisions: &[ShieldDecision],
        batched: bool,
    ) -> String {
        let decision = |d: &ShieldDecision| {
            Json::Obj(vec![
                (
                    "action".to_string(),
                    Json::Arr(d.action.iter().map(|&v| Json::Num(v)).collect()),
                ),
                ("intervened".to_string(), Json::Bool(d.intervened)),
            ])
        };
        let name = ("deployment".to_string(), Json::Str(deployment.to_string()));
        let json = if batched {
            Json::Obj(vec![
                name,
                ("count".to_string(), Json::U64(decisions.len() as u64)),
                (
                    "decisions".to_string(),
                    Json::Arr(decisions.iter().map(decision).collect()),
                ),
            ])
        } else {
            Json::Obj(vec![
                name,
                ("decision".to_string(), decision(&decisions[0])),
            ])
        };
        json.render()
    }

    #[test]
    fn direct_decide_encoder_matches_the_dom_rendering() {
        let values = [-0.0, 5e-324, 1e300, -1e-7, 2.0];
        // One reused buffer across every case, as on a connection.
        let mut out = Vec::new();
        for deployment in ["pendulum", "a\"b\\c\u{1}"] {
            for dim in 1..=4 {
                for count in [1, 2, 5] {
                    let decisions: Vec<ShieldDecision> = (0..count)
                        .map(|i| ShieldDecision {
                            action: (0..dim).map(|j| values[(i + j) % values.len()]).collect(),
                            intervened: i % 2 == 0,
                        })
                        .collect();
                    for batched in [false, true] {
                        decide_response_into(deployment, &decisions, batched, &mut out);
                        assert_eq!(
                            String::from_utf8(out.clone()).unwrap(),
                            dom_decide_response(deployment, &decisions, batched),
                            "{deployment:?} dim {dim} count {count} batched {batched}"
                        );
                    }
                    // The batched bytes decode back bit-exactly.
                    decide_response_into(deployment, &decisions, true, &mut out);
                    let back = decode_decide_response(&out).unwrap();
                    assert_eq!(back.len(), decisions.len());
                    for (a, b) in back.iter().zip(&decisions) {
                        assert_eq!(a.intervened, b.intervened);
                        let bits = |d: &ShieldDecision| {
                            d.action.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                        };
                        assert_eq!(bits(a), bits(b));
                    }
                }
            }
        }
        // An empty batch renders the same way too.
        decide_response_into("d", &[], true, &mut out);
        assert_eq!(out, dom_decide_response("d", &[], true).into_bytes());
        assert!(decode_decide_response(&out).unwrap().is_empty());
    }

    #[test]
    fn health_response_carries_generations_and_uptime() {
        let body = health_response(&[("pendulum".to_string(), 3)], 42);
        let parsed = Json::parse(body.as_bytes()).unwrap();
        assert_eq!(parsed.get("status"), Some(&Json::Str("ok".to_string())));
        assert_eq!(parsed.get("uptime_seconds"), Some(&Json::U64(42)));
        let Some(Json::Arr(deployments)) = parsed.get("deployments") else {
            panic!("deployments must be an array");
        };
        assert_eq!(
            deployments[0].get("name"),
            Some(&Json::Str("pendulum".to_string()))
        );
        assert_eq!(deployments[0].get("generation"), Some(&Json::U64(3)));
    }
}
