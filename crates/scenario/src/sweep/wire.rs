//! The distributed-sweep wire format: line-framed JSON and the codec that
//! carries point results across the process boundary — any boundary:
//! stdin/stdout pipes ([`dist`](super::dist)) and TCP sockets
//! ([`net`](super::net)) speak the same frames.
//!
//! A [`DistRunner`](super::dist::DistRunner) parent and its
//! `--sweep-worker` children exchange **one JSON document per line**:
//!
//! * parent → worker: a [`PointRequest`] —
//!   `{"point":3,"axes":[["load","1.0"],["discipline","WFQ"]]}`.
//!   The worker rebuilds the same [`ScenarioSet`](super::ScenarioSet) from
//!   its own command line, so the request carries only the point's index;
//!   the axis tags ride along so the worker can *verify* both sides built
//!   the same sweep before running anything.  The parent may batch
//!   several requests into one line — `{"batch":[{"point":3,…},
//!   {"point":4,…}]}` — which the worker answers point by point, in
//!   order, exactly as if the requests had arrived on separate lines.
//!   Batching amortizes per-point round-trips on high-latency links.
//! * worker → parent: a [`WorkerFrame`] — a `{"hello":{"protocol":3,
//!   "points":8}}` handshake on startup, then per point a
//!   `{"point":3,"telemetry":{"wall_s":1.25}}` stats frame followed by
//!   either `{"point":3,"report":<body>}` (the result encoded through
//!   [`WireResult`]) or `{"point":3,"error":"<panic payload>"}` when the
//!   point's closure panicked inside the worker.  Telemetry frames carry
//!   only out-of-band wall-clock data: they never touch the result stream,
//!   so a distributed run's decoded results stay byte-identical to an
//!   in-process run's.
//!
//! # Framing contract
//!
//! A frame is one JSON document followed by a line terminator.  Writers
//! emit `\n`; readers MUST accept both `\n` and `\r\n` (and, equivalently,
//! strip any trailing `\r` from a line before parsing), so a socket peer
//! on a platform that writes CRLF cannot poison points with a
//! trailing-`\r` parse error.  Both sides of this tolerance are already
//! in place end to end: line readers strip `['\n', '\r']` suffixes, and
//! [`JsonValue::parse`] itself treats `\r` as insignificant whitespace.
//! Blank lines (after stripping) are ignored by the worker.  A JSON
//! document never spans lines and never *contains* a raw newline:
//! [`write_str`] encodes `\n` and `\r` inside strings as escapes, which
//! the property tests pin.
//!
//! Everything is hand-rolled (this workspace builds offline, no serde),
//! and all of it is here: this module is the only one that knows how a
//! result becomes JSON and comes back.  Outbound, [`ObjectWriter`] and
//! [`write_str`] (and their array sibling) produce every brace, comma and
//! escape into one buffer; inbound, the small recursive-descent
//! [`JsonValue`] parser.  The codec is pinned by property tests: arbitrary axis tags —
//! quotes, newlines, control characters, non-ASCII — and arbitrary error
//! payloads round-trip losslessly.
//!
//! # One field list per record
//!
//! A record's field names are written once: [`wire_record!`](crate::wire_record)
//! takes the list and yields both directions of [`WireResult`].  Every
//! section of a [`ScenarioReport`](crate::ScenarioReport), both frame
//! bodies below and every experiment row are declared that way, so adding
//! a result type is one `wire_record!` line beside the struct.
//!
//! # Float fidelity
//!
//! Byte-identity between an in-process and a distributed run hinges on
//! `f64` round-trips: results are encoded with `{:?}` (Rust's shortest
//! representation that parses back to the same bits) and decoded with
//! `str::parse::<f64>` (correctly rounded), so every finite value crosses
//! the pipe exactly.  Non-finite values serialize as `null`, decoding to
//! NaN; the parser in turn refuses a literal that is not a JSON-grammar
//! number or that overflows to infinity (`1e999`), so no frame can hand a
//! reader a value the writer could not have sent.

use std::fmt::{self, Write as _};

/// The wire protocol revision announced in the worker's hello frame.
/// Parent and worker are always the same build — the worker is the
/// parent's own binary re-invoked, or the same binary started with
/// `--serve` — so the parent accepts exactly this revision and refuses
/// any other hello as a configuration mismatch instead of negotiating a
/// dialect.
pub const PROTOCOL_VERSION: u64 = 3;

/// A malformed or schema-violating wire document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What was wrong with the document.
    pub detail: String,
}

impl WireError {
    /// A wire error with the given description.
    pub fn new(detail: impl Into<String>) -> Self {
        WireError {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire error: {}", self.detail)
    }
}

impl std::error::Error for WireError {}

/// A parsed JSON document.  Numbers keep their **raw literal text** so
/// integer results (packet counts, drop totals) round-trip exactly even
/// beyond 2^53; accessors parse on demand.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as the raw literal text from the document.
    Number(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in document order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parse one JSON document (the whole input must be consumed).
    pub fn parse(text: &str) -> Result<JsonValue, WireError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(WireError::new(format!(
                "trailing bytes after JSON document at offset {}",
                p.pos
            )));
        }
        Ok(value)
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object member lookup that errors with the missing key's name.
    pub fn field(&self, key: &str) -> Result<&JsonValue, WireError> {
        self.get(key)
            .ok_or_else(|| WireError::new(format!("missing object field {key:?}")))
    }

    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// The string value.
    pub fn as_str(&self) -> Result<&str, WireError> {
        match self {
            JsonValue::Str(s) => Ok(s),
            other => Err(WireError::new(format!("expected string, got {other:?}"))),
        }
    }

    /// The boolean value.
    pub fn as_bool(&self) -> Result<bool, WireError> {
        match self {
            JsonValue::Bool(b) => Ok(*b),
            other => Err(WireError::new(format!("expected bool, got {other:?}"))),
        }
    }

    /// The array elements.
    pub fn as_array(&self) -> Result<&[JsonValue], WireError> {
        match self {
            JsonValue::Array(items) => Ok(items),
            other => Err(WireError::new(format!("expected array, got {other:?}"))),
        }
    }

    /// The number as `f64`.  (`f64`'s [`WireResult`] decoder also takes
    /// `null`, as NaN: what the writer sends for a non-finite value.)
    pub fn as_f64(&self) -> Result<f64, WireError> {
        match self {
            JsonValue::Number(raw) => raw
                .parse::<f64>()
                .map_err(|e| WireError::new(format!("bad number literal {raw:?}: {e}"))),
            other => Err(WireError::new(format!("expected number, got {other:?}"))),
        }
    }

    /// The number as `u64` (exact: parsed from the raw literal).
    pub fn as_u64(&self) -> Result<u64, WireError> {
        match self {
            JsonValue::Number(raw) => raw
                .parse::<u64>()
                .map_err(|e| WireError::new(format!("bad u64 literal {raw:?}: {e}"))),
            other => Err(WireError::new(format!("expected integer, got {other:?}"))),
        }
    }
}

/// Recursive-descent JSON parser over the document's bytes.  String
/// contents are collected byte-wise (escapes are the only places we split,
/// and they are ASCII), so UTF-8 passes through untouched.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Current container-nesting depth, bounded by [`MAX_DEPTH`] so a
    /// hostile frame of thousands of `[`s errors out instead of blowing
    /// the supervising thread's stack (the parser is recursive).
    depth: usize,
}

/// Maximum container nesting [`JsonValue::parse`] accepts.  Every
/// legitimate wire document nests a handful of levels; a frame deeper
/// than this is garbage and must fail as a parse error, not a stack
/// overflow that would abort the whole parent process.
const MAX_DEPTH: usize = 128;

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), WireError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(WireError::new(format!(
                "expected {:?} at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, WireError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(WireError::new(format!(
                "expected {word:?} at offset {}",
                self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<JsonValue, WireError> {
        match self.peek() {
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(WireError::new(format!(
                "unexpected byte {:?} at offset {}",
                b as char, self.pos
            ))),
            None => Err(WireError::new("unexpected end of document")),
        }
    }

    /// Run one container parser with the depth bound enforced.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, WireError>,
    ) -> Result<JsonValue, WireError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(WireError::new(format!(
                "nesting deeper than {MAX_DEPTH} levels at offset {}",
                self.pos
            )));
        }
        let value = container(self)?;
        self.depth -= 1;
        Ok(value)
    }

    /// The comma-separated items of a container, from its opening bracket
    /// (where `self.pos` stands) through `close`, each parsed by `item`.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    return Err(WireError::new(format!(
                        "expected ',' or {:?} at offset {}",
                        close as char, self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, WireError> {
        let mut members = Vec::new();
        self.items(b'}', |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            members.push((key, p.value()?));
            Ok(())
        })?;
        Ok(JsonValue::Object(members))
    }

    fn array(&mut self) -> Result<JsonValue, WireError> {
        let mut items = Vec::new();
        self.items(b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(JsonValue::Array(items))
    }

    /// One number of the JSON grammar, `-?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)?`,
    /// and a finite one: `1e999` fits the grammar but parses to `+inf`,
    /// which the writer never emits (non-finite values travel as `null`),
    /// and `str::parse::<f64>` alone would also wave `1.` and `-.5` through.
    fn number(&mut self) -> Result<JsonValue, WireError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let integer = self.pos;
        let mut well_formed = match self.digits() {
            0 => false,
            1 => true,
            _ => self.bytes[integer] != b'0',
        };
        if self.peek() == Some(b'.') {
            self.pos += 1;
            well_formed &= self.digits() > 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            well_formed &= self.digits() > 0;
        }
        let raw =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number literals are ASCII");
        if well_formed && raw.parse::<f64>().is_ok_and(f64::is_finite) {
            Ok(JsonValue::Number(raw.to_string()))
        } else {
            Err(WireError::new(format!(
                "bad number literal {raw:?} at offset {start}"
            )))
        }
    }

    /// Skip a run of ASCII digits and return how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.expect(b'"')?;
        let mut out: Vec<u8> = Vec::new();
        loop {
            match self.peek() {
                None => return Err(WireError::new("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out)
                        .map_err(|_| WireError::new("string is not valid UTF-8"));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| WireError::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0c),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let unit = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(WireError::new("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(code)
                                        .ok_or_else(|| WireError::new("invalid surrogate pair"))?
                                } else {
                                    return Err(WireError::new("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&unit) {
                                return Err(WireError::new("lone low surrogate"));
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| WireError::new("invalid \\u escape"))?
                            };
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        }
                        other => {
                            return Err(WireError::new(format!(
                                "unknown escape \\{}",
                                other as char
                            )))
                        }
                    }
                }
                Some(b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }

    /// The four ASCII hex digits of a `\u` escape, and nothing else: not
    /// the sign `u32::from_str_radix` would take.
    fn hex4(&mut self) -> Result<u32, WireError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| WireError::new("truncated \\u escape"))?;
        let mut unit = 0;
        for &b in digits {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| WireError::new("bad \\u escape digits"))?;
            unit = unit << 4 | digit;
        }
        self.pos += 4;
        Ok(unit)
    }
}

/// `write!` into a `String`: the one place its `fmt::Result` is dropped.
fn push_fmt(out: &mut String, args: fmt::Arguments<'_>) {
    out.write_fmt(args)
        .expect("String's fmt::Write never fails");
}

/// Append `s` with `"`, `\` and every control character below U+0020
/// escaped.
fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => push_fmt(out, format_args!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Escape a string for embedding inside a JSON string literal: `"`, `\`
/// and every control character below U+0020 are escaped, so hostile or
/// merely unlucky labels (a discipline name with a quote, a class label
/// with a newline) can never produce malformed JSON.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(s, &mut out);
    out
}

/// The string `write` fills.
pub(crate) fn encoded(write: impl FnOnce(&mut String)) -> String {
    let mut out = String::new();
    write(&mut out);
    out
}

/// Append `s` as a JSON string literal, quoted and escaped.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    escape_into(s, out);
    out.push('"');
}

/// Append `[a,b,…]`, each item written by `each`.
pub(crate) fn write_seq<I: IntoIterator>(
    items: I,
    out: &mut String,
    mut each: impl FnMut(I::Item, &mut String),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(item, out);
    }
    out.push(']');
}

/// Writes one JSON object into a buffer, member by member, in call order.
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    /// What precedes the next key: the opening brace, then commas.
    lead: char,
}

impl<'a> ObjectWriter<'a> {
    /// Open an object at the end of `out`.
    pub fn new(out: &'a mut String) -> Self {
        ObjectWriter { out, lead: '{' }
    }

    /// Append `"key":` and whatever `value` writes.
    pub fn member_with(&mut self, key: &str, value: impl FnOnce(&mut String)) -> &mut Self {
        self.out.push(self.lead);
        self.lead = ',';
        write_str(key, self.out);
        self.out.push(':');
        value(self.out);
        self
    }

    /// Append `"key":value`.
    pub fn member<T: WireResult>(&mut self, key: &str, value: &T) -> &mut Self {
        self.member_with(key, |out| value.write_wire(out))
    }

    /// Close the object.
    pub fn end(&mut self) {
        if self.lead == '{' {
            self.out.push('{');
        }
        self.out.push('}');
    }
}

/// A result type that can cross the worker-process boundary: encode to a
/// JSON body and decode back **losslessly**, so a distributed sweep's
/// decoded results render byte-identically to an in-process run's.
///
/// Implementations exist for the primitives, `String`, `Option`, pairs and
/// `Vec`; a record — every report section, every experiment row — gets
/// both directions from one [`wire_record!`](crate::wire_record) list.
pub trait WireResult: Sized {
    /// Append this value's JSON encoding to `out`.
    fn write_wire(&self, out: &mut String);

    /// Decode from a parsed JSON value.
    fn from_wire_json(value: &JsonValue) -> Result<Self, WireError>;

    /// Encode as one JSON value.
    fn to_wire_json(&self) -> String {
        encoded(|out| self.write_wire(out))
    }
}

/// Give a struct its [`WireResult`] codec from one list of its fields: the
/// JSON object whose keys are the field names, in list order, and the
/// decoder that reads it back.  A field goes through its own type's
/// [`WireResult`] unless marked `field: label(POOL)` — an interned
/// `&'static str`, written as a string and read back through [`intern`],
/// so a label outside `POOL: &[&str]` is a [`WireError`] — or
/// `field: optional` — an `Option` whose key is absent, not `null`, when
/// it is `None`.  A key named after the braces as `null: key` follows the
/// fields as a constant `null` and is ignored when read: a key the format
/// still carries after its producer is gone.
///
/// ```
/// use ispn_scenario::{wire_record, JsonValue, WireResult};
///
/// const SCHEDULERS: &[&str] = &["FIFO", "WFQ"];
///
/// struct Row {
///     scheduler: &'static str,
///     mean: f64,
///     bound: Option<f64>,
/// }
///
/// // Braces keep rustfmt from laying the list out one name per line.
/// wire_record! { Row { scheduler: label(SCHEDULERS), mean, bound } }
///
/// let json = Row { scheduler: "WFQ", mean: 3.16, bound: None }.to_wire_json();
/// assert_eq!(json, r#"{"scheduler":"WFQ","mean":3.16,"bound":null}"#);
/// let evil = JsonValue::parse(&json.replace("WFQ", "EvilSched")).unwrap();
/// assert!(Row::from_wire_json(&evil).is_err());
/// ```
#[macro_export]
macro_rules! wire_record {
    (
        $record:ident { $($field:ident $(: $how:ident $(($pool:path))?)?),+ $(,)? }
        $(null: $null:ident)?
    ) => {
        impl $crate::sweep::wire::WireResult for $record {
            fn write_wire(&self, out: &mut String) {
                let mut object = $crate::sweep::wire::ObjectWriter::new(out);
                $($crate::wire_record!(@write object, self.$field $(, $how $(($pool))?)?);)+
                $(object.member_with(stringify!($null), |out| out.push_str("null"));)?
                object.end();
            }

            fn from_wire_json(
                value: &$crate::sweep::wire::JsonValue,
            ) -> Result<Self, $crate::sweep::wire::WireError> {
                Ok($record {
                    $($field: $crate::wire_record!(@read value, $field $(, $how $(($pool))?)?),)+
                })
            }
        }
    };
    (@write $object:ident, $this:ident.$field:ident) => {
        $object.member(stringify!($field), &$this.$field)
    };
    (@write $object:ident, $this:ident.$field:ident, label($pool:path)) => {
        $object.member_with(stringify!($field), |out| {
            $crate::sweep::wire::write_str($this.$field, out)
        })
    };
    (@write $object:ident, $this:ident.$field:ident, optional) => {
        if let Some(present) = &$this.$field {
            $object.member(stringify!($field), present);
        }
    };
    (@read $value:ident, $field:ident) => {
        $crate::sweep::wire::WireResult::from_wire_json($value.field(stringify!($field))?)?
    };
    (@read $value:ident, $field:ident, label($pool:path)) => {
        $crate::sweep::wire::intern($value.field(stringify!($field))?, $pool)?
    };
    (@read $value:ident, $field:ident, optional) => {
        $value
            .get(stringify!($field))
            .map($crate::sweep::wire::WireResult::from_wire_json)
            .transpose()?
    };
}

/// The member of `pool` a JSON string names.  Experiment rows store their
/// labels as `&'static str`, so decoding maps the text back to the pool's
/// own copy; a label the pool does not hold is a schema error, not a
/// panic — a worker from a different build must not crash the parent.
pub fn intern(value: &JsonValue, pool: &'static [&'static str]) -> Result<&'static str, WireError> {
    let label = value.as_str()?;
    pool.iter()
        .copied()
        .find(|known| *known == label)
        .ok_or_else(|| WireError::new(format!("unknown label {label:?}: not one of {pool:?}")))
}

macro_rules! wire_uint {
    ($($t:ty),*) => {$(
        impl WireResult for $t {
            fn write_wire(&self, out: &mut String) {
                push_fmt(out, format_args!("{self}"));
            }
            fn from_wire_json(value: &JsonValue) -> Result<Self, WireError> {
                value.as_u64().and_then(|n| {
                    <$t>::try_from(n)
                        .map_err(|_| WireError::new(format!("{n} out of range")))
                })
            }
        }
    )*};
}

wire_uint!(u64, u32, usize);

impl WireResult for f64 {
    /// A finite value as its exact shortest literal, anything else as
    /// `null`.
    fn write_wire(&self, out: &mut String) {
        if self.is_finite() {
            push_fmt(out, format_args!("{self:?}"));
        } else {
            out.push_str("null");
        }
    }
    fn from_wire_json(value: &JsonValue) -> Result<Self, WireError> {
        if value.is_null() {
            Ok(f64::NAN)
        } else {
            value.as_f64()
        }
    }
}

impl WireResult for bool {
    fn write_wire(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn from_wire_json(value: &JsonValue) -> Result<Self, WireError> {
        value.as_bool()
    }
}

impl WireResult for String {
    fn write_wire(&self, out: &mut String) {
        write_str(self, out);
    }
    fn from_wire_json(value: &JsonValue) -> Result<Self, WireError> {
        value.as_str().map(str::to_string)
    }
}

/// `None` is `null`.  An `Option<f64>` therefore cannot tell `None` from
/// a non-finite `Some`: both travel as `null` and come back `None`.
impl<T: WireResult> WireResult for Option<T> {
    fn write_wire(&self, out: &mut String) {
        match self {
            Some(present) => present.write_wire(out),
            None => out.push_str("null"),
        }
    }
    fn from_wire_json(value: &JsonValue) -> Result<Self, WireError> {
        if value.is_null() {
            Ok(None)
        } else {
            T::from_wire_json(value).map(Some)
        }
    }
}

impl<A: WireResult, B: WireResult> WireResult for (A, B) {
    fn write_wire(&self, out: &mut String) {
        out.push('[');
        self.0.write_wire(out);
        out.push(',');
        self.1.write_wire(out);
        out.push(']');
    }
    fn from_wire_json(value: &JsonValue) -> Result<Self, WireError> {
        match value.as_array()? {
            [a, b] => Ok((A::from_wire_json(a)?, B::from_wire_json(b)?)),
            items => Err(WireError::new(format!(
                "expected a pair, got {} elements",
                items.len()
            ))),
        }
    }
}

impl<T: WireResult> WireResult for Vec<T> {
    fn write_wire(&self, out: &mut String) {
        write_seq(self, out, T::write_wire);
    }
    fn from_wire_json(value: &JsonValue) -> Result<Self, WireError> {
        value.as_array()?.iter().map(T::from_wire_json).collect()
    }
}

/// The parent's per-point request: which point to run, plus the axis tags
/// the parent believes the point carries (the worker refuses to run a
/// point whose tags differ — both sides must have built the same sweep).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointRequest {
    /// The point's position in sweep order.
    pub index: usize,
    /// The point's `(axis name, value label)` tags.
    pub tags: Vec<(String, String)>,
}

/// Append one request object, `{"point":3,"axes":[["load","1.0"],…]}`.
fn write_request(index: usize, tags: &[(String, String)], out: &mut String) {
    ObjectWriter::new(out)
        .member("point", &index)
        .member_with("axes", |out| write_seq(tags, out, WireResult::write_wire))
        .end();
}

/// Encode a point request as one line-framed JSON document (no newline).
pub fn encode_request(index: usize, tags: &[(String, String)]) -> String {
    encoded(|out| write_request(index, tags, out))
}

/// Encode several point requests as one batched line-framed document
/// (no newline); the worker answers the points in order, exactly as if
/// each had arrived on its own line.
pub fn encode_batch_request(items: &[(usize, &[(String, String)])]) -> String {
    encoded(|out| {
        ObjectWriter::new(out)
            .member_with("batch", |out| {
                write_seq(items, out, |&(index, tags), out| {
                    write_request(index, tags, out)
                })
            })
            .end()
    })
}

/// Parse a request line: either one [`PointRequest`] or a
/// `{"batch":[…]}` of several.  A single request comes back as a
/// one-element vector; an empty batch is a schema error (a parent with
/// nothing to ask must not send anything).
pub fn parse_requests(line: &str) -> Result<Vec<PointRequest>, WireError> {
    let v = JsonValue::parse(line)?;
    match v.get("batch") {
        None => Ok(vec![request_from_value(&v)?]),
        Some(batch) => {
            let items = batch.as_array()?;
            if items.is_empty() {
                return Err(WireError::new("empty batch request"));
            }
            items.iter().map(request_from_value).collect()
        }
    }
}

/// Decode one request object (the body of a single request line or one
/// element of a batch).
fn request_from_value(v: &JsonValue) -> Result<PointRequest, WireError> {
    Ok(PointRequest {
        index: usize::from_wire_json(v.field("point")?)?,
        tags: Vec::from_wire_json(v.field("axes")?)?,
    })
}

/// One parsed worker → parent frame.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerFrame {
    /// The startup handshake: protocol revision and how many points the
    /// worker's sweep holds (the parent refuses a mismatched worker).
    Hello {
        /// Wire protocol revision.
        protocol: u64,
        /// Number of points in the worker's rebuilt sweep.
        points: usize,
    },
    /// A completed point with its encoded result body.
    Report {
        /// The point's position in sweep order.
        index: usize,
        /// The [`WireResult`]-encoded result.
        body: JsonValue,
    },
    /// A point whose closure panicked inside the worker.
    Error {
        /// The point's position in sweep order.
        index: usize,
        /// The panic payload, rendered as text.
        payload: String,
    },
    /// Out-of-band per-point stats, sent before the point's report or
    /// error frame.  Never part of the result stream — the parent may
    /// aggregate or ignore these freely without affecting byte-identity.
    Telemetry {
        /// The point's position in sweep order.
        index: usize,
        /// Wall-clock seconds the worker spent running the point.
        wall_s: f64,
    },
}

/// The body of a hello frame.
struct Hello {
    protocol: u64,
    points: usize,
}

wire_record! { Hello { protocol, points } }

/// The body of a telemetry frame.
struct PointStats {
    wall_s: f64,
}

wire_record! { PointStats { wall_s } }

/// Encode the worker's hello frame.
pub fn encode_hello(points: usize) -> String {
    let hello = Hello {
        protocol: PROTOCOL_VERSION,
        points,
    };
    encoded(|out| ObjectWriter::new(out).member("hello", &hello).end())
}

/// A per-point frame: `{"point":3,"<key>":<body>}`.
fn point_frame(index: usize, key: &str, body: impl FnOnce(&mut String)) -> String {
    encoded(|out| {
        ObjectWriter::new(out)
            .member("point", &index)
            .member_with(key, body)
            .end()
    })
}

/// Encode a completed point's frame around its result.
pub fn encode_report_frame(index: usize, result: &impl WireResult) -> String {
    point_frame(index, "report", |out| result.write_wire(out))
}

/// Encode a panicked point's frame.
pub fn encode_error_frame(index: usize, payload: &str) -> String {
    point_frame(index, "error", |out| write_str(payload, out))
}

/// Encode a point's out-of-band stats frame.
pub fn encode_telemetry_frame(index: usize, wall_s: f64) -> String {
    point_frame(index, "telemetry", |out| {
        PointStats { wall_s }.write_wire(out)
    })
}

/// Parse one worker → parent line.
pub fn parse_worker_frame(line: &str) -> Result<WorkerFrame, WireError> {
    let v = JsonValue::parse(line)?;
    if let Some(hello) = v.get("hello") {
        let Hello { protocol, points } = Hello::from_wire_json(hello)?;
        return Ok(WorkerFrame::Hello { protocol, points });
    }
    let index = usize::from_wire_json(v.field("point")?)?;
    if let Some(payload) = v.get("error") {
        return Ok(WorkerFrame::Error {
            index,
            payload: String::from_wire_json(payload)?,
        });
    }
    if let Some(stats) = v.get("telemetry") {
        let PointStats { wall_s } = PointStats::from_wire_json(stats)?;
        return Ok(WorkerFrame::Telemetry { index, wall_s });
    }
    // Move the report body out of the owned document: this is the hot
    // per-point decode path, and the body can embed a whole report tree.
    match v {
        JsonValue::Object(mut members) => match members.iter().position(|(k, _)| k == "report") {
            Some(i) => Ok(WorkerFrame::Report {
                index,
                body: members.swap_remove(i).1,
            }),
            None => Err(WireError::new("missing object field \"report\"")),
        },
        // Unreachable in practice: reading "point" above required an
        // object, but keep the schema error rather than a panic.
        _ => Err(WireError::new("worker frame is not an object")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{
        ClassSummary, DisciplineSummary, FlowSummary, LinkSummary, RunTelemetry, ScenarioReport,
        SignalingSummary,
    };
    use crate::sweep::testing::assert_wire_codec;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars_arrays_and_objects() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(
            JsonValue::parse("-12.5e3").unwrap().as_f64().unwrap(),
            -12.5e3
        );
        let v = JsonValue::parse("{\"a\":[1,2,{\"b\":\"c\"}],\"d\":null}").unwrap();
        assert_eq!(v.field("a").unwrap().as_array().unwrap().len(), 3);
        assert!(v.field("d").unwrap().is_null());
        assert_eq!(
            v.field("a").unwrap().as_array().unwrap()[2]
                .field("b")
                .unwrap()
                .as_str()
                .unwrap(),
            "c"
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "\"unterminated",
            "{\"a\":1} trailing",
            "\"\\q\"",
            "\"\\ud800\"",
            "01a",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    /// `str::parse::<f64>` is laxer than JSON and knows infinity; the
    /// writer emits neither, so the parser takes neither.
    #[test]
    fn rejects_numbers_outside_the_json_grammar_or_the_finite_range() {
        for bad in [
            "1e999", "-1e999", "+1", ".5", "-.5", "1.", "1.e3", "01", "-01.5", "1e", "1e+", "-",
            "--1", "1.5.3", "1e5e5", "inf", "NaN",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should not parse");
        }
        for good in [
            "0",
            "-0.0",
            "10",
            "1e21",
            "1E-7",
            "5e-324",
            "1.7976931348623157e308",
        ] {
            let v = JsonValue::parse(good).unwrap_or_else(|e| panic!("{good:?}: {e}"));
            assert!(v.as_f64().unwrap().is_finite(), "{good:?}");
        }
        // What the bug looked like from the supervisor's side: a frame that
        // handed `+inf` to the telemetry stream.
        let frame = "{\"point\":3,\"telemetry\":{\"wall_s\":1e999}}";
        let err = parse_worker_frame(frame).expect_err("an infinite wall time is not a frame");
        assert!(err.detail.contains("bad number literal \"1e999\""), "{err}");
    }

    #[test]
    fn hostile_nesting_is_a_parse_error_not_a_stack_overflow() {
        // A garbage frame of tens of thousands of '['s must fail cleanly
        // (poisoning one point), never abort the parent via stack
        // exhaustion.
        let deep = "[".repeat(50_000);
        let err = JsonValue::parse(&deep).expect_err("bottomless nesting must not parse");
        assert!(err.detail.contains("nesting deeper"), "{err}");
        let mixed = "{\"a\":".repeat(30_000);
        assert!(JsonValue::parse(&mixed).is_err());
        // Reasonable nesting still parses.
        let ok = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        assert!(JsonValue::parse(&ok).is_ok());
    }

    #[test]
    fn string_escapes_round_trip_through_the_parser() {
        let hostile = "quote\" slash\\ nl\n cr\r tab\t ctl\u{1} é 中 🦀 \u{2028}";
        let doc = format!("\"{}\"", json_escape(hostile));
        assert_eq!(JsonValue::parse(&doc).unwrap().as_str().unwrap(), hostile);
        // Surrogate-pair escapes decode too.
        assert_eq!(
            JsonValue::parse("\"\\ud83e\\udd80\"")
                .unwrap()
                .as_str()
                .unwrap(),
            "🦀"
        );
        assert_eq!(
            JsonValue::parse("\"\\u00e9\\b\\f\\/\"")
                .unwrap()
                .as_str()
                .unwrap(),
            "é\u{8}\u{c}/"
        );
    }

    #[test]
    fn numbers_keep_exact_raw_text() {
        // Integers beyond 2^53 survive because the literal is kept as text.
        let v = JsonValue::parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64().unwrap(), u64::MAX);
        // Shortest-f64 literals round-trip to the same bits.
        for x in [0.1, 1.0 / 3.0, 83.5e-9, f64::MIN_POSITIVE, -0.0] {
            let v = JsonValue::parse(&x.to_wire_json()).unwrap();
            assert_eq!(v.as_f64().unwrap().to_bits(), x.to_bits());
        }
        assert!(JsonValue::parse(&f64::NAN.to_wire_json())
            .map(|v| f64::from_wire_json(&v))
            .unwrap()
            .unwrap()
            .is_nan());
    }

    #[test]
    fn frames_round_trip() {
        let tags = vec![
            ("load".to_string(), "1.0".to_string()),
            ("disc\"ipline".to_string(), "WFQ\n".to_string()),
        ];
        let req = parse_requests(&encode_request(3, &tags)).unwrap();
        assert_eq!(req, vec![PointRequest { index: 3, tags }]);

        assert_eq!(
            parse_worker_frame(&encode_hello(8)).unwrap(),
            WorkerFrame::Hello {
                protocol: PROTOCOL_VERSION,
                points: 8
            }
        );
        match parse_worker_frame(&encode_report_frame(2, &(1u64, true))).unwrap() {
            WorkerFrame::Report { index, body } => {
                assert_eq!(index, 2);
                assert_eq!(<(u64, bool)>::from_wire_json(&body), Ok((1, true)));
            }
            other => panic!("unexpected frame {other:?}"),
        }
        match parse_worker_frame(&encode_error_frame(5, "boom \"quoted\"")).unwrap() {
            WorkerFrame::Error { index, payload } => {
                assert_eq!(index, 5);
                assert_eq!(payload, "boom \"quoted\"");
            }
            other => panic!("unexpected frame {other:?}"),
        }
        match parse_worker_frame(&encode_telemetry_frame(4, 1.25)).unwrap() {
            WorkerFrame::Telemetry { index, wall_s } => {
                assert_eq!(index, 4);
                assert_eq!(wall_s, 1.25);
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }

    #[test]
    fn batch_requests_round_trip() {
        let tags_a = vec![("load".to_string(), "1.0".to_string())];
        let tags_b = vec![("load".to_string(), "2.0".to_string())];
        let line = encode_batch_request(&[(3, &tags_a), (4, &tags_b)]);
        assert!(!line.contains('\n'));
        let parsed = parse_requests(&line).unwrap();
        assert_eq!(
            parsed,
            vec![
                PointRequest {
                    index: 3,
                    tags: tags_a.clone()
                },
                PointRequest {
                    index: 4,
                    tags: tags_b
                },
            ]
        );
        // A plain single request parses as a one-element batch.
        let single = encode_request(7, &tags_a);
        assert_eq!(parse_requests(&single).unwrap().len(), 1);
        // An empty batch is a schema error, not an empty answer.
        assert!(parse_requests("{\"batch\":[]}").is_err());
    }

    /// The framing contract (module docs): a trailing `\r` — a CRLF peer's
    /// leftover after `\n`-splitting — must not poison the document.
    #[test]
    fn frames_tolerate_crlf_terminators() {
        let tags = vec![("load".to_string(), "1.0".to_string())];
        let req = format!("{}\r", encode_request(3, &tags));
        assert_eq!(parse_requests(&req).unwrap()[0].index, 3);
        let hello = format!("{}\r", encode_hello(8));
        assert!(matches!(
            parse_worker_frame(&hello).unwrap(),
            WorkerFrame::Hello { .. }
        ));
        let report = format!("{}\r", encode_report_frame(2, &1u64));
        assert!(matches!(
            parse_worker_frame(&report).unwrap(),
            WorkerFrame::Report { index: 2, .. }
        ));
    }

    /// Every report record through the shared codec contract, each on its
    /// own and then nested in the report that carries them.
    #[test]
    fn scenario_reports_round_trip_byte_identically() {
        let flow = FlowSummary {
            flow: 7,
            generated: 100,
            delivered: 98,
            dropped_buffer: 2,
            dropped_at_edge: 0,
            dropped_inactive: 0,
            mean_delay_s: 0.1 + 0.2, // a classically non-round float
            p999_delay_s: f64::NAN,  // travels as null
            max_delay_s: 0.06,
            jitter_s: 1.0 / 3.0,
        };
        let flow_json = "{\"flow\":7,\"generated\":100,\"delivered\":98,\"dropped_buffer\":2,\
            \"dropped_at_edge\":0,\"dropped_inactive\":0,\"mean_delay_s\":0.30000000000000004,\
            \"p999_delay_s\":null,\"max_delay_s\":0.06,\"jitter_s\":0.3333333333333333}";
        assert_wire_codec(
            &flow,
            flow_json,
            &[
                &flow_json.replace("\"flow\":7", "\"flow\":4294967296"),
                &flow_json.replace(",\"jitter_s\":0.3333333333333333", ""),
            ],
        );

        let link = LinkSummary {
            link: 0,
            utilization: 0.835,
            realtime_utilization: f64::INFINITY,
            drops: 2,
            packets_sent: 98,
        };
        let link_json = "{\"link\":0,\"utilization\":0.835,\"realtime_utilization\":null,\
            \"drops\":2,\"packets_sent\":98}";
        assert_wire_codec(
            &link,
            link_json,
            &[&link_json.replace("\"drops\":2", "\"drops\":\"2\"")],
        );

        let class = ClassSummary {
            class: "predicted-0".to_string(),
            flows: 1,
            generated: 100,
            delivered: 98,
            dropped_buffer: 2,
            dropped_at_edge: 0,
            mean_delay_s: 0.003,
            max_delay_s: 0.06,
            jitter_s: f64::NAN,
            quantiles: vec![(0.5, 0.002), (0.999, 0.05)],
        };
        let class_json = "{\"class\":\"predicted-0\",\"flows\":1,\"generated\":100,\
            \"delivered\":98,\"dropped_buffer\":2,\"dropped_at_edge\":0,\"mean_delay_s\":0.003,\
            \"max_delay_s\":0.06,\"jitter_s\":null,\"quantiles\":[[0.5,0.002],[0.999,0.05]],\
            \"histogram\":null}";
        assert_wire_codec(
            &class,
            class_json,
            &[&class_json.replace("[0.5,0.002]", "[0.5,0.002,0.1]")],
        );

        let discipline = DisciplineSummary {
            discipline: "WFQ\"evil".to_string(),
            links: 1,
            mean_utilization: 0.83,
            mean_realtime_utilization: f64::NAN,
            drops: 2,
            packets_sent: 98,
        };
        let discipline_json = "{\"discipline\":\"WFQ\\\"evil\",\"links\":1,\
            \"mean_utilization\":0.83,\"mean_realtime_utilization\":null,\"drops\":2,\
            \"packets_sent\":98}";
        assert_wire_codec(
            &discipline,
            discipline_json,
            &[&discipline_json.replace("\"WFQ\\\"evil\"", "7")],
        );

        let signaling = SignalingSummary {
            accepted: 3,
            rejected: 1,
            decisions: vec![true, true, false, true],
            pending: 0,
        };
        let signaling_json = "{\"accepted\":3,\"rejected\":1,\"pending\":0,\
            \"decisions\":[true,true,false,true]}";
        assert_wire_codec(
            &signaling,
            signaling_json,
            &[&signaling_json.replace("false", "0")],
        );

        let telemetry = RunTelemetry {
            events_processed: 1234,
            event_queue_high_water: 17,
            peak_queue_depth: 9,
            admission_accepted: 3,
            admission_rejected: 1,
            flow_table_bytes: 2048,
            reservation_state_bytes: 512,
            sched_pool_grow_events: 7,
            sched_pool_segments_high_water: 5,
            wall_s: 0.25,
            events_per_sec: f64::NAN,
        };
        let telemetry_json = "{\"events_processed\":1234,\"event_queue_high_water\":17,\
            \"peak_queue_depth\":9,\"admission_accepted\":3,\"admission_rejected\":1,\
            \"flow_table_bytes\":2048,\"reservation_state_bytes\":512,\
            \"sched_pool_grow_events\":7,\"sched_pool_segments_high_water\":5,\"wall_s\":0.25,\
            \"events_per_sec\":null}";
        assert_wire_codec(
            &telemetry,
            telemetry_json,
            &[&telemetry_json.replace("\"wall_s\":0.25", "\"wall_s\":true")],
        );

        let report = ScenarioReport {
            horizon_s: 40.0,
            flows: vec![flow],
            links: vec![link],
            classes: vec![class],
            disciplines: vec![discipline],
            signaling,
            telemetry: None,
        };
        let report_json = format!(
            "{{\"horizon_s\":40.0,\"flows\":[{flow_json}],\"links\":[{link_json}],\
             \"classes\":[{class_json}],\"disciplines\":[{discipline_json}],\
             \"signaling\":{signaling_json}}}"
        );
        assert_wire_codec(
            &report,
            &report_json,
            &[&report_json.replace(",\"signaling\":", ",\"signalling\":")],
        );

        // A telemetry-bearing report carries the block as one more key…
        let measured = ScenarioReport {
            telemetry: Some(telemetry),
            ..report.clone()
        };
        let measured_json = format!(
            "{},\"telemetry\":{telemetry_json}}}",
            &report_json[..report_json.len() - 1]
        );
        assert_wire_codec(&measured, &measured_json, &[]);

        // …and a report with no classes keeps the empty list.
        let bare = ScenarioReport {
            classes: Vec::new(),
            ..report
        };
        let bare_json = format!(
            "{{\"horizon_s\":40.0,\"flows\":[{flow_json}],\"links\":[{link_json}],\
             \"classes\":[],\"disciplines\":[{discipline_json}],\"signaling\":{signaling_json}}}"
        );
        assert_wire_codec(&bare, &bare_json, &[]);
    }

    #[test]
    fn unicode_escapes_take_four_hex_digits_and_no_sign() {
        for bad in [
            "\"\\u+0e9\"",
            "\"\\u-0e9\"",
            "\"\\u 0e9\"",
            "\"\\u0e9\"",
            "\"\\u0e\"",
            "\"\\u00é\"",
            "\"\\ud83e\\u+d80\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should not parse");
        }
        let ok = JsonValue::parse("\"\\u00E9\\u00e9x\"").unwrap();
        assert_eq!(ok.as_str().unwrap(), "ééx");
    }

    /// Real frames of every kind the wire carries, a scenario report
    /// from a short run among them.
    fn real_frames() -> Vec<String> {
        use crate::workload::{FlowDef, SourceSpec};
        let mut sim = crate::ScenarioBuilder::chain(2)
            .discipline(crate::DisciplineSpec::Wfq)
            .flow(FlowDef::best_effort_realtime(0, 1).source(SourceSpec::cbr(100.0, 1000)))
            .flow(FlowDef::best_effort_realtime(0, 1).source(SourceSpec::cbr(50.0, 1000)))
            .build()
            .expect("valid scenario");
        sim.run_until(ispn_sim::SimTime::from_millis(200));
        let report = sim.report(&Default::default());
        let tags = vec![
            ("load".to_string(), "1.0".to_string()),
            ("disc\"ipline".to_string(), "WFQ\n é 🦀".to_string()),
        ];
        vec![
            encode_hello(8),
            encode_request(3, &tags),
            encode_batch_request(&[(0, &tags), (1, &[])]),
            encode_report_frame(5, &report),
            encode_error_frame(2, "boom \"\\\n é 🦀 \u{1}"),
            encode_telemetry_frame(4, 0.25),
        ]
    }

    /// Text the writer never emits but a garbled or hostile peer could
    /// send: signed `\u` digits, lone and reversed surrogates, numbers out
    /// of range, duplicate keys.
    const HOSTILE: [&str; 16] = [
        "\\u+0e9",
        "\\u-0e9",
        "\\ud800",
        "\\udc00",
        "\\udc00\\ud800",
        "\\ud800\\ud800",
        "\\ud800\\n",
        "1e999",
        "-1e999",
        "18446744073709551616",
        "-1",
        "1e-400",
        "99999999999999999999999999",
        "{\"point\":1,\"point\":2,\"error\":\"a\",\"error\":\"b\"}",
        "{\"hello\":{\"protocol\":1,\"protocol\":2,\"points\":3,\"points\":-4}}",
        "{\"batch\":[],\"batch\":[{\"point\":1,\"axes\":[],\"axes\":[[\"a\",\"b\"]]}]}",
    ];

    /// Characters a flip writes: JSON's structure, digits, escapes and
    /// multi-byte UTF-8, so every flip leaves the text valid UTF-8.
    const FLIPS: [char; 24] = [
        '"', '\\', '{', '}', '[', ']', ',', ':', '0', '9', '-', '+', 'e', '.', 'u', 'd', '8', 'n',
        't', ' ', 'é', '🦀', '\n', '\u{0}',
    ];

    /// Both parsers on `input`, each under `catch_unwind`: the input goes
    /// into `panics` if either panicked instead of returning.
    fn feed(input: &str, panics: &mut Vec<String>) {
        let json = std::panic::catch_unwind(|| JsonValue::parse(input).is_ok());
        let frame = std::panic::catch_unwind(|| parse_worker_frame(input).is_ok());
        if json.is_err() || frame.is_err() {
            panics.push(input.to_string());
        }
    }

    /// The char boundaries of `s`, both ends included.
    fn cuts(s: &str) -> Vec<usize> {
        s.char_indices().map(|(i, _)| i).chain([s.len()]).collect()
    }

    /// Both wire parsers end every input in `Ok` or `Err`, never a panic:
    /// every prefix of every real frame, then 12 000 drawn mutants —
    /// splices of two frames, flips of a few characters, hostile text
    /// inserted at a char boundary, and prefixes of those.
    #[test]
    fn wire_parsers_never_panic_on_mangled_frames() {
        let frames = real_frames();
        let mut docs = frames.clone();
        docs.extend(
            HOSTILE
                .iter()
                .map(|h| format!("{{\"point\":1,\"error\":\"{h}\"}}")),
        );
        docs.extend(
            HOSTILE
                .iter()
                .map(|h| format!("{{\"point\":{h},\"telemetry\":{{\"wall_s\":{h}}}}}")),
        );
        docs.extend(HOSTILE.map(str::to_string));
        let mut panics = Vec::new();
        let mut cases = 0;
        for frame in &frames {
            for cut in cuts(frame) {
                feed(&frame[..cut], &mut panics);
                cases += 1;
            }
        }
        let mut rng = ispn_sim::Pcg64::new(0x7769_7265);
        let mut below = |n: usize| rng.next_below(n as u64) as usize;
        for _ in 0..12_000 {
            let (a, b) = (&docs[below(docs.len())], &docs[below(docs.len())]);
            let (ca, cb) = (cuts(a), cuts(b));
            let mut text = match below(4) {
                0 => format!("{}{}", &a[..ca[below(ca.len())]], &b[cb[below(cb.len())]..]),
                1 => {
                    let mut chars: Vec<char> = a.chars().collect();
                    for _ in 0..1 + below(4) {
                        let at = below(chars.len());
                        chars[at] = FLIPS[below(FLIPS.len())];
                    }
                    chars.into_iter().collect()
                }
                2 => {
                    let at = ca[below(ca.len())];
                    format!("{}{}{}", &a[..at], HOSTILE[below(HOSTILE.len())], &a[at..])
                }
                _ => a.clone(),
            };
            if below(4) == 0 {
                let c = cuts(&text);
                text.truncate(c[below(c.len())]);
            }
            feed(&text, &mut panics);
            cases += 1;
        }
        assert!(cases >= 10_000, "{cases} cases");
        assert!(
            panics.is_empty(),
            "{} inputs panicked: {:?}",
            panics.len(),
            &panics[..panics.len().min(5)]
        );
    }

    #[test]
    fn nesting_at_the_depth_bound_parses_and_one_level_past_it_does_not() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(JsonValue::parse(&nest(MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&nest(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert!(err.detail.contains("nesting deeper"), "{err}");
        // A report body inside its frame: the frame object is one level.
        let frame = |depth: usize| format!("{{\"point\":1,\"report\":{}}}", nest(depth));
        assert!(parse_worker_frame(&frame(MAX_DEPTH - 1)).is_ok());
        assert!(parse_worker_frame(&frame(MAX_DEPTH)).is_err());
    }

    proptest! {
        /// The point wire codec round-trips arbitrary axis tags — hostile
        /// labels with quotes, newlines, control characters and non-ASCII
        /// included — losslessly.
        #[test]
        fn request_frames_round_trip_hostile_tags(
            tags in proptest::collection::vec((any::<String>(), any::<String>()), 0..6),
            index in 0usize..10_000,
        ) {
            let line = encode_request(index, &tags);
            prop_assert!(!line.contains('\n'), "frames must stay one line: {line:?}");
            let parsed = parse_requests(&line).expect("encoded request must parse");
            prop_assert_eq!(parsed, vec![PointRequest { index, tags }]);
        }

        /// `SweepError` payloads survive the error frame, whatever bytes
        /// the panic message contained.
        #[test]
        fn error_frames_round_trip_hostile_payloads(
            payload in any::<String>(),
            index in 0usize..10_000,
        ) {
            let line = encode_error_frame(index, &payload);
            prop_assert!(!line.contains('\n'));
            match parse_worker_frame(&line).expect("encoded error frame must parse") {
                WorkerFrame::Error { index: i, payload: p } => {
                    prop_assert_eq!(i, index);
                    prop_assert_eq!(p, payload);
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }

        /// Strings of arbitrary content survive the full value codec.
        #[test]
        fn string_values_round_trip(s in any::<String>()) {
            let doc = s.to_wire_json();
            let parsed = JsonValue::parse(&doc).expect("encoded string must parse");
            prop_assert_eq!(String::from_wire_json(&parsed).unwrap(), s);
        }
    }
}
