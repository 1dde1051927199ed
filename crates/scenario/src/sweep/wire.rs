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
//! [`json_escape`](crate::report::json_escape) encodes `\n` and `\r`
//! inside strings as escapes, which the property tests pin.
//!
//! Everything is hand-rolled (this workspace builds offline, no serde):
//! [`json_escape`](crate::report::json_escape) on the way out and the
//! small recursive-descent [`JsonValue`] parser on the way in.  The codec
//! is pinned by property tests: arbitrary axis tags — quotes, newlines,
//! control characters, non-ASCII — and arbitrary error payloads round-trip
//! losslessly.
//!
//! # Float fidelity
//!
//! Byte-identity between an in-process and a distributed run hinges on
//! `f64` round-trips: results are encoded with `{:?}` (Rust's shortest
//! representation that parses back to the same bits) and decoded with
//! `str::parse::<f64>` (correctly rounded), so every finite value crosses
//! the pipe exactly.  Non-finite values follow the report convention and
//! serialize as `null`, decoding to NaN.

use std::fmt;

use crate::report::{
    json_escape, ClassSummary, DisciplineSummary, FlowSummary, HistogramSummary, LinkSummary,
    RunTelemetry, ScenarioReport, SignalingSummary,
};

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

    /// The number as `f64` (finite literals only; see
    /// [`as_f64_or_nan`](JsonValue::as_f64_or_nan) for the report
    /// convention where `null` stands in for non-finite values).
    pub fn as_f64(&self) -> Result<f64, WireError> {
        match self {
            JsonValue::Number(raw) => raw
                .parse::<f64>()
                .map_err(|e| WireError::new(format!("bad number literal {raw:?}: {e}"))),
            other => Err(WireError::new(format!("expected number, got {other:?}"))),
        }
    }

    /// The number as `f64`, with `null` decoding to NaN (the inverse of
    /// the report serializer, which emits `null` for non-finite floats).
    pub fn as_f64_or_nan(&self) -> Result<f64, WireError> {
        match self {
            JsonValue::Null => Ok(f64::NAN),
            other => other.as_f64(),
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

    /// The number as `usize`.
    pub fn as_usize(&self) -> Result<usize, WireError> {
        self.as_u64().and_then(|n| {
            usize::try_from(n).map_err(|_| WireError::new(format!("{n} overflows usize")))
        })
    }

    /// The number as `u32`.
    pub fn as_u32(&self) -> Result<u32, WireError> {
        self.as_u64().and_then(|n| {
            u32::try_from(n).map_err(|_| WireError::new(format!("{n} overflows u32")))
        })
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

    fn object(&mut self) -> Result<JsonValue, WireError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => {
                    return Err(WireError::new(format!(
                        "expected ',' or '}}' at offset {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, WireError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => {
                    return Err(WireError::new(format!(
                        "expected ',' or ']' at offset {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, WireError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number literals are ASCII")
            .to_string();
        // Validate the literal now so schema code can trust the raw text.
        raw.parse::<f64>()
            .map_err(|e| WireError::new(format!("bad number literal {raw:?}: {e}")))?;
        Ok(JsonValue::Number(raw))
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

    fn hex4(&mut self) -> Result<u32, WireError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(WireError::new("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| WireError::new("non-ASCII in \\u escape"))?;
        let unit =
            u32::from_str_radix(hex, 16).map_err(|_| WireError::new("bad \\u escape digits"))?;
        self.pos = end;
        Ok(unit)
    }
}

/// Serialize a finite `f64` as its exact shortest literal, and non-finite
/// values as `null` (the same convention the scenario report uses).
pub fn wire_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// A result type that can cross the worker-process boundary: encode to a
/// JSON body and decode back **losslessly**, so a distributed sweep's
/// decoded results render byte-identically to an in-process run's.
///
/// Implementations exist for the primitives, `String`, pairs, `Vec` and
/// [`ScenarioReport`]; each experiment implements it for its own row type.
pub trait WireResult: Sized {
    /// Encode as one JSON value.
    fn to_wire_json(&self) -> String;
    /// Decode from a parsed JSON value.
    fn from_wire_json(value: &JsonValue) -> Result<Self, WireError>;
}

macro_rules! wire_uint {
    ($($t:ty => $as:ident),*) => {$(
        impl WireResult for $t {
            fn to_wire_json(&self) -> String {
                self.to_string()
            }
            fn from_wire_json(value: &JsonValue) -> Result<Self, WireError> {
                value.$as().and_then(|n| {
                    <$t>::try_from(n)
                        .map_err(|_| WireError::new(format!("{n} out of range")))
                })
            }
        }
    )*};
}

wire_uint!(u64 => as_u64, u32 => as_u64, usize => as_u64);

impl WireResult for f64 {
    fn to_wire_json(&self) -> String {
        wire_f64(*self)
    }
    fn from_wire_json(value: &JsonValue) -> Result<Self, WireError> {
        value.as_f64_or_nan()
    }
}

impl WireResult for bool {
    fn to_wire_json(&self) -> String {
        self.to_string()
    }
    fn from_wire_json(value: &JsonValue) -> Result<Self, WireError> {
        value.as_bool()
    }
}

impl WireResult for String {
    fn to_wire_json(&self) -> String {
        format!("\"{}\"", json_escape(self))
    }
    fn from_wire_json(value: &JsonValue) -> Result<Self, WireError> {
        value.as_str().map(str::to_string)
    }
}

impl<A: WireResult, B: WireResult> WireResult for (A, B) {
    fn to_wire_json(&self) -> String {
        format!("[{},{}]", self.0.to_wire_json(), self.1.to_wire_json())
    }
    fn from_wire_json(value: &JsonValue) -> Result<Self, WireError> {
        let items = value.as_array()?;
        if items.len() != 2 {
            return Err(WireError::new(format!(
                "expected a pair, got {} elements",
                items.len()
            )));
        }
        Ok((A::from_wire_json(&items[0])?, B::from_wire_json(&items[1])?))
    }
}

impl<T: WireResult> WireResult for Vec<T> {
    fn to_wire_json(&self) -> String {
        let body: Vec<String> = self.iter().map(WireResult::to_wire_json).collect();
        format!("[{}]", body.join(","))
    }
    fn from_wire_json(value: &JsonValue) -> Result<Self, WireError> {
        value.as_array()?.iter().map(T::from_wire_json).collect()
    }
}

impl WireResult for ScenarioReport {
    /// The report's existing JSON serialization is the wire body.
    fn to_wire_json(&self) -> String {
        self.to_json()
    }

    fn from_wire_json(v: &JsonValue) -> Result<Self, WireError> {
        Ok(ScenarioReport {
            horizon_s: v.field("horizon_s")?.as_f64_or_nan()?,
            flows: v
                .field("flows")?
                .as_array()?
                .iter()
                .map(decode_flow)
                .collect::<Result<_, _>>()?,
            links: v
                .field("links")?
                .as_array()?
                .iter()
                .map(decode_link)
                .collect::<Result<_, _>>()?,
            classes: v
                .field("classes")?
                .as_array()?
                .iter()
                .map(decode_class)
                .collect::<Result<_, _>>()?,
            disciplines: v
                .field("disciplines")?
                .as_array()?
                .iter()
                .map(decode_discipline)
                .collect::<Result<_, _>>()?,
            signaling: {
                let s = v.field("signaling")?;
                if s.is_null() {
                    None
                } else {
                    Some(decode_signaling(s)?)
                }
            },
            // Absent on telemetry-off reports: `get`, not `field`.
            telemetry: v.get("telemetry").map(decode_telemetry).transpose()?,
        })
    }
}

fn decode_flow(v: &JsonValue) -> Result<FlowSummary, WireError> {
    Ok(FlowSummary {
        flow: v.field("flow")?.as_u32()?,
        generated: v.field("generated")?.as_u64()?,
        delivered: v.field("delivered")?.as_u64()?,
        dropped_buffer: v.field("dropped_buffer")?.as_u64()?,
        dropped_at_edge: v.field("dropped_at_edge")?.as_u64()?,
        dropped_inactive: v.field("dropped_inactive")?.as_u64()?,
        mean_delay_s: v.field("mean_delay_s")?.as_f64_or_nan()?,
        p999_delay_s: v.field("p999_delay_s")?.as_f64_or_nan()?,
        max_delay_s: v.field("max_delay_s")?.as_f64_or_nan()?,
        jitter_s: v.field("jitter_s")?.as_f64_or_nan()?,
    })
}

fn decode_link(v: &JsonValue) -> Result<LinkSummary, WireError> {
    Ok(LinkSummary {
        link: v.field("link")?.as_usize()?,
        utilization: v.field("utilization")?.as_f64_or_nan()?,
        realtime_utilization: v.field("realtime_utilization")?.as_f64_or_nan()?,
        drops: v.field("drops")?.as_u64()?,
        packets_sent: v.field("packets_sent")?.as_u64()?,
    })
}

fn decode_class(v: &JsonValue) -> Result<ClassSummary, WireError> {
    let quantiles = v
        .field("quantiles")?
        .as_array()?
        .iter()
        .map(|pair| {
            let items = pair.as_array()?;
            if items.len() != 2 {
                return Err(WireError::new("quantile entries are [q, delay] pairs"));
            }
            Ok((items[0].as_f64_or_nan()?, items[1].as_f64_or_nan()?))
        })
        .collect::<Result<_, _>>()?;
    let histogram = {
        let h = v.field("histogram")?;
        if h.is_null() {
            None
        } else {
            Some(HistogramSummary {
                lo_s: h.field("lo_s")?.as_f64_or_nan()?,
                hi_s: h.field("hi_s")?.as_f64_or_nan()?,
                counts: h
                    .field("counts")?
                    .as_array()?
                    .iter()
                    .map(JsonValue::as_u64)
                    .collect::<Result<_, _>>()?,
                underflow: h.field("underflow")?.as_u64()?,
                overflow: h.field("overflow")?.as_u64()?,
            })
        }
    };
    Ok(ClassSummary {
        class: v.field("class")?.as_str()?.to_string(),
        flows: v.field("flows")?.as_usize()?,
        generated: v.field("generated")?.as_u64()?,
        delivered: v.field("delivered")?.as_u64()?,
        dropped_buffer: v.field("dropped_buffer")?.as_u64()?,
        dropped_at_edge: v.field("dropped_at_edge")?.as_u64()?,
        mean_delay_s: v.field("mean_delay_s")?.as_f64_or_nan()?,
        max_delay_s: v.field("max_delay_s")?.as_f64_or_nan()?,
        jitter_s: v.field("jitter_s")?.as_f64_or_nan()?,
        quantiles,
        histogram,
    })
}

fn decode_discipline(v: &JsonValue) -> Result<DisciplineSummary, WireError> {
    Ok(DisciplineSummary {
        discipline: v.field("discipline")?.as_str()?.to_string(),
        links: v.field("links")?.as_usize()?,
        mean_utilization: v.field("mean_utilization")?.as_f64_or_nan()?,
        mean_realtime_utilization: v.field("mean_realtime_utilization")?.as_f64_or_nan()?,
        drops: v.field("drops")?.as_u64()?,
        packets_sent: v.field("packets_sent")?.as_u64()?,
    })
}

fn decode_telemetry(v: &JsonValue) -> Result<RunTelemetry, WireError> {
    Ok(RunTelemetry {
        events_processed: v.field("events_processed")?.as_u64()?,
        event_queue_high_water: v.field("event_queue_high_water")?.as_u64()?,
        peak_queue_depth: v.field("peak_queue_depth")?.as_u64()?,
        admission_accepted: v.field("admission_accepted")?.as_u64()?,
        admission_rejected: v.field("admission_rejected")?.as_u64()?,
        flow_table_bytes: v.field("flow_table_bytes")?.as_u64()?,
        reservation_state_bytes: v.field("reservation_state_bytes")?.as_u64()?,
        sched_pool_grow_events: v.field("sched_pool_grow_events")?.as_u64()?,
        sched_pool_segments_high_water: v.field("sched_pool_segments_high_water")?.as_u64()?,
        wall_s: v.field("wall_s")?.as_f64_or_nan()?,
        events_per_sec: v.field("events_per_sec")?.as_f64_or_nan()?,
    })
}

fn decode_signaling(v: &JsonValue) -> Result<SignalingSummary, WireError> {
    Ok(SignalingSummary {
        accepted: v.field("accepted")?.as_usize()?,
        rejected: v.field("rejected")?.as_usize()?,
        decisions: v
            .field("decisions")?
            .as_array()?
            .iter()
            .map(JsonValue::as_bool)
            .collect::<Result<_, _>>()?,
        pending: v.field("pending")?.as_usize()?,
    })
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

/// Encode a point request as one line-framed JSON document (no newline).
pub fn encode_request(index: usize, tags: &[(String, String)]) -> String {
    let axes: Vec<String> = tags
        .iter()
        .map(|(name, label)| format!("[\"{}\",\"{}\"]", json_escape(name), json_escape(label)))
        .collect();
    format!("{{\"point\":{index},\"axes\":[{}]}}", axes.join(","))
}

/// Encode several point requests as one batched line-framed document
/// (no newline); the worker answers the points in order, exactly as if
/// each had arrived on its own line.
pub fn encode_batch_request(items: &[(usize, &[(String, String)])]) -> String {
    let body: Vec<String> = items
        .iter()
        .map(|&(index, tags)| encode_request(index, tags))
        .collect();
    format!("{{\"batch\":[{}]}}", body.join(","))
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
    let index = v.field("point")?.as_usize()?;
    let tags = v
        .field("axes")?
        .as_array()?
        .iter()
        .map(|pair| {
            let items = pair.as_array()?;
            if items.len() != 2 {
                return Err(WireError::new("axis entries are [name, label] pairs"));
            }
            Ok((
                items[0].as_str()?.to_string(),
                items[1].as_str()?.to_string(),
            ))
        })
        .collect::<Result<_, _>>()?;
    Ok(PointRequest { index, tags })
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

/// Encode the worker's hello frame.
pub fn encode_hello(points: usize) -> String {
    format!("{{\"hello\":{{\"protocol\":{PROTOCOL_VERSION},\"points\":{points}}}}}")
}

/// Encode a completed point's frame (`body` must already be valid JSON —
/// the output of [`WireResult::to_wire_json`]).
pub fn encode_report_frame(index: usize, body: &str) -> String {
    format!("{{\"point\":{index},\"report\":{body}}}")
}

/// Encode a panicked point's frame.
pub fn encode_error_frame(index: usize, payload: &str) -> String {
    format!(
        "{{\"point\":{index},\"error\":\"{}\"}}",
        json_escape(payload)
    )
}

/// Encode a point's out-of-band stats frame.
pub fn encode_telemetry_frame(index: usize, wall_s: f64) -> String {
    format!(
        "{{\"point\":{index},\"telemetry\":{{\"wall_s\":{}}}}}",
        wire_f64(wall_s)
    )
}

/// Parse one worker → parent line.
pub fn parse_worker_frame(line: &str) -> Result<WorkerFrame, WireError> {
    let v = JsonValue::parse(line)?;
    if let Some(hello) = v.get("hello") {
        return Ok(WorkerFrame::Hello {
            protocol: hello.field("protocol")?.as_u64()?,
            points: hello.field("points")?.as_usize()?,
        });
    }
    let index = v.field("point")?.as_usize()?;
    if let Some(payload) = v.get("error") {
        return Ok(WorkerFrame::Error {
            index,
            payload: payload.as_str()?.to_string(),
        });
    }
    if let Some(stats) = v.get("telemetry") {
        return Ok(WorkerFrame::Telemetry {
            index,
            wall_s: stats.field("wall_s")?.as_f64_or_nan()?,
        });
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
            let v = JsonValue::parse(&wire_f64(x)).unwrap();
            assert_eq!(v.as_f64().unwrap().to_bits(), x.to_bits());
        }
        assert!(JsonValue::parse(&wire_f64(f64::NAN))
            .unwrap()
            .as_f64_or_nan()
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
        match parse_worker_frame(&encode_report_frame(2, "{\"x\":1}")).unwrap() {
            WorkerFrame::Report { index, body } => {
                assert_eq!(index, 2);
                assert_eq!(body.field("x").unwrap().as_u64().unwrap(), 1);
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
        let report = format!("{}\r", encode_report_frame(2, "{\"x\":1}"));
        assert!(matches!(
            parse_worker_frame(&report).unwrap(),
            WorkerFrame::Report { index: 2, .. }
        ));
    }

    #[test]
    fn scenario_reports_round_trip_byte_identically() {
        let report = ScenarioReport {
            horizon_s: 40.0,
            flows: vec![FlowSummary {
                flow: 7,
                generated: 100,
                delivered: 98,
                dropped_buffer: 2,
                dropped_at_edge: 0,
                dropped_inactive: 0,
                mean_delay_s: 0.1 + 0.2, // a classically non-round float
                p999_delay_s: f64::NAN,  // serializes as null
                max_delay_s: 0.06,
                jitter_s: 1.0 / 3.0,
            }],
            links: vec![LinkSummary {
                link: 0,
                utilization: 0.835,
                realtime_utilization: 0.8,
                drops: 2,
                packets_sent: 98,
            }],
            classes: vec![ClassSummary {
                class: "predicted-0".to_string(),
                flows: 1,
                generated: 100,
                delivered: 98,
                dropped_buffer: 2,
                dropped_at_edge: 0,
                mean_delay_s: 0.003,
                max_delay_s: 0.06,
                jitter_s: 0.004,
                quantiles: vec![(0.5, 0.002), (0.999, 0.05)],
                histogram: Some(HistogramSummary {
                    lo_s: 0.0,
                    hi_s: 0.1,
                    counts: vec![90, 8],
                    underflow: 0,
                    overflow: 0,
                }),
            }],
            disciplines: vec![DisciplineSummary {
                discipline: "WFQ\"evil".to_string(),
                links: 1,
                mean_utilization: 0.83,
                mean_realtime_utilization: 0.8,
                drops: 2,
                packets_sent: 98,
            }],
            signaling: Some(SignalingSummary {
                accepted: 3,
                rejected: 1,
                decisions: vec![true, true, false, true],
                pending: 0,
            }),
            telemetry: None,
        };
        let json = report.to_wire_json();
        let decoded = ScenarioReport::from_wire_json(&JsonValue::parse(&json).unwrap()).unwrap();
        // The byte-identity surface: re-encoding the decoded report
        // reproduces the original document exactly (NaN → null → NaN).
        assert_eq!(decoded.to_wire_json(), json);

        // A telemetry-bearing report round-trips the block too.
        let with_telemetry = ScenarioReport {
            telemetry: Some(RunTelemetry {
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
                events_per_sec: 4936.0,
            }),
            ..report.clone()
        };
        let json = with_telemetry.to_wire_json();
        let decoded = ScenarioReport::from_wire_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(decoded.to_wire_json(), json);
        assert_eq!(decoded.telemetry, with_telemetry.telemetry);

        // And a signaling-free report keeps its null.
        let bare = ScenarioReport {
            signaling: None,
            classes: Vec::new(),
            ..report
        };
        let json = bare.to_wire_json();
        let decoded = ScenarioReport::from_wire_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(decoded.to_wire_json(), json);
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
