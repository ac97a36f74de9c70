//! The JSON wire protocol between players and the Prediction Engine.
//!
//! Mirrors §6 of the paper: before requesting each chunk the player POSTs
//! the measured throughput of the last epoch and gets back the throughput
//! prediction; on startup it can instead fetch its cluster's model and
//! predict locally (the client-side deployment of §5.3). Completed
//! sessions POST a QoE log.
//!
//! Endpoints:
//! - `POST /predict` — [`PredictRequest`] → [`PredictResponse`]
//! - `POST /predict_batch` — [`BatchPredictRequest`] → [`BatchPredictResponse`]
//! - `GET /model?features=a,b,c` — [`cs2p_core::ClientModel`] JSON
//! - `POST /log` — [`SessionLog`] (stored server-side)
//! - `GET /logs` — all stored [`SessionLog`]s
//! - `GET /healthz` — liveness + counters

use serde::{Deserialize, Serialize};

/// Upper bound on entries per [`BatchPredictRequest`]. Frames above this
/// are rejected whole with a 400 — the cap keeps one peer from pinning a
/// worker (and several shard locks) for an unbounded stretch.
pub const MAX_BATCH_ENTRIES: usize = 1024;

/// Checks the value is a JSON object (for hand-written `Deserialize`).
fn expect_object(v: &serde::Value, ty: &str) -> Result<(), serde::DeError> {
    match v {
        serde::Value::Object(_) => Ok(()),
        other => Err(serde::DeError::expected(ty, other)),
    }
}

/// Fetches and parses a mandatory field (hand-written `Deserialize`).
fn required<T: Deserialize>(v: &serde::Value, key: &str, ty: &str) -> Result<T, serde::DeError> {
    T::from_value(
        v.get(key)
            .ok_or_else(|| serde::DeError(format!("missing field `{key}` in {ty}")))?,
    )
}

/// Fetches an optional field: missing or `null` parses as `None`.
fn optional<T: Deserialize>(v: &serde::Value, key: &str) -> Result<Option<T>, serde::DeError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => Option::<T>::from_value(x),
    }
}

/// A prediction request. The first request of a session carries
/// `features` and no measurement; subsequent ones carry the last epoch's
/// measured throughput.
///
/// `Serialize`/`Deserialize` are hand-written (not derived) so the two
/// `Option` fields are omitted from the wire when `None` — batch frames
/// carry dozens of these, and `"features":null` per entry is pure hot-path
/// weight. A missing field parses back as `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictRequest {
    /// Client-chosen session identifier (unique per video session).
    pub session_id: u64,
    /// Session features, aligned with the engine's schema. Required on the
    /// first request; ignored afterwards.
    pub features: Option<Vec<u32>>,
    /// Measured throughput of the last epoch, Mbps. Absent on the first
    /// request (Algorithm 1's initial epoch).
    pub measured_mbps: Option<f64>,
    /// How many epochs ahead to predict (≥ 1).
    pub horizon: usize,
}

impl Serialize for PredictRequest {
    fn to_value(&self) -> serde::Value {
        let mut fields = Vec::with_capacity(4);
        fields.push(("session_id".to_string(), self.session_id.to_value()));
        if self.features.is_some() {
            fields.push(("features".to_string(), self.features.to_value()));
        }
        if self.measured_mbps.is_some() {
            fields.push(("measured_mbps".to_string(), self.measured_mbps.to_value()));
        }
        fields.push(("horizon".to_string(), self.horizon.to_value()));
        serde::Value::Object(fields)
    }
}

impl Deserialize for PredictRequest {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        expect_object(v, "PredictRequest")?;
        Ok(PredictRequest {
            session_id: required(v, "session_id", "PredictRequest")?,
            features: optional(v, "features")?,
            measured_mbps: optional(v, "measured_mbps")?,
            horizon: required(v, "horizon", "PredictRequest")?,
        })
    }
}

/// Degraded-service provenance of a prediction (see the server's
/// admission ladder, `DESIGN.md` §3g). Absent from the wire at full
/// service, so Full-level responses are byte-identical to an unloaded
/// server's — the differential gate the overload suite holds the ladder
/// to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Degradation {
    /// Served from the session's cluster prior (initial median); the
    /// per-session filter was neither consulted nor updated.
    Degraded,
    /// Served from the harmonic mean of the session's own recent
    /// measurements — the paper's HM baseline — with no model access.
    Fallback,
}

impl Degradation {
    /// Stable lowercase wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Degradation::Degraded => "degraded",
            Degradation::Fallback => "fallback",
        }
    }
}

impl Serialize for Degradation {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for Degradation {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match String::from_value(v)?.as_str() {
            "degraded" => Ok(Degradation::Degraded),
            "fallback" => Ok(Degradation::Fallback),
            other => Err(serde::DeError(format!(
                "unknown degradation level `{other}`"
            ))),
        }
    }
}

/// A prediction response.
///
/// Like [`PredictRequest`], serde impls are hand-written: the
/// `degradation` field must stay off the wire when absent so a
/// Full-level response serializes to exactly the bytes it did before the
/// admission ladder existed.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictResponse {
    /// Predictions for the next `horizon` epochs, Mbps.
    pub predictions_mbps: Vec<f64>,
    /// True when this is the session's initial (cluster-median) prediction.
    pub initial: bool,
    /// Number of sessions in the cluster backing this prediction.
    pub cluster_sessions: usize,
    /// True when the session matched a cluster model at registration;
    /// false means it is served by the global fallback (§4.2's minimum
    /// cluster-size rule). Constant for the session's lifetime; the
    /// server's quality monitor keys its APE sketches on it.
    pub cluster_hit: bool,
    /// Version of the model that produced this prediction (see
    /// [`cs2p_core::ModelVersion`]). A session is pinned to the version it
    /// registered on, so this stays constant for the session's lifetime
    /// even while the server hot-swaps newer models underneath.
    pub model_version: u64,
    /// Present exactly when the server answered below full service (the
    /// admission ladder's Degraded or Fallback level). `None` — and off
    /// the wire — at full service.
    pub degradation: Option<Degradation>,
}

impl Serialize for PredictResponse {
    fn to_value(&self) -> serde::Value {
        let mut fields = Vec::with_capacity(6);
        fields.push((
            "predictions_mbps".to_string(),
            self.predictions_mbps.to_value(),
        ));
        fields.push(("initial".to_string(), self.initial.to_value()));
        fields.push((
            "cluster_sessions".to_string(),
            self.cluster_sessions.to_value(),
        ));
        fields.push(("cluster_hit".to_string(), self.cluster_hit.to_value()));
        fields.push(("model_version".to_string(), self.model_version.to_value()));
        if self.degradation.is_some() {
            fields.push(("degradation".to_string(), self.degradation.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for PredictResponse {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        expect_object(v, "PredictResponse")?;
        Ok(PredictResponse {
            predictions_mbps: required(v, "predictions_mbps", "PredictResponse")?,
            initial: required(v, "initial", "PredictResponse")?,
            cluster_sessions: required(v, "cluster_sessions", "PredictResponse")?,
            cluster_hit: required(v, "cluster_hit", "PredictResponse")?,
            model_version: required(v, "model_version", "PredictResponse")?,
            degradation: optional(v, "degradation")?,
        })
    }
}

/// A batched prediction request: many independent `(session, measurement)`
/// entries in one HTTP frame. The server groups entries by session-store
/// shard, takes each shard lock once, and answers every entry with its own
/// status — one evicted session (per-entry 404) cannot fail the batch.
/// Entries for the same session are processed in frame order, so a batch
/// is semantically identical to sending its entries as sequential
/// `POST /predict` requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchPredictRequest {
    /// The per-session prediction requests, in arrival order. Must be
    /// non-empty and at most [`MAX_BATCH_ENTRIES`] long.
    pub entries: Vec<PredictRequest>,
}

/// One entry's outcome inside a [`BatchPredictResponse`].
///
/// Like [`PredictRequest`], serde impls are hand-written so `None` fields
/// stay off the wire: a 64-entry frame is serialized and parsed on the
/// hot path, and `"error":null` per successful entry is dead weight.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchEntryResult {
    /// Per-entry status, mirroring what the singleton `/predict` endpoint
    /// would have answered: 200 (prediction), 400 (invalid entry), or
    /// 404 (unknown/evicted session — re-register with features).
    pub status: u16,
    /// The prediction; present exactly when `status == 200`.
    pub response: Option<PredictResponse>,
    /// Error message; present exactly when `status != 200`.
    pub error: Option<String>,
}

impl Serialize for BatchEntryResult {
    fn to_value(&self) -> serde::Value {
        let mut fields = Vec::with_capacity(3);
        fields.push(("status".to_string(), self.status.to_value()));
        if self.response.is_some() {
            fields.push(("response".to_string(), self.response.to_value()));
        }
        if self.error.is_some() {
            fields.push(("error".to_string(), self.error.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for BatchEntryResult {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        expect_object(v, "BatchEntryResult")?;
        Ok(BatchEntryResult {
            status: required(v, "status", "BatchEntryResult")?,
            response: optional(v, "response")?,
            error: optional(v, "error")?,
        })
    }
}

impl BatchEntryResult {
    /// A successful entry.
    pub fn ok(response: PredictResponse) -> Self {
        BatchEntryResult {
            status: 200,
            response: Some(response),
            error: None,
        }
    }

    /// A failed entry with the singleton endpoint's status and message.
    pub fn failed(status: u16, error: &str) -> Self {
        BatchEntryResult {
            status,
            response: None,
            error: Some(error.to_string()),
        }
    }
}

/// The response to a [`BatchPredictRequest`]: one [`BatchEntryResult`]
/// per entry, in the same order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchPredictResponse {
    /// Per-entry outcomes, aligned with the request's `entries`.
    pub results: Vec<BatchEntryResult>,
}

// ---------------------------------------------------------------------------
// Direct JSON writers for the prediction messages
// ---------------------------------------------------------------------------
//
// The vendored serde layer serializes through a `Value` tree: every field
// key is a heap `String` and every entry an `Object` node, which for a
// 64-entry frame is thousands of allocations per request. The writers
// below render the same bytes the generic path produces (asserted in
// `fast_writers_match_the_generic_serializer` and by proptest coverage)
// straight into one preallocated buffer.

/// Slots in the per-thread float-text memo (direct-mapped; a power of two).
const F64_MEMO_SLOTS: usize = 1024;
/// Longest float text a memo slot holds; longer texts are written, not kept.
const F64_MEMO_TEXT: usize = 23;

/// One memo slot: the text `write_json_f64` produced for the float whose
/// bits are `bits`.
#[derive(Clone, Copy)]
struct MemoSlot {
    bits: u64,
    len: u8,
    text: [u8; F64_MEMO_TEXT],
}

impl MemoSlot {
    /// `bits` of an empty slot: a NaN, and non-finite floats never reach
    /// the memo, so no lookup matches it.
    const EMPTY: MemoSlot = MemoSlot {
        bits: u64::MAX,
        len: 0,
        text: [0; F64_MEMO_TEXT],
    };
}

thread_local! {
    /// Served predictions repeat: at full service each is a state mean
    /// `emissions[argmax].mean()` or a model's `initial_median`, a few
    /// hundred distinct values per engine. Remembering the text of recent
    /// bits skips most `Display` calls, and a hit copies exactly the bytes
    /// `Display` wrote for those bits. Allocated on a thread's first float.
    static F64_MEMO: std::cell::RefCell<Box<[MemoSlot]>> =
        std::cell::RefCell::new(vec![MemoSlot::EMPTY; F64_MEMO_SLOTS].into_boxed_slice());
}

/// Writes `f` exactly as the vendored `serde_json` writer does: shortest
/// round-trip `Display`, `.0` appended to integral values, `null` for
/// non-finite floats. Finite values go through the per-thread memo.
fn write_json_f64(out: &mut String, f: f64) {
    use std::fmt::Write;
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    let bits = f.to_bits();
    F64_MEMO.with(|memo| {
        let mut memo = memo.borrow_mut();
        // Fibonacci hashing: the top bits of the product index the table.
        let index = bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - F64_MEMO_SLOTS.ilog2());
        let slot = &mut memo[index as usize];
        if slot.bits == bits {
            if let Ok(text) = std::str::from_utf8(&slot.text[..slot.len as usize]) {
                out.push_str(text);
                return;
            }
        }
        let start = out.len();
        let _ = write!(out, "{f}");
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
        let text = &out.as_bytes()[start..];
        if text.len() <= F64_MEMO_TEXT {
            slot.bits = bits;
            slot.len = text.len() as u8;
            slot.text[..text.len()].copy_from_slice(text);
        }
    });
}

/// Writes `s` as a JSON string with the vendored writer's escaping.
fn write_json_str(out: &mut String, s: &str) {
    use std::fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl PredictRequest {
    /// Serializes the request straight to bytes, bypassing the `Value`
    /// tree. Byte-identical to `serde_json::to_vec(self)`.
    pub fn to_json_bytes(&self) -> Vec<u8> {
        let mut out = String::with_capacity(96);
        self.write_json(&mut out);
        out.into_bytes()
    }

    fn write_json(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = write!(out, "{{\"session_id\":{}", self.session_id);
        if let Some(features) = &self.features {
            out.push_str(",\"features\":[");
            for (k, f) in features.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{f}");
            }
            out.push(']');
        }
        if let Some(m) = self.measured_mbps {
            out.push_str(",\"measured_mbps\":");
            write_json_f64(out, m);
        }
        let _ = write!(out, ",\"horizon\":{}}}", self.horizon);
    }
}

impl BatchPredictRequest {
    /// Serializes the frame straight to bytes, bypassing the `Value`
    /// tree. Byte-identical to `serde_json::to_vec(self)`.
    pub fn to_json_bytes(&self) -> Vec<u8> {
        let mut out = String::with_capacity(16 + self.entries.len() * 96);
        out.push_str("{\"entries\":[");
        for (k, entry) in self.entries.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            entry.write_json(&mut out);
        }
        out.push_str("]}");
        out.into_bytes()
    }
}

impl PredictResponse {
    /// Serializes the response straight to bytes, bypassing the `Value`
    /// tree. Byte-identical to `serde_json::to_vec(self)`.
    pub fn to_json_bytes(&self) -> Vec<u8> {
        let mut out = String::with_capacity(128);
        self.write_json(&mut out);
        out.into_bytes()
    }

    fn write_json(&self, out: &mut String) {
        use std::fmt::Write;
        out.push_str("{\"predictions_mbps\":[");
        for (k, p) in self.predictions_mbps.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            write_json_f64(out, *p);
        }
        let _ = write!(
            out,
            "],\"initial\":{},\"cluster_sessions\":{},\"cluster_hit\":{},\"model_version\":{}",
            self.initial, self.cluster_sessions, self.cluster_hit, self.model_version
        );
        if let Some(d) = self.degradation {
            out.push_str(",\"degradation\":");
            write_json_str(out, d.as_str());
        }
        out.push('}');
    }
}

impl BatchEntryResult {
    fn write_json(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = write!(out, "{{\"status\":{}", self.status);
        if let Some(resp) = &self.response {
            out.push_str(",\"response\":");
            resp.write_json(out);
        }
        if let Some(err) = &self.error {
            out.push_str(",\"error\":");
            write_json_str(out, err);
        }
        out.push('}');
    }
}

impl BatchPredictResponse {
    /// Serializes the frame straight to bytes, bypassing the `Value`
    /// tree. Byte-identical to `serde_json::to_vec(self)`.
    pub fn to_json_bytes(&self) -> Vec<u8> {
        let mut out = String::with_capacity(16 + self.results.len() * 160);
        out.push_str("{\"results\":[");
        for (k, result) in self.results.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            result.write_json(&mut out);
        }
        out.push_str("]}");
        out.into_bytes()
    }
}

// ---------------------------------------------------------------------------
// Direct JSON reader for the prediction messages
// ---------------------------------------------------------------------------
//
// The twin of the writers above: a pull reader over the body bytes that
// types each field as it passes, with no `Value` tree, no key `String`s
// and no field `Vec`s. Its contract is `serde_json::from_slice`, that is
// the vendored parser followed by the `Deserialize` impls in this module:
// the same bodies are accepted with the same result, and every other body
// is refused.
//
// Grammar, as the vendored parser reads it: the body is UTF-8 as a whole;
// whitespace (space, tab, CR, LF) may surround any token; objects and
// arrays take no trailing comma; strings take the escapes `\" \\ \/ \b
// \f \n \r \t \uXXXX` (surrogates only in pairs) and no raw control
// characters; values nest at most 128 deep, skipped values included.
//
// Typing, as the `Deserialize` impls type it: keys may come in any order
// and are matched after unescaping; an unknown key's value is checked and
// skipped; for a repeated key the first occurrence wins, as `Value::get`
// finds it; `null` or absence makes an optional field `None`, and `null`
// inside `predictions_mbps` is NaN; integer fields take integer tokens in
// range and refuse float tokens; float fields take any number, integer
// tokens through `i64`/`u64` and an `as` cast (so `-0` reads as `+0.0`).
//
// `wire_codec_matches_serde_oracle` and
// `wire_codec_depth_limit_matches_serde_oracle` in
// `tests/protocol_props.rs` hold the reader to this contract with
// `serde_json::from_slice` as the oracle.

/// Why a direct read ([`PredictRequest::from_json_bytes`] and its
/// siblings) refused a body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// A body `serde_json::from_slice` also refuses: not UTF-8, not JSON,
    /// a missing or mistyped field, or an integer out of range.
    Malformed,
    /// A [`BatchPredictRequest`] with more than [`MAX_BATCH_ENTRIES`]
    /// entries. Reading stops at the first entry past the cap, so the rest
    /// of the frame is neither built nor checked.
    TooLarge,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DecodeError::Malformed => "malformed message",
            DecodeError::TooLarge => "batch too large",
        })
    }
}

impl std::error::Error for DecodeError {}

type Decoded<T> = Result<T, DecodeError>;

/// Nesting limit of the vendored parser: a value deeper than this is an
/// error even inside a skipped field.
const MAX_DEPTH: usize = 128;

/// Longest field or enum name the reader matches.
const NAME_CAP: usize = 16;

const PREDICT_REQUEST_FIELDS: [&str; 4] = ["session_id", "features", "measured_mbps", "horizon"];
const PREDICT_RESPONSE_FIELDS: [&str; 6] = [
    "predictions_mbps",
    "initial",
    "cluster_sessions",
    "cluster_hit",
    "model_version",
    "degradation",
];
const BATCH_ENTRY_RESULT_FIELDS: [&str; 3] = ["status", "response", "error"];
const DEGRADATIONS: [&str; 2] = ["degraded", "fallback"];

/// A JSON number classified as the vendored parser classifies it.
enum Num {
    Int(i64),
    UInt(u64),
    Float(f64),
}

/// Where decoded string text goes.
trait Sink {
    fn push_str(&mut self, s: &str);
    fn push(&mut self, c: char) {
        self.push_str(c.encode_utf8(&mut [0; 4]));
    }
}

impl Sink for String {
    fn push_str(&mut self, s: &str) {
        String::push_str(self, s);
    }
}

/// Discards the text (a skipped value is checked, not kept).
impl Sink for () {
    fn push_str(&mut self, _: &str) {}
}

/// A name decoded on the stack; `len` past [`NAME_CAP`] marks one too
/// long to match anything.
#[derive(Default)]
struct NameBuf {
    buf: [u8; NAME_CAP],
    len: usize,
}

impl Sink for NameBuf {
    fn push_str(&mut self, s: &str) {
        let end = self.len + s.len();
        if end <= NAME_CAP {
            self.buf[self.len..end].copy_from_slice(s.as_bytes());
        }
        self.len = end;
    }
}

/// Marks field `k` seen, returning whether this is its first occurrence —
/// the one `Value::get` returns, so later duplicates are only checked.
fn first_seen(seen: &mut u8, k: usize) -> bool {
    let fresh = *seen & (1 << k) == 0;
    *seen |= 1 << k;
    fresh
}

struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reads a whole body with `read`: the body must be UTF-8, and only
    /// whitespace may follow the value.
    fn body<T>(bytes: &'a [u8], read: impl FnOnce(&mut Self) -> Decoded<T>) -> Decoded<T> {
        let text = std::str::from_utf8(bytes).map_err(|_| DecodeError::Malformed)?;
        let mut r = Reader {
            text,
            bytes,
            pos: 0,
        };
        let value = read(&mut r)?;
        r.skip_ws();
        if r.pos == bytes.len() {
            Ok(value)
        } else {
            Err(DecodeError::Malformed)
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    /// The next non-whitespace byte, not consumed.
    fn peek(&mut self) -> Decoded<u8> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or(DecodeError::Malformed)
    }

    fn expect(&mut self, b: u8) -> Decoded<()> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(DecodeError::Malformed)
        }
    }

    fn keyword(&mut self, kw: &[u8]) -> Decoded<()> {
        if self.bytes[self.pos..].starts_with(kw) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(DecodeError::Malformed)
        }
    }

    /// Consumes a `null` token if one is next.
    fn null(&mut self) -> Decoded<bool> {
        if self.peek()? == b'n' {
            self.keyword(b"null")?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// `null` as `None`, anything else through `read`.
    fn opt<T>(&mut self, read: impl FnOnce(&mut Self) -> Decoded<T>) -> Decoded<Option<T>> {
        if self.null()? {
            Ok(None)
        } else {
            read(self).map(Some)
        }
    }

    fn bool(&mut self) -> Decoded<bool> {
        match self.peek()? {
            b't' => self.keyword(b"true").map(|()| true),
            b'f' => self.keyword(b"false").map(|()| false),
            _ => Err(DecodeError::Malformed),
        }
    }

    /// A number token, scanned and classified exactly as the vendored
    /// parser does: `i64`, then `u64` for tokens with no `.eE+-` past the
    /// sign, else `f64`.
    fn number(&mut self) -> Decoded<Num> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Num::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Num::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Num::Float)
            .map_err(|_| DecodeError::Malformed)
    }

    /// An unsigned integer no larger than `max`. Float tokens are refused
    /// even when integral, as the integer `Deserialize` impls refuse them.
    fn uint(&mut self, max: u64) -> Decoded<u64> {
        if !matches!(self.peek()?, b'-' | b'0'..=b'9') {
            return Err(DecodeError::Malformed);
        }
        match self.number()? {
            Num::Int(i) if i >= 0 && i as u64 <= max => Ok(i as u64),
            Num::UInt(u) if u <= max => Ok(u),
            _ => Err(DecodeError::Malformed),
        }
    }

    /// A float: any number token (integers through an `as` cast, so `-0`
    /// reads as `+0.0`), or `null` as NaN.
    fn f64(&mut self) -> Decoded<f64> {
        match self.peek()? {
            b'n' => self.keyword(b"null").map(|()| f64::NAN),
            b'-' | b'0'..=b'9' => Ok(match self.number()? {
                Num::Int(i) => i as f64,
                Num::UInt(u) => u as f64,
                Num::Float(f) => f,
            }),
            _ => Err(DecodeError::Malformed),
        }
    }

    /// A string token, decoded into `out`.
    fn string_into(&mut self, out: &mut impl Sink) -> Decoded<()> {
        self.expect(b'"')?;
        loop {
            let run = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // Runs start and end at ASCII bytes, so they are char-aligned.
            out.push_str(&self.text[run..self.pos]);
            let b = *self.bytes.get(self.pos).ok_or(DecodeError::Malformed)?;
            self.pos += 1;
            match b {
                b'"' => return Ok(()),
                b'\\' => out.push(self.escape()?),
                _ => return Err(DecodeError::Malformed),
            }
        }
    }

    /// The character of an escape whose backslash was just consumed.
    fn escape(&mut self) -> Decoded<char> {
        let esc = *self.bytes.get(self.pos).ok_or(DecodeError::Malformed)?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0C}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let first = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&first) {
                    // A high surrogate needs an escaped low one next.
                    if !self.bytes[self.pos..].starts_with(b"\\u") {
                        return Err(DecodeError::Malformed);
                    }
                    self.pos += 2;
                    let second = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&second) {
                        return Err(DecodeError::Malformed);
                    }
                    0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                } else if (0xDC00..0xE000).contains(&first) {
                    return Err(DecodeError::Malformed);
                } else {
                    first
                };
                char::from_u32(code).ok_or(DecodeError::Malformed)?
            }
            _ => return Err(DecodeError::Malformed),
        })
    }

    /// Four hex digits, read with `from_str_radix` as the vendored parser
    /// reads them.
    fn hex4(&mut self) -> Decoded<u32> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or(DecodeError::Malformed)?;
        let digits = std::str::from_utf8(chunk).map_err(|_| DecodeError::Malformed)?;
        let v = u32::from_str_radix(digits, 16).map_err(|_| DecodeError::Malformed)?;
        self.pos += 4;
        Ok(v)
    }

    /// A string token, returned as its index in `names` (`None` when it
    /// names none of them). Unescaped text is matched in place.
    fn name(&mut self, names: &[&str]) -> Decoded<Option<usize>> {
        if self.peek()? != b'"' {
            return Err(DecodeError::Malformed);
        }
        let start = self.pos + 1;
        let end = self.bytes[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .map(|len| start + len);
        if let Some(end) = end.filter(|&end| self.bytes[end] == b'"') {
            self.pos = end + 1;
            let raw = &self.bytes[start..end];
            return Ok(names.iter().position(|n| n.as_bytes() == raw));
        }
        let mut name = NameBuf::default();
        self.string_into(&mut name)?;
        let decoded = name.buf.get(..name.len);
        Ok(decoded.and_then(|d| names.iter().position(|n| n.as_bytes() == d)))
    }

    /// Walks an object, handing `field` each key's index in `names` (or
    /// `None`) with the reader positioned at that key's value.
    fn object(
        &mut self,
        names: &[&str],
        mut field: impl FnMut(&mut Self, Option<usize>) -> Decoded<()>,
    ) -> Decoded<()> {
        self.expect(b'{')?;
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let k = self.name(names)?;
            self.expect(b':')?;
            field(self, k)?;
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(DecodeError::Malformed),
            }
        }
    }

    /// Walks an array, calling `item` with the reader positioned at each
    /// element.
    fn array(&mut self, mut item: impl FnMut(&mut Self) -> Decoded<()>) -> Decoded<()> {
        self.expect(b'[')?;
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(DecodeError::Malformed),
            }
        }
    }

    /// An array read element by element with `read`.
    fn vec<T>(&mut self, mut read: impl FnMut(&mut Self) -> Decoded<T>) -> Decoded<Vec<T>> {
        let mut v = Vec::new();
        self.array(|r| {
            v.push(read(r)?);
            Ok(())
        })?;
        Ok(v)
    }

    /// Checks and discards any value at nesting `depth`.
    fn skip(&mut self, depth: usize) -> Decoded<()> {
        if depth > MAX_DEPTH {
            return Err(DecodeError::Malformed);
        }
        match self.peek()? {
            b'n' => self.keyword(b"null"),
            b't' => self.keyword(b"true"),
            b'f' => self.keyword(b"false"),
            b'"' => self.string_into(&mut ()),
            b'[' => self.array(|r| r.skip(depth + 1)),
            b'{' => self.object(&[], |r, _| r.skip(depth + 1)),
            b'-' | b'0'..=b'9' => self.number().map(drop),
            _ => Err(DecodeError::Malformed),
        }
    }
}

impl PredictRequest {
    /// Parses a request body without the `Value` tree. Accepts exactly
    /// what `serde_json::from_slice::<PredictRequest>` accepts, with the
    /// same result.
    pub fn from_json_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        Reader::body(bytes, |r| Self::read(r, 0))
    }

    /// Reads the object at nesting `depth`.
    fn read(r: &mut Reader<'_>, depth: usize) -> Decoded<Self> {
        let (mut session_id, mut features, mut measured_mbps, mut horizon) =
            (None, None, None, None);
        let mut seen = 0u8;
        r.object(&PREDICT_REQUEST_FIELDS, |r, k| match k {
            Some(k) if first_seen(&mut seen, k) => {
                match k {
                    0 => session_id = Some(r.uint(u64::MAX)?),
                    1 => features = r.opt(|r| r.vec(|r| Ok(r.uint(u32::MAX.into())? as u32)))?,
                    2 => measured_mbps = r.opt(Reader::f64)?,
                    _ => horizon = Some(r.uint(usize::MAX as u64)? as usize),
                }
                Ok(())
            }
            _ => r.skip(depth + 1),
        })?;
        Ok(PredictRequest {
            session_id: session_id.ok_or(DecodeError::Malformed)?,
            features,
            measured_mbps,
            horizon: horizon.ok_or(DecodeError::Malformed)?,
        })
    }
}

impl BatchPredictRequest {
    /// Parses a batch frame without the `Value` tree. Accepts exactly what
    /// `serde_json::from_slice::<BatchPredictRequest>` accepts, with the
    /// same result — except that a frame over [`MAX_BATCH_ENTRIES`]
    /// entries is refused as [`DecodeError::TooLarge`] at the first entry
    /// past the cap.
    pub fn from_json_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        Reader::body(bytes, |r| {
            let mut entries = None;
            r.object(&["entries"], |r, k| {
                if k.is_none() || entries.is_some() {
                    return r.skip(1);
                }
                let mut v = Vec::with_capacity((bytes.len() / 64).min(MAX_BATCH_ENTRIES));
                r.array(|r| {
                    if v.len() == MAX_BATCH_ENTRIES {
                        return Err(DecodeError::TooLarge);
                    }
                    v.push(PredictRequest::read(r, 2)?);
                    Ok(())
                })?;
                entries = Some(v);
                Ok(())
            })?;
            Ok(BatchPredictRequest {
                entries: entries.ok_or(DecodeError::Malformed)?,
            })
        })
    }
}

impl PredictResponse {
    /// Parses a response body without the `Value` tree. Accepts exactly
    /// what `serde_json::from_slice::<PredictResponse>` accepts, with the
    /// same result.
    pub fn from_json_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        Reader::body(bytes, |r| Self::read(r, 0))
    }

    /// Reads the object at nesting `depth`.
    fn read(r: &mut Reader<'_>, depth: usize) -> Decoded<Self> {
        let mut predictions_mbps = None;
        let (mut initial, mut cluster_sessions, mut cluster_hit) = (None, None, None);
        let (mut model_version, mut degradation) = (None, None);
        let mut seen = 0u8;
        r.object(&PREDICT_RESPONSE_FIELDS, |r, k| match k {
            Some(k) if first_seen(&mut seen, k) => {
                match k {
                    0 => predictions_mbps = Some(r.vec(Reader::f64)?),
                    1 => initial = Some(r.bool()?),
                    2 => cluster_sessions = Some(r.uint(usize::MAX as u64)? as usize),
                    3 => cluster_hit = Some(r.bool()?),
                    4 => model_version = Some(r.uint(u64::MAX)?),
                    _ => {
                        degradation = r.opt(|r| match r.name(&DEGRADATIONS)? {
                            Some(0) => Ok(Degradation::Degraded),
                            Some(1) => Ok(Degradation::Fallback),
                            _ => Err(DecodeError::Malformed),
                        })?
                    }
                }
                Ok(())
            }
            _ => r.skip(depth + 1),
        })?;
        let missing = DecodeError::Malformed;
        Ok(PredictResponse {
            predictions_mbps: predictions_mbps.ok_or(missing)?,
            initial: initial.ok_or(missing)?,
            cluster_sessions: cluster_sessions.ok_or(missing)?,
            cluster_hit: cluster_hit.ok_or(missing)?,
            model_version: model_version.ok_or(missing)?,
            degradation,
        })
    }
}

impl BatchEntryResult {
    /// Reads the object at nesting `depth`.
    fn read(r: &mut Reader<'_>, depth: usize) -> Decoded<Self> {
        let (mut status, mut response, mut error) = (None, None, None);
        let mut seen = 0u8;
        r.object(&BATCH_ENTRY_RESULT_FIELDS, |r, k| match k {
            Some(k) if first_seen(&mut seen, k) => {
                match k {
                    0 => status = Some(r.uint(u16::MAX.into())? as u16),
                    1 => response = r.opt(|r| PredictResponse::read(r, depth + 1))?,
                    _ => {
                        error = r.opt(|r| {
                            let mut s = String::new();
                            r.string_into(&mut s)?;
                            Ok(s)
                        })?
                    }
                }
                Ok(())
            }
            _ => r.skip(depth + 1),
        })?;
        Ok(BatchEntryResult {
            status: status.ok_or(DecodeError::Malformed)?,
            response,
            error,
        })
    }
}

impl BatchPredictResponse {
    /// Parses a batch response without the `Value` tree. Accepts exactly
    /// what `serde_json::from_slice::<BatchPredictResponse>` accepts, with
    /// the same result.
    pub fn from_json_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        Reader::body(bytes, |r| {
            let mut results = None;
            r.object(&["results"], |r, k| {
                if k.is_none() || results.is_some() {
                    return r.skip(1);
                }
                results = Some(r.vec(|r| BatchEntryResult::read(r, 2))?);
                Ok(())
            })?;
            Ok(BatchPredictResponse {
                results: results.ok_or(DecodeError::Malformed)?,
            })
        })
    }
}

/// The per-session log a player uploads when playback ends (§6: "log
/// information including QoE, bitrates, rebuffer time, startup delay,
/// predicted/actual throughput and bitrate adaptation strategy").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionLog {
    /// Session identifier.
    pub session_id: u64,
    /// Adaptation strategy name (e.g. `"CS2P+MPC"`).
    pub strategy: String,
    /// Final QoE value.
    pub qoe: f64,
    /// Average bitrate, kbps.
    pub avg_bitrate_kbps: f64,
    /// Fraction of chunks without rebuffering.
    pub good_ratio: f64,
    /// Total rebuffer time, seconds.
    pub rebuffer_seconds: f64,
    /// Startup delay, seconds.
    pub startup_delay_seconds: f64,
    /// Per-chunk `(predicted, actual)` throughput, Mbps; `predicted` may
    /// be missing for methods without an initial prediction.
    pub throughput_pairs: Vec<(Option<f64>, f64)>,
    /// Bitrate chosen per chunk, kbps.
    pub bitrates_kbps: Vec<f64>,
}

/// Per-strategy aggregate over the uploaded session logs — what the
/// paper's operators read off their log server to compare CS2P+MPC
/// against HM+MPC in the §7.5 pilot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyStats {
    /// Strategy label the sessions reported.
    pub strategy: String,
    /// Number of sessions.
    pub n_sessions: usize,
    /// Mean QoE.
    pub mean_qoe: f64,
    /// Mean average bitrate, kbps.
    pub mean_bitrate_kbps: f64,
    /// Mean fraction of stall-free chunks.
    pub mean_good_ratio: f64,
    /// Mean total rebuffer time, seconds.
    pub mean_rebuffer_seconds: f64,
    /// Mean startup delay, seconds.
    pub mean_startup_seconds: f64,
}

/// `GET /stats` payload: one row per strategy seen in the logs, sorted by
/// strategy name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogStats {
    /// Aggregates per strategy.
    pub strategies: Vec<StrategyStats>,
}

impl LogStats {
    /// Computes the aggregates from raw logs.
    pub fn from_logs(logs: &[SessionLog]) -> Self {
        use std::collections::BTreeMap;
        let mut groups: BTreeMap<&str, Vec<&SessionLog>> = BTreeMap::new();
        for log in logs {
            groups.entry(log.strategy.as_str()).or_default().push(log);
        }
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let strategies = groups
            .into_iter()
            .map(|(strategy, logs)| StrategyStats {
                strategy: strategy.to_string(),
                n_sessions: logs.len(),
                mean_qoe: mean(&logs.iter().map(|l| l.qoe).collect::<Vec<_>>()),
                mean_bitrate_kbps: mean(
                    &logs.iter().map(|l| l.avg_bitrate_kbps).collect::<Vec<_>>(),
                ),
                mean_good_ratio: mean(&logs.iter().map(|l| l.good_ratio).collect::<Vec<_>>()),
                mean_rebuffer_seconds: mean(
                    &logs.iter().map(|l| l.rebuffer_seconds).collect::<Vec<_>>(),
                ),
                mean_startup_seconds: mean(
                    &logs
                        .iter()
                        .map(|l| l.startup_delay_seconds)
                        .collect::<Vec<_>>(),
                ),
            })
            .collect();
        LogStats { strategies }
    }
}

/// Health/counters payload for `GET /healthz`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Health {
    /// Always `"ok"`.
    pub status: String,
    /// Cluster models loaded.
    pub n_models: usize,
    /// Live sessions in the server's table.
    pub n_sessions: usize,
    /// Predictions served since start.
    pub predictions_served: u64,
    /// Session logs stored.
    pub n_logs: usize,
}

/// Parses the `features=` query parameter of `GET /model`.
pub fn parse_features_query(path: &str) -> Option<Vec<u32>> {
    let query = path.split_once('?')?.1;
    for pair in query.split('&') {
        if let Some(value) = pair.strip_prefix("features=") {
            let mut out = Vec::new();
            for tok in value.split(',') {
                out.push(tok.parse().ok()?);
            }
            return Some(out);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predict_request_roundtrip() {
        let req = PredictRequest {
            session_id: 7,
            features: Some(vec![1, 2, 3]),
            measured_mbps: None,
            horizon: 5,
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: PredictRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(req, back);
    }

    #[test]
    fn predict_response_roundtrip() {
        let mut resp = PredictResponse {
            predictions_mbps: vec![1.5, 1.4, 1.4],
            initial: false,
            cluster_sessions: 250,
            cluster_hit: true,
            model_version: 3,
            degradation: None,
        };
        let json = serde_json::to_string(&resp).unwrap();
        // Full service keeps the provenance field off the wire entirely:
        // the bytes are what a pre-ladder server produced.
        assert!(!json.contains("degradation"), "{json}");
        let back: PredictResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(resp, back);

        for (d, name) in [
            (Degradation::Degraded, "\"degradation\":\"degraded\""),
            (Degradation::Fallback, "\"degradation\":\"fallback\""),
        ] {
            resp.degradation = Some(d);
            let json = serde_json::to_string(&resp).unwrap();
            assert!(json.contains(name), "{json}");
            let back: PredictResponse = serde_json::from_str(&json).unwrap();
            assert_eq!(resp, back);
        }

        assert!(
            serde_json::from_str::<PredictResponse>(
                r#"{"predictions_mbps":[1.0],"initial":false,"cluster_sessions":1,
                    "cluster_hit":true,"model_version":1,"degradation":"bogus"}"#,
            )
            .is_err(),
            "unknown degradation levels must be rejected"
        );
    }

    #[test]
    fn batch_request_and_response_roundtrip() {
        let req = BatchPredictRequest {
            entries: vec![
                PredictRequest {
                    session_id: 1,
                    features: Some(vec![0]),
                    measured_mbps: None,
                    horizon: 2,
                },
                PredictRequest {
                    session_id: 2,
                    features: None,
                    measured_mbps: Some(4.5),
                    horizon: 1,
                },
            ],
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: BatchPredictRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(req, back);

        let resp = BatchPredictResponse {
            results: vec![
                BatchEntryResult::ok(PredictResponse {
                    predictions_mbps: vec![1.0, 1.1],
                    initial: true,
                    cluster_sessions: 20,
                    cluster_hit: true,
                    model_version: 1,
                    degradation: None,
                }),
                BatchEntryResult::failed(404, "unknown session"),
            ],
        };
        let json = serde_json::to_string(&resp).unwrap();
        let back: BatchPredictResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(resp, back);
        assert_eq!(back.results[0].status, 200);
        assert!(back.results[1].response.is_none());
    }

    #[test]
    fn none_fields_stay_off_the_wire_and_parse_back() {
        let req = PredictRequest {
            session_id: 9,
            features: None,
            measured_mbps: Some(3.25),
            horizon: 1,
        };
        let json = serde_json::to_string(&req).unwrap();
        assert!(!json.contains("features"), "None field on the wire: {json}");
        let back: PredictRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(req, back);

        // Explicit nulls (the pre-batch wire format) still parse.
        let back: PredictRequest = serde_json::from_str(
            r#"{"session_id":9,"features":null,"measured_mbps":3.25,"horizon":1}"#,
        )
        .unwrap();
        assert_eq!(req, back);

        let ok = BatchEntryResult::ok(PredictResponse {
            predictions_mbps: vec![2.0],
            initial: false,
            cluster_sessions: 3,
            cluster_hit: false,
            model_version: 1,
            degradation: None,
        });
        let json = serde_json::to_string(&ok).unwrap();
        assert!(!json.contains("error"), "None field on the wire: {json}");
        assert!(
            !json.contains("degradation"),
            "None field on the wire: {json}"
        );
        assert_eq!(ok, serde_json::from_str::<BatchEntryResult>(&json).unwrap());
    }

    #[test]
    fn fast_writers_match_the_generic_serializer() {
        let req = BatchPredictRequest {
            entries: vec![
                PredictRequest {
                    session_id: 1,
                    features: Some(vec![0, 7, 2]),
                    measured_mbps: None,
                    horizon: 2,
                },
                PredictRequest {
                    session_id: u64::MAX,
                    features: None,
                    measured_mbps: Some(4.5),
                    horizon: 1,
                },
                PredictRequest {
                    session_id: 2,
                    features: Some(vec![]),
                    measured_mbps: Some(3.0),
                    horizon: 8,
                },
            ],
        };
        assert_eq!(req.to_json_bytes(), serde_json::to_vec(&req).unwrap());

        let resp = BatchPredictResponse {
            results: vec![
                BatchEntryResult::ok(PredictResponse {
                    predictions_mbps: vec![1.0, 1.25, f64::NAN, 0.1 + 0.2],
                    initial: true,
                    cluster_sessions: 20,
                    cluster_hit: true,
                    model_version: 3,
                    degradation: None,
                }),
                BatchEntryResult::ok(PredictResponse {
                    predictions_mbps: vec![2.5],
                    initial: false,
                    cluster_sessions: 0,
                    cluster_hit: false,
                    model_version: 0,
                    degradation: Some(Degradation::Fallback),
                }),
                BatchEntryResult::failed(404, "unknown session \"x\"\n\ttab\u{1}"),
                BatchEntryResult {
                    status: 200,
                    response: None,
                    error: None,
                },
            ],
        };
        assert_eq!(resp.to_json_bytes(), serde_json::to_vec(&resp).unwrap());
    }

    #[test]
    fn direct_reader_types_fields_as_serde_does() {
        let req = PredictRequest::from_json_bytes(
            br#" { "horizon" : 3, "session\u005fid":-0, "session_id":"dup",
                   "extra":[{"a":[null,true,"x\n"]}], "features":[0,4294967295],
                   "measured_mbps":-0 } "#,
        )
        .unwrap();
        assert_eq!(req.session_id, 0, "escaped key, first occurrence wins");
        assert_eq!(req.features, Some(vec![0, u32::MAX]));
        assert_eq!(req.measured_mbps.map(f64::to_bits), Some(0.0f64.to_bits()));
        assert_eq!(req.horizon, 3);

        for bad in [
            &br#"{"session_id":1.0,"horizon":1}"#[..],
            br#"{"session_id":1,"horizon":1,"features":[4294967296]}"#,
            br#"{"session_id":-1,"horizon":1}"#,
            br#"{"session_id":1}"#,
            br#"{"session_id":1,"horizon":1,}"#,
            br#"{"session_id":1,"horizon":1} x"#,
            br#"{"session_id":1,"horizon":1,"x":[1,]}"#,
            b"{\"session_id\":1,\"horizon\":1,\"x\":\"\xff\"}",
        ] {
            let text = String::from_utf8_lossy(bad);
            assert!(
                serde_json::from_slice::<PredictRequest>(bad).is_err(),
                "{text}"
            );
            assert_eq!(
                PredictRequest::from_json_bytes(bad),
                Err(DecodeError::Malformed),
                "{text}"
            );
        }

        let resp = PredictResponse::from_json_bytes(
            br#"{"predictions_mbps":[1.5,null,7],"initial":false,"cluster_sessions":2,
                 "cluster_hit":true,"model_version":18446744073709551615,
                 "degradation":"fall\u0062ack"}"#,
        )
        .unwrap();
        assert_eq!(resp.predictions_mbps[0], 1.5);
        assert!(resp.predictions_mbps[1].is_nan());
        assert_eq!(resp.predictions_mbps[2], 7.0);
        assert_eq!(resp.model_version, u64::MAX);
        assert_eq!(resp.degradation, Some(Degradation::Fallback));
    }

    #[test]
    fn oversized_batch_is_too_large_before_its_tail_is_read() {
        let entry = r#"{"session_id":1,"measured_mbps":2.0,"horizon":1}"#;
        let frame = |n: usize, tail: &str| {
            let mut body = String::from(r#"{"entries":["#);
            for k in 0..n {
                if k > 0 {
                    body.push(',');
                }
                body.push_str(entry);
            }
            body.push_str(tail);
            body.into_bytes()
        };
        let full = frame(MAX_BATCH_ENTRIES, "]}");
        assert_eq!(
            BatchPredictRequest::from_json_bytes(&full)
                .unwrap()
                .entries
                .len(),
            MAX_BATCH_ENTRIES
        );
        // Entry 1026 is garbage: the reader stops at entry 1025.
        let garbage = frame(MAX_BATCH_ENTRIES + 1, ",{garbage");
        assert!(serde_json::from_slice::<BatchPredictRequest>(&garbage).is_err());
        assert_eq!(
            BatchPredictRequest::from_json_bytes(&garbage),
            Err(DecodeError::TooLarge)
        );
        let malformed = frame(MAX_BATCH_ENTRIES - 1, ",{garbage");
        assert_eq!(
            BatchPredictRequest::from_json_bytes(&malformed),
            Err(DecodeError::Malformed)
        );
    }

    #[test]
    fn memoized_float_text_is_display_text() {
        let generic = |f: f64| serde_json::to_string(&f).unwrap();
        let direct = |f: f64| {
            let mut out = String::new();
            write_json_f64(&mut out, f);
            out
        };
        // Twice each: the second write of a value is a memo hit.
        for f in [
            0.1,
            -0.0,
            0.0,
            3.0,
            1e300,
            5e-324,
            f64::NAN,
            f64::INFINITY,
            2.375,
        ] {
            assert_eq!(direct(f), generic(f), "{f:?}");
            assert_eq!(direct(f), generic(f), "{f:?}");
        }
    }

    #[test]
    fn session_log_roundtrip() {
        let log = SessionLog {
            session_id: 1,
            strategy: "CS2P+MPC".into(),
            qoe: 1234.5,
            avg_bitrate_kbps: 2000.0,
            good_ratio: 0.98,
            rebuffer_seconds: 0.4,
            startup_delay_seconds: 1.1,
            throughput_pairs: vec![(Some(2.0), 2.1), (None, 1.9)],
            bitrates_kbps: vec![2000.0, 2000.0],
        };
        let json = serde_json::to_string(&log).unwrap();
        let back: SessionLog = serde_json::from_str(&json).unwrap();
        assert_eq!(log, back);
    }

    #[test]
    fn log_stats_groups_by_strategy() {
        let mk = |strategy: &str, qoe: f64, bitrate: f64| SessionLog {
            session_id: 0,
            strategy: strategy.into(),
            qoe,
            avg_bitrate_kbps: bitrate,
            good_ratio: 1.0,
            rebuffer_seconds: 0.0,
            startup_delay_seconds: 1.0,
            throughput_pairs: vec![],
            bitrates_kbps: vec![],
        };
        let logs = vec![
            mk("CS2P+MPC", 100.0, 2000.0),
            mk("CS2P+MPC", 200.0, 3000.0),
            mk("HM+MPC", 50.0, 1000.0),
        ];
        let stats = LogStats::from_logs(&logs);
        assert_eq!(stats.strategies.len(), 2);
        let cs2p = &stats.strategies[0];
        assert_eq!(cs2p.strategy, "CS2P+MPC");
        assert_eq!(cs2p.n_sessions, 2);
        assert!((cs2p.mean_qoe - 150.0).abs() < 1e-12);
        assert!((cs2p.mean_bitrate_kbps - 2500.0).abs() < 1e-12);
        let hm = &stats.strategies[1];
        assert_eq!(hm.strategy, "HM+MPC");
        assert_eq!(hm.n_sessions, 1);
    }

    #[test]
    fn log_stats_of_empty_logs() {
        let stats = LogStats::from_logs(&[]);
        assert!(stats.strategies.is_empty());
        let json = serde_json::to_string(&stats).unwrap();
        let back: LogStats = serde_json::from_str(&json).unwrap();
        assert_eq!(stats, back);
    }

    #[test]
    fn features_query_parsing() {
        assert_eq!(
            parse_features_query("/model?features=1,2,3"),
            Some(vec![1, 2, 3])
        );
        assert_eq!(
            parse_features_query("/model?other=x&features=9"),
            Some(vec![9])
        );
        assert_eq!(parse_features_query("/model"), None);
        assert_eq!(parse_features_query("/model?features=1,bogus"), None);
    }
}
