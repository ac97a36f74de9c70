//! Property tests for the wire protocol (`cs2p-net/src/protocol.rs`):
//! every message type round-trips through its JSON encoding, the direct
//! reader and writers agree with the serde oracle on every input, and a
//! live server answers malformed, truncated, and oversized frames with an
//! error response or a clean close — never a panic or a hung connection.

use cs2p_net::http::{read_response, Response, MAX_BODY_BYTES};
use cs2p_net::protocol::{
    BatchEntryResult, BatchPredictRequest, BatchPredictResponse, DecodeError, Degradation, Health,
    LogStats, PredictRequest, PredictResponse, SessionLog, StrategyStats, MAX_BATCH_ENTRIES,
};
use cs2p_net::{serve, ServerHandle};
use cs2p_testkit::scenarios::tiny_engine;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Serde round-trips under generated inputs
// ---------------------------------------------------------------------------

fn arb_opt_f64() -> impl Strategy<Value = Option<f64>> {
    (any::<bool>(), 0.0f64..1e9).prop_map(|(some, v)| some.then_some(v))
}

fn arb_features() -> impl Strategy<Value = Option<Vec<u32>>> {
    (any::<bool>(), prop::collection::vec(0u32..1000, 0..6)).prop_map(|(some, v)| some.then_some(v))
}

fn arb_session_log() -> impl Strategy<Value = SessionLog> {
    (
        any::<u64>(),
        "[A-Za-z0-9+_-]{0,16}",
        (-1e6f64..1e6, 0.0f64..1e5, 0.0f64..1.0),
        (0.0f64..1e3, 0.0f64..60.0),
        prop::collection::vec((arb_opt_f64(), 0.0f64..1e3), 0..8),
        prop::collection::vec(0.0f64..1e5, 0..8),
    )
        .prop_map(
            |(session_id, strategy, (qoe, avg, good), (rebuf, startup), pairs, bitrates)| {
                SessionLog {
                    session_id,
                    strategy,
                    qoe,
                    avg_bitrate_kbps: avg,
                    good_ratio: good,
                    rebuffer_seconds: rebuf,
                    startup_delay_seconds: startup,
                    throughput_pairs: pairs,
                    bitrates_kbps: bitrates,
                }
            },
        )
}

fn arb_predict_request() -> impl Strategy<Value = PredictRequest> {
    (any::<u64>(), arb_features(), arb_opt_f64(), 1usize..16).prop_map(
        |(session_id, features, measured_mbps, horizon)| PredictRequest {
            session_id,
            features,
            measured_mbps,
            horizon,
        },
    )
}

fn arb_degradation() -> impl Strategy<Value = Option<Degradation>> {
    (0usize..3).prop_map(|pick| match pick {
        0 => None,
        1 => Some(Degradation::Degraded),
        _ => Some(Degradation::Fallback),
    })
}

fn arb_batch_entry_result() -> impl Strategy<Value = BatchEntryResult> {
    (
        0usize..3,
        any::<bool>(),
        (any::<bool>(), "[ -~]{0,32}"),
        prop::collection::vec(0.0f64..1e9, 0..5),
        arb_degradation(),
    )
        .prop_map(
            |(status_pick, with_response, (with_error, error), predictions, degradation)| {
                BatchEntryResult {
                    status: [200u16, 400, 404][status_pick],
                    // Deliberately decoupled from `status`: the wire format
                    // must round-trip whatever combination it is handed.
                    response: with_response.then_some(PredictResponse {
                        predictions_mbps: predictions,
                        initial: false,
                        cluster_sessions: 1,
                        cluster_hit: true,
                        model_version: 1,
                        degradation,
                    }),
                    error: with_error.then_some(error),
                }
            },
        )
}

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let bytes = serde_json::to_vec(value).expect("serialize");
    serde_json::from_slice(&bytes).expect("deserialize")
}

proptest! {
    #[test]
    fn predict_request_roundtrips(
        session_id in any::<u64>(),
        features in arb_features(),
        measured in arb_opt_f64(),
        horizon in 1usize..64,
    ) {
        let req = PredictRequest { session_id, features, measured_mbps: measured, horizon };
        prop_assert_eq!(roundtrip(&req), req);
    }

    #[test]
    fn predict_response_roundtrips(
        predictions in prop::collection::vec(0.0f64..1e9, 0..33),
        initial in any::<bool>(),
        cluster_sessions in 0usize..1_000_000,
        cluster_hit in any::<bool>(),
        model_version in any::<u64>(),
        degradation in arb_degradation(),
    ) {
        let resp = PredictResponse {
            predictions_mbps: predictions,
            initial,
            cluster_sessions,
            cluster_hit,
            model_version,
            degradation,
        };
        prop_assert_eq!(roundtrip(&resp), resp);
    }

    #[test]
    fn session_log_roundtrips(log in arb_session_log()) {
        prop_assert_eq!(roundtrip(&log), log);
    }

    #[test]
    fn health_roundtrips(
        n_models in 0usize..1000,
        n_sessions in 0usize..1000,
        predictions_served in any::<u64>(),
        n_logs in 0usize..1000,
    ) {
        let health = Health {
            status: "ok".into(),
            n_models,
            n_sessions,
            predictions_served,
            n_logs,
        };
        prop_assert_eq!(roundtrip(&health), health);
    }

    #[test]
    fn log_stats_roundtrip_and_aggregation_is_stable(
        logs in prop::collection::vec(arb_session_log(), 0..6)
    ) {
        let stats = LogStats::from_logs(&logs);
        let back: LogStats = roundtrip(&stats);
        prop_assert_eq!(back, stats);
    }

    #[test]
    fn batch_request_roundtrips_and_fast_writer_matches(
        entries in prop::collection::vec(arb_predict_request(), 0..24)
    ) {
        let breq = BatchPredictRequest { entries };
        prop_assert_eq!(roundtrip(&breq), breq.clone());
        // The direct writer must emit byte-for-byte what the generic
        // serializer emits — same escaping, same float formatting, same
        // None-field omission.
        prop_assert_eq!(breq.to_json_bytes(), serde_json::to_vec(&breq).unwrap());
    }

    #[test]
    fn batch_response_roundtrips_and_fast_writer_matches(
        results in prop::collection::vec(arb_batch_entry_result(), 0..24)
    ) {
        let bresp = BatchPredictResponse { results };
        prop_assert_eq!(roundtrip(&bresp), bresp.clone());
        prop_assert_eq!(bresp.to_json_bytes(), serde_json::to_vec(&bresp).unwrap());
    }

    #[test]
    fn strategy_stats_roundtrips(
        strategy in "[A-Za-z+]{1,12}",
        n_sessions in 0usize..1000,
        means in (0.0f64..1e3, 0.0f64..1e5, 0.0f64..1.0, 0.0f64..1e3, 0.0f64..60.0),
    ) {
        let s = StrategyStats {
            strategy,
            n_sessions,
            mean_qoe: means.0,
            mean_bitrate_kbps: means.1,
            mean_good_ratio: means.2,
            mean_rebuffer_seconds: means.3,
            mean_startup_seconds: means.4,
        };
        prop_assert_eq!(roundtrip(&s), s);
    }
}

// ---------------------------------------------------------------------------
// Direct codec vs the serde oracle
// ---------------------------------------------------------------------------

/// A JSON document as the test renders it. Scalars keep their token
/// text, so a mutation can respell a number (`-0`, `1.0`, `1e0`) the
/// serializer would never write.
#[derive(Clone)]
enum Doc {
    Token(String),
    Str(String),
    Arr(Vec<Doc>),
    Obj(Vec<(String, Doc)>),
}

fn doc_of(v: &serde::Value) -> Doc {
    match v {
        serde::Value::Str(s) => Doc::Str(s.clone()),
        serde::Value::Array(items) => Doc::Arr(items.iter().map(doc_of).collect()),
        serde::Value::Object(fields) => {
            Doc::Obj(fields.iter().map(|(k, v)| (k.clone(), doc_of(v))).collect())
        }
        scalar => Doc::Token(serde_json::to_string(scalar).unwrap()),
    }
}

/// Number spellings at the edges of the integer and float typing rules.
const NUMBER_TOKENS: [&str; 20] = [
    "0",
    "-0",
    "7",
    "-1",
    "1.0",
    "1e0",
    "2.5",
    "-0.0",
    "1e999",
    "0.1e-2",
    "1E+2",
    "65535",
    "65536",
    "4294967295",
    "4294967296",
    "9223372036854775807",
    "9223372036854775808",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775809",
];

/// Field names of every prediction message (and one that is none).
const NAMES: [&str; 14] = [
    "session_id",
    "features",
    "measured_mbps",
    "horizon",
    "entries",
    "predictions_mbps",
    "initial",
    "cluster_sessions",
    "cluster_hit",
    "model_version",
    "degradation",
    "results",
    "status",
    "response",
];

fn random_text(rng: &mut ChaCha8Rng) -> String {
    let chars = [
        'a',
        's',
        '_',
        '"',
        '\\',
        '/',
        ' ',
        'é',
        '\u{1F600}',
        '\u{1}',
        '\u{08}',
        '\u{0C}',
        '\n',
        '\r',
        '\t',
    ];
    (0..rng.gen_range(0..6))
        .map(|_| *chars.choose(rng).unwrap())
        .collect()
}

fn random_doc(rng: &mut ChaCha8Rng, depth: usize) -> Doc {
    let kinds = if depth >= 3 { 4 } else { 6 };
    match rng.gen_range(0..kinds) {
        0 => Doc::Token(["null", "true", "false"].choose(rng).unwrap().to_string()),
        1 => Doc::Token(NUMBER_TOKENS.choose(rng).unwrap().to_string()),
        2 => Doc::Str(random_text(rng)),
        3 => Doc::Str(NAMES.choose(rng).unwrap().to_string()),
        4 => Doc::Arr(
            (0..rng.gen_range(0..4))
                .map(|_| random_doc(rng, depth + 1))
                .collect(),
        ),
        _ => Doc::Obj(
            (0..rng.gen_range(0..4))
                .map(|_| {
                    let key = if rng.gen_bool(0.5) {
                        NAMES.choose(rng).unwrap().to_string()
                    } else {
                        random_text(rng)
                    };
                    (key, random_doc(rng, depth + 1))
                })
                .collect(),
        ),
    }
}

/// Applies the edits the reader must type exactly as serde does: key
/// order, unknown keys with nested values, duplicate keys, explicit
/// `null`s, dropped fields, respelled numbers, and the odd value of the
/// wrong type.
fn perturb(doc: &mut Doc, rng: &mut ChaCha8Rng) {
    match doc {
        Doc::Obj(fields) => {
            for (_, v) in fields.iter_mut() {
                perturb(v, rng);
            }
            fields.shuffle(rng);
            if rng.gen_bool(0.3) {
                let at = rng.gen_range(0..=fields.len());
                fields.insert(at, (random_text(rng), random_doc(rng, 0)));
            }
            if rng.gen_bool(0.2) && !fields.is_empty() {
                let (key, value) = fields[rng.gen_range(0..fields.len())].clone();
                let value = if rng.gen_bool(0.5) {
                    value
                } else {
                    random_doc(rng, 1)
                };
                let at = rng.gen_range(0..=fields.len());
                fields.insert(at, (key, value));
            }
            if rng.gen_bool(0.2) {
                let name = [
                    "features",
                    "measured_mbps",
                    "degradation",
                    "response",
                    "error",
                ]
                .choose(rng)
                .unwrap();
                let at = rng.gen_range(0..=fields.len());
                fields.insert(at, (name.to_string(), Doc::Token("null".into())));
            }
            if rng.gen_bool(0.05) && !fields.is_empty() {
                fields.remove(rng.gen_range(0..fields.len()));
            }
        }
        Doc::Arr(items) => {
            for item in items {
                perturb(item, rng);
            }
        }
        Doc::Token(t) => {
            if rng.gen_bool(0.1) {
                *t = match rng.gen_range(0..3) {
                    0 if t.parse::<i128>().is_ok() => format!("{t}.0"),
                    1 if t.parse::<i128>().is_ok() => format!("{t}e0"),
                    _ => NUMBER_TOKENS.choose(rng).unwrap().to_string(),
                };
            }
        }
        Doc::Str(text) => {
            if rng.gen_bool(0.3) {
                *text = random_text(rng);
            }
        }
    }
    if rng.gen_bool(0.02) {
        *doc = random_doc(rng, 1);
    }
}

fn whitespace(rng: &mut ChaCha8Rng, out: &mut String) {
    while rng.gen_bool(0.15) {
        out.push(*[' ', '\t', '\n', '\r'].choose(rng).unwrap());
    }
}

/// Writes `s` as a JSON string, escaping some characters that need no
/// escape (`\u` forms, surrogate pairs above the BMP, `\/`).
fn render_str(s: &str, rng: &mut ChaCha8Rng, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '/' if rng.gen_bool(0.3) => out.push_str("\\/"),
            '\u{08}' if rng.gen_bool(0.5) => out.push_str("\\b"),
            '\u{0C}' if rng.gen_bool(0.5) => out.push_str("\\f"),
            '\n' if rng.gen_bool(0.5) => out.push_str("\\n"),
            '\r' if rng.gen_bool(0.5) => out.push_str("\\r"),
            '\t' if rng.gen_bool(0.5) => out.push_str("\\t"),
            c if (c as u32) < 0x20 || rng.gen_bool(0.1) => {
                for unit in c.encode_utf16(&mut [0; 2]) {
                    let _ = write!(out, "\\u{unit:04x}");
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn render(doc: &Doc, rng: &mut ChaCha8Rng, out: &mut String) {
    whitespace(rng, out);
    match doc {
        Doc::Token(t) => out.push_str(t),
        Doc::Str(s) => render_str(s, rng, out),
        Doc::Arr(items) => {
            out.push('[');
            for (k, item) in items.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                render(item, rng, out);
                whitespace(rng, out);
            }
            whitespace(rng, out);
            out.push(']');
        }
        Doc::Obj(fields) => {
            out.push('{');
            for (k, (key, value)) in fields.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                whitespace(rng, out);
                render_str(key, rng, out);
                whitespace(rng, out);
                out.push(':');
                render(value, rng, out);
                whitespace(rng, out);
            }
            whitespace(rng, out);
            out.push('}');
        }
    }
    whitespace(rng, out);
}

/// One byte-level fault: a truncation, a flipped or replaced byte, or an
/// inserted byte.
fn corrupt(bytes: &[u8], rng: &mut ChaCha8Rng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match rng.gen_range(0..3) {
        0 => out.truncate(rng.gen_range(0..=out.len())),
        1 if !out.is_empty() => {
            let at = rng.gen_range(0..out.len());
            out[at] = if rng.gen_bool(0.5) {
                rng.gen()
            } else {
                out[at] ^ (1u8 << rng.gen_range(0..8u32))
            };
        }
        _ => {
            let at = rng.gen_range(0..=out.len());
            let byte = if rng.gen_bool(0.5) {
                *b"{}[],:\"\\-.e0 n".choose(rng).unwrap()
            } else {
                rng.gen()
            };
            out.insert(at, byte);
        }
    }
    out
}

/// A value tree with every float replaced by its bit pattern, so `-0.0`
/// and `0.0` differ and NaN equals NaN.
fn bits_of(v: serde::Value) -> serde::Value {
    match v {
        serde::Value::Float(f) => serde::Value::Str(format!("f64:{:016x}", f.to_bits())),
        serde::Value::Array(items) => serde::Value::Array(items.into_iter().map(bits_of).collect()),
        serde::Value::Object(fields) => {
            serde::Value::Object(fields.into_iter().map(|(k, v)| (k, bits_of(v))).collect())
        }
        other => other,
    }
}

/// A prediction message with a direct reader.
trait Wire: serde::Serialize + serde::de::DeserializeOwned + std::fmt::Debug {
    fn direct(bytes: &[u8]) -> Result<Self, DecodeError>;

    /// Whether refusing the body as too large is right, given the oracle.
    fn too_large(_oracle: &serde_json::Result<Self>) -> bool {
        false
    }
}

impl Wire for PredictRequest {
    fn direct(bytes: &[u8]) -> Result<Self, DecodeError> {
        PredictRequest::from_json_bytes(bytes)
    }
}

impl Wire for BatchPredictRequest {
    fn direct(bytes: &[u8]) -> Result<Self, DecodeError> {
        BatchPredictRequest::from_json_bytes(bytes)
    }

    fn too_large(oracle: &serde_json::Result<Self>) -> bool {
        oracle
            .as_ref()
            .map_or(true, |b| b.entries.len() > MAX_BATCH_ENTRIES)
    }
}

impl Wire for PredictResponse {
    fn direct(bytes: &[u8]) -> Result<Self, DecodeError> {
        PredictResponse::from_json_bytes(bytes)
    }
}

impl Wire for BatchPredictResponse {
    fn direct(bytes: &[u8]) -> Result<Self, DecodeError> {
        BatchPredictResponse::from_json_bytes(bytes)
    }
}

/// The reader and the oracle give the same value (floats by bits), or
/// both refuse the body.
fn agree<T: Wire>(bytes: &[u8]) -> Result<(), String> {
    let oracle = serde_json::from_slice::<T>(bytes);
    let direct = T::direct(bytes);
    let same = match (&oracle, &direct) {
        (Ok(a), Ok(b)) => bits_of(a.to_value()) == bits_of(b.to_value()),
        (Err(_), Err(DecodeError::Malformed)) => true,
        (_, Err(DecodeError::TooLarge)) => T::too_large(&oracle),
        _ => false,
    };
    if same {
        Ok(())
    } else {
        Err(format!(
            "reader and oracle disagree on {:?}: oracle {oracle:?}, reader {direct:?}",
            String::from_utf8_lossy(bytes)
        ))
    }
}

/// Holds the reader to the oracle on `msg`'s canonical bytes, on
/// re-rendered variants of it, and on byte-level faults of both.
fn agree_around<T: Wire>(msg: &T, rng: &mut ChaCha8Rng) -> Result<(), String> {
    let canonical = serde_json::to_vec(msg).unwrap();
    agree::<T>(&canonical)?;
    let doc = doc_of(&msg.to_value());
    for _ in 0..6 {
        let mut variant = doc.clone();
        perturb(&mut variant, rng);
        let mut text = String::new();
        render(&variant, rng, &mut text);
        agree::<T>(text.as_bytes())?;
        agree::<T>(&corrupt(text.as_bytes(), rng))?;
        agree::<T>(&corrupt(&canonical, rng))?;
    }
    Ok(())
}

fn arb_predict_response() -> impl Strategy<Value = PredictResponse> {
    (
        prop::collection::vec(any::<u64>(), 0..6),
        any::<bool>(),
        0usize..1_000_000,
        any::<bool>(),
        any::<u64>(),
        arb_degradation(),
    )
        .prop_map(
            |(bits, initial, cluster_sessions, cluster_hit, model_version, degradation)| {
                PredictResponse {
                    // Any bit pattern: NaN and the infinities go out as
                    // `null`, subnormals and `-0.0` as themselves.
                    predictions_mbps: bits.into_iter().map(f64::from_bits).collect(),
                    initial,
                    cluster_sessions,
                    cluster_hit,
                    model_version,
                    degradation,
                }
            },
        )
}

proptest! {
    #[test]
    fn wire_codec_matches_serde_oracle(
        req in arb_predict_request(),
        entries in prop::collection::vec(arb_predict_request(), 0..5),
        resp in arb_predict_response(),
        results in prop::collection::vec(arb_batch_entry_result(), 0..5),
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        agree_around(&req, &mut rng)?;
        agree_around(&BatchPredictRequest { entries }, &mut rng)?;
        agree_around(&resp, &mut rng)?;
        agree_around(&BatchPredictResponse { results }, &mut rng)?;
    }

    #[test]
    fn wire_codec_float_memo_matches_display(
        bits in prop::collection::vec(any::<u64>(), 1..64),
        measured in any::<u64>(),
    ) {
        let mut values: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        // Subnormals (zero exponent) and integral values of the same draws.
        values.extend(bits.iter().map(|&b| f64::from_bits(b & 0x800F_FFFF_FFFF_FFFF)));
        values.extend(bits.iter().map(|&b| (b % 1_000_000) as f64));
        values.extend([
            0.0, -0.0, 5e-324, 1.0, -3.0, 1e21, 1e300, 0.1,
            f64::NAN, f64::INFINITY, f64::NEG_INFINITY,
        ]);
        // More distinct values than the memo has slots, so some collide.
        values.extend((0..2048).map(|k| f64::from_bits(measured.wrapping_add(k) >> 2)));
        let resp = PredictResponse {
            predictions_mbps: values,
            initial: false,
            cluster_sessions: 1,
            cluster_hit: true,
            model_version: 1,
            degradation: None,
        };
        let req = PredictRequest {
            session_id: 1,
            features: None,
            measured_mbps: Some(f64::from_bits(measured)),
            horizon: 1,
        };
        // Each value is written again once it is in the memo (or evicted).
        for _ in 0..2 {
            prop_assert_eq!(resp.to_json_bytes(), serde_json::to_vec(&resp).unwrap());
            prop_assert_eq!(req.to_json_bytes(), serde_json::to_vec(&req).unwrap());
        }
    }
}

/// Unknown values nested around the 128-level limit are refused by the
/// reader exactly where the oracle's parser refuses them.
#[test]
fn wire_codec_depth_limit_matches_serde_oracle() {
    for depth in 120..135 {
        let nested = "[".repeat(depth) + &"]".repeat(depth);
        let req = format!(r#"{{"x":{nested},"session_id":1,"horizon":1}}"#);
        agree::<PredictRequest>(req.as_bytes()).unwrap();
        let batch = format!(r#"{{"entries":[{{"session_id":1,"horizon":1,"x":{nested}}}]}}"#);
        agree::<BatchPredictRequest>(batch.as_bytes()).unwrap();
        let results = format!(
            r#"{{"results":[{{"status":200,"response":{{"x":{nested},"predictions_mbps":[],
               "initial":true,"cluster_sessions":1,"cluster_hit":true,"model_version":1}}}}]}}"#
        );
        agree::<BatchPredictResponse>(results.as_bytes()).unwrap();
    }
}

// ---------------------------------------------------------------------------
// Malformed frames against a live server
// ---------------------------------------------------------------------------

/// One shared server for every malformed-frame case: surviving hundreds
/// of hostile connections *on the same instance* is part of the point.
fn shared_server() -> &'static ServerHandle {
    static SERVER: OnceLock<ServerHandle> = OnceLock::new();
    SERVER.get_or_init(|| serve(tiny_engine(), "127.0.0.1:0").unwrap())
}

/// Writes raw bytes, optionally half-closes, and reads whatever comes
/// back. Returns the parsed response if the server sent one. The read
/// timeout turns a hung connection into a test failure, not a stuck CI.
fn raw_exchange(bytes: &[u8], half_close: bool) -> std::io::Result<Option<Response>> {
    let stream = TcpStream::connect(shared_server().addr())?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    // The server may legitimately reject early and close while we are
    // still writing; a broken pipe is a clean refusal, not a failure.
    if let Err(e) = writer.write_all(bytes) {
        if e.kind() == ErrorKind::BrokenPipe || e.kind() == ErrorKind::ConnectionReset {
            return Ok(None);
        }
        return Err(e);
    }
    let _ = writer.flush();
    if half_close {
        let _ = stream.shutdown(std::net::Shutdown::Write);
    }
    let mut reader = BufReader::new(stream);
    match read_response(&mut reader) {
        Ok(resp) => Ok(Some(resp)),
        // A clean close (or reset while tearing down) is acceptable.
        Err(e)
            if e.kind() == ErrorKind::UnexpectedEof
                || e.kind() == ErrorKind::ConnectionReset
                || e.kind() == ErrorKind::InvalidData =>
        {
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

fn assert_error_or_clean_close(bytes: &[u8], half_close: bool) {
    // `None` — a clean close — is also acceptable.
    if let Some(resp) =
        raw_exchange(bytes, half_close).expect("exchange must not hang or hard-fail")
    {
        assert!(
            resp.status >= 400,
            "malformed frame got a {} success",
            resp.status
        );
    }
}

proptest! {
    #[test]
    fn garbage_bytes_get_an_error_or_clean_close(
        garbage in prop::collection::vec(any::<u8>(), 0..1024)
    ) {
        assert_error_or_clean_close(&garbage, true);
    }

    #[test]
    fn truncated_predict_requests_never_hang(
        cut in 1usize..50,
        session_id in any::<u64>(),
    ) {
        let preq = PredictRequest {
            session_id,
            features: Some(vec![1]),
            measured_mbps: None,
            horizon: 4,
        };
        let body = serde_json::to_vec(&preq).unwrap();
        let frame = format!(
            "POST /predict HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let mut bytes = frame.into_bytes();
        bytes.extend_from_slice(&body);
        let keep = bytes.len().saturating_sub(cut.min(bytes.len() - 1));
        assert_error_or_clean_close(&bytes[..keep], true);
    }
}

/// Builds a complete `/predict_batch` HTTP frame around `body`.
fn batch_frame(body: &[u8]) -> Vec<u8> {
    let mut bytes = format!(
        "POST /predict_batch HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

proptest! {
    #[test]
    fn garbage_batch_bodies_get_an_error_or_clean_close(
        garbage in prop::collection::vec(any::<u8>(), 0..512)
    ) {
        assert_error_or_clean_close(&batch_frame(&garbage), true);
    }

    #[test]
    fn truncated_batch_frames_never_hang(
        cut in 1usize..80,
        entries in prop::collection::vec(arb_predict_request(), 1..8),
    ) {
        let body = BatchPredictRequest { entries }.to_json_bytes();
        let bytes = batch_frame(&body);
        let keep = bytes.len().saturating_sub(cut.min(bytes.len() - 1));
        assert_error_or_clean_close(&bytes[..keep], true);
    }

    /// Frames whose entries repeat the same session keys — including
    /// re-registrations and measurement-before-registration orders the
    /// generator is free to produce — must always get one well-formed
    /// 200 with per-entry statuses, never a panic, hang, or 5xx.
    #[test]
    fn duplicate_session_key_frames_answer_per_entry_statuses(
        sids in prop::collection::vec(7770u64..7773, 1..12),
        with_features in prop::collection::vec(any::<bool>(), 12),
    ) {
        let entries: Vec<PredictRequest> = sids
            .iter()
            .zip(&with_features)
            .map(|(&sid, &reg)| PredictRequest {
                session_id: sid,
                features: reg.then(|| vec![(sid % 2) as u32]),
                measured_mbps: (!reg).then_some(2.0),
                horizon: 1,
            })
            .collect();
        let n = entries.len();
        let body = BatchPredictRequest { entries }.to_json_bytes();
        let resp = raw_exchange(&batch_frame(&body), false)
            .expect("exchange must not hang")
            .expect("a valid batch frame must get a response");
        prop_assert_eq!(resp.status, 200);
        let bresp: BatchPredictResponse = serde_json::from_slice(&resp.body).unwrap();
        prop_assert_eq!(bresp.results.len(), n);
        for r in &bresp.results {
            prop_assert!(
                r.status == 200 || r.status == 404,
                "unexpected per-entry status {}", r.status
            );
            prop_assert_eq!(r.response.is_some(), r.status == 200);
        }
    }
}

/// An empty batch is a client error, not a server blowup: 400, not 5xx.
#[test]
fn empty_batch_is_a_400_not_a_500() {
    let resp = raw_exchange(&batch_frame(br#"{"entries":[]}"#), false)
        .expect("must not hang")
        .expect("server must answer");
    assert_eq!(resp.status, 400, "reason: {}", resp.reason);
}

/// A frame over [`MAX_BATCH_ENTRIES`] is rejected whole with a 400 —
/// and the server goes on serving.
#[test]
fn over_cap_batch_is_rejected_whole() {
    let entries: Vec<PredictRequest> = (0..=MAX_BATCH_ENTRIES as u64)
        .map(|i| PredictRequest {
            session_id: i,
            features: None,
            measured_mbps: Some(1.0),
            horizon: 1,
        })
        .collect();
    assert!(entries.len() > MAX_BATCH_ENTRIES);
    let body = BatchPredictRequest { entries }.to_json_bytes();
    let resp = raw_exchange(&batch_frame(&body), false)
        .expect("must not hang")
        .expect("server must answer");
    assert_eq!(resp.status, 400, "reason: {}", resp.reason);
}

#[test]
fn oversized_content_length_is_rejected_without_reading_the_body() {
    // Announce a body over the 4 MiB cap but never send it: the server
    // must refuse from the header alone.
    let frame = format!(
        "POST /predict HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        MAX_BODY_BYTES + 1
    );
    // Refusal by close (`None`) is also acceptable.
    if let Some(resp) = raw_exchange(frame.as_bytes(), false).expect("must not hang") {
        assert_eq!(resp.status, 400, "reason: {}", resp.reason);
    }
}

#[test]
fn huge_header_block_is_rejected() {
    let mut frame = String::from("GET /healthz HTTP/1.1\r\n");
    frame.push_str(&"x".repeat(20 * 1024));
    assert_error_or_clean_close(frame.as_bytes(), true);
}

#[test]
fn server_survives_the_hostile_suite_and_still_serves() {
    // Run after (or interleaved with) the hostile cases above — the
    // instance they all hammered must still answer real requests.
    let preq = PredictRequest {
        session_id: 424242,
        features: Some(vec![0]),
        measured_mbps: None,
        horizon: 2,
    };
    let body = serde_json::to_vec(&preq).unwrap();
    let frame = format!(
        "POST /predict HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    let mut bytes = frame.into_bytes();
    bytes.extend_from_slice(&body);
    let stream = TcpStream::connect(shared_server().addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(&bytes).unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let resp = read_response(&mut reader).unwrap();
    assert_eq!(resp.status, 200);
    let presp: PredictResponse = serde_json::from_slice(&resp.body).unwrap();
    assert_eq!(presp.predictions_mbps.len(), 2);
    let mut rest = Vec::new();
    let _ = reader.read_to_end(&mut rest);
}
