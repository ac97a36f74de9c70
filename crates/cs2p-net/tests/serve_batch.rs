//! Differential equivalence battery for `POST /predict_batch`.
//!
//! The batched endpoint's contract is that a frame is *semantically
//! identical* to sending its entries as sequential singleton `/predict`
//! POSTs — not "close", bit-identical. These tests prove it three ways:
//!
//! - a loadgen matrix over worker counts {1, 2, 8} × frame sizes
//!   {1, 7, 64}, where every batched run must reproduce the singleton
//!   baseline's per-session prediction sequences bit-for-bit
//!   (via [`assert_serving_concurrency_independence`]);
//! - a twin-server differential drive comparing, per entry, the exact
//!   `(status, response, error)` triple — including per-entry 404s for
//!   unregistered sessions mid-frame — and afterwards the surviving
//!   session *states* (identical follow-up probes must answer
//!   identically) and the quality monitor's APE sketches via `GET /ops`;
//! - frame-order semantics for same-session entries inside one frame
//!   (register + several measurements in a single batch);
//! - a hair-trigger drift alarm firing several times inside one frame:
//!   the frame's one-lock scoring must fire the same alarms, leave the
//!   same window, and trigger the same number of model refreshes as the
//!   singleton expansion.

use cs2p_net::http::{read_response, write_request, Request, Response};
use cs2p_net::protocol::{
    BatchPredictRequest, BatchPredictResponse, PredictRequest, PredictResponse, SessionLog,
};
use cs2p_net::{serve_with, OpsSnapshot, QualityConfig, RefreshConfig, ServeConfig, ServerHandle};
use cs2p_testkit::invariants::assert_serving_concurrency_independence;
use cs2p_testkit::loadgen::{BatchSpec, LoadConfig};
use cs2p_testkit::scenarios::{tiny_engine, tiny_train_config};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn send(addr: SocketAddr, req: &Request) -> Response {
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    write_request(&mut writer, req).unwrap();
    read_response(&mut reader).unwrap()
}

fn ops(addr: SocketAddr) -> OpsSnapshot {
    let resp = send(addr, &Request::new("GET", "/ops", Vec::new()));
    assert_eq!(resp.status, 200);
    serde_json::from_slice(&resp.body).unwrap()
}

fn server(n_workers: usize) -> ServerHandle {
    let config = ServeConfig {
        n_workers,
        n_shards: 4,
        queue_depth: 4096,
        max_sessions: 1 << 20,
        session_ttl_requests: None,
        ..ServeConfig::default()
    };
    serve_with(tiny_engine(), "127.0.0.1:0", config).expect("server starts")
}

/// What one entry produced, normalized across both endpoints: the
/// singleton endpoint's `(HTTP status, parsed response | error text)`
/// and a batch entry's `(status, response, error)` must map to the same
/// triple for the paths to count as equivalent.
type EntryOutcome = (u16, Option<PredictResponse>, Option<String>);

/// A deterministic mixed entry stream: `n_sessions` sessions walked
/// epoch-major (registration first, then measurements), so consecutive
/// entries belong to *different* sessions and a 7-entry frame spans
/// several shard groups. Session id `base + n_sessions` is a ghost: its
/// entries carry a measurement but no features and must answer 404 from
/// both endpoints without derailing neighbours.
fn entry_stream(base: u64, n_sessions: u64, epochs: usize) -> Vec<PredictRequest> {
    let mut entries = Vec::new();
    for epoch in 0..epochs {
        for sid in base..base + n_sessions {
            let measured = 1.0 + ((sid * 31 + epoch as u64 * 7) % 50) as f64 / 10.0;
            entries.push(PredictRequest {
                session_id: sid,
                features: (epoch == 0).then(|| vec![(sid % 2) as u32]),
                measured_mbps: (epoch > 0).then_some(measured),
                horizon: 2,
            });
        }
        // The ghost entry: never registered, so both paths answer 404.
        entries.push(PredictRequest {
            session_id: base + n_sessions,
            features: None,
            measured_mbps: Some(3.0),
            horizon: 1,
        });
    }
    entries
}

fn drive_singleton(addr: SocketAddr, entries: &[PredictRequest]) -> Vec<EntryOutcome> {
    entries
        .iter()
        .map(|preq| {
            let body = serde_json::to_vec(preq).unwrap();
            let resp = send(addr, &Request::new("POST", "/predict", body));
            if resp.status == 200 {
                (200, Some(serde_json::from_slice(&resp.body).unwrap()), None)
            } else {
                (
                    resp.status,
                    None,
                    Some(String::from_utf8(resp.body.to_vec()).unwrap()),
                )
            }
        })
        .collect()
}

fn drive_batched(
    addr: SocketAddr,
    entries: &[PredictRequest],
    frame_size: usize,
) -> Vec<EntryOutcome> {
    let mut outcomes = Vec::new();
    for frame in entries.chunks(frame_size) {
        let breq = BatchPredictRequest {
            entries: frame.to_vec(),
        };
        let resp = send(
            addr,
            &Request::new("POST", "/predict_batch", breq.to_json_bytes()),
        );
        assert_eq!(resp.status, 200, "batch frame failed: {:?}", resp.body);
        let bresp: BatchPredictResponse = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(bresp.results.len(), frame.len(), "frame length mismatch");
        for r in bresp.results {
            outcomes.push((r.status, r.response, r.error));
        }
    }
    outcomes
}

/// Identical follow-up singleton probes against both servers: if any
/// session's filter state (posterior, epoch, pending prediction)
/// diverged, a horizon-3 probe with one more measurement exposes it.
fn probe_states(a: SocketAddr, b: SocketAddr, base: u64, n_sessions: u64, frame_size: usize) {
    for sid in base..base + n_sessions {
        let probe = PredictRequest {
            session_id: sid,
            features: None,
            measured_mbps: Some(2.5 + (sid % 3) as f64),
            horizon: 3,
        };
        let body = serde_json::to_vec(&probe).unwrap();
        let ra = send(a, &Request::new("POST", "/predict", body.clone()));
        let rb = send(b, &Request::new("POST", "/predict", body));
        assert_eq!(ra.status, 200);
        assert_eq!(rb.status, 200);
        let pa: PredictResponse = serde_json::from_slice(&ra.body).unwrap();
        let pb: PredictResponse = serde_json::from_slice(&rb.body).unwrap();
        assert_eq!(
            pa, pb,
            "session {sid} state diverged after frame_size={frame_size}"
        );
    }
}

/// Worker counts {1, 2, 8} × frame sizes {1, 7, 64}: every cell must
/// reproduce the singleton single-worker baseline's per-session
/// prediction sequences bit-identically, under 2 concurrent clients.
#[test]
fn batch_matrix_reproduces_singleton_predictions_across_worker_counts() {
    for &frame_size in &[1usize, 7, 64] {
        let workload = LoadConfig {
            n_clients: 2,
            n_sessions: 32,
            epochs_per_session: 4,
            horizon: 2,
            seed: 81,
            session_id_base: 40_000,
            batch: Some(BatchSpec::fixed(frame_size)),
            ..LoadConfig::default()
        };
        assert_serving_concurrency_independence(&[1, 2, 8], &workload);
    }
}

/// Mixed (not fixed) frame sizes must be equivalent too: the frame
/// boundaries are drawn from the seeded distribution, and wherever they
/// fall the predictions must match the singleton baseline.
#[test]
fn ragged_frame_sizes_reproduce_singleton_predictions() {
    let workload = LoadConfig {
        n_clients: 3,
        n_sessions: 12,
        epochs_per_session: 4,
        horizon: 2,
        seed: 82,
        session_id_base: 41_000,
        batch: Some(BatchSpec {
            min_entries: 1,
            max_entries: 9,
        }),
        ..LoadConfig::default()
    };
    assert_serving_concurrency_independence(&[2], &workload);
}

/// Twin-server differential: the same entry stream driven as singleton
/// POSTs against server A and as `/predict_batch` frames against server
/// B must produce identical per-entry outcomes (including mid-frame
/// 404s), identical surviving session states, and identical quality
/// sketches (`matched`/`unmatched` counts and every APE quantile row).
#[test]
fn batch_frames_match_sequential_singles_end_to_end() {
    const BASE: u64 = 50_000;
    const N_SESSIONS: u64 = 6;
    let entries = entry_stream(BASE, N_SESSIONS, 5);
    for &frame_size in &[1usize, 7, 64] {
        let a = server(2);
        let b = server(2);
        let singles = drive_singleton(a.addr(), &entries);
        let batched = drive_batched(b.addr(), &entries, frame_size);
        assert_eq!(
            singles.len(),
            batched.len(),
            "outcome count mismatch at frame_size={frame_size}"
        );
        for (i, (s, bt)) in singles.iter().zip(&batched).enumerate() {
            assert_eq!(
                s, bt,
                "entry {i} diverged at frame_size={frame_size} \
                 (session {})",
                entries[i].session_id
            );
        }

        probe_states(a.addr(), b.addr(), BASE, N_SESSIONS, frame_size);

        let (oa, ob) = (ops(a.addr()), ops(b.addr()));
        assert_eq!(
            oa.quality, ob.quality,
            "quality monitor diverged at frame_size={frame_size}"
        );
        assert_eq!(oa.predictions_served, ob.predictions_served);
        assert_eq!(oa.sessions_live, ob.sessions_live);
        assert_eq!(oa.sessions_evicted, ob.sessions_evicted);

        a.shutdown();
        b.shutdown();
    }
}

/// Same-session entries inside one frame run in frame order: a single
/// frame carrying `[register s1, measure s1, register s2, measure s1]`
/// must behave exactly like its sequential expansion, interleaved
/// sessions and all.
#[test]
fn same_session_entries_in_one_frame_follow_frame_order() {
    let entries = vec![
        PredictRequest {
            session_id: 60_001,
            features: Some(vec![1]),
            measured_mbps: None,
            horizon: 2,
        },
        PredictRequest {
            session_id: 60_001,
            features: None,
            measured_mbps: Some(4.0),
            horizon: 2,
        },
        PredictRequest {
            session_id: 60_002,
            features: Some(vec![0]),
            measured_mbps: None,
            horizon: 1,
        },
        PredictRequest {
            session_id: 60_001,
            features: None,
            measured_mbps: Some(4.5),
            horizon: 2,
        },
        // Re-registration attempt mid-frame: features on an already
        // registered session are ignored, exactly like the singleton
        // endpoint.
        PredictRequest {
            session_id: 60_002,
            features: Some(vec![1]),
            measured_mbps: Some(1.5),
            horizon: 1,
        },
    ];
    let a = server(1);
    let b = server(1);
    let singles = drive_singleton(a.addr(), &entries);
    // The whole script in ONE frame.
    let batched = drive_batched(b.addr(), &entries, entries.len());
    assert_eq!(singles, batched);
    probe_states(a.addr(), b.addr(), 60_001, 2, entries.len());
    let (oa, ob) = (ops(a.addr()), ops(b.addr()));
    assert_eq!(oa.quality, ob.quality);
    a.shutdown();
    b.shutdown();
}

/// A server whose drift alarm fires every few scored samples (low
/// threshold, no cooldown) and whose alarms retrain from the recorder.
fn drifting_server() -> ServerHandle {
    let config = ServeConfig {
        n_workers: 1,
        n_shards: 4,
        queue_depth: 4096,
        max_sessions: 1 << 20,
        session_ttl_requests: None,
        quality: QualityConfig {
            window: 16,
            threshold_ape: 0.3,
            min_samples: 8,
            cooldown: Duration::ZERO,
            trigger_refresh: true,
        },
        refresh: RefreshConfig {
            train_config: tiny_train_config(),
            min_sessions: 12,
            ..RefreshConfig::default()
        },
        ..ServeConfig::default()
    };
    serve_with(tiny_engine(), "127.0.0.1:0", config).expect("server starts")
}

/// Completes `sid` through `/log`, so the recorder keeps it.
fn log_session(addr: SocketAddr, sid: u64) {
    let log = SessionLog {
        session_id: sid,
        strategy: "CS2P+MPC".into(),
        qoe: 1.0,
        avg_bitrate_kbps: 1000.0,
        good_ratio: 1.0,
        rebuffer_seconds: 0.0,
        startup_delay_seconds: 0.5,
        throughput_pairs: vec![],
        bitrates_kbps: vec![],
    };
    let resp = send(
        addr,
        &Request::new("POST", "/log", serde_json::to_vec(&log).unwrap()),
    );
    assert_eq!(resp.status, 204);
}

/// Twin servers with the drift alarm firing mid-frame: 64 sessions
/// register in one frame, then each epoch of measurements is one
/// 64-entry frame whose scoring fires several alarms. Server A gets the
/// singleton expansion, server B the frames. Both must fire the same
/// alarms, leave the same drift window (median compared by bits), show
/// the same `/ops` quality rows, and refresh their models as often.
#[test]
fn alarms_mid_frame_match_sequential_singles() {
    const BASE: u64 = 71_000;
    const N_SESSIONS: u64 = 64;
    let a = drifting_server();
    let b = drifting_server();
    // Identical warm-up on both: twelve accurate sessions, completed
    // into the recorder so every alarm's refresh actually retrains.
    let warmup: Vec<PredictRequest> = (0..5)
        .flat_map(|epoch| {
            (0..12u64).map(move |sid| PredictRequest {
                session_id: 70_000 + sid,
                features: (epoch == 0).then(|| vec![(sid % 2) as u32]),
                measured_mbps: (epoch > 0).then_some(if sid % 2 == 0 { 1.0 } else { 5.0 }),
                horizon: 1,
            })
        })
        .collect();
    for server in [&a, &b] {
        drive_singleton(server.addr(), &warmup);
        for sid in 70_000..70_012 {
            log_session(server.addr(), sid);
        }
        assert_eq!(server.recorded_sessions(), 12);
    }
    let warm_alarms = a.metrics_snapshot().quality.drift_alarms;
    let warm_version = a.model_version();

    // Every session registers in the first frame (before any alarm),
    // so both servers pin the same model whatever the refreshes do.
    let entries: Vec<PredictRequest> = entry_stream(BASE, N_SESSIONS, 5)
        .into_iter()
        .filter(|e| e.session_id != BASE + N_SESSIONS)
        .collect();
    let singles = drive_singleton(a.addr(), &entries);
    let batched = drive_batched(b.addr(), &entries, N_SESSIONS as usize);
    assert_eq!(singles, batched);

    let (sa, sb) = (a.metrics_snapshot(), b.metrics_snapshot());
    assert!(
        sa.quality.drift_alarms >= warm_alarms + 8,
        "alarms must fire several times per frame: {} after warm-up {}",
        sa.quality.drift_alarms,
        warm_alarms
    );
    assert_eq!(sa.quality.drift_alarms, sb.quality.drift_alarms);
    assert_eq!(sa.quality.windowed_samples, sb.quality.windowed_samples);
    assert_eq!(
        sa.quality.windowed_median_ape.to_bits(),
        sb.quality.windowed_median_ape.to_bits()
    );
    assert_eq!(ops(a.addr()).quality, ops(b.addr()).quality);
    assert!(
        a.model_version() > warm_version,
        "alarms must trigger refreshes"
    );
    assert_eq!(
        a.model_version(),
        b.model_version(),
        "refresh count diverged"
    );
    a.shutdown();
    b.shutdown();
}
