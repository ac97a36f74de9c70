//! The in-process replay: a workload's own prediction requests, timed
//! single-threaded through the public functions each server stage calls,
//! in the order the server calls them — HTTP parse, JSON decode, session
//! store lock, cluster lookup (registrations), filter update and horizon
//! readout, WAL encode/CRC/append (durable workloads), response encode and
//! HTTP write.

use crate::stats::{median_of, Busy};
use cs2p_core::engine::{ClusterModel, PredictionEngine};
use cs2p_core::FeatureVector;
use cs2p_ml::hmm::{FilterState, HmmFilter};
use cs2p_net::http::{self, IoScratch, Response};
use cs2p_net::persist::{self, PersistedPending, PersistedSession, Wal, WalRecord};
use cs2p_net::protocol::{
    BatchEntryResult, BatchPredictRequest, BatchPredictResponse, PredictRequest, PredictResponse,
};
use cs2p_net::SessionStore;
use cs2p_obs::MonotonicClock;
use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Times the replay is repeated; each stage reports its median.
const REPEATS: usize = 3;
/// The server's store geometry (`ServeConfig::default()`).
const SHARDS: usize = 8;
const MAX_SESSIONS: usize = 100_000;
const GROUP_COMMIT: usize = 64;

/// The replayed stages, in server order.
pub const STAGES: [&str; 12] = [
    "http.parse_ns",
    "protocol.decode_ns",
    "store.lock_ns",
    "core.lookup_ns",
    "ml.filter.observe_ns",
    "ml.filter.readout_ns",
    "persist.encode_ns",
    "persist.crc_ns",
    "persist.append_ns",
    "protocol.encode_ns",
    "http.write_ns",
    // Not a stage: the sum of the stages per request, which the derived
    // server wait is taken against.
    "replay.request_ns",
];

/// One stage's calls and busy time, net of timer overhead.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stage {
    pub calls: u64,
    pub busy_ns: f64,
    /// Mean ns per call (per entry for decode/encode of a batch frame).
    pub mean_ns: f64,
}

/// Replay results by stage name (see [`STAGES`]).
pub type Report = Vec<(&'static str, Stage)>;

#[derive(Clone)]
struct ReplayState {
    model: Option<usize>,
    cluster_hit: bool,
    filter: FilterState,
    observed: Vec<f64>,
}

struct Timers {
    stages: [Busy; 11],
}

impl Timers {
    fn time<T>(&mut self, stage: usize, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.stages[stage].add(t.elapsed());
        out
    }

    /// Books `d` as `n` calls (a frame's decode or encode, per entry).
    fn add_n(&mut self, stage: usize, d: Duration, n: usize) {
        let b = &mut self.stages[stage];
        b.calls += n as u64;
        b.total += d;
    }
}

const PARSE: usize = 0;
const DECODE: usize = 1;
const LOCK: usize = 2;
const LOOKUP: usize = 3;
const OBSERVE: usize = 4;
const READOUT: usize = 5;
const P_ENCODE: usize = 6;
const P_CRC: usize = 7;
const P_APPEND: usize = 8;
const ENCODE: usize = 9;
const WRITE: usize = 10;

fn model_of(engine: &PredictionEngine, idx: Option<usize>) -> &ClusterModel {
    idx.map_or(engine.global_model(), |i| &engine.models()[i])
}

/// Replays `requests` (raw HTTP) once; `wal_dir` enables the WAL stages.
fn replay_once(engine: &PredictionEngine, requests: &[Vec<u8>], wal_dir: Option<&Path>) -> Timers {
    let mut t = Timers {
        stages: [Busy::default(); 11],
    };
    let store: SessionStore<ReplayState> = SessionStore::new(SHARDS, MAX_SESSIONS, None);
    let wal = wal_dir.map(|dir| {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("create replay WAL directory");
        Wal::open(
            &dir.join("replay.wal"),
            Arc::new(MonotonicClock::new()),
            GROUP_COMMIT,
            None,
            false,
            None,
        )
        .expect("open replay WAL")
    });
    let mut scratch = IoScratch::new();
    let mut out = Vec::with_capacity(64 * 1024);
    // Shards locked, in order; an uncontended lock is shorter than a timer
    // read, so the acquisitions are timed together at the end.
    let mut locks: Vec<usize> = Vec::new();
    for raw in requests {
        // The server's connection reader outlives its requests.
        let mut reader = BufReader::new(&raw[..]);
        let req = t.time(PARSE, || {
            http::read_request_buffered(&mut reader, &mut scratch)
                .expect("replayed request parses")
                .expect("replayed request is not empty")
        });
        let batch = req.path == "/predict_batch";
        let d = Instant::now();
        let entries = if batch {
            serde_json::from_slice::<BatchPredictRequest>(&req.body)
                .expect("replayed frame decodes")
                .entries
        } else {
            vec![serde_json::from_slice::<PredictRequest>(&req.body)
                .expect("replayed request decodes")]
        };
        t.add_n(DECODE, d.elapsed(), entries.len());

        // Entries grouped by shard in first-appearance order, one lock
        // per group, as the batch endpoint does.
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for (i, e) in entries.iter().enumerate() {
            let shard = store.shard_of(e.session_id);
            match groups.iter_mut().find(|(s, _)| *s == shard) {
                Some((_, v)) => v.push(i),
                None => groups.push((shard, vec![i])),
            }
        }
        let mut responses: Vec<Option<PredictResponse>> = vec![None; entries.len()];
        for (shard_idx, indices) in &groups {
            locks.push(*shard_idx);
            let mut shard = store.lock_shard(*shard_idx);
            for &i in indices {
                let preq = &entries[i];
                let mut registered = false;
                if shard.get_mut(preq.session_id).is_none() {
                    let features = preq
                        .features
                        .clone()
                        .expect("a registration carries features");
                    let lookup =
                        t.time(LOOKUP, || engine.lookup_detailed(&FeatureVector(features)));
                    let state = ReplayState {
                        model: lookup.model_index,
                        cluster_hit: lookup.provenance.is_cluster_hit(),
                        filter: lookup.model.hmm.filter().state(),
                        observed: Vec::new(),
                    };
                    shard.insert(preq.session_id, state);
                    registered = true;
                }
                let tick = shard.now();
                let state = shard
                    .get_mut(preq.session_id)
                    .expect("session just ensured");
                let model = model_of(engine, state.model);
                let mut filter = HmmFilter::from_state(&model.hmm, state.filter.clone());
                if let Some(w) = preq.measured_mbps {
                    t.time(OBSERVE, || filter.observe(w));
                    state.observed.push(w);
                }
                let predictions_mbps = t.time(READOUT, || {
                    let initial = filter.epoch() == 0;
                    let p: Vec<f64> = (1..=preq.horizon)
                        .map(|k| {
                            if initial && k == 1 {
                                model.initial_median
                            } else {
                                filter.predict_ahead(k)
                            }
                        })
                        .collect();
                    state.filter = filter.state();
                    p
                });
                let initial = state.filter.epoch == 0;
                if let Some(wal) = &wal {
                    let pending = Some(PersistedPending {
                        value: predictions_mbps[0],
                        initial,
                    });
                    let record = if registered {
                        WalRecord::Register {
                            id: preq.session_id,
                            tick,
                            session: PersistedSession {
                                version: 1,
                                model: state.model,
                                cluster_hit: state.cluster_hit,
                                filter: state.filter.clone(),
                                features: preq.features.clone().unwrap_or_default(),
                                observed: state.observed.clone(),
                                pending,
                            },
                        }
                    } else {
                        WalRecord::Update {
                            id: preq.session_id,
                            tick,
                            measured: preq.measured_mbps,
                            observed_len: state.observed.len() as u64,
                            filter: state.filter.clone(),
                            pending,
                        }
                    };
                    let payload = t.time(P_ENCODE, || record.encode());
                    std::hint::black_box(t.time(P_CRC, || persist::crc32(&payload)));
                    t.time(P_APPEND, || wal.append(&payload))
                        .expect("append to replay WAL");
                }
                responses[i] = Some(PredictResponse {
                    predictions_mbps,
                    initial,
                    cluster_sessions: model.n_sessions,
                    cluster_hit: state.cluster_hit,
                    model_version: 1,
                    degradation: None,
                });
            }
        }
        let responses: Vec<PredictResponse> = responses
            .into_iter()
            .map(|r| r.expect("every entry answered"))
            .collect();
        let n = responses.len();
        let e = Instant::now();
        let body = if batch {
            BatchPredictResponse {
                results: responses.into_iter().map(BatchEntryResult::ok).collect(),
            }
            .to_json_bytes()
        } else {
            serde_json::to_vec(&responses[0]).expect("serialize response")
        };
        t.add_n(ENCODE, e.elapsed(), n);
        out.clear();
        t.time(WRITE, || {
            http::write_response_buffered(&mut out, &Response::json(body), &mut scratch)
        })
        .expect("write to a Vec");
    }
    let l = Instant::now();
    for &shard in &locks {
        drop(std::hint::black_box(store.lock_shard(shard)));
    }
    t.add_n(LOCK, l.elapsed(), locks.len());
    if let Some(dir) = wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    t
}

/// Mean cost of one `Instant::now()` + `elapsed()` pair, subtracted from
/// every timed call.
fn timer_overhead_ns() -> f64 {
    let n = 100_000;
    let t = Instant::now();
    for _ in 0..n {
        std::hint::black_box(Instant::now().elapsed());
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Replays `requests` [`REPEATS`] times and reports each stage's median
/// over the repeats, net of timer overhead.
pub fn run(engine: &PredictionEngine, requests: &[Vec<u8>], wal_dir: Option<&Path>) -> Report {
    let overhead = timer_overhead_ns();
    let runs: Vec<Timers> = (0..REPEATS)
        .map(|_| replay_once(engine, requests, wal_dir))
        .collect();
    let mut report: Report = Vec::new();
    let mut per_request_ns = 0.0;
    for (i, name) in STAGES[..11].iter().enumerate() {
        let calls = runs[0].stages[i].calls;
        let busy: Vec<f64> = runs
            .iter()
            .map(|r| {
                let b = &r.stages[i];
                (b.total.as_nanos() as f64 - overhead * timed_calls(i, b.calls, requests.len()))
                    .max(0.0)
            })
            .collect();
        let busy_ns = median_of(&busy);
        let mean_ns = if calls == 0 {
            0.0
        } else {
            busy_ns / calls as f64
        };
        per_request_ns += busy_ns / requests.len().max(1) as f64;
        report.push((
            name,
            Stage {
                calls,
                busy_ns,
                mean_ns,
            },
        ));
    }
    report.push((
        STAGES[11],
        Stage {
            calls: requests.len() as u64,
            busy_ns: per_request_ns * requests.len() as f64,
            mean_ns: per_request_ns,
        },
    ));
    report
}

/// Timer pairs behind a stage's calls: per-entry stages booked once per
/// request are timed once per request, and the locks once in all.
fn timed_calls(stage: usize, calls: u64, requests: usize) -> f64 {
    match stage {
        DECODE | ENCODE => requests as f64,
        LOCK => 1.0,
        _ => calls as f64,
    }
}
