//! The Prediction Engine HTTP server (§6, server-side deployment).
//!
//! The paper's Node.js server answers one prediction POST per player per
//! 6-second epoch; at the ROADMAP's target scale that is thousands of
//! concurrent viewers, so the serving layer is shaped like a production
//! service rather than a demo:
//!
//! - **Sharded session store** ([`crate::store::SessionStore`]): per-viewer
//!   HMM filter state lives in N shards keyed by `hash(session_id)`, each
//!   behind its own lock, with TTL/LRU eviction under a capacity bound.
//!   Requests for different sessions proceed in parallel; requests for the
//!   same session stay serialized.
//! - **Bounded worker pool**: a fixed set of worker threads pulls
//!   ready-to-read connections from a bounded queue
//!   ([`crate::pool::BoundedQueue`]). When the queue is full the server
//!   answers `503` + `Retry-After` instead of queueing unboundedly, and
//!   every connection carries read/write timeouts.
//! - **Graceful drain**: `shutdown()` stops accepting (the blocking
//!   acceptor is woken by a loopback connect, not a sleep poll), lets the
//!   workers finish every request already read or readable, then joins all
//!   threads — bounded time, zero dropped in-flight requests.
//!
//! Connection readiness is discovered with non-blocking `peek` (std-only;
//! no epoll available), so one poller thread multiplexes idle keep-alive
//! connections while workers only ever touch connections with bytes
//! waiting. Telemetry flows through `cs2p-obs` under the `serve.*` names
//! (see OBSERVABILITY.md). The pre-PR thread-per-connection server is
//! preserved as [`crate::legacy`] for the `serve_throughput` benchmark.

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionLevel, AdmissionSnapshot};
use crate::http::{
    read_request_buffered, write_response, write_response_buffered, IoScratch, Request, Response,
};
use crate::ops::OpsAdmission;
use crate::ops::{FaultRow, OpsQuality, OpsSnapshot, QualityRow};
use crate::persist::{
    self, PersistConfig, PersistedPending, PersistedSession, SessionPersist, WalBatch, WalRecord,
    WalStats,
};
use crate::pool::BoundedQueue;
use crate::protocol::{
    parse_features_query, BatchEntryResult, BatchPredictRequest, BatchPredictResponse, DecodeError,
    Degradation, Health, PredictRequest, PredictResponse, SessionLog,
};
use crate::quality::{Outcome, QualityConfig, QualityMonitor, SketchKey};
use crate::recorder::SessionRecorder;
use crate::store::{SessionStore, ShardGuard};
use crate::transport::{DeadlineReader, IoHalf, TransportWrapper};
use cs2p_core::engine::{ClusterModel, EngineConfig, TrainSummary};
use cs2p_core::{
    ClientModel, Dataset, FeatureVector, ModelRegistry, ModelVersion, PredictionEngine,
};
use cs2p_ml::hmm::{FilterState, HmmFilter};
use cs2p_obs::{Clock, MonotonicClock, TraceScope};
use parking_lot::Mutex;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock, Weak};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Cap on the requested prediction horizon.
const MAX_HORIZON: usize = 32;
/// How long a worker spin-peeks for the next keep-alive request before
/// handing the connection back to the poller.
const LINGER: Duration = Duration::from_micros(300);
/// Poller wakeup granularity for idle connections (shutdown and new
/// connections are condvar-signalled and do not wait for this).
const POLL_INTERVAL: Duration = Duration::from_millis(1);
/// Requests a worker serves from one connection before re-queueing it,
/// so a chatty pipelining client cannot starve the queue.
const MAX_REQUESTS_PER_TURN: u32 = 32;
/// Cap on per-session recorded observations (a marathon session cannot
/// grow its training record unboundedly; later epochs are dropped).
const MAX_RECORDED_EPOCHS: usize = 1024;
/// Epoch length stamped on recorded sessions (the paper's 6-second
/// epoch; the wire protocol carries no timing, so this is nominal).
const RECORD_EPOCH_SECONDS: u32 = 6;

/// Online model-refresh knobs (see [`ServeConfig::refresh`]).
///
/// The server holds its engine in a versioned `cs2p_core::ModelRegistry`.
/// A refresh snapshots the completed-session window
/// ([`crate::recorder::SessionRecorder`]), retrains with `train_config`
/// (warm-starting every cluster from the live version), and publishes the
/// result as the next [`ModelVersion`] — a brief pointer swap. Sessions
/// already in flight stay pinned to the version they registered on, so
/// their HMM filter state never crosses models.
#[derive(Debug, Clone)]
pub struct RefreshConfig {
    /// Training configuration used by every refresh.
    pub train_config: EngineConfig,
    /// Model versions kept fetchable for pinned readers (min 1).
    pub retain: usize,
    /// Background refresh period, measured on [`ServeConfig::clock`]
    /// (swap in a `ManualClock` for deterministic tests). `None` disables
    /// the background trigger; [`ServerHandle::refresh_models`] still
    /// works.
    pub interval: Option<Duration>,
    /// A refresh is skipped (no-op) until the recorder holds at least
    /// this many completed sessions.
    pub min_sessions: usize,
    /// Completed-session window size (oldest dropped beyond this).
    pub recorder_capacity: usize,
    /// Completed sessions with fewer observed epochs are not recorded.
    pub recorder_min_epochs: usize,
}

impl Default for RefreshConfig {
    fn default() -> Self {
        RefreshConfig {
            train_config: EngineConfig::default(),
            retain: 4,
            interval: None,
            min_sessions: 20,
            recorder_capacity: 10_000,
            recorder_min_epochs: 2,
        }
    }
}

/// Tuning knobs for [`serve_with`]. `Default` is sized for tests and
/// small deployments; every limit is explicit so the load tests can
/// force eviction and backpressure deterministically.
#[derive(Clone)]
pub struct ServeConfig {
    /// Session-store shards (parallelism of session-state access).
    pub n_shards: usize,
    /// Worker threads handling requests.
    pub n_workers: usize,
    /// Bounded request-queue depth; beyond this the server answers 503.
    pub queue_depth: usize,
    /// Session capacity bound across all shards (LRU beyond this).
    pub max_sessions: usize,
    /// Evict sessions idle for more than this many store accesses
    /// (logical TTL — reproducible in tests; `None` disables).
    pub session_ttl_requests: Option<u64>,
    /// Concurrent connection cap; beyond this new connections get 503.
    pub max_connections: usize,
    /// Per-request socket read timeout.
    pub read_timeout: Duration,
    /// Per-response socket write timeout.
    pub write_timeout: Duration,
    /// Value of the `Retry-After` header on 503 responses.
    pub retry_after_seconds: u64,
    /// Slow-peer deadline: total time one request may take to arrive once
    /// its first byte has been read (distinct from the idle keep-alive
    /// wait, which never arms it, and from `read_timeout`, which a
    /// byte-dribbling peer never trips). A violator's connection is cut
    /// and `serve.fault.slow_peer_aborts` bumped. `None` disables.
    pub slow_peer_deadline: Option<Duration>,
    /// Time source for the slow-peer deadline — swap in a
    /// [`cs2p_obs::ManualClock`] for deterministic tests.
    pub clock: Arc<dyn Clock>,
    /// Per-connection transport hook (fault injection, middleboxes).
    /// `None` keeps the statically-dispatched `TcpStream` path.
    pub transport_wrapper: Option<Arc<dyn TransportWrapper>>,
    /// Online model-refresh configuration (registry retention, recorder
    /// bounds, background trigger).
    pub refresh: RefreshConfig,
    /// Online prediction-quality monitoring (APE sketches, drift alarm;
    /// see [`crate::quality`]). The alarm runs on [`ServeConfig::clock`].
    pub quality: QualityConfig,
    /// Overload degradation ladder (see [`crate::admission`]). The
    /// default is disabled — the pre-ladder blanket-503 contract — so
    /// turning the ladder on is an explicit operational decision
    /// ([`AdmissionConfig::watermarks`] for the enabled defaults).
    pub admission: AdmissionConfig,
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("n_shards", &self.n_shards)
            .field("n_workers", &self.n_workers)
            .field("queue_depth", &self.queue_depth)
            .field("max_sessions", &self.max_sessions)
            .field("session_ttl_requests", &self.session_ttl_requests)
            .field("max_connections", &self.max_connections)
            .field("read_timeout", &self.read_timeout)
            .field("write_timeout", &self.write_timeout)
            .field("retry_after_seconds", &self.retry_after_seconds)
            .field("slow_peer_deadline", &self.slow_peer_deadline)
            .field("transport_wrapper", &self.transport_wrapper.is_some())
            .field("refresh", &self.refresh)
            .field("quality", &self.quality)
            .field("admission", &self.admission)
            .finish()
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        let workers = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 8);
        ServeConfig {
            n_shards: 8,
            n_workers: workers,
            queue_depth: 256,
            max_sessions: 100_000,
            session_ttl_requests: None,
            max_connections: 1024,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            retry_after_seconds: 1,
            slow_peer_deadline: Some(Duration::from_secs(30)),
            clock: Arc::new(MonotonicClock::new()),
            transport_wrapper: None,
            refresh: RefreshConfig::default(),
            quality: QualityConfig::default(),
            admission: AdmissionConfig::default(),
        }
    }
}

/// The 1-step-ahead prediction the server is waiting to score against
/// the measurement the player reports on its *next* `/predict`.
#[derive(Debug, Clone, Copy)]
struct PendingPrediction {
    /// Predicted next-epoch throughput, Mbps.
    value: f64,
    /// Whether it was the session's initial (cluster-median) prediction.
    initial: bool,
}

/// Per-session server-side state. The session is *pinned*: it holds the
/// exact engine snapshot (and its version) it registered on, so a model
/// hot-swap never moves its HMM filter state onto a different model —
/// filter posteriors are only meaningful against the model that produced
/// them. The `Arc` keeps the snapshot alive even after the registry GCs
/// the version; eviction drops the pin naturally.
#[derive(Debug, Clone)]
struct SessionState {
    /// Version of `engine` (echoed in every response).
    version: ModelVersion,
    /// The engine snapshot this session is pinned to.
    engine: Arc<PredictionEngine>,
    /// Index into the pinned engine's model list, or `None` for global.
    model: Option<usize>,
    /// Whether registration found a cluster model (vs. the global
    /// fallback) — stamped on responses and quality sketches.
    cluster_hit: bool,
    filter: FilterState,
    /// Registration features, kept for the completed-session record.
    features: FeatureVector,
    /// Measured throughputs reported so far (capped at
    /// [`MAX_RECORDED_EPOCHS`]); drained into the recorder on completion.
    observed: Vec<f64>,
    /// The last 1-step prediction served, awaiting the next measurement
    /// (the online accuracy loop — see [`crate::quality`]).
    pending: Option<PendingPrediction>,
}

/// The HTTP endpoints over a prediction engine — the part of the server
/// that is pure request → response. Shared with [`crate::legacy`] so the
/// benchmark compares serving architectures, not handler code.
pub(crate) struct AppState {
    registry: ModelRegistry,
    sessions: SessionStore<SessionState>,
    recorder: Arc<SessionRecorder>,
    logs: Mutex<Vec<SessionLog>>,
    predictions_served: AtomicU64,
    /// Online accuracy monitor (APE sketches, drift alarm). `Arc` so
    /// the store's eviction sink can count evicted-with-pending
    /// predictions as unmatched.
    monitor: Arc<QualityMonitor>,
    /// Sessions the recorder must hold before a drift-triggered refresh
    /// does anything (mirrors [`RefreshConfig::min_sessions`]).
    refresh_min_sessions: usize,
    /// Back-reference to the serving layer for `/ops` connection/queue
    /// gauges. `Weak` breaks the `Shared → AppState` cycle; unset under
    /// the legacy server (its gauges read as zero).
    server: OnceLock<Weak<Shared>>,
    /// Durability layer (WAL + snapshots + registry bundles); `None` for
    /// an in-memory server (the default, and always for [`crate::legacy`]).
    persist: Option<Arc<SessionPersist>>,
    /// The overload degradation ladder (see [`crate::admission`]).
    /// `Arc` so the store's eviction sink can retire the evicted
    /// session's fallback measurement history.
    admission: Arc<AdmissionController>,
}

impl AppState {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        engine: PredictionEngine,
        refresh: &RefreshConfig,
        quality: QualityConfig,
        admission: AdmissionConfig,
        clock: Arc<dyn Clock>,
        n_shards: usize,
        max_sessions: usize,
        ttl: Option<u64>,
    ) -> Self {
        let registry = ModelRegistry::new(engine, refresh.train_config.clone(), refresh.retain);
        let sessions = SessionStore::new(n_shards, max_sessions, ttl);
        Self::assemble(registry, sessions, refresh, quality, admission, clock, None)
    }

    /// Builds the app state around an already-constructed registry and
    /// session store — the seam [`ServerHandle::open_or_recover`] uses to
    /// start from recovered state instead of empty state.
    fn assemble(
        mut registry: ModelRegistry,
        mut sessions: SessionStore<SessionState>,
        refresh: &RefreshConfig,
        quality: QualityConfig,
        admission: AdmissionConfig,
        clock: Arc<dyn Clock>,
        persist: Option<Arc<SessionPersist>>,
    ) -> Self {
        let (_, engine) = registry.current();
        let recorder = Arc::new(SessionRecorder::new(
            engine.schema().clone(),
            RECORD_EPOCH_SECONDS,
            refresh.recorder_capacity,
            refresh.recorder_min_epochs,
        ));
        let monitor = Arc::new(QualityMonitor::new(quality, Arc::clone(&clock)));
        let admission = Arc::new(AdmissionController::new(admission, clock));
        if let Some(p) = &persist {
            registry.set_persistence(p.registry_sink());
        }
        let sink = Arc::clone(&recorder);
        let sink_monitor = Arc::clone(&monitor);
        let sink_persist = persist.clone();
        let sink_admission = Arc::clone(&admission);
        // An evicted viewer is a completed session: drain its record. A
        // prediction still awaiting its measurement will never be
        // scored — count it so coverage stays honest.
        sessions.set_eviction_sink(Box::new(move |id, state: SessionState| {
            if state.pending.is_some() {
                sink_monitor.note_unmatched();
            }
            // The sink runs under the owning shard's lock, so this Remove
            // lands in the WAL ordered with the mutation that evicted it.
            if let Some(p) = &sink_persist {
                p.log(&WalRecord::Remove { id });
            }
            // The session is gone; its fallback measurement history is
            // dead weight in the side table.
            sink_admission.fallback_tracker().remove(id);
            sink.record(state.features, state.observed);
        }));
        AppState {
            registry,
            sessions,
            recorder,
            logs: Mutex::new(Vec::new()),
            predictions_served: AtomicU64::new(0),
            monitor,
            refresh_min_sessions: refresh.min_sessions,
            server: OnceLock::new(),
            persist,
            admission,
        }
    }

    /// The session's durable image (see [`PersistedSession`]).
    fn persisted_of(state: &SessionState) -> PersistedSession {
        PersistedSession {
            version: state.version.0,
            model: state.model,
            cluster_hit: state.cluster_hit,
            filter: state.filter.clone(),
            features: state.features.0.clone(),
            observed: state.observed.clone(),
            pending: state.pending.map(|p| PersistedPending {
                value: p.value,
                initial: p.initial,
            }),
        }
    }

    pub(crate) fn persist(&self) -> Option<&Arc<SessionPersist>> {
        self.persist.as_ref()
    }

    /// Runs the snapshot compaction if the cadence is due. Must be called
    /// outside every shard lock — the snapshot takes each (non-reentrant)
    /// shard lock itself.
    fn maybe_compact(&self) {
        if let Some(p) = &self.persist {
            if p.should_compact() {
                self.compact_now();
            }
        }
    }

    /// Rotates the WAL and writes a store snapshot now (recovery epilogue
    /// and ops hook). No-op on an in-memory server or when another
    /// compaction is in flight. Must run outside every shard lock.
    pub(crate) fn compact_now(&self) {
        let Some(p) = &self.persist else {
            return;
        };
        let result = p.compact_with(|| {
            let (tick, entries) = self.sessions.snapshot();
            let entries = entries
                .into_iter()
                .map(|(id, last_touch, state)| (id, last_touch, Self::persisted_of(&state)))
                .collect();
            (tick, entries)
        });
        if let Err(e) = result {
            cs2p_obs::event(
                cs2p_obs::Level::Warn,
                "serve.persist.compact_failed",
                vec![("error", e.to_string().into())],
            );
        }
    }

    /// Installs the back-reference to the serving layer (called once by
    /// [`serve_with`] after the `Shared` is built).
    pub(crate) fn install_server(&self, server: Weak<Shared>) {
        let _ = self.server.set(server);
    }

    pub(crate) fn monitor(&self) -> &QualityMonitor {
        &self.monitor
    }

    pub(crate) fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// The `Retry-After` value for admission-layer 503s, read through
    /// the weak serving-layer back-reference (1 s under the legacy
    /// server, which never installs it).
    fn retry_after_seconds(&self) -> u64 {
        self.server
            .get()
            .and_then(Weak::upgrade)
            .map(|s| s.config.retry_after_seconds)
            .unwrap_or(1)
    }

    pub(crate) fn predictions_served(&self) -> u64 {
        self.predictions_served.load(Ordering::Relaxed)
    }

    pub(crate) fn logs(&self) -> Vec<SessionLog> {
        self.logs.lock().clone()
    }

    pub(crate) fn sessions_live(&self) -> usize {
        self.sessions.len()
    }

    pub(crate) fn sessions_evicted(&self) -> u64 {
        self.sessions.evicted()
    }

    pub(crate) fn session_capacity(&self) -> usize {
        self.sessions.capacity()
    }

    pub(crate) fn force_evict(&self, session_id: u64) -> bool {
        self.sessions.force_evict(session_id)
    }

    pub(crate) fn model_version(&self) -> ModelVersion {
        self.registry.current_version()
    }

    pub(crate) fn recorded_sessions(&self) -> usize {
        self.recorder.len()
    }

    pub(crate) fn model_versions(&self) -> Vec<ModelVersion> {
        self.registry.versions()
    }

    pub(crate) fn model_snapshot(&self) -> (ModelVersion, Arc<PredictionEngine>) {
        self.registry.current()
    }

    /// Retrains from the recorder's completed-session window and swaps
    /// the result in. `None` (current version untouched) when the window
    /// holds fewer than `min_sessions` sessions or cannot support a model.
    pub(crate) fn refresh_models(
        &self,
        min_sessions: usize,
    ) -> Option<(ModelVersion, TrainSummary)> {
        if self.recorder.len() < min_sessions {
            return None;
        }
        let dataset = self.recorder.dataset()?;
        self.refresh_models_with(&dataset)
    }

    /// Retrains from an explicit dataset (operator push / tests) and
    /// swaps the result in. In-flight sessions keep their pinned version;
    /// sessions registering after the swap get the new one.
    pub(crate) fn refresh_models_with(
        &self,
        dataset: &Dataset,
    ) -> Option<(ModelVersion, TrainSummary)> {
        let start = Instant::now();
        let out = self.registry.retrain(dataset);
        if let Some((version, summary)) = &out {
            let pinned = self.sessions.count_values(|s| s.version != *version);
            if cs2p_obs::enabled() {
                cs2p_obs::counter_add("serve.model.swaps", 1);
                cs2p_obs::gauge_set("serve.model.version", version.0 as f64);
                cs2p_obs::gauge_set("serve.model.pinned_sessions", pinned as f64);
                cs2p_obs::observe("serve.model.refresh_us", start.elapsed().as_micros() as f64);
                cs2p_obs::event(
                    cs2p_obs::Level::Info,
                    "serve.model.swapped",
                    vec![
                        ("version", version.0.into()),
                        ("pinned_sessions", pinned.into()),
                        ("n_models", summary.n_models.into()),
                        ("warm_started", summary.warm_started.into()),
                        ("em_iterations", summary.em_iterations.into()),
                    ],
                );
            }
        }
        out
    }

    fn model_of(engine: &PredictionEngine, model: Option<usize>) -> &ClusterModel {
        match model {
            Some(i) => &engine.models()[i],
            None => engine.global_model(),
        }
    }

    /// Fires an alarm-triggered model refresh, at most one at a time.
    /// Called outside every shard lock (training is slow). A refresh
    /// already in flight, or too few recorded sessions, makes this a
    /// no-op — the alarm event itself has already been emitted.
    fn refresh_on_drift(&self) {
        if !self.monitor.begin_refresh() {
            return;
        }
        let _ = self.refresh_models(self.refresh_min_sessions);
        self.monitor.end_refresh();
    }

    /// Assembles the `/ops` snapshot (also [`ServerHandle::metrics_snapshot`]).
    pub(crate) fn ops_snapshot(&self) -> OpsSnapshot {
        // Serving-layer gauges come through the weak back-reference;
        // the legacy server never installs it, so they read zero there.
        let (accepted, rejected, live_connections, queue_depth) = self
            .server
            .get()
            .and_then(Weak::upgrade)
            .map(|s| {
                (
                    s.accepted.load(Ordering::Relaxed),
                    s.rejected.load(Ordering::Relaxed),
                    s.live_conns.load(Ordering::Relaxed) as u64,
                    s.queue.len() as u64,
                )
            })
            .unwrap_or((0, 0, 0, 0));
        let (windowed_samples, windowed_median_ape) = self.monitor.windowed();
        // Fault counters live on the global registry (they are bumped
        // on I/O paths with no AppState in scope); empty when disabled.
        let faults = if cs2p_obs::enabled() {
            cs2p_obs::Registry::global()
                .snapshot()
                .counters
                .into_iter()
                .filter(|(name, _)| name.starts_with("serve.fault."))
                .map(|(name, value)| FaultRow { name, value })
                .collect()
        } else {
            Vec::new()
        };
        let (_, engine) = self.registry.current();
        let admission = self.admission.snapshot();
        let store_pressure = self.sessions.pressure();
        OpsSnapshot {
            status: "ok".into(),
            model_version: self.registry.current_version().0,
            n_models: engine.models().len() as u64,
            sessions_live: self.sessions.len() as u64,
            sessions_evicted: self.sessions.evicted(),
            predictions_served: self.predictions_served.load(Ordering::Relaxed),
            logs: self.logs.lock().len() as u64,
            recorded_sessions: self.recorder.len() as u64,
            accepted,
            rejected,
            live_connections,
            queue_depth,
            request_latency_us: self.monitor.latency_snapshot(),
            quality: OpsQuality {
                matched: self.monitor.matched(),
                unmatched: self.monitor.unmatched(),
                drift_alarms: self.monitor.alarms(),
                windowed_samples: windowed_samples as u64,
                windowed_median_ape,
                ape: self
                    .monitor
                    .ape_snapshots()
                    .into_iter()
                    .map(|(key, snap)| QualityRow::from_snapshot(key, snap))
                    .collect(),
            },
            admission: OpsAdmission {
                level: admission.level.as_str().into(),
                pressure: self.admission.pressure(),
                transitions: admission.transitions,
                served_full: admission.served_full,
                served_degraded: admission.served_degraded,
                served_fallback: admission.served_fallback,
                shed: admission.shed,
                fallback_misses: admission.fallback_misses,
                store_occupancy: store_pressure.occupancy,
                store_eviction_rate: store_pressure.eviction_rate,
            },
            faults,
        }
    }

    pub(crate) fn handle(&self, req: &Request) -> Response {
        let _span = cs2p_obs::span("net.server.request");
        let resp = self.route(req);
        if cs2p_obs::enabled() {
            cs2p_obs::counter_add("net.server.requests", 1);
            cs2p_obs::counter_add("net.server.bytes_in", req.body.len() as u64);
            cs2p_obs::counter_add("net.server.bytes_out", resp.body.len() as u64);
            if resp.status >= 400 {
                cs2p_obs::counter_add("net.server.errors", 1);
            }
        }
        resp
    }

    fn route(&self, req: &Request) -> Response {
        match (
            req.method.as_str(),
            req.path.split('?').next().unwrap_or(""),
        ) {
            ("POST", "/predict") => self.handle_predict(req),
            ("POST", "/predict_batch") => self.handle_predict_batch(req),
            ("GET", "/model") => self.handle_model(req),
            ("POST", "/log") => self.handle_log(req),
            ("GET", "/logs") => {
                let logs = self.logs.lock();
                match serde_json::to_vec(&*logs) {
                    Ok(body) => Response::json(body),
                    Err(_) => Response::error(500, "serialization failed"),
                }
            }
            ("GET", "/stats") => {
                let stats = crate::protocol::LogStats::from_logs(&self.logs.lock());
                match serde_json::to_vec(&stats) {
                    Ok(body) => Response::json(body),
                    Err(_) => Response::error(500, "serialization failed"),
                }
            }
            ("GET", "/ops") => match serde_json::to_vec(&self.ops_snapshot()) {
                Ok(body) => Response::json(body),
                Err(_) => Response::error(500, "serialization failed"),
            },
            ("GET", "/ops/metrics") => {
                let text = self.ops_snapshot().to_prometheus();
                let mut resp = Response::new(200, bytes::Bytes::from(text.into_bytes()));
                resp.headers
                    .push(("content-type".into(), "text/plain; version=0.0.4".into()));
                resp
            }
            ("GET", "/healthz") => {
                let (_, engine) = self.registry.current();
                let health = Health {
                    status: "ok".into(),
                    n_models: engine.models().len(),
                    n_sessions: self.sessions.len(),
                    predictions_served: self.predictions_served.load(Ordering::Relaxed),
                    n_logs: self.logs.lock().len(),
                };
                Response::json(serde_json::to_vec(&health).unwrap())
            }
            ("POST" | "GET", _) => Response::error(404, "no such endpoint"),
            _ => Response::error(405, "method not allowed"),
        }
    }

    /// Lock-free validation shared by `/predict` and `/predict_batch`:
    /// entries failing here never touch the session store.
    fn validate_predict(preq: &PredictRequest) -> Result<(), (u16, &'static str)> {
        if preq.horizon == 0 || preq.horizon > MAX_HORIZON {
            return Err((400, "horizon out of range"));
        }
        if let Some(w) = preq.measured_mbps {
            if !w.is_finite() || w < 0.0 {
                return Err((400, "measured throughput must be finite and nonnegative"));
            }
        }
        Ok(())
    }

    /// Ensures a live session exists for `preq`, (re-)registering it from
    /// the request's features when needed. Returns whether a registration
    /// happened. Shared by the Full and Degraded prediction paths — both
    /// admit new sessions; only what they serve afterwards differs.
    fn ensure_session(
        &self,
        shard: &mut ShardGuard<'_, SessionState>,
        preq: &PredictRequest,
    ) -> Result<bool, (u16, &'static str)> {
        if shard.get_mut(preq.session_id).is_some() {
            return Ok(false);
        }
        // Never seen (or TTL/LRU-evicted): (re-)initialize from the
        // request's features, or tell the client to re-register. New
        // sessions pin the registry's current snapshot; the version
        // is fixed for the session's whole lifetime.
        let Some(features) = &preq.features else {
            return Err((404, "unknown session: send features to (re)register"));
        };
        let (version, engine) = self.registry.current();
        if features.len() != engine.schema().len() {
            return Err((400, "feature width mismatch"));
        }
        let fv = FeatureVector(features.clone());
        let lookup = engine.lookup_detailed(&fv);
        let model_idx = lookup.model_index;
        let cluster_hit = lookup.provenance.is_cluster_hit();
        let filter = lookup.model.hmm.filter().state();
        shard.insert(
            preq.session_id,
            SessionState {
                version,
                engine,
                model: model_idx,
                cluster_hit,
                filter,
                features: fv,
                observed: Vec::new(),
                pending: None,
            },
        );
        Ok(true)
    }

    /// The per-entry prediction core, run under the owning shard's lock.
    /// Shared verbatim between the singleton and batched endpoints so a
    /// batch is bit-identical to its sequential expansion. Returns the
    /// response plus the previous prediction's quality outcome, if this
    /// request's measurement closed one — APE scoring happens *after*
    /// the shard lock drops, in both endpoints.
    fn predict_locked(
        &self,
        shard: &mut ShardGuard<'_, SessionState>,
        preq: &PredictRequest,
        wal: &mut WalBatch,
    ) -> Result<(PredictResponse, Option<Outcome>), (u16, &'static str)> {
        let registered = self.ensure_session(shard, preq)?;
        let tick = shard.now();
        let state = shard
            .get_mut(preq.session_id)
            .expect("session just ensured");

        // Resolve against the session's pinned snapshot, never the
        // registry's current one: the filter state is only meaningful
        // against the model that produced it.
        let engine = Arc::clone(&state.engine);
        let model = Self::model_of(&engine, state.model);
        let mut filter = HmmFilter::from_state(&model.hmm, state.filter.clone());
        // The measurement this request carries is the ground truth for
        // the 1-step prediction served last time: score it (outside the
        // shard lock). An actual of zero leaves APE undefined.
        let mut outcome = None;
        if let Some(w) = preq.measured_mbps {
            if let Some(p) = state.pending.take() {
                let key = SketchKey::Served {
                    version: state.version.0,
                    cluster_hit: state.cluster_hit,
                    initial: p.initial,
                };
                outcome = Some(Outcome::of(key, p.value, w));
            }
            filter.observe(w);
            if state.observed.len() < MAX_RECORDED_EPOCHS {
                state.observed.push(w);
            }
        }
        let initial = filter.epoch() == 0;
        let mut predictions_mbps = filter.predict_horizon(preq.horizon);
        if initial {
            predictions_mbps[0] = model.initial_median;
        }
        state.filter = filter.state();
        state.pending = Some(PendingPrediction {
            value: predictions_mbps[0],
            initial,
        });
        let resp = PredictResponse {
            predictions_mbps,
            initial,
            cluster_sessions: model.n_sessions,
            cluster_hit: state.cluster_hit,
            model_version: state.version.0,
            degradation: None,
        };
        // Stage the mutation while the shard lock is still held, so the
        // WAL order agrees with this shard's mutation order; the caller
        // lands the whole staged group (one record here for `/predict`,
        // a shard group for `/predict_batch`) in a single WAL append
        // before the shard lock drops. Registrations carry the full
        // post-request state (one record covers register + first
        // measurement); updates carry absolute values so replaying a
        // record a fuzzy snapshot already includes is a no-op.
        if let Some(p) = &self.persist {
            let record = if registered {
                WalRecord::Register {
                    id: preq.session_id,
                    tick,
                    session: Self::persisted_of(state),
                }
            } else {
                WalRecord::Update {
                    id: preq.session_id,
                    tick,
                    measured: preq.measured_mbps,
                    observed_len: state.observed.len() as u64,
                    filter: state.filter.clone(),
                    pending: state.pending.map(|pp| PersistedPending {
                        value: pp.value,
                        initial: pp.initial,
                    }),
                }
            };
            p.stage(&record, wal);
        }
        Ok((resp, outcome))
    }

    /// The Degraded-level prediction core: registration still works (the
    /// cluster lookup is cheap and keeps re-registering clients alive),
    /// but the answer is the pinned model's cluster-prior median for
    /// every horizon step — no per-session filter read or update, no
    /// pending prediction, no WAL `Update`, no APE scoring. The carried
    /// measurement only feeds the fallback side table (in the caller).
    fn predict_degraded_locked(
        &self,
        shard: &mut ShardGuard<'_, SessionState>,
        preq: &PredictRequest,
        wal: &mut WalBatch,
    ) -> Result<(PredictResponse, Option<Outcome>), (u16, &'static str)> {
        let registered = self.ensure_session(shard, preq)?;
        let tick = shard.now();
        let state = shard
            .get_mut(preq.session_id)
            .expect("session just ensured");
        let engine = Arc::clone(&state.engine);
        let model = Self::model_of(&engine, state.model);
        let resp = PredictResponse {
            predictions_mbps: vec![model.initial_median; preq.horizon],
            initial: state.filter.epoch == 0,
            cluster_sessions: model.n_sessions,
            cluster_hit: state.cluster_hit,
            model_version: state.version.0,
            degradation: Some(Degradation::Degraded),
        };
        // Only a registration mutated anything worth persisting.
        if registered {
            if let Some(p) = &self.persist {
                p.stage(
                    &WalRecord::Register {
                        id: preq.session_id,
                        tick,
                        session: Self::persisted_of(state),
                    },
                    wal,
                );
            }
        }
        Ok((resp, None))
    }

    /// The Fallback-level prediction: answered purely from the session's
    /// own recent measurements via the admission side table — the paper's
    /// harmonic-mean baseline — with no model, registry, or shard-store
    /// access at all. The request's own measurement is recorded first
    /// (the baseline's observe-then-predict order); a session with no
    /// history yet cannot be answered and is shed.
    fn predict_fallback(&self, preq: &PredictRequest) -> Result<PredictResponse, Response> {
        let tracker = self.admission.fallback_tracker();
        if let Some(w) = preq.measured_mbps {
            tracker.record(preq.session_id, w);
        }
        let Some(v) = tracker.predict(preq.session_id) else {
            self.admission.note_fallback_miss();
            return Err(Response::service_unavailable(self.retry_after_seconds()));
        };
        Ok(PredictResponse {
            predictions_mbps: vec![v; preq.horizon],
            initial: false,
            cluster_sessions: 0,
            cluster_hit: false,
            model_version: 0,
            degradation: Some(Degradation::Fallback),
        })
    }

    /// Books a request's deferred quality outcomes in frame order under
    /// one monitor lock, then runs one alarm-triggered refresh per alarm
    /// fired — the refreshes the sequential expansion would have run.
    /// Must run outside every shard lock.
    fn score_deferred(&self, outcomes: impl IntoIterator<Item = Outcome>) {
        let alarms = self.monitor.score(outcomes);
        if self.monitor.config().trigger_refresh {
            // Training is slow — it runs here, after the shard lock is
            // gone, on the worker that happened to trip the alarm.
            for _ in 0..alarms {
                self.refresh_on_drift();
            }
        }
    }

    fn handle_predict(&self, req: &Request) -> Response {
        let Ok(preq) = PredictRequest::from_json_bytes(&req.body) else {
            return Response::error(400, "malformed PredictRequest");
        };
        if let Err((status, msg)) = Self::validate_predict(&preq) {
            return Response::error(status, msg);
        }

        // The ladder level is read once per request, so one request never
        // mixes two levels. Only the prediction endpoints are gated —
        // /ops, /healthz, /model, and /log always answer.
        let level = self.admission.level();
        match level {
            AdmissionLevel::Shed => {
                self.admission.note_shed();
                return Response::service_unavailable(self.retry_after_seconds());
            }
            AdmissionLevel::Fallback => {
                let resp = match self.predict_fallback(&preq) {
                    Ok(resp) => resp,
                    Err(shed) => return shed,
                };
                self.admission.note_served(AdmissionLevel::Fallback);
                self.predictions_served.fetch_add(1, Ordering::Relaxed);
                if cs2p_obs::enabled() {
                    cs2p_obs::counter_add("predict.server.served", 1);
                }
                return Response::json(resp.to_json_bytes());
            }
            AdmissionLevel::Full | AdmissionLevel::Degraded => {}
        }

        let mut shard = self.sessions.lock(preq.session_id);
        let mut wal = WalBatch::default();
        let out = if level == AdmissionLevel::Degraded {
            self.predict_degraded_locked(&mut shard, &preq, &mut wal)
        } else {
            self.predict_locked(&mut shard, &preq, &mut wal)
        };
        if let Some(p) = &self.persist {
            p.log_staged(&mut wal);
        }
        drop(shard);
        let (resp, outcome) = match out {
            Ok(out) => out,
            Err((status, msg)) => return Response::error(status, msg),
        };
        self.score_deferred(outcome);
        // Every measurement an admitted request carries warms the
        // fallback side table, so a later brownout answers mid-stream
        // sessions immediately. Off with the ladder (no side-table cost
        // on the default path).
        if self.admission.enabled() {
            if let Some(w) = preq.measured_mbps {
                self.admission.fallback_tracker().record(preq.session_id, w);
            }
        }
        self.admission.note_served(level);

        self.predictions_served.fetch_add(1, Ordering::Relaxed);
        if cs2p_obs::enabled() {
            cs2p_obs::counter_add("predict.server.served", 1);
            cs2p_obs::gauge_set("serve.sessions", self.sessions.len() as f64);
        }
        self.maybe_compact();
        Response::json(resp.to_json_bytes())
    }

    /// `POST /predict_batch`: many prediction entries in one frame.
    ///
    /// Entries are grouped by session-store shard and each shard lock is
    /// taken **once** per batch; within a group entries run in frame
    /// order, so same-session entries (which always share a shard) see
    /// exactly the sequential `/predict` semantics. Every entry gets its
    /// own status — an evicted session answers a per-entry 404 while the
    /// rest of the batch proceeds. Quality scoring is deferred until all
    /// shard locks are dropped and then runs in frame order, matching
    /// the sequential path's monitor-call order.
    fn handle_predict_batch(&self, req: &Request) -> Response {
        // The reader refuses a frame over the cap at its first entry past
        // it, so an oversized body is never built.
        let breq = match BatchPredictRequest::from_json_bytes(&req.body) {
            Ok(breq) => breq,
            Err(DecodeError::TooLarge) => return Response::error(400, "batch too large"),
            Err(DecodeError::Malformed) => {
                return Response::error(400, "malformed BatchPredictRequest")
            }
        };
        let n = breq.entries.len();
        if n == 0 {
            return Response::error(400, "empty batch");
        }

        // One level per frame (read once), like the singleton endpoint.
        let level = self.admission.level();
        match level {
            AdmissionLevel::Shed => {
                self.admission.note_shed();
                return Response::service_unavailable(self.retry_after_seconds());
            }
            AdmissionLevel::Fallback => return self.handle_batch_fallback(&breq),
            AdmissionLevel::Full | AdmissionLevel::Degraded => {}
        }

        // Group entry indices by owning shard, in first-appearance order
        // (deterministic in the frame alone). The dense `seen` map keeps
        // grouping O(n) without hashing per entry twice.
        let n_shards = self.sessions.n_shards();
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        let mut group_of: Vec<Option<usize>> = vec![None; n_shards];
        for (i, entry) in breq.entries.iter().enumerate() {
            let shard_idx = self.sessions.shard_of(entry.session_id);
            match group_of[shard_idx] {
                Some(g) => groups[g].1.push(i),
                None => {
                    group_of[shard_idx] = Some(groups.len());
                    groups.push((shard_idx, vec![i]));
                }
            }
        }

        // Preallocated response builder: every slot is filled exactly
        // once, no reallocation while a shard lock is held.
        let mut results: Vec<Option<BatchEntryResult>> = Vec::with_capacity(n);
        results.resize_with(n, || None);
        let mut deferred: Vec<Option<Outcome>> = vec![None; n];
        let mut ok_entries = 0u64;
        // One staging buffer reused across shard groups: each group's
        // records land in a single WAL append (one mutex acquisition per
        // group, not per entry), flushed before that group's shard lock
        // drops so WAL order matches the shard's mutation order.
        let mut wal = WalBatch::default();
        for (shard_idx, indices) in &groups {
            let mut shard = self.sessions.lock_shard(*shard_idx);
            for &i in indices {
                let preq = &breq.entries[i];
                let result = match Self::validate_predict(preq) {
                    Err((status, msg)) => BatchEntryResult::failed(status, msg),
                    Ok(()) => {
                        let out = if level == AdmissionLevel::Degraded {
                            self.predict_degraded_locked(&mut shard, preq, &mut wal)
                        } else {
                            self.predict_locked(&mut shard, preq, &mut wal)
                        };
                        match out {
                            Ok((resp, outcome)) => {
                                deferred[i] = outcome;
                                ok_entries += 1;
                                BatchEntryResult::ok(resp)
                            }
                            Err((status, msg)) => BatchEntryResult::failed(status, msg),
                        }
                    }
                };
                results[i] = Some(result);
            }
            if let Some(p) = &self.persist {
                p.log_staged(&mut wal);
            }
        }
        let results: Vec<BatchEntryResult> = results
            .into_iter()
            .map(|r| r.expect("every batch slot filled"))
            .collect();

        // Frame-order scoring, outside every shard lock and under one
        // monitor lock — the same samples in the same order as the
        // sequential expansion of this batch.
        self.score_deferred(deferred.into_iter().flatten());

        for (entry, result) in breq.entries.iter().zip(&results) {
            if result.response.is_none() {
                continue;
            }
            self.admission.note_served(level);
            if self.admission.enabled() {
                if let Some(w) = entry.measured_mbps {
                    self.admission
                        .fallback_tracker()
                        .record(entry.session_id, w);
                }
            }
        }

        self.predictions_served
            .fetch_add(ok_entries, Ordering::Relaxed);
        let partial_failures = n as u64 - ok_entries;
        if cs2p_obs::enabled() {
            cs2p_obs::counter_add("predict.server.served", ok_entries);
            cs2p_obs::counter_add("serve.batch.requests", 1);
            cs2p_obs::counter_add("serve.batch.entries", n as u64);
            cs2p_obs::counter_add("serve.batch.shard_groups", groups.len() as u64);
            if partial_failures > 0 {
                cs2p_obs::counter_add("serve.batch.partial_failures", partial_failures);
            }
            cs2p_obs::gauge_set("serve.sessions", self.sessions.len() as f64);
        }
        self.maybe_compact();
        let bresp = BatchPredictResponse { results };
        // Direct writer: skips the serde Value tree, which at 64 entries
        // per frame costs thousands of small allocations.
        Response::json(bresp.to_json_bytes())
    }

    /// `POST /predict_batch` at Fallback level: every entry is answered
    /// from the side table (or fails with a per-entry 503), with no
    /// shard lock taken and no grouping needed.
    fn handle_batch_fallback(&self, breq: &BatchPredictRequest) -> Response {
        let mut ok_entries = 0u64;
        let results: Vec<BatchEntryResult> = breq
            .entries
            .iter()
            .map(|preq| match Self::validate_predict(preq) {
                Err((status, msg)) => BatchEntryResult::failed(status, msg),
                Ok(()) => match self.predict_fallback(preq) {
                    Ok(resp) => {
                        ok_entries += 1;
                        self.admission.note_served(AdmissionLevel::Fallback);
                        BatchEntryResult::ok(resp)
                    }
                    Err(_shed) => {
                        BatchEntryResult::failed(503, "no measurement history at fallback level")
                    }
                },
            })
            .collect();
        self.predictions_served
            .fetch_add(ok_entries, Ordering::Relaxed);
        let n = breq.entries.len() as u64;
        if cs2p_obs::enabled() {
            cs2p_obs::counter_add("predict.server.served", ok_entries);
            cs2p_obs::counter_add("serve.batch.requests", 1);
            cs2p_obs::counter_add("serve.batch.entries", n);
            if n > ok_entries {
                cs2p_obs::counter_add("serve.batch.partial_failures", n - ok_entries);
            }
        }
        Response::json(BatchPredictResponse { results }.to_json_bytes())
    }

    fn handle_model(&self, req: &Request) -> Response {
        let Some(features) = parse_features_query(&req.path) else {
            return Response::error(400, "missing features query");
        };
        let (_, engine) = self.registry.current();
        if features.len() != engine.schema().len() {
            return Response::error(400, "feature width mismatch");
        }
        let cm = ClientModel::for_client(&engine, &FeatureVector(features));
        match cm.to_json() {
            Ok(body) => Response::json(body.into_bytes()),
            Err(_) => Response::error(500, "serialization failed"),
        }
    }

    fn handle_log(&self, req: &Request) -> Response {
        let Ok(log) = serde_json::from_slice::<SessionLog>(&req.body) else {
            return Response::error(400, "malformed SessionLog");
        };
        // A log upload marks the session complete: retire it from the
        // store and drain its observations into the training recorder.
        let mut alarms = 0;
        let removed = {
            let mut guard = self.sessions.lock(log.session_id);
            let removed = guard.remove(log.session_id);
            // Explicit removes bypass the eviction sink, so the retirement
            // is WAL'd here, still under the owning shard's lock.
            if removed.is_some() {
                if let Some(p) = &self.persist {
                    p.log(&WalRecord::Remove { id: log.session_id });
                }
            }
            removed
        };
        // A completed session's fallback history is dead weight.
        self.admission.fallback_tracker().remove(log.session_id);
        if let Some(state) = removed {
            // The session's in-band loop already scored every prediction
            // it could; the one still pending has no later measurement
            // and never will.
            if state.pending.is_some() {
                self.monitor.note_unmatched();
            }
            self.recorder.record(state.features, state.observed);
        } else {
            // No live session (completed offline, or evicted long ago):
            // the log's own (predicted, actual) pairs are the only
            // accuracy signal. Provenance and model version are unknown
            // here, so they land in the dedicated `log` sketch.
            alarms = self.monitor.score(
                log.throughput_pairs
                    .iter()
                    .filter_map(|&(p, actual)| Some(Outcome::of(SketchKey::Log, p?, actual))),
            );
        }
        self.logs.lock().push(log);
        // One upload, one refresh, however many alarms its pairs fired.
        if alarms > 0 && self.monitor.config().trigger_refresh {
            self.refresh_on_drift();
        }
        self.maybe_compact();
        Response::new(204, bytes::Bytes::new())
    }
}

/// Decrements the live-connection count when the connection dies,
/// whichever thread drops it.
struct ConnSlot(Arc<AtomicUsize>);

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One client connection, handed between the poller and the workers.
/// The buffered halves run over [`IoHalf`] (hook-wrappable transports);
/// readiness polling always peeks the raw socket, so fault wrappers see
/// every byte a worker moves but never affect idle multiplexing.
struct Conn {
    stream: TcpStream,
    reader: BufReader<DeadlineReader>,
    writer: BufWriter<IoHalf>,
    nonblocking: bool,
    _slot: ConnSlot,
}

enum PollState {
    /// Bytes are waiting (or already buffered) — hand to a worker.
    Ready,
    /// No data yet; keep watching.
    Idle,
    /// Peer closed or the socket errored — drop the connection.
    Closed,
}

impl Conn {
    fn new(
        stream: TcpStream,
        conn_seq: u64,
        slot: ConnSlot,
        config: &ServeConfig,
    ) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(config.read_timeout))?;
        stream.set_write_timeout(Some(config.write_timeout))?;
        let (read_half, write_half) =
            IoHalf::pair(&stream, conn_seq, config.transport_wrapper.as_ref())?;
        let deadline_us = config
            .slow_peer_deadline
            .map(|d| d.as_micros().min(u64::MAX as u128) as u64);
        let reader = BufReader::new(DeadlineReader::new(
            read_half,
            Arc::clone(&config.clock),
            deadline_us,
        ));
        let writer = BufWriter::new(write_half);
        Ok(Conn {
            stream,
            reader,
            writer,
            nonblocking: false,
            _slot: slot,
        })
    }

    fn set_blocking(&mut self) -> io::Result<()> {
        if self.nonblocking {
            self.stream.set_nonblocking(false)?;
            self.nonblocking = false;
        }
        Ok(())
    }

    fn set_nonblocking(&mut self) -> io::Result<()> {
        if !self.nonblocking {
            self.stream.set_nonblocking(true)?;
            self.nonblocking = true;
        }
        Ok(())
    }

    /// Non-destructive readiness check (a 1-byte `peek`; nothing is
    /// consumed, so a later blocking read sees the full request).
    fn poll_ready(&mut self) -> PollState {
        if !self.reader.buffer().is_empty() {
            return PollState::Ready;
        }
        if self.set_nonblocking().is_err() {
            return PollState::Closed;
        }
        let mut byte = [0u8; 1];
        match self.stream.peek(&mut byte) {
            Ok(0) => PollState::Closed,
            Ok(_) => PollState::Ready,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => PollState::Idle,
            Err(_) => PollState::Closed,
        }
    }

    /// Spin-peeks (yielding) for up to `window` waiting for the next
    /// keep-alive request, so back-to-back requests skip the poller.
    fn wait_for_data(&mut self, window: Duration) -> PollState {
        let deadline = Instant::now() + window;
        loop {
            match self.poll_ready() {
                PollState::Idle => {
                    if Instant::now() >= deadline {
                        return PollState::Idle;
                    }
                    thread::yield_now();
                }
                state => return state,
            }
        }
    }
}

/// Everything the acceptor, poller, and workers share.
pub(crate) struct Shared {
    app: AppState,
    config: ServeConfig,
    queue: BoundedQueue<Conn>,
    /// Connections waiting to be watched by the poller (newly accepted,
    /// or returned by a worker after going idle).
    intake: StdMutex<Vec<Conn>>,
    intake_cv: Condvar,
    shutdown: AtomicBool,
    live_conns: Arc<AtomicUsize>,
    rejected: AtomicU64,
    accepted: AtomicU64,
}

impl Shared {
    fn intake_lock(&self) -> std::sync::MutexGuard<'_, Vec<Conn>> {
        self.intake
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Answers 503 + `Retry-After` without reading the request (the
    /// request stays unread, so framing cannot desync) and closes.
    fn reject(&self, mut conn: Conn) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        cs2p_obs::counter_add("serve.rejected", 1);
        let _ = conn.set_blocking();
        let _ = write_response(
            &mut conn.writer,
            &Response::service_unavailable(self.config.retry_after_seconds),
        );
    }
}

/// Snapshot of the serving counters (also returned by
/// [`ServerHandle::shutdown`], whose final values are exact because all
/// workers have drained by then).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Successful `/predict` responses.
    pub predictions_served: u64,
    /// Sessions currently resident in the store.
    pub sessions_live: usize,
    /// Sessions evicted by TTL or LRU since startup.
    pub sessions_evicted: u64,
    /// The store's total capacity bound.
    pub session_capacity: usize,
    /// Connections answered with 503 backpressure.
    pub rejected: u64,
    /// Connections accepted.
    pub accepted: u64,
    /// The live model version (1 = the engine the server started with).
    pub model_version: u64,
    /// Completed sessions currently held by the training recorder.
    pub recorded_sessions: usize,
    /// Degradation-ladder counters (level, per-level serve counts, shed).
    pub admission: AdmissionSnapshot,
}

/// A running prediction server (see the module docs for the thread
/// architecture).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    poller_thread: Option<JoinHandle<()>>,
    refresh_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// Opens a durably-persisted server from `dir`, recovering whatever
    /// state a previous incarnation committed there.
    ///
    /// Recovery replays the store snapshot plus every uncovered WAL
    /// generation: the recovered server holds the same sessions — same
    /// HMM filter posteriors, same pinned model versions, same LRU/TTL
    /// stamps, same store tick — as the committed prefix of the crashed
    /// run, so its predictions are bit-identical to a server that never
    /// crashed. Replay truncates at the first torn or corrupt record and
    /// never panics on arbitrary bytes. A fresh (or empty) directory
    /// bootstraps from `engine`, persisting it as model version 1; after
    /// a successful recovery `engine` is unused — the persisted registry
    /// wins. Sessions pinned to a version whose bundle is gone (GC'd or
    /// corrupt) are dropped to the re-register path, never served from a
    /// mismatched model.
    ///
    /// The recovered server starts a fresh WAL generation and compacts
    /// immediately, so replay history stays bounded and any torn tail is
    /// orphaned. Durability counters land under `serve.persist.*`.
    pub fn open_or_recover(
        dir: &Path,
        engine: PredictionEngine,
        addr: &str,
        config: ServeConfig,
        persist_config: PersistConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let start = Instant::now();
        let recovered = persist::recover(dir, MAX_RECORDED_EPOCHS)?;
        let persist = Arc::new(SessionPersist::create(
            dir,
            Arc::clone(&config.clock),
            &persist_config,
        )?);

        let refresh = &config.refresh;
        let restored = match recovered.current_version {
            Some(current) => ModelRegistry::restore(
                recovered
                    .engines
                    .into_iter()
                    .map(|(v, e)| (ModelVersion(v), e))
                    .collect(),
                ModelVersion(current),
                refresh.train_config.clone(),
                refresh.retain,
            ),
            None => None,
        };
        let registry = match restored {
            Some(registry) => registry,
            None => {
                let registry =
                    ModelRegistry::new(engine, refresh.train_config.clone(), refresh.retain);
                // Persist the bootstrap version right away: sessions that
                // pin it must survive a crash that happens before the
                // first retrain ever publishes anything.
                let (v1, e1) = registry.current();
                use cs2p_core::registry::RegistryPersistence;
                persist.registry_sink().publish_version(v1, &e1);
                registry
            }
        };

        let mut dropped_sessions = 0u64;
        let mut entries: Vec<(u64, u64, SessionState)> =
            Vec::with_capacity(recovered.sessions.len());
        for (id, last_touch, ps) in recovered.sessions {
            match rehydrate_session(&registry, ps) {
                Some(session) => entries.push((id, last_touch, session)),
                None => dropped_sessions += 1,
            }
        }
        let sessions = SessionStore::restore(
            config.n_shards,
            config.max_sessions,
            config.session_ttl_requests,
            recovered.tick,
            entries,
        );
        let app = AppState::assemble(
            registry,
            sessions,
            refresh,
            config.quality.clone(),
            config.admission.clone(),
            Arc::clone(&config.clock),
            Some(persist),
        );
        if cs2p_obs::enabled() {
            cs2p_obs::observe(
                "serve.persist.recovery_us",
                start.elapsed().as_micros() as f64,
            );
            cs2p_obs::event(
                cs2p_obs::Level::Info,
                "serve.persist.recovered",
                vec![
                    ("wal_records", recovered.wal_records.into()),
                    ("clean", recovered.clean.into()),
                    ("sessions", app.sessions_live().into()),
                    ("dropped_sessions", dropped_sessions.into()),
                ],
            );
        }
        // Fold the replayed history into a fresh snapshot immediately:
        // bounds the next recovery and orphans any torn tail for good.
        app.compact_now();
        spawn_server(listener, local, app, config)
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// WAL counters of the durability layer; `None` on an in-memory
    /// server (one not opened via [`open_or_recover`](Self::open_or_recover)).
    pub fn persist_stats(&self) -> Option<WalStats> {
        self.shared.app.persist().map(|p| p.wal_stats())
    }

    /// Forces a WAL rotation + store snapshot now (ops hook). No-op on an
    /// in-memory server or when a compaction is already in flight.
    pub fn compact(&self) {
        self.shared.app.compact_now();
    }

    /// Total predictions served so far.
    pub fn predictions_served(&self) -> u64 {
        self.shared.app.predictions_served()
    }

    /// Session logs uploaded so far.
    pub fn logs(&self) -> Vec<SessionLog> {
        self.shared.app.logs()
    }

    /// Forcibly evicts a session mid-stream (chaos/ops hook): the next
    /// request for it gets the "unknown session" re-register path, just
    /// like a TTL/LRU eviction. Counted in `serve.fault.forced_evictions`
    /// (and as a regular eviction). Returns whether it was present.
    pub fn force_evict(&self, session_id: u64) -> bool {
        self.shared.app.force_evict(session_id)
    }

    /// The live model version new sessions will pin.
    pub fn model_version(&self) -> ModelVersion {
        self.shared.app.model_version()
    }

    /// Completed sessions currently held by the training recorder.
    pub fn recorded_sessions(&self) -> usize {
        self.shared.app.recorded_sessions()
    }

    /// Model versions the registry currently retains, ascending. Bounded
    /// by [`RefreshConfig::retain`] plus explicitly pinned versions — the
    /// soak tests assert swaps and evictions never leak versions here.
    pub fn model_versions(&self) -> Vec<ModelVersion> {
        self.shared.app.model_versions()
    }

    /// The live `(version, engine)` snapshot. The `Arc` stays valid (and
    /// bit-identical) across later swaps — what a pinned session holds,
    /// and what `refresh-bench` evaluates offline against held-out days.
    pub fn model_snapshot(&self) -> (ModelVersion, Arc<PredictionEngine>) {
        self.shared.app.model_snapshot()
    }

    /// Retrains from the completed sessions the server has recorded and
    /// hot-swaps the result in (warm-starting every cluster from the live
    /// version). In-flight sessions keep serving from the version they
    /// registered on; only new sessions see the new model. `None` — the
    /// live version untouched — when the recorder holds fewer than
    /// [`RefreshConfig::min_sessions`] sessions or the data cannot
    /// support a model.
    pub fn refresh_models(&self) -> Option<(ModelVersion, TrainSummary)> {
        self.shared
            .app
            .refresh_models(self.shared.config.refresh.min_sessions)
    }

    /// Like [`refresh_models`](Self::refresh_models) but trains from an
    /// explicit dataset (operator push, deterministic tests) instead of
    /// the recorder window.
    pub fn refresh_models_with(&self, dataset: &Dataset) -> Option<(ModelVersion, TrainSummary)> {
        self.shared.app.refresh_models_with(dataset)
    }

    /// The full operational snapshot — exactly the struct `GET /ops`
    /// serializes, without a socket round-trip. Includes request-latency
    /// and online-APE quantiles from the quality monitor (see
    /// [`crate::ops::OpsSnapshot`]).
    pub fn metrics_snapshot(&self) -> OpsSnapshot {
        self.shared.app.ops_snapshot()
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            predictions_served: self.shared.app.predictions_served(),
            sessions_live: self.shared.app.sessions_live(),
            sessions_evicted: self.shared.app.sessions_evicted(),
            session_capacity: self.shared.app.session_capacity(),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            model_version: self.shared.app.model_version().0,
            recorded_sessions: self.shared.app.recorded_sessions(),
            admission: self.shared.app.admission().snapshot(),
        }
    }

    /// The degradation-ladder level requests are admitted at right now.
    pub fn admission_level(&self) -> AdmissionLevel {
        self.shared.app.admission().level()
    }

    /// Pins (or, with `None`, unpins) the degradation ladder — the
    /// deterministic overload-forcing hook the ladder tests and benches
    /// drive (see TESTING.md). Works even when the watermark machinery
    /// is disabled.
    pub fn force_admission_level(&self, level: Option<AdmissionLevel>) {
        self.shared.app.admission().force(level);
    }

    /// Point-in-time degradation-ladder counters.
    pub fn admission_snapshot(&self) -> AdmissionSnapshot {
        self.shared.app.admission().snapshot()
    }

    /// Gracefully drains and stops the server: stop accepting, finish
    /// every request already received or readable, join all threads.
    /// Completes in bounded time (worst case one read-timeout for a
    /// stalled peer) and returns the final counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.shutdown_impl();
        self.stats()
    }

    fn shutdown_impl(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking acceptor with a throwaway loopback connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Wake the poller; it does a final ready sweep and exits.
        self.shared.intake_cv.notify_all();
        if let Some(t) = self.poller_thread.take() {
            let _ = t.join();
        }
        // The refresher polls the shutdown flag every POLL_INTERVAL; any
        // in-progress retrain finishes (bounded) before the join returns.
        if let Some(t) = self.refresh_thread.take() {
            let _ = t.join();
        }
        // Workers drain the queue, then see `None` and exit.
        self.shared.queue.close();
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        // No worker is appending anymore: make the WAL tail durable. A
        // graceful shutdown therefore loses nothing; only a crash can.
        if let Some(p) = self.shared.app.persist() {
            let _ = p.flush();
        }
        // Anything a worker handed back after the poller left is idle by
        // definition — safe to close now that no thread will touch it.
        self.shared.intake_lock().clear();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// Starts the server on `addr` (use port 0 for an ephemeral port) with
/// default [`ServeConfig`].
pub fn serve(engine: PredictionEngine, addr: &str) -> io::Result<ServerHandle> {
    serve_with(engine, addr, ServeConfig::default())
}

/// Starts the server on `addr` with explicit tuning knobs.
pub fn serve_with(
    engine: PredictionEngine,
    addr: &str,
    config: ServeConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let app = AppState::new(
        engine,
        &config.refresh,
        config.quality.clone(),
        config.admission.clone(),
        Arc::clone(&config.clock),
        config.n_shards,
        config.max_sessions,
        config.session_ttl_requests,
    );
    spawn_server(listener, addr, app, config)
}

/// Turns a recovered [`PersistedSession`] back into live session state,
/// re-resolving its engine pin from the recovered registry. `None` — the
/// session is dropped to the re-register path — when the pinned version's
/// bundle is gone or the persisted state is inconsistent with it (model
/// index out of range, posterior or feature width mismatch); recovery
/// must never panic, and `HmmFilter::from_state` would on a bad width.
fn rehydrate_session(registry: &ModelRegistry, ps: PersistedSession) -> Option<SessionState> {
    let version = ModelVersion(ps.version);
    let engine = registry.get(version)?;
    if ps.model.is_some_and(|i| i >= engine.models().len()) {
        return None;
    }
    if ps.features.len() != engine.schema().len() {
        return None;
    }
    let model = AppState::model_of(&engine, ps.model);
    if ps.filter.posterior.len() != model.hmm.n_states() {
        return None;
    }
    Some(SessionState {
        version,
        engine,
        model: ps.model,
        cluster_hit: ps.cluster_hit,
        filter: ps.filter,
        features: FeatureVector(ps.features),
        observed: ps.observed,
        pending: ps.pending.map(|p| PendingPrediction {
            value: p.value,
            initial: p.initial,
        }),
    })
}

/// Spawns the serving threads around an already-built [`AppState`] —
/// shared by [`serve_with`] (fresh state) and
/// [`ServerHandle::open_or_recover`] (recovered state).
fn spawn_server(
    listener: TcpListener,
    addr: SocketAddr,
    app: AppState,
    config: ServeConfig,
) -> io::Result<ServerHandle> {
    let n_workers = config.n_workers.max(1);
    let shared = Arc::new(Shared {
        app,
        queue: BoundedQueue::new(config.queue_depth),
        config,
        intake: StdMutex::new(Vec::new()),
        intake_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        live_conns: Arc::new(AtomicUsize::new(0)),
        rejected: AtomicU64::new(0),
        accepted: AtomicU64::new(0),
    });
    shared.app.install_server(Arc::downgrade(&shared));

    let accept_shared = Arc::clone(&shared);
    let accept_thread = thread::Builder::new()
        .name("cs2p-accept".into())
        .spawn(move || run_acceptor(listener, accept_shared))?;
    let poll_shared = Arc::clone(&shared);
    let poller_thread = thread::Builder::new()
        .name("cs2p-poll".into())
        .spawn(move || run_poller(poll_shared))?;
    let workers = (0..n_workers)
        .map(|i| {
            let worker_shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("cs2p-worker-{i}"))
                .spawn(move || run_worker(worker_shared))
        })
        .collect::<io::Result<Vec<_>>>()?;
    let refresh_thread = match shared.config.refresh.interval {
        Some(interval) => {
            let refresh_shared = Arc::clone(&shared);
            Some(
                thread::Builder::new()
                    .name("cs2p-refresh".into())
                    .spawn(move || run_refresher(refresh_shared, interval))?,
            )
        }
        None => None,
    };

    Ok(ServerHandle {
        addr,
        shared,
        accept_thread: Some(accept_thread),
        poller_thread: Some(poller_thread),
        refresh_thread,
        workers,
    })
}

/// Blocking accept loop. Woken at shutdown by a loopback connect from
/// `shutdown()` — no sleep-polling.
fn run_acceptor(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // The wake-up connection (or a client racing shutdown).
            return;
        }
        let conn_seq = shared.accepted.fetch_add(1, Ordering::Relaxed);
        cs2p_obs::counter_add("serve.accepted", 1);
        let live = shared.live_conns.fetch_add(1, Ordering::Relaxed) + 1;
        let slot = ConnSlot(Arc::clone(&shared.live_conns));
        let conn = match Conn::new(stream, conn_seq, slot, &shared.config) {
            Ok(conn) => conn,
            Err(_) => continue,
        };
        if live > shared.config.max_connections {
            shared.reject(conn);
            continue;
        }
        shared.intake_lock().push(conn);
        shared.intake_cv.notify_all();
    }
}

/// Multiplexes idle connections: new and returned connections arrive via
/// the intake, ready ones go to the worker queue (or get 503 when it is
/// full). Parks on the intake condvar; `POLL_INTERVAL` bounds how late a
/// newly readable connection is noticed.
fn run_poller(shared: Arc<Shared>) {
    let mut conns: Vec<Conn> = Vec::new();
    loop {
        let shutting_down = shared.shutdown.load(Ordering::SeqCst);
        {
            let mut intake = shared.intake_lock();
            conns.append(&mut intake);
        }
        let mut progressed = false;
        let mut i = 0;
        while i < conns.len() {
            match conns[i].poll_ready() {
                PollState::Ready => {
                    let mut conn = conns.swap_remove(i);
                    progressed = true;
                    if conn.set_blocking().is_err() {
                        continue;
                    }
                    match shared.queue.try_push(conn) {
                        Ok(depth) => {
                            shared
                                .app
                                .admission()
                                .note_queue(depth, shared.config.queue_depth);
                            if cs2p_obs::enabled() {
                                cs2p_obs::gauge_set("serve.queue_depth", depth as f64);
                            }
                        }
                        Err(conn) => {
                            shared
                                .app
                                .admission()
                                .note_queue(shared.config.queue_depth, shared.config.queue_depth);
                            shared.reject(conn);
                        }
                    }
                }
                PollState::Closed => {
                    conns.swap_remove(i);
                    progressed = true;
                }
                PollState::Idle => i += 1,
            }
        }
        if shutting_down {
            // Ready connections were swept to the queue above; what is
            // left has no request outstanding, so it can close.
            conns.clear();
            shared.intake_lock().clear();
            return;
        }
        if !progressed {
            let intake = shared.intake_lock();
            if intake.is_empty() {
                match shared.intake_cv.wait_timeout(intake, POLL_INTERVAL) {
                    Ok((guard, _)) => drop(guard),
                    Err(poison) => drop(poison.into_inner()),
                }
            }
        }
    }
}

/// Background model-refresh loop: fires [`AppState::refresh_models`]
/// whenever `interval` has elapsed on the *injectable* clock (so tests
/// drive it with a `ManualClock`), checking the clock and the shutdown
/// flag every [`POLL_INTERVAL`] of real time. Training runs on this
/// thread, outside every request path — workers keep serving the old
/// version until the publish swap.
fn run_refresher(shared: Arc<Shared>, interval: Duration) {
    let interval_us = interval.as_micros().min(u64::MAX as u128) as u64;
    let mut last = shared.config.clock.now_micros();
    while !shared.shutdown.load(Ordering::SeqCst) {
        let now = shared.config.clock.now_micros();
        if now.saturating_sub(last) >= interval_us {
            last = now;
            let _ = shared
                .app
                .refresh_models(shared.config.refresh.min_sessions);
        }
        thread::sleep(POLL_INTERVAL);
    }
}

/// Worker loop: pull a ready connection, serve its request(s), return it
/// to the poller when it goes idle. After `close()` the queue hands out
/// its backlog before `None`, so draining is automatic.
fn run_worker(shared: Arc<Shared>) {
    // Per-worker reusable I/O buffers: every request this worker serves
    // frames through the same line/response scratch, so the steady-state
    // hot path allocates nothing for framing.
    let mut scratch = IoScratch::new();
    while let Some(conn) = shared.queue.pop() {
        // Workers draining the queue is what lets the ladder recover:
        // every pop feeds the falling occupancy back to the controller.
        shared
            .app
            .admission()
            .note_queue(shared.queue.len(), shared.config.queue_depth);
        if cs2p_obs::enabled() {
            cs2p_obs::gauge_set("serve.queue_depth", shared.queue.len() as f64);
        }
        serve_turn(conn, &shared, &mut scratch);
    }
}

/// Serves requests from one ready connection until it goes idle, closes,
/// errors, or exhausts its fairness budget.
fn serve_turn(mut conn: Conn, shared: &Shared, scratch: &mut IoScratch) {
    let mut served: u32 = 0;
    loop {
        if conn.set_blocking().is_err() {
            return;
        }
        match read_request_buffered(&mut conn.reader, scratch) {
            Ok(Some(req)) => {
                // Request fully received: disarm the slow-peer deadline
                // before doing any (unbounded-by-it) handler work.
                conn.reader.get_mut().finish_request();
                // A client-supplied trace id scopes every span and event
                // this request produces (declared before the span so the
                // span's drop-record still sees it).
                let trace_id = req
                    .header("x-trace-id")
                    .and_then(|v| v.trim().parse::<u64>().ok());
                let _trace = trace_id.map(TraceScope::enter);
                let _span = cs2p_obs::span("serve.request");
                let start_us = shared.config.clock.now_micros();
                let resp = shared.app.handle(&req);
                let elapsed_us = shared.config.clock.now_micros().saturating_sub(start_us);
                shared.app.monitor().record_latency_us(elapsed_us as f64);
                shared.app.admission().note_latency(elapsed_us);
                if cs2p_obs::enabled() {
                    cs2p_obs::quantile_observe("serve.request.latency_us", elapsed_us as f64);
                }
                if write_response_buffered(&mut conn.writer, &resp, scratch).is_err() {
                    cs2p_obs::counter_add("serve.fault.write_errors", 1);
                    return;
                }
                served += 1;
            }
            Ok(None) => return, // peer closed keep-alive cleanly
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Unparseable framing (truncated/corrupted request).
                cs2p_obs::counter_add("serve.fault.bad_frames", 1);
                let _ = write_response_buffered(
                    &mut conn.writer,
                    &Response::error(400, &e.to_string()),
                    scratch,
                );
                return;
            }
            Err(_) => {
                // Read timeout, slow-peer abort, or peer reset mid-request.
                cs2p_obs::counter_add("serve.fault.read_errors", 1);
                return;
            }
        }

        // Pipelined bytes already buffered are in-flight work: serve them
        // (even during drain) before deciding what to do with the conn.
        let more_buffered = !conn.reader.buffer().is_empty();
        if !more_buffered {
            if shared.shutdown.load(Ordering::SeqCst) {
                return; // drained: every received request was answered
            }
            match conn.wait_for_data(LINGER) {
                PollState::Ready => {}
                PollState::Closed => return,
                PollState::Idle => {
                    // Hand the idle connection back to the poller.
                    shared.intake_lock().push(conn);
                    shared.intake_cv.notify_all();
                    return;
                }
            }
        }
        if served >= MAX_REQUESTS_PER_TURN {
            // Fairness: let queued connections go first. If the queue is
            // full, keep serving rather than rejecting an active conn.
            match shared.queue.try_push(conn) {
                Ok(_) => return,
                Err(back) => {
                    conn = back;
                    served = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{read_response, write_request};
    use crate::protocol::MAX_BATCH_ENTRIES;
    use cs2p_testkit::scenarios::tiny_engine;

    fn send(addr: SocketAddr, req: &Request) -> Response {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        write_request(&mut writer, req).unwrap();
        read_response(&mut reader).unwrap()
    }

    fn predict(addr: SocketAddr, preq: &PredictRequest) -> PredictResponse {
        let body = serde_json::to_vec(preq).unwrap();
        let resp = send(addr, &Request::new("POST", "/predict", body));
        assert_eq!(resp.status, 200, "body: {:?}", resp.body);
        serde_json::from_slice(&resp.body).unwrap()
    }

    #[test]
    fn full_prediction_session_over_http() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let addr = server.addr();

        // First request: features, no measurement -> initial prediction.
        let r1 = predict(
            addr,
            &PredictRequest {
                session_id: 1,
                features: Some(vec![1]),
                measured_mbps: None,
                horizon: 3,
            },
        );
        assert!(r1.initial);
        assert_eq!(r1.predictions_mbps.len(), 3);
        assert!((r1.predictions_mbps[0] - 5.0).abs() < 0.5);

        // Midstream: send a measurement, get HMM predictions.
        let r2 = predict(
            addr,
            &PredictRequest {
                session_id: 1,
                features: None,
                measured_mbps: Some(5.1),
                horizon: 1,
            },
        );
        assert!(!r2.initial);
        assert!((r2.predictions_mbps[0] - 5.0).abs() < 0.5);

        assert_eq!(server.predictions_served(), 2);
        server.shutdown();
    }

    #[test]
    fn unknown_session_without_features_is_404() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let body = serde_json::to_vec(&PredictRequest {
            session_id: 9,
            features: None,
            measured_mbps: Some(1.0),
            horizon: 1,
        })
        .unwrap();
        let resp = send(server.addr(), &Request::new("POST", "/predict", body));
        assert_eq!(resp.status, 404, "unknown session must trigger re-init");
        server.shutdown();
    }

    #[test]
    fn model_endpoint_serves_client_model() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let resp = send(
            server.addr(),
            &Request::new("GET", "/model?features=0", bytes::Bytes::new()),
        );
        assert_eq!(resp.status, 200);
        let cm = ClientModel::from_json(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert!((cm.model.initial_median - 1.0).abs() < 0.5);
        assert!(resp.body.len() < 5 * 1024, "model payload exceeds 5 KB");
        server.shutdown();
    }

    #[test]
    fn log_upload_and_retrieval() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let log = SessionLog {
            session_id: 3,
            strategy: "CS2P+MPC".into(),
            qoe: 100.0,
            avg_bitrate_kbps: 1000.0,
            good_ratio: 1.0,
            rebuffer_seconds: 0.0,
            startup_delay_seconds: 0.5,
            throughput_pairs: vec![],
            bitrates_kbps: vec![],
        };
        let resp = send(
            server.addr(),
            &Request::new("POST", "/log", serde_json::to_vec(&log).unwrap()),
        );
        assert_eq!(resp.status, 204);
        assert_eq!(server.logs(), vec![log]);
        server.shutdown();
    }

    #[test]
    fn stats_endpoint_aggregates_logs() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        for (strategy, qoe) in [("CS2P+MPC", 100.0), ("CS2P+MPC", 300.0), ("HM+MPC", 50.0)] {
            let log = SessionLog {
                session_id: 1,
                strategy: strategy.into(),
                qoe,
                avg_bitrate_kbps: 1000.0,
                good_ratio: 1.0,
                rebuffer_seconds: 0.0,
                startup_delay_seconds: 0.5,
                throughput_pairs: vec![],
                bitrates_kbps: vec![],
            };
            let resp = send(
                server.addr(),
                &Request::new("POST", "/log", serde_json::to_vec(&log).unwrap()),
            );
            assert_eq!(resp.status, 204);
        }
        let resp = send(
            server.addr(),
            &Request::new("GET", "/stats", bytes::Bytes::new()),
        );
        assert_eq!(resp.status, 200);
        let stats: crate::protocol::LogStats = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(stats.strategies.len(), 2);
        assert_eq!(stats.strategies[0].n_sessions, 2);
        assert!((stats.strategies[0].mean_qoe - 200.0).abs() < 1e-12);
        server.shutdown();
    }

    #[test]
    fn healthz_reports_counters() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        predict(
            server.addr(),
            &PredictRequest {
                session_id: 5,
                features: Some(vec![0]),
                measured_mbps: None,
                horizon: 1,
            },
        );
        let resp = send(
            server.addr(),
            &Request::new("GET", "/healthz", bytes::Bytes::new()),
        );
        let health: Health = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(health.status, "ok");
        assert_eq!(health.n_sessions, 1);
        assert_eq!(health.predictions_served, 1);
        server.shutdown();
    }

    #[test]
    fn unknown_endpoint_404s_and_bad_method_405s() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let resp = send(
            server.addr(),
            &Request::new("GET", "/nope", bytes::Bytes::new()),
        );
        assert_eq!(resp.status, 404);
        let resp = send(
            server.addr(),
            &Request::new("DELETE", "/predict", bytes::Bytes::new()),
        );
        assert_eq!(resp.status, 405);
        server.shutdown();
    }

    #[test]
    fn keep_alive_connection_serves_many_requests() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        for i in 0..5 {
            let preq = PredictRequest {
                session_id: 42,
                features: if i == 0 { Some(vec![1]) } else { None },
                measured_mbps: if i == 0 { None } else { Some(5.0) },
                horizon: 1,
            };
            let req = Request::new("POST", "/predict", serde_json::to_vec(&preq).unwrap());
            write_request(&mut writer, &req).unwrap();
            let resp = read_response(&mut reader).unwrap();
            assert_eq!(resp.status, 200);
        }
        assert_eq!(server.predictions_served(), 5);
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_all_get_responses() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        // Write several requests back-to-back before reading anything.
        let n = 4;
        for i in 0..n {
            let preq = PredictRequest {
                session_id: 77,
                features: if i == 0 { Some(vec![0]) } else { None },
                measured_mbps: if i == 0 { None } else { Some(1.0) },
                horizon: 1,
            };
            write_request(
                &mut writer,
                &Request::new("POST", "/predict", serde_json::to_vec(&preq).unwrap()),
            )
            .unwrap();
        }
        for _ in 0..n {
            let resp = read_response(&mut reader).unwrap();
            assert_eq!(resp.status, 200);
        }
        assert_eq!(server.predictions_served(), n as u64);
        server.shutdown();
    }

    fn predict_batch(
        addr: SocketAddr,
        entries: Vec<PredictRequest>,
    ) -> crate::protocol::BatchPredictResponse {
        let body = serde_json::to_vec(&BatchPredictRequest { entries }).unwrap();
        let resp = send(addr, &Request::new("POST", "/predict_batch", body));
        assert_eq!(resp.status, 200, "body: {:?}", resp.body);
        serde_json::from_slice(&resp.body).unwrap()
    }

    #[test]
    fn batch_matches_its_sequential_expansion() {
        // Same per-session request stream, once as sequential singles,
        // once as batch frames — predictions must be bit-identical.
        let entries_of_epoch = |epoch: usize| -> Vec<PredictRequest> {
            (0..6u64)
                .map(|sid| PredictRequest {
                    session_id: 100 + sid,
                    features: (epoch == 0).then(|| vec![(sid % 2) as u32]),
                    measured_mbps: (epoch > 0).then_some(1.0 + sid as f64 / 3.0),
                    horizon: 2,
                })
                .collect()
        };

        let sequential = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let mut expect: Vec<PredictResponse> = Vec::new();
        for epoch in 0..3 {
            for preq in entries_of_epoch(epoch) {
                expect.push(predict(sequential.addr(), &preq));
            }
        }
        let served = sequential.predictions_served();
        sequential.shutdown();

        let batched = serve_with(
            tiny_engine(),
            "127.0.0.1:0",
            ServeConfig {
                n_shards: 4,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let mut got: Vec<PredictResponse> = Vec::new();
        for epoch in 0..3 {
            let bresp = predict_batch(batched.addr(), entries_of_epoch(epoch));
            for r in bresp.results {
                assert_eq!(r.status, 200, "error: {:?}", r.error);
                got.push(r.response.unwrap());
            }
        }
        assert_eq!(expect, got);
        assert_eq!(batched.predictions_served(), served);
        batched.shutdown();
    }

    #[test]
    fn batch_duplicate_session_entries_run_in_frame_order() {
        // Registration and two measurements for one session in a single
        // frame: the filter must advance exactly as three singles would.
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let entry = |features: Option<Vec<u32>>, measured: Option<f64>| PredictRequest {
            session_id: 9,
            features,
            measured_mbps: measured,
            horizon: 1,
        };
        let bresp = predict_batch(
            server.addr(),
            vec![
                entry(Some(vec![1]), None),
                entry(None, Some(5.2)),
                entry(None, Some(4.9)),
            ],
        );
        assert!(bresp.results.iter().all(|r| r.status == 200));
        assert!(bresp.results[0].response.as_ref().unwrap().initial);
        assert!(!bresp.results[1].response.as_ref().unwrap().initial);
        assert!(!bresp.results[2].response.as_ref().unwrap().initial);

        let control = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let expect = [
            predict(control.addr(), &entry(Some(vec![1]), None)),
            predict(control.addr(), &entry(None, Some(5.2))),
            predict(control.addr(), &entry(None, Some(4.9))),
        ];
        for (r, e) in bresp.results.iter().zip(&expect) {
            assert_eq!(r.response.as_ref().unwrap(), e);
        }
        control.shutdown();
        server.shutdown();
    }

    #[test]
    fn batch_partial_failures_answer_per_entry_statuses() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let bresp = predict_batch(
            server.addr(),
            vec![
                PredictRequest {
                    session_id: 1,
                    features: Some(vec![0]),
                    measured_mbps: None,
                    horizon: 1,
                },
                // Unknown session, no features: per-entry 404.
                PredictRequest {
                    session_id: 2,
                    features: None,
                    measured_mbps: Some(1.0),
                    horizon: 1,
                },
                // Invalid horizon: per-entry 400.
                PredictRequest {
                    session_id: 3,
                    features: Some(vec![0]),
                    measured_mbps: None,
                    horizon: 0,
                },
                // Feature width mismatch: per-entry 400.
                PredictRequest {
                    session_id: 4,
                    features: Some(vec![0, 1, 2]),
                    measured_mbps: None,
                    horizon: 1,
                },
            ],
        );
        let statuses: Vec<u16> = bresp.results.iter().map(|r| r.status).collect();
        assert_eq!(statuses, [200, 404, 400, 400]);
        assert!(bresp.results[1]
            .error
            .as_deref()
            .unwrap()
            .contains("unknown session"));
        // Only the successful entry counts as served.
        assert_eq!(server.predictions_served(), 1);
        server.shutdown();
    }

    #[test]
    fn empty_and_oversized_batches_are_400() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let body = serde_json::to_vec(&BatchPredictRequest { entries: vec![] }).unwrap();
        let resp = send(server.addr(), &Request::new("POST", "/predict_batch", body));
        assert_eq!(resp.status, 400, "empty batch must be a 400, not a 500");

        let too_many: Vec<PredictRequest> = (0..=MAX_BATCH_ENTRIES as u64)
            .map(|sid| PredictRequest {
                session_id: sid,
                features: Some(vec![0]),
                measured_mbps: None,
                horizon: 1,
            })
            .collect();
        let body = serde_json::to_vec(&BatchPredictRequest { entries: too_many }).unwrap();
        let resp = send(server.addr(), &Request::new("POST", "/predict_batch", body));
        assert_eq!(resp.status, 400);
        assert_eq!(
            server.predictions_served(),
            0,
            "rejected batches serve nothing"
        );
        server.shutdown();
    }

    #[test]
    fn oversized_batch_is_refused_before_its_tail_is_read() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        // 1025 well-formed entries, then garbage as entry 1026: the frame
        // is refused as too large at entry 1025, before the garbage.
        let entries: Vec<PredictRequest> = (0..=MAX_BATCH_ENTRIES as u64)
            .map(|sid| PredictRequest {
                session_id: sid,
                features: Some(vec![0]),
                measured_mbps: None,
                horizon: 1,
            })
            .collect();
        let mut body = BatchPredictRequest { entries }.to_json_bytes();
        body.truncate(body.len() - 2);
        body.extend_from_slice(b",{not json}]}");
        let resp = send(server.addr(), &Request::new("POST", "/predict_batch", body));
        assert_eq!(resp.status, 400);
        assert_eq!(&resp.body[..], b"batch too large");
        assert_eq!(server.predictions_served(), 0);
        server.shutdown();
    }

    #[test]
    fn invalid_measurement_rejected() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        predict(
            server.addr(),
            &PredictRequest {
                session_id: 8,
                features: Some(vec![0]),
                measured_mbps: None,
                horizon: 1,
            },
        );
        let raw = br#"{"session_id":8,"features":null,"measured_mbps":-1.0,"horizon":1}"#;
        let resp = send(server.addr(), &Request::new("POST", "/predict", &raw[..]));
        assert_eq!(resp.status, 400);
        server.shutdown();
    }

    #[test]
    fn concurrent_sessions_have_independent_state() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..4)
            .map(|sid| {
                thread::spawn(move || {
                    let isp = (sid % 2) as u32;
                    let r = predict(
                        addr,
                        &PredictRequest {
                            session_id: 100 + sid,
                            features: Some(vec![isp]),
                            measured_mbps: None,
                            horizon: 1,
                        },
                    );
                    (isp, r.predictions_mbps[0])
                })
            })
            .collect();
        for h in handles {
            let (isp, pred) = h.join().unwrap();
            let expected = if isp == 0 { 1.0 } else { 5.0 };
            assert!((pred - expected).abs() < 0.5, "isp {isp}: {pred}");
        }
        server.shutdown();
    }

    #[test]
    fn connection_limit_yields_503_with_retry_after() {
        let config = ServeConfig {
            max_connections: 1,
            ..ServeConfig::default()
        };
        let server = serve_with(tiny_engine(), "127.0.0.1:0", config).unwrap();
        // Occupy the only slot with a live keep-alive connection.
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        write_request(
            &mut writer,
            &Request::new("GET", "/healthz", bytes::Bytes::new()),
        )
        .unwrap();
        assert_eq!(read_response(&mut reader).unwrap().status, 200);
        // The second connection must be refused with backpressure.
        let resp = send(
            server.addr(),
            &Request::new("GET", "/healthz", bytes::Bytes::new()),
        );
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("1"));
        let stats = server.shutdown();
        assert!(stats.rejected >= 1);
    }

    #[test]
    fn lru_eviction_bounds_sessions_and_evicted_reregisters() {
        let config = ServeConfig {
            n_shards: 1,
            max_sessions: 2,
            ..ServeConfig::default()
        };
        let server = serve_with(tiny_engine(), "127.0.0.1:0", config).unwrap();
        let addr = server.addr();
        for sid in 0..3 {
            predict(
                addr,
                &PredictRequest {
                    session_id: sid,
                    features: Some(vec![0]),
                    measured_mbps: None,
                    horizon: 1,
                },
            );
        }
        let stats = server.stats();
        assert!(stats.sessions_live <= 2, "live: {}", stats.sessions_live);
        assert_eq!(stats.sessions_evicted, 1);
        // Session 0 was LRU-evicted; without features it is unknown…
        let body = serde_json::to_vec(&PredictRequest {
            session_id: 0,
            features: None,
            measured_mbps: Some(1.0),
            horizon: 1,
        })
        .unwrap();
        let resp = send(addr, &Request::new("POST", "/predict", body));
        assert_eq!(resp.status, 404);
        // …and with features it cleanly re-registers.
        let r = predict(
            addr,
            &PredictRequest {
                session_id: 0,
                features: Some(vec![0]),
                measured_mbps: None,
                horizon: 1,
            },
        );
        assert!(r.initial);
        server.shutdown();
    }

    #[test]
    fn shutdown_twice_via_drop_is_safe() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let addr = server.addr();
        predict(
            addr,
            &PredictRequest {
                session_id: 1,
                features: Some(vec![0]),
                measured_mbps: None,
                horizon: 1,
            },
        );
        let stats = server.shutdown();
        assert_eq!(stats.predictions_served, 1);
        // The port is released: a fresh server can bind it again.
        let again = serve(tiny_engine(), &addr.to_string());
        if let Ok(s) = again {
            s.shutdown();
        }
    }

    #[test]
    fn responses_carry_model_version_and_sessions_stay_pinned_across_swap() {
        use cs2p_testkit::scenarios::{tiny_dataset, tiny_train_config};
        let config = ServeConfig {
            refresh: RefreshConfig {
                train_config: tiny_train_config(),
                ..RefreshConfig::default()
            },
            ..ServeConfig::default()
        };
        let server = serve_with(tiny_engine(), "127.0.0.1:0", config).unwrap();
        let addr = server.addr();
        let r1 = predict(
            addr,
            &PredictRequest {
                session_id: 1,
                features: Some(vec![1]),
                measured_mbps: None,
                horizon: 1,
            },
        );
        assert_eq!(r1.model_version, 1);
        // Hot-swap a model trained on data drifted up by 2 Mbps.
        let (v2, summary) = server
            .refresh_models_with(&tiny_dataset(2.0))
            .expect("refresh trains");
        assert_eq!(v2, ModelVersion(2));
        assert!(summary.warm_started > 0, "refresh must warm-start");
        assert_eq!(server.model_version(), v2);
        assert_eq!(server.stats().model_version, 2);
        // The in-flight session stays pinned to v1 and its old regime…
        let r2 = predict(
            addr,
            &PredictRequest {
                session_id: 1,
                features: None,
                measured_mbps: Some(5.0),
                horizon: 1,
            },
        );
        assert_eq!(r2.model_version, 1, "midstream session must stay pinned");
        assert!((r2.predictions_mbps[0] - 5.0).abs() < 0.5);
        // …while a session registering after the swap gets v2's regime.
        let r3 = predict(
            addr,
            &PredictRequest {
                session_id: 2,
                features: Some(vec![1]),
                measured_mbps: None,
                horizon: 1,
            },
        );
        assert_eq!(r3.model_version, 2);
        assert!((r3.predictions_mbps[0] - 7.0).abs() < 0.5);
        server.shutdown();
    }

    #[test]
    fn completed_sessions_feed_the_recorder_and_refresh_swaps() {
        use cs2p_testkit::scenarios::tiny_train_config;
        let config = ServeConfig {
            refresh: RefreshConfig {
                train_config: tiny_train_config(),
                min_sessions: 2,
                ..RefreshConfig::default()
            },
            ..ServeConfig::default()
        };
        let server = serve_with(tiny_engine(), "127.0.0.1:0", config).unwrap();
        let addr = server.addr();
        // Too few completed sessions: refresh is a no-op.
        assert!(server.refresh_models().is_none());
        for sid in [10u64, 11] {
            let isp = (sid % 2) as u32;
            let mbps = if isp == 0 { 1.0 } else { 5.0 };
            for epoch in 0..5 {
                predict(
                    addr,
                    &PredictRequest {
                        session_id: sid,
                        features: (epoch == 0).then(|| vec![isp]),
                        measured_mbps: (epoch > 0).then_some(mbps),
                        horizon: 1,
                    },
                );
            }
        }
        // One session completes via its /log upload, one via eviction.
        let log = SessionLog {
            session_id: 10,
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
        assert!(server.force_evict(11));
        assert_eq!(server.recorded_sessions(), 2);
        assert_eq!(server.stats().recorded_sessions, 2);
        let (version, _) = server.refresh_models().expect("enough sessions recorded");
        assert_eq!(version, ModelVersion(2));
        server.shutdown();
    }

    #[test]
    fn background_refresher_fires_on_the_injectable_clock() {
        use cs2p_testkit::scenarios::tiny_train_config;
        let clock = Arc::new(cs2p_obs::ManualClock::new());
        let config = ServeConfig {
            clock: Arc::clone(&clock) as Arc<dyn Clock>,
            refresh: RefreshConfig {
                train_config: tiny_train_config(),
                interval: Some(Duration::from_secs(60)),
                min_sessions: 2,
                ..RefreshConfig::default()
            },
            ..ServeConfig::default()
        };
        let server = serve_with(tiny_engine(), "127.0.0.1:0", config).unwrap();
        let addr = server.addr();
        for sid in [20u64, 21] {
            let isp = (sid % 2) as u32;
            let mbps = if isp == 0 { 1.0 } else { 5.0 };
            for epoch in 0..5 {
                predict(
                    addr,
                    &PredictRequest {
                        session_id: sid,
                        features: (epoch == 0).then(|| vec![isp]),
                        measured_mbps: (epoch > 0).then_some(mbps),
                        horizon: 1,
                    },
                );
            }
            assert!(server.force_evict(sid));
        }
        assert_eq!(server.recorded_sessions(), 2);
        assert_eq!(server.model_version(), ModelVersion(1));
        // Advance the injectable clock past the interval; the refresher
        // (polling every millisecond of real time) picks it up.
        clock.advance(Duration::from_secs(61).as_micros() as u64);
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.model_version() < ModelVersion(2) && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(
            server.model_version(),
            ModelVersion(2),
            "background refresh must fire after the clock advances"
        );
        server.shutdown();
    }

    #[test]
    fn worker_count_one_still_serves_concurrent_clients() {
        let config = ServeConfig {
            n_workers: 1,
            ..ServeConfig::default()
        };
        let server = serve_with(tiny_engine(), "127.0.0.1:0", config).unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..4)
            .map(|sid| {
                thread::spawn(move || {
                    for epoch in 0..3 {
                        let preq = PredictRequest {
                            session_id: 200 + sid,
                            features: if epoch == 0 { Some(vec![1]) } else { None },
                            measured_mbps: if epoch == 0 { None } else { Some(5.0) },
                            horizon: 1,
                        };
                        predict(addr, &preq);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.predictions_served(), 12);
        server.shutdown();
    }
}
