//! Set-up: the seeded world and its trained engine, plus a local mirror of
//! Algorithm 1 as the server serves it, which every workload uses to
//! precompute the exact answers it must get back.

use crate::stats::median_of;
use cs2p_core::engine::{ClusterModel, PredictionEngine};
use cs2p_core::{Dataset, FeatureVector};
use cs2p_eval::EvalConfig;
use cs2p_ml::hmm::{FilterState, HmmFilter};
use cs2p_net::protocol::{PredictRequest, PredictResponse};
use cs2p_net::{serve_with, ServeConfig, ServerHandle};
use std::time::{Duration, Instant};

/// Epochs per test session the workloads replay (sessions shorter than
/// this are skipped).
pub const MIN_EPOCHS: usize = 10;
/// Prediction horizon per request: what `RemotePredictor` asks for.
pub const HORIZON: usize = 8;
/// Model version every answer carries: the benchmark never refreshes.
const MODEL_VERSION: u64 = 1;

/// The trained engine and the held-out day it is tested on.
pub struct World {
    pub engine: PredictionEngine,
    /// Day-2 sessions with at least [`MIN_EPOCHS`] epochs, in dataset order.
    pub sessions: Vec<TestSession>,
}

/// One held-out session: its features and per-epoch throughput (Mbps).
#[derive(Clone)]
pub struct TestSession {
    pub features: Vec<u32>,
    pub trace: Vec<f64>,
}

/// Where set-up time went, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub generate_s: f64,
    pub train_s: f64,
    pub bind_s: f64,
}

/// Generates the `EvalConfig::small()` world at `seed`, splits it at day 1
/// and trains the prediction engine on day 1.
fn build(seed: u64) -> (World, Duration, Duration) {
    let config = EvalConfig {
        seed,
        ..EvalConfig::small()
    };
    let t = Instant::now();
    let (dataset, _world) = cs2p_trace::synth::generate(&config.synth());
    let (train, test) = dataset.split_at_day(1);
    let generate = t.elapsed();
    let t = Instant::now();
    let (engine, _summary) = PredictionEngine::train(&train, &config.engine())
        .expect("the small world trains an engine");
    let train_time = t.elapsed();
    let world = World {
        engine,
        sessions: long_sessions(&test),
    };
    (world, generate, train_time)
}

fn long_sessions(test: &Dataset) -> Vec<TestSession> {
    (0..test.len())
        .map(|i| test.get(i))
        .filter(|s| s.n_epochs() >= MIN_EPOCHS)
        .map(|s| TestSession {
            features: s.features.0.clone(),
            trace: s.throughput.clone(),
        })
        .collect()
}

impl SetupTimes {
    /// The median of each part over repeated set-ups, so one slow repeat
    /// does not move `setup_s`.
    pub fn median(samples: &[SetupTimes]) -> SetupTimes {
        let part =
            |f: fn(&SetupTimes) -> f64| median_of(&samples.iter().map(f).collect::<Vec<_>>());
        SetupTimes {
            total_s: part(|s| s.total_s),
            generate_s: part(|s| s.generate_s),
            train_s: part(|s| s.train_s),
            bind_s: part(|s| s.bind_s),
        }
    }
}

/// Sets up once: generate, train and `bind` a server to the world.
pub fn set_up<S>(seed: u64, bind: impl FnOnce(&World) -> S) -> (World, S, SetupTimes) {
    let (world, generate, train) = build(seed);
    let t = Instant::now();
    let server = bind(&world);
    let bind_time = t.elapsed();
    let times = SetupTimes {
        total_s: (generate + train + bind_time).as_secs_f64(),
        generate_s: generate.as_secs_f64(),
        train_s: train.as_secs_f64(),
        bind_s: bind_time.as_secs_f64(),
    };
    (world, server, times)
}

/// Starts the in-memory prediction server on the world's engine.
pub fn serve(world: &World) -> ServerHandle {
    serve_with(world.engine.clone(), "127.0.0.1:0", ServeConfig::default())
        .expect("bind the prediction server")
}

/// [`time_set_ups`] of the in-memory server.
pub fn time_in_memory_set_ups(seed: u64, n: usize) -> Vec<SetupTimes> {
    time_set_ups(
        seed,
        n,
        |world, _| serve(world),
        |server| {
            server.shutdown();
        },
    )
}

/// Sets up `n` more times only to time it; each world and server is
/// dropped (the server through `unbind`) before the next is built. Runs
/// after the measured pass, so these worlds never count in its memory.
pub fn time_set_ups<S>(
    seed: u64,
    n: usize,
    mut bind: impl FnMut(&World, usize) -> S,
    mut unbind: impl FnMut(S),
) -> Vec<SetupTimes> {
    (0..n)
        .map(|k| {
            let (_world, server, times) = set_up(seed, |world| bind(world, k));
            unbind(server);
            times
        })
        .collect()
}

/// Algorithm 1 exactly as `/predict` serves it for one session: cluster
/// lookup at registration, then per request the filter update with the
/// carried measurement and the horizon readout (the cluster's initial
/// median for the first epoch). Filter state round-trips through
/// [`FilterState`] between requests, as the server's session store does.
pub struct ReferenceSession<'e> {
    model: &'e ClusterModel,
    cluster_hit: bool,
    filter: FilterState,
}

impl<'e> ReferenceSession<'e> {
    pub fn register(engine: &'e PredictionEngine, features: &[u32]) -> Self {
        let lookup = engine.lookup_detailed(&FeatureVector(features.to_vec()));
        ReferenceSession {
            model: lookup.model,
            cluster_hit: lookup.provenance.is_cluster_hit(),
            filter: lookup.model.hmm.filter().state(),
        }
    }

    /// The response the server must give to a request carrying `measured`.
    pub fn step(&mut self, measured: Option<f64>, horizon: usize) -> PredictResponse {
        let mut filter = HmmFilter::from_state(&self.model.hmm, self.filter.clone());
        if let Some(w) = measured {
            filter.observe(w);
        }
        let initial = filter.epoch() == 0;
        let predictions_mbps = (1..=horizon)
            .map(|k| {
                if initial && k == 1 {
                    self.model.initial_median
                } else {
                    filter.predict_ahead(k)
                }
            })
            .collect();
        self.filter = filter.state();
        PredictResponse {
            predictions_mbps,
            initial,
            cluster_sessions: self.model.n_sessions,
            cluster_hit: self.cluster_hit,
            model_version: MODEL_VERSION,
            degradation: None,
        }
    }
}

/// The `epoch`-th request of a replayed live session: features on the
/// first (registration), the previous epoch's measurement afterwards.
pub fn live_request(id: u64, session: &TestSession, epoch: usize) -> PredictRequest {
    PredictRequest {
        session_id: id,
        features: (epoch == 0).then(|| session.features.clone()),
        measured_mbps: epoch.checked_sub(1).map(|e| session.trace[e]),
        horizon: HORIZON,
    }
}
