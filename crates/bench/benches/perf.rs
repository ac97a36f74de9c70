//! Performance claims of §5.3 and §6:
//!
//! - a midstream prediction is "two matrix multiplication operations" and
//!   takes well under 10 ms;
//! - a client model fits in <5 KB;
//! - the prediction server sustains hundreds of predictions per second
//!   (the paper's Node.js server: ~500/s).
//!
//! The `codec` group is report-only: it times the wire codec and the WAL
//! checksum of one `/predict_batch` frame (64 entries, horizon 8). So is
//! `training/spec_search_small_seed1`, which times the Eq. 3 spec search
//! (phase 1 of engine training) on the `EvalConfig::small()` world.

use criterion::{criterion_group, criterion_main, Criterion};
use cs2p_bench::materials;
use cs2p_core::{ClientModel, ClusterFinder, FeatureVector, ThroughputPredictor};
use cs2p_net::protocol::{BatchEntryResult, BatchPredictRequest, BatchPredictResponse};
use cs2p_net::{serve, PredictRequest, PredictResponse};
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

fn bench_prediction_latency(c: &mut Criterion) {
    let m = materials();
    let model = m
        .engine
        .models()
        .iter()
        .max_by_key(|mo| mo.n_sessions)
        .unwrap();

    // Model size claim.
    let cm = ClientModel {
        model: model.clone(),
    };
    println!(
        "[perf] client model wire size: {} bytes ({} HMM states) — paper bound 5120",
        cm.wire_size(),
        model.hmm.n_states()
    );
    assert!(cm.wire_size() < 5 * 1024);

    c.bench_function("predict_next_single", |b| {
        let mut p = cs2p_core::Cs2pPredictor::new(model);
        p.observe(2.0);
        b.iter(|| black_box(p.predict_next()))
    });

    c.bench_function("observe_and_predict_cycle", |b| {
        let mut p = cs2p_core::Cs2pPredictor::new(model);
        b.iter(|| {
            p.observe(black_box(2.0));
            black_box(p.predict_next())
        })
    });

    c.bench_function("predict_ahead_8", |b| {
        let mut p = cs2p_core::Cs2pPredictor::new(model);
        p.observe(2.0);
        b.iter(|| black_box(p.predict_ahead(8)))
    });

    // The server's readout for a horizon-8 request: predictions for
    // 1..=8 epochs ahead from one filter state.
    c.bench_function("horizon_readout_8", |b| {
        let mut f = model.hmm.filter();
        f.observe(2.0);
        b.iter(|| black_box(f.predict_horizon(8)))
    });
}

fn bench_fast_mpc(c: &mut Criterion) {
    use cs2p_abr::{AbrAlgorithm, AbrContext, FastMpc, FastMpcConfig, Mpc, VideoSpec};

    let video = VideoSpec::envivio();
    let start = Instant::now();
    let mut fast = FastMpc::precompute(&video, FastMpcConfig::default());
    println!(
        "[perf] FastMPC table: {} entries ({} bytes), precomputed in {:.2}s",
        fast.table_len(),
        fast.table_bytes(),
        start.elapsed().as_secs_f64()
    );

    let predictions = vec![Some(2.3); 5];
    let ctx = AbrContext {
        chunk_index: 10,
        buffer_seconds: 13.7,
        last_level: Some(2),
        predictions_mbps: &predictions,
        last_actual_mbps: Some(2.1),
        video: &video,
    };
    let mut exact = Mpc::default();
    c.bench_function("mpc_exact_decision", |b| {
        b.iter(|| black_box(exact.select_level(&ctx)))
    });
    c.bench_function("fast_mpc_table_lookup", |b| {
        b.iter(|| black_box(fast.select_level(&ctx)))
    });
}

fn bench_training(c: &mut Criterion) {
    let m = materials();
    let sequences: Vec<Vec<f64>> = m
        .train
        .sessions()
        .iter()
        .filter(|s| s.n_epochs() >= 5)
        .take(60)
        .map(|s| s.throughput.clone())
        .collect();
    let mut g = c.benchmark_group("training");
    g.sample_size(10);
    g.bench_function("baum_welch_60_sequences_5_states", |b| {
        let cfg = cs2p_ml::hmm::TrainConfig {
            n_states: 5,
            max_iters: 15,
            ..Default::default()
        };
        b.iter(|| black_box(cs2p_ml::hmm::train(&sequences, &cfg)))
    });

    // Phase 1 of `PredictionEngine::train` on the seed-1 day-1 split:
    // build the finder, then run one Eq. 3 search per distinct feature
    // combination at the training reference time, on the engine's
    // thread count.
    let engine = m.config.engine();
    let mut combos: Vec<FeatureVector> = m
        .train
        .sessions()
        .iter()
        .map(|s| s.features.clone())
        .collect();
    combos.sort_by(|a, b| a.0.cmp(&b.0));
    combos.dedup();
    let reference = m.train.sessions().last().map_or(0, |s| s.end_time() + 1);
    g.bench_function("spec_search_small_seed1", |b| {
        b.iter(|| {
            let finder = ClusterFinder::new(&m.train, engine.cluster.clone());
            black_box(finder.find_best_specs(&combos, reference, engine.n_threads))
        })
    });
    g.finish();
}

fn bench_server_throughput(c: &mut Criterion) {
    let m = materials();
    let server = serve(m.engine.clone(), "127.0.0.1:0").expect("server");
    let addr = server.addr();
    let features = m.train.get(0).features.0.clone();

    // One-shot throughput measurement with 4 concurrent keep-alive
    // clients, mirroring the paper's "500 predictions per second" check.
    let threads = 4;
    let per_thread = 500u64;
    let start = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let features = features.clone();
            std::thread::spawn(move || {
                let mut client = cs2p_net::HttpClient::new(addr);
                for i in 0..per_thread {
                    let req = PredictRequest {
                        session_id: t * 1_000_000 + i,
                        features: Some(features.clone()),
                        measured_mbps: None,
                        horizon: 1,
                    };
                    let _: PredictResponse = client.post_json("/predict", &req).expect("predict");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = start.elapsed().as_secs_f64();
    let rate = (threads * per_thread) as f64 / elapsed;
    println!(
        "[perf] server throughput: {rate:.0} predictions/s over {threads} connections \
         (paper's Node.js server: ~500/s)"
    );

    // Latency of one round trip (keep-alive, midstream prediction).
    let mut client = cs2p_net::HttpClient::new(addr);
    let reg = PredictRequest {
        session_id: 777,
        features: Some(features.clone()),
        measured_mbps: None,
        horizon: 1,
    };
    let _: PredictResponse = client.post_json("/predict", &reg).unwrap();
    let mut g = c.benchmark_group("server");
    g.sample_size(50);
    g.bench_function("http_predict_roundtrip", |b| {
        b.iter(|| {
            let req = PredictRequest {
                session_id: 777,
                features: None,
                measured_mbps: Some(2.0),
                horizon: 8,
            };
            let resp: PredictResponse = client.post_json("/predict", &req).expect("predict");
            black_box(resp)
        })
    });
    g.finish();
    server.shutdown();
}

fn bench_codec(c: &mut Criterion) {
    let m = materials();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
    // Every value a full-service server reads out: state means and
    // initial medians (Algorithm 1's MLE readout).
    let served: Vec<f64> = m
        .engine
        .models()
        .iter()
        .flat_map(|mo| {
            let means = mo.hmm.emissions.iter().map(|e| e.mean());
            means.chain([mo.initial_median])
        })
        .collect();
    let frame = |predictions: &mut dyn FnMut() -> f64| BatchPredictResponse {
        results: (0..64)
            .map(|_| {
                BatchEntryResult::ok(PredictResponse {
                    predictions_mbps: (0..8).map(|_| predictions()).collect(),
                    initial: false,
                    cluster_sessions: 250,
                    cluster_hit: true,
                    model_version: 1,
                    degradation: None,
                })
            })
            .collect(),
    };
    let means = frame(&mut || served[rng.gen_range(0..served.len())]);
    // Sixteen frames of fresh random values, cycled: a value comes back
    // after 8k other writes to the 1024-slot memo, long evicted.
    let distinct: Vec<BatchPredictResponse> = (0..16)
        .map(|_| frame(&mut || rng.gen_range(0.05..50.0)))
        .collect();
    let request = BatchPredictRequest {
        entries: (0..64)
            .map(|k| PredictRequest {
                session_id: 1 + k,
                features: None,
                measured_mbps: Some(rng.gen_range(0.05..50.0)),
                horizon: 8,
            })
            .collect(),
    }
    .to_json_bytes();
    // An Update record of a 5-state session: tag, id, tick, measurement,
    // observed length, posterior, epoch and pending prediction.
    let record: Vec<u8> = (0..107).map(|_| rng.gen()).collect();

    let mut g = c.benchmark_group("codec");
    g.sample_size(30);
    g.bench_function("decode_frame_64", |b| {
        b.iter(|| black_box(BatchPredictRequest::from_json_bytes(black_box(&request)).unwrap()))
    });
    g.bench_function("encode_response_64_state_means", |b| {
        b.iter(|| black_box(means.to_json_bytes()))
    });
    let mut next = 0;
    g.bench_function("encode_response_64_distinct", |b| {
        b.iter(|| {
            next = (next + 1) % distinct.len();
            black_box(distinct[next].to_json_bytes())
        })
    });
    g.bench_function("crc32_107B", |b| {
        b.iter(|| black_box(cs2p_net::persist::crc32(black_box(&record))))
    });
    g.finish();
}

criterion_group!(
    perf,
    bench_codec,
    bench_prediction_latency,
    bench_fast_mpc,
    bench_training,
    bench_server_throughput
);
criterion_main!(perf);
