//! Instrumentation overhead of `cs2p-obs` on the training hot path.
//!
//! Times Baum–Welch EM (the most telemetry-dense code in the workspace:
//! one event per iteration plus run counters) in three registry states:
//!
//! 1. `disabled` — the global registry off, every obs call returning
//!    after one relaxed atomic load (the default for library users);
//! 2. `enabled-no-sink` — metrics tables updated, no sink attached;
//! 3. `enabled-memory-sink` — full record dispatch into a `MemorySink`
//!    (the `--metrics` configuration, minus the file write).
//!
//! OBSERVABILITY.md documents the headline number: `disabled` must stay
//! within 5% of a build with no observer attached at all — which is the
//! same thing, since the registry starts disabled.
//!
//! Two further groups cover the observability additions on the serving
//! path: `quantile-sketch` times `quantile_observe` (the streaming
//! p50/p90/p99 sketch behind `/ops` and the quality monitor) in each
//! registry state, and the headline table gains end-to-end serving rows
//! with request tracing off and on.
//!
//! The report-only `quality-monitor` group times the server's online APE
//! scoring with the registry disabled: one `record_ape` into a full
//! 256-sample drift window, and one 64-entry frame scored under a single
//! monitor lock (what `/predict_batch` pays per frame).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use cs2p_ml::hmm::{train, TrainConfig};
use cs2p_net::quality::{Outcome, QualityConfig, QualityMonitor, SketchKey};
use cs2p_obs::{quantile_observe, MemorySink, MonotonicClock, QuantileSketch, Registry};
use cs2p_testkit::loadgen::{run_load, LoadConfig};
use cs2p_testkit::scenarios::tiny_engine;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Instant;

fn training_set() -> Vec<Vec<f64>> {
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    (0..24)
        .map(|_| {
            let mut state = 0usize;
            (0..50)
                .map(|_| {
                    if rng.gen::<f64>() < 0.08 {
                        state = 1 - state;
                    }
                    let base = if state == 0 { 1.2 } else { 4.8 };
                    base + rng.gen_range(-0.3..0.3)
                })
                .collect()
        })
        .collect()
}

fn config() -> TrainConfig {
    TrainConfig {
        n_states: 3,
        max_iters: 15,
        tol: 0.0, // run the full cap so every variant does identical work
        ..Default::default()
    }
}

/// Median wall time of `reps` training runs, in nanoseconds.
fn median_train_nanos(sequences: &[Vec<f64>], cfg: &TrainConfig, reps: usize) -> u128 {
    let mut times: Vec<u128> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(train(black_box(sequences), cfg));
            start.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn obs_overhead(c: &mut Criterion) {
    let sequences = training_set();
    let cfg = config();
    let registry = Registry::global();

    let mut group = c.benchmark_group("train-em-obs");
    group.sample_size(10);

    registry.set_enabled(false);
    group.bench_function("disabled", |b| {
        b.iter(|| train(black_box(&sequences), &cfg))
    });

    registry.set_enabled(true);
    group.bench_function("enabled-no-sink", |b| {
        b.iter(|| train(black_box(&sequences), &cfg))
    });

    let sink = Arc::new(MemorySink::new());
    registry.add_sink(sink.clone());
    group.bench_function("enabled-memory-sink", |b| {
        b.iter(|| {
            sink.clear();
            train(black_box(&sequences), &cfg)
        })
    });
    registry.clear_sinks();
    group.finish();

    // Headline numbers for OBSERVABILITY.md: overhead relative to disabled.
    const REPS: usize = 15;
    registry.set_enabled(false);
    let base = median_train_nanos(&sequences, &cfg, REPS);
    registry.set_enabled(true);
    let no_sink = median_train_nanos(&sequences, &cfg, REPS);
    let sink = Arc::new(MemorySink::new());
    registry.add_sink(sink.clone());
    let with_sink = median_train_nanos(&sequences, &cfg, REPS);
    registry.clear_sinks();
    registry.set_enabled(false);

    let pct = |t: u128| (t as f64 / base as f64 - 1.0) * 100.0;
    println!("[obs-overhead] EM training, median of {REPS} runs:");
    println!(
        "  disabled            {:>10.3} ms (baseline)",
        base as f64 / 1e6
    );
    println!(
        "  enabled, no sink    {:>10.3} ms ({:+.1}%)",
        no_sink as f64 / 1e6,
        pct(no_sink)
    );
    println!(
        "  enabled, mem sink   {:>10.3} ms ({:+.1}%)",
        with_sink as f64 / 1e6,
        pct(with_sink)
    );
}

/// `quantile_observe` per call: the raw sketch as the floor, then the
/// named-registry path disabled (one atomic load) and enabled (lock +
/// bucket increment).
fn quantile_sketch(c: &mut Criterion) {
    let registry = Registry::global();
    let values: Vec<f64> = {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        (0..1024).map(|_| rng.gen_range(0.01..500.0)).collect()
    };

    let mut group = c.benchmark_group("quantile-sketch");
    group.bench_function("raw-sketch-1024", |b| {
        b.iter(|| {
            let mut sketch = QuantileSketch::new();
            for &v in &values {
                sketch.observe(black_box(v));
            }
            black_box(sketch.snapshot())
        })
    });
    registry.set_enabled(false);
    group.bench_function("registry-disabled-1024", |b| {
        b.iter(|| {
            for &v in &values {
                quantile_observe("bench.quantile", black_box(v));
            }
        })
    });
    registry.set_enabled(true);
    group.bench_function("registry-enabled-1024", |b| {
        b.iter(|| {
            for &v in &values {
                quantile_observe("bench.quantile", black_box(v));
            }
        })
    });
    registry.set_enabled(false);
    group.finish();
}

/// Online APE scoring per sample and per 64-entry frame, registry
/// disabled, drift window full at its default 256 samples. The APEs stay
/// under the default alarm threshold, so the window never clears.
fn quality_monitor(c: &mut Criterion) {
    Registry::global().set_enabled(false);
    let apes: Vec<f64> = {
        let mut rng = ChaCha8Rng::seed_from_u64(29);
        (0..1024).map(|_| rng.gen_range(0.0..0.5)).collect()
    };
    let monitor = QualityMonitor::new(QualityConfig::default(), Arc::new(MonotonicClock::new()));
    for &e in &apes[..256] {
        monitor.record_ape(1, true, false, e);
    }
    assert_eq!(monitor.windowed().0, 256, "bench window must be full");

    let mut group = c.benchmark_group("quality-monitor");
    group.sample_size(30);
    let mut i = 0;
    group.bench_function("record-ape-window-256", |b| {
        b.iter(|| {
            i = (i + 1) % apes.len();
            black_box(monitor.record_ape(1, true, false, black_box(apes[i])))
        })
    });
    let frames: Vec<Vec<Outcome>> = apes
        .chunks(64)
        .map(|chunk| {
            chunk
                .iter()
                .enumerate()
                .map(|(j, &e)| {
                    let key = SketchKey::Served {
                        version: 1,
                        cluster_hit: j % 4 != 0,
                        initial: j % 8 == 0,
                    };
                    Outcome::Scored(key, e)
                })
                .collect()
        })
        .collect();
    let mut f = 0;
    group.bench_function("frame-64-one-lock", |b| {
        b.iter(|| {
            f = (f + 1) % frames.len();
            black_box(monitor.score(frames[f].iter().copied()))
        })
    });
    assert_eq!(monitor.alarms(), 0, "bench samples must not alarm");
    group.finish();
}

/// Median wall time of one small loadgen run (2 clients × 8 sessions ×
/// 5 epochs) against a fresh server, in nanoseconds. Server startup and
/// shutdown stay outside the timed region.
fn median_serve_nanos(trace: bool, reps: usize) -> u128 {
    let mut times: Vec<u128> = (0..reps)
        .map(|rep| {
            let server = cs2p_net::serve(tiny_engine(), "127.0.0.1:0").expect("bench server");
            let config = LoadConfig {
                n_clients: 2,
                n_sessions: 8,
                epochs_per_session: 5,
                trace_seed: trace.then_some(0xBE5E ^ rep as u64),
                ..LoadConfig::default()
            };
            let start = Instant::now();
            let report = run_load(server.addr(), &config);
            let elapsed = start.elapsed().as_nanos();
            assert_eq!(report.ok, report.sent, "bench workload must not shed");
            server.shutdown();
            elapsed
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Headline serving rows: end-to-end request cost with tracing off/on,
/// in each registry state. Tracing adds one header and a thread-local
/// scope per request; the disabled-registry delta is the whole cost a
/// production deployment pays for trace-ready clients.
fn serve_tracing_overhead(_c: &mut Criterion) {
    const REPS: usize = 15;
    let registry = Registry::global();

    registry.set_enabled(false);
    let untraced = median_serve_nanos(false, REPS);
    let traced = median_serve_nanos(true, REPS);
    registry.set_enabled(true);
    let sink = Arc::new(MemorySink::new());
    registry.add_sink(sink.clone());
    let traced_sink = median_serve_nanos(true, REPS);
    registry.clear_sinks();
    registry.set_enabled(false);

    let pct = |t: u128| (t as f64 / untraced as f64 - 1.0) * 100.0;
    println!("[obs-overhead] serving 40 requests, median of {REPS} runs:");
    println!(
        "  untraced, disabled  {:>10.3} ms (baseline)",
        untraced as f64 / 1e6
    );
    println!(
        "  traced, disabled    {:>10.3} ms ({:+.1}%)",
        traced as f64 / 1e6,
        pct(traced)
    );
    println!(
        "  traced, mem sink    {:>10.3} ms ({:+.1}%)",
        traced_sink as f64 / 1e6,
        pct(traced_sink)
    );
}

criterion_group!(
    obs_overhead_group,
    obs_overhead,
    quantile_sketch,
    quality_monitor,
    serve_tracing_overhead
);
criterion_main!(obs_overhead_group);
