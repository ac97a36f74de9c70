//! Bit-exact decision fixture for the MPC family.
//!
//! Each case hashes a stream of ABR decisions with FNV-1a-64 and compares
//! the digest exactly against
//! `crates/cs2p-testkit/fixtures/decision_bits.txt`. A rewrite of the MPC
//! search must leave every decision unchanged, so these digests must not
//! move unless a change means to alter ABR decisions (TESTING.md).

use cs2p_abr::{
    AbrAlgorithm, AbrContext, FastMpc, FastMpcConfig, Mpc, MpcConfig, QoeParams, RobustMpc,
    VideoSpec,
};
use cs2p_testkit::bits::{check_decision_bits, Fnv1a64};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Contexts per sweep.
const CONTEXTS: usize = 12_000;

/// The Envivio ladder half the time, otherwise a random ascending ladder
/// of 1–6 rungs with its own chunking and buffer cap.
fn random_video(rng: &mut ChaCha8Rng) -> VideoSpec {
    if rng.gen_bool(0.5) {
        return VideoSpec::envivio();
    }
    let mut rate = rng.gen_range(100.0..800.0);
    let bitrates_kbps = (0..rng.gen_range(1..=6usize))
        .map(|_| {
            let r = rate;
            rate += rng.gen_range(50.0..1500.0);
            r
        })
        .collect();
    VideoSpec {
        chunk_seconds: rng.gen_range(1.0..8.0),
        bitrates_kbps,
        n_chunks: rng.gen_range(5..60usize),
        buffer_capacity_seconds: rng.gen_range(10.0..40.0),
    }
}

/// Mostly log-uniform throughputs, with holes and the edge values the
/// search clamps (0, 1e-9) or saturates on (1e3).
fn random_prediction(rng: &mut ChaCha8Rng) -> Option<f64> {
    match rng.gen_range(0..10u32) {
        0 => None,
        1 => Some([0.0, 1e-9, 1e3][rng.gen_range(0..3usize)]),
        _ => Some(rng.gen_range(-3.0f64..3.5).exp()),
    }
}

fn random_qoe(rng: &mut ChaCha8Rng) -> QoeParams {
    QoeParams {
        lambda: [0.0, 1.0, rng.gen_range(0.0..3.0)][rng.gen_range(0..3usize)],
        mu_rebuffer: [0.0, 3000.0, rng.gen_range(0.0..6000.0)][rng.gen_range(0..3usize)],
        ..QoeParams::default()
    }
}

/// A decision context: horizon 1–6 worth of predictions (sometimes fewer,
/// sometimes more), any buffer, any last level, chunks up to the end.
struct Draw {
    video: VideoSpec,
    preds: Vec<Option<f64>>,
    buffer: f64,
    last: Option<usize>,
    chunk: usize,
}

fn random_draw(rng: &mut ChaCha8Rng, video: VideoSpec, horizon: usize) -> Draw {
    let n_preds = rng.gen_range(0..=horizon + 1);
    let preds = (0..n_preds).map(|_| random_prediction(rng)).collect();
    let buffer = if rng.gen_bool(0.1) {
        0.0
    } else {
        rng.gen_range(0.0..=video.buffer_capacity_seconds)
    };
    let last = if rng.gen_bool(0.2) {
        None
    } else {
        Some(rng.gen_range(0..video.n_levels()))
    };
    let chunk = if rng.gen_bool(0.3) {
        video.n_chunks - rng.gen_range(0..=horizon.min(video.n_chunks))
    } else {
        rng.gen_range(0..video.n_chunks)
    };
    Draw {
        video,
        preds,
        buffer,
        last,
        chunk,
    }
}

fn ctx<'a>(d: &'a Draw, preds: &'a [Option<f64>], actual: Option<f64>) -> AbrContext<'a> {
    AbrContext {
        chunk_index: d.chunk,
        buffer_seconds: d.buffer,
        last_level: d.last,
        predictions_mbps: preds,
        last_actual_mbps: actual,
        video: &d.video,
    }
}

#[test]
fn fast_mpc_envivio_table_is_bit_exact() {
    let fast = FastMpc::precompute(&VideoSpec::envivio(), FastMpcConfig::default());
    let digest = Fnv1a64::new()
        .u64(fast.cells().len() as u64)
        .bytes(fast.cells())
        .finish();
    check_decision_bits("fast_mpc_envivio_default", digest);
}

#[test]
fn mpc_sweep_is_bit_exact() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x4d50_4331);
    let mut digest = Fnv1a64::new();
    let mut per_level = [0usize; 6];
    for _ in 0..CONTEXTS {
        let horizon = rng.gen_range(1..=6usize);
        let qoe = random_qoe(&mut rng);
        let video = random_video(&mut rng);
        let d = random_draw(&mut rng, video, horizon);
        let mut mpc = Mpc::new(MpcConfig { horizon, qoe });
        let level = mpc.select_level(&ctx(&d, &d.preds, None));
        per_level[level] += 1;
        digest.u64(level as u64);
    }
    // The sweep must exercise the search, not just its early returns.
    assert!(
        per_level.iter().all(|&n| n >= CONTEXTS / 100),
        "decisions per level: {per_level:?}"
    );
    check_decision_bits("mpc_sweep_seed_4d504331", digest.finish());
}

#[test]
fn robust_mpc_sweep_is_bit_exact() {
    // Sessions of consecutive decisions, so the error window and the
    // discount carry over between calls.
    let mut rng = ChaCha8Rng::seed_from_u64(0x524d_5043);
    let mut digest = Fnv1a64::new();
    let sessions = CONTEXTS / 6;
    for _ in 0..sessions {
        let horizon = rng.gen_range(1..=6usize);
        let qoe = random_qoe(&mut rng);
        let video = random_video(&mut rng);
        let mut robust = RobustMpc::new(MpcConfig { horizon, qoe });
        for _ in 0..6 {
            let d = random_draw(&mut rng, video.clone(), horizon);
            let actual = random_prediction(&mut rng);
            digest.u64(robust.select_level(&ctx(&d, &d.preds, actual)) as u64);
            digest.f64s(&[robust.discount()]);
        }
    }
    check_decision_bits("robust_mpc_sweep_seed_524d5043", digest.finish());
}
