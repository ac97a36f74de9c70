//! Differential oracle for the MPC search.
//!
//! [`oracle_select_level`] and [`search`] are the plain recursive
//! enumeration the table-driven kernel in `cs2p_abr::Mpc` replaced, kept
//! verbatim (less telemetry). The property below requires the kernel to
//! pick the same level on every generated context: ladders of 1–7 rungs,
//! horizons 1–8, `None` holes, the clamped and saturating predictions 0,
//! 1e-9 and 1e3, zero smoothness and rebuffer weights, no previous level,
//! any buffer, and chunks close to the end of the video. One controller
//! decides two contexts in a row, so its reused workspace is exercised
//! across changes of ladder and of planned steps.

use cs2p_abr::{AbrAlgorithm, AbrContext, Mpc, MpcConfig, QoeParams, VideoSpec};
use proptest::prelude::*;

/// The recursive enumeration's `select_level`.
fn oracle_select_level(config: &MpcConfig, ctx: &AbrContext) -> usize {
    // Resolve the prediction for each lookahead step: missing entries
    // inherit the nearest earlier prediction; with no information at
    // all, be conservative.
    let mut preds = Vec::with_capacity(config.horizon);
    let mut last_seen: Option<f64> = None;
    for i in 0..config.horizon {
        let p = ctx.predictions_mbps.get(i).copied().flatten().or(last_seen);
        last_seen = p;
        preds.push(p);
    }
    if preds[0].is_none() {
        return 0;
    }
    // Don't plan past the end of the video.
    let remaining = ctx.video.n_chunks - ctx.chunk_index;
    let steps = config.horizon.min(remaining);

    let mut best_level = 0;
    let mut best_score = f64::NEG_INFINITY;
    // DFS over bitrate sequences.
    let mut stack: Vec<usize> = Vec::with_capacity(steps);
    search(
        ctx,
        &config.qoe,
        &preds,
        steps,
        ctx.buffer_seconds,
        ctx.last_level,
        0.0,
        &mut stack,
        &mut |first, score| {
            if score > best_score {
                best_score = score;
                best_level = first;
            }
        },
    );
    best_level
}

/// Recursive rollout: tries every level at the current depth, carrying the
/// simulated buffer and accumulated score.
#[allow(clippy::too_many_arguments)]
fn search(
    ctx: &AbrContext,
    qoe: &QoeParams,
    preds: &[Option<f64>],
    steps_left: usize,
    buffer: f64,
    last_level: Option<usize>,
    score: f64,
    stack: &mut Vec<usize>,
    report: &mut impl FnMut(usize, f64),
) {
    if steps_left == 0 {
        if let Some(&first) = stack.first() {
            report(first, score);
        }
        return;
    }
    let depth = stack.len();
    let pred = preds[depth.min(preds.len() - 1)].unwrap_or(0.001);
    for level in 0..ctx.video.n_levels() {
        let size_kbits = ctx.video.chunk_kbits(level);
        let download = size_kbits / (pred.max(1e-6) * 1000.0);
        let rebuffer = (download - buffer).max(0.0);
        let mut next_buffer = (buffer - download).max(0.0) + ctx.video.chunk_seconds;
        next_buffer = next_buffer.min(ctx.video.buffer_capacity_seconds);

        let bitrate = ctx.video.bitrates_kbps[level];
        let smooth = match last_level {
            Some(l) => (bitrate - ctx.video.bitrates_kbps[l]).abs(),
            None => 0.0,
        };
        let step_score = bitrate - qoe.lambda * smooth - qoe.mu_rebuffer * rebuffer;

        stack.push(level);
        search(
            ctx,
            qoe,
            preds,
            steps_left - 1,
            next_buffer,
            Some(level),
            score + step_score,
            stack,
            report,
        );
        stack.pop();
    }
}

/// One generated decision context, owning what `AbrContext` borrows.
#[derive(Debug)]
struct Case {
    video: VideoSpec,
    preds: Vec<Option<f64>>,
    buffer: f64,
    last: Option<usize>,
    chunk: usize,
}

impl Case {
    fn ctx(&self) -> AbrContext<'_> {
        AbrContext {
            chunk_index: self.chunk,
            buffer_seconds: self.buffer,
            last_level: self.last,
            predictions_mbps: &self.preds,
            last_actual_mbps: None,
            video: &self.video,
        }
    }
}

/// `kind` 0 is a hole, 1–3 the edge values, anything else `value`.
fn prediction((kind, value): (u8, f64)) -> Option<f64> {
    match kind {
        0 => None,
        1 => Some(0.0),
        2 => Some(1e-9),
        3 => Some(1e3),
        _ => Some(value),
    }
}

/// Ladder of 1–7 ascending rungs, 0–9 predictions, a buffer anywhere in
/// `[0, cap]` (both ends included), any last level or none, and a chunk
/// index at most 10 chunks before the end (or at the start).
fn arb_case() -> impl Strategy<Value = Case> {
    (
        (
            50.0f64..1000.0,
            prop::collection::vec(1.0f64..2000.0, 0..7),
            1.0f64..8.0,
            1usize..50,
            1.0f64..5.0,
        ),
        prop::collection::vec((0u8..12, 0.01f64..30.0), 0..10),
        (0u8..10, 0.0f64..=1.0),
        0usize..=7,
        (0u8..4, 0usize..=10),
    )
        .prop_map(|(ladder, preds, (buf_kind, buf), last, (at, back))| {
            let (base, rungs, chunk_seconds, n_chunks, cap_chunks) = ladder;
            let mut bitrates_kbps = vec![base];
            for step in rungs {
                bitrates_kbps.push(bitrates_kbps[bitrates_kbps.len() - 1] + step);
            }
            let video = VideoSpec {
                chunk_seconds,
                bitrates_kbps,
                n_chunks,
                buffer_capacity_seconds: chunk_seconds * cap_chunks,
            };
            let cap = video.buffer_capacity_seconds;
            Case {
                preds: preds.into_iter().map(prediction).collect(),
                buffer: match buf_kind {
                    0 => 0.0,
                    1 => cap,
                    _ => buf * cap,
                },
                last: (last < video.n_levels()).then_some(last),
                chunk: if at == 0 {
                    0
                } else {
                    n_chunks.saturating_sub(back)
                },
                video,
            }
        })
}

/// Smoothness and rebuffer weights: zero, the defaults, or arbitrary.
fn arb_qoe() -> impl Strategy<Value = QoeParams> {
    ((0u8..3, 0.0f64..3.0), (0u8..3, 0.0f64..6000.0)).prop_map(|((lk, l), (mk, m))| {
        let pick = |kind, default, any| match kind {
            0 => 0.0,
            1 => default,
            _ => any,
        };
        QoeParams {
            lambda: pick(lk, 1.0, l),
            mu_rebuffer: pick(mk, 3000.0, m),
            ..QoeParams::default()
        }
    })
}

proptest! {
    #[test]
    fn kernel_matches_recursive_search(
        horizon in 1usize..=8,
        qoe in arb_qoe(),
        first in arb_case(),
        second in arb_case(),
    ) {
        let config = MpcConfig { horizon, qoe };
        let mut mpc = Mpc::new(config.clone());
        for case in [&first, &second] {
            let ctx = case.ctx();
            prop_assert_eq!(
                mpc.select_level(&ctx),
                oracle_select_level(&config, &ctx),
                "horizon {} {:?} on {:?}",
                horizon,
                config.qoe,
                case
            );
        }
    }
}
