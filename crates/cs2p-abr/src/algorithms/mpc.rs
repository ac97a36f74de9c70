//! Model Predictive Control adaptation, after Yin et al. \[47\] (the
//! formulation the paper plugs its predictions into, §5.3).
//!
//! At each chunk boundary MPC solves a finite-horizon control problem:
//! over the next `h` chunks, enumerate bitrate sequences, roll the buffer
//! model forward under the *predicted* throughputs, score each sequence
//! with the QoE objective (quality − smoothness − rebuffer penalties), and
//! commit only the first decision. With a 5-rung ladder and `h = 5` the
//! exhaustive search is 3125 rollouts — the "exact integer programming"
//! solution at toy scale (FastMPC's table merely precomputes it).

use super::{AbrAlgorithm, AbrContext};
use crate::qoe::QoeParams;

/// MPC configuration.
#[derive(Debug, Clone)]
pub struct MpcConfig {
    /// Lookahead horizon in chunks (paper/FastMPC default: 5).
    pub horizon: usize,
    /// QoE weights used in the rollout objective.
    pub qoe: QoeParams,
}

impl Default for MpcConfig {
    fn default() -> Self {
        MpcConfig {
            horizon: 5,
            qoe: QoeParams::default(),
        }
    }
}

/// The MPC controller.
#[derive(Debug, Clone)]
pub struct Mpc {
    config: MpcConfig,
}

impl Mpc {
    /// MPC with the given configuration.
    pub fn new(config: MpcConfig) -> Self {
        assert!(config.horizon >= 1);
        Mpc { config }
    }
}

impl Default for Mpc {
    fn default() -> Self {
        Mpc::new(MpcConfig::default())
    }
}

impl AbrAlgorithm for Mpc {
    fn name(&self) -> &str {
        "MPC"
    }

    fn horizon(&self) -> usize {
        self.config.horizon
    }

    fn select_level(&mut self, ctx: &AbrContext) -> usize {
        let _span = cs2p_obs::span("stream.mpc.select");
        cs2p_obs::counter_add("stream.mpc.decisions", 1);
        // Resolve the prediction for each lookahead step: missing entries
        // inherit the nearest earlier prediction; with no information at
        // all, be conservative.
        let mut preds = Vec::with_capacity(self.config.horizon);
        let mut last_seen: Option<f64> = None;
        for i in 0..self.config.horizon {
            let p = ctx.predictions_mbps.get(i).copied().flatten().or(last_seen);
            last_seen = p;
            preds.push(p);
        }
        if preds[0].is_none() {
            return 0;
        }
        // Don't plan past the end of the video.
        let remaining = ctx.video.n_chunks - ctx.chunk_index;
        let steps = self.config.horizon.min(remaining);

        let mut best_level = 0;
        let mut best_score = f64::NEG_INFINITY;
        // DFS over bitrate sequences.
        let mut stack: Vec<usize> = Vec::with_capacity(steps);
        search(
            ctx,
            &self.config.qoe,
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

    fn reset(&mut self) {}
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

#[cfg(test)]
mod tests {
    use super::super::test_ctx;
    use super::*;
    use crate::video::VideoSpec;

    #[test]
    fn high_stable_prediction_high_bitrate() {
        let video = VideoSpec::envivio();
        let mut mpc = Mpc::default();
        let preds = vec![Some(10.0); 5];
        let ctx = test_ctx(&video, &preds, 20.0, Some(4), 10);
        assert_eq!(mpc.select_level(&ctx), 4);
    }

    #[test]
    fn low_prediction_low_bitrate() {
        let video = VideoSpec::envivio();
        let mut mpc = Mpc::default();
        let preds = vec![Some(0.4); 5];
        let ctx = test_ctx(&video, &preds, 4.0, Some(0), 10);
        assert_eq!(mpc.select_level(&ctx), 0);
    }

    #[test]
    fn avoids_rebuffering_with_thin_buffer() {
        let video = VideoSpec::envivio();
        let mut mpc = Mpc::default();
        // Prediction supports 2 Mbps but the buffer is nearly empty: the
        // 2000 kbps chunk takes 6 s at 2 Mbps, exactly treading water; any
        // prediction error stalls. MPC should still pick something <= 3.
        let preds = vec![Some(2.0); 5];
        let ctx = test_ctx(&video, &preds, 1.0, Some(3), 10);
        let level = mpc.select_level(&ctx);
        assert!(level <= 3, "picked {level}");
    }

    #[test]
    fn smoothness_discourages_oscillation() {
        let video = VideoSpec::envivio();
        let mut mpc = Mpc::default();
        // Throughput sits right at 1.05 Mbps: jumping to 2000 kbps and back
        // would stall and pay switch costs; staying at 1000 kbps wins.
        let preds = vec![Some(1.05); 5];
        let ctx = test_ctx(&video, &preds, 12.0, Some(2), 10);
        assert_eq!(mpc.select_level(&ctx), 2);
    }

    #[test]
    fn no_prediction_is_conservative() {
        let video = VideoSpec::envivio();
        let mut mpc = Mpc::default();
        let preds = vec![None; 5];
        let ctx = test_ctx(&video, &preds, 10.0, None, 0);
        assert_eq!(mpc.select_level(&ctx), 0);
    }

    #[test]
    fn missing_tail_predictions_inherit_head() {
        let video = VideoSpec::envivio();
        let mut mpc = Mpc::default();
        let preds = vec![Some(10.0), None, None, None, None];
        let ctx = test_ctx(&video, &preds, 20.0, Some(4), 10);
        assert_eq!(mpc.select_level(&ctx), 4);
    }

    #[test]
    fn horizon_clips_at_video_end() {
        let video = VideoSpec::envivio();
        let mut mpc = Mpc::default();
        let preds = vec![Some(3.0); 5];
        // Second-to-last chunk: only 1 step remains; must not panic.
        let ctx = test_ctx(&video, &preds, 20.0, Some(2), video.n_chunks - 1);
        let level = mpc.select_level(&ctx);
        assert!(level < video.n_levels());
    }

    #[test]
    fn larger_horizon_never_worse_on_cliff() {
        // Throughput collapses at step 3; a horizon-5 MPC sees it coming
        // and downswitches earlier than a horizon-1 MPC.
        let video = VideoSpec::envivio();
        let preds = vec![Some(3.0), Some(3.0), Some(0.2), Some(0.2), Some(0.2)];
        let mut far = Mpc::new(MpcConfig {
            horizon: 5,
            ..Default::default()
        });
        let mut near = Mpc::new(MpcConfig {
            horizon: 1,
            ..Default::default()
        });
        let ctx = test_ctx(&video, &preds, 7.0, Some(4), 10);
        let lf = far.select_level(&ctx);
        let ln = near.select_level(&ctx);
        assert!(lf <= ln, "farsighted {lf} vs myopic {ln}");
    }
}
