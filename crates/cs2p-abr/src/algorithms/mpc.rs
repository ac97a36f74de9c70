//! Model Predictive Control adaptation, after Yin et al. \[47\] (the
//! formulation the paper plugs its predictions into, §5.3).
//!
//! At each chunk boundary MPC solves a finite-horizon control problem:
//! over the next `h` chunks, enumerate bitrate sequences, roll the buffer
//! model forward under the *predicted* throughputs, score each sequence
//! with the QoE objective (quality − smoothness − rebuffer penalties), and
//! commit only the first decision. The search is exhaustive — the "exact
//! integer programming" solution at toy scale (FastMPC's table merely
//! precomputes it) — over `L^h` sequences, 3125 for the 5-rung ladder at
//! `h = 5`.
//!
//! The kernel is table-driven and allocation-free. Per decision it fills
//! two tables in a workspace the controller owns and reuses:
//!
//! - `download[t * L + l]`, the predicted download time of rung `l` at
//!   depth `t`;
//! - `reward[(last + 1) * L + l] = bitrate_l − λ·|bitrate_l − bitrate_last|`,
//!   with slot 0 standing for "no previous level" (no smoothness term).
//!
//! An iterative depth-first walk then visits sequences in lexicographic
//! order (rungs ascending), carrying the simulated buffer and score per
//! depth; the last depth is scored inside its parent's loop. Each step's
//! arithmetic — `(reward − μ·rebuffer)`, added to the running score — and
//! the strict `>` that lets the first maximum win are those of the plain
//! recursive enumeration, so decisions are bit-identical to it (DESIGN.md
//! §7).

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
    ws: Workspace,
}

/// Per-decision tables and the depth-first walk's per-depth state, reused
/// across decisions.
#[derive(Debug, Clone, Default)]
struct Workspace {
    /// `download[t * L + l]`: seconds to fetch rung `l` at depth `t`.
    download: Vec<f64>,
    /// `reward[(last + 1) * L + l]`: quality minus smoothness penalty.
    reward: Vec<f64>,
    /// Rung being tried at each depth above the leaves' parent.
    level: Vec<usize>,
    /// Buffer level on entering each depth.
    buffer: Vec<f64>,
    /// Score accumulated on entering each depth.
    score: Vec<f64>,
}

impl Mpc {
    /// MPC with the given configuration.
    pub fn new(config: MpcConfig) -> Self {
        assert!(config.horizon >= 1);
        Mpc {
            config,
            ws: Workspace::default(),
        }
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
        // With no information at all, be conservative.
        let Some(mut pred) = ctx.next_prediction() else {
            return 0;
        };
        // Don't plan past the end of the video.
        let steps = self
            .config
            .horizon
            .min(ctx.video.n_chunks.saturating_sub(ctx.chunk_index));
        let video = ctx.video;
        let n = video.n_levels();
        if steps == 0 || n == 0 {
            return 0;
        }

        let Workspace {
            download,
            reward,
            level,
            buffer,
            score,
        } = &mut self.ws;
        // Missing predictions inherit the nearest earlier one.
        download.clear();
        for t in 0..steps {
            if let Some(&Some(p)) = ctx.predictions_mbps.get(t) {
                pred = p;
            }
            let rate = pred.max(1e-6) * 1000.0;
            download.extend((0..n).map(|l| video.chunk_kbits(l) / rate));
        }
        let lambda = self.config.qoe.lambda;
        reward.clear();
        for last in 0..=n {
            reward.extend(video.bitrates_kbps.iter().map(|&bitrate| {
                let smooth = match last.checked_sub(1) {
                    Some(l) => (bitrate - video.bitrates_kbps[l]).abs(),
                    None => 0.0,
                };
                bitrate - lambda * smooth
            }));
        }
        // Depth 0 starts from the context's buffer with a score of 0.
        level.clear();
        level.resize(steps, 0);
        buffer.clear();
        buffer.resize(steps, ctx.buffer_seconds);
        score.clear();
        score.resize(steps, 0.0);

        let mu = self.config.qoe.mu_rebuffer;
        let (chunk, cap) = (video.chunk_seconds, video.buffer_capacity_seconds);
        let first_slot = ctx.last_level.map_or(0, |l| l + 1);
        let leaves = row(download, n, steps - 1);
        let mut best_level = 0;
        let mut best_score = f64::NEG_INFINITY;
        let Some(parent) = steps.checked_sub(2) else {
            // One step: the leaves hang off the root.
            let (b, s) = (buffer[0], score[0]);
            for (l, (&dl, &rw)) in leaves.iter().zip(row(reward, n, first_slot)).enumerate() {
                let total = s + (rw - mu * (dl - b).max(0.0));
                if total > best_score {
                    best_score = total;
                    best_level = l;
                }
            }
            return best_level;
        };
        let mut d = 0;
        loop {
            let slot = if d == 0 { first_slot } else { level[d - 1] + 1 };
            let (b, s) = (buffer[d], score[d]);
            let (down, rew) = (row(download, n, d), row(reward, n, slot));
            if d < parent {
                // Descend through the next rung of this depth.
                let l = level[d];
                let rebuffer = (down[l] - b).max(0.0);
                score[d + 1] = s + (rew[l] - mu * rebuffer);
                buffer[d + 1] = ((b - down[l]).max(0.0) + chunk).min(cap);
                d += 1;
                level[d] = 0;
                continue;
            }
            // The leaves' parent: each rung here, and inside its loop every
            // leaf under it.
            for (l, (&dl, &rw)) in down.iter().zip(rew).enumerate() {
                let rebuffer = (dl - b).max(0.0);
                let s1 = s + (rw - mu * rebuffer);
                let b1 = ((b - dl).max(0.0) + chunk).min(cap);
                let first = if d == 0 { l } else { level[0] };
                for (&dl2, &rw2) in leaves.iter().zip(row(reward, n, l + 1)) {
                    let total = s1 + (rw2 - mu * (dl2 - b1).max(0.0));
                    if total > best_score {
                        best_score = total;
                        best_level = first;
                    }
                }
            }
            // Backtrack to the next untried rung of the deepest unfinished
            // depth.
            loop {
                if d == 0 {
                    return best_level;
                }
                d -= 1;
                level[d] += 1;
                if level[d] < n {
                    break;
                }
            }
        }
    }

    fn reset(&mut self) {}
}

/// Row `i` of a flat table with rows of `n` entries.
fn row(table: &[f64], n: usize, i: usize) -> &[f64] {
    &table[i * n..(i + 1) * n]
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
    fn chunk_index_at_or_past_the_end_picks_level_zero() {
        let video = VideoSpec::envivio();
        let mut mpc = Mpc::default();
        let preds = vec![Some(10.0); 5];
        for chunk in [video.n_chunks, video.n_chunks + 1, usize::MAX] {
            let ctx = test_ctx(&video, &preds, 20.0, Some(4), chunk);
            assert_eq!(mpc.select_level(&ctx), 0, "chunk {chunk}");
        }
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
