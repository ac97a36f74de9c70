//! Scaled forward and backward recursions (Rabiner's method).
//!
//! Raw forward probabilities underflow after a few dozen epochs, so each
//! step's `alpha` vector is renormalized and the scale factor remembered;
//! the sequence log-likelihood is the sum of log scale factors. The same
//! scales are reused in the backward pass so that
//! `gamma_t(i) ∝ alpha_t(i) * beta_t(i)` stays well-conditioned — exactly
//! what Baum–Welch needs.
//!
//! All tables live in one [`ForwardBackward`] workspace, flat and
//! row-major (`t * n + i`), so an EM run that reuses it allocates nothing
//! per epoch. The emissions `e_j(w_t)` are evaluated once per sequence into
//! the same workspace and read by both passes and by the E-step's `xi`
//! accumulation (DESIGN.md §7 lists the bit-identity rules these loops keep).

use super::Hmm;

/// Scaled forward/backward tables over one observation sequence.
///
/// Every table is flat and row-major: row `t` holds the `n` per-state
/// values of epoch `t`. Running [`forward`](Self::forward) on a new
/// sequence overwrites the previous one and reuses the buffers.
#[derive(Debug, Clone, Default)]
pub struct ForwardBackward {
    n: usize,
    /// `ln_sigma[j]`, per state, for the emission table.
    ln_sigma: Vec<f64>,
    /// `emission[t * n + j] = e_j(w_t)`.
    emission: Vec<f64>,
    /// Scaled forward variables: each row is normalized to sum to 1, i.e.
    /// `alpha_t(i) = P(X_t = i | W_{1..t})`.
    alpha: Vec<f64>,
    /// Per-step normalizers `c_t = P(W_t | W_{1..t-1})`.
    scales: Vec<f64>,
    /// Scaled backward variables (filled by [`backward`](Self::backward)).
    beta: Vec<f64>,
    /// Smoothed posteriors `gamma_t(i)` (filled by [`smooth`](Self::smooth)).
    gamma: Vec<f64>,
}

#[allow(clippy::needless_range_loop)] // index loops mirror the textbook recursions
impl ForwardBackward {
    /// Runs the scaled forward recursion over `obs` and returns
    /// `log P(W_{1..T})`. An empty sequence yields empty tables and 0.
    pub fn forward(&mut self, hmm: &Hmm, obs: &[f64]) -> f64 {
        let n = hmm.n_states();
        let t_max = obs.len();
        self.n = n;
        self.ln_sigma.clear();
        self.ln_sigma
            .extend(hmm.emissions.iter().map(|e| e.ln_sigma()));
        self.emission.clear();
        for &w in obs {
            self.emission.extend(
                hmm.emissions
                    .iter()
                    .zip(&self.ln_sigma)
                    .map(|(e, &ln_sigma)| e.log_pdf_given_ln_sigma(w, ln_sigma).exp()),
            );
        }
        self.alpha.clear();
        self.alpha.resize(t_max * n, 0.0);
        self.scales.clear();
        let mut log_likelihood = 0.0;

        let p = hmm.transition.data();
        for t in 0..t_max {
            let (done, rest) = self.alpha.split_at_mut(t * n);
            let cur = &mut rest[..n];
            let b = &self.emission[t * n..(t + 1) * n];
            if t == 0 {
                for i in 0..n {
                    cur[i] = hmm.initial[i] * b[i];
                }
            } else {
                let prev = &done[(t - 1) * n..];
                for j in 0..n {
                    let mut sum = 0.0;
                    for i in 0..n {
                        sum += prev[i] * p[i * n + j];
                    }
                    cur[j] = sum * b[j];
                }
            }
            let c: f64 = cur.iter().sum();
            if c > 0.0 && c.is_finite() {
                for x in cur.iter_mut() {
                    *x /= c;
                }
                log_likelihood += c.ln();
                self.scales.push(c);
            } else {
                // Observation impossible under every state (deep tail): reset to
                // the propagated prior (or initial) and charge a large penalty
                // so the likelihood still reflects the miss.
                if t == 0 {
                    cur.copy_from_slice(&hmm.initial);
                } else {
                    cur.copy_from_slice(&hmm.propagate(&done[(t - 1) * n..]));
                }
                log_likelihood += f64::MIN_POSITIVE.ln();
                self.scales.push(f64::MIN_POSITIVE);
            }
        }
        log_likelihood
    }

    /// Runs the scaled backward recursion over the sequence of the last
    /// [`forward`](Self::forward), reusing its scales and emissions.
    ///
    /// `beta` is scaled such that `alpha_t(i) * beta_t(i)`, normalized over
    /// `i`, equals the smoothed posterior `gamma_t(i)`.
    pub fn backward(&mut self, hmm: &Hmm) {
        let n = self.n;
        let t_max = self.scales.len();
        self.beta.clear();
        self.beta.resize(t_max * n, 0.0);
        if t_max == 0 {
            return;
        }
        self.beta[(t_max - 1) * n..].fill(1.0);
        let p = hmm.transition.data();
        for t in (0..t_max - 1).rev() {
            let c = self.scales[t + 1].max(f64::MIN_POSITIVE);
            let b = &self.emission[(t + 1) * n..(t + 2) * n];
            let (cur, next) = self.beta[t * n..(t + 2) * n].split_at_mut(n);
            for i in 0..n {
                let mut sum = 0.0;
                for j in 0..n {
                    sum += p[i * n + j] * b[j] * next[j];
                }
                cur[i] = sum / c;
            }
        }
    }

    /// Fills the smoothed posteriors `gamma_t(i) ∝ alpha_t(i) beta_t(i)`
    /// after [`backward`](Self::backward). A row whose product is all zero
    /// becomes uniform (see `normalize`).
    pub fn smooth(&mut self) {
        self.gamma.clear();
        self.gamma
            .extend(self.alpha.iter().zip(&self.beta).map(|(a, b)| a * b));
        if self.n > 0 {
            for row in self.gamma.chunks_exact_mut(self.n) {
                super::normalize(row);
            }
        }
    }

    /// `e_j(w_t)` for every state `j`.
    pub fn emission(&self, t: usize) -> &[f64] {
        &self.emission[t * self.n..(t + 1) * self.n]
    }

    /// Scaled forward row `alpha_t`.
    pub fn alpha(&self, t: usize) -> &[f64] {
        &self.alpha[t * self.n..(t + 1) * self.n]
    }

    /// Scaled backward row `beta_t`.
    pub fn beta(&self, t: usize) -> &[f64] {
        &self.beta[t * self.n..(t + 1) * self.n]
    }

    /// Smoothed posterior row `gamma_t`.
    pub fn gamma(&self, t: usize) -> &[f64] {
        &self.gamma[t * self.n..(t + 1) * self.n]
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::super::toy_hmm;
    use super::*;

    /// The forward pass over `obs` in a fresh workspace, and its
    /// log-likelihood.
    fn forward(hmm: &Hmm, obs: &[f64]) -> (ForwardBackward, f64) {
        let mut fb = ForwardBackward::default();
        let ll = fb.forward(hmm, obs);
        (fb, ll)
    }

    #[test]
    fn forward_rows_are_normalized() {
        let hmm = toy_hmm();
        let obs = [1.4, 1.5, 2.3, 2.5, 0.2, 0.25];
        let (f, _) = forward(&hmm, &obs);
        assert_eq!(f.scales.len(), obs.len());
        for t in 0..obs.len() {
            assert!((f.alpha(t).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn forward_identifies_obvious_state() {
        let hmm = toy_hmm();
        // Observations sitting on state 1's mean (2.41) should concentrate
        // the posterior there.
        let obs = [2.41, 2.41, 2.41, 2.41];
        let (f, _) = forward(&hmm, &obs);
        let last = f.alpha(obs.len() - 1);
        let argmax = last
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(argmax, 1);
        assert!(last[1] > 0.95);
    }

    #[test]
    fn log_likelihood_matches_bruteforce_two_steps() {
        // Brute-force P(w1, w2) = sum_{i,j} pi_i e_i(w1) P_ij e_j(w2).
        let hmm = toy_hmm();
        let obs = [1.3, 2.2];
        let mut p = 0.0;
        for i in 0..3 {
            for j in 0..3 {
                p += hmm.initial[i]
                    * hmm.emissions[i].pdf(obs[0])
                    * hmm.transition[(i, j)]
                    * hmm.emissions[j].pdf(obs[1]);
            }
        }
        let (_, ll) = forward(&hmm, &obs);
        assert!((ll - p.ln()).abs() < 1e-9);
    }

    #[test]
    fn forward_no_underflow_on_long_sequence() {
        let hmm = toy_hmm();
        let obs: Vec<f64> = (0..5_000).map(|i| 1.4 + 0.01 * ((i % 7) as f64)).collect();
        let (f, ll) = forward(&hmm, &obs);
        assert!(ll.is_finite());
        for t in 0..obs.len() {
            assert!(f.alpha(t).iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn forward_survives_impossible_observation() {
        let hmm = toy_hmm();
        // 1e6 Mbps is essentially impossible under every state.
        let obs = [1.4, 1.0e6, 1.4];
        let (f, ll) = forward(&hmm, &obs);
        assert!(ll.is_finite());
        assert_eq!(f.scales[1], f64::MIN_POSITIVE, "deep-tail branch taken");
        for t in 0..obs.len() {
            assert!((f.alpha(t).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn forward_empty_sequence() {
        let hmm = toy_hmm();
        let (f, ll) = forward(&hmm, &[]);
        assert!(f.alpha.is_empty() && f.scales.is_empty());
        assert_eq!(ll, 0.0);
    }

    #[test]
    fn reused_workspace_matches_a_fresh_one_bit_for_bit() {
        // A long sequence, an impossible one and a short one through the
        // same workspace: stale rows from a longer run must never leak.
        let hmm = toy_hmm();
        let mut reused = ForwardBackward::default();
        for obs in [
            &[1.4, 1.5, 2.3, 2.5, 0.2, 0.25, 2.4][..],
            &[1.0e6, 1.4][..],
            &[0.2, 2.4][..],
        ] {
            let ll = reused.forward(&hmm, obs);
            reused.backward(&hmm);
            reused.smooth();
            let (mut fresh, fresh_ll) = forward(&hmm, obs);
            fresh.backward(&hmm);
            fresh.smooth();
            assert_eq!(ll.to_bits(), fresh_ll.to_bits());
            assert_eq!(reused.scales, fresh.scales);
            for t in 0..obs.len() {
                assert_eq!(reused.emission(t), fresh.emission(t));
                assert_eq!(reused.alpha(t), fresh.alpha(t));
                assert_eq!(reused.beta(t), fresh.beta(t));
                assert_eq!(reused.gamma(t), fresh.gamma(t));
            }
        }
    }

    #[test]
    fn backward_terminal_is_ones() {
        let hmm = toy_hmm();
        let obs = [1.4, 2.3, 0.2];
        let (mut f, _) = forward(&hmm, &obs);
        f.backward(&hmm);
        assert_eq!(f.beta(obs.len() - 1), &[1.0; 3]);
    }

    #[test]
    fn gamma_from_alpha_beta_is_valid_posterior() {
        let hmm = toy_hmm();
        let obs = [1.4, 1.5, 2.4, 2.3, 0.2];
        let (mut f, _) = forward(&hmm, &obs);
        f.backward(&hmm);
        f.smooth();
        for t in 0..obs.len() {
            let sum: f64 = (0..3).map(|i| f.alpha(t)[i] * f.beta(t)[i]).sum();
            assert!(sum > 0.0);
            assert!(f.gamma(t).iter().all(|&g| (0.0..=1.0).contains(&g)));
            assert!((f.gamma(t).iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn gamma_at_last_step_equals_filtered_alpha() {
        // beta_T = 1, so gamma_T must equal alpha_T exactly.
        let hmm = toy_hmm();
        let obs = [1.4, 2.4, 0.2, 0.22];
        let (mut f, _) = forward(&hmm, &obs);
        f.backward(&hmm);
        f.smooth();
        let t = obs.len() - 1;
        for i in 0..3 {
            assert!((f.gamma(t)[i] - f.alpha(t)[i]).abs() < 1e-12);
        }
    }
}
