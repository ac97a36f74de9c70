//! The online prediction filter — the math of Algorithm 1 in the paper.
//!
//! Per epoch the player (or server) does two things:
//!
//! 1. **Predict** the next epoch's throughput: propagate the state
//!    posterior one step (`pi_{t|1:t-1} = pi_{t-1|1:t-1} P`, Eq. 7) and
//!    output the mean of the maximum-likelihood state (`W_hat = mu_x`,
//!    `x = argmax`, Eq. 8).
//! 2. **Update** once the actual throughput `w_t` is measured: multiply by
//!    the emission vector and renormalize
//!    (`pi_{t|1:t} = pi_{t|1:t-1} ⊙ e(w_t) / |...|`, Eq. 9).
//!
//! The struct is intentionally tiny — the paper stresses that a client
//! needs "<5 KB" of model and "two matrix multiplication operations" per
//! prediction, which is literally what this does.

use super::Hmm;

/// Online HMM filter over one session (Algorithm 1).
#[derive(Debug, Clone)]
pub struct HmmFilter<'a> {
    hmm: &'a Hmm,
    /// Distribution of the state at the *next unobserved epoch* when
    /// `epoch == 0` (i.e. `pi_0`), or of the last observed epoch otherwise.
    posterior: Vec<f64>,
    /// Number of observations consumed so far.
    epoch: usize,
}

impl<'a> HmmFilter<'a> {
    /// Starts a fresh filter at the model's initial state distribution.
    pub fn new(hmm: &'a Hmm) -> Self {
        HmmFilter {
            posterior: hmm.initial.clone(),
            epoch: 0,
            hmm,
        }
    }

    /// The model this filter runs.
    pub fn hmm(&self) -> &Hmm {
        self.hmm
    }

    /// Number of observations consumed.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Current state posterior: `pi_0` before any observation, otherwise
    /// `pi_{t|1:t}` for the last observed epoch `t`.
    pub fn posterior(&self) -> &[f64] {
        &self.posterior
    }

    /// Distribution of the state `k >= 1` epochs past the last observation.
    ///
    /// Before any observation, `k = 1` refers to the first epoch and the
    /// answer is `pi_0` itself (the initial distribution is *of* the first
    /// state); afterwards it is the posterior propagated `k` steps.
    pub fn predicted_distribution(&self, k: usize) -> Vec<f64> {
        assert!(k >= 1, "prediction horizon must be at least 1");
        if self.epoch == 0 {
            self.hmm.propagate_k(&self.posterior, k - 1)
        } else {
            self.hmm.propagate_k(&self.posterior, k)
        }
    }

    /// MLE throughput prediction for the next epoch (Eq. 8):
    /// the emission mean of the most probable predicted state.
    pub fn predict_next(&self) -> f64 {
        self.predict_ahead(1)
    }

    /// MLE throughput prediction `k` epochs ahead (used for Figure 9c's
    /// look-ahead-horizon study and by MPC's multi-step lookahead).
    pub fn predict_ahead(&self, k: usize) -> f64 {
        let dist = self.predicted_distribution(k);
        let x = argmax(&dist);
        self.hmm.emissions[x].mean()
    }

    /// MLE throughput predictions for `1..=h` epochs ahead: element
    /// `k - 1` is [`predict_ahead(k)`](Self::predict_ahead). The posterior
    /// is propagated once per step over two reused rows, the same sequence
    /// of `vecmat`s each `predict_ahead(k)` repeats from scratch, so the
    /// values are bit-identical at O(h·n²) instead of O(h²·n²).
    pub fn predict_horizon(&self, h: usize) -> Vec<f64> {
        let mut dist = self.posterior.clone();
        let mut next = vec![0.0; dist.len()];
        let mut out = Vec::with_capacity(h);
        for k in 1..=h {
            // Before any observation, one epoch ahead is `pi_0` itself.
            if k > 1 || self.epoch > 0 {
                self.hmm.transition.vecmat_into(&dist, &mut next);
                std::mem::swap(&mut dist, &mut next);
            }
            out.push(self.hmm.emissions[argmax(&dist)].mean());
        }
        out
    }

    /// Posterior-expected throughput `sum_i pi_i mu_i` for the next epoch —
    /// the soft alternative to the paper's MLE readout (ablation).
    pub fn expected_next(&self) -> f64 {
        let dist = self.predicted_distribution(1);
        dist.iter()
            .zip(&self.hmm.emissions)
            .map(|(p, e)| p * e.mean())
            .sum()
    }

    /// Most probable state for the next epoch.
    pub fn map_state(&self) -> usize {
        argmax(&self.predicted_distribution(1))
    }

    /// Consumes the measured throughput of the next epoch (Eq. 9).
    pub fn observe(&mut self, w: f64) {
        let predicted = self.predicted_distribution(1);
        let e = self.hmm.emission_vector(w);
        let mut post: Vec<f64> = predicted.iter().zip(&e).map(|(p, q)| p * q).collect();
        // `normalize` falls back to uniform when the observation is
        // impossible under every state (total mass 0) — the robust reset.
        super::normalize(&mut post);
        self.posterior = post;
        self.epoch += 1;
    }

    /// Resets to the initial distribution (new session, same cluster).
    pub fn reset(&mut self) {
        self.posterior = self.hmm.initial.clone();
        self.epoch = 0;
    }

    /// Snapshots the filter state for external storage (e.g. a prediction
    /// server holding per-session state across requests).
    pub fn state(&self) -> FilterState {
        FilterState {
            posterior: self.posterior.clone(),
            epoch: self.epoch,
        }
    }

    /// Restores a filter from a snapshot taken with [`state`](Self::state).
    /// Panics when the snapshot's width doesn't match the model.
    pub fn from_state(hmm: &'a Hmm, state: FilterState) -> Self {
        assert_eq!(
            state.posterior.len(),
            hmm.n_states(),
            "filter state width does not match model"
        );
        HmmFilter {
            posterior: state.posterior,
            epoch: state.epoch,
            hmm,
        }
    }
}

/// A serializable snapshot of an [`HmmFilter`]'s per-session state.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FilterState {
    /// Current state posterior.
    pub posterior: Vec<f64>,
    /// Number of observations consumed.
    pub epoch: usize,
}

fn argmax(v: &[f64]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .expect("argmax of empty vector")
}

#[cfg(test)]
mod tests {
    use super::super::toy_hmm;
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn posterior_stays_normalized() {
        let hmm = toy_hmm();
        let mut f = hmm.filter();
        for w in [1.4, 1.5, 2.4, 0.2, 0.21, 2.38] {
            f.observe(w);
            assert!((f.posterior().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        assert_eq!(f.epoch(), 6);
    }

    #[test]
    fn filter_locks_onto_persistent_state() {
        let hmm = toy_hmm();
        let mut f = hmm.filter();
        for _ in 0..5 {
            f.observe(2.41);
        }
        assert_eq!(f.map_state(), 1);
        // Prediction is the MLE state's mean.
        assert!((f.predict_next() - 2.41).abs() < 1e-9);
    }

    #[test]
    fn filter_tracks_state_switch() {
        let hmm = toy_hmm();
        let mut f = hmm.filter();
        for _ in 0..5 {
            f.observe(2.41);
        }
        // Throughput drops to state 2's regime (0.20 Mbps).
        for _ in 0..3 {
            f.observe(0.20);
        }
        assert_eq!(f.map_state(), 2);
        assert!((f.predict_next() - 0.20).abs() < 1e-9);
    }

    #[test]
    fn prediction_matches_manual_two_matmuls() {
        // The paper's claim: a prediction is two matrix multiplications.
        // Reproduce predict after one observation by hand.
        let hmm = toy_hmm();
        let mut f = hmm.filter();
        let w = 1.5;
        f.observe(w);

        // Manual: post ∝ pi_0 ⊙ e(w); pred_dist = post * P.
        let e = hmm.emission_vector(w);
        let mut post: Vec<f64> = hmm.initial.iter().zip(&e).map(|(p, q)| p * q).collect();
        let s: f64 = post.iter().sum();
        for x in post.iter_mut() {
            *x /= s;
        }
        let pred_dist = hmm.propagate(&post);
        let x = pred_dist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!((f.predict_next() - hmm.emissions[x].mean()).abs() < 1e-12);
    }

    #[test]
    fn initial_prediction_uses_pi0_without_propagation() {
        let hmm = toy_hmm();
        let f = hmm.filter();
        let d1 = f.predicted_distribution(1);
        assert_eq!(d1, hmm.initial);
        let d2 = f.predicted_distribution(2);
        assert_eq!(d2, hmm.propagate(&hmm.initial));
    }

    #[test]
    fn horizon_consistency_after_observation() {
        let hmm = toy_hmm();
        let mut f = hmm.filter();
        f.observe(1.4);
        let d1 = f.predicted_distribution(1);
        let d2 = f.predicted_distribution(2);
        let d2_via_d1 = hmm.propagate(&d1);
        for (a, b) in d2.iter().zip(&d2_via_d1) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn predict_horizon_is_bit_identical_to_predict_ahead() {
        let hmm = toy_hmm();
        let mut f = hmm.filter();
        for w in [None, Some(1.4), Some(2.41), Some(0.2)] {
            if let Some(w) = w {
                f.observe(w);
            }
            let horizon = f.predict_horizon(32);
            assert_eq!(horizon.len(), 32);
            for (k, got) in (1..=32).zip(&horizon) {
                let want = f.predict_ahead(k);
                assert_eq!(got.to_bits(), want.to_bits(), "epoch {} k {k}", f.epoch());
            }
        }
        assert!(f.predict_horizon(0).is_empty());
    }

    #[test]
    fn long_horizon_approaches_stationary_prediction() {
        let hmm = toy_hmm();
        let mut f = hmm.filter();
        f.observe(2.41);
        let stationary = hmm.stationary_distribution().unwrap();
        let far = f.predicted_distribution(5_000);
        for (a, b) in far.iter().zip(&stationary) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn expected_next_is_convex_combination_of_means() {
        let hmm = toy_hmm();
        let mut f = hmm.filter();
        f.observe(1.0);
        let exp = f.expected_next();
        let mus: Vec<f64> = hmm.emissions.iter().map(|e| e.mean()).collect();
        let lo = mus.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = mus.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(exp >= lo && exp <= hi);
    }

    #[test]
    fn impossible_observation_resets_to_uniform() {
        let hmm = toy_hmm();
        let mut f = hmm.filter();
        f.observe(1.0e9);
        let u = 1.0 / 3.0;
        for p in f.posterior() {
            assert!((p - u).abs() < 1e-12);
        }
    }

    #[test]
    fn state_snapshot_roundtrip() {
        let hmm = toy_hmm();
        let mut f = hmm.filter();
        f.observe(2.4);
        f.observe(2.38);
        let snap = f.state();
        let restored = HmmFilter::from_state(&hmm, snap.clone());
        assert_eq!(restored.posterior(), f.posterior());
        assert_eq!(restored.epoch(), f.epoch());
        assert_eq!(restored.predict_next(), f.predict_next());
        // Snapshot is serializable (server-side session tables).
        let json = serde_json::to_string(&snap).unwrap();
        let back: FilterState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn from_state_rejects_wrong_width() {
        let hmm = toy_hmm();
        HmmFilter::from_state(
            &hmm,
            FilterState {
                posterior: vec![0.5, 0.5],
                epoch: 1,
            },
        );
    }

    #[test]
    fn reset_restores_initial_state() {
        let hmm = toy_hmm();
        let mut f = hmm.filter();
        f.observe(2.4);
        f.observe(2.4);
        f.reset();
        assert_eq!(f.epoch(), 0);
        assert_eq!(f.posterior(), hmm.initial.as_slice());
    }

    #[test]
    fn filter_beats_last_sample_on_noisy_stateful_trace() {
        // End-to-end sanity: on data generated by the model itself, the HMM
        // filter should have lower mean absolute error than Last-Sample.
        let hmm = toy_hmm();
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let mut err_hmm = 0.0;
        let mut err_ls = 0.0;
        let mut count = 0.0;
        for _ in 0..40 {
            let (_, obs) = hmm.sample_sequence(120, &mut rng);
            let mut f = hmm.filter();
            f.observe(obs[0]);
            for t in 1..obs.len() {
                let pred = f.predict_next();
                err_hmm += (pred - obs[t]).abs() / obs[t].abs().max(1e-9);
                err_ls += (obs[t - 1] - obs[t]).abs() / obs[t].abs().max(1e-9);
                count += 1.0;
                f.observe(obs[t]);
            }
        }
        let (err_hmm, err_ls) = (err_hmm / count, err_ls / count);
        assert!(
            err_hmm < err_ls,
            "HMM filter ({err_hmm:.4}) should beat last-sample ({err_ls:.4})"
        );
    }
}
