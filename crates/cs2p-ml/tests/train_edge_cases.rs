//! Edge-case tests for Baum–Welch `train`: degenerate inputs that have
//! historically produced NaN/inf parameters in EM implementations
//! (zero-variance data, length-1 sequences, empty sequences, single
//! iteration) must yield either a clean `None` or a fully finite,
//! validating model and report.

use cs2p_ml::gaussian::Gaussian;
use cs2p_ml::hmm::{train, train_seeded, Emission, EmissionFamily, Hmm, TrainConfig, TrainReport};
use cs2p_ml::matrix::Matrix;
use cs2p_testkit::bits::{check_bits, Fnv1a64};

fn assert_finite_model(hmm: &Hmm, report: &TrainReport, label: &str) {
    hmm.validate().unwrap_or_else(|e| panic!("{label}: {e}"));
    for (i, p) in hmm.initial.iter().enumerate() {
        assert!(p.is_finite() && *p >= 0.0, "{label}: initial[{i}] = {p}");
    }
    for i in 0..hmm.n_states() {
        for (j, p) in hmm.transition.row(i).iter().enumerate() {
            assert!(p.is_finite() && *p >= 0.0, "{label}: P[{i}][{j}] = {p}");
        }
    }
    for (i, emission) in hmm.emissions.iter().enumerate() {
        let (mu, sigma) = match emission {
            Emission::Gaussian(g) | Emission::LogNormal(g) => (g.mu, g.sigma),
        };
        assert!(mu.is_finite(), "{label}: emission[{i}].mu = {mu}");
        assert!(
            sigma.is_finite() && sigma > 0.0,
            "{label}: emission[{i}].sigma = {sigma} (must stay positive)"
        );
    }
    for (it, ll) in report.log_likelihoods.iter().enumerate() {
        assert!(ll.is_finite(), "{label}: log-likelihood[{it}] = {ll}");
    }
    assert_eq!(report.iterations, report.log_likelihoods.len(), "{label}");
    assert!(
        !report.final_rel_delta.is_nan(),
        "{label}: rel delta is NaN"
    );
}

#[test]
fn constant_sequences_train_without_nan() {
    // Zero observed variance is the classic EM degeneracy: sigma -> 0
    // sends the log-pdf to +inf unless variance is floored.
    for family in [EmissionFamily::Gaussian, EmissionFamily::LogNormal] {
        let sequences = vec![vec![5.0; 20], vec![5.0; 7], vec![5.0; 3]];
        let config = TrainConfig {
            n_states: 3,
            family,
            ..TrainConfig::default()
        };
        let (hmm, report) = train(&sequences, &config).expect("constant data is trainable");
        assert_finite_model(&hmm, &report, &format!("constant/{family:?}"));
        // The model must still reproduce the constant: every state's
        // emission mean is (close to) the observed value.
        // Floored variance shifts the log-normal mean by exp(sigma^2/2),
        // so "close" rather than exact.
        for emission in &hmm.emissions {
            assert!(
                (emission.mean() - 5.0).abs() < 1e-3,
                "mean {} for constant-5 data",
                emission.mean()
            );
        }
    }
}

#[test]
fn single_observation_sequences_train_without_nan() {
    // Length-1 sequences exercise the no-transition path: the transition
    // counts are pure smoothing, and sigma comes entirely from flooring.
    let sequences = vec![vec![1.0], vec![2.0], vec![4.0], vec![8.0]];
    let config = TrainConfig {
        n_states: 2,
        ..TrainConfig::default()
    };
    let (hmm, report) = train(&sequences, &config).expect("length-1 sequences");
    assert_finite_model(&hmm, &report, "single-observation");
}

#[test]
fn single_iteration_report_is_finite() {
    let sequences = vec![vec![1.0, 5.0, 1.0, 5.0, 2.0, 4.0]];
    let config = TrainConfig {
        n_states: 2,
        max_iters: 1,
        ..TrainConfig::default()
    };
    let (hmm, report) = train(&sequences, &config).expect("one EM iteration");
    assert_eq!(report.iterations, 1);
    assert!(!report.converged, "one capped iteration cannot converge");
    assert_finite_model(&hmm, &report, "single-iteration");
}

#[test]
fn empty_sequences_are_filtered_not_fatal() {
    let seq = vec![1.0, 3.0, 2.0, 5.0, 4.0, 2.5, 3.5];
    let with_empties = vec![vec![], seq.clone(), vec![], seq.clone(), vec![]];
    let without = vec![seq.clone(), seq];
    let config = TrainConfig {
        n_states: 2,
        ..TrainConfig::default()
    };
    let (hmm_a, report_a) = train(&with_empties, &config).expect("empties filtered");
    let (hmm_b, _report_b) = train(&without, &config).expect("clean input");
    assert_finite_model(&hmm_a, &report_a, "with-empties");
    // Filtering must be transparent: identical model, not just a similar one.
    assert_eq!(hmm_a, hmm_b, "empty sequences must not perturb training");
}

#[test]
fn all_empty_input_returns_none() {
    let config = TrainConfig::default();
    assert!(train(&[], &config).is_none());
    assert!(train(&[vec![], vec![]], &config).is_none());
}

#[test]
fn lognormal_rejects_nonpositive_observations() {
    let config = TrainConfig {
        family: EmissionFamily::LogNormal,
        ..TrainConfig::default()
    };
    assert!(train(&[vec![1.0, 0.0, 2.0]], &config).is_none());
    assert!(train(&[vec![1.0, -3.0]], &config).is_none());
}

#[test]
fn more_states_than_observations_stays_finite() {
    // k-means with more centroids than points: some states start empty.
    let sequences = vec![vec![2.0, 7.0]];
    let config = TrainConfig {
        n_states: 5,
        ..TrainConfig::default()
    };
    if let Some((hmm, report)) = train(&sequences, &config) {
        assert_finite_model(&hmm, &report, "overparameterized");
    }
    // `None` is acceptable; a NaN-filled `Some` is not.
}

#[test]
fn outlier_that_underflows_every_state_trains_through_the_deep_tail() {
    // A warm start from tight sigmas makes one absurd epoch impossible
    // under every state: each pdf underflows to exactly 0, so the E-step
    // takes the forward pass's deep-tail branch (scale f64::MIN_POSITIVE,
    // alpha reset to the propagated prior) mid-sequence, and the backward
    // pass sees an all-zero emission column.
    let means = [1.0, 3.0, 6.0];
    let prior = Hmm::new(
        vec![0.5, 0.3, 0.2],
        Matrix::from_rows(&[
            vec![0.90, 0.05, 0.05],
            vec![0.05, 0.90, 0.05],
            vec![0.05, 0.05, 0.90],
        ]),
        means
            .iter()
            .map(|&mu| Emission::Gaussian(Gaussian::new(mu, 0.05)))
            .collect(),
    );
    let outlier = 1.0e6;
    assert!(
        prior.emissions.iter().all(|e| e.pdf(outlier) == 0.0),
        "the outlier must underflow every state's pdf"
    );
    let mut sequences: Vec<Vec<f64>> = (0..4)
        .map(|k| {
            (0..40)
                .map(|t| means[(t / 10 + k) % 3] + 0.01 * (((t * 7 + k) % 5) as f64 - 2.0))
                .collect()
        })
        .collect();
    sequences[1][20] = outlier;
    let config = TrainConfig {
        n_states: 3,
        max_iters: 8,
        tol: 0.0,
        ..TrainConfig::default()
    };
    let (hmm, report) = train_seeded(&sequences, &config, Some(&prior)).expect("warm start trains");
    assert!(report.start.is_warm());
    assert_eq!(report.iterations, 8);
    assert_finite_model(&hmm, &report, "deep-tail");
    check_bits(
        "deep_tail_outlier_warm",
        Fnv1a64::new().train_run(&hmm, &report).finish(),
    );
}
