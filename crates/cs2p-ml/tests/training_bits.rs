//! Bit-exact training fixture for Baum–Welch on the reference sequences.
//!
//! Each case trains with [`train_seeded`] and compares an FNV-1a-64 digest
//! of the model and its log-likelihood trace against
//! `crates/cs2p-testkit/fixtures/training_bits.txt`. Unlike the golden
//! fixtures there is no tolerance: one ulp anywhere fails the test.

use cs2p_ml::hmm::{train_seeded, EmissionFamily, Hmm, TrainConfig};
use cs2p_testkit::bits::{check_bits, Fnv1a64};
use cs2p_testkit::scenarios;

fn check_run(name: &str, seqs: &[Vec<f64>], config: &TrainConfig, prior: Option<&Hmm>) {
    let (hmm, report) = train_seeded(seqs, config, prior).expect("reference data trains");
    assert_eq!(
        report.start.is_warm(),
        prior.is_some(),
        "{name}: start mode"
    );
    check_bits(name, Fnv1a64::new().train_run(&hmm, &report).finish());
}

#[test]
fn gaussian_cold_start_is_bit_exact() {
    let (_, seqs) = scenarios::reference_hmm(3);
    let config = TrainConfig {
        n_states: 3,
        max_iters: 30,
        ..TrainConfig::default()
    };
    check_run("reference_gaussian_cold", &seqs, &config, None);
}

#[test]
fn lognormal_cold_start_is_bit_exact() {
    let (_, seqs) = scenarios::reference_hmm(3);
    let config = TrainConfig {
        n_states: 2,
        max_iters: 30,
        family: EmissionFamily::LogNormal,
        ..TrainConfig::default()
    };
    check_run("reference_lognormal_cold", &seqs, &config, None);
}

#[test]
fn warm_start_is_bit_exact() {
    // Yesterday's model (seed 3) resumes on today's sequences (seed 5).
    let (prior, _) = scenarios::reference_hmm(3);
    let (_, seqs) = scenarios::reference_hmm(5);
    let config = TrainConfig {
        n_states: 2,
        max_iters: 30,
        ..TrainConfig::default()
    };
    check_run("reference_gaussian_warm", &seqs, &config, Some(&prior));
}
