//! Bit-exact training fixture for the whole prediction engine.
//!
//! Trains the engine of the `EvalConfig::small()` world at seed 1 (the
//! world `loopbench` serves: day-1 split, 5-state HMMs) and compares an
//! FNV-1a-64 digest of its `ModelBundle` against
//! `crates/cs2p-testkit/fixtures/training_bits.txt`. A one-ulp change in
//! any cluster's parameters fails the test.

use cs2p_core::engine::PredictionEngine;
use cs2p_core::model_io::ModelBundle;
use cs2p_eval::EvalConfig;
use cs2p_testkit::bits::{check_bits, Fnv1a64};

#[test]
fn small_world_seed1_engine_is_bit_exact() {
    let config = EvalConfig::small();
    assert_eq!(config.seed, 1);
    let (dataset, _world) = cs2p_trace::synth::generate(&config.synth());
    let (train, _test) = dataset.split_at_day(1);
    let (engine, _) = PredictionEngine::train(&train, &config.engine()).expect("engine trains");
    let bundle = ModelBundle::from_engine(&engine);
    check_bits(
        "engine_small_seed1",
        Fnv1a64::new().bundle(&bundle).finish(),
    );
}
