//! Bit-exact fixtures for trained models and ABR decisions.
//!
//! [`golden`](crate::golden) compares numbers within a relative 1e-9, so a
//! change that moves a trained parameter by one ulp passes it. The tests
//! built on this module pin results exactly instead: they hash every
//! parameter's bit pattern (or every decision) with FNV-1a-64 and compare
//! the digest against a fixture with one `name = 0x<hex>` line per case:
//! `fixtures/training_bits.txt` for trained models,
//! `fixtures/decision_bits.txt` for MPC decisions.
//!
//! There is no regeneration switch. A mismatch panics with the line that
//! would make the test pass; edit the fixture by hand, and only in a
//! change that means to alter those results (TESTING.md).

use cs2p_core::model_io::ModelBundle;
use cs2p_ml::hmm::{Emission, Hmm, TrainReport};

/// Incremental FNV-1a-64 over bytes; floats enter as `f64::to_bits`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a64 {
    /// A fresh digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Feeds an integer (little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Feeds floats by bit pattern, so `0.0` and `-0.0` differ and a one-ulp
    /// move changes the digest.
    pub fn f64s(&mut self, vs: &[f64]) -> &mut Self {
        for v in vs {
            self.u64(v.to_bits());
        }
        self
    }

    /// Feeds every parameter of `hmm`: `pi`, `P` row-major, and each
    /// state's emission family, `mu` and `sigma`.
    pub fn hmm(&mut self, hmm: &Hmm) -> &mut Self {
        self.u64(hmm.n_states() as u64)
            .f64s(&hmm.initial)
            .f64s(hmm.transition.data());
        for e in &hmm.emissions {
            let (tag, g) = match e {
                Emission::Gaussian(g) => (0, g),
                Emission::LogNormal(g) => (1, g),
            };
            self.u64(tag).f64s(&[g.mu, g.sigma]);
        }
        self
    }

    /// Feeds a training run: the model plus its report's iteration count,
    /// convergence flag and per-iteration log-likelihoods.
    pub fn train_run(&mut self, hmm: &Hmm, report: &TrainReport) -> &mut Self {
        self.hmm(hmm)
            .u64(report.iterations as u64)
            .u64(u64::from(report.converged))
            .f64s(&report.log_likelihoods)
    }

    /// Feeds a model bundle through its JSON document. Floats print in
    /// shortest round-trip form, so the text changes whenever any
    /// parameter's bits do.
    pub fn bundle(&mut self, bundle: &ModelBundle) -> &mut Self {
        self.bytes(bundle.to_json().expect("bundle serializes").as_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Requires `digest` to equal the line for `name` in
/// `fixtures/training_bits.txt` (trained models).
pub fn check_bits(name: &str, digest: u64) {
    check_pinned("training_bits.txt", name, digest);
}

/// Requires `digest` to equal the line for `name` in
/// `fixtures/decision_bits.txt` (ABR decisions).
pub fn check_decision_bits(name: &str, digest: u64) {
    check_pinned("decision_bits.txt", name, digest);
}

fn check_pinned(file: &str, name: &str, digest: u64) {
    let path = crate::golden::fixtures_dir().join(file);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("pinned bits: cannot read {}: {e}", path.display()));
    let wanted = format!("{name} = 0x{digest:016x}");
    let pinned = text
        .lines()
        .filter_map(|line| line.split_once(" = "))
        .find(|(key, _)| key.trim() == name)
        .map(|(_, hex)| {
            let hex = hex.trim().trim_start_matches("0x");
            u64::from_str_radix(hex, 16)
                .unwrap_or_else(|e| panic!("pinned bits `{name}`: bad digest {hex:?}: {e}"))
        });
    match pinned {
        Some(pinned) if pinned == digest => {}
        Some(pinned) => panic!(
            "pinned bits `{name}` changed: pinned 0x{pinned:016x}, computed 0x{digest:016x}.\n\
             The results are no longer bit-identical. Only a change that means to \
             alter them may update {} to read:\n  {wanted}",
            path.display()
        ),
        None => panic!(
            "pinned bits `{name}` is not pinned; add this line to {}:\n  {wanted}",
            path.display()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(Fnv1a64::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a64::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv1a64::new().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn float_digest_sees_sign_of_zero_and_one_ulp() {
        let d = |x: f64| Fnv1a64::new().f64s(&[x]).finish();
        assert_ne!(d(0.0), d(-0.0));
        assert_ne!(d(1.0), d(f64::from_bits(1.0f64.to_bits() + 1)));
    }
}
