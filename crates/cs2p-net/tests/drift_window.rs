//! Differential property test for the quality monitor's drift window.
//!
//! [`QualityMonitor`] keeps a sorted copy of its drift window and reads
//! the median by index. The reference below keeps only the arrival-order
//! ring and takes the median by sorting a copy on every check — the
//! simplest correct drift alarm, with the same input rules (non-finite
//! or negative APE is unmatched; `min_samples` is clamped to the
//! window). Random streams with repeats, exact zeros, huge values and
//! invalid samples, over windows 1..=300, `min_samples` on both sides of
//! the window, and cooldowns with manual clock advances must give the
//! same return value, alarm count, coverage counters, windowed median
//! (bit for bit) and sketch rows after every call.

use cs2p_net::quality::{Outcome, QualityConfig, QualityMonitor, SketchKey};
use cs2p_obs::{Clock, ManualClock, QuantileSketch, QuantileSnapshot};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// Exact median by sorting a copy of the samples; 0.0 when empty.
fn median_of(xs: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = xs.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The drift alarm as a ring plus sort-a-copy median.
struct Reference {
    config: QualityConfig,
    clock: Arc<ManualClock>,
    window: VecDeque<f64>,
    last_alarm_us: Option<u64>,
    sketches: BTreeMap<String, QuantileSketch>,
    matched: u64,
    unmatched: u64,
    alarms: u64,
}

impl Reference {
    fn new(config: QualityConfig, clock: Arc<ManualClock>) -> Self {
        Reference {
            config,
            clock,
            window: VecDeque::new(),
            last_alarm_us: None,
            sketches: BTreeMap::new(),
            matched: 0,
            unmatched: 0,
            alarms: 0,
        }
    }

    fn record(&mut self, key: SketchKey, ape: f64) -> bool {
        if !ape.is_finite() || ape.is_sign_negative() {
            self.unmatched += 1;
            return false;
        }
        self.matched += 1;
        self.sketches
            .entry(key.to_string())
            .or_default()
            .observe(ape);
        let cap = self.config.window.max(1);
        self.window.push_back(ape);
        while self.window.len() > cap {
            self.window.pop_front();
        }
        if self.window.len() < self.config.min_samples.clamp(1, cap) {
            return false;
        }
        let now = self.clock.now_micros();
        let cooldown_us = self.config.cooldown.as_micros() as u64;
        if let Some(last) = self.last_alarm_us {
            if now.saturating_sub(last) < cooldown_us {
                return false;
            }
        }
        if median_of(self.window.iter().copied()) <= self.config.threshold_ape {
            return false;
        }
        self.window.clear();
        self.last_alarm_us = Some(now);
        self.alarms += 1;
        true
    }

    fn score(&mut self, outcomes: &[Outcome]) -> u64 {
        let mut alarms = 0;
        for outcome in outcomes {
            match *outcome {
                Outcome::Scored(key, ape) => alarms += u64::from(self.record(key, ape)),
                Outcome::Unmatched => self.unmatched += 1,
            }
        }
        alarms
    }

    fn windowed(&self) -> (usize, f64) {
        (self.window.len(), median_of(self.window.iter().copied()))
    }

    fn ape_snapshots(&self) -> Vec<(String, QuantileSnapshot)> {
        self.sketches
            .iter()
            .map(|(k, s)| (k.clone(), s.snapshot()))
            .collect()
    }
}

/// One APE draw: mostly valid (repeats from a small pool, exact zeros,
/// uniform, huge), occasionally invalid.
fn draw_ape(rng: &mut ChaCha8Rng) -> f64 {
    const POOL: [f64; 6] = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0];
    match rng.gen_range(0..20) {
        0..=7 => POOL[rng.gen_range(0..POOL.len())],
        8..=9 => 0.0,
        10..=15 => rng.gen_range(0.0..2.0),
        16 => rng.gen_range(1e3..1e9),
        17 => [f64::MAX, 1e300, f64::MIN_POSITIVE][rng.gen_range(0..3usize)],
        _ => [f64::NAN, f64::INFINITY, -0.0, -0.5][rng.gen_range(0..4usize)],
    }
}

fn draw_key(rng: &mut ChaCha8Rng) -> SketchKey {
    if rng.gen_range(0..8) == 0 {
        SketchKey::Log
    } else {
        SketchKey::Served {
            version: [1, 2, 10][rng.gen_range(0..3usize)],
            cluster_hit: rng.gen(),
            initial: rng.gen(),
        }
    }
}

fn check_state(m: &QualityMonitor, r: &Reference, step: usize) -> Result<(), String> {
    prop_assert_eq!(m.alarms(), r.alarms, "alarms at step {}", step);
    prop_assert_eq!(m.matched(), r.matched, "matched at step {}", step);
    prop_assert_eq!(m.unmatched(), r.unmatched, "unmatched at step {}", step);
    let ((n, med), (rn, rmed)) = (m.windowed(), r.windowed());
    prop_assert_eq!(
        (n, med.to_bits()),
        (rn, rmed.to_bits()),
        "windowed at step {}: {} vs {}",
        step,
        med,
        rmed
    );
    prop_assert_eq!(
        m.ape_snapshots(),
        r.ape_snapshots(),
        "sketches at step {}",
        step
    );
    Ok(())
}

fn run_case(seed: u64, window: usize, min_samples: usize, cooldown_us: u64) -> Result<(), String> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let config = QualityConfig {
        window,
        threshold_ape: [0.0, 0.3, 0.5, 0.75, 1e6][rng.gen_range(0..5usize)],
        min_samples,
        cooldown: Duration::from_micros(cooldown_us),
        trigger_refresh: false,
    };
    let clock = Arc::new(ManualClock::new());
    let m = QualityMonitor::new(config.clone(), Arc::clone(&clock) as Arc<dyn Clock>);
    let mut r = Reference::new(config, Arc::clone(&clock));
    let steps = window * 2 + 200;
    for step in 0..steps {
        match rng.gen_range(0..16) {
            0..=8 => {
                let (key, ape) = (draw_key(&mut rng), draw_ape(&mut rng));
                let got = match key {
                    SketchKey::Served {
                        version,
                        cluster_hit,
                        initial,
                    } => m.record_ape(version, cluster_hit, initial, ape),
                    SketchKey::Log => m.record_log_ape(ape),
                };
                prop_assert_eq!(got, r.record(key, ape), "return at step {}", step);
            }
            9..=12 => {
                let frame: Vec<Outcome> = (0..rng.gen_range(1..=64))
                    .map(|_| {
                        if rng.gen_range(0..10) == 0 {
                            Outcome::Unmatched
                        } else {
                            Outcome::Scored(draw_key(&mut rng), draw_ape(&mut rng))
                        }
                    })
                    .collect();
                let got = m.score(frame.iter().copied());
                prop_assert_eq!(got, r.score(&frame), "frame alarms at step {}", step);
            }
            13 => {
                m.note_unmatched();
                r.unmatched += 1;
            }
            _ => clock.advance(rng.gen_range(0..=cooldown_us.saturating_mul(2).max(1))),
        }
        check_state(&m, &r, step)?;
    }
    Ok(())
}

proptest! {
    #[test]
    fn drift_window_matches_sort_a_copy_median(
        seed in any::<u64>(),
        window in 1usize..=300,
        min_samples_draw in 0usize..=400,
        cooldown_draw in 0u64..=4,
    ) {
        // Half the cases pin min_samples inside the window, half let it
        // land anywhere up to 400 (often above the window).
        let min_samples = if seed % 2 == 0 { min_samples_draw % (window + 1) } else { min_samples_draw };
        // Cooldown 0 in a fifth of the cases, else 4 µs .. 4 s.
        let cooldown_us = if cooldown_draw == 0 { 0 } else { 10u64.pow(cooldown_draw as u32 * 2 - 2) * 4 };
        run_case(seed, window, min_samples, cooldown_us)?;
    }
}
