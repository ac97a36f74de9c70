//! Online prediction-quality monitoring for the serving layer.
//!
//! The paper evaluates CS2P offline by the absolute percent error (APE)
//! of its throughput predictions (§7, Eq. 7). In production the same
//! signal is available *online* for free: the server predicted epoch
//! `t+1` and, one request later, the player reports what it actually
//! measured. [`QualityMonitor`] closes that loop — every `/predict`
//! carrying a measurement scores the previous prediction, feeds
//! per-`{model version, cluster-hit/global-fallback, initial/midstream}`
//! quantile sketches (`quality.ape.*` in the metrics snapshot), and
//! checks a sliding-window drift alarm.
//!
//! The drift alarm is the operational point of the whole exercise: when
//! the median APE over the last [`QualityConfig::window`] scored
//! predictions exceeds [`QualityConfig::threshold_ape`], the world has
//! drifted away from the training data and the model should be
//! refreshed. The alarm emits a `quality.drift.alarm` event, bumps
//! `quality.drift.alarms`, and (when
//! [`QualityConfig::trigger_refresh`] is set) lets the server kick an
//! online retrain — closing the observe → alarm → refresh → recover loop
//! end-to-end. Cooldown and alarm timing run on an injectable
//! [`Clock`], so tests drive the whole loop deterministically.
//!
//! The monitor keeps its own sketches in addition to feeding the global
//! `cs2p-obs` registry: the `/ops` surface must work even when the
//! registry is disabled (the default in production).
//!
//! Scoring is on every served request, so it is kept cheap: sketches
//! are keyed by a `Copy` [`SketchKey`] (the key string is rendered only
//! for snapshots), and the drift window keeps a sorted copy of itself
//! beside the arrival-order ring, so each sample costs two binary
//! searches and a memmove of at most `window` floats instead of a
//! sort. The median read off the sorted copy is bit-identical to
//! sorting the window: every sample is finite with its sign bit clear,
//! so equal values are equal bit patterns and the sorted multiset is
//! the same either way.

use cs2p_obs::{Clock, QuantileSketch, QuantileSnapshot};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Knobs for the online quality monitor (see [`QualityMonitor`]).
///
/// The defaults are deliberately conservative: a median APE of 0.75
/// means predictions are off by 75% for half the window — far beyond
/// anything a healthy model produces (the paper reports ~7% median APE)
/// — so CI workloads and benchmarks never trip the alarm by accident.
/// Drift tests lower `threshold_ape` and `min_samples` explicitly.
#[derive(Debug, Clone)]
pub struct QualityConfig {
    /// Sliding-window size (scored predictions) for the drift check.
    pub window: usize,
    /// Drift alarm fires when the window's median APE exceeds this.
    pub threshold_ape: f64,
    /// No alarm until the window holds at least this many samples.
    /// Clamped to `1..=window`: a larger value could never be reached,
    /// and would silently disable the alarm.
    pub min_samples: usize,
    /// Minimum time between alarms, measured on the injectable clock.
    pub cooldown: Duration,
    /// When set, an alarm asks the server to refresh its models from
    /// the recorded-session window (same path as the background
    /// refresher; a no-op if too few sessions are recorded).
    pub trigger_refresh: bool,
}

impl Default for QualityConfig {
    fn default() -> Self {
        QualityConfig {
            window: 256,
            threshold_ape: 0.75,
            min_samples: 64,
            cooldown: Duration::from_secs(60),
            trigger_refresh: false,
        }
    }
}

/// Which APE sketch a scored prediction lands in. Rendered (by
/// `Display`) as `v{version}.{cluster|global}.{initial|midstream}`, or
/// `log` for pairs recovered from offline session logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SketchKey {
    /// A prediction the server served.
    Served {
        /// The model version that made it.
        version: u64,
        /// Whether the session hit a cluster model (vs. the global
        /// fallback).
        cluster_hit: bool,
        /// Whether it was the session's initial (cluster-median)
        /// prediction.
        initial: bool,
    },
    /// A `(predicted, actual)` pair from an uploaded session log whose
    /// session the server no longer holds: provenance unknown.
    Log,
}

impl fmt::Display for SketchKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SketchKey::Served {
                version,
                cluster_hit,
                initial,
            } => write!(
                f,
                "v{}.{}.{}",
                version,
                if cluster_hit { "cluster" } else { "global" },
                if initial { "initial" } else { "midstream" },
            ),
            SketchKey::Log => f.write_str("log"),
        }
    }
}

/// One prediction's quality outcome, booked by [`QualityMonitor::score`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// The prediction met its measurement: its APE, and its sketch.
    Scored(SketchKey, f64),
    /// The prediction will never be scored (APE undefined).
    Unmatched,
}

impl Outcome {
    /// Scores `predicted` against the `actual` measured later;
    /// [`Outcome::Unmatched`] where [`ape`] is undefined.
    pub fn of(key: SketchKey, predicted: f64, actual: f64) -> Self {
        match ape(predicted, actual) {
            Some(e) => Outcome::Scored(key, e),
            None => Outcome::Unmatched,
        }
    }
}

/// Mutex-guarded state: the drift window and the quality sketches.
#[derive(Debug)]
struct MonitorInner {
    /// Last `window` APE values, oldest first.
    window: VecDeque<f64>,
    /// The same values as `window`, ascending: the median is read by
    /// index, and samples enter and leave by binary search.
    sorted: Vec<f64>,
    /// When the last alarm fired (injectable-clock micros).
    last_alarm_us: Option<u64>,
    /// Per-provenance APE sketches.
    sketches: BTreeMap<SketchKey, QuantileSketch>,
    /// End-to-end request-handling latency (µs, on the injectable
    /// clock — zero-width under a `ManualClock`, which is what keeps
    /// deterministic runs deterministic).
    latency_us: QuantileSketch,
}

impl MonitorInner {
    /// Appends `ape` to the window, first evicting the oldest sample
    /// when the window already holds `cap`.
    fn push(&mut self, ape: f64, cap: usize) {
        if self.window.len() == cap {
            let old = self.window.pop_front().expect("full window");
            let i = self.sorted.partition_point(|&x| x < old);
            debug_assert_eq!(self.sorted[i].to_bits(), old.to_bits());
            self.sorted.remove(i);
        }
        self.window.push_back(ape);
        let i = self.sorted.partition_point(|&x| x <= ape);
        self.sorted.insert(i, ape);
    }

    /// Median of a non-empty window.
    fn median(&self) -> f64 {
        let v = &self.sorted;
        let n = v.len();
        if n % 2 == 1 {
            v[n / 2]
        } else {
            0.5 * (v[n / 2 - 1] + v[n / 2])
        }
    }

    fn clear_window(&mut self) {
        self.window.clear();
        self.sorted.clear();
    }
}

/// The online accuracy monitor. One per server; all methods are
/// thread-safe and cheap enough for the request path: an atomic, or a
/// short mutex hold costing O(log window) comparisons per sample. A
/// frame of outcomes is scored under one hold ([`score`](Self::score)).
/// With the global registry disabled, scoring allocates only while the
/// window first fills and when a new sketch key appears.
pub struct QualityMonitor {
    config: QualityConfig,
    clock: Arc<dyn Clock>,
    /// `config.min_samples`, clamped to `1..=window` (window at least 1).
    min_samples: usize,
    /// Predictions scored against a later measurement.
    matched: AtomicU64,
    /// Predictions that left the server unscored (session completed or
    /// was evicted before the next measurement arrived, or the actual
    /// was zero so APE is undefined).
    unmatched: AtomicU64,
    /// Drift alarms fired.
    alarms: AtomicU64,
    /// Guards alarm-triggered refreshes: one at a time.
    refresh_in_flight: AtomicBool,
    inner: Mutex<MonitorInner>,
}

impl fmt::Debug for QualityMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QualityMonitor")
            .field("config", &self.config)
            .field("matched", &self.matched.load(Ordering::Relaxed))
            .field("unmatched", &self.unmatched.load(Ordering::Relaxed))
            .field("alarms", &self.alarms.load(Ordering::Relaxed))
            .finish()
    }
}

impl QualityMonitor {
    /// Creates a monitor. `clock` is the server's injectable clock —
    /// alarm cooldown (and request-latency timing) follow it.
    pub fn new(config: QualityConfig, clock: Arc<dyn Clock>) -> Self {
        let min_samples = config.min_samples.clamp(1, config.window.max(1));
        QualityMonitor {
            config,
            clock,
            min_samples,
            matched: AtomicU64::new(0),
            unmatched: AtomicU64::new(0),
            alarms: AtomicU64::new(0),
            refresh_in_flight: AtomicBool::new(false),
            inner: Mutex::new(MonitorInner {
                window: VecDeque::new(),
                sorted: Vec::new(),
                last_alarm_us: None,
                sketches: BTreeMap::new(),
                latency_us: QuantileSketch::new(),
            }),
        }
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &QualityConfig {
        &self.config
    }

    /// Scores one served prediction against the throughput the player
    /// later measured. Returns `true` when this sample tripped the
    /// drift alarm (the caller decides whether to act on it).
    /// A non-finite or negative `ape` is counted unmatched instead.
    pub fn record_ape(&self, version: u64, cluster_hit: bool, initial: bool, ape: f64) -> bool {
        let key = SketchKey::Served {
            version,
            cluster_hit,
            initial,
        };
        self.score([Outcome::Scored(key, ape)]) > 0
    }

    /// Scores a `(predicted, actual)` pair recovered from an uploaded
    /// [`crate::protocol::SessionLog`] whose session the server no
    /// longer holds — provenance and model version are unknown, so the
    /// sample lands in the dedicated `log` sketch.
    pub fn record_log_ape(&self, ape: f64) -> bool {
        self.score([Outcome::Scored(SketchKey::Log, ape)]) > 0
    }

    /// Books `outcomes` in order under one lock acquisition, exactly as
    /// the same calls to [`record_ape`](Self::record_ape) /
    /// [`note_unmatched`](Self::note_unmatched) one by one would, and
    /// returns how many drift alarms they fired. A scored APE that is
    /// non-finite or negative (sign bit set) is undefined: it counts
    /// unmatched and stays out of the window and the sketches.
    pub fn score(&self, outcomes: impl IntoIterator<Item = Outcome>) -> u64 {
        let mut guard = None;
        let mut alarms = 0;
        for outcome in outcomes {
            let (key, ape) = match outcome {
                Outcome::Scored(key, ape) if ape.is_finite() && ape.is_sign_positive() => {
                    (key, ape)
                }
                _ => {
                    self.note_unmatched();
                    continue;
                }
            };
            self.matched.fetch_add(1, Ordering::Relaxed);
            if cs2p_obs::enabled() {
                cs2p_obs::counter_add("quality.coverage.matched", 1);
                cs2p_obs::quantile_observe(&format!("quality.ape.{key}"), ape);
            }
            let inner = guard.get_or_insert_with(|| self.inner.lock());
            inner
                .sketches
                .entry(key)
                .or_insert_with(QuantileSketch::new)
                .observe(ape);
            inner.push(ape, self.config.window.max(1));
            if self.check_alarm(inner) {
                alarms += 1;
            }
        }
        alarms
    }

    /// Drift check; called with the lock held, window freshly updated.
    /// The clock is read only once the median crosses the threshold.
    fn check_alarm(&self, inner: &mut MonitorInner) -> bool {
        if inner.window.len() < self.min_samples {
            return false;
        }
        let median = inner.median();
        if median <= self.config.threshold_ape {
            return false;
        }
        let now = self.clock.now_micros();
        let cooldown_us = self.config.cooldown.as_micros().min(u64::MAX as u128) as u64;
        if let Some(last) = inner.last_alarm_us {
            if now.saturating_sub(last) < cooldown_us {
                return false;
            }
        }
        // Alarm. Clear the window so post-refresh samples are judged on
        // their own — that is what lets a test watch the windowed APE
        // recover after the hot-swap.
        inner.clear_window();
        inner.last_alarm_us = Some(now);
        let n = self.alarms.fetch_add(1, Ordering::Relaxed) + 1;
        if cs2p_obs::enabled() {
            cs2p_obs::counter_add("quality.drift.alarms", 1);
            cs2p_obs::event(
                cs2p_obs::Level::Warn,
                "quality.drift.alarm",
                vec![
                    ("median_ape", median.into()),
                    ("threshold", self.config.threshold_ape.into()),
                    ("window", self.config.window.into()),
                    ("alarm_seq", n.into()),
                ],
            );
        }
        true
    }

    /// Counts a prediction that will never be scored (the session ended
    /// before the next measurement, or APE was undefined).
    pub fn note_unmatched(&self) {
        self.unmatched.fetch_add(1, Ordering::Relaxed);
        if cs2p_obs::enabled() {
            cs2p_obs::counter_add("quality.coverage.unmatched", 1);
        }
    }

    /// Records one request's end-to-end handling latency.
    pub fn record_latency_us(&self, us: f64) {
        self.inner.lock().latency_us.observe(us);
    }

    /// Predictions scored so far.
    pub fn matched(&self) -> u64 {
        self.matched.load(Ordering::Relaxed)
    }

    /// Predictions that left unscored.
    pub fn unmatched(&self) -> u64 {
        self.unmatched.load(Ordering::Relaxed)
    }

    /// Drift alarms fired so far.
    pub fn alarms(&self) -> u64 {
        self.alarms.load(Ordering::Relaxed)
    }

    /// `(samples, median)` of the current drift window; `(0, 0.0)` when
    /// empty (the window is cleared by each alarm).
    pub fn windowed(&self) -> (usize, f64) {
        let inner = self.inner.lock();
        if inner.window.is_empty() {
            (0, 0.0)
        } else {
            (inner.window.len(), inner.median())
        }
    }

    /// Snapshots of every per-provenance APE sketch, sorted by the
    /// rendered key string.
    pub fn ape_snapshots(&self) -> Vec<(String, QuantileSnapshot)> {
        let mut rows: Vec<(String, QuantileSnapshot)> = self
            .inner
            .lock()
            .sketches
            .iter()
            .map(|(k, s)| (k.to_string(), s.snapshot()))
            .collect();
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Snapshot of the request-latency sketch.
    pub fn latency_snapshot(&self) -> QuantileSnapshot {
        self.inner.lock().latency_us.snapshot()
    }

    /// Claims the alarm-refresh slot. The caller must pair a `true`
    /// return with [`end_refresh`](Self::end_refresh); `false` means a
    /// refresh is already running and the caller should skip.
    pub fn begin_refresh(&self) -> bool {
        self.refresh_in_flight
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Releases the alarm-refresh slot.
    pub fn end_refresh(&self) {
        self.refresh_in_flight.store(false, Ordering::Release);
    }
}

/// Absolute percent error of a prediction against a measured actual;
/// `None` when the actual is nonpositive or either value is non-finite
/// (APE is undefined there — callers count those as unmatched).
pub fn ape(predicted: f64, actual: f64) -> Option<f64> {
    if !predicted.is_finite() || !actual.is_finite() || actual <= 0.0 {
        return None;
    }
    Some((predicted - actual).abs() / actual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs2p_obs::ManualClock;

    fn monitor(config: QualityConfig) -> (QualityMonitor, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let m = QualityMonitor::new(config, Arc::clone(&clock) as Arc<dyn Clock>);
        (m, clock)
    }

    #[test]
    fn ape_is_undefined_for_zero_actual_and_nonfinite_inputs() {
        assert_eq!(ape(2.0, 4.0), Some(0.5));
        assert_eq!(ape(4.0, 4.0), Some(0.0));
        assert_eq!(ape(1.0, 0.0), None);
        assert_eq!(ape(1.0, -1.0), None);
        assert_eq!(ape(f64::NAN, 1.0), None);
        assert_eq!(ape(1.0, f64::INFINITY), None);
    }

    #[test]
    fn sketches_are_keyed_by_provenance() {
        let (m, _) = monitor(QualityConfig::default());
        m.record_ape(1, true, true, 0.1);
        m.record_ape(1, true, false, 0.2);
        m.record_ape(2, false, false, 0.3);
        m.record_log_ape(0.4);
        let keys: Vec<String> = m.ape_snapshots().into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![
                "log".to_string(),
                "v1.cluster.initial".to_string(),
                "v1.cluster.midstream".to_string(),
                "v2.global.midstream".to_string(),
            ]
        );
        assert_eq!(m.matched(), 4);
    }

    #[test]
    fn alarm_fires_on_drift_then_respects_cooldown() {
        let (m, clock) = monitor(QualityConfig {
            window: 8,
            threshold_ape: 0.5,
            min_samples: 4,
            cooldown: Duration::from_secs(10),
            trigger_refresh: false,
        });
        // Accurate predictions: no alarm however many samples arrive.
        for _ in 0..16 {
            assert!(!m.record_ape(1, true, false, 0.05));
        }
        // Drifted: the 4th bad sample satisfies min_samples… but the
        // window still holds old good samples; keep feeding until the
        // median crosses.
        let mut fired = false;
        for _ in 0..8 {
            fired |= m.record_ape(1, true, false, 1.0);
        }
        assert!(fired, "drift must raise the alarm");
        assert_eq!(m.alarms(), 1);
        // The alarm cleared the window and armed the cooldown: more bad
        // samples do not re-fire within it…
        for _ in 0..8 {
            assert!(!m.record_ape(1, true, false, 1.0));
        }
        assert_eq!(m.alarms(), 1);
        // …but do after the cooldown elapses on the injectable clock.
        clock.advance(11_000_000);
        let mut refired = false;
        for _ in 0..8 {
            refired |= m.record_ape(1, true, false, 1.0);
        }
        assert!(refired, "alarm must re-arm after cooldown");
        assert_eq!(m.alarms(), 2);
    }

    #[test]
    fn window_clears_on_alarm_so_recovery_is_visible() {
        let (m, _) = monitor(QualityConfig {
            window: 8,
            threshold_ape: 0.5,
            min_samples: 2,
            cooldown: Duration::from_secs(0),
            trigger_refresh: false,
        });
        m.record_ape(1, true, false, 1.0);
        assert!(m.record_ape(1, true, false, 1.0));
        assert_eq!(m.windowed(), (0, 0.0), "alarm must clear the window");
        // Good samples after the (hypothetical) refresh: window median
        // reflects only them.
        m.record_ape(2, true, false, 0.05);
        m.record_ape(2, true, false, 0.07);
        m.record_ape(2, true, false, 0.06);
        let (n, median) = m.windowed();
        assert_eq!(n, 3);
        assert!((median - 0.06).abs() < 1e-12);
        // 0-second cooldown: ManualClock has not advanced, and
        // now - last == 0 >= 0, so only the median gate holds it back.
        assert!(!m.record_ape(2, true, false, 0.05));
    }

    #[test]
    fn snapshot_rows_sort_by_rendered_key() {
        let (m, _) = monitor(QualityConfig::default());
        m.record_ape(10, true, false, 0.1);
        m.record_ape(2, false, true, 0.2);
        m.record_ape(2, true, true, 0.3);
        let keys: Vec<String> = m.ape_snapshots().into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            [
                "v10.cluster.midstream",
                "v2.cluster.initial",
                "v2.global.initial"
            ]
        );
    }

    #[test]
    fn non_finite_or_negative_ape_counts_unmatched() {
        let (m, _) = monitor(QualityConfig {
            window: 4,
            threshold_ape: 0.5,
            min_samples: 1,
            cooldown: Duration::ZERO,
            trigger_refresh: false,
        });
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5, -0.0] {
            assert!(!m.record_ape(1, true, false, bad));
            assert!(!m.record_log_ape(bad));
        }
        assert_eq!(m.matched(), 0);
        assert_eq!(m.unmatched(), 10);
        assert_eq!(m.windowed(), (0, 0.0));
        assert!(m.ape_snapshots().is_empty());
        // A frame mixing good and bad samples books only the good ones.
        let key = SketchKey::Log;
        let alarms = m.score([
            Outcome::Scored(key, 0.1),
            Outcome::Scored(key, f64::NAN),
            Outcome::Unmatched,
            Outcome::Scored(key, 0.3),
        ]);
        assert_eq!(alarms, 0);
        assert_eq!((m.matched(), m.unmatched()), (2, 12));
        assert_eq!(m.windowed(), (2, 0.2));
    }

    #[test]
    fn min_samples_above_window_still_alarms() {
        let (m, _) = monitor(QualityConfig {
            window: 4,
            threshold_ape: 0.5,
            min_samples: 64,
            cooldown: Duration::ZERO,
            trigger_refresh: false,
        });
        for _ in 0..3 {
            assert!(!m.record_ape(1, true, false, 1.0));
        }
        assert!(
            m.record_ape(1, true, false, 1.0),
            "a full window must alarm"
        );
        assert_eq!(m.alarms(), 1);
    }

    #[test]
    fn frame_scoring_counts_every_alarm() {
        let (m, _) = monitor(QualityConfig {
            window: 2,
            threshold_ape: 0.5,
            min_samples: 2,
            cooldown: Duration::ZERO,
            trigger_refresh: false,
        });
        let bad = Outcome::Scored(SketchKey::Log, 1.0);
        assert_eq!(m.score([bad; 5]), 2);
        assert_eq!(m.alarms(), 2);
        assert_eq!(m.windowed(), (1, 1.0));
    }

    #[test]
    fn refresh_slot_is_exclusive() {
        let (m, _) = monitor(QualityConfig::default());
        assert!(m.begin_refresh());
        assert!(!m.begin_refresh(), "slot must be exclusive");
        m.end_refresh();
        assert!(m.begin_refresh());
        m.end_refresh();
    }

    #[test]
    fn latency_sketch_reports_quantiles() {
        let (m, _) = monitor(QualityConfig::default());
        for us in [100.0, 200.0, 300.0, 400.0] {
            m.record_latency_us(us);
        }
        let snap = m.latency_snapshot();
        assert_eq!(snap.count, 4);
        assert!(snap.min <= 100.0 * 1.05 && snap.max >= 400.0 * 0.95);
    }
}
