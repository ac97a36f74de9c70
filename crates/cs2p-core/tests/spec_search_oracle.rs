//! Differential oracle for the Eq. 3 spec search.
//!
//! [`MemoSearch::find_best_spec`] is the memoised search that the
//! sliding-window table in `cs2p_core::cluster` replaced, kept verbatim
//! apart from reaching the finder's public accessors through `self.finder`.
//! It computes every `F(Agg(spec, s'))` by building the aggregate and
//! sorting a copy of its initial throughputs, behind a mutex-guarded memo.
//!
//! The properties require `ClusterFinder::find_best_spec` and the batch
//! `find_best_specs` (on one and two threads) to return the oracle's
//! `SpecSearch`, field by field, with `error` compared by bits. The
//! generated worlds cover every `TimeWindow` kind and window-boundary
//! offsets, equal start times, sessions without a throughput sample (no
//! initial throughput), duplicate, zero and negative-zero initial
//! throughputs, targets at or before existing starts, `min_cluster_size`
//! on both sides of the cluster sizes, and empty `Est` pools.

use cs2p_core::cluster::{ClusterConfig, ClusterFinder, ClusterSpec, SpecSearch};
use cs2p_core::features::{FeatureSchema, FeatureSet, FeatureVector};
use cs2p_core::metrics::abs_normalized_error;
use cs2p_core::{Dataset, Session, TimeWindow};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::collections::HashMap;

/// The memoised search over a finder's public surface.
struct MemoSearch<'f, 'a> {
    finder: &'f ClusterFinder<'a>,
    candidate_sets: Vec<FeatureSet>,
    pred_cache: Mutex<HashMap<(ClusterSpec, usize), Option<f64>>>,
}

impl<'f, 'a> MemoSearch<'f, 'a> {
    fn new(finder: &'f ClusterFinder<'a>) -> Self {
        let candidate_sets = finder
            .config()
            .candidate_sets
            .clone()
            .unwrap_or_else(|| finder.dataset().schema().all_nonempty_subsets());
        MemoSearch {
            finder,
            candidate_sets,
            pred_cache: Mutex::new(HashMap::new()),
        }
    }

    /// Cached `F(Agg(spec, s'))`: the cluster-median prediction the spec
    /// would have made for training session `s'` at its own start time.
    fn predicted_initial_for(&self, spec: ClusterSpec, session_idx: usize) -> Option<f64> {
        if let Some(&cached) = self.pred_cache.lock().get(&(spec, session_idx)) {
            return cached;
        }
        let s_prime = self.finder.dataset().get(session_idx);
        let agg = self
            .finder
            .aggregate(spec, &s_prime.features, s_prime.start_time);
        let pred = self.finder.median_initial(&agg);
        self.pred_cache.lock().insert((spec, session_idx), pred);
        pred
    }

    /// Finds `M*_s` for a target session (Eq. 2–3).
    fn find_best_spec(&self, features: &FeatureVector, start: u64) -> SpecSearch {
        let est = self.finder.estimation_pool(features, start);

        let mut best: Option<(ClusterSpec, f64, usize)> = None;
        let mut qualifying_without_est: Option<(ClusterSpec, usize)> = None;

        for &set in &self.candidate_sets {
            for &window in &self.finder.config().candidate_windows {
                let spec = ClusterSpec { set, window };
                let members = self.finder.aggregate(spec, features, start);
                if members.len() < self.finder.config().min_cluster_size {
                    continue;
                }
                // Remember the most specific qualifying spec in case the
                // Est pool is empty (cold start).
                let better_fallback = match &qualifying_without_est {
                    None => true,
                    Some((cur, cur_n)) => {
                        set.len() > cur.set.len()
                            || (set.len() == cur.set.len() && members.len() > *cur_n)
                    }
                };
                if better_fallback {
                    qualifying_without_est = Some((spec, members.len()));
                }
                if est.is_empty() {
                    continue;
                }

                let mut errors = Vec::with_capacity(est.len());
                for &si in &est {
                    let Some(actual) = self.finder.dataset().get(si).initial_throughput() else {
                        continue;
                    };
                    let Some(pred) = self.predicted_initial_for(spec, si) else {
                        continue;
                    };
                    errors.push(abs_normalized_error(pred, actual));
                }
                let Some(err) = cs2p_ml::stats::median(&errors) else {
                    continue;
                };
                if best.as_ref().is_none_or(|(_, e, _)| err < *e) {
                    best = Some((spec, err, members.len()));
                }
            }
        }

        if let Some((spec, error, cluster_size)) = best {
            return SpecSearch {
                spec,
                error: Some(error),
                cluster_size,
                used_global_fallback: false,
            };
        }
        if let Some((spec, cluster_size)) = qualifying_without_est {
            return SpecSearch {
                spec,
                error: None,
                cluster_size,
                used_global_fallback: false,
            };
        }
        // Global fallback (paper: ~4% of sessions).
        let members = self.finder.aggregate(ClusterSpec::GLOBAL, features, start);
        SpecSearch {
            spec: ClusterSpec::GLOBAL,
            error: None,
            cluster_size: members.len(),
            used_global_fallback: true,
        }
    }
}

/// Every window kind, with spans short enough that the generated start
/// times land on both sides of their boundaries.
const WINDOWS: [TimeWindow; 7] = [
    TimeWindow::All,
    TimeWindow::History { minutes: 1 },
    TimeWindow::History { minutes: 5 },
    TimeWindow::History { minutes: 60 },
    TimeWindow::SameHourOfDay { days: 1 },
    TimeWindow::SameHourOfDay { days: 2 },
    TimeWindow::SameHourOfDay { days: 7 },
];

/// Offsets inside an hour: repeats give equal start times, and 60 / 300
/// apart sit exactly on the one- and five-minute window edges.
const OFFSETS: [u64; 8] = [0, 0, 1, 60, 61, 300, 301, 3599];

/// Initial-throughput values with duplicates, zero and negative zero.
const VALUES: [f64; 6] = [0.0, -0.0, 1.0, 1.0, 2.5, 7.0];

const N_FEATURES: usize = 3;

fn arb_start() -> impl Strategy<Value = u64> {
    (0u64..3, 0u64..3, 0usize..OFFSETS.len())
        .prop_map(|(day, hour, off)| day * 86_400 + hour * 3600 + OFFSETS[off])
}

/// A throughput series: empty (no initial throughput) about one time in
/// eight, else a first sample from [`VALUES`] or drawn freely.
fn arb_throughput() -> impl Strategy<Value = Vec<f64>> {
    (0usize..8, 0usize..12, 0.05f64..30.0, 0usize..3).prop_map(|(len, pick, free, extra)| {
        if len == 0 {
            return Vec::new();
        }
        let first = VALUES.get(pick).copied().unwrap_or(free);
        std::iter::once(first)
            .chain(std::iter::repeat_n(1.0, extra))
            .collect()
    })
}

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    prop::collection::vec(
        (
            prop::collection::vec(0u32..2, N_FEATURES),
            arb_start(),
            arb_throughput(),
        ),
        0..60,
    )
    .prop_map(|rows| {
        let schema = FeatureSchema::new(vec!["a", "b", "c"]);
        let sessions = rows
            .into_iter()
            .enumerate()
            .map(|(i, (f, t, tp))| Session::new(i as u64, FeatureVector(f), t, 6, tp))
            .collect();
        Dataset::new(schema, sessions)
    })
}

fn arb_config() -> impl Strategy<Value = ClusterConfig> {
    (
        (0usize..8, 0u32..(1 << WINDOWS.len())),
        (0usize..3, prop::collection::vec(1u32..8, 0..5)),
        (0usize..4, 0u64..3, 0usize..8, 0usize..6),
    )
        .prop_map(
            |(
                (min_cluster_size, window_mask),
                (sets_kind, sets),
                (est_kind, est_win, max_est, min_est),
            )| {
                let candidate_windows = WINDOWS
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| window_mask & (1 << k) != 0)
                    .map(|(_, &w)| w)
                    .collect();
                // Default subsets most of the time, else an explicit list
                // (possibly empty, possibly with repeats).
                let candidate_sets =
                    (sets_kind == 0).then(|| sets.into_iter().map(FeatureSet).collect());
                // Auto-derived, full, one column, or the empty set.
                let est_feature_set = match est_kind {
                    0 => None,
                    1 => Some(FeatureSet::full(N_FEATURES)),
                    2 => Some(FeatureSet::from_indices(&[1])),
                    _ => Some(FeatureSet::EMPTY),
                };
                ClusterConfig {
                    min_cluster_size,
                    candidate_sets,
                    candidate_windows,
                    est_window_seconds: [0, 600, 86_400][est_win as usize],
                    // Zero empties every Est pool.
                    max_est_sessions: max_est,
                    min_est_sessions: min_est,
                    est_feature_set,
                }
            },
        )
}

/// Targets: existing sessions at their own start (equal starts excluded),
/// at another session's start, or past everything, plus an unseen combo.
fn targets(d: &Dataset, picks: &[(usize, usize, u8)]) -> Vec<(FeatureVector, u64)> {
    let end = d.sessions().last().map_or(0, |s| s.start_time + 1);
    let mut out = vec![(FeatureVector(vec![9; N_FEATURES]), end)];
    if d.is_empty() {
        out.push((FeatureVector(vec![0; N_FEATURES]), 0));
        return out;
    }
    for &(a, b, kind) in picks {
        let s = d.get(a % d.len());
        let start = match kind % 4 {
            0 => s.start_time,
            1 => d.get(b % d.len()).start_time,
            2 => end,
            _ => 0,
        };
        out.push((s.features.clone(), start));
    }
    out
}

fn same(got: &SpecSearch, want: &SpecSearch) -> Result<(), String> {
    let bits = |e: Option<f64>| e.map(f64::to_bits);
    if got.spec != want.spec
        || bits(got.error) != bits(want.error)
        || got.cluster_size != want.cluster_size
        || got.used_global_fallback != want.used_global_fallback
    {
        return Err(format!("table search {got:?} != memo oracle {want:?}"));
    }
    Ok(())
}

proptest! {
    #[test]
    fn single_search_matches_memo_oracle(
        d in arb_dataset(),
        cfg in arb_config(),
        picks in prop::collection::vec((0usize..64, 0usize..64, 0u8..4), 1..6),
    ) {
        let finder = ClusterFinder::new(&d, cfg);
        let oracle = MemoSearch::new(&finder);
        for (features, start) in targets(&d, &picks) {
            same(
                &finder.find_best_spec(&features, start),
                &oracle.find_best_spec(&features, start),
            )?;
        }
    }

    #[test]
    fn batch_search_matches_memo_oracle(
        d in arb_dataset(),
        cfg in arb_config(),
        picks in prop::collection::vec((0usize..64, 0usize..64, 0u8..4), 1..8),
        n_threads in 1usize..3,
    ) {
        let finder = ClusterFinder::new(&d, cfg);
        let oracle = MemoSearch::new(&finder);
        // A batch shares one start time, as the engine searches every
        // combo at its reference time; it is drawn before, among and past
        // the generated sessions.
        let start = picks[0].1 as u64 * 3_000;
        let features: Vec<FeatureVector> =
            targets(&d, &picks).into_iter().map(|(f, _)| f).collect();
        let got = finder.find_best_specs(&features, start, n_threads);
        prop_assert_eq!(got.len(), features.len());
        for (f, g) in features.iter().zip(&got) {
            same(g, &oracle.find_best_spec(f, start))?;
        }
    }
}

#[test]
fn engine_reference_time_batch_matches_memo_oracle() {
    // The engine's phase-1 call shape: every distinct combo of a dataset,
    // searched at once just past the last session, on two threads.
    let mut sessions = Vec::new();
    for k in 0..300u64 {
        let f = FeatureVector(vec![(k % 3) as u32, (k % 5 % 2) as u32, (k % 7 % 3) as u32]);
        let start = (k * 977) % (3 * 86_400);
        let tp = if k % 11 == 0 {
            Vec::new()
        } else {
            vec![((k * 37) % 13) as f64 * 0.5, 1.0]
        };
        sessions.push(Session::new(k, f, start, 6, tp));
    }
    let d = Dataset::new(FeatureSchema::new(vec!["a", "b", "c"]), sessions);
    let cfg = ClusterConfig {
        min_cluster_size: 6,
        candidate_windows: WINDOWS.to_vec(),
        max_est_sessions: 12,
        min_est_sessions: 6,
        ..Default::default()
    };
    let finder = ClusterFinder::new(&d, cfg);
    let oracle = MemoSearch::new(&finder);
    let mut combos: Vec<FeatureVector> = d.sessions().iter().map(|s| s.features.clone()).collect();
    combos.sort_by(|a, b| a.0.cmp(&b.0));
    combos.dedup();
    let reference = d.sessions().last().unwrap().start_time + 1;
    let got = finder.find_best_specs(&combos, reference, 2);
    for (f, g) in combos.iter().zip(&got) {
        same(g, &oracle.find_best_spec(f, reference)).unwrap();
    }
    assert!(
        got.iter().any(|g| g.error.is_some()),
        "no search scored an Est pool"
    );
}
