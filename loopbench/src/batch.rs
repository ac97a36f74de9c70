//! `batch_durable`: the write path, closed loop with two client threads.
//! Each thread owns 256 sessions and walks them epoch-major as
//! `/predict_batch` frames of 64 entries against a durable server
//! (`ServerHandle::open_or_recover`, group commit 64, no fsync, startup
//! compaction only). A round opens a fresh directory, drives the fixed
//! work, shuts the server down and recovers the directory with
//! `persist::recover`, so the WAL and the recovery are the same size on
//! every commit.

use crate::probe::WireProbe;
use crate::procstat::CpuWindow;
use crate::stats::{median_of, Samples, Tally};
use crate::workload::{add_server_layers, client_layers, rounds, Budget, Layer, Pass, Workload};
use crate::world::{
    live_request, set_up, time_set_ups, ReferenceSession, SetupTimes, World, MIN_EPOCHS,
};
use bytes::Bytes;
use cs2p_core::engine::PredictionEngine;
use cs2p_net::http::Request;
use cs2p_net::protocol::{BatchEntryResult, BatchPredictRequest, BatchPredictResponse};
use cs2p_net::{
    persist, HttpClient, PersistConfig, ServeConfig, ServeStats, ServerHandle, WalStats,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const THREADS: usize = 2;
const SESSIONS_PER_THREAD: usize = 256;
const FRAME: usize = 64;
const GROUP_COMMIT: usize = 64;
/// Rounds per second of `Budget::For`: about 70% of what an idle 2-core
/// box drives, counting each round's open, shutdown and recovery.
const ROUNDS_PER_SECOND: f64 = 8.0;
/// Rounds the traced pass drives.
const TRACED_ROUNDS: usize = 24;
/// The server's cap on recorded epochs per session, which recovery
/// applies too.
const MAX_OBSERVED: usize = 1024;

/// One frame: the request body and the exact answer it must get.
struct Frame {
    body: Bytes,
    expected: Bytes,
}

pub struct Batch {
    world: World,
    /// This run's temporary directory, inside the working directory.
    root: PathBuf,
    /// `frames[t]`: thread `t`'s frames in send order.
    frames: Vec<Vec<Frame>>,
    /// The server the last set-up opened, driven by the warm-up round.
    opened: Option<(ServerHandle, PathBuf)>,
    rounds: usize,
}

fn persist_config() -> PersistConfig {
    PersistConfig {
        commit_every_records: GROUP_COMMIT,
        snapshot_every_records: 0,
        fsync_data: false,
        ..PersistConfig::default()
    }
}

fn open(engine: &PredictionEngine, dir: &Path) -> ServerHandle {
    ServerHandle::open_or_recover(
        dir,
        engine.clone(),
        "127.0.0.1:0",
        ServeConfig::default(),
        persist_config(),
    )
    .expect("open the durable server")
}

fn entries_per_round() -> u64 {
    (THREADS * SESSIONS_PER_THREAD * MIN_EPOCHS) as u64
}

pub fn start(seed: u64) -> (Box<dyn Workload>, SetupTimes) {
    let root = std::env::current_dir()
        .expect("working directory")
        .join(".bench_tmp")
        .join(format!("batch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (world, opened, times) = set_up(seed, |world| {
        let dir = root.join("setup-0");
        (open(&world.engine, &dir), dir)
    });
    let n = THREADS * SESSIONS_PER_THREAD;
    assert!(
        world.sessions.len() >= n,
        "the world has {} sessions of {MIN_EPOCHS}+ epochs, {n} needed",
        world.sessions.len()
    );
    let frames = (0..THREADS)
        .map(|t| {
            let own = t * SESSIONS_PER_THREAD..(t + 1) * SESSIONS_PER_THREAD;
            let mut refs: Vec<ReferenceSession> = own
                .clone()
                .map(|k| ReferenceSession::register(&world.engine, &world.sessions[k].features))
                .collect();
            let mut frames = Vec::new();
            for epoch in 0..MIN_EPOCHS {
                for chunk in own.clone().collect::<Vec<_>>().chunks(FRAME) {
                    let entries: Vec<_> = chunk
                        .iter()
                        .map(|&k| live_request(k as u64 + 1, &world.sessions[k], epoch))
                        .collect();
                    let results = chunk
                        .iter()
                        .zip(&entries)
                        .map(|(&k, e)| {
                            let r = &mut refs[k - t * SESSIONS_PER_THREAD];
                            BatchEntryResult::ok(r.step(e.measured_mbps, e.horizon))
                        })
                        .collect();
                    let body = serde_json::to_vec(&BatchPredictRequest { entries })
                        .expect("serialize frame");
                    frames.push(Frame {
                        body: Bytes::from(body),
                        expected: Bytes::from(BatchPredictResponse { results }.to_json_bytes()),
                    });
                }
            }
            frames
        })
        .collect();
    let mut batch = Batch {
        world,
        root,
        frames,
        opened: Some(opened),
        rounds: 0,
    };
    let warm_up = batch.round(None);
    assert_eq!(warm_up.tally.failed, 0, "warm-up round failed");
    (Box::new(batch), times)
}

/// One round, as measured.
#[derive(Default)]
struct Round {
    frame_us: Samples,
    tally: Tally,
    drive_s: f64,
    recover_ms: f64,
    wal: WalStats,
    stats: Option<ServeStats>,
}

impl Batch {
    fn round(&mut self, probe: Option<&WireProbe>) -> Round {
        let (server, dir) = self.opened.take().unwrap_or_else(|| {
            let dir = self.root.join(format!("round-{}", self.rounds));
            (open(&self.world.engine, &dir), dir)
        });
        self.rounds += 1;
        let mut out = Round::default();
        let addr = server.addr();
        let start = Instant::now();
        let results: Vec<(Samples, Tally)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .frames
                .iter()
                .map(|frames| {
                    scope.spawn(move || {
                        let mut client = HttpClient::new(addr);
                        if let Some(p) = probe {
                            client = client.with_transport_wrapper(Arc::new(p.clone()));
                        }
                        let mut lat = Samples::new();
                        let mut tally = Tally::default();
                        for frame in frames {
                            let req = Request::new("POST", "/predict_batch", frame.body.clone());
                            let t = Instant::now();
                            let resp = client.send(&req);
                            lat.push_duration(t.elapsed());
                            let ok = resp
                                .is_ok_and(|r| r.status == 200 && r.body[..] == frame.expected[..]);
                            // A frame's entries succeed or fail together here.
                            for _ in 0..FRAME {
                                tally.op(ok);
                            }
                        }
                        (lat, tally)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        out.drive_s = start.elapsed().as_secs_f64();
        for (lat, tally) in results {
            out.frame_us.extend(&lat);
            out.tally.merge(tally);
        }
        let wal = server
            .persist_stats()
            .expect("a durable server has WAL stats");
        let stats = server.shutdown();
        let entries = entries_per_round();
        out.tally.check(
            stats.predictions_served == entries,
            "server.predictions_served equals the entries sent",
        );
        out.tally.check(
            wal.records == entries && !wal.dead,
            "persist.records equals the entries sent",
        );
        let t = Instant::now();
        let recovered = persist::recover(&dir, MAX_OBSERVED);
        out.recover_ms = t.elapsed().as_secs_f64() * 1e3;
        out.tally.check(
            recovered.is_ok_and(|r| r.clean && r.sessions.len() == THREADS * SESSIONS_PER_THREAD),
            "recovery finds every session written",
        );
        out.wal = wal;
        out.stats = Some(stats);
        let _ = std::fs::remove_dir_all(&dir);
        out
    }
}

impl Workload for Batch {
    fn pass(&mut self, budget: Budget, probe: Option<&WireProbe>) -> Pass {
        let mut pass = Pass::default();
        let cpu = CpuWindow::start();
        let n = match budget {
            Budget::For(d) => ((d.as_secs_f64() * ROUNDS_PER_SECOND).ceil() as usize).max(1),
            Budget::Traced => TRACED_ROUNDS,
        };
        let rounds = rounds(n, || self.round(probe));
        pass.cpu = cpu.stop();
        let mut recover_ms = Vec::new();
        let mut wal = WalStats::default();
        for r in &rounds {
            pass.tally.merge(r.tally);
            pass.latency.extend(&r.frame_us);
            pass.wall_s += r.drive_s;
            recover_ms.push(r.recover_ms);
            wal.records += r.wal.records;
            wal.bytes += r.wal.bytes;
            wal.commits += r.wal.commits;
        }
        pass.ops = entries_per_round() * rounds.len() as u64;
        let rates: Vec<f64> = rounds
            .iter()
            .map(|r| entries_per_round() as f64 / r.drive_s)
            .collect();
        pass.ops_per_s = median_of(&rates);
        pass.figure("entries_per_s", pass.ops_per_s, "1/s", pass.ops as usize);
        let frame_us = pass.latency.clone();
        pass.percentiles(
            &frame_us,
            &[
                ("frame.p50_us", 50.0),
                ("frame.p90_us", 90.0),
                ("frame.p99_us", 99.0),
            ],
        );
        let recovery_ms = median_of(&recover_ms);
        pass.figure("recovery_ms", recovery_ms, "ms", recover_ms.len());

        if let Some(probe) = probe {
            let layers = &mut pass.layers;
            let n = rounds.len() as u64;
            client_layers(layers, probe, THREADS as u64 * n);
            // Servers are per round; their counters are summed.
            for r in &rounds {
                if let Some(stats) = &r.stats {
                    add_server_layers(layers, None, stats);
                }
            }
            layers.insert("persist.records", Layer::count(wal.records / n));
            layers.insert("persist.bytes", Layer::count(wal.bytes / n));
            layers.insert(
                "persist.records_per_commit",
                Layer {
                    value: wal.records as f64 / wal.commits.max(1) as f64,
                    count: wal.commits,
                    busy_us: 0.0,
                },
            );
            layers.insert(
                "persist.recover_ms",
                Layer {
                    value: recovery_ms,
                    count: n,
                    busy_us: recover_ms.iter().sum::<f64>() * 1e3,
                },
            );
        }
        pass
    }

    fn replay_requests(&self) -> usize {
        // One round's frames.
        self.frames.iter().map(Vec::len).sum()
    }

    fn set_up_again(&self, seed: u64, n: usize) -> Vec<SetupTimes> {
        time_set_ups(
            seed,
            n,
            |world, k| {
                let dir = self.root.join(format!("setup-{}", k + 1));
                (open(&world.engine, &dir), dir)
            },
            |(server, dir)| {
                server.shutdown();
                let _ = std::fs::remove_dir_all(dir);
            },
        )
    }

    fn durable(&self) -> bool {
        true
    }

    fn engine(&self) -> &PredictionEngine {
        &self.world.engine
    }

    fn finish(self: Box<Self>, _tally: &mut Tally) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            // Removed only when no other run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}
