//! `player_mpc`: the paper's user-facing loop, closed loop with one player
//! thread. Each session plays a day-2 test trace through
//! `cs2p_abr::sim::simulate` with MPC (h = 5, unseeded start) over a
//! `RemotePredictor` on a fresh connection, then uploads its `/log`.

use crate::probe::{ChunkStart, PlayerBusy, ProbedAbr, ProbedPredictor, WireProbe};
use crate::procstat::CpuWindow;
use crate::stats::{median_of, Busy, Samples, Tally};
use crate::workload::{add_server_layers, client_layers, rounds, Budget, Layer, Pass, Workload};
use crate::world::{
    serve, set_up, time_in_memory_set_ups, ReferenceSession, SetupTimes, TestSession, World,
    HORIZON,
};
use cs2p_abr::{simulate, Mpc, QoeParams, SessionOutcome, SimConfig};
use cs2p_core::engine::PredictionEngine;
use cs2p_core::ThroughputPredictor;
use cs2p_net::dash::outcome_to_log;
use cs2p_net::{HttpClient, RemotePredictor, ServerHandle};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Sessions in the fixed set one round plays.
pub const SESSIONS_PER_ROUND: usize = 32;
/// Rounds per second of `Budget::For`: about 70% of what an idle 2-core
/// box plays (~230 sessions/s), leaving room for host noise.
const ROUNDS_PER_SECOND: f64 = 5.0;
/// Rounds the traced pass plays.
const TRACED_ROUNDS: usize = 6;
const EPOCH_SECONDS: f64 = 6.0;
const STRATEGY: &str = "CS2P+MPC";

pub struct Player {
    world: World,
    server: ServerHandle,
    sessions: Vec<TestSession>,
    /// What each session must play out to, and the predictions it asks
    /// the server for on the way.
    reference: Vec<(SessionOutcome, u64)>,
    next_id: u64,
    predicts_expected: u64,
    sessions_played: u64,
}

fn sim_config() -> SimConfig {
    SimConfig {
        prediction_seeded_start: false,
        ..SimConfig::default()
    }
}

pub fn start(seed: u64) -> (Box<dyn Workload>, SetupTimes) {
    let (world, server, times) = set_up(seed, serve);
    let sessions: Vec<TestSession> = world
        .sessions
        .iter()
        .take(SESSIONS_PER_ROUND)
        .cloned()
        .collect();
    let reference = sessions
        .iter()
        .map(|s| {
            let mut p = ReferencePredictor::new(&world.engine, &s.features);
            let outcome = simulate(
                &s.trace,
                EPOCH_SECONDS,
                &mut p,
                &mut Mpc::default(),
                &sim_config(),
            );
            (outcome, p.steps)
        })
        .collect();
    let player = Player {
        world,
        server,
        sessions,
        reference,
        next_id: 1,
        predicts_expected: 0,
        sessions_played: 0,
    };
    (Box::new(player), times)
}

/// What one round of sessions measured.
#[derive(Default)]
struct Round {
    chunk_us: Samples,
    qoe: Vec<f64>,
    tally: Tally,
    busy: PlayerBusy,
    simulate: Busy,
    upload: Busy,
    wall_s: f64,
}

impl Player {
    fn round(&mut self, probe: Option<&WireProbe>) -> Round {
        let started = Instant::now();
        let mut out = Round::default();
        let busy = probe.map(|_| Rc::new(Cell::new(PlayerBusy::default())));
        let addr = self.server.addr();
        for (k, session) in self.sessions.iter().enumerate() {
            let id = self.next_id;
            self.next_id += 1;
            let mut client = HttpClient::new(addr);
            if let Some(p) = probe {
                client = client.with_transport_wrapper(Arc::new(p.clone()));
            }
            let remote = RemotePredictor::from_client(client, id, session.features.clone());
            let chunk_start = ChunkStart::default();
            let mut predictor = ProbedPredictor::new(remote, chunk_start.clone(), busy.clone());
            let mut abr =
                ProbedAbr::new(Mpc::default(), chunk_start, &mut out.chunk_us, busy.clone());
            let t0 = Instant::now();
            let outcome = simulate(
                &session.trace,
                EPOCH_SECONDS,
                &mut predictor,
                &mut abr,
                &sim_config(),
            );
            let t1 = Instant::now();
            let log = outcome_to_log(&outcome, &QoeParams::default(), id, STRATEGY);
            let uploaded = predictor.inner.upload_log(&log).is_ok();
            out.simulate.add(t1 - t0);
            out.upload.add(t1.elapsed());

            let tally = &mut out.tally;
            tally.attempted += predictor.calls;
            tally.failed += predictor.missing + predictor.degraded;
            tally.check(uploaded, "/log answers 204");
            let (expected, steps) = &self.reference[k];
            tally.check(
                outcome == *expected,
                "session plays out exactly as Algorithm 1 + MPC in process",
            );
            out.qoe.push(log.qoe);
            self.predicts_expected += steps;
            self.sessions_played += 1;
        }
        if let Some(b) = busy {
            out.busy = b.get();
        }
        out.wall_s = started.elapsed().as_secs_f64();
        out
    }
}

impl Workload for Player {
    fn pass(&mut self, budget: Budget, probe: Option<&WireProbe>) -> Pass {
        let mut pass = Pass::default();
        let before = self.server.stats();
        let cpu = CpuWindow::start();
        let start = Instant::now();
        let n = match budget {
            Budget::For(d) => ((d.as_secs_f64() * ROUNDS_PER_SECOND).ceil() as usize).max(1),
            Budget::Traced => TRACED_ROUNDS,
        };
        let rounds = rounds(n, || self.round(probe));
        pass.wall_s = start.elapsed().as_secs_f64();
        pass.cpu = cpu.stop();

        let mut busy = PlayerBusy::default();
        let (mut simulate, mut upload) = (Busy::default(), Busy::default());
        for r in &rounds {
            pass.tally.merge(r.tally);
            pass.latency.extend(&r.chunk_us);
            busy.predict.calls += r.busy.predict.calls;
            busy.predict.total += r.busy.predict.total;
            busy.select.calls += r.busy.select.calls;
            busy.select.total += r.busy.select.total;
            simulate.calls += r.simulate.calls;
            simulate.total += r.simulate.total;
            upload.calls += r.upload.calls;
            upload.total += r.upload.total;
            pass.tally.check(
                r.qoe
                    .iter()
                    .map(|q| q.to_bits())
                    .eq(rounds[0].qoe.iter().map(|q| q.to_bits())),
                "QoE is identical in every round",
            );
        }
        pass.ops = simulate.calls;
        let rates: Vec<f64> = rounds
            .iter()
            .map(|r| r.qoe.len() as f64 / r.wall_s)
            .collect();
        pass.ops_per_s = median_of(&rates);
        let qoe_mean = rounds[0].qoe.iter().sum::<f64>() / rounds[0].qoe.len() as f64;
        pass.figure("sessions_per_s", pass.ops_per_s, "1/s", pass.ops as usize);
        let chunk_us = pass.latency.clone();
        pass.percentiles(
            &chunk_us,
            &[
                ("chunk.p50_us", 50.0),
                ("chunk.p90_us", 90.0),
                ("chunk.p99_us", 99.0),
            ],
        );
        pass.figure("qoe_mean", qoe_mean, "qoe", rounds[0].qoe.len());

        if let Some(probe) = probe {
            let layers = &mut pass.layers;
            let sessions = simulate.calls;
            let sim_self_us =
                simulate.total_us() - busy.predict.total_us() - busy.select.total_us();
            layers.insert(
                "abr.mpc.select.calls",
                Layer {
                    value: busy.select.calls as f64,
                    count: busy.select.calls,
                    busy_us: busy.select.total_us(),
                },
            );
            layers.insert(
                "abr.mpc.select.busy_us",
                Layer {
                    value: busy.select.mean_us(),
                    count: busy.select.calls,
                    busy_us: busy.select.total_us(),
                },
            );
            layers.insert(
                "abr.sim.self_us",
                Layer {
                    value: sim_self_us / sessions as f64,
                    count: sessions,
                    busy_us: sim_self_us,
                },
            );
            layers.insert(
                "client.log_upload.busy_us",
                Layer {
                    value: upload.mean_us(),
                    count: upload.calls,
                    busy_us: upload.total_us(),
                },
            );
            client_layers(layers, probe, sessions);
            // The predictor's busy time, which includes connecting.
            layers.insert(
                "client.predict.busy_us",
                Layer {
                    value: busy.predict.total_us() / sessions as f64,
                    count: busy.predict.calls,
                    busy_us: busy.predict.total_us(),
                },
            );
            let accounted =
                busy.predict.total_us() + busy.select.total_us() + sim_self_us + upload.total_us();
            layers.insert(
                "trace.accounted_pct",
                Layer {
                    value: 100.0 * accounted / (pass.wall_s * 1e6),
                    count: sessions,
                    busy_us: accounted,
                },
            );
            add_server_layers(layers, Some(&before), &self.server.stats());
        }
        pass
    }

    fn replay_requests(&self) -> usize {
        // One round's predictions.
        self.reference
            .iter()
            .map(|(_, steps)| *steps as usize)
            .sum()
    }

    fn set_up_again(&self, seed: u64, n: usize) -> Vec<SetupTimes> {
        time_in_memory_set_ups(seed, n)
    }

    fn durable(&self) -> bool {
        false
    }

    fn engine(&self) -> &PredictionEngine {
        &self.world.engine
    }

    fn finish(self: Box<Self>, tally: &mut Tally) {
        let logs = self.server.logs().len() as u64;
        let stats = self.server.shutdown();
        tally.check(
            stats.predictions_served == self.predicts_expected,
            &format!(
                "server.predictions_served {} equals the predicts sent {}",
                stats.predictions_served, self.predicts_expected
            ),
        );
        tally.check(
            logs == self.sessions_played,
            "the server holds one log per session played",
        );
    }
}

/// `RemotePredictor`'s caching over a local [`ReferenceSession`]: one
/// server step per chunk, a fetched window of [`HORIZON`] predictions,
/// and a measurement shipped on the next prediction.
struct ReferencePredictor<'e> {
    session: ReferenceSession<'e>,
    registered: bool,
    pending: Option<f64>,
    cache: Vec<f64>,
    cache_initial: bool,
    steps: u64,
}

impl<'e> ReferencePredictor<'e> {
    fn new(engine: &'e PredictionEngine, features: &[u32]) -> Self {
        ReferencePredictor {
            session: ReferenceSession::register(engine, features),
            registered: false,
            pending: None,
            cache: Vec::new(),
            cache_initial: false,
            steps: 0,
        }
    }

    fn ensure(&mut self, k: usize) {
        if self.registered && self.pending.is_none() && self.cache.len() >= k {
            return;
        }
        let resp = self.session.step(self.pending.take(), HORIZON.max(k));
        self.registered = true;
        self.cache = resp.predictions_mbps;
        self.cache_initial = resp.initial;
        self.steps += 1;
    }
}

impl ThroughputPredictor for ReferencePredictor<'_> {
    fn name(&self) -> &str {
        "reference"
    }

    fn predict_initial(&mut self) -> Option<f64> {
        self.ensure(1);
        self.cache_initial.then(|| self.cache[0])
    }

    fn predict_ahead(&mut self, k: usize) -> Option<f64> {
        self.ensure(k);
        self.cache.get(k - 1).copied()
    }

    fn observe(&mut self, throughput: f64) {
        if self.pending.is_some() {
            self.ensure(1);
        }
        self.pending = Some(throughput);
    }

    fn reset(&mut self) {
        unreachable!("the simulator never resets a predictor");
    }
}
