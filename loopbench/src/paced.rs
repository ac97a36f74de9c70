//! `paced_viewers`: open loop. Two generator threads, each with one
//! keep-alive connection, replay about a thousand interleaved live
//! sessions epoch by epoch as singleton `/predict` requests (horizon 8),
//! on a fixed arrival schedule at two offered rates. Latency is timed
//! from each request's due time, so a stall also charges the requests
//! queued behind it; how late each send left is reported separately.

use crate::probe::WireProbe;
use crate::procstat::CpuWindow;
use crate::stats::{Samples, Tally};
use crate::workload::{add_server_layers, client_layers, Budget, Layer, Pass, Workload};
use crate::world::{
    live_request, serve, set_up, time_in_memory_set_ups, ReferenceSession, SetupTimes, World,
    MIN_EPOCHS,
};
use bytes::Bytes;
use cs2p_core::engine::PredictionEngine;
use cs2p_net::http::Request;
use cs2p_net::{HttpClient, ServerHandle};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Live sessions interleaved on the schedule.
const LIVE_SESSIONS: usize = 1000;
const GENERATORS: usize = 2;
/// Offered rates, requests per second over both connections.
///
/// At `light` each connection idles 2 ms between requests, longer than
/// the server's 300 µs keep-alive linger, as real viewers do: every
/// request waits for the poller, whose 1 ms park bounds how late it is
/// seen. (At 2,000 req/s that wait equals the 1 ms per-connection gap,
/// and on a 2-core VM the generators fell 0.5–1 ms behind.)
///
/// At `busy` the 200 µs gap is inside the linger, so requests take the
/// worker's fast path and per-request compute and queueing show. (At
/// 20,000 req/s the generators on a 2-core VM fell 100+ ms behind.)
pub const LIGHT_RATE: f64 = 1_000.0;
pub const BUSY_RATE: f64 = 10_000.0;
/// Requests sent at the busy rate before any pass, not measured.
const WARM_UP_REQUESTS: usize = 2_000;
/// Schedule length of each rate in the traced pass.
const TRACED_PHASE: Duration = Duration::from_millis(1_500);

pub struct Paced {
    world: World,
    server: ServerHandle,
    /// `expected[k][e]`: the exact answer to session `k`'s `e`-th request.
    expected: Vec<Vec<Bytes>>,
    /// First session id of the next phase.
    next_id: u64,
    sent: u64,
}

pub fn start(seed: u64) -> (Box<dyn Workload>, SetupTimes) {
    let (world, server, times) = set_up(seed, serve);
    let n = world.sessions.len().min(LIVE_SESSIONS);
    let expected = world.sessions[..n]
        .iter()
        .map(|s| {
            let mut reference = ReferenceSession::register(&world.engine, &s.features);
            (0..MIN_EPOCHS)
                .map(|e| {
                    let req = live_request(0, s, e);
                    let resp = reference.step(req.measured_mbps, req.horizon);
                    Bytes::from(serde_json::to_vec(&resp).expect("serialize response"))
                })
                .collect()
        })
        .collect();
    let mut paced = Paced {
        world,
        server,
        expected,
        next_id: 1,
        sent: 0,
    };
    let warm_up = paced.phase(BUSY_RATE, WARM_UP_REQUESTS, None);
    assert_eq!(warm_up.tally.failed, 0, "warm-up requests failed");
    (Box::new(paced), times)
}

/// One rate's schedule, as measured.
#[derive(Default)]
struct Phase {
    latency: Samples,
    lateness: Samples,
    tally: Tally,
    wall_s: f64,
    requests: u64,
}

impl Paced {
    fn sessions(&self) -> usize {
        self.expected.len()
    }

    /// The `i`-th request of generator `g` in a phase starting at `base`:
    /// epoch-major over the generator's own sessions, each pass over them
    /// with fresh session ids.
    fn request_of(&self, base: u64, g: usize, i: usize) -> (u64, usize, usize) {
        let own = self.sessions() / GENERATORS;
        let pass = i / (own * MIN_EPOCHS);
        let epoch = i % (own * MIN_EPOCHS) / own;
        let k = (i % own) * GENERATORS + g;
        let id = base + (pass * self.sessions() + k) as u64;
        (id, k, epoch)
    }

    fn phase(&mut self, rate: f64, requests: usize, probe: Option<&WireProbe>) -> Phase {
        let per_gen = requests / GENERATORS;
        let own = self.sessions() / GENERATORS;
        let passes = per_gen.div_ceil(own * MIN_EPOCHS);
        let base = self.next_id;
        self.next_id += (passes * self.sessions()) as u64;

        let gap = Duration::from_secs_f64(GENERATORS as f64 / rate);
        let addr = self.server.addr();
        let start = Instant::now() + Duration::from_millis(2);
        let this = &*self;
        let results: Vec<Phase> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..GENERATORS)
                .map(|g| {
                    scope.spawn(move || {
                        let mut client = HttpClient::new(addr);
                        if let Some(p) = probe {
                            client = client.with_transport_wrapper(Arc::new(p.clone()));
                        }
                        let offset = gap * g as u32 / GENERATORS as u32;
                        let mut out = Phase::default();
                        let mut last_done = start;
                        for i in 0..per_gen {
                            let (id, k, epoch) = this.request_of(base, g, i);
                            let body = serde_json::to_vec(&live_request(
                                id,
                                &this.world.sessions[k],
                                epoch,
                            ))
                            .expect("serialize request");
                            let req = Request::new("POST", "/predict", body);
                            let due = start + offset + gap * i as u32;
                            wait_until(due);
                            out.lateness.push_duration(Instant::now() - due);
                            let ok = match client.send(&req) {
                                Ok(resp) => {
                                    if resp.status == 503 {
                                        client.reset_connection();
                                    }
                                    resp.status == 200
                                        && resp.body[..] == this.expected[k][epoch][..]
                                }
                                Err(_) => false,
                            };
                            last_done = Instant::now();
                            out.latency.push_duration(last_done - due);
                            out.tally.op(ok);
                        }
                        out.wall_s = (last_done - start).as_secs_f64();
                        out.requests = per_gen as u64;
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread panicked"))
                .collect()
        });
        let mut phase = Phase {
            latency: Samples::interleave(results.iter().map(|r| &r.latency)),
            lateness: Samples::interleave(results.iter().map(|r| &r.lateness)),
            ..Phase::default()
        };
        for r in results {
            phase.tally.merge(r.tally);
            phase.wall_s = phase.wall_s.max(r.wall_s);
            phase.requests += r.requests;
        }
        self.sent += phase.requests;
        phase
    }
}

/// Sleeps until `due`. Sleeps overshoot by ~50 µs, which shows as
/// lateness; spinning instead would take a core from the server.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

impl Workload for Paced {
    fn pass(&mut self, budget: Budget, probe: Option<&WireProbe>) -> Pass {
        let phase_len = match budget {
            Budget::For(d) => d / 2,
            Budget::Traced => TRACED_PHASE,
        };
        let requests = |rate: f64| (rate * phase_len.as_secs_f64()) as usize;
        let mut pass = Pass::default();
        let before = self.server.stats();
        let cpu = CpuWindow::start();
        let light = self.phase(LIGHT_RATE, requests(LIGHT_RATE), probe);
        let light_rtt = probe.map(|p| p.lock().predict_rtt.clone());
        let busy = self.phase(BUSY_RATE, requests(BUSY_RATE), probe);
        pass.cpu = cpu.stop();
        pass.tally.merge(light.tally);
        pass.tally.merge(busy.tally);
        pass.ops = light.requests + busy.requests;
        pass.wall_s = light.wall_s + busy.wall_s;
        pass.ops_per_s = pass.ops as f64 / pass.wall_s;
        pass.latency = busy.latency.clone();

        pass.figure("requests_per_s", pass.ops_per_s, "1/s", 0);
        pass.percentiles(
            &light.latency,
            &[("light.p50_us", 50.0), ("light.p99_us", 99.0)],
        );
        pass.percentiles(
            &busy.latency,
            &[
                ("busy.p50_us", 50.0),
                ("busy.p90_us", 90.0),
                ("busy.p99_us", 99.0),
            ],
        );
        let lateness = [
            (
                &light,
                LIGHT_RATE,
                [
                    "light.late_p50_us",
                    "light.late_p99_us",
                    "light.generator_behind",
                ],
            ),
            (
                &busy,
                BUSY_RATE,
                [
                    "busy.late_p50_us",
                    "busy.late_p99_us",
                    "busy.generator_behind",
                ],
            ),
        ];
        for (phase, rate, [p50, p99, behind]) in lateness {
            pass.percentiles(&phase.lateness, &[(p50, 50.0), (p99, 99.0)]);
            // Late by a whole send gap more often than not: the server did
            // not see the offered rate, so this phase's figures are suspect.
            let gap_us = GENERATORS as f64 * 1e6 / rate;
            let late = phase.lateness.percentile(50.0).unwrap_or(0.0);
            if late > gap_us {
                println!(
                    "FLAG: the generators fell behind the {rate} req/s schedule \
                     (median lateness {late:.1} us > send gap {gap_us:.1} us)"
                );
                pass.figure(behind, 1.0, "flag", 0);
            }
        }

        if let Some(probe) = probe {
            let layers = &mut pass.layers;
            client_layers(layers, probe, 2 * GENERATORS as u64);
            if let Some(rtt) = light_rtt {
                layers.insert(
                    "client.predict.rtt.light_p50_us",
                    Layer {
                        value: rtt.percentile(50.0).unwrap_or(0.0),
                        count: rtt.len() as u64,
                        busy_us: rtt.sum(),
                    },
                );
            }
            add_server_layers(layers, Some(&before), &self.server.stats());
        }
        pass
    }

    fn replay_requests(&self) -> usize {
        // As many as one pass over every live session.
        self.sessions() * MIN_EPOCHS
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
        let stats = self.server.shutdown();
        tally.check(
            stats.predictions_served == self.sent,
            &format!(
                "server.predictions_served {} equals the predicts sent {}",
                stats.predictions_served, self.sent
            ),
        );
        tally.check(stats.sessions_evicted == 0, "no session was evicted");
    }
}
