//! What every workload provides to `main`, and what one measured pass of
//! it produces.

use crate::probe::WireProbe;
use crate::procstat::CpuUse;
use crate::stats::{Samples, Tally};
use cs2p_net::ServeStats;
use std::collections::BTreeMap;
use std::time::Duration;

/// How much work one pass does.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// About this long: the whole rounds an idle 2-core box completes in
    /// that time (closed loop), or a schedule of this length (open loop).
    /// The work is fixed by the duration alone, so a slow run takes longer
    /// rather than doing less, and what the server accumulates (sessions,
    /// logs, WAL) is the same on every run.
    For(Duration),
    /// The fixed work of the traced pass, identical on every run.
    Traced,
}

/// No pass starts another round after this long, so a run on a starved
/// box still ends within its time limit (the shortfall shows in `ops`).
/// With the host taking half the CPU, a 10 s budget's player pass took
/// about 33 s.
pub const PASS_LIMIT: Duration = Duration::from_secs(45);

/// Runs `round` `n` times, or fewer if [`PASS_LIMIT`] runs out first.
pub fn rounds<R>(n: usize, mut round: impl FnMut() -> R) -> Vec<R> {
    let start = std::time::Instant::now();
    let mut out = Vec::with_capacity(n);
    while out.len() < n && (out.is_empty() || start.elapsed() < PASS_LIMIT) {
        out.push(round());
    }
    out
}

/// A named end-to-end figure of one workload, as the report prints it.
#[derive(Debug, Clone)]
pub struct Figure {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the figure (0 for a derived or single value).
    pub samples: usize,
}

/// One per-layer measurement: its value plus the count and busy time it
/// came from.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    pub value: f64,
    pub count: u64,
    pub busy_us: f64,
}

impl Layer {
    pub fn value(value: f64) -> Self {
        Layer {
            value,
            ..Layer::default()
        }
    }

    pub fn count(count: u64) -> Self {
        Layer {
            value: count as f64,
            count,
            busy_us: 0.0,
        }
    }
}

pub type Layers = BTreeMap<&'static str, Layer>;

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub tally: Tally,
    /// Operations completed: sessions, requests or entries.
    pub ops: u64,
    /// Wall time those operations took, seconds.
    pub wall_s: f64,
    /// Operations per second: the median over rounds of fixed work, or
    /// the achieved rate of an open-loop schedule.
    pub ops_per_s: f64,
    /// The workload's headline latency, microseconds, in the order taken.
    pub latency: Samples,
    pub figures: Vec<Figure>,
    pub cpu: CpuUse,
    /// Per-layer numbers; filled by traced passes only.
    pub layers: Layers,
}

impl Pass {
    pub fn figure(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.figures.push(Figure {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Adds a windowed percentile figure of `samples` per `(name, p)`; a
    /// percentile without ten samples beyond it in every window fails a
    /// check.
    pub fn percentiles(&mut self, samples: &Samples, which: &[(&'static str, f64)]) {
        for &(name, p) in which {
            let value = samples.windowed(p);
            self.tally.check(
                value.is_some(),
                &format!("{name} has ten samples beyond it"),
            );
            self.figure(name, value.map_or(0.0, |(v, _)| v), "us", samples.len());
        }
    }
}

/// A workload with its world, server and precomputed expected answers.
pub trait Workload {
    /// Runs one pass. With a probe, the pass is traced: clients go through
    /// it and `Pass::layers` is filled.
    fn pass(&mut self, budget: Budget, probe: Option<&WireProbe>) -> Pass;

    /// How many of the traced pass's prediction requests, captured off
    /// the wire, the in-process replay times: one round of this workload.
    fn replay_requests(&self) -> usize;

    /// Sets up `n` more times, only to time set-up (see
    /// `world::time_set_ups`).
    fn set_up_again(&self, seed: u64, n: usize) -> Vec<crate::world::SetupTimes>;

    /// Whether the server logs to a WAL (the replay then times it too).
    fn durable(&self) -> bool;

    /// The engine the server was started with.
    fn engine(&self) -> &cs2p_core::engine::PredictionEngine;

    /// Stops the server and runs the end-of-run output checks.
    fn finish(self: Box<Self>, tally: &mut Tally);
}

/// The server counters a traced pass reports.
fn server_counts(s: &ServeStats) -> [(&'static str, u64); 5] {
    let a = &s.admission;
    [
        ("server.predictions_served", s.predictions_served),
        ("server.accepted", s.accepted),
        ("server.rejected", s.rejected),
        ("server.sessions_evicted", s.sessions_evicted),
        (
            "server.admission.non_full",
            a.served_degraded + a.served_fallback + a.shed,
        ),
    ]
}

/// Adds the server counters gained between two snapshots (`None`: since
/// the server started).
pub fn add_server_layers(layers: &mut Layers, before: Option<&ServeStats>, after: &ServeStats) {
    let before = before.map(server_counts);
    for (i, (name, v)) in server_counts(after).into_iter().enumerate() {
        let layer = layers.entry(name).or_default();
        layer.count += v - before.map_or(0, |b| b[i].1);
        layer.value = layer.count as f64;
    }
}

/// Client-side layers from a transport probe.
pub fn client_layers(layers: &mut Layers, probe: &WireProbe, clients: u64) {
    let mut log = probe.lock();
    let rtt = &mut log.predict_rtt;
    let n = rtt.len() as u64;
    let busy = rtt.sum();
    let p50 = rtt.percentile(50.0).unwrap_or(0.0);
    let p99 = rtt.percentile(99.0).unwrap_or(0.0);
    layers.insert(
        "client.predict.calls",
        Layer {
            value: log.predict_calls as f64,
            count: log.predict_calls,
            busy_us: busy,
        },
    );
    for (name, v) in [
        ("client.predict.rtt.p50_us", p50),
        ("client.predict.rtt.p99_us", p99),
    ] {
        layers.insert(
            name,
            Layer {
                value: v,
                count: n,
                busy_us: busy,
            },
        );
    }
    layers.insert("client.connects", Layer::count(log.connects));
    layers.insert("client.rejected_503", Layer::count(log.status_503));
    layers.insert("client.reinit", Layer::count(log.status_404));
    // Every client opens one connection; any beyond that is a reconnect
    // after a transport failure, i.e. a retry.
    layers.insert(
        "client.retries",
        Layer::count(log.connects.saturating_sub(clients)),
    );
}
