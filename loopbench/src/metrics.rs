//! The benchmark's metric catalogue: every end-to-end metric (untraced
//! runs) and every per-layer metric (traced runs), with the end-to-end
//! figure and workload each layer metric should move. `BENCHMARK.json`
//! lists the same names; a test keeps the two in step.

/// An end-to-end metric, reported by every workload.
///
/// Only figures that hold still on a shared 2-core VM are gated here. On
/// such a box the hypervisor takes 10–35% of the CPU in bursts; that
/// halves closed-loop throughput and moves every tail percentile by up
/// to 20x, while the windowed median (see `Samples::windowed`) moves by
/// 5–15%. Throughput, p90 and p99 of each workload are still measured,
/// printed by name and carried as `e2e.*` per-layer figures.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The figure it is on each workload: player_mpc, paced_viewers,
    /// batch_durable.
    pub is: [&'static str; 3],
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        is: [
            "generate + train + bind",
            "generate + train + bind",
            "generate + train + open",
        ],
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        is: ["VmHWM", "VmHWM", "VmHWM"],
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: "lower",
        is: ["chunk.p50_us", "busy.p50_us", "frame.p50_us"],
    },
];

/// A per-layer metric and what it should move.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
    pub workloads: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    workloads: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        workloads,
    }
}

const ALL: &str = "all";
const PLAYER: &str = "player_mpc";
const PACED: &str = "paced_viewers";
const BATCH: &str = "batch_durable";

pub const PER_LAYER: &[PerLayer] = &[
    // cs2p-abr, around the player's ABR algorithm and simulator.
    layer(
        "abr.mpc.select.calls",
        "count",
        "lower",
        "chunk.p50_us, sessions_per_s",
        PLAYER,
    ),
    layer(
        "abr.mpc.select.busy_us",
        "us",
        "lower",
        "chunk.p50_us, sessions_per_s",
        PLAYER,
    ),
    layer("abr.sim.self_us", "us", "lower", "sessions_per_s", PLAYER),
    // cs2p-net::client, through the transport probe and predictor wrapper.
    layer(
        "client.predict.calls",
        "count",
        "lower",
        "chunk.*, light.*, busy.*, frame.*",
        ALL,
    ),
    layer(
        "client.predict.busy_us",
        "us",
        "lower",
        "chunk.p50_us, sessions_per_s",
        PLAYER,
    ),
    layer(
        "client.predict.rtt.p50_us",
        "us",
        "lower",
        "chunk.p50_us, busy.p50_us, frame.p50_us",
        ALL,
    ),
    layer(
        "client.predict.rtt.p99_us",
        "us",
        "lower",
        "chunk.p99_us, busy.p99_us, frame.p99_us",
        ALL,
    ),
    layer(
        "client.predict.rtt.light_p50_us",
        "us",
        "lower",
        "light.p50_us",
        PACED,
    ),
    layer(
        "client.connects",
        "count",
        "lower",
        "sessions_per_s",
        PLAYER,
    ),
    layer(
        "client.log_upload.busy_us",
        "us",
        "lower",
        "sessions_per_s",
        PLAYER,
    ),
    layer("client.rejected_503", "count", "lower", "error_rate", ALL),
    layer("client.reinit", "count", "lower", "error_rate", ALL),
    layer("client.retries", "count", "lower", "error_rate", ALL),
    // cs2p-net::server, through ServerHandle::stats.
    layer(
        "server.predictions_served",
        "count",
        "higher",
        "error_rate, qoe_mean",
        ALL,
    ),
    layer("server.accepted", "count", "lower", "error_rate", ALL),
    layer("server.rejected", "count", "lower", "error_rate", ALL),
    layer(
        "server.sessions_evicted",
        "count",
        "lower",
        "error_rate, qoe_mean",
        ALL,
    ),
    layer(
        "server.admission.non_full",
        "count",
        "lower",
        "error_rate, qoe_mean",
        ALL,
    ),
    layer(
        "server.wait_us.p50",
        "us",
        "lower",
        "light.p50_us, chunk.p50_us, frame.p50_us",
        ALL,
    ),
    // Replayed stages: cs2p-net::http, ::protocol, ::store, cs2p-core, cs2p-ml.
    layer("http.parse_ns", "ns", "lower", "busy.p50_us", ALL),
    layer("http.write_ns", "ns", "lower", "busy.p50_us", ALL),
    layer(
        "protocol.decode_ns",
        "ns",
        "lower",
        "busy.p50_us, entries_per_s",
        ALL,
    ),
    layer(
        "protocol.encode_ns",
        "ns",
        "lower",
        "busy.p50_us, entries_per_s",
        ALL,
    ),
    layer("store.lock_ns", "ns", "lower", "entries_per_s", ALL),
    layer("core.lookup_ns", "ns", "lower", "sessions_per_s", ALL),
    layer(
        "ml.filter.observe_ns",
        "ns",
        "lower",
        "busy.p50_us, entries_per_s",
        ALL,
    ),
    layer(
        "ml.filter.readout_ns",
        "ns",
        "lower",
        "busy.p50_us, entries_per_s",
        ALL,
    ),
    layer(
        "replay.request_ns",
        "ns",
        "lower",
        "busy.p50_us, frame.p50_us",
        ALL,
    ),
    // cs2p-net::persist: zero on the two in-memory workloads.
    layer(
        "persist.encode_ns",
        "ns",
        "lower",
        "entries_per_s, frame.p99_us",
        BATCH,
    ),
    layer(
        "persist.crc_ns",
        "ns",
        "lower",
        "entries_per_s, frame.p99_us",
        BATCH,
    ),
    layer(
        "persist.append_ns",
        "ns",
        "lower",
        "entries_per_s, frame.p99_us",
        BATCH,
    ),
    layer(
        "persist.records",
        "count",
        "lower",
        "entries_per_s, recovery_ms",
        BATCH,
    ),
    layer(
        "persist.bytes",
        "B",
        "lower",
        "entries_per_s, recovery_ms",
        BATCH,
    ),
    layer(
        "persist.records_per_commit",
        "records",
        "higher",
        "entries_per_s, frame.p99_us",
        BATCH,
    ),
    layer("persist.recover_ms", "ms", "lower", "recovery_ms", BATCH),
    // cs2p-trace and cs2p-core training.
    layer("setup.generate_s", "s", "lower", "setup_s", ALL),
    layer("setup.train_s", "s", "lower", "setup_s", ALL),
    layer("setup.bind_s", "s", "lower", "setup_s", ALL),
    // The process, from /proc/self.
    layer(
        "proc.cpu_us_per_op",
        "us",
        "lower",
        "busy.p99_us, sessions_per_s, entries_per_s",
        ALL,
    ),
    layer("proc.cpu_util", "cores", "lower", "busy.p99_us", ALL),
    // Tracing itself.
    layer(
        "trace.overhead_pct",
        "%",
        "lower",
        "p50_us of the traced pass",
        ALL,
    ),
    layer(
        "trace.accounted_pct",
        "%",
        "higher",
        "wall time covered by layer busy times",
        PLAYER,
    ),
    // Each workload's own end-to-end figures, from the untraced pass of
    // the traced run; the gated end-to-end metrics are the steady subset.
    layer("e2e.error_rate", "ratio", "lower", "error_rate", ALL),
    layer(
        "e2e.sessions_per_s",
        "1/s",
        "higher",
        "sessions_per_s",
        PLAYER,
    ),
    layer("e2e.chunk.p50_us", "us", "lower", "chunk.p50_us", PLAYER),
    layer("e2e.chunk.p90_us", "us", "lower", "chunk.p90_us", PLAYER),
    layer("e2e.chunk.p99_us", "us", "lower", "chunk.p99_us", PLAYER),
    layer("e2e.qoe_mean", "qoe", "higher", "qoe_mean", PLAYER),
    layer(
        "e2e.requests_per_s",
        "1/s",
        "higher",
        "requests_per_s",
        PACED,
    ),
    layer("e2e.light.p50_us", "us", "lower", "light.p50_us", PACED),
    layer("e2e.light.p99_us", "us", "lower", "light.p99_us", PACED),
    layer("e2e.busy.p50_us", "us", "lower", "busy.p50_us", PACED),
    layer("e2e.busy.p90_us", "us", "lower", "busy.p90_us", PACED),
    layer("e2e.busy.p99_us", "us", "lower", "busy.p99_us", PACED),
    layer(
        "e2e.light.late_p50_us",
        "us",
        "lower",
        "generator lateness at light",
        PACED,
    ),
    layer(
        "e2e.light.late_p99_us",
        "us",
        "lower",
        "generator lateness at light",
        PACED,
    ),
    layer(
        "e2e.busy.late_p50_us",
        "us",
        "lower",
        "generator lateness at busy",
        PACED,
    ),
    layer(
        "e2e.busy.late_p99_us",
        "us",
        "lower",
        "generator lateness at busy",
        PACED,
    ),
    layer(
        "e2e.light.generator_behind",
        "flag",
        "lower",
        "light.* validity",
        PACED,
    ),
    layer(
        "e2e.busy.generator_behind",
        "flag",
        "lower",
        "busy.* validity",
        PACED,
    ),
    layer("e2e.entries_per_s", "1/s", "higher", "entries_per_s", BATCH),
    layer("e2e.frame.p50_us", "us", "lower", "frame.p50_us", BATCH),
    layer("e2e.frame.p90_us", "us", "lower", "frame.p90_us", BATCH),
    layer("e2e.frame.p99_us", "us", "lower", "frame.p99_us", BATCH),
    layer("e2e.recovery_ms", "ms", "lower", "recovery_ms", BATCH),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(json: &Value, key: &str) -> Vec<(String, String, String)> {
        let Some(Value::Array(items)) = json.get(key) else {
            panic!("{key} is a list");
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| match m.get(k) {
                    Some(Value::Str(s)) => s.clone(),
                    other => panic!("{key}.{k} is {other:?}"),
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let json = benchmark_json();
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        assert_eq!(listed(&json, "end_to_end"), e2e);
        let per_layer: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        assert_eq!(listed(&json, "per_layer"), per_layer);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a metric name is used twice");
        for name in names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
    }
}
