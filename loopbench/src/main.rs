//! One seeded benchmark of the CS2P prediction loop.
//!
//! ```text
//! loopbench --workload <player_mpc|paced_viewers|batch_durable>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives a real `cs2p-net` server in this process, with an
//! engine trained on the `EvalConfig::small()` world of the seed. With
//! `--trace 0` the run sets up five times and measures, untraced, the
//! fixed work `--seconds` stands for (see `Budget::For`); the last stdout
//! line is a JSON object with every end-to-end metric. With `--trace 1`
//! it sets up once, measures untraced for half the time, runs a fixed
//! traced pass and replays the workload's own requests in process; the
//! JSON then carries every per-layer metric.
//! Every answer is checked against Algorithm 1 computed in process; any
//! failure is counted and makes the run exit non-zero.

mod batch;
mod metrics;
mod paced;
mod player;
mod probe;
mod procstat;
mod replay;
mod stats;
mod workload;
mod world;

use metrics::{END_TO_END, PER_LAYER};
use probe::WireProbe;
use stats::Tally;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;
use workload::{Budget, Layer, Layers, Pass, Workload};
use world::SetupTimes;

/// Set-ups per untraced run; `setup_s` is their median, which a burst of
/// host noise during one or two of them does not move. All but the first
/// run after the measured pass, so `peak_rss_mb` holds one world.
const SETUP_REPEATS: usize = 5;
const WORKLOADS: [&str; 3] = ["player_mpc", "paced_viewers", "batch_durable"];

struct Args {
    workload: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .position(|w| *w == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds {s} out of (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn start(workload: usize, seed: u64) -> (Box<dyn Workload>, SetupTimes) {
    match workload {
        0 => player::start(seed),
        1 => paced::start(seed),
        _ => batch::start(seed),
    }
}

/// The end-to-end metric values, in catalogue order, for a pass that just
/// ended: the peak RSS is read now, before anything else can raise it.
fn end_to_end(pass: &Pass, setup_s: f64, tally: &mut Tally) -> Vec<f64> {
    let p50 = pass.latency.windowed(50.0);
    tally.check(p50.is_some(), "the median latency is supported");
    vec![
        setup_s,
        procstat::peak_rss_mb(),
        p50.map_or(0.0, |(v, _)| v),
    ]
}

fn json_metrics(out: &mut String, metrics: &[(&str, f64, &str)]) {
    out.push('{');
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
}

fn print_figures(pass: &Pass) {
    for f in &pass.figures {
        let samples = if f.samples > 0 {
            format!("  (n={})", f.samples)
        } else {
            String::new()
        };
        println!("  {:<28} {:>14.3} {}{}", f.name, f.value, f.unit, samples);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: loopbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let name = WORKLOADS[args.workload];
    let seconds = Duration::from_secs_f64(args.seconds);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "loopbench {name} seed {} seconds {} trace {} ({cores} cores)",
        args.seed, args.seconds, args.trace as u8
    );
    let mut tally = Tally::default();
    let mut json = String::new();

    if !args.trace {
        let (mut w, first) = start(args.workload, args.seed);
        let pass = w.pass(Budget::For(seconds), None);
        tally.merge(pass.tally);
        let mut values = end_to_end(&pass, first.total_s, &mut tally);
        let mut setups = vec![first];
        setups.extend(w.set_up_again(args.seed, SETUP_REPEATS - 1));
        values[0] = SetupTimes::median(&setups).total_s;
        w.finish(&mut tally);
        print_figures(&pass);
        println!(
            "  error_rate {:.6} ({} failed of {} attempted)",
            tally.error_rate(),
            tally.failed,
            tally.attempted
        );
        println!("end-to-end metrics:");
        let mut metrics = Vec::new();
        for (m, v) in END_TO_END.iter().zip(&values) {
            println!(
                "  {:<12} {:>14.3} {:<4} = {} ({} is better)",
                m.name, v, m.unit, m.is[args.workload], m.better
            );
            metrics.push((m.name, *v, m.unit));
        }
        json_metrics(&mut json, &metrics);
    } else {
        let layers = traced_run(&args, seconds, &mut tally);
        let metrics: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name, layers.get(m.name).map_or(0.0, |l| l.value), m.unit))
            .collect();
        json_metrics(&mut json, &metrics);
    }

    let correct = tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {json}}}",
        tally.attempted.max(1),
        tally.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The traced run: an untraced pass for half the time, the fixed traced
/// pass, and the replay. Returns every per-layer metric it measured.
fn traced_run(args: &Args, seconds: Duration, tally: &mut Tally) -> Layers {
    let (mut w, setup) = start(args.workload, args.seed);
    let plain = w.pass(Budget::For(seconds / 2), None);
    let plain_e2e = end_to_end(&plain, setup.total_s, tally);
    let probe = WireProbe::capturing(w.replay_requests());
    let mut traced = w.pass(Budget::Traced, Some(&probe));
    let traced_e2e = end_to_end(&traced, setup.total_s, tally);
    tally.merge(plain.tally);
    tally.merge(traced.tally);

    let requests = std::mem::take(&mut probe.lock().captured);
    let wal_dir = w.durable().then(|| {
        std::env::current_dir()
            .expect("working directory")
            .join(".bench_tmp")
            .join(format!("replay-{}", std::process::id()))
    });
    let replayed = replay::run(w.engine(), &requests, wal_dir.as_deref());
    w.finish(tally);

    let mut layers = std::mem::take(&mut traced.layers);
    for (name, stage) in &replayed {
        layers.insert(
            name,
            Layer {
                value: stage.mean_ns,
                count: stage.calls,
                busy_us: stage.busy_ns / 1e3,
            },
        );
    }
    let request_us = replayed
        .iter()
        .find(|(n, _)| *n == "replay.request_ns")
        .map_or(0.0, |(_, s)| s.mean_ns / 1e3);
    let rtt_p50 = layers
        .get("client.predict.rtt.light_p50_us")
        .or(layers.get("client.predict.rtt.p50_us"))
        .map_or(0.0, |l| l.value);
    layers.insert("server.wait_us.p50", Layer::value(rtt_p50 - request_us));
    for (name, v) in [
        ("setup.generate_s", setup.generate_s),
        ("setup.train_s", setup.train_s),
        ("setup.bind_s", setup.bind_s),
        ("proc.cpu_us_per_op", plain.cpu.us_per_op(plain.ops)),
        ("proc.cpu_util", plain.cpu.util()),
        ("e2e.error_rate", tally.error_rate()),
    ] {
        layers.insert(name, Layer::value(v));
    }
    let e2e_names: BTreeMap<&str, &str> = PER_LAYER
        .iter()
        .filter_map(|m| m.name.strip_prefix("e2e.").map(|short| (short, m.name)))
        .collect();
    for f in &plain.figures {
        if let Some(name) = e2e_names.get(f.name) {
            layers.insert(
                name,
                Layer {
                    value: f.value,
                    count: f.samples as u64,
                    busy_us: 0.0,
                },
            );
        }
    }
    let p50 = END_TO_END
        .iter()
        .position(|m| m.name == "p50_us")
        .expect("p50_us");
    layers.insert(
        "trace.overhead_pct",
        Layer::value(100.0 * (traced_e2e[p50] / plain_e2e[p50] - 1.0)),
    );

    println!("untraced pass:");
    print_figures(&plain);
    println!("traced pass against the untraced one (trace.overhead_pct is p50_us):");
    for f in &plain.figures {
        if let Some(t) = traced.figures.iter().find(|t| t.name == f.name) {
            println!(
                "  {:<28} untraced {:>12.3} traced {:>12.3} {:<4} {:+.1}%",
                f.name,
                f.value,
                t.value,
                f.unit,
                100.0 * (t.value / f.value - 1.0)
            );
        }
    }
    println!("per-layer metrics ({}):", WORKLOADS[args.workload]);
    println!(
        "  {:<34} {:>12} {:<6} {:<6} {:>9} {:>12} {:>11}  moves (on)",
        "metric", "value", "unit", "better", "count", "busy_us", "mean_us"
    );
    for m in PER_LAYER {
        let l = layers.get(m.name).copied().unwrap_or_default();
        let mean = if l.count > 0 {
            l.busy_us / l.count as f64
        } else {
            0.0
        };
        println!(
            "  {:<34} {:>12.3} {:<6} {:<6} {:>9} {:>12.1} {:>11.3}  {} ({})",
            m.name, l.value, m.unit, m.better, l.count, l.busy_us, mean, m.moves, m.workloads
        );
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, untraced and traced, on a short run: no failed
    /// operation or check, and the layers each should measure are there.
    #[test]
    fn smoke_all_workloads() {
        let seconds = Duration::from_secs(2);
        for (workload, name) in WORKLOADS.iter().enumerate() {
            let mut tally = Tally::default();
            let (mut w, setup) = start(workload, 1);
            let pass = w.pass(Budget::For(seconds), None);
            tally.merge(pass.tally);
            let e2e = end_to_end(&pass, setup.total_s, &mut tally);
            assert_eq!(w.set_up_again(1, 1).len(), 1, "{name}");
            w.finish(&mut tally);
            assert_eq!(tally.failed, 0, "{name}: {tally:?}");
            assert!(tally.attempted > 0, "{name}");
            assert_eq!(e2e.len(), END_TO_END.len());
            assert!(e2e.iter().all(|v| *v > 0.0), "{name}: {e2e:?}");

            // Half of a traced run is untraced; 4 s leaves paced_viewers
            // the 1,000 light-rate samples its p99 needs.
            let mut tally = Tally::default();
            let args = Args {
                workload,
                seed: 1,
                seconds: 4.0,
                trace: true,
            };
            let layers = traced_run(&args, Duration::from_secs(4), &mut tally);
            assert_eq!(tally.failed, 0, "{name} traced: {tally:?}");
            for always in [
                "client.predict.calls",
                "server.predictions_served",
                "http.parse_ns",
            ] {
                assert!(layers[always].value > 0.0, "{name}: {always}");
            }
            let durable = layers.get("persist.records").map_or(0.0, |l| l.value);
            assert_eq!(durable > 0.0, *name == "batch_durable", "{name}");
            let mpc = layers.get("abr.mpc.select.calls").map_or(0.0, |l| l.value);
            assert_eq!(mpc > 0.0, *name == "player_mpc", "{name}");
        }
    }
}
