//! A std-only `/proc/self` sampler: process CPU time and peak RSS.

use std::time::Instant;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. `USER_HZ`
/// is 100 on every Linux architecture this benchmark targets.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds of the whole process (all threads, live
/// and exited), from fields 14 and 15 of `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_cpu_ticks(&stat).map_or(0.0, |t| t as f64 / TICKS_PER_SECOND)
}

/// utime + stime in ticks. The command name (field 2) may contain spaces
/// and parentheses, so fields are counted from the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime is field 14.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU and wall time over one measured phase.
#[derive(Debug, Clone, Copy)]
pub struct CpuWindow {
    cpu_s: f64,
    wall: Instant,
}

/// What a [`CpuWindow`] measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuUse {
    pub cpu_s: f64,
    pub wall_s: f64,
}

impl CpuUse {
    /// CPU microseconds per operation.
    pub fn us_per_op(&self, ops: u64) -> f64 {
        if ops == 0 {
            0.0
        } else {
            self.cpu_s * 1e6 / ops as f64
        }
    }

    /// Busy cores on average: CPU seconds over wall seconds.
    pub fn util(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.cpu_s / self.wall_s
        } else {
            0.0
        }
    }
}

impl CpuWindow {
    pub fn start() -> Self {
        CpuWindow {
            cpu_s: cpu_seconds(),
            wall: Instant::now(),
        }
    }

    pub fn stop(self) -> CpuUse {
        CpuUse {
            cpu_s: cpu_seconds() - self.cpu_s,
            wall_s: self.wall.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_awkward_command_name() {
        let stat = "4242 (my (odd) cmd) S 1 4242 4242 0 -1 4194560 100 0 0 0 \
                    250 75 0 0 20 0 3 0 123 456 789";
        assert_eq!(parse_cpu_ticks(stat), Some(325));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tloopbench\nVmPeak:\t  9000 kB\nVmHWM:\t  2048 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        assert_eq!(parse_vm_hwm_kb("Name: x\n"), None);
    }

    #[test]
    fn live_process_reports_cpu_and_memory() {
        // Burn CPU until the 10 ms tick counter moves (bounded).
        let w = CpuWindow::start();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut x = 0u64;
        while cpu_seconds() <= w.cpu_s && std::time::Instant::now() < deadline {
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
        }
        let used = w.stop();
        assert!(used.cpu_s > 0.0, "{used:?}");
        assert!(used.util() > 0.0);
        assert!(used.us_per_op(10) > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
