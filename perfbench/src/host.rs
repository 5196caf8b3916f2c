//! Host diagnostics read from `/proc`, so a noisy run can explain
//! itself: CPU time of this process's threads, hypervisor steal, peak
//! resident memory and the CPU count.

use std::fs;

/// CPU seconds all live threads of this process have run, from
/// `/proc/self/task/*/schedstat` (first field, nanoseconds on CPU).
pub fn cpu_s() -> f64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let ns: u64 = tasks
        .filter_map(Result::ok)
        .filter_map(|t| fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    ns as f64 / 1e9
}

/// Machine-wide steal time in milliseconds since boot: the eighth value
/// of the `cpu` line of `/proc/stat`, in clock ticks of 10 ms.
pub fn steal_ms() -> f64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8)?.parse::<u64>().ok())
        .map_or(0.0, |ticks| ticks as f64 * 10.0)
}

/// Peak resident set size so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU and steal counters at one instant; the difference of two gives
/// a phase's figures.
#[derive(Debug, Clone, Copy)]
pub struct HostSnapshot {
    cpu_s: f64,
    steal_ms: f64,
}

impl HostSnapshot {
    /// Reads the counters now.
    pub fn now() -> Self {
        Self {
            cpu_s: cpu_s(),
            steal_ms: steal_ms(),
        }
    }

    /// `(cpu_s, steal_ms)` accrued since `self`.
    pub fn since(&self) -> (f64, f64) {
        let now = Self::now();
        (now.cpu_s - self.cpu_s, now.steal_ms - self.steal_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Other test threads come and go, so the process-wide totals are
    // checked for being read, not for growing.
    #[test]
    fn counters_are_readable() {
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_s() > 0.0);
        assert!(steal_ms() >= 0.0);
        let (cpu, steal) = HostSnapshot::now().since();
        assert!(cpu.is_finite() && steal.is_finite());
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
