//! Steal correction. On a small VM shared with other tenants the
//! hypervisor takes the CPU away for a share of the time the VM wants to
//! run (steal), and that share changes from minute to minute, so every
//! wall-clock timing of a run depends on it. A run measures the stolen
//! share of its timed phase and reports every timing as it would have
//! been without steal. See README.md, "Steal correction".

use crate::workloads::Metric;

/// Each CPU's ticks so far, from the `cpuN` lines of `/proc/stat`:
/// user, nice, system, idle, iowait, irq, softirq, steal.
fn cpu_ticks() -> Vec<[u64; 8]> {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .map(|l| {
            let mut ticks = [0; 8];
            for (t, f) in ticks.iter_mut().zip(l.split_whitespace().skip(1)) {
                *t = f.parse().unwrap_or(0);
            }
            ticks
        })
        .collect()
}

/// Each CPU's ticks at the start of a run.
pub struct Probe {
    ticks_before: Vec<[u64; 8]>,
}

impl Probe {
    pub fn start() -> Self {
        Self {
            ticks_before: cpu_ticks(),
        }
    }

    /// The share of the time the process ran or wanted to run since
    /// `start` that the hypervisor gave to someone else: each CPU's
    /// steal share of its own time, weighted by the work done on it
    /// (user, nice, system, irq, softirq), since an idle vCPU accrues
    /// steal too. 0 where `/proc/stat` is missing.
    pub fn stolen(&self) -> f64 {
        let (mut weighted, mut work) = (0.0, 0.0);
        for (after, before) in cpu_ticks().iter().zip(&self.ticks_before) {
            let d: Vec<f64> = after
                .iter()
                .zip(before)
                .map(|(a, b)| a.saturating_sub(*b) as f64)
                .collect();
            let total: f64 = d.iter().sum();
            let done = d[0] + d[1] + d[2] + d[5] + d[6];
            if total > 0.0 {
                weighted += done * d[7] / total;
                work += done;
            }
        }
        if work > 0.0 {
            weighted / work
        } else {
            0.0
        }
    }
}

/// Scale a run's metrics to no steal: times in seconds and milliseconds
/// are multiplied by `1 - stolen` and rates over summed time divided by
/// it. Times in microseconds are medians and tails of single browse
/// calls, far shorter than the slices in which steal arrives: steal hits
/// a few of them hard and leaves the rest, so it does not scale them and
/// they stay as measured, like sizes and counts.
pub fn remove_steal(metrics: &mut [Metric], stolen: f64) {
    let factor = 1.0 - stolen;
    for (_, value, unit) in metrics {
        match *unit {
            "s" | "ms" => *value *= factor,
            "docs/s" | "1/s" => *value /= factor,
            _ => {}
        }
    }
}
