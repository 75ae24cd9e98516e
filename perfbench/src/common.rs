//! What every workload shares: the run context, the metric sink and
//! small host probes.

use crate::digest::Golden;
use crate::stats::{beyond, tail_rank};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-up repetitions of `serve-mix`; `setup_s` is their median. (The
/// explore workloads set up once per plan rotation, also five times.)
pub const SETUP_REPS: usize = 5;

/// One benchmark run's settings.
#[derive(Debug)]
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measured window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Engine jobs and client connections: the host's parallelism.
    pub jobs: usize,
    /// Scratch directory inside the checkout, removed at the end.
    pub work: PathBuf,
    /// The golden digests.
    pub golden: Golden,
}

impl Ctx {
    /// The measured window as a duration.
    #[must_use]
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// The longest a measuring loop may run while it waits for its
    /// minimum sample count.
    #[must_use]
    pub fn hard_cap(&self) -> Duration {
        Duration::from_secs_f64((self.seconds * 2.5).max(self.seconds + 20.0))
    }

    /// A fresh (emptied) directory `name` under the scratch directory.
    ///
    /// # Panics
    ///
    /// When the directory cannot be created.
    #[must_use]
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        remove_dir(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        dir
    }
}

/// Removes a directory tree, ignoring a missing one.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Everything a workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (passes, requests, reference checks).
    pub attempted: u64,
    /// Operations that failed, were refused or gave a wrong answer.
    pub failed: u64,
    /// `(name, value, unit)` in reporting order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Digest over every result the run checked.
    pub digest: u64,
    /// Sample counts behind the metrics, by what was sampled.
    pub samples: Vec<(String, usize)>,
    /// Free-form facts for the result record (ranks, plan, ...).
    pub notes: Vec<(String, String)>,
}

impl Report {
    /// Records one metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records one operation and whether it passed its checks.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a sample count.
    pub fn samples(&mut self, what: &str, n: usize) {
        self.samples.push((what.to_string(), n));
    }

    /// Records a note.
    pub fn note(&mut self, key: &str, value: impl Into<String>) {
        self.notes.push((key.to_string(), value.into()));
    }

    /// Records the fixed tail rank, how many of `n` samples lie beyond
    /// it, and the highest rank `n` samples would admit.
    pub fn tail_notes(&mut self, n: usize, pct: u32) {
        self.note("tail_percentile", format!("p{pct}"));
        self.note("tail_samples_beyond", beyond(n, pct).to_string());
        let admissible = tail_rank(n, &[50, 75, 90, 95, 99]);
        self.note(
            "tail_max_admissible",
            admissible.map_or("none".to_string(), |p| format!("p{p}")),
        );
    }

    /// `failed / attempted`.
    #[must_use]
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Resets this process's resident-set high-water mark to its current
/// resident set (Linux 4.0 and later), so that [`peak_rss_mb`] then
/// covers the measured window rather than set-up. Returns whether the
/// kernel took the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process in MiB (`VmHWM`) since the last
/// [`reset_peak_rss`], or 0 when the platform does not expose it.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host counters sampled around a measured window: CPU seconds this
/// process used, and CPU time the hypervisor stole from the whole guest
/// (both from procfs at 100 ticks/s; zero where procfs is missing).
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSample {
    /// User + system CPU seconds of this process.
    pub cpu_s: f64,
    /// Stolen CPU seconds, all CPUs.
    pub steal_s: f64,
}

impl HostSample {
    /// The counters now.
    #[must_use]
    pub fn now() -> Self {
        let ticks = |s: Option<&str>| s.and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
        let cpu_s = std::fs::read_to_string("/proc/self/stat").map_or(0.0, |s| {
            // Fields after the parenthesised command name: utime is the
            // 12th, stime the 13th.
            let rest = s.rsplit_once(')').map_or("", |(_, r)| r);
            let f: Vec<&str> = rest.split_whitespace().collect();
            (ticks(f.get(11).copied()) + ticks(f.get(12).copied())) / 100.0
        });
        let steal_s = std::fs::read_to_string("/proc/stat").map_or(0.0, |s| {
            let cpu = s.lines().next().unwrap_or("");
            ticks(cpu.split_whitespace().nth(8)) / 100.0
        });
        HostSample { cpu_s, steal_s }
    }

    /// Records the counters' growth since `self` as run notes.
    pub fn note_since(self, report: &mut Report, wall_s: f64) {
        let now = Self::now();
        report.note("window_wall_s", format!("{wall_s:.3}"));
        report.note("window_cpu_s", format!("{:.2}", now.cpu_s - self.cpu_s));
        report.note(
            "window_steal_s",
            format!("{:.2}", now.steal_s - self.steal_s),
        );
    }
}

/// Seconds `f` took, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Repeats `f` until at least `min_total` has elapsed (and at least
/// once), returning seconds per call.
pub fn per_call(min_total: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || start.elapsed() < min_total {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() / calls as f64
}
