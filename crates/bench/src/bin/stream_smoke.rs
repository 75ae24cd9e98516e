//! Large-trace streaming smoke check: one streamed DRR simulation at an
//! argument-selected packet count, reporting wall time and peak resident
//! memory so CI can assert that memory stays independent of trace length.
//!
//! ```text
//! cargo run -p ddtr_bench --bin stream_smoke --release -- 1000000
//! ```
//!
//! Output is one machine-parseable line:
//!
//! ```text
//! stream_smoke packets=1000000 seconds=3.214 accesses=... peak_rss_kb=34816
//! ```
//!
//! `peak_rss_kb` is read from `/proc/self/status` (`VmHWM`); on platforms
//! without procfs it reports 0 and the CI comparison is skipped.

use ddtr_apps::{AppKind, AppParams};
use ddtr_core::{Simulator, TraceSource};
use ddtr_ddt::DdtKind;
use ddtr_mem::MemoryConfig;
use ddtr_trace::{NetworkPreset, StreamSpec};
use std::time::Instant;

/// Peak resident set size in kilobytes, if the platform exposes it.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

fn main() {
    let packets: usize = std::env::args()
        .nth(1)
        .map_or(Ok(1_000_000), |v| v.parse())
        .expect("packet count must be a number");
    let spec = StreamSpec::single(NetworkPreset::DartmouthDorm.spec(), packets)
        .expect("preset specs are valid");
    let sim = Simulator::new(MemoryConfig::embedded_default());
    let params = AppParams::default();
    let start = Instant::now();
    let source = TraceSource::Streamed(&spec);
    let (log, _) = sim.run(AppKind::Drr, [DdtKind::Sll, DdtKind::Dll], &params, source);
    let seconds = start.elapsed().as_secs_f64();
    assert!(log.report.accesses > 0, "simulation must do work");
    println!(
        "stream_smoke packets={packets} seconds={seconds:.3} accesses={} peak_rss_kb={}",
        log.report.accesses,
        peak_rss_kb()
    );
}
