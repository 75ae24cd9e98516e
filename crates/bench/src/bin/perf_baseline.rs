//! Times the exploration hot path and records the numbers the perf
//! trajectory tracks, writing `BENCH_explore.json` at the repository root:
//!
//! * paper-sized explores of all five applications, cold cache versus warm
//!   cache (the engine's persist/replay path end to end), each the median
//!   of five repeats with a fresh store for every cold run,
//! * a full (paper-sized) DRR explore at `--jobs 1` versus `--jobs 4`,
//!   asserting the Pareto front is byte-identical across worker counts, and
//! * streamed single DRR simulations at 100k and 1M packets — the
//!   constant-memory scaling path (packets generated on the fly, never
//!   materialized), and
//! * pile-store open latency at 10k and 100k entries — the O(1)
//!   warm-open contract (opening reads segment headers, never records).
//!
//! Run with `cargo run -p ddtr_bench --bin perf_baseline --release`.

use ddtr_apps::{AppKind, AppParams};
use ddtr_core::{
    EngineConfig, ExploreEngine, Methodology, MethodologyConfig, MethodologyOutcome, Simulator,
    TraceSource,
};
use ddtr_ddt::DdtKind;
use ddtr_engine::timing::{time_secs, BenchReport};
use ddtr_engine::PileStore;
use ddtr_mem::MemoryConfig;
use ddtr_trace::{NetworkPreset, StreamSpec};
use std::path::Path;

/// Repeats per cold/warm explore pair; each reported time is their median.
const REPEATS: usize = 5;

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn explore(engine: &mut ExploreEngine, cfg: &MethodologyConfig) -> MethodologyOutcome {
    Methodology::new(cfg.clone())
        .run_with(engine)
        .expect("exploration runs")
}

/// Fills `dir` with `n` synthetic records shaped like real cache lines.
fn build_store(dir: &Path, n: usize) {
    let mut store = PileStore::open(dir).expect("store opens");
    let payload = vec![b'x'; 160];
    for i in 0..n {
        store
            .append(format!("bench-key-{i:06}").as_bytes(), &payload)
            .expect("append");
    }
    store.flush().expect("flush");
}

/// Seconds to open the store (headers only — no index, no records).
fn open_secs(dir: &Path) -> f64 {
    time_secs(|| drop(PileStore::open(dir).expect("open"))).1
}

fn main() {
    let mut report = BenchReport::new("explore wall-clock (engine)");
    report.set_meta("units", "seconds");
    report.set_meta(
        "notes",
        "cold/warm cache (medians of 5), worker scaling and streamed packet-count scaling",
    );
    if let Ok(out) = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
    {
        if out.status.success() {
            report.set_meta("git_rev", String::from_utf8_lossy(&out.stdout).trim());
        }
    }
    println!("# exploration timing baseline\n");

    // Cold versus warm persistent cache, paper-sized explores, all five
    // apps, on one worker so the ratio measures the work the store saves,
    // not the host's core count. A quick explore takes ~10 ms, too short to
    // time once: single quick samples put the warm speedup anywhere between
    // 3x and 8x.
    println!("## paper explores, cold vs warm cache (median of {REPEATS})\n");
    for app in AppKind::EXTENDED_ALL {
        let cfg = MethodologyConfig::paper(app);
        let (mut colds, mut warms) = (Vec::new(), Vec::new());
        for rep in 0..REPEATS {
            let dir =
                std::env::temp_dir().join(format!("ddtr-perf-{app}-{}-{rep}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let engine_cfg = EngineConfig {
                jobs: 1,
                cache_dir: Some(dir.clone()),
                no_cache: false,
            };
            let mut cold_engine = ExploreEngine::new(engine_cfg.clone()).expect("cold engine");
            colds.push(time_secs(|| explore(&mut cold_engine, &cfg)).1);
            // A fresh engine over the same directory exercises the on-disk
            // replay, not just the in-memory map.
            let mut warm_engine = ExploreEngine::new(engine_cfg).expect("warm engine");
            let (warm_outcome, warm) = time_secs(|| explore(&mut warm_engine, &cfg));
            assert_eq!(
                warm_outcome.engine.executed, 0,
                "warm explore must answer from the cache"
            );
            warms.push(warm);
            let _ = std::fs::remove_dir_all(&dir);
        }
        let (cold, warm) = (median(&mut colds), median(&mut warms));
        println!(
            "{app:10} cold {cold:8.3}s   warm {warm:8.3}s   speedup {:6.1}x",
            cold / warm
        );
        report.push(format!("{app} paper cold"), cold);
        report.push(format!("{app} paper warm"), warm);
    }

    // Worker scaling on a full paper-sized explore (no cache, so both
    // runs execute every simulation).
    println!("\n## full DRR explore, worker scaling\n");
    let cfg = MethodologyConfig::paper(AppKind::Drr);
    let mut fronts: Vec<String> = Vec::new();
    let mut seconds: Vec<f64> = Vec::new();
    for jobs in [1usize, 4] {
        let mut engine = ExploreEngine::with_jobs(jobs);
        let (outcome, secs) = time_secs(|| explore(&mut engine, &cfg));
        fronts.push(serde_json::to_string(&outcome.pareto.global_front).expect("front serialises"));
        seconds.push(secs);
        println!("jobs={jobs}   {secs:8.3}s");
        report.push(format!("drr paper jobs={jobs}"), secs);
    }
    assert_eq!(
        fronts[0], fronts[1],
        "Pareto front must be byte-identical at any worker count"
    );
    println!(
        "jobs=4 speedup over jobs=1: {:.2}x (byte-identical Pareto front)",
        seconds[0] / seconds[1]
    );

    // Streamed packet-count scaling: one DRR simulation per size, packets
    // generated on the fly — memory stays O(flows) at any length.
    println!("\n## streamed DRR simulation, packet-count scaling\n");
    let sim = Simulator::new(MemoryConfig::embedded_default());
    let params = AppParams::default();
    for packets in [100_000usize, 1_000_000] {
        let spec = StreamSpec::single(NetworkPreset::DartmouthDorm.spec(), packets)
            .expect("preset specs are valid");
        let source = TraceSource::Streamed(&spec);
        let ((log, _), secs) =
            time_secs(|| sim.run(AppKind::Drr, [DdtKind::Sll, DdtKind::Dll], &params, source));
        println!(
            "{packets:>9} packets   {secs:8.3}s   {:.0} pkts/s",
            packets as f64 / secs
        );
        assert!(log.report.accesses > 0);
        report.push(format!("drr streamed {packets} packets"), secs);
    }

    // Pile-store open latency: opening reads one header page per segment
    // and nothing else, so the time must stay flat as the store grows
    // 10x. Cold is the first open after the writer dropped; warm is the
    // best of five repeats.
    println!("\n## pile store open latency\n");
    for (n, tag) in [(10_000usize, "10k"), (100_000usize, "100k")] {
        let dir =
            std::env::temp_dir().join(format!("ddtr-perf-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (_, build) = time_secs(|| build_store(&dir, n));
        let cold = open_secs(&dir);
        let warm = (0..5)
            .map(|_| open_secs(&dir))
            .fold(f64::INFINITY, f64::min);
        println!(
            "{n:>7} entries   built {build:7.3}s   cold open {:8.1}us   warm open {:8.1}us",
            cold * 1e6,
            warm * 1e6
        );
        report.push(format!("store cold open {tag}"), cold);
        report.push(format!("store warm open {tag}"), warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_explore.json");
    let json = report.to_json().expect("report serialises");
    std::fs::write(&path, format!("{json}\n")).expect("BENCH_explore.json is writable");
    println!(
        "\nwrote {} ({} samples, host parallelism {})",
        path.display(),
        report.samples.len(),
        report.host_parallelism
    );
}
