//! The traced run's per-layer metrics: a ladder of microprobes over each
//! crate's public calls, sized from the workload's own traces and
//! platforms, plus what the workload's spans and the in-program counters
//! say about the layers it drove.
//!
//! | rung | layer  | public call timed                                   |
//! |------|--------|-----------------------------------------------------|
//! | L0   | trace  | `NetworkPreset::generate`                           |
//! | L1   | mem    | `Cache::access_line`, hit- and miss-heavy streams   |
//! | L2   | mem    | `MemorySystem::read` / `write`                      |
//! | L3   | mem    | `SimAllocator::alloc` / `free` per `FitPolicy`      |
//! | L4   | ddt    | insert/get/remove mix through `Ddt`, per `DdtKind`  |
//! | L5   | apps   | `AppKind::instantiate`, `NetworkApp::process`       |
//! | L6   | engine | `ExploreEngine::evaluate_batch`, `PileStore`        |
//! | L7   | core   | the four step calls of `Methodology::run_with`      |
//! | L8   | serve  | client connect, `Ping`, `Run`, one `Metrics` request|
//! | L9   | pareto | `pareto_front_indices` over step 3's groups          |

use crate::common::{per_call, timed, Ctx, Report};
use crate::plan::{app_slug, Rng, ServeItem};
use crate::serve_mix::{prometheus_value, ServerHandle};
use crate::spans::{self, SpanRec};
use crate::stats::{median, percentile};
use ddtr_apps::AppKind;
use ddtr_core::{
    combos_from, ConfigKey, ExploreEngine, MemoryPreset, MethodologyConfig, MethodologyOutcome,
    SimUnit,
};
use ddtr_ddt::{DdtKind, TestRecord};
use ddtr_engine::{fingerprint_trace, PileStore};
use ddtr_mem::{Cache, FitPolicy, MemorySystem, SimAllocator, VirtAddr};
use ddtr_pareto::pareto_front_indices;
use ddtr_serve::{Event, JobSpec, Request, RequestBody};
use ddtr_trace::NetworkPreset;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A cold pass to attribute with the ladder: its wall time, the jobs it
/// ran on and the simulations each application executed.
#[derive(Debug, Clone)]
pub struct ColdPass {
    /// Wall seconds of the pass.
    pub wall_s: f64,
    /// Engine jobs of the pass.
    pub jobs: usize,
    /// Simulations executed per application.
    pub executed: Vec<(AppKind, usize)>,
}

/// What a workload hands the ladder.
#[derive(Debug)]
pub struct LayerInputs {
    /// The workload's applications with their platforms and configs.
    pub apps: Vec<(AppKind, MemoryPreset, MethodologyConfig)>,
    /// Spans of the workload's traced units.
    pub workload_spans: Vec<SpanRec>,
    /// Store/cache hits over all results the workload obtained.
    pub cache_hit_ratio: f64,
    /// The workload's result store, when it has one.
    pub store_dir: Option<PathBuf>,
    /// A cold pass over the workload's configurations.
    pub cold_pass: Option<ColdPass>,
    /// Per application, the objectives of its step-2 logs grouped by
    /// network configuration ([`step2_groups`]).
    pub step2_groups: Vec<Vec<Vec<[f64; 4]>>>,
    /// Traced versus untraced unit time, percent.
    pub overhead_pct: f64,
    /// `serve.*` metrics the workload measured itself (`serve-mix`);
    /// other workloads get them from a short serve probe.
    pub serve: Option<Vec<(String, f64, &'static str)>>,
}

/// For each layer: the end-to-end metric a change to it should move, the
/// workload it should move on, and the workloads where it should not.
pub const LAYER_MAP: [(&str, &str, &str, &str); 9] = [
    ("trace", "p50_ms", "explore-warm", "explore-cold"),
    (
        "mem",
        "results_per_s, p50_ms",
        "explore-cold",
        "explore-warm",
    ),
    ("ddt", "results_per_s", "explore-cold", "explore-warm"),
    ("apps", "results_per_s", "explore-cold", "explore-warm"),
    (
        "engine",
        "results_per_s; results_per_s; tail_ms",
        "explore-cold; explore-warm; serve-mix",
        "-",
    ),
    ("core", "p50_ms", "explore-cold, explore-warm", "-"),
    ("pareto", "p50_ms", "explore-warm", "explore-cold"),
    (
        "serve",
        "tail_ms, ops_per_s",
        "serve-mix",
        "explore-cold, explore-warm",
    ),
    ("obs", "-", "all", "-"),
];

/// Layers reported with a self time.
pub const SELF_TIME_LAYERS: [&str; 9] = [
    "bench", "core", "pareto", "engine", "serve", "trace", "mem", "ddt", "apps",
];

/// Metric-name spelling of a DDT kind.
#[must_use]
pub fn ddt_slug(kind: DdtKind) -> &'static str {
    match kind {
        DdtKind::Array => "array",
        DdtKind::ArrayPtr => "array-ptr",
        DdtKind::Sll => "sll",
        DdtKind::Dll => "dll",
        DdtKind::SllRov => "sll-rov",
        DdtKind::DllRov => "dll-rov",
        DdtKind::SllChunk => "sll-chunk",
        DdtKind::DllChunk => "dll-chunk",
        DdtKind::SllChunkRov => "sll-chunk-rov",
        DdtKind::DllChunkRov => "dll-chunk-rov",
        DdtKind::Hash => "hash",
        DdtKind::Avl => "avl",
    }
}

fn policy_slug(policy: FitPolicy) -> &'static str {
    match policy {
        FitPolicy::FirstFit => "first-fit",
        FitPolicy::BestFit => "best-fit",
        FitPolicy::NextFit => "next-fit",
    }
}

const POLICIES: [FitPolicy; 3] = [FitPolicy::FirstFit, FitPolicy::BestFit, FitPolicy::NextFit];

/// Every per-layer metric name, in reporting order.
#[must_use]
pub fn names() -> Vec<String> {
    let mut n: Vec<String> = vec!["trace.gen_ns_per_pkt".into()];
    for m in ["l1_hit_ns", "l1_miss_ns", "read_ns", "write_ns"] {
        n.push(format!("mem.{m}"));
    }
    for op in ["alloc_ns", "free_ns"] {
        for p in POLICIES {
            n.push(format!("mem.{op}.{}", policy_slug(p)));
        }
    }
    for m in [
        "l1_hit_ratio",
        "l2_hit_ratio",
        "dram_lines_per_pkt",
        "allocs_per_pkt",
    ] {
        n.push(format!("mem.{m}"));
    }
    for k in DdtKind::EXTENDED {
        n.push(format!("ddt.{}.op_ns", ddt_slug(k)));
    }
    for app in AppKind::EXTENDED_ALL {
        for m in [
            "build_ns",
            "ns_per_pkt",
            "accesses_per_pkt",
            "ns_per_access",
        ] {
            n.push(format!("apps.{}.{m}", app_slug(app)));
        }
    }
    for m in [
        "sims_per_s.jobs1",
        "sims_per_s.jobsN",
        "jobs_speedup",
        "host_ns_per_access",
        "cache_hit_ratio",
        "key_ns_per_pkt",
        "store.open_us",
        "store.get_us",
        "store.append_us",
        "store.segments",
        "store.bytes",
        "jobs_pool.wait_p50_us",
        "jobs_pool.wait_p99_us",
    ] {
        n.push(format!("engine.{m}"));
    }
    for m in ["profile_s", "step1_s", "step2_s", "step3_s"] {
        n.push(format!("core.{m}"));
    }
    n.push("pareto.front_us".into());
    n.extend(SERVE_NAMES.iter().map(|s| (*s).to_string()));
    n.push("obs.trace_overhead_pct".into());
    n.push("ladder.apps_access_over_mem_read".into());
    n.push("ladder.cold_share_pct".into());
    for l in SELF_TIME_LAYERS {
        n.push(format!("selftime.{l}_ms"));
    }
    n.push("failed_ratio".into());
    n
}

/// The `serve.*` metric names, in reporting order.
pub const SERVE_NAMES: [&str; 11] = [
    "serve.connect_us",
    "serve.ping_p50_us",
    "serve.ping_p99_us",
    "serve.run_cold_ms",
    "serve.run_warm_ms",
    "serve.run_p99_ms",
    "serve.request.queue_wait_p50_us",
    "serve.request.queue_wait_p99_us",
    "serve.request.latency_p50_us",
    "serve.request.latency_p99_us",
    "serve.reject_total",
];

/// Time budget of one timed microprobe loop.
const PROBE: Duration = Duration::from_millis(20);

/// L5 result for one application.
#[derive(Debug, Default, Clone)]
struct AppRow {
    build_ns: f64,
    ns_per_pkt: f64,
    accesses_per_pkt: f64,
    pkts: u64,
    l1_hits: u64,
    l1_accesses: u64,
    l2_hits: u64,
    l2_accesses: u64,
    dram_lines: u64,
    allocs: u64,
    live_blocks: usize,
    footprint: u64,
}

/// L5: builds and replays `app` on `platform` over its reference trace
/// with a seeded sample of step-1 combinations.
fn app_probe(ctx: &Ctx, app: AppKind, platform: MemoryPreset, cfg: &MethodologyConfig) -> AppRow {
    let _s = spans::enter("apps.probe");
    let trace = cfg.reference_network.generate(cfg.packets_per_sim);
    let params = &cfg.param_variants[0];
    let all = combos_from(&cfg.candidates);
    let mut rng = Rng::new(ctx.seed, 300 + app as u64);
    let combos: Vec<_> = (0..8).map(|_| all[rng.below(all.len())]).collect();
    let mut builds = Vec::new();
    let mut per_pkt = Vec::new();
    let mut row = AppRow::default();
    for rep in 0..3 {
        let (mut build_s, mut proc_s) = (0.0, 0.0);
        let mut last = AppRow::default();
        for &combo in &combos {
            let mut mem = MemorySystem::new(platform.config());
            let (mut inst, b) = timed(|| app.instantiate(combo, params, &mut mem));
            build_s += b;
            mem.reset_stats();
            let start = Instant::now();
            for pkt in trace.iter() {
                inst.process(pkt, &mut mem);
            }
            proc_s += start.elapsed().as_secs_f64();
            let l1 = mem.cache_stats();
            last.pkts += trace.len() as u64;
            last.l1_accesses += l1.accesses();
            last.l1_hits += l1.read_hits + l1.write_hits;
            last.accesses_per_pkt += mem.stats().accesses() as f64;
            last.allocs += mem.stats().allocs;
            last.dram_lines += match mem.l2_stats() {
                Some(l2) => {
                    last.l2_accesses += l2.accesses();
                    last.l2_hits += l2.read_hits + l2.write_hits;
                    l2.read_misses + l2.write_misses + l2.writebacks
                }
                None => l1.read_misses + l1.write_misses + l1.writebacks,
            };
            last.live_blocks = last.live_blocks.max(mem.allocator().live_blocks());
            last.footprint = last.footprint.max(mem.alloc_stats().peak_gross_bytes);
        }
        builds.push(build_s * 1e9 / combos.len() as f64);
        per_pkt.push(proc_s * 1e9 / last.pkts as f64);
        if rep == 0 {
            last.accesses_per_pkt /= last.pkts as f64;
            row = last;
        }
    }
    row.build_ns = median(&builds);
    row.ns_per_pkt = median(&per_pkt);
    row
}

/// L0 (and the engine's trace fingerprint): ns per packet generated and
/// fingerprinted, over the workload's networks.
fn trace_probe(networks: &[(NetworkPreset, usize)]) -> (f64, f64) {
    let _s = spans::enter("trace.generate");
    let (mut gen_ns, mut key_ns, mut pkts) = (0.0, 0.0, 0.0);
    for &(preset, n) in networks {
        gen_ns += per_call(PROBE, || {
            black_box(preset.generate(n));
        }) * 1e9;
        let trace = preset.generate(n);
        key_ns += per_call(PROBE, || {
            black_box(fingerprint_trace(&trace));
        }) * 1e9;
        pkts += n as f64;
    }
    (gen_ns / pkts, key_ns / pkts)
}

/// L1: ns per `Cache::access_line` on hit-heavy and miss-heavy streams
/// over each platform's L1 geometry.
fn cache_probe(platforms: &[MemoryPreset]) -> (f64, f64) {
    let _s = spans::enter("mem.cache");
    const N: u64 = 1 << 18;
    let (mut hit, mut miss) = (Vec::new(), Vec::new());
    for p in platforms {
        let cfg = p.config().l1;
        let line = cfg.line_bytes;
        let ws = (cfg.capacity_bytes / 2 / line).max(1);
        let mut cache = Cache::new(cfg);
        let base = 0x10_0000u64;
        for i in 0..ws {
            cache.access_line(VirtAddr::new(base + i * line), false);
        }
        let start = Instant::now();
        for i in 0..N {
            black_box(cache.access_line(VirtAddr::new(base + (i % ws) * line), i % 4 == 0));
        }
        hit.push(start.elapsed().as_nanos() as f64 / N as f64);
        let span = cfg.capacity_bytes / line * 64;
        let start = Instant::now();
        for i in 0..N {
            black_box(cache.access_line(VirtAddr::new(base + (i % span) * line), false));
        }
        miss.push(start.elapsed().as_nanos() as f64 / N as f64);
    }
    (median(&hit), median(&miss))
}

/// L2: ns per `MemorySystem::read(8)` / `write(8)` over a working set as
/// large as the workload's simulated heap footprint.
fn system_probe(ctx: &Ctx, platforms: &[MemoryPreset], footprint: u64) -> (f64, f64) {
    let _s = spans::enter("mem.system");
    const N: usize = 1 << 18;
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for p in platforms {
        let mut mem = MemorySystem::new(p.config());
        let mut addrs = Vec::new();
        let blocks = (footprint / 64).clamp(16, 8192);
        for _ in 0..blocks {
            if let Ok(a) = mem.alloc(64) {
                addrs.extend((0..8).map(|w| a.offset(w * 8)));
            }
        }
        Rng::new(ctx.seed, 400).shuffle(&mut addrs);
        let start = Instant::now();
        for i in 0..N {
            black_box(mem.read(addrs[i % addrs.len()], 8));
        }
        reads.push(start.elapsed().as_nanos() as f64 / N as f64);
        let start = Instant::now();
        for i in 0..N {
            black_box(mem.write(addrs[i % addrs.len()], 8));
        }
        writes.push(start.elapsed().as_nanos() as f64 / N as f64);
    }
    (median(&reads), median(&writes))
}

/// L3: ns per `SimAllocator::alloc` and `free` at `live` live blocks, per
/// fit policy, in a steady free-one/alloc-one churn.
fn alloc_probe(ctx: &Ctx, live: usize) -> Vec<(FitPolicy, f64, f64)> {
    let _s = spans::enter("mem.alloc");
    const CHUNK: usize = 64;
    POLICIES
        .iter()
        .map(|&policy| {
            let mut rng = Rng::new(ctx.seed, 500);
            let mut heap = SimAllocator::with_policy(0x10_0000, 64 << 20, policy);
            let size = |rng: &mut Rng| 16 + rng.below(241) as u64;
            let mut blocks: Vec<VirtAddr> = (0..live)
                .filter_map(|_| heap.alloc(size(&mut rng)).ok())
                .collect();
            let (mut alloc_ns, mut free_ns, mut ops) = (0.0, 0.0, 0usize);
            let start = Instant::now();
            while start.elapsed() < PROBE * 5 || ops == 0 {
                rng.shuffle(&mut blocks);
                let victims = blocks.split_off(blocks.len().saturating_sub(CHUNK));
                let sizes: Vec<u64> = victims.iter().map(|_| size(&mut rng)).collect();
                let t = Instant::now();
                for &v in &victims {
                    black_box(heap.free(v).ok());
                }
                free_ns += t.elapsed().as_nanos() as f64;
                let t = Instant::now();
                for &s in &sizes {
                    if let Ok(a) = heap.alloc(s) {
                        blocks.push(a);
                    }
                }
                alloc_ns += t.elapsed().as_nanos() as f64;
                ops += victims.len();
            }
            (policy, alloc_ns / ops as f64, free_ns / ops as f64)
        })
        .collect()
}

/// L4: ns per operation of an insert/get/remove mix through the `Ddt`
/// trait, per kind, at `n` records.
fn ddt_probe(ctx: &Ctx, platform: MemoryPreset, n: usize) -> Vec<(DdtKind, f64)> {
    let _s = spans::enter("ddt.ops");
    const OPS: usize = 3000;
    DdtKind::EXTENDED
        .iter()
        .map(|&kind| {
            let mut samples = Vec::new();
            for rep in 0..3 {
                let mut rng = Rng::new(ctx.seed, 600 + rep);
                let mut mem = MemorySystem::new(platform.config());
                let mut ddt = kind.instantiate::<TestRecord<32>>(&mut mem);
                let mut keys: Vec<u64> = (0..n as u64).collect();
                for &k in &keys {
                    ddt.insert(TestRecord { id: k, tag: k }, &mut mem);
                }
                let mut next = n as u64;
                let ops: Vec<(u8, u64)> = (0..OPS)
                    .map(|_| {
                        // Never drain the container: an empty one has
                        // nothing to get or remove.
                        let op = if keys.len() < 2 {
                            0
                        } else {
                            rng.below(3) as u8
                        };
                        let key = match op {
                            0 => {
                                next += 1;
                                keys.push(next);
                                next
                            }
                            1 => keys[rng.below(keys.len())],
                            _ => keys.swap_remove(rng.below(keys.len())),
                        };
                        (op, key)
                    })
                    .collect();
                let start = Instant::now();
                for &(op, key) in &ops {
                    match op {
                        0 => ddt.insert(TestRecord { id: key, tag: key }, &mut mem),
                        1 => {
                            black_box(ddt.get(key, &mut mem));
                        }
                        _ => {
                            black_box(ddt.remove(key, &mut mem));
                        }
                    }
                }
                samples.push(start.elapsed().as_nanos() as f64 / OPS as f64);
            }
            (kind, median(&samples))
        })
        .collect()
}

/// L6: simulations per second of `evaluate_batch` over a step-1 unit set
/// at one job and at `jobs`, plus host ns per simulated access at one job.
fn engine_probe(
    jobs: usize,
    app: AppKind,
    platform: MemoryPreset,
    cfg: &MethodologyConfig,
) -> (f64, f64, f64) {
    let _s = spans::enter("engine.batch");
    let trace = cfg.reference_network.generate(cfg.packets_per_sim);
    let fp = fingerprint_trace(&trace);
    let params = &cfg.param_variants[0];
    let units: Vec<SimUnit> = combos_from(&cfg.candidates)
        .into_iter()
        .map(|c| SimUnit::with_fingerprint(app, c, params, &trace, fp, platform.config()))
        .collect();
    let rate = |j: usize| {
        let mut secs = Vec::new();
        let mut accesses = 0;
        for _ in 0..3 {
            let mut engine = ExploreEngine::with_jobs(j);
            let (logs, s) = timed(|| engine.evaluate_batch(&units));
            accesses = logs.iter().map(|l| l.report.accesses).sum::<u64>();
            secs.push(s);
        }
        (median(&secs), accesses)
    };
    let (s1, accesses) = rate(1);
    let (sn, _) = rate(jobs);
    let n = units.len() as f64;
    (n / s1, n / sn, s1 * 1e9 / accesses.max(1) as f64)
}

/// Store probe: `PileStore` open, get and append latency over the
/// workload's store, and its size.
fn store_probe(ctx: &Ctx, dir: Option<&PathBuf>) -> [f64; 5] {
    let _s = spans::enter("engine.store");
    let Some(dir) = dir else {
        return [0.0; 5];
    };
    let opens: Vec<f64> = (0..5)
        .map(|_| timed(|| drop(PileStore::open(dir))).1 * 1e6)
        .collect();
    let Ok(mut store) = PileStore::open(dir) else {
        return [0.0; 5];
    };
    let mut records: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let _ = store.for_each_latest(|k, v| {
        if records.len() < 256 {
            records.push((k.to_vec(), v.to_vec()));
        }
    });
    let get_us = if records.is_empty() {
        0.0
    } else {
        let (_, s) = timed(|| {
            for (k, _) in &records {
                black_box(store.get(k).ok());
            }
        });
        s * 1e6 / records.len() as f64
    };
    let stats = store.stats().ok();
    let append_dir = ctx.fresh_dir("append-probe");
    let append_us = PileStore::open(&append_dir).map_or(0.0, |mut fresh| {
        let (_, s) = timed(|| {
            for (k, v) in &records {
                let _ = fresh.append(k, v);
            }
            let _ = fresh.flush();
        });
        s * 1e6 / records.len().max(1) as f64
    });
    [
        median(&opens),
        get_us,
        append_us,
        stats.as_ref().map_or(0.0, |s| s.segments as f64),
        stats.as_ref().map_or(0.0, |s| s.bytes as f64),
    ]
}

/// The objectives of `outcome`'s step-2 logs, grouped by network
/// configuration as step 3 (`explore_pareto_level`) groups them.
#[must_use]
pub fn step2_groups(outcome: &MethodologyOutcome) -> Vec<Vec<[f64; 4]>> {
    let mut grouped: BTreeMap<ConfigKey, Vec<[f64; 4]>> = BTreeMap::new();
    for log in &outcome.step2.logs {
        grouped
            .entry(log.config_key())
            .or_default()
            .push(log.objectives());
    }
    grouped.into_values().collect()
}

/// L9: µs per application for the per-configuration fronts step 3
/// computes, median over the workload's applications.
fn pareto_probe(apps: &[Vec<Vec<[f64; 4]>>]) -> f64 {
    let _s = spans::enter("pareto.front");
    let per_app: Vec<f64> = apps
        .iter()
        .map(|groups| {
            per_call(PROBE, || {
                for points in groups {
                    black_box(pareto_front_indices(points));
                }
            }) * 1e6
        })
        .collect();
    median(&per_app)
}

/// L8 for workloads that do not go through serve: connect, ping and run
/// latency against an in-process server, and its own counters.
fn serve_probe(ctx: &Ctx, item: ServeItem) -> Vec<(String, f64, &'static str)> {
    let _s = spans::enter("serve.probe");
    let server = ServerHandle::start(ctx, "probe");
    let mut client = server.connect();
    let connects: Vec<f64> = (0..20)
        .map(|_| timed(|| drop(server.connect())).1 * 1e6)
        .collect();
    let pings: Vec<f64> = (0..300)
        .map(|i| {
            timed(|| {
                client
                    .call(&Request::new(format!("p{i}"), RequestBody::Ping), |_| {})
                    .ok()
            })
            .1 * 1e6
        })
        .collect();
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    for i in 0..21 {
        let req = Request::run(format!("r{i}"), JobSpec::inline(item.request()));
        let (reply, s) = timed(|| client.call(&req, |_| {}));
        if let Ok(Event::Result { executed, .. }) = reply {
            if executed > 0 {
                cold.push(s * 1e3);
            } else {
                warm.push(s * 1e3);
            }
        }
    }
    drop(client);
    let text = server.metrics();
    server.stop();
    serve_metrics(&connects, &pings, &cold, &warm, &text)
}

/// The `serve.*` rows from client-side samples and one `Metrics` text.
#[must_use]
pub fn serve_metrics(
    connect_us: &[f64],
    ping_us: &[f64],
    cold_ms: &[f64],
    warm_ms: &[f64],
    prometheus: &str,
) -> Vec<(String, f64, &'static str)> {
    let q = |family: &str, quantile: &str| {
        prometheus_value(
            prometheus,
            &format!("ddtr_{family}_seconds{{quantile=\"{quantile}\"}}"),
        )
        .unwrap_or(0.0)
            * 1e6
    };
    let rejects: f64 = prometheus
        .lines()
        .filter(|l| l.starts_with("ddtr_serve_reject_"))
        .filter_map(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        .fold(0.0, |a, b| a + b);
    let v = [
        median(connect_us),
        median(ping_us),
        percentile(ping_us, 99).unwrap_or(0.0),
        median(cold_ms),
        median(warm_ms),
        percentile(&[cold_ms, warm_ms].concat(), 99).unwrap_or(0.0),
        q("serve_request_queue_wait", "0.5"),
        q("serve_request_queue_wait", "0.99"),
        q("serve_request_latency", "0.5"),
        q("serve_request_latency", "0.99"),
        rejects,
    ];
    let units = [
        "us", "us", "us", "ms", "ms", "ms", "us", "us", "us", "us", "count",
    ];
    SERVE_NAMES
        .iter()
        .zip(v)
        .zip(units)
        .map(|((n, v), u)| ((*n).to_string(), v, u))
        .collect()
}

/// Median over requests of the summed duration of spans named `name`.
fn per_request_s(spans: &[SpanRec], name: &str) -> f64 {
    let mut by_req: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *by_req.entry(s.req).or_default() += s.end_ns - s.start_ns;
    }
    let v: Vec<f64> = by_req.values().map(|&ns| ns as f64 / 1e9).collect();
    median(&v)
}

/// Runs the ladder and reports every per-layer metric, in [`names`]
/// order.
pub fn per_layer(ctx: &Ctx, inputs: LayerInputs, report: &mut Report) {
    spans::enable(true);
    let mut platforms: Vec<MemoryPreset> = inputs.apps.iter().map(|a| a.1).collect();
    platforms.sort();
    platforms.dedup();
    let mut networks: Vec<(NetworkPreset, usize)> = Vec::new();
    for (_, _, cfg) in &inputs.apps {
        for &n in cfg.networks.iter().chain([&cfg.reference_network]) {
            if !networks.iter().any(|&(p, _)| p == n) {
                networks.push((n, cfg.packets_per_sim));
            }
        }
    }

    let rows: BTreeMap<AppKind, AppRow> = inputs
        .apps
        .iter()
        .map(|(app, mem, cfg)| (*app, app_probe(ctx, *app, *mem, cfg)))
        .collect();
    let total = |f: fn(&AppRow) -> u64| rows.values().map(f).sum::<u64>() as f64;
    let pkts = total(|r| r.pkts);
    let footprints: Vec<f64> = rows.values().map(|r| r.footprint as f64).collect();
    let lives: Vec<f64> = rows.values().map(|r| r.live_blocks as f64).collect();

    let (gen_ns, key_ns) = trace_probe(&networks);
    report.metric("trace.gen_ns_per_pkt", gen_ns, "ns");

    let (hit_ns, miss_ns) = cache_probe(&platforms);
    let (read_ns, write_ns) = system_probe(ctx, &platforms, median(&footprints) as u64);
    report.metric("mem.l1_hit_ns", hit_ns, "ns");
    report.metric("mem.l1_miss_ns", miss_ns, "ns");
    report.metric("mem.read_ns", read_ns, "ns");
    report.metric("mem.write_ns", write_ns, "ns");
    let allocs = alloc_probe(ctx, (median(&lives) as usize).max(64));
    for (p, a, _) in &allocs {
        report.metric(format!("mem.alloc_ns.{}", policy_slug(*p)), *a, "ns");
    }
    for (p, _, f) in &allocs {
        report.metric(format!("mem.free_ns.{}", policy_slug(*p)), *f, "ns");
    }
    let l2_accesses = total(|r| r.l2_accesses);
    report.metric(
        "mem.l1_hit_ratio",
        total(|r| r.l1_hits) / total(|r| r.l1_accesses).max(1.0),
        "ratio",
    );
    report.metric(
        "mem.l2_hit_ratio",
        if l2_accesses > 0.0 {
            total(|r| r.l2_hits) / l2_accesses
        } else {
            0.0
        },
        "ratio",
    );
    report.metric(
        "mem.dram_lines_per_pkt",
        total(|r| r.dram_lines) / pkts,
        "count",
    );
    report.metric("mem.allocs_per_pkt", total(|r| r.allocs) / pkts, "count");

    let ddt_n = (median(&lives) as usize / 2).clamp(16, 512);
    for (kind, ns) in ddt_probe(ctx, platforms[0], ddt_n) {
        report.metric(format!("ddt.{}.op_ns", ddt_slug(kind)), ns, "ns");
    }

    let mut access_ratios = Vec::new();
    for app in AppKind::EXTENDED_ALL {
        let r = rows.get(&app).cloned().unwrap_or_default();
        let per_access = r.ns_per_pkt / r.accesses_per_pkt.max(f64::MIN_POSITIVE);
        if r.pkts > 0 {
            access_ratios.push(per_access / read_ns);
        }
        let a = app_slug(app);
        report.metric(format!("apps.{a}.build_ns"), r.build_ns, "ns");
        report.metric(format!("apps.{a}.ns_per_pkt"), r.ns_per_pkt, "ns");
        report.metric(
            format!("apps.{a}.accesses_per_pkt"),
            r.accesses_per_pkt,
            "count",
        );
        report.metric(format!("apps.{a}.ns_per_access"), per_access, "ns");
    }

    let (app0, mem0, cfg0) = &inputs.apps[0];
    let (sims1, simsn, host_ns) = engine_probe(ctx.jobs, *app0, *mem0, cfg0);
    report.metric("engine.sims_per_s.jobs1", sims1, "1/s");
    report.metric("engine.sims_per_s.jobsN", simsn, "1/s");
    report.metric("engine.jobs_speedup", simsn / sims1, "ratio");
    report.metric("engine.host_ns_per_access", host_ns, "ns");
    report.metric("engine.cache_hit_ratio", inputs.cache_hit_ratio, "ratio");
    report.metric("engine.key_ns_per_pkt", key_ns, "ns");
    let store = store_probe(ctx, inputs.store_dir.as_ref());
    let store_units = ["us", "us", "us", "count", "bytes"];
    for ((name, v), u) in ["open_us", "get_us", "append_us", "segments", "bytes"]
        .iter()
        .zip(store)
        .zip(store_units)
    {
        report.metric(format!("engine.store.{name}"), v, u);
    }

    // The serve probe runs before the pool-wait histogram is read, so it
    // has samples on every workload.
    let serve = inputs.serve.unwrap_or_else(|| {
        let item = ServeItem {
            app: *app0,
            platform: *mem0,
            mode: crate::plan::Mode::Explore,
        };
        serve_probe(ctx, item)
    });
    let snap = ddtr_obs::snapshot();
    let wait = snap.histograms.get("engine.jobs_pool.wait");
    report.metric(
        "engine.jobs_pool.wait_p50_us",
        wait.map_or(0.0, |h| h.p50 as f64 / 1e3),
        "us",
    );
    report.metric(
        "engine.jobs_pool.wait_p99_us",
        wait.map_or(0.0, |h| h.p99 as f64 / 1e3),
        "us",
    );

    let ws = &inputs.workload_spans;
    for (metric, span) in [
        ("core.profile_s", "core.profile"),
        ("core.step1_s", "core.step1"),
        ("core.step2_s", "core.step2"),
        ("core.step3_s", "core.step3"),
    ] {
        report.metric(metric, per_request_s(ws, span), "s");
    }
    report.metric("pareto.front_us", pareto_probe(&inputs.step2_groups), "us");

    for (name, v, unit) in serve {
        if name == "serve.reject_total" {
            // The server must refuse nothing at this load.
            report.check(v == 0.0);
        }
        report.metric(name, v, unit);
    }
    report.metric("obs.trace_overhead_pct", inputs.overhead_pct, "%");

    report.metric(
        "ladder.apps_access_over_mem_read",
        median(&access_ratios),
        "ratio",
    );
    let share = inputs.cold_pass.as_ref().map_or(0.0, |c| {
        let predicted: f64 = c
            .executed
            .iter()
            .filter_map(|(app, n)| {
                let r = rows.get(app)?;
                let cfg = &inputs.apps.iter().find(|a| a.0 == *app)?.2;
                Some(*n as f64 * (r.build_ns + cfg.packets_per_sim as f64 * r.ns_per_pkt))
            })
            .sum();
        predicted / (c.wall_s * 1e9 * c.jobs as f64) * 100.0
    });
    report.metric("ladder.cold_share_pct", share, "%");

    spans::enable(false);
    let mut all = inputs.workload_spans;
    all.extend(spans::drain());
    let self_ns = spans::self_time_by_layer(&all);
    for layer in SELF_TIME_LAYERS {
        let ns = self_ns.get(layer).copied().unwrap_or(0);
        report.metric(format!("selftime.{layer}_ms"), ns as f64 / 1e6, "ms");
    }
    report.metric("failed_ratio", report.failed_ratio(), "ratio");
    for (layer, moves, on, not_on) in LAYER_MAP {
        report.note(
            &format!("layer.{layer}"),
            format!("should move {moves} on {on}; no change on {not_on}"),
        );
    }
    let trace_path = ctx
        .work
        .with_file_name(format!("trace-{}-seed{}.json", ctx.workload, ctx.seed));
    match std::fs::write(&trace_path, spans::chrome_trace(&all)) {
        Ok(()) => report.note("chrome_trace", trace_path.display().to_string()),
        Err(e) => eprintln!("chrome trace not written: {e}"),
    }
    report.samples("spans", all.len());
}
