//! Golden corpus of simulated costs: every extended application × a fixed
//! DDT-combination sample × every memory preset × two networks, plus one
//! preset under every fit and replacement policy, checked bit for bit
//! against `tests/golden/cost_reports.txt`.
//!
//! The memory model's speed work must not move a single simulated bit, so
//! each row stores the four `CostReport` metrics (energy as its IEEE-754
//! bits) together with the L1/L2 hit and miss counters and the allocator
//! state behind them. The corpus is regenerated only deliberately:
//!
//! ```sh
//! cargo test --test golden_costs -- --ignored
//! ```
//!
//! and every regeneration is recorded, with its reason, in `CHANGES.md`.

use ddtr::apps::{AppKind, AppParams};
use ddtr::ddt::DdtKind;
use ddtr::mem::{
    CacheStats, FitPolicy, MemoryConfig, MemoryPreset, MemorySystem, ReplacementPolicy,
};
use ddtr::trace::{NetworkPreset, Trace};
use std::path::PathBuf;

/// Packets per simulation: enough for tables to churn and caches to evict,
/// small enough for a debug-build test run.
const PACKETS: usize = 400;

/// The two networks every configuration runs on.
const NETWORKS: [NetworkPreset; 2] = [NetworkPreset::DartmouthBerry, NetworkPreset::NlanrAix];

/// Every extended DDT appears in at least one slot of the sample.
fn combos() -> Vec<[DdtKind; 2]> {
    let k = DdtKind::EXTENDED;
    let mut combos: Vec<_> = k.chunks(2).map(|pair| [pair[0], pair[1]]).collect();
    combos.push([k[11], k[0]]);
    combos.push([k[5], k[8]]);
    combos
}

fn corpus_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cost_reports.txt")
}

fn cache_cols(stats: Option<CacheStats>) -> String {
    stats.map_or_else(
        || "-".to_owned(),
        |s| {
            format!(
                "{}/{}/{}/{}/{}",
                s.read_hits, s.read_misses, s.write_hits, s.write_misses, s.writebacks
            )
        },
    )
}

/// One simulation, rendered as one corpus row.
fn row(
    app: AppKind,
    combo: [DdtKind; 2],
    platform: &str,
    cfg: MemoryConfig,
    trace: &Trace,
) -> String {
    let mut mem = MemorySystem::new(cfg);
    let mut instance = app.instantiate(combo, &AppParams::default(), &mut mem);
    for pkt in trace {
        instance.process(pkt, &mut mem);
    }
    let r = mem.report();
    let heap = mem.alloc_stats();
    format!(
        "{app} {}+{} {platform} {} {} {} {:#018x} {} l1={} l2={} heap={}/{}/{}/{}",
        combo[0],
        combo[1],
        trace.network,
        r.accesses,
        r.cycles,
        r.energy_nj.to_bits(),
        r.peak_footprint_bytes,
        cache_cols(Some(mem.cache_stats())),
        cache_cols(mem.l2_stats()),
        heap.allocs,
        heap.frees,
        heap.live_gross_bytes,
        mem.allocator().free_regions(),
    )
}

/// The deep platform with a 3 KiB 2-way L1 (48 sets) over a 12 KiB
/// 4-way L2 (96 sets).
fn shrunk() -> MemoryConfig {
    let mut cfg = MemoryPreset::Deep.config();
    cfg.l1.capacity_bytes = 3 * 1024;
    cfg.l1.ways = 2;
    let l2 = cfg.l2.as_mut().expect("the deep platform has an L2");
    l2.capacity_bytes = 12 * 1024;
    l2.ways = 4;
    cfg
}

/// Every row of the corpus, in a fixed order.
fn generate() -> Vec<String> {
    let traces: Vec<Trace> = NETWORKS.iter().map(|n| n.generate(PACKETS)).collect();
    let combos = combos();
    let mut rows = Vec::new();
    for app in AppKind::EXTENDED_ALL {
        for preset in MemoryPreset::ALL {
            for &combo in &combos {
                for trace in &traces {
                    rows.push(row(app, combo, preset.name(), preset.config(), trace));
                }
            }
        }
        // The presets use only first fit and LRU: run the deep platform
        // under every other pairing, at both cache levels, as is and shrunk
        // to non-power-of-two set counts so that both levels evict.
        for (name, base) in [("deep", MemoryPreset::Deep.config()), ("shrunk", shrunk())] {
            for fit in [FitPolicy::FirstFit, FitPolicy::BestFit, FitPolicy::NextFit] {
                for repl in [
                    ReplacementPolicy::Lru,
                    ReplacementPolicy::Fifo,
                    ReplacementPolicy::Random,
                ] {
                    let mut cfg = base;
                    cfg.fit_policy = fit;
                    cfg.l1.replacement = repl;
                    if let Some(l2) = &mut cfg.l2 {
                        l2.replacement = repl;
                    }
                    let platform = format!("{name}/{fit}/{repl:?}");
                    for &combo in &combos[..3] {
                        rows.push(row(app, combo, &platform, cfg, &traces[0]));
                    }
                }
            }
        }
    }
    rows
}

#[test]
fn simulated_costs_match_the_golden_corpus_bit_for_bit() {
    let text = std::fs::read_to_string(corpus_path())
        .expect("golden corpus present (regenerate: cargo test --test golden_costs -- --ignored)");
    let expected: Vec<&str> = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .collect();
    let actual = generate();
    assert_eq!(actual.len(), expected.len(), "corpus row count");
    for (got, want) in actual.iter().zip(&expected) {
        assert_eq!(got, want, "simulated costs drifted");
    }
}

#[test]
#[ignore = "regenerates the golden corpus; run deliberately and log it in CHANGES.md"]
fn regenerate_golden_corpus() {
    let mut text = String::from(
        "# app combo platform network accesses cycles energy_bits peak_bytes \
         l1=rh/rm/wh/wm/wb l2=rh/rm/wh/wm/wb heap=allocs/frees/live_gross/free_regions\n\
         # regenerate: cargo test --test golden_costs -- --ignored\n",
    );
    for r in generate() {
        text.push_str(&r);
        text.push('\n');
    }
    let path = corpus_path();
    std::fs::create_dir_all(path.parent().expect("corpus has a parent")).expect("mkdir");
    std::fs::write(&path, text).expect("corpus written");
}
