//! Concurrency contracts of the shared pile store.
//!
//! One store directory, many readers and writers: a second
//! `EngineSession` opened on a warm directory must answer entirely from
//! the store (zero executed simulations), and concurrent appenders —
//! including a deliberately slow one — must never corrupt the store,
//! because every writing process owns its own `O_EXCL`-created segment.

use ddtr_apps::{AppKind, AppParams};
use ddtr_engine::testing::TempCacheDir;
use ddtr_engine::{
    all_combos, fingerprint_trace, EngineConfig, EngineSession, PileStore, SimCache, SimUnit,
};
use ddtr_mem::MemoryConfig;
use ddtr_trace::NetworkPreset;
use std::time::Duration;

fn units<'a>(trace: &'a ddtr_trace::Trace, params: &'a AppParams) -> Vec<SimUnit<'a>> {
    let fp = fingerprint_trace(trace);
    all_combos()[..6]
        .iter()
        .map(|&c| {
            SimUnit::with_fingerprint(
                AppKind::Drr,
                c,
                params,
                trace,
                fp,
                MemoryConfig::embedded_default(),
            )
        })
        .collect()
}

#[test]
fn second_session_on_a_shared_store_executes_nothing() {
    let tmp = TempCacheDir::new("conc-warm");
    let cfg = EngineConfig {
        jobs: 2,
        cache_dir: Some(tmp.path().to_path_buf()),
        no_cache: false,
    };
    let trace = NetworkPreset::DartmouthBerry.generate(30);
    let params = AppParams::default();
    let batch = units(&trace, &params);

    let cold = EngineSession::new(cfg.clone()).expect("cold session");
    let mut engine = cold.engine();
    let logs = engine.evaluate_batch(&batch);
    assert_eq!(logs.len(), batch.len());
    assert_eq!(
        cold.stats().misses,
        batch.len(),
        "cold session executes everything"
    );

    // A second session opens the same directory WHILE the first is still
    // alive: the first session's records are unpublished bytes, reachable
    // through tail salvage on the same machine.
    let warm = EngineSession::new(cfg.clone()).expect("warm session");
    let mut engine = warm.engine();
    let warm_logs = engine.evaluate_batch(&batch);
    assert_eq!(warm_logs.len(), batch.len());
    assert_eq!(warm.stats().misses, 0, "warm session must execute nothing");
    assert_eq!(warm.stats().hits, batch.len());
    // Results are byte-identical to the cold run.
    for (a, b) in logs.iter().zip(&warm_logs) {
        assert_eq!(a.report.cycles, b.report.cycles);
        assert_eq!(a.combo, b.combo);
    }
    drop(cold);

    // And a third session after the first published (drop flushes) also
    // answers warm — the durable path, not just salvage.
    let published = EngineSession::new(cfg).expect("published session");
    let mut engine = published.engine();
    engine.evaluate_batch(&batch);
    assert_eq!(published.stats().misses, 0);
}

#[test]
fn slow_and_fast_writers_share_a_directory_without_corruption() {
    let tmp = TempCacheDir::new("conc-slow");
    let dir = tmp.path().to_path_buf();

    // The slow writer drips records out with pauses between append and
    // publish — maximizing the window in which a naive shared-file
    // design would interleave torn bytes.
    let slow_dir = dir.clone();
    let slow = std::thread::spawn(move || {
        let mut store = PileStore::open(&slow_dir).expect("slow open");
        for i in 0..20 {
            let key = format!("slow-{i:02}");
            store
                .append(key.as_bytes(), b"written at a crawl")
                .expect("slow append");
            std::thread::sleep(Duration::from_millis(2));
            if i % 5 == 4 {
                store.flush().expect("slow flush");
            }
        }
        // Dropped without a final flush: the tail stays salvage.
    });

    {
        let mut store = PileStore::open(&dir).expect("fast open");
        for i in 0..50 {
            let key = format!("fast-{i:02}");
            store
                .append(key.as_bytes(), b"written quickly")
                .expect("fast append");
        }
        store.flush().expect("fast flush");
    }
    slow.join().expect("slow writer finished");

    let mut fresh = PileStore::open(&dir).expect("fresh open");
    assert_eq!(fresh.segment_count(), 2, "one exclusive segment per writer");
    for i in 0..20 {
        let key = format!("slow-{i:02}");
        assert_eq!(
            fresh.get(key.as_bytes()).expect("get slow"),
            Some(b"written at a crawl".to_vec()),
            "{key}"
        );
    }
    for i in 0..50 {
        let key = format!("fast-{i:02}");
        assert_eq!(
            fresh.get(key.as_bytes()).expect("get fast"),
            Some(b"written quickly".to_vec()),
            "{key}"
        );
    }
    let report = fresh.verify().expect("verify");
    assert!(
        report.is_clean(),
        "no interleaving, no torn bytes: {report:?}"
    );
    assert_eq!(report.records_ok(), 70);

    // The full SimCache verify path agrees.
    assert!(SimCache::verify_store(&dir).expect("verify").is_clean());
}
