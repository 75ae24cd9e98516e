//! The `explore-cold` and `explore-warm` workloads.
//!
//! One unit of work is a pass: the paper-sized three-step methodology
//! for all five applications, each on its seeded platform, on a fresh
//! `ExploreEngine` with `jobs = nproc`.
//!
//! * `explore-cold` gives every pass an empty on-disk store, so every
//!   simulation executes and is appended. Checked: fronts byte-identical
//!   to a `jobs = 1` pass made during set-up, digests golden.
//! * `explore-warm` opens, on every pass, one store populated during
//!   set-up, and times rounds of `nproc` concurrent passes. Checked:
//!   `executed == 0` for every application, fronts byte-identical to the
//!   set-up (cold) pass, digests golden.
//!
//! Passes take the plan's rotations in turn, so a run explores every
//! application on every platform, whatever the seed.

use crate::common::{peak_rss_mb, reset_peak_rss, timed, Ctx, HostSample, Report};
use crate::digest::{combine, outcome_digest};
use crate::layers::{self, ColdPass, LayerInputs};
use crate::plan::{paper_key, ExplorePlan};
use crate::spans;
use crate::stats::{median, min_samples_for, percentile};
use ddtr_apps::AppKind;
use ddtr_core::{
    explore_application_level_with, explore_network_level_with, explore_pareto_level,
    profile_application, EngineConfig, EngineReport, ExploreEngine, ExploreError, Methodology,
    MethodologyConfig, MethodologyOutcome, SimCounts,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Tail percentile of `explore-cold` pass times (needs 30 passes, about
/// what a 30 s window holds).
pub const COLD_TAIL_PCT: u32 = 66;
/// Tail percentile of `explore-warm` round times (needs 200 rounds).
pub const WARM_TAIL_PCT: u32 = 95;

/// [`Methodology::run_with`], one public step call at a time, with a
/// span around each call in the order `run_with` makes them.
///
/// # Errors
///
/// Whatever a step returns.
pub fn explore_traced(
    engine: &mut ExploreEngine,
    cfg: &MethodologyConfig,
) -> Result<MethodologyOutcome, ExploreError> {
    cfg.validate()?;
    let before = engine.stats();
    let profile = {
        let _s = spans::enter("core.profile");
        profile_application(cfg)?
    };
    let step1 = {
        let _s = spans::enter("core.step1");
        explore_application_level_with(engine, cfg)?
    };
    let step2 = {
        let _s = spans::enter("core.step2");
        explore_network_level_with(engine, cfg, &step1.survivor_combos())?
    };
    let pareto = {
        let _s = spans::enter("core.step3");
        explore_pareto_level(&step2)?
    };
    let after = engine.stats();
    Ok(MethodologyOutcome {
        config: cfg.clone(),
        counts: SimCounts {
            exhaustive: cfg.exhaustive_simulations(),
            reduced: step1.measurements.len() + step2.simulations(),
            pareto_optimal: pareto.global_front.len(),
        },
        profile,
        step1,
        step2,
        pareto,
        engine: EngineReport {
            jobs: engine.jobs(),
            cache_hits: after.hits - before.hits,
            executed: after.misses - before.misses,
        },
    })
}

/// Runs every configuration on `engine`, traced or not.
///
/// # Errors
///
/// The first exploration error.
pub fn run_pass(
    engine: &mut ExploreEngine,
    cfgs: &[MethodologyConfig],
) -> Result<Vec<MethodologyOutcome>, ExploreError> {
    cfgs.iter()
        .map(|cfg| {
            if spans::enabled() {
                explore_traced(engine, cfg)
            } else {
                Methodology::new(cfg.clone()).run_with(engine)
            }
        })
        .collect()
}

/// Paper-sized applications by the cost of a `jobs = 1` explore, largest
/// first. Measured on a 2-vCPU x86-64 guest over all five platforms:
/// Route 0.65-1.0 s, IPchains 0.37-0.59 s, DRR 0.20-0.29 s, URL
/// 0.08-0.13 s, NAT 0.07-0.09 s.
const BY_COST: [AppKind; 5] = [
    AppKind::Route,
    AppKind::Ipchains,
    AppKind::Drr,
    AppKind::Url,
    AppKind::Nat,
];

/// The `jobs = 1` reference pass: every configuration explored on its
/// own single-job in-memory engine, `threads` configurations at a time.
/// Each engine still runs one worker, so its results are the `jobs = 1`
/// results; spreading the applications over threads keeps a single slow
/// CPU from setting the set-up time. The threads take the applications
/// largest first ([`BY_COST`]) whatever order the seed gave them, so the
/// set-up's makespan does not depend on that order.
///
/// # Errors
///
/// The first exploration error, in configuration order.
fn reference_pass(
    cfgs: &[MethodologyConfig],
    threads: usize,
) -> Result<Vec<MethodologyOutcome>, ExploreError> {
    let mut order: Vec<usize> = (0..cfgs.len()).collect();
    order.sort_by_key(|&i| BY_COST.iter().position(|&a| a == cfgs[i].app));
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<MethodologyOutcome, ExploreError>>> =
        (0..cfgs.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.clamp(1, cfgs.len().max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) else {
                            break done;
                        };
                        let outcome = Methodology::new(cfgs[i].clone())
                            .run_with(&mut ExploreEngine::with_jobs(1));
                        done.push((i, outcome));
                    }
                })
            })
            .collect();
        for handle in handles {
            for (i, outcome) in handle.join().expect("reference thread finishes") {
                slots[i] = Some(outcome);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every configuration explored"))
        .collect()
}

fn engine_over(jobs: usize, dir: Option<&Path>) -> ExploreEngine {
    ExploreEngine::new(EngineConfig {
        jobs,
        cache_dir: dir.map(Path::to_path_buf),
        no_cache: false,
    })
    .expect("engine opens its store")
}

/// What a pass is checked against.
struct Reference {
    fronts: Vec<String>,
    digests: Vec<u64>,
}

fn fronts_of(outcomes: &[MethodologyOutcome]) -> Vec<String> {
    outcomes
        .iter()
        .map(|o| serde_json::to_string(&o.pareto).expect("fronts serialise"))
        .collect()
}

/// One measured unit's accounting: a pass, or a round of concurrent
/// passes.
#[derive(Debug, Default, Clone, Copy)]
struct PassStats {
    secs: f64,
    passes: usize,
    executed: usize,
    hits: usize,
}

fn check_pass(
    outcomes: &Result<Vec<MethodologyOutcome>, ExploreError>,
    reference: &Reference,
    warm: bool,
) -> Option<(usize, usize)> {
    let outcomes = outcomes.as_ref().ok()?;
    let fronts_ok = fronts_of(outcomes) == reference.fronts;
    let digests_ok = outcomes
        .iter()
        .map(outcome_digest)
        .eq(reference.digests.iter().copied());
    let executed: usize = outcomes.iter().map(|o| o.engine.executed).sum();
    let hits: usize = outcomes.iter().map(|o| o.engine.cache_hits).sum();
    let engine_ok = if warm {
        outcomes.iter().all(|o| o.engine.executed == 0)
    } else {
        outcomes.iter().all(|o| o.engine.executed > 0)
    };
    (fronts_ok && digests_ok && engine_ok).then_some((executed, hits))
}

/// Runs `explore-cold` (`warm == false`) or `explore-warm`.
#[must_use]
pub fn run(ctx: &Ctx, warm: bool) -> Report {
    let mut report = Report::default();
    let plan = ExplorePlan::from_seed(ctx.seed);
    let rotations: Vec<Vec<MethodologyConfig>> = (0..ExplorePlan::ROTATIONS)
        .map(|k| plan.configs(k))
        .collect();
    let plan_note: Vec<String> = plan
        .items
        .iter()
        .map(|(app, mem)| format!("{}@{}", crate::plan::app_slug(*app), mem.name()))
        .collect();
    report.note("plan", plan_note.join(","));

    // Set-up, once per rotation, so every seed sets up the same 25
    // configurations: cold runs the rotation's jobs=1 reference pass in
    // memory; warm adds the rotation's jobs=N cold pass to one store.
    let warm_store = warm.then(|| ctx.fresh_dir("warm-store"));
    let mut setup_secs = Vec::new();
    let mut references = Vec::new();
    let mut cold_setup_pass = None;
    let mut step2_groups = Vec::new();
    for (k, cfgs) in rotations.iter().enumerate() {
        let (outcomes, secs) = timed(|| match &warm_store {
            Some(dir) => run_pass(&mut engine_over(ctx.jobs, Some(dir)), cfgs),
            None => reference_pass(cfgs, ctx.jobs),
        });
        setup_secs.push(secs);
        let outcomes = match outcomes {
            Ok(o) => o,
            Err(e) => {
                eprintln!("set-up pass failed: {e}");
                report.check(false);
                return report;
            }
        };
        let golden_ok = plan
            .rotation(k)
            .iter()
            .zip(&outcomes)
            .all(|(&(app, mem), o)| ctx.golden.matches(&paper_key(app, mem), outcome_digest(o)));
        if !golden_ok {
            eprintln!("set-up pass: a result differs from perfbench/golden.json");
        }
        report.check(golden_ok);
        if k == 0 {
            cold_setup_pass = Some(ColdPass {
                wall_s: secs,
                jobs: ctx.jobs,
                executed: outcomes
                    .iter()
                    .map(|o| (o.config.app, o.engine.executed))
                    .collect(),
            });
            if ctx.trace {
                step2_groups = outcomes.iter().map(layers::step2_groups).collect();
            }
        }
        references.push(Reference {
            fronts: fronts_of(&outcomes),
            digests: outcomes.iter().map(outcome_digest).collect(),
        });
    }
    report.digest = combine(
        &references
            .iter()
            .flat_map(|r| r.digests.iter().copied())
            .collect::<Vec<_>>(),
    );

    let tail_pct = if warm { WARM_TAIL_PCT } else { COLD_TAIL_PCT };
    // Untraced runs measure the whole window. Traced runs alternate
    // untraced and traced units over half the window (the overhead
    // comparison) and spend the rest on the layer ladder. Units take the
    // rotations in turn, so both kinds cover every rotation.
    let (share, min_passes) = if ctx.trace {
        (0.5, 6)
    } else {
        (1.0, min_samples_for(tail_pct))
    };
    let window = ctx.window().mul_f64(share);
    let cap = ctx.hard_cap().mul_f64(share);
    let mut passes: Vec<(bool, usize, PassStats)> = Vec::new();
    let mut last_cold_store: Option<PathBuf> = None;
    // A warm pass is single-threaded, and the host's CPUs differ in speed
    // from minute to minute, so a lone warm pass would be timed on
    // whichever CPU it happened to land. Warm units are therefore rounds
    // of `nproc` concurrent passes (one per CPU), each on its own fresh
    // engine over the shared store; a round lasts as long as its slowest
    // pass. Cold passes already spread over every CPU through the engine.
    let concurrent = if warm { ctx.jobs } else { 1 };
    report.note("peak_rss_reset", reset_peak_rss().to_string());
    let host = HostSample::now();
    let start = Instant::now();
    while (start.elapsed() < window || passes.len() < min_passes) && start.elapsed() < cap {
        let unit = passes.len();
        let traced = ctx.trace && unit % 2 == 1;
        spans::enable(traced);
        let dir = match &warm_store {
            Some(dir) => dir.clone(),
            None => ctx.fresh_dir(&format!("cold-{}", unit % 2)),
        };
        let first = unit * concurrent;
        let (outcomes, secs) = timed(|| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (first..first + concurrent)
                    .map(|pass| {
                        let (dir, cfgs) = (&dir, &rotations[pass % rotations.len()]);
                        scope.spawn(move || {
                            let _root = spans::request("bench.pass", pass as u64 + 1);
                            run_pass(&mut engine_over(ctx.jobs, Some(dir)), cfgs)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("pass thread finishes"))
                    .collect::<Vec<_>>()
            })
        });
        let (mut executed, mut hits) = (0, 0);
        for (pass, outcome) in (first..).zip(&outcomes) {
            let checked = check_pass(outcome, &references[pass % references.len()], warm);
            if checked.is_none() {
                eprintln!("pass {pass}: output check failed");
            }
            report.check(checked.is_some());
            let (e, h) = checked.unwrap_or_default();
            executed += e;
            hits += h;
        }
        passes.push((
            traced,
            first % rotations.len(),
            PassStats {
                secs,
                passes: concurrent,
                executed,
                hits,
            },
        ));
        if !warm {
            last_cold_store = Some(dir);
        }
    }
    spans::enable(false);
    host.note_since(&mut report, start.elapsed().as_secs_f64());

    let untraced: Vec<PassStats> = passes.iter().filter(|p| !p.0).map(|p| p.2).collect();
    let ms: Vec<f64> = untraced.iter().map(|p| p.secs * 1e3).collect();
    let busy: f64 = untraced.iter().map(|p| p.secs).sum();
    report.samples("units", untraced.len());
    report.samples("passes", untraced.iter().map(|p| p.passes).sum());
    report.tail_notes(ms.len(), tail_pct);

    if !ctx.trace {
        report.metric("setup_s", median(&setup_secs), "s");
        report.metric("p50_ms", median(&ms), "ms");
        report.metric("tail_ms", percentile(&ms, tail_pct).unwrap_or(0.0), "ms");
        let passes: usize = untraced.iter().map(|p| p.passes).sum();
        report.metric("ops_per_s", passes as f64 / busy, "1/s");
        let results: usize = untraced.iter().map(|p| p.executed + p.hits).sum();
        report.metric("results_per_s", results as f64 / busy, "1/s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        report.samples("setup_reps", setup_secs.len());
        return report;
    }

    let traced: Vec<PassStats> = passes.iter().filter(|p| p.0).map(|p| p.2).collect();
    let traced_ms: Vec<f64> = traced.iter().map(|p| p.secs * 1e3).collect();
    report.samples("traced_passes", traced.len());
    let executed: usize = passes.iter().map(|p| p.2.executed).sum();
    let hits: usize = passes.iter().map(|p| p.2.hits).sum();
    let cold_pass = if warm {
        cold_setup_pass
    } else {
        // The measured passes are the cold passes; attribute the median
        // untraced rotation-0 pass's wall time to the rotation-0 set-up
        // reference's executed counts.
        let rot0_ms: Vec<f64> = passes
            .iter()
            .filter(|p| !p.0 && p.1 == 0)
            .map(|p| p.2.secs * 1e3)
            .collect();
        cold_setup_pass.map(|c| ColdPass {
            wall_s: median(if rot0_ms.is_empty() { &ms } else { &rot0_ms }) / 1e3,
            jobs: ctx.jobs,
            ..c
        })
    };
    let store_dir = if warm { warm_store } else { last_cold_store };
    let inputs = LayerInputs {
        apps: plan
            .items
            .iter()
            .zip(&rotations[0])
            .map(|(&(app, mem), cfg)| (app, mem, cfg.clone()))
            .collect(),
        workload_spans: spans::drain(),
        cache_hit_ratio: hits as f64 / (hits + executed).max(1) as f64,
        store_dir,
        cold_pass,
        step2_groups,
        overhead_pct: (median(&traced_ms) / median(&ms) - 1.0) * 100.0,
        serve: None,
    };
    layers::per_layer(ctx, inputs, &mut report);
    report
}
