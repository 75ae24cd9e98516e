//! `ddtr_perfbench`: the layered, seeded benchmark of the ddtr workspace.
//!
//! ```text
//! ddtr_perfbench --workload <explore-cold|explore-warm|serve-mix>
//!                --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//! ddtr_perfbench --write-golden <path>
//! ```
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics, a
//! traced run (`--trace 1`) the per-layer ones; see `perfbench/README.md`.
//! The last stdout line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it,
//! prefixed `perfbench-record `, is the self-describing run record.
//! Measures host time only: simulated statistics are checked against
//! `golden.json`, never scored.

mod common;
mod digest;
mod explore;
mod layers;
mod plan;
mod serve_mix;
mod spans;
mod stats;

use common::{remove_dir, Ctx, Report};
use ddtr_core::{dispatch_with, ExploreEngine, MemoryPreset, Methodology};
use digest::{outcome_digest, result_digest, Golden};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["explore-cold", "explore-warm", "serve-mix"];

/// End-to-end metric names, in `BENCHMARK.json` order.
pub const E2E_NAMES: [&str; 6] = [
    "setup_s",
    "p50_ms",
    "tail_ms",
    "ops_per_s",
    "results_per_s",
    "peak_rss_mb",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut map: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        map.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| map.get(k).copied().ok_or(format!("missing {k}"));
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected {})",
            WORKLOADS.join(", ")
        ));
    }
    let num = |k: &str| -> Result<u64, String> {
        get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace,
        work: PathBuf::from(get("--work-dir")?),
    })
}

fn write_golden(path: &str) -> ExitCode {
    let mut entries = BTreeMap::new();
    let mut engine = ExploreEngine::in_memory();
    for app in ddtr_apps::AppKind::EXTENDED_ALL {
        for platform in MemoryPreset::ALL {
            let cfg = plan::paper_config(app, platform);
            match Methodology::new(cfg).run_with(&mut engine) {
                Ok(o) => {
                    entries.insert(plan::paper_key(app, platform), outcome_digest(&o));
                }
                Err(e) => {
                    eprintln!("{}: {e}", plan::paper_key(app, platform));
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    for item in plan::serve_universe() {
        match dispatch_with(&mut engine, &item.request()) {
            Ok(r) => {
                entries.insert(item.key(), result_digest(&r).unwrap_or_default());
            }
            Err(e) => {
                eprintln!("{}: {e}", item.key());
                return ExitCode::FAILURE;
            }
        }
    }
    match std::fs::write(path, Golden::render(&entries)) {
        Ok(()) => {
            println!("wrote {} golden digests to {path}", entries.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One metric as the result object and the run record carry it.
#[derive(Serialize)]
struct MetricOut {
    value: f64,
    unit: &'static str,
}

fn metrics_out(report: &Report) -> BTreeMap<String, MetricOut> {
    report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                MetricOut {
                    value: *value,
                    unit,
                },
            )
        })
        .collect()
}

/// The self-describing run record.
#[derive(Serialize)]
struct Record {
    workload: String,
    seed: u64,
    trace: bool,
    run_seconds: f64,
    nproc: usize,
    result_digest: String,
    attempted: u64,
    failed: u64,
    failed_ratio: f64,
    samples: BTreeMap<String, usize>,
    notes: BTreeMap<String, String>,
    metrics: BTreeMap<String, MetricOut>,
}

/// The result object, the last line of stdout.
#[derive(Serialize)]
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricOut>,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, path] = argv.as_slice() {
        if flag == "--write-golden" {
            return write_golden(path);
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ddtr_perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work = args.work.join(format!("work-{}", std::process::id()));
    remove_dir(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("ddtr_perfbench: {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        jobs,
        work,
        golden: Golden::builtin(),
    };
    let report = match ctx.workload.as_str() {
        "explore-cold" => explore::run(&ctx, false),
        "explore-warm" => explore::run(&ctx, true),
        _ => serve_mix::run(&ctx),
    };
    remove_dir(&ctx.work);

    let expected: Vec<String> = if ctx.trace {
        layers::names()
    } else {
        E2E_NAMES.iter().map(|s| (*s).to_string()).collect()
    };
    let got: Vec<String> = report.metrics.iter().map(|m| m.0.clone()).collect();
    if got != expected {
        eprintln!("ddtr_perfbench: metric set does not match BENCHMARK.json: {got:?}");
        return ExitCode::FAILURE;
    }
    for (name, value, unit) in &report.metrics {
        println!("{name:40} {value:>16.4} {unit}");
    }
    println!(
        "attempted {}  failed {}  failed_ratio {}",
        report.attempted,
        report.failed,
        report.failed_ratio()
    );
    for (key, value) in &report.notes {
        println!("{key:40} {value}");
    }
    println!("result_digest {:016x}", report.digest);
    let record = Record {
        workload: ctx.workload.clone(),
        seed: ctx.seed,
        trace: ctx.trace,
        run_seconds: ctx.seconds,
        nproc: ctx.jobs,
        result_digest: format!("{:016x}", report.digest),
        attempted: report.attempted,
        failed: report.failed,
        failed_ratio: report.failed_ratio(),
        samples: report.samples.iter().cloned().collect(),
        notes: report.notes.iter().cloned().collect(),
        metrics: metrics_out(&report),
    };
    let result = RunResult {
        correct: report.failed == 0 && report.attempted > 0,
        attempted: report.attempted.max(1),
        failed: if report.attempted == 0 {
            1
        } else {
            report.failed
        },
        metrics: metrics_out(&report),
    };
    match (
        serde_json::to_string(&record),
        serde_json::to_string(&result),
    ) {
        (Ok(record), Ok(result)) => {
            println!("perfbench-record {record}");
            println!("{result}");
        }
        _ => {
            eprintln!("ddtr_perfbench: result does not serialise");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// The metric and workload names compiled in here are the ones
    /// `BENCHMARK.json` declares, in the same order.
    #[test]
    fn names_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let v = serde_json::parse(text).expect("BENCHMARK.json parses");
        let m = v.as_map().expect("object");
        let names = |key: &str| -> Vec<String> {
            m.get(key)
                .and_then(Value::as_seq)
                .expect("list")
                .iter()
                .map(|e| match e.as_map().and_then(|o| o.get("name")) {
                    Some(Value::Str(s)) => s.clone(),
                    _ => panic!("entry without a name"),
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.to_vec());
        assert_eq!(names("end_to_end"), E2E_NAMES.to_vec());
        assert_eq!(names("per_layer"), layers::names());
    }

    #[test]
    fn args_are_validated() {
        let a = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&a(
            "--workload serve-mix --seed 3 --seconds 5 --trace 1 --work-dir w",
        ))
        .expect("valid");
        assert!(ok.trace && ok.seed == 3);
        assert!(parse_args(&a(
            "--workload nope --seed 3 --seconds 5 --trace 1 --work-dir w"
        ))
        .is_err());
        assert!(parse_args(&a(
            "--workload serve-mix --seed 3 --seconds 5 --trace 2 --work-dir w"
        ))
        .is_err());
        assert!(parse_args(&a(
            "--workload serve-mix --seed 3 --seconds 0 --trace 0 --work-dir w"
        ))
        .is_err());
        assert!(parse_args(&a("--workload serve-mix --seed 3")).is_err());
    }
}
