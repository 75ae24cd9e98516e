//! The `serve-mix` workload: a closed loop of `nproc` client connections
//! over a unix socket to an in-process `ddtr_serve::Server` (default
//! `ServerConfig`, fresh store). Each client waits for its reply before
//! sending its next request, from a seeded sequence of Zipf-popular
//! inline quick `explore` and `ga` runs across apps × platforms,
//! interleaved with `Ping`s. The first run of a configuration executes;
//! repeats are answered from the server's cache.
//!
//! Like the repository's `ddtr loadtest` harness, clients send no
//! `Stats`, `Metrics` or `Cancel` requests while measuring. Where each
//! traffic parameter comes from, and which are assumptions, is said at
//! [`crate::plan::PING_SHARE`], [`crate::plan::ZIPF_S`] and
//! [`crate::plan::GA_SEEDS`].
//!
//! Checked: every `Run` returns a `Result` whose fronts are byte-identical
//! to an in-process exploration of the same configuration made during
//! set-up (whose digests match the golden table), and every `Ping` a
//! `Pong`.

use crate::common::{peak_rss_mb, reset_peak_rss, timed, Ctx, HostSample, Report, SETUP_REPS};
use crate::digest::{combine, front_bytes, result_digest};
use crate::explore::run_pass;
use crate::layers::{self, ColdPass, LayerInputs};
use crate::plan::{serve_universe, Mode, Req, ServeItem, ServePlan};
use crate::spans;
use crate::stats::{median, min_samples_for, percentile};
use ddtr_core::{dispatch_with, EngineConfig, ExploreEngine, ExploreRequest};
use ddtr_serve::{Client, Endpoint, Event, JobSpec, Request, RequestBody, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tail percentile of `Run` latency in each sub-window (needs 200 runs).
/// Not p99: on a shared host, hypervisor steal bursts moved the p99 of
/// identical runs by more than the largest bound a metric may have
/// (0.25), and the p95 by half that. The traced run reports the p99 as
/// `serve.run_p99_ms`.
pub const TAIL_PCT: u32 = 95;

/// An in-process server listening on a unix socket in the scratch
/// directory.
pub struct ServerHandle {
    endpoint: Endpoint,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Starts a default-configured server over a fresh store.
    ///
    /// # Panics
    ///
    /// When the server cannot open its store.
    #[must_use]
    pub fn start(ctx: &Ctx, name: &str) -> Self {
        let store = ctx.fresh_dir(&format!("{name}-store"));
        let sock: PathBuf = ctx.work.join(format!("{name}.sock"));
        let _ = std::fs::remove_file(&sock);
        let server = Server::with_config(ServerConfig::new(EngineConfig {
            jobs: ctx.jobs,
            cache_dir: Some(store),
            no_cache: false,
        }))
        .expect("server opens its store");
        let endpoint = Endpoint::Unix(sock);
        let listen_on = endpoint.clone();
        let thread = std::thread::spawn(move || {
            if let Err(e) = server.listen(&listen_on) {
                eprintln!("server stopped: {e}");
            }
        });
        ServerHandle {
            endpoint,
            thread: Some(thread),
        }
    }

    /// A connected, handshaken client (retrying while the server binds).
    ///
    /// # Panics
    ///
    /// When the server never accepts.
    #[must_use]
    pub fn connect(&self) -> Client {
        Client::builder(self.endpoint.clone())
            .retry_connect(400, Duration::from_millis(5))
            .connect()
            .expect("server accepts connections")
    }

    /// The server's Prometheus-style metrics text, from one `Metrics`
    /// request.
    #[must_use]
    pub fn metrics(&self) -> String {
        match self
            .connect()
            .call(&Request::new("metrics", RequestBody::Metrics), |_| {})
        {
            Ok(Event::Metrics { text, .. }) => text,
            _ => String::new(),
        }
    }

    /// Shuts the server down and waits for it. Every other client must
    /// have been dropped first.
    pub fn stop(mut self) {
        let _ = self
            .connect()
            .call(&Request::new("bye", RequestBody::Shutdown), |_| {});
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The value of the first exposition line starting with `series`.
#[must_use]
pub fn prometheus_value(text: &str, series: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.trim().parse().ok())
}

/// What each configuration's `Run` must return.
struct Expected {
    fronts: Vec<String>,
    digests: Vec<u64>,
}

/// In-process explorations of the whole universe on a fresh engine.
fn expected(ctx: &Ctx, universe: &[ServeItem], report: &mut Report) -> Expected {
    let mut engine = ExploreEngine::with_jobs(ctx.jobs);
    let mut fronts = Vec::new();
    let mut digests = Vec::new();
    for item in universe {
        match dispatch_with(&mut engine, &item.request()) {
            Ok(result) => {
                let digest = result_digest(&result).unwrap_or_default();
                report.check(ctx.golden.matches(&item.key(), digest));
                fronts.push(front_bytes(&result));
                digests.push(digest);
            }
            Err(e) => {
                eprintln!("{}: {e}", item.key());
                report.check(false);
                fronts.push(String::new());
                digests.push(0);
            }
        }
    }
    Expected { fronts, digests }
}

/// One correct `Run` reply.
#[derive(Debug, Clone, Copy)]
struct RunSample {
    /// When it completed, seconds into the measured window.
    done_s: f64,
    /// Latency.
    ms: f64,
    /// Simulation results it carried (executed + cache hits).
    results: usize,
}

/// One client's samples.
#[derive(Default)]
struct ClientLog {
    runs: Vec<RunSample>,
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    warm_traced_ms: Vec<f64>,
    ping_us: Vec<f64>,
    hits: usize,
    failed: usize,
    attempted: usize,
}

/// Most sub-windows the measured window is cut into.
const MAX_WINDOWS: usize = 6;

/// Medians, over equal sub-windows of the measured window, of each
/// window's median latency, tail latency, runs per second and results
/// per second. A burst of host noise then spoils one window rather than
/// the run. The window count keeps, on average, enough runs in each for
/// the tail rank; the count used is returned first.
fn windowed(runs: &[RunSample], wall_s: f64) -> (usize, [f64; 4]) {
    let k = (runs.len() / min_samples_for(TAIL_PCT)).clamp(1, MAX_WINDOWS);
    let width = wall_s / k as f64;
    let mut cols: [Vec<f64>; 4] = Default::default();
    for w in 0..k {
        let inside: Vec<&RunSample> = runs
            .iter()
            .filter(|r| ((r.done_s / width) as usize).min(k - 1) == w)
            .collect();
        let ms: Vec<f64> = inside.iter().map(|r| r.ms).collect();
        let results: usize = inside.iter().map(|r| r.results).sum();
        cols[0].push(median(&ms));
        cols[1].push(percentile(&ms, TAIL_PCT).unwrap_or(0.0));
        cols[2].push(inside.len() as f64 / width);
        cols[3].push(results as f64 / width);
    }
    (k, cols.map(|c| median(&c)))
}

/// Shared stop condition of the closed loop.
struct Stop<'a> {
    start: Instant,
    window: Duration,
    cap: Duration,
    min_runs: usize,
    runs: &'a AtomicUsize,
    aborted: &'a AtomicBool,
}

impl Stop<'_> {
    fn done(&self) -> bool {
        let t = self.start.elapsed();
        self.aborted.load(Ordering::Relaxed)
            || t >= self.cap
            || (t >= self.window && self.runs.load(Ordering::Relaxed) >= self.min_runs)
    }
}

/// What every client of the closed loop shares.
struct Shared<'a> {
    plan: &'a ServePlan,
    universe: &'a [ServeItem],
    expected: &'a Expected,
    stop: Stop<'a>,
    req_ids: AtomicU64,
    trace: bool,
}

fn client_loop(c: usize, client: &mut Client, shared: &Shared<'_>) -> ClientLog {
    let Shared {
        plan,
        universe,
        expected,
        stop,
        req_ids,
        trace,
    } = shared;
    let mut log = ClientLog::default();
    for (n, req) in plan.client(c).enumerate() {
        if stop.done() {
            break;
        }
        // In a traced run every other request is traced.
        let traced = *trace && n % 2 == 1;
        spans::mute_thread(!traced);
        let id = format!("c{c}-{n}");
        log.attempted += 1;
        match req {
            Req::Ping => {
                let (reply, s) = timed(|| {
                    let _s = spans::enter("serve.ping");
                    client.call(&Request::new(id, RequestBody::Ping), |_| {})
                });
                if matches!(reply, Ok(Event::Pong { .. })) {
                    log.ping_us.push(s * 1e6);
                } else {
                    log.failed += 1;
                }
            }
            Req::Run(i) => {
                let request = Request::run(id, JobSpec::inline(universe[i].request()));
                let (reply, s) = timed(|| {
                    let _s = spans::request("serve.run", req_ids.fetch_add(1, Ordering::Relaxed));
                    client.call(&request, |_| {})
                });
                stop.runs.fetch_add(1, Ordering::Relaxed);
                let ok = match &reply {
                    Ok(Event::Result {
                        executed,
                        cache_hits,
                        result,
                        ..
                    }) => {
                        let ok = front_bytes(result) == expected.fronts[i]
                            && result_digest(result) == Some(expected.digests[i]);
                        if ok {
                            log.hits += cache_hits;
                            let ms = s * 1e3;
                            log.runs.push(RunSample {
                                done_s: stop.start.elapsed().as_secs_f64(),
                                ms,
                                results: executed + cache_hits,
                            });
                            if *executed > 0 {
                                log.cold_ms.push(ms);
                            } else if traced {
                                log.warm_traced_ms.push(ms);
                            } else {
                                log.warm_ms.push(ms);
                            }
                        }
                        ok
                    }
                    _ => false,
                };
                if !ok {
                    eprintln!("run {}: wrong or failed reply", universe[i].key());
                    log.failed += 1;
                }
            }
        }
        if reply_broke(&log) {
            stop.aborted.store(true, Ordering::Relaxed);
            break;
        }
    }
    log
}

/// Gives up on a client whose every request fails (a dead server).
fn reply_broke(log: &ClientLog) -> bool {
    log.failed >= 50 && log.failed == log.attempted
}

/// Runs `serve-mix`.
#[must_use]
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let universe = serve_universe();
    let plan = ServePlan::from_seed(ctx.seed, universe.len());
    report.note(
        "most_popular",
        plan.by_rank
            .iter()
            .take(3)
            .map(|&i| universe[i].key())
            .collect::<Vec<_>>()
            .join(","),
    );

    // Set-up, repeated: the in-process reference answers, then a fresh
    // server with every client connected.
    let mut setup_secs = Vec::new();
    let mut connect_us = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        if let Some((server, clients, _)) = live.take() {
            drop(clients);
            ServerHandle::stop(server);
        }
        let (state, secs) = timed(|| {
            let expected = expected(ctx, &universe, &mut report);
            let server = ServerHandle::start(ctx, &format!("serve-{rep}"));
            let clients: Vec<Client> = (0..ctx.jobs)
                .map(|_| {
                    let (c, s) = timed(|| server.connect());
                    connect_us.push(s * 1e6);
                    c
                })
                .collect();
            (server, clients, expected)
        });
        setup_secs.push(secs);
        live = Some(state);
    }
    let (server, mut clients, expected) = live.expect("at least one set-up");
    report.digest = combine(&expected.digests);

    let runs = AtomicUsize::new(0);
    let aborted = AtomicBool::new(false);
    // Untraced runs measure the whole window. Traced runs trace every
    // other request over half the window (the overhead comparison) and
    // spend the rest on the layer ladder.
    let share = if ctx.trace { 0.5 } else { 1.0 };
    spans::enable(ctx.trace);
    report.note("peak_rss_reset", reset_peak_rss().to_string());
    let host = HostSample::now();
    let shared = Shared {
        plan: &plan,
        universe: &universe,
        expected: &expected,
        stop: Stop {
            start: Instant::now(),
            window: ctx.window().mul_f64(share),
            cap: ctx.hard_cap().mul_f64(share),
            min_runs: if ctx.trace {
                100
            } else {
                MAX_WINDOWS * min_samples_for(TAIL_PCT)
            },
            runs: &runs,
            aborted: &aborted,
        },
        req_ids: AtomicU64::new(1),
        trace: ctx.trace,
    };
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let shared = &shared;
                scope.spawn(move || client_loop(c, client, shared))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let wall = shared.stop.start.elapsed().as_secs_f64();
    spans::enable(false);
    host.note_since(&mut report, wall);
    for l in &logs {
        report.attempted += l.attempted as u64;
        report.failed += l.failed as u64;
    }
    let flat = |f: fn(&ClientLog) -> &Vec<f64>| -> Vec<f64> {
        logs.iter().flat_map(|l| f(l).clone()).collect()
    };
    let runs: Vec<RunSample> = logs.iter().flat_map(|l| l.runs.clone()).collect();
    let (windows, [p50, tail, ops, results]) = windowed(&runs, wall);
    report.samples("runs", runs.len());
    report.samples("pings", flat(|l| &l.ping_us).len());
    report.samples("windows", windows);
    report.tail_notes(runs.len() / windows, TAIL_PCT);

    if !ctx.trace {
        report.metric("setup_s", median(&setup_secs), "s");
        report.metric("p50_ms", p50, "ms");
        report.metric("tail_ms", tail, "ms");
        report.metric("ops_per_s", ops, "1/s");
        report.metric("results_per_s", results, "1/s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        report.samples("setup_reps", setup_secs.len());
        drop(clients);
        server.stop();
        return report;
    }

    // Per-layer: serve rows from this workload's own clients and one
    // Metrics request; core and pareto rows from one traced in-process
    // pass over each app's most popular explore configuration.
    let warm_traced = flat(|l| &l.warm_traced_ms);
    let warm_untraced = flat(|l| &l.warm_ms);
    let text = server.metrics();
    clients.clear();
    server.stop();
    let serve_rows = layers::serve_metrics(
        &connect_us,
        &flat(|l| &l.ping_us),
        &flat(|l| &l.cold_ms),
        &[warm_untraced.as_slice(), warm_traced.as_slice()].concat(),
        &text,
    );
    let hits: usize = logs.iter().map(|l| l.hits).sum();
    let results: usize = runs.iter().map(|r| r.results).sum();

    let mut apps = Vec::new();
    for &i in &plan.by_rank {
        let item = universe[i];
        if item.mode == Mode::Explore && !apps.iter().any(|&(a, _, _)| a == item.app) {
            if let ExploreRequest::Explore(cfg) = item.request() {
                apps.push((item.app, item.platform, cfg));
            }
        }
    }
    let cfgs: Vec<_> = apps.iter().map(|a| a.2.clone()).collect();
    spans::enable(true);
    let (pass, wall_s) = timed(|| {
        let _root = spans::request("bench.pass", 0);
        run_pass(&mut ExploreEngine::with_jobs(ctx.jobs), &cfgs)
    });
    spans::enable(false);
    report.check(pass.is_ok());
    let outcomes = pass.unwrap_or_default();
    let cold_pass = (!outcomes.is_empty()).then(|| ColdPass {
        wall_s,
        jobs: ctx.jobs,
        executed: outcomes
            .iter()
            .map(|o| (o.config.app, o.engine.executed))
            .collect(),
    });
    let inputs = LayerInputs {
        apps,
        workload_spans: spans::drain(),
        cache_hit_ratio: hits as f64 / results.max(1) as f64,
        store_dir: Some(ctx.work.join(format!("serve-{}-store", SETUP_REPS - 1))),
        cold_pass,
        step2_groups: outcomes.iter().map(layers::step2_groups).collect(),
        overhead_pct: (median(&warm_traced) / median(&warm_untraced) - 1.0) * 100.0,
        serve: Some(serve_rows),
    };
    layers::per_layer(ctx, inputs, &mut report);
    report
}
