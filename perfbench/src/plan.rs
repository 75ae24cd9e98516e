//! Seeded workload inputs.
//!
//! The seed is the benchmark's only input: it picks each application's
//! platform and the order of the applications for the explore
//! workloads, and the Zipf popularity order and per-client request
//! sequences for `serve-mix`. The program under test only ever sees the
//! generated configurations.

use ddtr_apps::AppKind;
use ddtr_core::{ExploreRequest, GaConfig, MemoryPreset, MethodologyConfig};

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Lower-case metric-name spelling of an application.
#[must_use]
pub fn app_slug(app: AppKind) -> &'static str {
    match app {
        AppKind::Route => "route",
        AppKind::Url => "url",
        AppKind::Ipchains => "ipchains",
        AppKind::Drr => "drr",
        AppKind::Nat => "nat",
    }
}

/// The five-app explore passes of a run: every application, in a seeded
/// order, on a seeded platform; the five platforms are dealt out one per
/// application, so every pass covers every cache geometry. Successive
/// passes rotate the deal ([`ExplorePlan::rotation`]), so that every
/// [`ExplorePlan::ROTATIONS`] passes run each application on each
/// platform once. Every seed therefore does the same work per rotation
/// cycle: one application's platform moved a seed's pass time by 15%
/// (Route costs 0.65 s on `embedded` and 1.0 s on `deep` at `jobs = 1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplorePlan {
    /// `(application, platform)` in run order: rotation 0.
    pub items: Vec<(AppKind, MemoryPreset)>,
}

impl ExplorePlan {
    /// Rotations of the platform deal before it repeats.
    pub const ROTATIONS: usize = MemoryPreset::ALL.len();

    /// The plan `seed` generates.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 1);
        let mut apps = AppKind::EXTENDED_ALL.to_vec();
        let mut platforms = MemoryPreset::ALL.to_vec();
        rng.shuffle(&mut apps);
        rng.shuffle(&mut platforms);
        ExplorePlan {
            items: apps.into_iter().zip(platforms).collect(),
        }
    }

    /// The deal of rotation `k`: the applications in the same order, each
    /// on the platform `k` places further along rotation 0's platforms.
    #[must_use]
    pub fn rotation(&self, k: usize) -> Vec<(AppKind, MemoryPreset)> {
        let n = self.items.len();
        (0..n)
            .map(|i| (self.items[i].0, self.items[(i + k) % n].1))
            .collect()
    }

    /// The paper-sized methodology configurations of rotation `k`, in run
    /// order.
    #[must_use]
    pub fn configs(&self, k: usize) -> Vec<MethodologyConfig> {
        self.rotation(k)
            .into_iter()
            .map(|(app, platform)| paper_config(app, platform))
            .collect()
    }
}

/// The paper-sized configuration of `app` on `platform`.
#[must_use]
pub fn paper_config(app: AppKind, platform: MemoryPreset) -> MethodologyConfig {
    let mut cfg = MethodologyConfig::paper(app);
    cfg.mem = platform.config();
    cfg
}

/// Golden-table key of a paper-sized explore.
#[must_use]
pub fn paper_key(app: AppKind, platform: MemoryPreset) -> String {
    format!("paper-explore/{}/{}", app_slug(app), platform.name())
}

/// GA seeds a `serve-mix` request may carry; fixed, so the golden table
/// covers every request any workload seed can generate. An assumption,
/// as is the equal popularity of the explore mode and each GA seed (see
/// [`ServePlan::from_seed`]): no recorded traffic says how designers
/// split their requests between the two modes.
pub const GA_SEEDS: [u64; 2] = [7, 11];

/// The exploration a `serve-mix` request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Quick three-step methodology.
    Explore,
    /// Quick NSGA-II with this RNG seed.
    Ga(u64),
}

/// One configuration of the `serve-mix` request universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeItem {
    /// Application explored.
    pub app: AppKind,
    /// Platform explored on.
    pub platform: MemoryPreset,
    /// Exploration mode.
    pub mode: Mode,
}

impl ServeItem {
    /// The inline request carrying this configuration.
    #[must_use]
    pub fn request(&self) -> ExploreRequest {
        match self.mode {
            Mode::Explore => {
                let mut cfg = MethodologyConfig::quick(self.app);
                cfg.mem = self.platform.config();
                ExploreRequest::Explore(cfg)
            }
            Mode::Ga(seed) => {
                let mut cfg = GaConfig::quick(self.app);
                cfg.mem = self.platform.config();
                cfg.seed = seed;
                ExploreRequest::Ga(cfg)
            }
        }
    }

    /// Golden-table key.
    #[must_use]
    pub fn key(&self) -> String {
        let mode = match self.mode {
            Mode::Explore => "quick-explore".to_string(),
            Mode::Ga(seed) => format!("quick-ga{seed}"),
        };
        format!("{mode}/{}/{}", app_slug(self.app), self.platform.name())
    }
}

/// Every configuration a `serve-mix` request can name, in canonical
/// order: applications × platforms × modes.
#[must_use]
pub fn serve_universe() -> Vec<ServeItem> {
    let mut items = Vec::new();
    for app in AppKind::EXTENDED_ALL {
        for platform in MemoryPreset::ALL {
            items.push(ServeItem {
                app,
                platform,
                mode: Mode::Explore,
            });
            for seed in GA_SEEDS {
                items.push(ServeItem {
                    app,
                    platform,
                    mode: Mode::Ga(seed),
                });
            }
        }
    }
    items
}

/// Share of `serve-mix` requests that are `Ping`s: four pings per run,
/// the mix of the repository's CI fleet smoke test
/// (`ddtr loadtest --pings 4 --explores 1`).
pub const PING_SHARE: f64 = 0.8;

/// Zipf exponent of configuration popularity. Breslau et al., "Web
/// Caching and Zipf-like Distributions: Evidence and Implications"
/// (INFOCOM 1999), found web request popularity Zipf-like with an
/// exponent below 1; 0.8 is borrowed from that setting and has not been
/// checked against recorded `ddtr serve` traffic, of which there is none.
pub const ZIPF_S: f64 = 0.8;

/// One `serve-mix` client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// A `Ping`.
    Ping,
    /// A `Run` of the universe item at this index.
    Run(usize),
}

/// The seeded popularity order shared by every client.
#[derive(Debug, Clone, PartialEq)]
pub struct ServePlan {
    /// Universe index of each popularity rank (rank 0 is the most
    /// popular).
    pub by_rank: Vec<usize>,
    cdf: Vec<f64>,
    seed: u64,
}

impl ServePlan {
    /// The plan `seed` generates over the [`serve_universe`] (`n` items).
    /// Popularity ranks cycle through the modes, and within a mode
    /// through the applications, in a fixed order; the seed picks the
    /// platform at every rank. Every seed therefore asks for the same mix
    /// of modes and applications at every popularity level, and only the
    /// platforms (and the request sequences) differ. The modes share the
    /// traffic equally, an assumption (see [`GA_SEEDS`]).
    #[must_use]
    pub fn from_seed(seed: u64, n: usize) -> Self {
        let modes = 1 + GA_SEEDS.len();
        let apps = AppKind::EXTENDED_ALL.len();
        let platforms = MemoryPreset::ALL.len();
        let mut rng = Rng::new(seed, 2);
        // One platform order per (mode, app).
        let perms: Vec<Vec<usize>> = (0..modes * apps)
            .map(|_| {
                let mut p: Vec<usize> = (0..platforms).collect();
                rng.shuffle(&mut p);
                p
            })
            .collect();
        // Universe index = (app * platforms + platform) * modes + mode.
        let by_rank: Vec<usize> = (0..n.min(modes * apps * platforms))
            .map(|r| {
                let (mode, k) = (r % modes, r / modes);
                let (app, level) = (k % apps, k / apps);
                let platform = perms[mode * apps + app][level];
                (app * platforms + platform) * modes + mode
            })
            .collect();
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        ServePlan { by_rank, cdf, seed }
    }

    /// The request sequence of client `client`.
    #[must_use]
    pub fn client(&self, client: usize) -> RequestStream<'_> {
        RequestStream {
            plan: self,
            rng: Rng::new(self.seed, 100 + client as u64),
        }
    }
}

/// An endless, seeded request sequence of one client.
#[derive(Debug, Clone)]
pub struct RequestStream<'a> {
    plan: &'a ServePlan,
    rng: Rng,
}

impl Iterator for RequestStream<'_> {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        if self.rng.unit() < PING_SHARE {
            return Some(Req::Ping);
        }
        let u = self.rng.unit();
        let rank = self.plan.cdf.partition_point(|&c| c <= u);
        Some(Req::Run(
            self.plan.by_rank[rank.min(self.plan.by_rank.len() - 1)],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests(seed: u64, client: usize) -> Vec<Req> {
        let plan = ServePlan::from_seed(seed, serve_universe().len());
        plan.client(client).take(500).collect()
    }

    #[test]
    fn same_seed_same_explore_plan() {
        assert_eq!(ExplorePlan::from_seed(42), ExplorePlan::from_seed(42));
        let plan = ExplorePlan::from_seed(42);
        let mut apps: Vec<AppKind> = plan.items.iter().map(|&(a, _)| a).collect();
        apps.sort();
        assert_eq!(apps, AppKind::EXTENDED_ALL.to_vec(), "every app once");
        let mut platforms: Vec<MemoryPreset> = plan.items.iter().map(|&(_, m)| m).collect();
        platforms.sort();
        assert_eq!(platforms, MemoryPreset::ALL.to_vec(), "every platform once");
    }

    #[test]
    fn rotations_run_every_app_on_every_platform() {
        let plan = ExplorePlan::from_seed(7);
        assert_eq!(plan.rotation(0), plan.items);
        let mut all: Vec<(AppKind, MemoryPreset)> = (0..ExplorePlan::ROTATIONS)
            .flat_map(|k| plan.rotation(k))
            .collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 25, "each app on each platform once");
        assert_eq!(plan.rotation(ExplorePlan::ROTATIONS), plan.items);
        let order: Vec<AppKind> = plan.items.iter().map(|&(a, _)| a).collect();
        for k in 1..ExplorePlan::ROTATIONS {
            let rot = plan.rotation(k);
            assert_eq!(rot.iter().map(|&(a, _)| a).collect::<Vec<_>>(), order);
        }
    }

    #[test]
    fn different_seeds_change_platforms_and_order() {
        let plans: Vec<ExplorePlan> = (0..8).map(ExplorePlan::from_seed).collect();
        let orders: std::collections::BTreeSet<Vec<AppKind>> = plans
            .iter()
            .map(|p| p.items.iter().map(|&(a, _)| a).collect())
            .collect();
        let platforms: std::collections::BTreeSet<Vec<MemoryPreset>> = plans
            .iter()
            .map(|p| p.items.iter().map(|&(_, m)| m).collect())
            .collect();
        assert!(orders.len() > 1, "app order must depend on the seed");
        assert!(platforms.len() > 1, "platforms must depend on the seed");
        assert_ne!(ExplorePlan::from_seed(1), ExplorePlan::from_seed(2));
    }

    #[test]
    fn same_seed_same_request_sequence() {
        assert_eq!(requests(9, 0), requests(9, 0));
        assert_ne!(requests(9, 0), requests(10, 0), "seed changes requests");
        assert_ne!(requests(9, 0), requests(9, 1), "clients differ");
        let seq = requests(9, 0);
        let pings = seq.iter().filter(|r| **r == Req::Ping).count();
        assert!((350..=450).contains(&pings), "~80% pings, got {pings}");
    }

    #[test]
    fn popularity_is_zipf_skewed() {
        let plan = ServePlan::from_seed(3, serve_universe().len());
        let top = plan.by_rank[0];
        let seq: Vec<Req> = plan.client(0).take(20_000).collect();
        let runs: Vec<usize> = seq
            .iter()
            .filter_map(|r| match r {
                Req::Run(i) => Some(*i),
                Req::Ping => None,
            })
            .collect();
        let top_share = runs.iter().filter(|&&i| i == top).count() as f64 / runs.len() as f64;
        // 1 / sum(r^-0.8, r = 1..75) ~ 0.134.
        assert!((0.11..0.16).contains(&top_share), "top share {top_share}");
    }

    #[test]
    fn every_seed_asks_for_the_same_mix_on_other_platforms() {
        let universe = serve_universe();
        let mix = |seed: u64| -> Vec<(Mode, AppKind)> {
            ServePlan::from_seed(seed, universe.len())
                .by_rank
                .iter()
                .map(|&i| (universe[i].mode, universe[i].app))
                .collect()
        };
        assert_eq!(mix(1), mix(2), "same modes and apps at every rank");
        let mut ranked = ServePlan::from_seed(5, universe.len()).by_rank;
        ranked.sort_unstable();
        assert_eq!(
            ranked,
            (0..universe.len()).collect::<Vec<_>>(),
            "a permutation"
        );
        assert_ne!(
            ServePlan::from_seed(1, universe.len()).by_rank,
            ServePlan::from_seed(2, universe.len()).by_rank
        );
    }

    #[test]
    fn universe_keys_are_unique() {
        let keys: std::collections::BTreeSet<String> =
            serve_universe().iter().map(ServeItem::key).collect();
        assert_eq!(keys.len(), 75);
    }
}
