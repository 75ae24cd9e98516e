//! Differential tests: the optimised `Cache` and `SimAllocator` against
//! reference copies of their straightforward earlier implementations
//! (`Vec<Vec<Line>>` sets with `%`/`/` indexing; linear walks of a
//! `BTreeMap` free list). Random geometries, replacement policies, access
//! streams and alloc/free streams must produce identical outcomes,
//! counters and heap layouts.

use ddtr_mem::{
    AllocStats, Cache, CacheConfig, CacheStats, FitPolicy, LineAccess, ReplacementPolicy,
    SimAllocator, VirtAddr,
};
use proptest::prelude::*;

/// The reference implementations, kept verbatim in behaviour.
mod oracle {
    use super::*;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, Copy, Default)]
    struct Line {
        tag: u64,
        valid: bool,
        dirty: bool,
        stamp: u64,
    }

    pub struct RefCache {
        cfg: CacheConfig,
        sets: Vec<Vec<Line>>,
        clock: u64,
        rng: u64,
        stats: CacheStats,
    }

    impl RefCache {
        pub fn new(cfg: CacheConfig) -> Self {
            cfg.validate().expect("invalid cache configuration");
            let sets = cfg.sets() as usize;
            RefCache {
                cfg,
                sets: vec![vec![Line::default(); cfg.ways as usize]; sets],
                clock: 0,
                rng: 0x9E37_79B9_7F4A_7C15,
                stats: CacheStats::default(),
            }
        }

        pub fn stats(&self) -> CacheStats {
            self.stats
        }

        pub fn access_line(&mut self, addr: VirtAddr, write: bool) -> LineAccess {
            self.clock += 1;
            let line_idx = addr.line_index(self.cfg.line_bytes);
            let n_sets = self.sets.len() as u64;
            let set_idx = (line_idx % n_sets) as usize;
            let tag = line_idx / n_sets;
            let set = &mut self.sets[set_idx];

            if let Some(way) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
                if self.cfg.replacement == ReplacementPolicy::Lru {
                    way.stamp = self.clock;
                }
                way.dirty |= write;
                if write {
                    self.stats.write_hits += 1;
                } else {
                    self.stats.read_hits += 1;
                }
                return LineAccess {
                    hit: true,
                    writeback: false,
                    victim_line: None,
                };
            }

            if write {
                self.stats.write_misses += 1;
            } else {
                self.stats.read_misses += 1;
            }
            let victim = if let Some(invalid) = set.iter().position(|l| !l.valid) {
                invalid
            } else {
                match self.cfg.replacement {
                    ReplacementPolicy::Lru | ReplacementPolicy::Fifo => set
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, l)| l.stamp)
                        .map(|(i, _)| i)
                        .expect("cache set has at least one way"),
                    ReplacementPolicy::Random => {
                        self.rng ^= self.rng << 13;
                        self.rng ^= self.rng >> 7;
                        self.rng ^= self.rng << 17;
                        (self.rng % set.len() as u64) as usize
                    }
                }
            };
            let victim = &mut set[victim];
            let writeback = victim.valid && victim.dirty;
            if writeback {
                self.stats.writebacks += 1;
            }
            let victim_line = writeback.then(|| victim.tag * n_sets + set_idx as u64);
            victim.valid = true;
            victim.dirty = write;
            victim.tag = tag;
            victim.stamp = self.clock;
            LineAccess {
                hit: false,
                writeback,
                victim_line,
            }
        }

        pub fn valid_lines(&self) -> usize {
            self.sets
                .iter()
                .flat_map(|s| s.iter())
                .filter(|l| l.valid)
                .count()
        }
    }

    const HEADER_BYTES: u64 = 8;

    pub struct RefAllocator {
        policy: FitPolicy,
        cursor: u64,
        free: BTreeMap<u64, u64>,
        live: BTreeMap<u64, (u64, u64)>,
        stats: AllocStats,
    }

    impl RefAllocator {
        pub fn with_policy(base: u64, capacity: u64, policy: FitPolicy) -> Self {
            let mut free = BTreeMap::new();
            free.insert(base, capacity);
            RefAllocator {
                policy,
                cursor: base,
                free,
                live: BTreeMap::new(),
                stats: AllocStats::default(),
            }
        }

        fn select_region(&self, gross: u64) -> Option<(u64, u64)> {
            match self.policy {
                FitPolicy::FirstFit => self
                    .free
                    .iter()
                    .find(|(_, &len)| len >= gross)
                    .map(|(&start, &len)| (start, len)),
                FitPolicy::BestFit => self
                    .free
                    .iter()
                    .filter(|(_, &len)| len >= gross)
                    .min_by_key(|(&start, &len)| (len, start))
                    .map(|(&start, &len)| (start, len)),
                FitPolicy::NextFit => self
                    .free
                    .range(self.cursor..)
                    .chain(self.free.range(..self.cursor))
                    .find(|(_, &len)| len >= gross)
                    .map(|(&start, &len)| (start, len)),
            }
        }

        /// `None` on any failure (the reference's error variants differ).
        pub fn alloc(&mut self, size: u64) -> Option<VirtAddr> {
            if size == 0 {
                return None;
            }
            let gross = SimAllocator::gross_size(size);
            let Some((start, len)) = self.select_region(gross) else {
                self.stats.failed_allocs += 1;
                return None;
            };
            self.free.remove(&start);
            if len > gross {
                self.free.insert(start + gross, len - gross);
            }
            self.cursor = start + gross;
            let user = start + HEADER_BYTES;
            self.live.insert(user, (gross, size));
            self.stats.allocs += 1;
            self.stats.live_user_bytes += size;
            self.stats.live_gross_bytes += gross;
            self.stats.peak_gross_bytes =
                self.stats.peak_gross_bytes.max(self.stats.live_gross_bytes);
            Some(VirtAddr::new(user))
        }

        pub fn free(&mut self, addr: VirtAddr) -> bool {
            let user = addr.as_u64();
            let Some((gross, size)) = self.live.remove(&user) else {
                return false;
            };
            self.stats.frees += 1;
            self.stats.live_user_bytes -= size;
            self.stats.live_gross_bytes -= gross;
            let mut start = user - HEADER_BYTES;
            let mut len = gross;
            if let Some((&prev_start, &prev_len)) = self.free.range(..start).next_back() {
                if prev_start + prev_len == start {
                    self.free.remove(&prev_start);
                    start = prev_start;
                    len += prev_len;
                }
            }
            if let Some(&next_len) = self.free.get(&(start + len)) {
                self.free.remove(&(start + len));
                len += next_len;
            }
            self.free.insert(start, len);
            true
        }

        pub fn stats(&self) -> AllocStats {
            self.stats
        }

        pub fn free_regions(&self) -> usize {
            self.free.len()
        }

        pub fn live_blocks(&self) -> usize {
            self.live.len()
        }
    }
}

const POLICIES: [ReplacementPolicy; 3] = [
    ReplacementPolicy::Lru,
    ReplacementPolicy::Fifo,
    ReplacementPolicy::Random,
];

const FITS: [FitPolicy; 3] = [FitPolicy::FirstFit, FitPolicy::BestFit, FitPolicy::NextFit];

/// Random valid geometries: power-of-two lines, 1–8 ways and set counts
/// that are powers of two or not (3, 5, 6, 12, 48, 384 ...).
fn geometry() -> impl Strategy<Value = CacheConfig> {
    (0usize..4, 1u32..9, 1u64..400, 0usize..3).prop_map(|(line_pow, ways, sets, repl)| {
        let line_bytes = 8u64 << line_pow;
        CacheConfig {
            capacity_bytes: line_bytes * u64::from(ways) * sets,
            line_bytes,
            ways,
            hit_cycles: 1,
            replacement: POLICIES[repl],
        }
    })
}

/// Accesses concentrated on a window a few times the cache size, with runs
/// of same-line repeats (the fast path) and far-away strays.
fn accesses() -> impl Strategy<Value = Vec<(u64, bool, u8)>> {
    prop::collection::vec((any::<u64>(), any::<bool>(), 0u8..4), 1..600)
}

fn check_cache(cfg: CacheConfig, ops: &[(u64, bool, u8)]) -> Result<(), TestCaseError> {
    let mut fast = Cache::new(cfg);
    let mut slow = oracle::RefCache::new(cfg);
    let window = cfg.capacity_bytes * 3;
    for &(raw, write, repeat) in ops {
        // One access in sixteen lands anywhere in a 2^40 range.
        let addr = if raw % 16 == 0 {
            raw >> 24
        } else {
            0x1000 + raw % window
        };
        for _ in 0..=repeat {
            let addr = VirtAddr::new(addr);
            prop_assert_eq!(fast.access_line(addr, write), slow.access_line(addr, write));
        }
        prop_assert_eq!(fast.stats(), slow.stats());
    }
    prop_assert_eq!(fast.valid_lines(), slow.valid_lines());
    Ok(())
}

proptest! {
    /// Every access returns the same outcome and victim, with the same
    /// counters, for random geometries under all three replacement
    /// policies.
    #[test]
    fn cache_matches_the_reference(cfg in geometry(), ops in accesses()) {
        check_cache(cfg, &ops)?;
    }

    /// The non-power-of-two L1 of the issue's example (48 KiB, 4-way,
    /// 32-byte lines = 384 sets) under each replacement policy.
    #[test]
    fn cache_384_sets_matches_the_reference(repl in 0usize..3, ops in accesses()) {
        let cfg = CacheConfig {
            capacity_bytes: 48 * 1024,
            line_bytes: 32,
            ways: 4,
            hit_cycles: 1,
            replacement: POLICIES[repl],
        };
        check_cache(cfg, &ops)?;
    }

    /// Random alloc/free streams (including double and wild frees) give the
    /// same addresses, failures, counters and free-list shape under every
    /// fit policy.
    #[test]
    fn allocator_matches_the_reference(
        fit in 0usize..3,
        capacity in 256u64..16_384,
        ops in alloc_ops(),
    ) {
        check_allocator(FITS[fit], capacity, 0, &ops)?;
    }

    /// The same after hundreds of small blocks were freed at random, so
    /// the free list holds hundreds of regions and its index several
    /// chunks.
    #[test]
    fn fragmented_allocator_matches_the_reference(
        fit in 0usize..3,
        prefill in 200usize..900,
        ops in alloc_ops(),
    ) {
        check_allocator(FITS[fit], 1 << 20, prefill, &ops)?;
    }
}

/// `(kind, size, pick)`: kinds 0–2 free a live block, 3 frees a dead or
/// wild address, the rest allocate `size` bytes.
fn alloc_ops() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    prop::collection::vec((0u8..8, 0u64..600, any::<u64>()), 1..400)
}

fn check_allocator(
    policy: FitPolicy,
    capacity: u64,
    prefill: usize,
    ops: &[(u8, u64, u64)],
) -> Result<(), TestCaseError> {
    let mut fast = SimAllocator::with_policy(0x1000, capacity, policy);
    let mut slow = oracle::RefAllocator::with_policy(0x1000, capacity, policy);
    let mut live: Vec<VirtAddr> = Vec::new();
    let mut freed: Vec<VirtAddr> = Vec::new();
    // Prefill with blocks of 1–600 bytes, then free every block whose pick bit is
    // set: a free list of up to hundreds of regions.
    let picks: Vec<u64> = ops.iter().map(|op| op.2).collect();
    for n in 0..prefill {
        let size = 1 + (n as u64 * 37) % 600;
        let got = fast.alloc(size).ok();
        prop_assert_eq!(got, slow.alloc(size));
        live.extend(got);
    }
    for (n, &addr) in live.clone().iter().enumerate() {
        if picks
            .get(n % picks.len())
            .is_some_and(|p| (p >> (n % 64)) & 1 == 1)
        {
            prop_assert_eq!(fast.free(addr).is_ok(), slow.free(addr));
            live.retain(|&a| a != addr);
            freed.push(addr);
        }
    }
    for &(kind, size, pick) in ops {
        match kind {
            // Frees of live blocks, in random order.
            0..=2 if !live.is_empty() => {
                let addr = live.swap_remove((pick % live.len() as u64) as usize);
                prop_assert_eq!(fast.free(addr).is_ok(), slow.free(addr));
                freed.push(addr);
            }
            // A double free or a wild pointer: rejected by both.
            3 => {
                let addr = match freed.get((pick % 4) as usize) {
                    Some(&a) if !live.contains(&a) => a,
                    _ => VirtAddr::new(pick | 1),
                };
                prop_assert!(fast.free(addr).is_err());
                prop_assert!(!slow.free(addr));
            }
            _ => {
                let got = fast.alloc(size).ok();
                prop_assert_eq!(got, slow.alloc(size));
                if let Some(addr) = got {
                    live.push(addr);
                    freed.retain(|&a| a != addr);
                }
            }
        }
        prop_assert_eq!(fast.stats(), slow.stats());
        prop_assert_eq!(fast.free_regions(), slow.free_regions());
        prop_assert_eq!(fast.live_blocks(), slow.live_blocks());
    }
    Ok(())
}
