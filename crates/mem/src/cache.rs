//! Set-associative write-back L1 cache simulator.

use crate::config::{CacheConfig, ReplacementPolicy};
use crate::VirtAddr;
use serde::{Deserialize, Serialize};

/// Hit/miss counters of a [`Cache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Read accesses that hit.
    pub read_hits: u64,
    /// Read accesses that missed.
    pub read_misses: u64,
    /// Write accesses that hit.
    pub write_hits: u64,
    /// Write accesses that missed.
    pub write_misses: u64,
    /// Dirty lines written back to the next level on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses observed.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.read_hits + self.read_misses + self.write_hits + self.write_misses
    }

    /// Miss ratio in `[0, 1]`; zero when no access has been made.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            (self.read_misses + self.write_misses) as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotonic timestamp of last touch, for LRU.
    stamp: u64,
}

/// Outcome of a single line-sized cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineAccess {
    /// Whether the line was resident.
    pub hit: bool,
    /// Whether a dirty line was evicted (must be written to the next
    /// level).
    pub writeback: bool,
    /// Global line index of the evicted dirty line, when `writeback`.
    pub victim_line: Option<u64>,
}

/// How a global line index splits into set index and tag.
#[derive(Debug, Clone, Copy)]
enum SetIndex {
    /// Power-of-two set count: `set = line & mask`, `tag = line >> shift`.
    Pow2 { mask: u64, shift: u32 },
    /// Any other set count: `set = line % sets`, `tag = line / sets`.
    Modulo { sets: u64 },
}

impl SetIndex {
    #[inline]
    fn split(self, line: u64) -> (usize, u64) {
        match self {
            SetIndex::Pow2 { mask, shift } => ((line & mask) as usize, line >> shift),
            SetIndex::Modulo { sets } => ((line % sets) as usize, line / sets),
        }
    }

    #[inline]
    fn join(self, set: usize, tag: u64) -> u64 {
        match self {
            SetIndex::Pow2 { shift, .. } => (tag << shift) | set as u64,
            SetIndex::Modulo { sets } => tag * sets + set as u64,
        }
    }
}

/// A set-associative, write-back, write-allocate cache with configurable
/// replacement ([`ReplacementPolicy`]; LRU by default).
///
/// The cache stores no data — only tags — because the simulation needs
/// timing and energy, not values. One [`Cache::access`] call covers exactly
/// one cache line; [`crate::MemorySystem`] splits larger transfers.
///
/// The lines live in one flat, set-major slice (`ways` lines per set). A
/// line index is the address shifted by `log2(line_bytes)`; it splits into
/// set and tag with a mask and a shift when the set count is a power of
/// two, and with `%`/`/` otherwise. An access to the same line as the
/// previous access skips the way scan: nothing can have evicted that line
/// in between, and the hit updates clock, LRU stamp, dirty bit and
/// counters exactly as a scanned hit does.
///
/// # Example
///
/// ```
/// use ddtr_mem::{Cache, CacheConfig, VirtAddr};
///
/// let mut cache = Cache::new(CacheConfig::default());
/// let addr = VirtAddr::new(0x2000);
/// // Cold miss, then hit.
/// cache.access(addr, false);
/// cache.access(addr, false);
/// assert_eq!(cache.stats().read_misses, 1);
/// assert_eq!(cache.stats().read_hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Set-major lines: set `s` is `lines[s * ways..(s + 1) * ways]`.
    lines: Box<[Line]>,
    ways: usize,
    line_shift: u32,
    index: SetIndex,
    /// Line index and slot of the previous access; that line is resident.
    mru: Option<(u64, usize)>,
    clock: u64,
    /// Deterministic xorshift state for [`ReplacementPolicy::Random`].
    rng: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CacheConfig::validate`].
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate().expect("invalid cache configuration");
        let sets = cfg.sets();
        let ways = cfg.ways as usize;
        let index = if sets.is_power_of_two() {
            SetIndex::Pow2 {
                mask: sets - 1,
                shift: sets.trailing_zeros(),
            }
        } else {
            SetIndex::Modulo { sets }
        };
        Cache {
            cfg,
            lines: vec![Line::default(); sets as usize * ways].into_boxed_slice(),
            ways,
            line_shift: cfg.line_bytes.trailing_zeros(),
            index,
            mru: None,
            clock: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
            stats: CacheStats::default(),
        }
    }

    /// Geometry of this cache.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears counters but keeps cache contents (for phase-separated
    /// measurement).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Accesses the line containing `addr`. `write` selects a store.
    ///
    /// Returns whether the access hit and whether a dirty line was evicted
    /// (a writeback to the next level).
    pub fn access(&mut self, addr: VirtAddr, write: bool) -> (bool, bool) {
        let outcome = self.access_line(addr, write);
        (outcome.hit, outcome.writeback)
    }

    /// Like [`Cache::access`], but also reports which line was evicted so
    /// a multi-level hierarchy can route the writeback to the correct
    /// next-level set.
    #[inline]
    pub fn access_line(&mut self, addr: VirtAddr, write: bool) -> LineAccess {
        self.access_index(addr.as_u64() >> self.line_shift, write)
    }

    /// [`Cache::access_line`] on a global line index (the address divided
    /// by the line size), for callers that already hold one.
    #[inline(always)]
    pub(crate) fn access_index(&mut self, line: u64, write: bool) -> LineAccess {
        const HIT: LineAccess = LineAccess {
            hit: true,
            writeback: false,
            victim_line: None,
        };
        self.clock += 1;
        if let Some((mru_line, slot)) = self.mru {
            if mru_line == line {
                self.hit(slot, write);
                return HIT;
            }
        }
        let (set_idx, tag) = self.index.split(line);
        let base = set_idx * self.ways;
        let way = self.lines[base..base + self.ways]
            .iter()
            .position(|l| l.valid && l.tag == tag);
        match way {
            Some(way) => {
                self.hit(base + way, write);
                self.mru = Some((line, base + way));
                HIT
            }
            None => self.fill(line, set_idx, tag, write),
        }
    }

    #[inline]
    fn hit(&mut self, slot: usize, write: bool) {
        let line = &mut self.lines[slot];
        // FIFO and Random keep the fill-time stamp; only LRU refreshes
        // recency on a hit.
        if self.cfg.replacement == ReplacementPolicy::Lru {
            line.stamp = self.clock;
        }
        line.dirty |= write;
        if write {
            self.stats.write_hits += 1;
        } else {
            self.stats.read_hits += 1;
        }
    }

    /// Miss: allocates (write-allocate) `line`, which splits into
    /// `set_idx` and `tag`, over the policy's victim way.
    #[inline(never)]
    fn fill(&mut self, line: u64, set_idx: usize, tag: u64, write: bool) -> LineAccess {
        if write {
            self.stats.write_misses += 1;
        } else {
            self.stats.read_misses += 1;
        }
        let base = set_idx * self.ways;
        let set = &self.lines[base..base + self.ways];
        let way = match self.cfg.replacement {
            // LRU evicts the least recently touched way; FIFO the
            // oldest-filled (stamps are only refreshed under LRU, so the
            // same min-stamp scan serves both). An invalid way has never
            // been stamped (stamp 0, every fill stamps the clock, which is
            // at least 1), so the scan picks the first invalid way first.
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.stamp)
                .map(|(i, _)| i)
                .expect("cache set has at least one way"),
            ReplacementPolicy::Random => match set.iter().position(|l| !l.valid) {
                Some(invalid) => invalid,
                None => {
                    // xorshift64* — deterministic across runs.
                    self.rng ^= self.rng << 13;
                    self.rng ^= self.rng >> 7;
                    self.rng ^= self.rng << 17;
                    (self.rng % self.ways as u64) as usize
                }
            },
        };
        let slot = base + way;
        let victim = &mut self.lines[slot];
        let writeback = victim.valid && victim.dirty;
        if writeback {
            self.stats.writebacks += 1;
        }
        let victim_line = writeback.then(|| self.index.join(set_idx, victim.tag));
        *victim = Line {
            tag,
            valid: true,
            dirty: write,
            stamp: self.clock,
        };
        self.mru = Some((line, slot));
        LineAccess {
            hit: false,
            writeback,
            victim_line,
        }
    }

    /// Number of currently valid lines (useful in tests).
    #[must_use]
    pub fn valid_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        tiny_with(ReplacementPolicy::Lru)
    }

    fn tiny_with(replacement: ReplacementPolicy) -> Cache {
        // 4 sets x 2 ways x 32B lines = 256 B.
        Cache::new(CacheConfig {
            capacity_bytes: 256,
            line_bytes: 32,
            ways: 2,
            hit_cycles: 1,
            replacement,
        })
    }

    fn addr_for(set: u64, tag: u64) -> VirtAddr {
        // line_idx = tag * n_sets + set; addr = line_idx * line_bytes
        VirtAddr::new((tag * 4 + set) * 32)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        let a = addr_for(0, 1);
        assert_eq!(c.access(a, false), (false, false));
        assert_eq!(c.access(a, false), (true, false));
        assert_eq!(c.stats().read_misses, 1);
        assert_eq!(c.stats().read_hits, 1);
    }

    #[test]
    fn same_line_different_offsets_hit() {
        let mut c = tiny();
        c.access(VirtAddr::new(0x40), false);
        assert!(c.access(VirtAddr::new(0x5f), false).0);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        let a = addr_for(0, 1);
        let b = addr_for(0, 2);
        let d = addr_for(0, 3);
        c.access(a, false); // miss
        c.access(b, false); // miss — set 0 full
        c.access(a, false); // hit, refresh a
        c.access(d, false); // miss, evicts b (LRU)
        assert!(c.access(a, false).0, "a survived");
        assert!(!c.access(b, false).0, "b was evicted");
    }

    #[test]
    fn dirty_eviction_triggers_writeback() {
        let mut c = tiny();
        let a = addr_for(1, 1);
        let b = addr_for(1, 2);
        let d = addr_for(1, 3);
        c.access(a, true); // dirty
        c.access(b, false);
        let (_, wb) = c.access(d, false); // evicts dirty a
        assert!(wb);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(addr_for(2, 1), false);
        c.access(addr_for(2, 2), false);
        let (_, wb) = c.access(addr_for(2, 3), false);
        assert!(!wb);
    }

    #[test]
    fn write_hit_marks_line_dirty() {
        let mut c = tiny();
        let a = addr_for(3, 1);
        c.access(a, false); // clean fill
        c.access(a, true); // dirty it
        c.access(addr_for(3, 2), false);
        let (_, wb) = c.access(addr_for(3, 3), false); // evict a
        assert!(wb, "line dirtied by the write hit must be written back");
    }

    #[test]
    fn miss_ratio_is_computed() {
        let mut c = tiny();
        assert_eq!(c.stats().miss_ratio(), 0.0);
        c.access(addr_for(0, 1), false);
        c.access(addr_for(0, 1), false);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = tiny();
        let a = addr_for(0, 1);
        c.access(a, false);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert!(c.access(a, false).0, "line still cached");
    }

    #[test]
    fn fifo_ignores_hits_when_choosing_the_victim() {
        let mut c = tiny_with(ReplacementPolicy::Fifo);
        let a = addr_for(0, 1);
        let b = addr_for(0, 2);
        let d = addr_for(0, 3);
        c.access(a, false); // filled first
        c.access(b, false);
        c.access(a, false); // hit: would rescue `a` under LRU, not FIFO
        c.access(d, false); // evicts the oldest fill = a
        assert!(!c.access(a, false).0, "FIFO evicted the oldest fill");
        // That probe refilled `a`, evicting FIFO-oldest `b`.
        assert!(!c.access(b, false).0);
    }

    #[test]
    fn lru_and_fifo_diverge_on_the_rescue_pattern() {
        // Same access stream, different survivor: the canonical
        // policy-sensitivity witness.
        let stream = |c: &mut Cache| {
            c.access(addr_for(0, 1), false);
            c.access(addr_for(0, 2), false);
            c.access(addr_for(0, 1), false); // rescue under LRU
            c.access(addr_for(0, 3), false); // forces an eviction
            c.access(addr_for(0, 1), false).0 // did tag 1 survive?
        };
        assert!(stream(&mut tiny_with(ReplacementPolicy::Lru)));
        assert!(!stream(&mut tiny_with(ReplacementPolicy::Fifo)));
    }

    #[test]
    fn random_replacement_is_deterministic_across_runs() {
        let run = || {
            let mut c = tiny_with(ReplacementPolicy::Random);
            for i in 0..200u64 {
                c.access(addr_for(i % 4, (i * 7) % 13), i % 3 == 0);
            }
            c.stats()
        };
        assert_eq!(run(), run(), "xorshift victims must replay identically");
    }

    #[test]
    fn random_replacement_fills_invalid_ways_first() {
        let mut c = tiny_with(ReplacementPolicy::Random);
        c.access(addr_for(1, 1), false);
        c.access(addr_for(1, 2), false);
        // Both fills land in empty ways: no eviction has happened, so both
        // must still be resident.
        assert!(c.access(addr_for(1, 1), false).0);
        assert!(c.access(addr_for(1, 2), false).0);
    }

    #[test]
    fn valid_lines_grow_to_capacity() {
        let mut c = tiny();
        for tag in 0..4 {
            for set in 0..4 {
                c.access(addr_for(set, tag), false);
            }
        }
        assert_eq!(c.valid_lines(), 8, "4 sets x 2 ways all valid");
    }
}
