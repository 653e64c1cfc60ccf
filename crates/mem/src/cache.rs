//! Set-associative cache with LRU replacement and clean/dirty line states.
//!
//! One `Cache` instance models either a private L1 (16 KB, 8-way, 32 B
//! lines in Table 4) or one L2/LLC bank (512 KB, 16-way, 64 B lines).
//! Addresses are tracked at line granularity; the cache stores no data,
//! only tags and states, which is all a timing model needs.

use serde::{Deserialize, Serialize};

/// Coherence state of a cached line: the two states the caches produce.
/// Sharing is tracked by the [`Directory`](crate::Directory), which
/// invalidates the other copies on a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LineState {
    /// Modified: exclusive and dirty.
    Modified,
    /// Exclusive: clean.
    Exclusive,
}

impl LineState {
    /// Whether this state requires a writeback on eviction.
    pub fn is_dirty(self) -> bool {
        self == LineState::Modified
    }
}

/// Type of memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Access {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u16,
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Table 4 L1 data cache: 16 KB, 8-way, 32 B lines.
    pub fn paper_l1() -> Self {
        CacheConfig { size_bytes: 16 * 1024, ways: 8, line_bytes: 32 }
    }

    /// Table 4 L2 bank: 512 KB per core, 16-way, 64 B lines.
    pub fn paper_l2_bank() -> Self {
        CacheConfig { size_bytes: 512 * 1024, ways: 16, line_bytes: 64 }
    }

    /// The simulated L1: Table 4's associativity and line size at 8 KB,
    /// scaled down with the workloads' footprints.
    pub fn scaled_l1() -> Self {
        CacheConfig { size_bytes: 8 * 1024, ..Self::paper_l1() }
    }

    /// The simulated L2 bank: Table 4's associativity and line size at
    /// 32 KB per core, scaled down with the workloads' footprints.
    pub fn scaled_l2_bank() -> Self {
        CacheConfig { size_bytes: 32 * 1024, ..Self::paper_l2_bank() }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.ways as u64 * self.line_bytes)
    }
}

/// A line evicted to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Evicted {
    /// Line index (physical address / line size) of the victim.
    pub line: u64,
    /// Whether the victim was dirty (requires a writeback message).
    pub dirty: bool,
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Lookup {
    /// The line was present.
    Hit,
    /// The line was absent; it has been filled, possibly evicting a victim.
    Miss {
        /// The line that was evicted to make room, if the set was full.
        evicted: Option<Evicted>,
    },
}

impl Lookup {
    /// True if the access hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, Lookup::Hit)
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
    /// Number of dirty evictions (writebacks generated).
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss ratio in [0, 1]; 0 when no accesses occurred.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Folds another stats block into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.writebacks += other.writebacks;
    }
}

/// Every state, indexed by its declaration order (`state as u64`).
const STATES: [LineState; 2] = [LineState::Modified, LineState::Exclusive];

/// A slot's stamp: the tick of its last use, with the line's state in the
/// low bit. Ticks are unique, so stamps order slots as ticks do.
fn stamp(tick: u64, state: LineState) -> u64 {
    tick << 1 | state as u64
}

fn state_of_stamp(stamp: u64) -> LineState {
    STATES[(stamp & 1) as usize]
}

/// A set-associative, write-back, write-allocate cache model.
///
/// The sets live in flat `sets × ways` slot arrays: set `s` is the first
/// `fill[s]` slots from `s * ways`, in no particular order (the LRU victim
/// is the slot with the smallest stamp).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    ways: usize,
    /// `sets - 1`: line `l` lives in set `l & set_mask`.
    set_mask: u64,
    /// `log2(line_bytes)`: byte address `a` lies in line `a >> line_shift`.
    line_shift: u32,
    /// The line index each slot holds.
    tags: Vec<u64>,
    /// Each slot's [`stamp`].
    stamps: Vec<u64>,
    /// Occupied slots per set.
    fill: Vec<u16>,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with geometry `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets or ways) or if sizes
    /// are not powers of two.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.ways > 0, "cache must have at least one way");
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be a power of two");
        let sets = cfg.sets();
        assert!(sets > 0, "cache smaller than one set");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let slots = sets as usize * cfg.ways as usize;
        // Zeroed arrays are allocated zeroed (calloc), so construction is
        // cheap and the pages of sets never touched need not be resident.
        Cache {
            cfg,
            ways: cfg.ways as usize,
            set_mask: sets - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            tags: vec![0; slots],
            stamps: vec![0; slots],
            fill: vec![0; sets as usize],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// The line index of byte address `addr` for this cache's line size.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// The set of `line` and the first slot of that set.
    fn set_of(&self, line: u64) -> (usize, usize) {
        let set = (line & self.set_mask) as usize;
        (set, set * self.ways)
    }

    /// The slot holding `line`, if any.
    fn find(&self, line: u64) -> Option<usize> {
        let (set, base) = self.set_of(line);
        let used = &self.tags[base..base + self.fill[set] as usize];
        used.iter().position(|&t| t == line).map(|i| base + i)
    }

    /// Accesses `line` (a line index, not a byte address). On a miss the
    /// line is filled; if the set was full the LRU entry is evicted and
    /// returned.
    ///
    /// Fill state: a read fill installs `Exclusive`, a write fill (or a
    /// write hit) installs/upgrades to `Modified`.
    pub fn access(&mut self, line: u64, access: Access) -> Lookup {
        self.tick += 1;
        if let Some(slot) = self.find(line) {
            let state = match access {
                Access::Read => state_of_stamp(self.stamps[slot]),
                Access::Write => LineState::Modified,
            };
            self.stamps[slot] = stamp(self.tick, state);
            self.stats.hits += 1;
            return Lookup::Hit;
        }

        self.stats.misses += 1;
        let fill_state = match access {
            Access::Read => LineState::Exclusive,
            Access::Write => LineState::Modified,
        };
        let (set, base) = self.set_of(line);
        let used = self.fill[set] as usize;
        let (slot, evicted) = if used < self.ways {
            self.fill[set] += 1;
            (base + used, None)
        } else {
            let stamps = &self.stamps[base..base + self.ways];
            let lru = base + (0..self.ways).min_by_key(|&i| stamps[i]).expect("non-empty full set");
            let dirty = state_of_stamp(self.stamps[lru]).is_dirty();
            if dirty {
                self.stats.writebacks += 1;
            }
            (lru, Some(Evicted { line: self.tags[lru], dirty }))
        };
        self.tags[slot] = line;
        self.stamps[slot] = stamp(self.tick, fill_state);
        Lookup::Miss { evicted }
    }

    /// Checks for presence without changing replacement state or counters.
    pub fn probe(&self, line: u64) -> bool {
        self.find(line).is_some()
    }

    /// The coherence state of `line` if present.
    #[cfg(test)]
    fn state_of(&self, line: u64) -> Option<LineState> {
        self.find(line).map(|slot| state_of_stamp(self.stamps[slot]))
    }

    /// Invalidates `line` (e.g. on a remote write); returns whether it was
    /// present and dirty (a writeback is then required).
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let slot = self.find(line)?;
        let dirty = state_of_stamp(self.stamps[slot]).is_dirty();
        // The set's last occupied slot moves into the hole.
        let (set, base) = self.set_of(line);
        self.fill[set] -= 1;
        let last = base + self.fill[set] as usize;
        self.tags[slot] = self.tags[last];
        self.stamps[slot] = self.stamps[last];
        Some(dirty)
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets counters (e.g. after warm-up) without flushing contents.
    pub fn clear_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Empties the cache and resets counters.
    pub fn flush(&mut self) {
        self.fill.fill(0);
        self.stats = CacheStats::default();
        self.tick = 0;
    }

    /// Number of lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.fill.iter().map(|&n| n as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_accumulates() {
        let mut m = CacheStats { hits: 5, misses: 2, writebacks: 1 };
        m.merge(&CacheStats { hits: 1, misses: 3, writebacks: 4 });
        assert_eq!(m, CacheStats { hits: 6, misses: 5, writebacks: 5 });
    }
    use proptest::prelude::*;

    /// The reference model: the cache as it was before the flat slot
    /// arrays, one `Vec` of entries per set, indexed with `%`.
    struct NestedCache {
        ways: usize,
        sets: Vec<Vec<Entry>>,
        tick: u64,
        stats: CacheStats,
    }

    #[derive(Clone, Copy)]
    struct Entry {
        tag: u64,
        state: LineState,
        last_use: u64,
    }

    impl NestedCache {
        fn new(cfg: CacheConfig) -> Self {
            let ways = cfg.ways as usize;
            let sets = (0..cfg.sets()).map(|_| Vec::with_capacity(ways)).collect();
            NestedCache { ways, sets, tick: 0, stats: CacheStats::default() }
        }

        fn set(&mut self, line: u64) -> &mut Vec<Entry> {
            let n = self.sets.len() as u64;
            &mut self.sets[(line % n) as usize]
        }

        fn access(&mut self, line: u64, access: Access) -> Lookup {
            self.tick += 1;
            let (tick, ways) = (self.tick, self.ways);
            if let Some(e) = self.set(line).iter_mut().find(|e| e.tag == line) {
                e.last_use = tick;
                if access == Access::Write {
                    e.state = LineState::Modified;
                }
                self.stats.hits += 1;
                return Lookup::Hit;
            }
            self.stats.misses += 1;
            let state = match access {
                Access::Read => LineState::Exclusive,
                Access::Write => LineState::Modified,
            };
            let set = self.set(line);
            let evicted = if set.len() < ways {
                None
            } else {
                let lru = (0..set.len()).min_by_key(|&i| set[i].last_use).unwrap();
                let victim = set.swap_remove(lru);
                Some(Evicted { line: victim.tag, dirty: victim.state.is_dirty() })
            };
            set.push(Entry { tag: line, state, last_use: tick });
            if evicted.is_some_and(|e| e.dirty) {
                self.stats.writebacks += 1;
            }
            Lookup::Miss { evicted }
        }

        fn state_of(&mut self, line: u64) -> Option<LineState> {
            self.set(line).iter().find(|e| e.tag == line).map(|e| e.state)
        }

        fn invalidate(&mut self, line: u64) -> Option<bool> {
            let set = self.set(line);
            let pos = set.iter().position(|e| e.tag == line)?;
            Some(set.swap_remove(pos).state.is_dirty())
        }

        fn resident_lines(&self) -> usize {
            self.sets.iter().map(Vec::len).sum()
        }
    }

    proptest! {
        #[test]
        fn flat_cache_matches_nested_sets(
            geometry in 0u8..3,
            ops in collection::vec((0u8..7, 0u64..1 << 14, 0u64..3), 1..3_000),
        ) {
            let cfg = match geometry {
                0 => CacheConfig { size_bytes: 512, ways: 2, line_bytes: 64 },
                1 => CacheConfig::paper_l1(),
                _ => CacheConfig::paper_l2_bank(),
            };
            let (sets, ways) = (cfg.sets(), cfg.ways as u64);
            let (mut flat, mut nested) = (Cache::new(cfg), NestedCache::new(cfg));
            for (op, line, hot) in ops {
                // A third of the stream re-touches eight hot lines, a third
                // crowds four sets with four times their ways, and a third
                // spans twice the capacity.
                let line = match hot {
                    0 => line % 8,
                    1 => (line / 4 % (4 * ways)) * sets + line % 4,
                    _ => line % (2 * sets * ways),
                };
                match op {
                    0..=3 => prop_assert_eq!(flat.access(line, Access::Read), nested.access(line, Access::Read)),
                    4 | 5 => prop_assert_eq!(flat.access(line, Access::Write), nested.access(line, Access::Write)),
                    _ => prop_assert_eq!(flat.invalidate(line), nested.invalidate(line)),
                }
                prop_assert_eq!(flat.state_of(line), nested.state_of(line));
                prop_assert_eq!(flat.stats(), &nested.stats);
            }
            prop_assert_eq!(flat.resident_lines(), nested.resident_lines());
        }
    }

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64 B = 512 B.
        Cache::new(CacheConfig { size_bytes: 512, ways: 2, line_bytes: 64 })
    }

    #[test]
    fn geometry() {
        assert_eq!(CacheConfig::paper_l1().sets(), 64);
        assert_eq!(CacheConfig::paper_l2_bank().sets(), 512);
        assert_eq!(CacheConfig::scaled_l1().sets(), 32);
        assert_eq!(CacheConfig::scaled_l2_bank().sets(), 32);
        assert_eq!(tiny().config().sets(), 4);
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny();
        assert!(!c.access(10, Access::Read).is_hit());
        assert!(c.access(10, Access::Read).is_hit());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (line % 4 == 0). Ways = 2.
        c.access(0, Access::Read);
        c.access(4, Access::Read);
        c.access(0, Access::Read); // 0 is now MRU, 4 is LRU
        match c.access(8, Access::Read) {
            Lookup::Miss { evicted: Some(e) } => assert_eq!(e.line, 4),
            other => panic!("expected eviction of line 4, got {other:?}"),
        }
        assert!(c.probe(0));
        assert!(!c.probe(4));
        assert!(c.probe(8));
    }

    #[test]
    fn write_makes_line_dirty_and_eviction_reports_it() {
        let mut c = tiny();
        c.access(0, Access::Write);
        assert_eq!(c.state_of(0), Some(LineState::Modified));
        c.access(4, Access::Read);
        c.access(8, Access::Read); // evicts LRU = line 0 (dirty)
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn read_fill_is_exclusive_write_hit_upgrades() {
        let mut c = tiny();
        c.access(0, Access::Read);
        assert_eq!(c.state_of(0), Some(LineState::Exclusive));
        c.access(0, Access::Write);
        assert_eq!(c.state_of(0), Some(LineState::Modified));
    }

    #[test]
    fn invalidate_reports_dirty_and_drops_the_line() {
        let mut c = tiny();
        c.access(0, Access::Write);
        assert_eq!(c.invalidate(0), Some(true));
        assert!(!c.probe(0));
        assert_eq!(c.invalidate(0), None);
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = tiny();
        c.access(0, Access::Read);
        c.access(4, Access::Read);
        // Probe 0 (would refresh LRU if buggy), then fill: 0 must still be
        // the LRU victim.
        assert!(c.probe(0));
        match c.access(8, Access::Read) {
            Lookup::Miss { evicted: Some(e) } => assert_eq!(e.line, 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn flush_empties() {
        let mut c = tiny();
        c.access(0, Access::Read);
        c.access(1, Access::Read);
        assert_eq!(c.resident_lines(), 2);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn miss_ratio() {
        let mut c = tiny();
        c.access(0, Access::Read);
        c.access(0, Access::Read);
        c.access(0, Access::Read);
        c.access(1, Access::Read);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_bounded_by_geometry() {
        let mut c = tiny();
        for l in 0..1000 {
            c.access(l, Access::Read);
        }
        assert!(c.resident_lines() <= 8);
    }
}
