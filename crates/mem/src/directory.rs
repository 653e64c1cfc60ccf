//! Sharer directory for write-invalidate coherence.
//!
//! Tracks, per cache line, which cores' L1s hold a copy. The simulator
//! consults it to generate invalidation traffic when a core writes a line
//! that other cores cache. The workloads in the paper are parallel loop
//! nests with mostly disjoint write sets, so the directory is small and
//! sparse; it is consulted on every L1 miss and write, so each line's
//! sharers are one inline 64-bit mask per 64 cores, with no per-line
//! allocation, in a map hashed by a single multiply.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash's multiply step, as in `locmap_loopir::FxHasher` (the hasher behind the
/// mapping memo keys): deterministic, and one multiply per line index.
#[derive(Debug, Clone, Copy, Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

/// Line index → the line's sharers among one group of 64 cores.
type MaskMap = HashMap<u64, u64, BuildHasherDefault<LineHasher>>;

/// A sparse full-map directory: line index → sharer bitmask(s).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Directory {
    /// `masks[w]` holds bit `c % 64` of every line that core
    /// `c = 64 * w + ..` shares; a line with no sharer in a word has no
    /// entry there. One map on a mesh of up to 64 cores.
    masks: Vec<MaskMap>,
    cores: usize,
}

impl Directory {
    /// Creates a directory for `cores` cores.
    pub fn new(cores: usize) -> Self {
        let words = cores.div_ceil(64).max(1);
        Directory { masks: vec![MaskMap::default(); words], cores }
    }

    /// Records that `core` now holds `line`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn add_sharer(&mut self, line: u64, core: usize) {
        assert!(core < self.cores, "core {core} out of range");
        *self.masks[core / 64].entry(line).or_insert(0) |= 1 << (core % 64);
    }

    /// Records that `core` dropped `line` (eviction or invalidation).
    pub fn remove_sharer(&mut self, line: u64, core: usize) {
        let map = &mut self.masks[core / 64];
        if let Some(mask) = map.get_mut(&line) {
            *mask &= !(1 << (core % 64));
            if *mask == 0 {
                map.remove(&line);
            }
        }
    }

    /// Whether `core` holds `line`.
    pub fn is_sharer(&self, line: u64, core: usize) -> bool {
        self.masks
            .get(core / 64)
            .and_then(|map| map.get(&line))
            .is_some_and(|mask| mask & 1 << (core % 64) != 0)
    }

    /// `line`'s sharer masks as `(word, mask)` in ascending word order,
    /// with `writer`'s bit cleared.
    fn masks_excluding(&self, line: u64, writer: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.masks.iter().enumerate().filter_map(move |(w, map)| {
            let mut mask = *map.get(&line)?;
            if writer / 64 == w {
                mask &= !(1 << (writer % 64));
            }
            Some((w, mask))
        })
    }

    /// The cores (other than `writer`) holding `line`, in ascending order;
    /// these must be invalidated when `writer` stores to it.
    pub fn sharers_excluding(&self, line: u64, writer: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for (w, mut bits) in self.masks_excluding(line, writer) {
            while bits != 0 {
                out.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        out
    }

    /// Whether any core other than `writer` holds `line`.
    pub fn is_shared_beyond(&self, line: u64, writer: usize) -> bool {
        self.masks_excluding(line, writer).any(|(_, mask)| mask != 0)
    }

    /// Forgets every line `core` holds — the bookkeeping for a core whose
    /// router died: its L1 contents are gone with it, and no invalidation
    /// can (or need) ever be delivered to it again.
    pub fn purge_core(&mut self, core: usize) {
        let bit = 1u64 << (core % 64);
        if let Some(map) = self.masks.get_mut(core / 64) {
            map.retain(|_, mask| {
                *mask &= !bit;
                *mask != 0
            });
        }
    }

    /// Number of lines with at least one sharer.
    pub fn tracked_lines(&self) -> usize {
        // Count each line in the first word where it has a sharer.
        let mut lines = 0;
        for (w, map) in self.masks.iter().enumerate() {
            lines +=
                map.keys().filter(|l| !self.masks[..w].iter().any(|m| m.contains_key(l))).count();
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    proptest! {
        #[test]
        fn directory_matches_set_model(
            wide in 0u8..2,
            ops in collection::vec((0u8..6, 0u64..24, 0usize..72), 1..400),
        ) {
            // The reference model: line → the set of cores holding it.
            let cores = if wide == 1 { 72 } else { 36 };
            let mut model: BTreeMap<u64, BTreeSet<usize>> = BTreeMap::new();
            let mut d = Directory::new(cores);
            for (op, line, core) in ops {
                let core = core % cores;
                match op {
                    0 | 1 => {
                        d.add_sharer(line, core);
                        model.entry(line).or_default().insert(core);
                    }
                    2 => {
                        d.remove_sharer(line, core);
                        if let Some(set) = model.get_mut(&line) {
                            set.remove(&core);
                        }
                    }
                    3 => {
                        d.purge_core(core);
                        model.values_mut().for_each(|set| {
                            set.remove(&core);
                        });
                    }
                    _ => {}
                }
                model.retain(|_, set| !set.is_empty());
                let held = model.get(&line).cloned().unwrap_or_default();
                let others: Vec<usize> = held.iter().copied().filter(|&c| c != core).collect();
                prop_assert_eq!(d.sharers_excluding(line, core), others.clone());
                prop_assert_eq!(d.is_shared_beyond(line, core), !others.is_empty());
                prop_assert_eq!(d.is_sharer(line, core), held.contains(&core));
                prop_assert_eq!(d.tracked_lines(), model.len());
            }
        }
    }

    #[test]
    fn add_and_query_sharers() {
        let mut d = Directory::new(36);
        d.add_sharer(100, 3);
        d.add_sharer(100, 7);
        d.add_sharer(100, 35);
        assert_eq!(d.sharers_excluding(100, 7), vec![3, 35]);
        assert!(d.is_shared_beyond(100, 7));
        assert!(!d.is_shared_beyond(100, 3) || d.sharers_excluding(100, 3).len() == 2);
    }

    #[test]
    fn remove_sharer_cleans_up() {
        let mut d = Directory::new(8);
        d.add_sharer(5, 0);
        d.add_sharer(5, 1);
        d.remove_sharer(5, 0);
        assert_eq!(d.sharers_excluding(5, 9999), vec![1]);
        d.remove_sharer(5, 1);
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn sole_sharer_is_not_shared_beyond_itself() {
        let mut d = Directory::new(8);
        d.add_sharer(9, 2);
        assert!(!d.is_shared_beyond(9, 2));
        assert!(d.is_shared_beyond(9, 0));
    }

    #[test]
    fn large_core_counts_use_multiple_words() {
        let mut d = Directory::new(72); // KNL-sized
        d.add_sharer(42, 70);
        d.add_sharer(42, 1);
        assert_eq!(d.sharers_excluding(42, 99999), vec![1, 70], "ascending across words");
    }

    #[test]
    #[should_panic]
    fn out_of_range_core_panics() {
        Directory::new(4).add_sharer(0, 4);
    }

    #[test]
    fn purge_core_forgets_every_line_it_held() {
        let mut d = Directory::new(72);
        d.add_sharer(1, 70);
        d.add_sharer(1, 2);
        d.add_sharer(9, 70);
        d.purge_core(70);
        assert_eq!(d.sharers_excluding(1, 9999), vec![2]);
        assert_eq!(d.tracked_lines(), 1, "line 9 had no other sharer");
    }
}
