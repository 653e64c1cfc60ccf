//! Iteration spaces and iteration sets.
//!
//! The paper schedules *iteration sets* — runs of consecutive iterations
//! (default 0.25 % of the nest) — rather than single iterations, because
//! consecutive iterations share spatial locality and thus have near-equal
//! affinity vectors (§3.2).

use crate::affine::ParamEnv;
use crate::nest::LoopNest;
use serde::{Deserialize, Serialize};

/// The enumerated iteration space of a nest, in lexicographic (execution)
/// order. Stored flat for cache-friendly random access, one `i32` word per
/// loop index: loop indices are small, and half the width of `i64` halves
/// the largest block a mapper miss allocates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IterationSpace {
    depth: usize,
    flat: Vec<i32>,
}

impl IterationSpace {
    /// Enumerates all iterations of `nest` under parameter bindings `env`,
    /// into storage of exactly `iterations × depth` words: the space is
    /// counted first ([`LoopNest::iteration_count`]), then filled one
    /// innermost run at a time: an [`IterCursor`] evaluates the bounds
    /// only between runs, and a run of a 1–3-deep nest is stored in
    /// straight-line code.
    ///
    /// # Panics
    ///
    /// Panics, naming the nest and before allocating the space, if a loop
    /// index takes a value outside `i32`.
    pub fn enumerate(nest: &LoopNest, env: &ParamEnv) -> Self {
        let depth = nest.depth();
        let (count, (min, max)) = nest.count_and_span(env);
        let fits = |v: i64| i32::try_from(v).is_ok();
        assert!(
            count == 0 || fits(min) && fits(max),
            "nest {:?}: loop indices span {min}..={max}, outside the i32 range an \
             iteration space stores",
            nest.name
        );
        let mut flat = Vec::with_capacity(count as usize * depth);
        if let Some(last) = depth.checked_sub(1) {
            let mut c = IterCursor::new(nest, env);
            let mut more = c.seek(&[]);
            // Every index fits `i32` (checked above), so `as` only narrows.
            while more {
                let run = (c.iv[last]..c.run_end()).map(|i| i as i32);
                match c.iv[..last] {
                    [] => flat.extend(run),
                    [a] => run.for_each(|i| flat.extend_from_slice(&[a as i32, i])),
                    [a, b] => run.for_each(|i| flat.extend_from_slice(&[a as i32, b as i32, i])),
                    _ => run.for_each(|i| {
                        flat.extend(c.iv[..last].iter().map(|&x| x as i32));
                        flat.push(i);
                    }),
                }
                more = c.next_run();
            }
        }
        debug_assert_eq!(flat.len(), count as usize * depth, "the count walk and the fill disagree");
        IterationSpace { depth, flat }
    }

    /// Number of iterations.
    pub fn len(&self) -> usize {
        self.flat.len().checked_div(self.depth).unwrap_or(0)
    }

    /// True when the space is empty.
    pub fn is_empty(&self) -> bool {
        self.flat.is_empty()
    }

    /// Loop-nest depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The `k`-th iteration vector in execution order.
    ///
    /// # Panics
    ///
    /// Panics if `k >= len()`.
    pub fn get(&self, k: usize) -> &[i32] {
        &self.flat[k * self.depth..(k + 1) * self.depth]
    }

    /// Splits using the paper's parameterization: set size = `fraction`
    /// of the total iteration count (default 0.25 % ⇒ `fraction = 0.0025`),
    /// with a minimum of one iteration per set.
    pub fn split_by_fraction(&self, fraction: f64) -> Vec<IterationSet> {
        IterationSet::split_count(self.len(), fraction)
    }
}

/// A position in a nest's iteration space that moves in execution
/// (lexicographic) order without materialising the space: it holds one
/// iteration vector, however many iterations the nest has.
///
/// Bounds are evaluated as the cursor moves, so affine (triangular) limits
/// and empty inner ranges behave exactly as in
/// [`IterationSpace::enumerate`].
#[derive(Debug, Clone)]
pub struct IterCursor<'a> {
    nest: &'a LoopNest,
    env: &'a ParamEnv,
    iv: Vec<i64>,
    /// Exclusive upper bound of the innermost loop under the current
    /// prefix, so a step inside the innermost range evaluates no bound.
    hi: i64,
}

impl<'a> IterCursor<'a> {
    /// A cursor over `nest`'s space under `env`. It has no position until
    /// the first [`IterCursor::seek`].
    pub fn new(nest: &'a LoopNest, env: &'a ParamEnv) -> Self {
        IterCursor { nest, env, iv: vec![0; nest.depth()], hi: 0 }
    }

    /// The current iteration vector.
    pub fn iv(&self) -> &[i64] {
        &self.iv
    }

    /// Moves to the first iteration at or after `prefix` in lexicographic
    /// order; the empty prefix seeks the first iteration, and a full,
    /// in-bounds iteration vector seeks itself. Every index of `prefix`
    /// but the last must lie inside its loop's range. Returns `false`, and
    /// leaves the cursor without a position, when no iteration is at or
    /// after `prefix`.
    pub fn seek(&mut self, prefix: &[i64]) -> bool {
        match prefix.split_last() {
            None => self.settle(0, i64::MIN),
            Some((&last, outer)) => {
                self.iv[..outer.len()].copy_from_slice(outer);
                self.settle(outer.len(), last)
            }
        }
    }

    /// Advances to the next iteration in lexicographic order; `false` at
    /// the end of the space.
    pub fn step(&mut self) -> bool {
        let last = self.iv.len() - 1;
        let next = self.iv[last] + 1;
        if next < self.hi {
            self.iv[last] = next;
            true
        } else {
            self.settle(last, next)
        }
    }

    /// The exclusive end of the current innermost run: the iterations
    /// from the current one up to it differ only in their last index.
    pub fn run_end(&self) -> i64 {
        self.hi
    }

    /// Skips the rest of the current innermost run, to the first
    /// iteration of the next one; `false` at the end of the space.
    pub fn next_run(&mut self) -> bool {
        self.settle(self.iv.len() - 1, self.hi)
    }

    /// Completes the position to the first iteration whose prefix
    /// `iv[..level]` is unchanged and whose index at `level` is at least
    /// `from`. A loop with nothing left under its prefix carries into the
    /// next value of the enclosing index.
    fn settle(&mut self, mut level: usize, mut from: i64) -> bool {
        let depth = self.iv.len();
        while level < depth {
            let b = &self.nest.bounds[level];
            let outer = &self.iv[..level];
            let (lo, hi) = (b.lower.eval(outer, self.env), b.upper.eval(outer, self.env));
            let i = from.max(lo);
            if i < hi {
                self.iv[level] = i;
                self.hi = hi;
                level += 1;
                from = i64::MIN;
            } else if level == 0 {
                return false;
            } else {
                level -= 1;
                from = self.iv[level] + 1;
            }
        }
        true
    }

    /// Walks the whole space once, from its first iteration, and returns
    /// the iteration vectors at the indices `at` (in any order) together
    /// with the space's iteration count. The vectors are flat: row `i`,
    /// `depth` words wide, is iteration `at[i]`; a row whose index is not
    /// below the count stays zero.
    pub fn vectors_at(&mut self, at: &[usize]) -> (Vec<i64>, usize) {
        let depth = self.iv.len();
        let mut rows = vec![0; at.len() * depth];
        let mut order: Vec<usize> = (0..at.len()).collect();
        order.sort_unstable_by_key(|&i| at[i]);
        let mut pending = order.iter().peekable();
        let mut k = 0;
        let mut more = self.seek(&[]);
        while more {
            while let Some(&&i) = pending.peek().filter(|&&&i| at[i] == k) {
                rows[i * depth..(i + 1) * depth].copy_from_slice(&self.iv);
                pending.next();
            }
            k += 1;
            more = self.step();
        }
        (rows, k)
    }
}

/// A set of consecutive iterations `[start, end)` of one nest — the unit of
/// computation scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IterationSet {
    /// Dense id of this set within its nest.
    pub id: usize,
    /// First iteration index (into the enumerated space).
    pub start: usize,
    /// One past the last iteration index.
    pub end: usize,
}

impl IterationSet {
    /// The sets [`IterationSpace::split_by_fraction`] gives a space of
    /// `count` iterations, from the count alone: a caller that needs only
    /// the sets takes the count from [`LoopNest::iteration_count`] and
    /// never enumerates.
    pub fn split_count(count: usize, fraction: f64) -> Vec<IterationSet> {
        assert!(fraction > 0.0 && fraction <= 1.0, "fraction must be in (0, 1]");
        let size = ((count as f64 * fraction).round() as usize).max(1);
        Self::tile(count, size)
    }

    /// Tiles iterations `0..count` with sets of `size` (the last may be
    /// smaller).
    fn tile(count: usize, size: usize) -> Vec<IterationSet> {
        assert!(size > 0, "iteration set size must be positive");
        let mut sets = Vec::with_capacity(count.div_ceil(size));
        let mut start = 0;
        let mut id = 0;
        while start < count {
            let end = (start + size).min(count);
            sets.push(IterationSet { id, start, end });
            id += 1;
            start = end;
        }
        sets
    }

    /// Number of iterations in the set.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the set is empty (never produced by a split).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Iterator over the iteration indices in this set.
    pub fn indices(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

#[cfg(test)]
impl IterationSpace {
    /// Every row, widened to `i64`, in execution order.
    fn widened(&self) -> Vec<Vec<i64>> {
        (0..self.len()).map(|k| self.get(k).iter().map(|&x| i64::from(x)).collect()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::AffineExpr;
    use crate::nest::LoopBound;

    #[test]
    fn enumerate_rectangular_in_lex_order() {
        let nest = LoopNest::rectangular("r", &[2, 3]);
        let s = IterationSpace::enumerate(&nest, &ParamEnv::new());
        assert_eq!(s.len(), 6);
        assert_eq!(
            s.widened(),
            vec![vec![0, 0], vec![0, 1], vec![0, 2], vec![1, 0], vec![1, 1], vec![1, 2]]
        );
    }

    #[test]
    fn enumerate_triangular() {
        let bounds = vec![
            LoopBound::range(3),
            LoopBound { lower: AffineExpr::var(0, 1), upper: AffineExpr::constant(3) },
        ];
        let nest = LoopNest::with_bounds("tri", bounds);
        let s = IterationSpace::enumerate(&nest, &ParamEnv::new());
        assert_eq!(
            s.widened(),
            vec![vec![0, 0], vec![0, 1], vec![0, 2], vec![1, 1], vec![1, 2], vec![2, 2]]
        );
    }

    #[test]
    fn split_exact_and_remainder() {
        let nest = LoopNest::rectangular("r", &[10]);
        let s = IterationSpace::enumerate(&nest, &ParamEnv::new());
        let sets = s.split_by_fraction(0.4);
        assert_eq!(sets.len(), 3);
        assert_eq!(sets[0].len(), 4);
        assert_eq!(sets[2].len(), 2);
        assert_eq!(sets[2].id, 2);
        // Sets tile the space.
        let covered: usize = sets.iter().map(IterationSet::len).sum();
        assert_eq!(covered, 10);
    }

    #[test]
    fn split_by_fraction_quarter_percent() {
        let nest = LoopNest::rectangular("r", &[10_000]);
        let s = IterationSpace::enumerate(&nest, &ParamEnv::new());
        let sets = s.split_by_fraction(0.0025);
        assert_eq!(sets.len(), 400);
        assert!(sets.iter().all(|st| st.len() == 25));
    }

    #[test]
    fn split_by_fraction_clamps_to_one() {
        let nest = LoopNest::rectangular("r", &[10]);
        let s = IterationSpace::enumerate(&nest, &ParamEnv::new());
        let sets = s.split_by_fraction(0.0001);
        assert_eq!(sets.len(), 10);
    }

    #[test]
    fn get_returns_the_kth_row() {
        let nest = LoopNest::rectangular("r", &[4, 4]);
        let s = IterationSpace::enumerate(&nest, &ParamEnv::new());
        for k in 0..s.len() {
            assert_eq!(s.get(k), [k as i32 / 4, k as i32 % 4]);
        }
    }

    #[test]
    #[should_panic(expected = "nest \"huge\": loop indices span 0..=8589934591")]
    fn an_index_past_i32_panics_before_the_space_is_allocated() {
        // 2^33 iterations: filling them would take 32 GiB, so only a check
        // made before the allocation panics here.
        let nest = LoopNest::rectangular("huge", &[1 << 33]);
        IterationSpace::enumerate(&nest, &ParamEnv::new());
    }

    #[test]
    #[should_panic(expected = "nest \"far\": loop indices span -2147483649..=-2147483645")]
    fn a_negative_index_past_i32_panics() {
        let start = i64::from(i32::MIN) - 1;
        let bounds = vec![LoopBound {
            lower: AffineExpr::constant(start),
            upper: AffineExpr::constant(start + 5),
        }];
        IterationSpace::enumerate(&LoopNest::with_bounds("far", bounds), &ParamEnv::new());
    }

    #[test]
    fn indices_at_the_ends_of_i32_are_stored() {
        let (min, max) = (i64::from(i32::MIN), i64::from(i32::MAX));
        let bounds = vec![
            LoopBound { lower: AffineExpr::constant(min), upper: AffineExpr::constant(min + 2) },
            LoopBound { lower: AffineExpr::constant(max - 1), upper: AffineExpr::constant(max + 1) },
        ];
        let s = IterationSpace::enumerate(&LoopNest::with_bounds("ends", bounds), &ParamEnv::new());
        assert_eq!(s.widened(), vec![[min, max - 1], [min, max], [min + 1, max - 1], [min + 1, max]]);
    }

    #[test]
    #[should_panic]
    fn split_zero_panics() {
        let nest = LoopNest::rectangular("r", &[4]);
        IterationSpace::enumerate(&nest, &ParamEnv::new()).split_by_fraction(0.0);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn iteration_set_indices_match_bounds() {
        let s = IterationSet { id: 3, start: 30, end: 40 };
        assert_eq!(s.len(), 10);
        assert!(!s.is_empty());
        assert_eq!(s.indices().collect::<Vec<_>>(), (30..40).collect::<Vec<_>>());
    }

    #[test]
    fn split_ids_are_dense_and_ordered() {
        let nest = LoopNest::rectangular("r", &[100]);
        let space = IterationSpace::enumerate(&nest, &ParamEnv::new());
        for (i, s) in space.split_by_fraction(0.07).iter().enumerate() {
            assert_eq!(s.id, i);
        }
    }

    #[test]
    fn empty_space_has_no_sets() {
        let nest = LoopNest::with_bounds(
            "z",
            vec![crate::nest::LoopBound::range(0)],
        );
        let space = IterationSpace::enumerate(&nest, &ParamEnv::new());
        assert!(space.is_empty());
        assert!(space.split_by_fraction(0.05).is_empty());
    }

    #[test]
    fn depth_matches_nest() {
        let nest = LoopNest::rectangular("r", &[2, 3, 4]);
        let space = IterationSpace::enumerate(&nest, &ParamEnv::new());
        assert_eq!(space.depth(), 3);
        assert_eq!(space.len(), 24);
    }
}

#[cfg(test)]
mod cursor_tests {
    use super::*;
    use crate::affine::{AffineExpr, ParamId};
    use crate::nest::LoopBound;
    use proptest::prelude::*;

    /// A 1–4-deep nest whose level-`l` bounds are `const + Σ c·i` over (at
    /// most two of) the outer indices, with coefficients in -1..=1:
    /// rectangular, triangular, zero-trip and empty-inner-range loops all
    /// occur. The outermost upper bound is the parameter `N`, bound in the
    /// returned environment.
    fn arb_nest() -> impl Strategy<Value = (LoopNest, ParamEnv)> {
        let levels = collection::vec((-2i64..=3, 0i64..=6, collection::vec(-1i64..=1, 4)), 1..=4);
        (levels, 0i64..=5).prop_map(|(levels, n)| {
            let bounds = levels
                .iter()
                .enumerate()
                .map(|(l, (lo, hi, c))| {
                    let upper = if l == 0 {
                        AffineExpr::param(ParamId(0), 1)
                    } else {
                        AffineExpr::linear(&c[2..2 + l.min(2)], *hi)
                    };
                    LoopBound { lower: AffineExpr::linear(&c[..l.min(2)], *lo), upper }
                })
                .collect();
            (LoopNest::with_bounds("arb", bounds), ParamEnv::new().bind(ParamId(0), n))
        })
    }

    /// The space as `enumerate` filled it before it filled runs: one
    /// recursive call per loop level and iteration, storing each complete
    /// iteration vector.
    fn recursive_fill(nest: &LoopNest, env: &ParamEnv) -> Vec<Vec<i64>> {
        fn rec(nest: &LoopNest, env: &ParamEnv, iv: &mut Vec<i64>, out: &mut Vec<Vec<i64>>) {
            let level = iv.len();
            if level == nest.depth() {
                out.push(iv.clone());
                return;
            }
            let lo = nest.bounds[level].lower.eval(iv, env);
            let hi = nest.bounds[level].upper.eval(iv, env);
            for i in lo..hi {
                iv.push(i);
                rec(nest, env, iv, out);
                iv.pop();
            }
        }
        let mut out = Vec::new();
        rec(nest, env, &mut Vec::new(), &mut out);
        out
    }

    /// Every iteration from the first, by stepping.
    fn stepped(nest: &LoopNest, env: &ParamEnv) -> Vec<Vec<i64>> {
        let mut c = IterCursor::new(nest, env);
        let mut out = Vec::new();
        let mut more = c.seek(&[]);
        while more {
            out.push(c.iv().to_vec());
            more = c.step();
        }
        out
    }

    proptest! {
        #[test]
        fn stepping_visits_the_enumerated_sequence(case in arb_nest()) {
            let (nest, env) = case;
            let want = recursive_fill(&nest, &env);
            prop_assert_eq!(stepped(&nest, &env), want, "nest {:?}", nest.bounds);
        }

        #[test]
        fn run_fill_matches_the_recursive_fill(case in arb_nest()) {
            let (nest, env) = case;
            let space = IterationSpace::enumerate(&nest, &env);
            prop_assert_eq!(space.widened(), recursive_fill(&nest, &env), "nest {:?}", nest.bounds);
        }

        #[test]
        fn widened_rows_match_the_cursor_walk(case in arb_nest()) {
            let (nest, env) = case;
            let space = IterationSpace::enumerate(&nest, &env);
            prop_assert_eq!(space.widened(), stepped(&nest, &env), "nest {:?}", nest.bounds);
        }

        #[test]
        fn enumeration_is_counted_then_filled_at_exact_size(case in arb_nest()) {
            let (nest, env) = case;
            let space = IterationSpace::enumerate(&nest, &env);
            prop_assert_eq!(space.len() as u64, nest.iteration_count(&env));
            prop_assert_eq!(space.flat.capacity(), space.flat.len(), "nest {:?}", nest.bounds);
        }

        #[test]
        fn splitting_a_count_matches_splitting_the_space(
            case in arb_nest(),
            fraction in 0.01f64..=1.0,
        ) {
            let (nest, env) = case;
            let space = IterationSpace::enumerate(&nest, &env);
            let count = nest.iteration_count(&env) as usize;
            prop_assert_eq!(
                IterationSet::split_count(count, fraction),
                space.split_by_fraction(fraction)
            );
        }

        #[test]
        fn seeking_set_starts_matches_get(case in arb_nest(), fraction in 0.01f64..=1.0) {
            let (nest, env) = case;
            let space = IterationSpace::enumerate(&nest, &env);
            let sets = space.split_by_fraction(fraction);
            let starts: Vec<usize> = sets.iter().rev().map(|s| s.start).collect();
            let mut c = IterCursor::new(&nest, &env);
            let (rows, count) = c.vectors_at(&starts);
            prop_assert_eq!(count, space.len());
            let want = space.widened();
            for (i, &s) in starts.iter().enumerate() {
                let row = &rows[i * space.depth()..(i + 1) * space.depth()];
                prop_assert_eq!(row, &want[s][..]);
                prop_assert!(c.seek(row));
                prop_assert_eq!(c.iv(), &want[s][..]);
            }
        }

        #[test]
        fn seek_finds_the_first_iteration_at_or_after_a_prefix(
            case in arb_nest(),
            pick in 0usize..1000,
            len in 1usize..=3,
            bump in -2i64..=1,
        ) {
            let (nest, env) = case;
            let space = IterationSpace::enumerate(&nest, &env).widened();
            if !space.is_empty() {
                let mut prefix = space[pick % space.len()].clone();
                prefix.truncate(len);
                *prefix.last_mut().unwrap() += bump;
                let want = space.iter().find(|iv| iv[..prefix.len()] >= prefix[..]);
                let mut c = IterCursor::new(&nest, &env);
                let found = c.seek(&prefix);
                prop_assert_eq!(found, want.is_some());
                if let Some(want) = want {
                    prop_assert_eq!(c.iv(), want, "prefix {:?}", prefix);
                }
            }
        }
    }

    #[test]
    fn an_empty_inner_range_everywhere_leaves_no_iteration() {
        let env = ParamEnv::new();
        let empty_inner =
            LoopNest::with_bounds("z", vec![LoopBound::range(3), LoopBound::range(0)]);
        let mut c = IterCursor::new(&empty_inner, &env);
        assert!(!c.seek(&[]));
        assert_eq!(c.vectors_at(&[0]), (vec![0, 0], 0));
    }
}
