//! Shared pattern builders: stencils, dense kernels, and clustered index
//! arrays for irregular benchmarks.

use locmap_loopir::{Access, AffineExpr, ArrayId, LoopNest, Program};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Adds a 2-D 5-point stencil nest `out[i,j] = f(inp[i,j], inp[i±1,j],
/// inp[i,j±1])` over the interior of an `n×n` grid (row-major).
pub fn stencil2d(
    program: &mut Program,
    name: &str,
    inp: ArrayId,
    out: ArrayId,
    n: u64,
    work: u32,
) {
    let n = n as i64;
    // Interior (n-2)² iterations; subscripts offset by +1 in both dims.
    let mut nest = LoopNest::rectangular(name, &[n - 2, n - 2]).work(work);
    let center = AffineExpr::linear(&[n, 1], n + 1);
    nest.add_ref(out, center.clone(), Access::Write);
    nest.add_ref(inp, center.clone(), Access::Read);
    nest.add_ref(inp, center.clone().plus(1), Access::Read);
    nest.add_ref(inp, center.clone().plus(-1), Access::Read);
    nest.add_ref(inp, center.clone().plus(n), Access::Read);
    nest.add_ref(inp, center.plus(-n), Access::Read);
    program.add_nest(nest);
}

/// Adds a 3-D 7-point stencil nest over the interior of an `n³` grid.
pub fn stencil3d(
    program: &mut Program,
    name: &str,
    inp: ArrayId,
    out: ArrayId,
    n: u64,
    work: u32,
) {
    let n = n as i64;
    let plane = n * n;
    let mut nest = LoopNest::rectangular(name, &[n - 2, n - 2, n - 2]).work(work);
    let center = AffineExpr::linear(&[plane, n, 1], plane + n + 1);
    nest.add_ref(out, center.clone(), Access::Write);
    nest.add_ref(inp, center.clone(), Access::Read);
    nest.add_ref(inp, center.clone().plus(1), Access::Read);
    nest.add_ref(inp, center.clone().plus(-1), Access::Read);
    nest.add_ref(inp, center.clone().plus(n), Access::Read);
    nest.add_ref(inp, center.clone().plus(-n), Access::Read);
    nest.add_ref(inp, center.clone().plus(plane), Access::Read);
    nest.add_ref(inp, center.plus(-plane), Access::Read);
    program.add_nest(nest);
}

/// Asserts that every index below `universe` fits the `i32` elements of
/// an index array, so that none is truncated.
///
/// # Panics
///
/// Panics if `universe` exceeds `i32::MAX`.
pub(crate) fn assert_index_universe(universe: u64) {
    assert!(
        universe <= i32::MAX as u64,
        "universe {universe} exceeds the i32 index range"
    );
}

/// Generates a *clustered* index stream: `count` indices into
/// `0..universe`, where runs of `cluster_len` indices walk sequentially
/// within a random window before jumping. `cluster_len` is the locality
/// knob — long clusters give index-array codes the spatial structure that
/// real neighbor lists / trees / grids exhibit.
///
/// # Panics
///
/// Panics if `universe` is zero or exceeds `i32::MAX`.
pub fn clustered_indices(count: u64, universe: u64, cluster_len: u32, seed: u64) -> Vec<i32> {
    assert!(universe > 0, "empty universe");
    assert_index_universe(universe);
    let mut rng = SmallRng::seed_from_u64(seed);
    let count = count as usize;
    let cluster = cluster_len.max(1) as usize;
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut start = rng.gen_range(0..universe);
        let mut left = cluster.min(count - out.len());
        // A cluster wraps to 0 at the universe's end, so it is one range,
        // or two; one longer than the universe wraps again.
        while left > 0 {
            let end = universe.min(start + left as u64);
            out.extend(start as i32..end as i32);
            left -= (end - start) as usize;
            start = 0;
        }
    }
    out
}

/// Generates a blocked permutation of `0..n`: blocks of `block` elements
/// are kept contiguous but the block order is shuffled. Models reordered
/// but locally-dense data (e.g. radix buckets, mesh partitions).
///
/// # Panics
///
/// Panics if `block` is zero or `n` exceeds `i32::MAX`.
pub fn blocked_permutation(n: u64, block: u64, seed: u64) -> Vec<i32> {
    assert!(block > 0, "zero block");
    assert_index_universe(n);
    let mut rng = SmallRng::seed_from_u64(seed);
    let nblocks = n.div_ceil(block);
    let mut order: Vec<u64> = (0..nblocks).collect();
    // Fisher-Yates.
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut out = Vec::with_capacity(n as usize);
    for b in order {
        let start = b * block;
        out.extend(start as i32..n.min(start + block) as i32);
    }
    out
}

/// Adds a streaming nest `w[i] = f(reads[0][i], reads[1][i], ...)`.
pub fn streaming(
    program: &mut Program,
    name: &str,
    write: ArrayId,
    reads: &[ArrayId],
    n: u64,
    work: u32,
) {
    let mut nest = LoopNest::rectangular(name, &[n as i64]).work(work);
    nest.add_ref(write, AffineExpr::var(0, 1), Access::Write);
    for &r in reads {
        nest.add_ref(r, AffineExpr::var(0, 1), Access::Read);
    }
    program.add_nest(nest);
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmap_loopir::{DataEnv, IterationSpace};
    use proptest::prelude::*;

    /// `clustered_indices` as it was written element by element: the
    /// reference the bulk version must reproduce.
    fn clustered_indices_per_element(
        count: u64,
        universe: u64,
        cluster_len: u32,
        seed: u64,
    ) -> Vec<i64> {
        assert!(universe > 0, "empty universe");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(count as usize);
        let mut remaining = 0u32;
        let mut cursor = 0u64;
        for _ in 0..count {
            if remaining == 0 {
                cursor = rng.gen_range(0..universe);
                remaining = cluster_len.max(1);
            }
            out.push(cursor as i64);
            cursor = (cursor + 1) % universe;
            remaining -= 1;
        }
        out
    }

    /// `blocked_permutation` as it was written element by element.
    fn blocked_permutation_per_element(n: u64, block: u64, seed: u64) -> Vec<i64> {
        assert!(block > 0, "zero block");
        let mut rng = SmallRng::seed_from_u64(seed);
        let nblocks = n.div_ceil(block);
        let mut order: Vec<u64> = (0..nblocks).collect();
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut out = Vec::with_capacity(n as usize);
        for b in order {
            let start = b * block;
            for k in start..(start + block).min(n) {
                out.push(k as i64);
            }
        }
        out.truncate(n as usize);
        out
    }

    fn widened(v: Vec<i32>) -> Vec<i64> {
        v.into_iter().map(i64::from).collect()
    }

    proptest! {
        #[test]
        fn bulk_generators_match_the_per_element_ones(
            // Universes this small make clusters wrap past the end, and
            // clusters up to 40 long wrap more than once.
            shape in (0u64..=200, 1u64..=20, 0u32..=40),
            block in 1u64..=40,
            seed in 0u64..u64::MAX,
        ) {
            let (count, universe, cluster_len) = shape;
            prop_assert_eq!(
                widened(clustered_indices(count, universe, cluster_len, seed)),
                clustered_indices_per_element(count, universe, cluster_len, seed)
            );
            prop_assert_eq!(
                widened(blocked_permutation(count, block, seed)),
                blocked_permutation_per_element(count, block, seed)
            );
        }
    }

    #[test]
    fn bulk_generators_match_at_the_edges() {
        for (count, universe, cluster_len) in
            [(0, 1, 0), (0, 7, 4), (9, 1, 0), (9, 3, 0), (17, 4, 9)]
        {
            assert_eq!(
                widened(clustered_indices(count, universe, cluster_len, 5)),
                clustered_indices_per_element(count, universe, cluster_len, 5)
            );
        }
        for (n, block) in [(0, 1), (1, 1), (5, 8), (64, 64), (65, 64)] {
            assert_eq!(
                widened(blocked_permutation(n, block, 5)),
                blocked_permutation_per_element(n, block, 5)
            );
        }
    }

    #[test]
    #[should_panic(expected = "universe 1099511627776 exceeds the i32 index range")]
    fn universe_past_i32_panics_before_allocating() {
        clustered_indices(0, 1 << 40, 4, 1);
    }

    #[test]
    fn stencil2d_stays_in_bounds() {
        let mut p = Program::new("t");
        let n = 20u64;
        let a = p.add_array("A", 8, n * n);
        let b = p.add_array("B", 8, n * n);
        stencil2d(&mut p, "s", a, b, n, 8);
        let nest = &p.nests()[0];
        let space = IterationSpace::enumerate(nest, &p.params());
        assert_eq!(space.len(), 18 * 18);
        let data = DataEnv::new();
        let refs = p.compile_refs(nest, &data);
        for k in 0..space.len() {
            for r in &refs {
                let _ = r.addr(space.get(k)); // panics (debug) if OOB
            }
        }
    }

    #[test]
    fn stencil3d_touches_all_six_neighbors() {
        let mut p = Program::new("t");
        let n = 6u64;
        let a = p.add_array("A", 8, n * n * n);
        let b = p.add_array("B", 8, n * n * n);
        stencil3d(&mut p, "s", a, b, n, 8);
        let nest = &p.nests()[0];
        assert_eq!(nest.refs.len(), 8);
        // Center iteration (0,0,0) → element (1,1,1) = 43 for n=6.
        let base = p.array(a).base;
        let data = DataEnv::new();
        let addrs: Vec<u64> =
            p.compile_refs(nest, &data)[1..].iter().map(|r| r.addr(&[0, 0, 0])).collect();
        let elems: Vec<u64> = addrs.iter().map(|a| (a - base) / 8).collect();
        assert_eq!(elems, vec![43, 44, 42, 49, 37, 79, 7]);
    }

    #[test]
    fn clustered_indices_have_runs() {
        let idx = clustered_indices(1000, 5000, 16, 42);
        assert_eq!(idx.len(), 1000);
        assert!(idx.iter().all(|&i| (0..5000).contains(&i)));
        // Most consecutive pairs differ by exactly 1 (within a cluster).
        let sequential = idx.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(sequential > 800, "only {sequential} sequential steps");
    }

    #[test]
    fn cluster_len_one_is_random() {
        let idx = clustered_indices(1000, 5000, 1, 42);
        let sequential = idx.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(sequential < 50, "{sequential} sequential steps for cluster 1");
    }

    #[test]
    fn blocked_permutation_is_permutation() {
        let perm = blocked_permutation(1000, 64, 7);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<i32>>());
        // Blocks stay contiguous.
        let contiguous = perm.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(contiguous > 900);
    }

    #[test]
    fn generators_deterministic() {
        assert_eq!(clustered_indices(100, 500, 8, 1), clustered_indices(100, 500, 8, 1));
        assert_eq!(blocked_permutation(100, 16, 1), blocked_permutation(100, 16, 1));
        assert_ne!(clustered_indices(100, 500, 8, 1), clustered_indices(100, 500, 8, 2));
    }
}
