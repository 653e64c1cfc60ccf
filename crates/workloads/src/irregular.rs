//! The irregular (index-array) benchmarks, handled by the
//! inspector–executor at runtime.
//!
//! Each builder generates seeded index arrays whose *clustering* matches
//! the application's access structure: tree walks and coherent rays
//! produce long sequential runs; neural-network weight fetches are nearly
//! random; sparse matrices are banded. The cluster length is the locality
//! knob that determines how much structure MAI/CAI can recover.

use crate::builders::{blocked_permutation, assert_index_universe, clustered_indices, streaming};
use crate::spec::{Scale, Table3Info, Workload};
use locmap_loopir::{Access, AffineExpr, DataEnv, LoopNest, Program};

/// `barnes`: Barnes-Hut N-body — per-body tree walks.
pub fn barnes(scale: Scale) -> Workload {
    let n = scale.dim1(120_000);
    let tree = n / 2;
    let mut p = Program::new("barnes");
    let pos = p.add_array("pos", 8, n);
    let acc = p.add_array("acc", 8, n);
    let cells = p.add_array("cells", 8, tree);
    let idx_hi = p.add_array("walk_hi", 8, n);
    let idx_lo = p.add_array("walk_lo", 8, n);

    let mut nest = LoopNest::rectangular("force-walk", &[n as i64]).work(48);
    nest.add_ref(pos, AffineExpr::var(0, 1), Access::Read);
    // The index arrays themselves are streamed before each gather.
    nest.add_ref(idx_hi, AffineExpr::var(0, 1), Access::Read);
    nest.add_indirect_ref(cells, idx_hi, AffineExpr::var(0, 1), Access::Read);
    nest.add_ref(idx_lo, AffineExpr::var(0, 1), Access::Read);
    nest.add_indirect_ref(cells, idx_lo, AffineExpr::var(0, 1), Access::Read);
    nest.add_ref(acc, AffineExpr::var(0, 1), Access::Write);
    p.add_nest(nest);

    let mut data = DataEnv::new();
    // Upper tree levels are revisited by nearby bodies (long runs); leaf
    // visits are shorter runs.
    data.set_index_array(idx_hi, clustered_indices(n, tree, 64, 0xBA51));
    data.set_index_array(idx_lo, clustered_indices(n, tree, 8, 0xBA52));

    Workload {
        name: "barnes",
        program: p,
        data,
        irregular: true,
        timing_iters: 10,
        table3: Table3Info { loop_nests: 110, arrays: 2, iteration_groups: 88_624, frac_moved_pct: 14.3 },
    }
}

/// `fmm`: fast multipole method — multipole/local expansion gathers.
pub fn fmm(scale: Scale) -> Workload {
    let n = scale.dim1(130_000);
    let boxes = n / 4;
    let mut p = Program::new("fmm");
    let src = p.add_array("src", 8, n);
    let fld = p.add_array("fld", 8, n);
    let mpole = p.add_array("mpole", 8, boxes);
    let local = p.add_array("local", 8, boxes);
    let idx_m = p.add_array("idx_m", 8, n);
    let idx_l = p.add_array("idx_l", 8, n);

    let mut nest = LoopNest::rectangular("evaluate", &[n as i64]).work(52);
    nest.add_ref(src, AffineExpr::var(0, 1), Access::Read);
    nest.add_ref(idx_m, AffineExpr::var(0, 1), Access::Read);
    nest.add_indirect_ref(mpole, idx_m, AffineExpr::var(0, 1), Access::Read);
    nest.add_indirect_ref(local, idx_l, AffineExpr::var(0, 1), Access::Read);
    nest.add_ref(fld, AffineExpr::var(0, 1), Access::Write);
    p.add_nest(nest);

    let mut data = DataEnv::new();
    data.set_index_array(idx_m, clustered_indices(n, boxes, 128, 0xF33));
    data.set_index_array(idx_l, clustered_indices(n, boxes, 32, 0xF34));

    Workload {
        name: "fmm",
        program: p,
        data,
        irregular: true,
        timing_iters: 10,
        table3: Table3Info { loop_nests: 86, arrays: 5, iteration_groups: 237_904, frac_moved_pct: 9.9 },
    }
}

/// `radiosity`: patch-to-patch energy transfer over a visibility list.
pub fn radiosity(scale: Scale) -> Workload {
    let m = scale.dim1(160_000); // interactions
    let patches = m / 4;
    let mut p = Program::new("radiosity");
    let patch = p.add_array("patch", 8, patches);
    let energy = p.add_array("energy", 8, m);
    let src = p.add_array("src_idx", 8, m);
    let dst = p.add_array("dst_idx", 8, m);

    let mut nest = LoopNest::rectangular("transfer", &[m as i64]).work(34);
    nest.add_ref(src, AffineExpr::var(0, 1), Access::Read);
    nest.add_indirect_ref(patch, src, AffineExpr::var(0, 1), Access::Read);
    nest.add_indirect_ref(patch, dst, AffineExpr::var(0, 1), Access::Read);
    nest.add_ref(energy, AffineExpr::var(0, 1), Access::Write);
    p.add_nest(nest);

    let mut data = DataEnv::new();
    data.set_index_array(src, clustered_indices(m, patches, 16, 0x2AD1));
    data.set_index_array(dst, clustered_indices(m, patches, 16, 0x2AD2));

    Workload {
        name: "radiosity",
        program: p,
        data,
        irregular: true,
        timing_iters: 8,
        table3: Table3Info { loop_nests: 164, arrays: 19, iteration_groups: 189_353, frac_moved_pct: 11.2 },
    }
}

/// `raytrace`: coherent primary rays through a grid acceleration
/// structure.
pub fn raytrace(scale: Scale) -> Workload {
    let rays = scale.dim1(170_000);
    let grid = rays / 2;
    let objs = rays / 10;
    let mut p = Program::new("raytrace");
    let grid_a = p.add_array("grid", 8, grid);
    let obj_a = p.add_array("objects", 8, objs);
    let pix = p.add_array("pixels", 8, rays);
    let gidx = p.add_array("grid_idx", 8, rays);
    let oidx = p.add_array("obj_idx", 8, rays);

    let mut nest = LoopNest::rectangular("trace", &[rays as i64]).work(60);
    nest.add_ref(gidx, AffineExpr::var(0, 1), Access::Read);
    nest.add_indirect_ref(grid_a, gidx, AffineExpr::var(0, 1), Access::Read);
    nest.add_indirect_ref(obj_a, oidx, AffineExpr::var(0, 1), Access::Read);
    nest.add_ref(pix, AffineExpr::var(0, 1), Access::Write);
    p.add_nest(nest);

    let mut data = DataEnv::new();
    // Screen-coherent rays traverse nearby grid cells.
    data.set_index_array(gidx, clustered_indices(rays, grid, 96, 0x7A1));
    data.set_index_array(oidx, clustered_indices(rays, objs, 12, 0x7A2));

    Workload {
        name: "raytrace",
        program: p,
        data,
        irregular: true,
        timing_iters: 8,
        table3: Table3Info { loop_nests: 134, arrays: 12, iteration_groups: 521_089, frac_moved_pct: 6.8 },
    }
}

/// `volrend`: ray-cast volume rendering — voxel gathers per ray sample.
pub fn volrend(scale: Scale) -> Workload {
    let rays = scale.dim1(150_000);
    let voxels = rays * 2;
    let mut p = Program::new("volrend");
    let vox = p.add_array("voxels", 8, voxels + 1);
    let img = p.add_array("image", 8, rays);
    let vidx = p.add_array("vox_idx", 8, rays);

    let mut nest = LoopNest::rectangular("cast", &[rays as i64]).work(44);
    nest.add_ref(vidx, AffineExpr::var(0, 1), Access::Read);
    nest.add_indirect_ref(vox, vidx, AffineExpr::var(0, 1), Access::Read);
    // Trilinear-interpolation partner: the neighboring voxel.
    nest.add_indirect_ref(vox, vidx, AffineExpr::var(0, 1), Access::Read);
    nest.add_ref(img, AffineExpr::var(0, 1), Access::Write);
    p.add_nest(nest);

    let mut data = DataEnv::new();
    data.set_index_array(vidx, clustered_indices(rays, voxels, 48, 0x701E));

    Workload {
        name: "volrend",
        program: p,
        data,
        irregular: true,
        timing_iters: 8,
        table3: Table3Info { loop_nests: 75, arrays: 36, iteration_groups: 381_157, frac_moved_pct: 12.9 },
    }
}

/// `art`: adaptive resonance theory neural network — near-random weight
/// fetches.
pub fn art(scale: Scale) -> Workload {
    let n = scale.dim1(130_000);
    let weights = n;
    let mut p = Program::new("art");
    let w = p.add_array("weights", 8, weights);
    let f1 = p.add_array("f1", 8, n);
    let f2 = p.add_array("f2", 8, n);
    let widx = p.add_array("w_idx", 8, n);

    let mut nest = LoopNest::rectangular("match", &[n as i64]).work(26);
    nest.add_ref(widx, AffineExpr::var(0, 1), Access::Read);
    nest.add_indirect_ref(w, widx, AffineExpr::var(0, 1), Access::Read);
    nest.add_ref(f1, AffineExpr::var(0, 1), Access::Read);
    nest.add_ref(f2, AffineExpr::var(0, 1), Access::Write);
    p.add_nest(nest);

    let mut data = DataEnv::new();
    data.set_index_array(widx, clustered_indices(n, weights, 4, 0xA27));

    Workload {
        name: "art",
        program: p,
        data,
        irregular: true,
        timing_iters: 8,
        table3: Table3Info { loop_nests: 12, arrays: 16, iteration_groups: 411_876, frac_moved_pct: 9.4 },
    }
}

/// `nbf`: non-bonded force kernel (GROMOS) over a neighbor pair list.
pub fn nbf(scale: Scale) -> Workload {
    let pairs = scale.dim1(240_000);
    let atoms = pairs / 4;
    let mut p = Program::new("nbf");
    let pos = p.add_array("pos", 8, atoms);
    let force = p.add_array("force", 8, pairs);
    let n1 = p.add_array("nbr1", 8, pairs);
    let n2 = p.add_array("nbr2", 8, pairs);

    let mut nest = LoopNest::rectangular("nonbonded", &[pairs as i64]).work(38);
    nest.add_ref(n1, AffineExpr::var(0, 1), Access::Read);
    nest.add_indirect_ref(pos, n1, AffineExpr::var(0, 1), Access::Read);
    nest.add_indirect_ref(pos, n2, AffineExpr::var(0, 1), Access::Read);
    nest.add_ref(force, AffineExpr::var(0, 1), Access::Write);
    p.add_nest(nest);

    let mut data = DataEnv::new();
    data.set_index_array(n1, clustered_indices(pairs, atoms, 24, 0xBF1));
    data.set_index_array(n2, clustered_indices(pairs, atoms, 24, 0xBF2));

    Workload {
        name: "nbf",
        program: p,
        data,
        irregular: true,
        timing_iters: 10,
        table3: Table3Info { loop_nests: 44, arrays: 12, iteration_groups: 289_990, frac_moved_pct: 18.5 },
    }
}

/// `hpccg`: 27-point banded sparse matrix-vector product (CG kernel).
pub fn hpccg(scale: Scale) -> Workload {
    sparse_matvec("hpccg", scale.dim1(16_000), 27, 0x4C6,
        Table3Info { loop_nests: 4, arrays: 4, iteration_groups: 78_032, frac_moved_pct: 10.4 }, 8)
}

/// `equake`: earthquake simulation — unstructured-mesh sparse MVM.
pub fn equake(scale: Scale) -> Workload {
    sparse_matvec("equake", scale.dim1(14_000), 24, 0xE94,
        Table3Info { loop_nests: 12, arrays: 8, iteration_groups: 309_528, frac_moved_pct: 7.7 }, 8)
}

/// Shared shape for the two sparse solvers: `y[r] = Σ_k val[r,k] *
/// x[col[r,k]]` with banded column indices around the diagonal.
///
/// # Panics
///
/// Panics if `rows` exceeds `i32::MAX`.
fn sparse_matvec(
    name: &'static str,
    rows: u64,
    nnz_per_row: u64,
    seed: u64,
    table3: Table3Info,
    timing_iters: u32,
) -> Workload {
    assert_index_universe(rows);
    let mut p = Program::new(name);
    let val = p.add_array("val", 8, rows * nnz_per_row);
    let x = p.add_array("x", 8, rows);
    let y = p.add_array("y", 8, rows);
    let col = p.add_array("col", 8, rows * nnz_per_row);

    let mut nest =
        LoopNest::rectangular("spmv", &[rows as i64, nnz_per_row as i64]).work(8);
    let flat = AffineExpr::linear(&[nnz_per_row as i64, 1], 0);
    nest.add_ref(val, flat.clone(), Access::Read);
    nest.add_ref(col, flat.clone(), Access::Read);
    nest.add_indirect_ref(x, col, flat, Access::Read);
    nest.add_ref(y, AffineExpr::var(0, 1), Access::Write);
    p.add_nest(nest);

    // Banded sparsity: column indices within ±band of the row, plus a few
    // long-range couplings determined by the seed.
    let band = (nnz_per_row * 3) as i64;
    let mut cols = Vec::with_capacity((rows * nnz_per_row) as usize);
    let mut state = seed;
    for r in 0..rows as i64 {
        for k in 0..nnz_per_row as i64 {
            // xorshift for the occasional long-range entry.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let c = if k == 0 {
                r // diagonal
            } else if state.is_multiple_of(16) {
                (state % rows) as i64
            } else {
                (r + (k - (nnz_per_row as i64 / 2)) * (band / nnz_per_row as i64))
                    .clamp(0, rows as i64 - 1)
            };
            cols.push(c as i32);
        }
    }
    let mut data = DataEnv::new();
    data.set_index_array(col, cols);

    Workload { name, program: p, data, irregular: true, timing_iters, table3 }
}

/// `moldyn`: molecular dynamics over a reusable neighbor list.
pub fn moldyn(scale: Scale) -> Workload {
    let pairs = scale.dim1(220_000);
    let atoms = pairs / 4;
    let mut p = Program::new("moldyn");
    let xcoord = p.add_array("x", 8, atoms);
    let f = p.add_array("f", 8, pairs);
    let vel = p.add_array("vel", 8, atoms);
    let n1 = p.add_array("inter1", 8, pairs);
    let n2 = p.add_array("inter2", 8, pairs);

    let mut forces = LoopNest::rectangular("compute-forces", &[pairs as i64]).work(42);
    forces.add_ref(n1, AffineExpr::var(0, 1), Access::Read);
    forces.add_indirect_ref(xcoord, n1, AffineExpr::var(0, 1), Access::Read);
    forces.add_indirect_ref(xcoord, n2, AffineExpr::var(0, 1), Access::Read);
    forces.add_ref(f, AffineExpr::var(0, 1), Access::Write);
    p.add_nest(forces);

    streaming(&mut p, "update", vel, &[xcoord], atoms, 20);

    let mut data = DataEnv::new();
    data.set_index_array(n1, clustered_indices(pairs, atoms, 32, 0x301D));
    data.set_index_array(n2, clustered_indices(pairs, atoms, 32, 0x301E));

    Workload {
        name: "moldyn",
        program: p,
        data,
        irregular: true,
        timing_iters: 10,
        table3: Table3Info { loop_nests: 2, arrays: 6, iteration_groups: 220_354, frac_moved_pct: 13.9 },
    }
}

/// `radix`: radix sort — histogram pass plus a bucket-permutation scatter.
pub fn radix(scale: Scale) -> Workload {
    let n = scale.dim1(260_000);
    let buckets = 2048u64;
    let mut p = Program::new("radix");
    let key = p.add_array("key", 8, n);
    let hist = p.add_array("hist", 8, buckets);
    let out = p.add_array("out", 8, n);
    let perm = p.add_array("perm", 8, n);

    // Histogram: blocked so the inner index is affine.
    let blocks = (n / buckets) as i64;
    let mut histo = LoopNest::rectangular("histogram", &[blocks, buckets as i64]).work(6);
    histo.add_ref(key, AffineExpr::linear(&[buckets as i64, 1], 0), Access::Read);
    histo.add_ref(hist, AffineExpr::var(1, 1), Access::Write);
    histo.parallel_depth = 1; // blocks race on hist; buckets do not
    p.add_nest(histo);

    // Scatter by rank: out[perm[i]] = key[i].
    let mut scatter = LoopNest::rectangular("scatter", &[n as i64]).work(8);
    scatter.add_ref(key, AffineExpr::var(0, 1), Access::Read);
    scatter.add_indirect_ref(out, perm, AffineExpr::var(0, 1), Access::Write);
    p.add_nest(scatter);

    let mut data = DataEnv::new();
    data.set_index_array(perm, blocked_permutation(n, 512, 0x2AD1C));

    Workload {
        name: "radix",
        program: p,
        data,
        irregular: true,
        timing_iters: 3,
        table3: Table3Info::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_matvec_columns_are_banded() {
        let w = hpccg(Scale::default());
        let nest = &w.program.nests()[0];
        // Sample rows; most columns lie within the band.
        let mut near = 0;
        let mut far = 0;
        for r in (0..16_000i64).step_by(101) {
            for k in 0..27i64 {
                let col_ref = &nest.refs[2];
                if let locmap_loopir::RefKind::Indirect { index_array, .. } = &col_ref.kind {
                    let c = w.data.index_value(*index_array, r * 27 + k);
                    if (c - r).abs() <= 81 {
                        near += 1;
                    } else {
                        far += 1;
                    }
                }
            }
        }
        assert!(near > far * 5, "band structure missing: near {near}, far {far}");
    }

    #[test]
    fn radix_scatter_is_permutation() {
        let w = radix(Scale::default());
        let nest = &w.program.nests()[1];
        if let locmap_loopir::RefKind::Indirect { index_array, .. } = &nest.refs[1].kind {
            let mut seen = vec![false; 260_000];
            for i in 0..260_000i64 {
                let v = w.data.index_value(*index_array, i);
                assert!(!seen[v as usize], "duplicate target {v}");
                seen[v as usize] = true;
            }
        } else {
            panic!("scatter ref should be indirect");
        }
    }

    #[test]
    fn barnes_tree_indices_in_bounds() {
        let w = barnes(Scale::default());
        let tree_extent = w.program.arrays()[2].extent as i64;
        for nest in w.program.nests() {
            for r in &nest.refs {
                if let locmap_loopir::RefKind::Indirect { index_array, .. } = &r.kind {
                    for i in (0..120_000i64).step_by(997) {
                        let v = w.data.index_value(*index_array, i);
                        assert!(v >= 0 && v < tree_extent);
                    }
                }
            }
        }
    }
}
