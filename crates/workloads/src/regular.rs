//! The regular (compile-time-analyzable) benchmarks.
//!
//! Each builder models the benchmark's dominant parallel kernels: the nest
//! shapes, array counts, reuse structure and footprints are chosen to put
//! the mapping pass and simulator in the same regime as the original
//! program; Table 3 metadata records the paper's reported properties.

use crate::builders::{stencil2d, stencil3d, streaming};
use crate::spec::{Scale, Table3Info, Workload};
use locmap_loopir::{Access, AffineExpr, DataEnv, LoopBound, LoopNest, Program};

fn regular(name: &'static str, program: Program, timing_iters: u32, t3: Table3Info) -> Workload {
    Workload { name, program, data: DataEnv::new(), irregular: false, timing_iters, table3: t3 }
}

/// `water`: molecular pair interactions within a cutoff window (each
/// molecule interacts with its `K` list neighbors) plus a position-update
/// sweep.
pub fn water(scale: Scale) -> Workload {
    let n = scale.dim1(26_000);
    let k_window = 18i64;
    let mut p = Program::new("water");
    let posx = p.add_array("posx", 8, n);
    let posy = p.add_array("posy", 8, n);
    let posz = p.add_array("posz", 8, n);
    let fx = p.add_array("fx", 8, n);
    let fy = p.add_array("fy", 8, n);
    let vx = p.add_array("vx", 8, n);

    // Pair interactions: for i, for j in i+1..i+1+K (cutoff window).
    let bounds = vec![
        LoopBound::range(n as i64 - k_window - 1),
        LoopBound {
            lower: AffineExpr::var(0, 1).plus(1),
            upper: AffineExpr::var(0, 1).plus(1 + k_window),
        },
    ];
    let mut pairs = LoopNest::with_bounds("pairs", bounds).work(56);
    pairs.add_ref(posx, AffineExpr::var(0, 1), Access::Read);
    pairs.add_ref(posy, AffineExpr::var(0, 1), Access::Read);
    pairs.add_ref(posx, AffineExpr::var(1, 1), Access::Read);
    pairs.add_ref(posy, AffineExpr::var(1, 1), Access::Read);
    pairs.add_ref(posz, AffineExpr::var(1, 1), Access::Read);
    pairs.add_ref(fx, AffineExpr::var(0, 1), Access::Write);
    p.add_nest(pairs);

    streaming(&mut p, "update", vx, &[fx, fy, posz], n, 24);

    regular(
        "water",
        p,
        8,
        Table3Info { loop_nests: 30, arrays: 16, iteration_groups: 698_012, frac_moved_pct: 7.1 },
    )
}

/// `cholesky`: triangular factorization sweep over a dense matrix.
pub fn cholesky(scale: Scale) -> Workload {
    let n = scale.dim2(512);
    let mut p = Program::new("cholesky");
    let l = p.add_array("L", 8, n * n);
    let d = p.add_array("D", 8, n);
    let tmp = p.add_array("tmp", 8, n * n);

    // Column update: for i, for j <= i.
    let bounds = vec![
        LoopBound::range(n as i64),
        LoopBound {
            lower: AffineExpr::constant(0),
            upper: AffineExpr::var(0, 1).plus(1),
        },
    ];
    let mut upd = LoopNest::with_bounds("col-update", bounds).work(36);
    let ni = n as i64;
    upd.add_ref(tmp, AffineExpr::linear(&[ni, 1], 0), Access::Write);
    upd.add_ref(l, AffineExpr::linear(&[ni, 1], 0), Access::Read);
    upd.add_ref(l, AffineExpr::var(1, 1), Access::Read); // pivot row
    upd.add_ref(d, AffineExpr::var(1, 1), Access::Read);
    p.add_nest(upd);

    regular(
        "cholesky",
        p,
        4,
        Table3Info { loop_nests: 128, arrays: 51, iteration_groups: 411_882, frac_moved_pct: 12.2 },
    )
}

/// `fft`: three representative butterfly passes with geometrically
/// increasing strides.
pub fn fft(scale: Scale) -> Workload {
    let n = scale.dim1(131_072).next_power_of_two();
    let mut p = Program::new("fft");
    // Out-of-place butterflies: read x, write y (ping-pong across passes).
    let xr = p.add_array("xr", 8, n);
    let xi = p.add_array("xi", 8, n);
    let yr = p.add_array("yr", 8, n);
    let wr = p.add_array("wr", 8, n / 2);
    let wi = p.add_array("wi", 8, n / 2);

    for (pass, h) in [(0u32, 1u64), (1, 64), (2, 4096)] {
        let groups = (n / (2 * h)) as i64;
        let half = h as i64;
        let mut nest = LoopNest::rectangular(format!("pass{pass}"), &[groups, half]).work(28);
        let top = AffineExpr::linear(&[2 * half, 1], 0);
        let bot = AffineExpr::linear(&[2 * half, 1], half);
        nest.add_ref(yr, top.clone(), Access::Write);
        nest.add_ref(xr, top, Access::Read);
        nest.add_ref(xr, bot.clone(), Access::Read);
        nest.add_ref(xi, bot, Access::Read);
        nest.add_ref(wr, AffineExpr::var(1, 1), Access::Read);
        nest.add_ref(wi, AffineExpr::var(1, 1), Access::Read);
        p.add_nest(nest);
    }

    regular(
        "fft",
        p,
        2,
        Table3Info { loop_nests: 4, arrays: 19, iteration_groups: 420_914, frac_moved_pct: 15.1 },
    )
}

/// `lu`: dense LU row-elimination sweep (triangular).
pub fn lu(scale: Scale) -> Workload {
    let n = scale.dim2(512);
    let mut p = Program::new("lu");
    let a = p.add_array("A", 8, n * n);
    let out = p.add_array("Aout", 8, n * n);
    let piv = p.add_array("pivot", 8, n);

    let ni = n as i64;
    // for i in 1..n, for j < i: out[i,j] = A[i,j] - piv[i]*A[0,j].
    let bounds = vec![
        LoopBound { lower: AffineExpr::constant(1), upper: AffineExpr::constant(ni) },
        LoopBound { lower: AffineExpr::constant(0), upper: AffineExpr::var(0, 1) },
    ];
    let mut elim = LoopNest::with_bounds("eliminate", bounds).work(20);
    elim.add_ref(out, AffineExpr::linear(&[ni, 1], 0), Access::Write);
    elim.add_ref(a, AffineExpr::linear(&[ni, 1], 0), Access::Read);
    elim.add_ref(a, AffineExpr::var(1, 1), Access::Read); // pivot row 0
    elim.add_ref(piv, AffineExpr::var(0, 1), Access::Read);
    p.add_nest(elim);

    regular("lu", p, 2, Table3Info::default())
}

/// `jacobi-3d`: two ping-pong passes of a 7-point 3-D stencil.
pub fn jacobi3d(scale: Scale) -> Workload {
    let n = scale.dim3(64);
    let mut p = Program::new("jacobi-3d");
    let a = p.add_array("A", 8, n * n * n);
    let b = p.add_array("B", 8, n * n * n);
    stencil3d(&mut p, "sweep-ab", a, b, n, 30);
    regular(
        "jacobi-3d",
        p,
        8,
        Table3Info { loop_nests: 4, arrays: 3, iteration_groups: 219_437, frac_moved_pct: 8.3 },
    )
}

/// `lulesh`: hexahedral shock hydrodynamics — modeled as a 3-D stencil
/// over the element energy field.
pub fn lulesh(scale: Scale) -> Workload {
    let n = scale.dim3(64);
    let mut p = Program::new("lulesh");
    let e = p.add_array("energy", 8, n * n * n);
    let v = p.add_array("volume", 8, n * n * n);
    stencil3d(&mut p, "calc-energy", v, e, n, 64);
    regular(
        "lulesh",
        p,
        6,
        Table3Info { loop_nests: 6, arrays: 1, iteration_groups: 109_086, frac_moved_pct: 8.2 },
    )
}

/// `minighost`: halo-exchange 7-point stencil (Mantevo).
pub fn minighost(scale: Scale) -> Workload {
    let n = scale.dim3(64);
    let mut p = Program::new("minighost");
    let grid = p.add_array("grid", 8, n * n * n);
    let next = p.add_array("next", 8, n * n * n);
    stencil3d(&mut p, "smooth", grid, next, n, 36);
    regular(
        "minighost",
        p,
        6,
        Table3Info { loop_nests: 4, arrays: 1, iteration_groups: 97_132, frac_moved_pct: 11.7 },
    )
}

/// `swim`: shallow-water modeling on 2-D staggered grids, two field
/// sweeps over its many state arrays.
pub fn swim(scale: Scale) -> Workload {
    let n = scale.dim2(256);
    let mut p = Program::new("swim");
    let u = p.add_array("u", 8, n * n);
    let v = p.add_array("v", 8, n * n);
    let pr = p.add_array("p", 8, n * n);
    let cu = p.add_array("cu", 8, n * n);
    let cv = p.add_array("cv", 8, n * n);
    let z = p.add_array("z", 8, n * n);
    let unew = p.add_array("unew", 8, n * n);

    let ni = n as i64;
    // calc1: cu, cv, z from u, v, p (5-point neighborhoods).
    let mut calc1 = LoopNest::rectangular("calc1", &[ni - 2, ni - 2]).work(40);
    let c = AffineExpr::linear(&[ni, 1], ni + 1);
    calc1.add_ref(cu, c.clone(), Access::Write);
    calc1.add_ref(u, c.clone(), Access::Read);
    calc1.add_ref(u, c.clone().plus(1), Access::Read);
    calc1.add_ref(pr, c.clone(), Access::Read);
    calc1.add_ref(pr, c.clone().plus(ni), Access::Read);
    calc1.add_ref(v, c.clone(), Access::Read);
    p.add_nest(calc1);

    // calc2: unew from cu, cv, z.
    let mut calc2 = LoopNest::rectangular("calc2", &[ni - 2, ni - 2]).work(40);
    calc2.add_ref(unew, c.clone(), Access::Write);
    calc2.add_ref(cu, c.clone(), Access::Read);
    calc2.add_ref(cv, c.clone().plus(-1), Access::Read);
    calc2.add_ref(z, c.clone().plus(ni), Access::Read);
    calc2.add_ref(z, c.plus(-ni), Access::Read);
    p.add_nest(calc2);

    regular(
        "swim",
        p,
        8,
        Table3Info { loop_nests: 4, arrays: 12, iteration_groups: 327_136, frac_moved_pct: 13.6 },
    )
}

/// `mxm`: dense matrix multiplication, row-major ijk.
pub fn mxm(scale: Scale) -> Workload {
    // A slab of rows of a 256x256 multiply per timing pass: B spans many
    // pages (page-aligned rows), A/C rows stream.
    let n = scale.dim2(256);
    let slab = 24i64;
    let mut p = Program::new("mxm");
    let a = p.add_array("A", 8, n * n);
    let b = p.add_array("B", 8, n * n);
    let c = p.add_array("C", 8, n * n);
    let ni = n as i64;
    let mut nest = LoopNest::rectangular("ijk", &[slab, ni, ni]).work(10);
    nest.add_ref(c, AffineExpr::linear(&[ni, 1, 0], 0), Access::Write);
    nest.add_ref(a, AffineExpr::linear(&[ni, 0, 1], 0), Access::Read);
    nest.add_ref(b, AffineExpr::linear(&[0, 1, ni], 0), Access::Read);
    p.add_nest(nest);
    regular(
        "mxm",
        p,
        3,
        Table3Info { loop_nests: 2, arrays: 3, iteration_groups: 278_008, frac_moved_pct: 11.0 },
    )
}

/// `diff`: an explicit finite-difference PDE solver over several coupled
/// 2-D fields.
pub fn diff(scale: Scale) -> Workload {
    let n = scale.dim2(256);
    let mut p = Program::new("diff");
    let phi = p.add_array("phi", 8, n * n);
    let phinew = p.add_array("phinew", 8, n * n);
    let rho = p.add_array("rho", 8, n * n);
    let flux = p.add_array("flux", 8, n * n);
    stencil2d(&mut p, "laplacian", phi, phinew, n, 32);
    stencil2d(&mut p, "flux", rho, flux, n, 32);
    streaming(&mut p, "advance", phi, &[phinew, flux], n * n, 16);
    regular(
        "diff",
        p,
        6,
        Table3Info { loop_nests: 8, arrays: 12, iteration_groups: 361_151, frac_moved_pct: 12.8 },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn water_window_pair_count() {
        let w = water(Scale::default());
        let nest = &w.program.nests()[0];
        // (n - K - 1) molecules x K window partners.
        assert_eq!(nest.iteration_count(&w.program.params()), (26_000 - 19) * 18);
    }

    #[test]
    fn fft_passes_cover_the_array() {
        let w = fft(Scale::default());
        assert_eq!(w.program.nests().len(), 3);
        for nest in w.program.nests() {
            assert_eq!(nest.iteration_count(&w.program.params()), 131_072 / 2);
        }
    }

    #[test]
    fn mxm_refs_have_correct_strides() {
        let w = mxm(Scale::default());
        let nest = &w.program.nests()[0];
        // C invariant in k (innermost), B strided by N in k.
        let c_expr = match &nest.refs[0].kind {
            locmap_loopir::RefKind::Affine(e) => e,
            _ => unreachable!(),
        };
        assert!(c_expr.coeffs.get(2).is_none_or(|&c| c == 0));
        let b_expr = match &nest.refs[2].kind {
            locmap_loopir::RefKind::Affine(e) => e,
            _ => unreachable!(),
        };
        assert_eq!(b_expr.coeffs.get(2), Some(&256));
    }

    #[test]
    fn lu_never_reads_out_of_bounds() {
        let w = lu(Scale::default());
        let nest = &w.program.nests()[0];
        let space = locmap_loopir::IterationSpace::enumerate(nest, &w.program.params());
        let refs = w.program.compile_refs(nest, &w.data);
        for k in (0..space.len()).step_by(31) {
            for r in &refs {
                let _ = r.addr(space.get(k));
            }
        }
    }
}
