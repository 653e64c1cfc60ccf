//! Pass 1: loop-nest lints.
//!
//! The pass is *exact* — it answers precisely, never "maybe" — but it does
//! not pay for enumeration unless it must:
//!
//! * **Rectangular fast path.** When every loop bound is independent of
//!   the enclosing indices (the common case: stencils, dense linear
//!   algebra), per-level ranges are constants and every affine subscript's
//!   min/max follows from interval arithmetic in `O(depth)` — no
//!   iteration-space enumeration at all. Out-of-bounds subscripts are
//!   reported as [`Code::OOB_ACCESS`] (release builds skip the
//!   `debug_assert` in `Array::addr_of`, so this lint is the only
//!   out-of-bounds net for shipped binaries).
//! * **Dependence filter.** Parallel legality first runs a sound
//!   no-conflict proof over pairs of affine references: writing each
//!   subscript as `c·i_par + f(other indices)`, a cross-core conflict
//!   requires a nonzero integer `k` with `c·k` inside the range of
//!   `f₂ − f₁`. When no such `k` exists for any write pair the nest is
//!   provably safe and the pass finishes without touching the space.
//! * **Exact fallback.** Triangular bounds, indirect subscripts, and
//!   pairs the filter cannot clear fall back to full enumeration: a
//!   dependence is carried by the declared-parallel loop iff some array
//!   element is written and touched from two different parallel-loop
//!   indices ([`Code::CARRIED_DEPENDENCE`]). This is exact where a
//!   classic ZIV/SIV/GCD battery must answer "maybe" (a strong-SIV test
//!   calls `A[i] = A[i+50]` over `0..50` carried), so provably-parallel
//!   shipped workloads verify Deny-free. It is the one parallel-legality
//!   analysis in the workspace.
//!
//! Irregular references without installed index arrays are unknowable at
//! compile time and produce warnings, mirroring the paper's fallback to
//! the runtime inspector.

use crate::diag::{Code, Diagnostic, DiagnosticSink, Entity};
use locmap_loopir::{
    Access, AffineExpr, DataEnv, IterationSpace, LoopNest, NestId, ParamEnv, Program, RefKind,
};
use std::collections::HashMap;

/// Enumerates the iteration space at most once, and only when a check
/// actually needs it (the rectangular fast paths never do).
struct LazySpace<'a> {
    nest: &'a LoopNest,
    env: &'a ParamEnv,
    space: Option<IterationSpace>,
}

impl LazySpace<'_> {
    fn get(&mut self) -> &IterationSpace {
        if self.space.is_none() {
            self.space = Some(IterationSpace::enumerate(self.nest, self.env));
        }
        self.space.as_ref().unwrap()
    }
}

/// Per-level inclusive index ranges `[lo, hi]`, or `None` when some bound
/// depends on an enclosing loop index (triangular nests enumerate instead).
/// Symbolic parameters are fine — they are constants under `env`.
fn rect_ranges(nest: &LoopNest, env: &ParamEnv) -> Option<Vec<(i64, i64)>> {
    let rectangular = nest.bounds.iter().all(|b| {
        b.lower.coeffs.iter().all(|&c| c == 0) && b.upper.coeffs.iter().all(|&c| c == 0)
    });
    rectangular.then(|| {
        nest.bounds.iter().map(|b| (b.lower.eval(&[], env), b.upper.eval(&[], env) - 1)).collect()
    })
}

/// Interval-arithmetic range of `e` over a rectangular space. `skip`
/// treats that loop level's coefficient as zero (used to range the
/// non-parallel part `f` of a subscript).
fn affine_range(
    e: &AffineExpr,
    ranges: &[(i64, i64)],
    env: &ParamEnv,
    skip: Option<usize>,
) -> (i64, i64) {
    let mut base = e.constant;
    for &(p, c) in &e.params {
        base += c * env.value(p);
    }
    let (mut lo, mut hi) = (base, base);
    for (level, &c) in e.coeffs.iter().enumerate() {
        if c == 0 || Some(level) == skip {
            continue;
        }
        let (rlo, rhi) = ranges[level];
        if c > 0 {
            lo += c * rlo;
            hi += c * rhi;
        } else {
            lo += c * rhi;
            hi += c * rlo;
        }
    }
    (lo, hi)
}

/// Lints one nest: degeneracy, subscript bounds, parallel legality.
pub fn check_nest(program: &Program, nest_id: NestId, data: &DataEnv, sink: &mut DiagnosticSink) {
    let nest = program.nest(nest_id);
    let env = program.params();
    let rect = rect_ranges(nest, &env);
    let mut lazy = LazySpace { nest, env: &env, space: None };

    let empty = match &rect {
        Some(ranges) => ranges.iter().any(|&(lo, hi)| hi < lo),
        None => lazy.get().is_empty(),
    };
    if empty {
        sink.emit(
            Diagnostic::new(
                Code::EMPTY_NEST,
                format!("nest {:?} has an empty iteration space", nest.name),
            )
            .entity(Entity::Nest(nest_id))
            .suggest("check its loop bounds (an upper bound at or below a lower bound)"),
        );
        return;
    }

    let mut any_oob = false;
    let mut any_unresolved = false;

    for (ri, r) in nest.refs.iter().enumerate() {
        let arr = program.array(r.array);
        match &r.kind {
            RefKind::Affine(e) => {
                let (lo, hi) = match &rect {
                    Some(ranges) => affine_range(e, ranges, &env, None),
                    None => minmax(lazy.get().iter().map(|iv| e.eval(iv, &env))),
                };
                if lo < 0 || hi as u64 >= arr.extent {
                    any_oob = true;
                    sink.emit(
                        Diagnostic::new(
                            Code::OOB_ACCESS,
                            format!(
                                "{}[{e}] ranges over [{lo}, {hi}] but the extent is {}",
                                arr.name, arr.extent
                            ),
                        )
                        .entity(Entity::Ref { nest: nest_id, index: ri })
                        .suggest("grow the array or tighten the loop bounds"),
                    );
                }
            }
            RefKind::Indirect { index_array, position, offset } => {
                let idx_arr = program.array(*index_array);
                let (plo, phi) = match &rect {
                    Some(ranges) => affine_range(position, ranges, &env, None),
                    None => minmax(lazy.get().iter().map(|iv| position.eval(iv, &env))),
                };
                if plo < 0 || phi as u64 >= idx_arr.extent {
                    any_oob = true;
                    sink.emit(
                        Diagnostic::new(
                            Code::OOB_ACCESS,
                            format!(
                                "index array {}[{position}] ranges over [{plo}, {phi}] but the \
                                 extent is {}",
                                idx_arr.name, idx_arr.extent
                            ),
                        )
                        .entity(Entity::Ref { nest: nest_id, index: ri }),
                    );
                } else if data.has(*index_array) {
                    // The fetched values are data, not affine: resolving
                    // them is inherently an enumeration of the positions
                    // actually touched (an interval over [plo, phi] could
                    // flag index-array slots the nest never reads).
                    let (lo, hi) = minmax(lazy.get().iter().map(|iv| {
                        data.index_value(*index_array, position.eval(iv, &env)) + offset
                    }));
                    if lo < 0 || hi as u64 >= arr.extent {
                        any_oob = true;
                        sink.emit(
                            Diagnostic::new(
                                Code::OOB_ACCESS,
                                format!(
                                    "{}[{}[...]{}] resolves to [{lo}, {hi}] but the extent is {}",
                                    arr.name,
                                    idx_arr.name,
                                    if *offset >= 0 {
                                        format!("+{offset}")
                                    } else {
                                        offset.to_string()
                                    },
                                    arr.extent
                                ),
                            )
                            .entity(Entity::Ref { nest: nest_id, index: ri })
                            .suggest("check the index-array contents installed in the DataEnv"),
                        );
                    }
                } else {
                    any_unresolved = true;
                    sink.emit(
                        Diagnostic::new(
                            Code::UNRESOLVED_INDIRECT,
                            format!(
                                "{}[{}[...]] cannot be resolved: {} is not installed in the \
                                 DataEnv",
                                arr.name, idx_arr.name, idx_arr.name
                            ),
                        )
                        .entity(Entity::Ref { nest: nest_id, index: ri })
                        .suggest("install the index array, or rely on the runtime inspector"),
                    );
                }
            }
        }
    }

    // Parallel-legality: exact. Skip when subscripts are unknowable
    // (warned above) or provably out of bounds (addresses are meaningless
    // past the extent).
    if any_unresolved {
        sink.emit(
            Diagnostic::new(
                Code::UNKNOWN_DEPENDENCE,
                format!(
                    "nest {:?}: dependences through unresolved indirect references cannot be \
                     checked statically",
                    nest.name
                ),
            )
            .entity(Entity::Nest(nest_id))
            .suggest("the inspector-executor re-derives the mapping from observed accesses"),
        );
        return;
    }
    if any_oob || nest.parallel_depth >= nest.depth() {
        return;
    }
    if let Some(ranges) = &rect {
        if proves_no_conflict(nest, ranges, &env) {
            return;
        }
    }
    check_parallel_legality(program, nest_id, data, lazy.get(), sink);
}

/// Which array ids are written by the nest (arrays never written cannot
/// carry a dependence).
fn written_arrays(nest: &LoopNest) -> Vec<bool> {
    let max_id = nest.refs.iter().map(|r| r.array.0 as usize).max().unwrap_or(0);
    let mut w = vec![false; max_id + 1];
    for r in &nest.refs {
        if r.access == Access::Write {
            w[r.array.0 as usize] = true;
        }
    }
    w
}

/// Sound no-conflict proof for rectangular nests: `true` means tiling the
/// parallel loop provably breaks no dependence, so enumeration can be
/// skipped entirely. `false` means "could not prove it", not "conflict".
///
/// Each affine subscript on a written array decomposes as
/// `c·i_par + f(other indices)`; a conflict between parallel indices
/// `p₁ ≠ p₂` of refs 1 (a write) and 2 requires
/// `c₁·p₁ − c₂·p₂ ∈ [min f₂ − max f₁, max f₂ − min f₁]`. With equal
/// coefficients that difference is `c·k` for a nonzero `k` bounded by the
/// parallel span — a two-sided divisibility check. Unequal coefficients
/// use a conservative interval test. The `f` ranges are treated
/// independently even when the refs share inner indices, which only
/// over-approximates (sound).
fn proves_no_conflict(nest: &LoopNest, ranges: &[(i64, i64)], env: &ParamEnv) -> bool {
    let par = nest.parallel_depth;
    let (plo, phi) = ranges[par];
    let span = phi - plo; // max |p₁ − p₂| across cores
    if span < 1 {
        return true; // a single parallel index cannot conflict with itself
    }

    let written = written_arrays(nest);
    // (array, is_write, c_par, f_lo, f_hi) per ref on a written array.
    let mut terms: Vec<(u32, bool, i64, i64, i64)> = Vec::new();
    for r in &nest.refs {
        if !written[r.array.0 as usize] {
            continue;
        }
        match &r.kind {
            RefKind::Affine(e) => {
                let c = e.coeffs.get(par).copied().unwrap_or(0);
                let (flo, fhi) = affine_range(e, ranges, env, Some(par));
                terms.push((r.array.0, r.access == Access::Write, c, flo, fhi));
            }
            // Resolved index-array values are data; only enumeration is
            // exact there.
            RefKind::Indirect { .. } => return false,
        }
    }

    for &(a1, w1, c1, f1lo, f1hi) in &terms {
        if !w1 {
            continue;
        }
        for &(a2, _, c2, f2lo, f2hi) in &terms {
            if a2 != a1 {
                continue;
            }
            // Target interval for c₁·p₁ − c₂·p₂.
            let (dlo, dhi) = (f2lo - f1hi, f2hi - f1lo);
            let clear = if c1 == c2 {
                if c1 == 0 {
                    // Difference is always 0: safe iff the f ranges are
                    // disjoint.
                    dlo > 0 || dhi < 0
                } else {
                    !has_multiple_in(c1.abs(), span, dlo, dhi)
                }
            } else {
                // Mixed coefficients: safe if even the full (p₁, p₂)
                // rectangle cannot reach the target interval.
                let (l1, h1) = mul_range(c1, plo, phi);
                let (l2, h2) = mul_range(c2, plo, phi);
                h1 - l2 < dlo || dhi < l1 - h2
            };
            if !clear {
                return false;
            }
        }
    }
    true
}

/// Does some `k` with `1 ≤ k ≤ k_max` satisfy `a·k ∈ [dlo, dhi]` or
/// `−a·k ∈ [dlo, dhi]`? (`a > 0`.)
fn has_multiple_in(a: i64, k_max: i64, dlo: i64, dhi: i64) -> bool {
    let hit = |lo: i64, hi: i64| {
        let kmin = div_ceil_pos(lo, a).max(1);
        let kmax = div_floor_pos(hi, a).min(k_max);
        kmin <= kmax
    };
    hit(dlo, dhi) || hit(-dhi, -dlo)
}

/// Floor division for a positive divisor (Rust's `/` truncates toward 0).
fn div_floor_pos(n: i64, d: i64) -> i64 {
    let q = n / d;
    if n % d != 0 && n < 0 { q - 1 } else { q }
}

/// Ceiling division for a positive divisor.
fn div_ceil_pos(n: i64, d: i64) -> i64 {
    let q = n / d;
    if n % d != 0 && n > 0 { q + 1 } else { q }
}

/// Range of `c·p` for `p ∈ [lo, hi]`.
fn mul_range(c: i64, lo: i64, hi: i64) -> (i64, i64) {
    if c >= 0 { (c * lo, c * hi) } else { (c * hi, c * lo) }
}

/// Exact carried-dependence check by enumeration: an element-level
/// conflict exists iff some element is written and accessed from two
/// distinct values of the parallel-loop index.
fn check_parallel_legality(
    program: &Program,
    nest_id: NestId,
    data: &DataEnv,
    space: &IterationSpace,
    sink: &mut DiagnosticSink,
) {
    let nest = program.nest(nest_id);
    let env = program.params();
    let par = nest.parallel_depth;
    let written = written_arrays(nest);

    // (array, element) -> (min/max parallel index seen, written?).
    let mut touched: HashMap<(u32, i64), (i64, i64, bool)> = HashMap::new();
    for iv in space.iter() {
        let p = iv[par];
        for r in &nest.refs {
            if !written[r.array.0 as usize] {
                continue;
            }
            let elem = match &r.kind {
                RefKind::Affine(e) => e.eval(iv, &env),
                RefKind::Indirect { index_array, position, offset } => {
                    data.index_value(*index_array, position.eval(iv, &env)) + offset
                }
            };
            let is_write = r.access == Access::Write;
            touched
                .entry((r.array.0, elem))
                .and_modify(|(lo, hi, w)| {
                    *lo = (*lo).min(p);
                    *hi = (*hi).max(p);
                    *w |= is_write;
                })
                .or_insert((p, p, is_write));
        }
    }

    let mut conflicts: HashMap<u32, (usize, i64)> = HashMap::new();
    for (&(arr, elem), &(lo, hi, w)) in &touched {
        if w && lo < hi {
            let e = conflicts.entry(arr).or_insert((0, elem));
            e.0 += 1;
        }
    }
    for (arr, (count, example)) in conflicts {
        let name = &program.array(locmap_loopir::ArrayId(arr)).name;
        sink.emit(
            Diagnostic::new(
                Code::CARRIED_DEPENDENCE,
                format!(
                    "splitting parallel loop i{par} across cores breaks a carried dependence on \
                     {name}: {count} element(s) (e.g. {name}[{example}]) are written and touched \
                     from different i{par} values",
                ),
            )
            .entity(Entity::Nest(nest_id))
            .suggest("the declared parallel_depth is not safe to tile; fix the nest or the depth"),
        );
    }
}

fn minmax(it: impl Iterator<Item = i64>) -> (i64, i64) {
    it.fold((i64::MAX, i64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmap_loopir::{Access, AffineExpr, LoopBound, LoopNest};

    fn sink() -> DiagnosticSink {
        DiagnosticSink::new()
    }

    #[test]
    fn clean_streaming_nest_lints_clean() {
        let mut p = Program::new("t");
        let a = p.add_array("A", 8, 100);
        let b = p.add_array("B", 8, 100);
        let mut nest = LoopNest::rectangular("n", &[100]);
        nest.add_ref(a, AffineExpr::var(0, 1), Access::Write);
        nest.add_ref(b, AffineExpr::var(0, 1), Access::Read);
        let id = p.add_nest(nest);
        let mut s = sink();
        check_nest(&p, id, &DataEnv::new(), &mut s);
        assert!(s.diagnostics().is_empty(), "{}", s.report());
    }

    #[test]
    fn empty_nest_warns_lm0001() {
        let mut p = Program::new("t");
        let nest = LoopNest::with_bounds("z", vec![LoopBound::range(0)]);
        let id = p.add_nest(nest);
        let mut s = sink();
        check_nest(&p, id, &DataEnv::new(), &mut s);
        assert!(s.has(Code::EMPTY_NEST));
        assert!(s.is_clean(), "degeneracy is a warning, not an error");
    }

    #[test]
    fn out_of_bounds_access_denies_lm0002() {
        let mut p = Program::new("t");
        let a = p.add_array("A", 8, 100);
        let mut nest = LoopNest::rectangular("n", &[100]);
        // A[i+1] runs to 100 on an extent-100 array.
        nest.add_ref(a, AffineExpr::var(0, 1).plus(1), Access::Write);
        let id = p.add_nest(nest);
        let mut s = sink();
        check_nest(&p, id, &DataEnv::new(), &mut s);
        assert!(s.has(Code::OOB_ACCESS), "{}", s.report());
        assert!(!s.is_clean());
    }

    #[test]
    fn carried_dependence_denies_lm0004() {
        let mut p = Program::new("t");
        let a = p.add_array("A", 8, 1);
        let b = p.add_array("B", 8, 100);
        let mut nest = LoopNest::rectangular("n", &[100]);
        // Every iteration writes A[0]: classic reduction, unsafe to tile.
        nest.add_ref(a, AffineExpr::constant(0), Access::Write);
        nest.add_ref(b, AffineExpr::var(0, 1), Access::Read);
        let id = p.add_nest(nest);
        let mut s = sink();
        check_nest(&p, id, &DataEnv::new(), &mut s);
        assert!(s.has(Code::CARRIED_DEPENDENCE), "{}", s.report());
    }

    #[test]
    fn exactness_beats_conservative_static_test() {
        // A[i] = A[i+50] on i in 0..50: the write range [0,50) and read
        // range [50,100) never overlap, so tiling is safe — but a strong
        // SIV test sees distance 50 and reports it carried. The exact
        // check stays quiet (here the no-conflict filter itself proves
        // it: c=1, f₂−f₁ = 50, and |k| ≤ 49).
        let mut p = Program::new("t");
        let a = p.add_array("A", 8, 100);
        let mut nest = LoopNest::rectangular("n", &[50]);
        nest.add_ref(a, AffineExpr::var(0, 1), Access::Write);
        nest.add_ref(a, AffineExpr::var(0, 1).plus(50), Access::Read);
        let id = p.add_nest(nest);
        let mut s = sink();
        check_nest(&p, id, &DataEnv::new(), &mut s);
        assert!(!s.has(Code::CARRIED_DEPENDENCE), "{}", s.report());
    }

    #[test]
    fn shipped_workloads_are_parallel_legal() {
        // Every shipped workload models an already-parallel application,
        // so each nest, with its index arrays installed, must tile its
        // declared parallel loop without breaking a dependence.
        let workloads = locmap_workloads::build_all(locmap_workloads::Scale::default());
        assert_eq!(workloads.len(), locmap_workloads::names().len());
        let mut nests = 0;
        for w in &workloads {
            for id in w.program.nest_ids() {
                let mut s = sink();
                check_nest(&w.program, id, &w.data, &mut s);
                let name = &w.program.nest(id).name;
                assert!(!s.has(Code::CARRIED_DEPENDENCE), "{}::{name}: {}", w.name, s.report());
                assert!(s.is_clean(), "{}::{name}: {}", w.name, s.report());
                nests += 1;
            }
        }
        assert_eq!(nests, 29, "every nest of the 21 workloads is checked");
    }

    #[test]
    fn no_conflict_filter_clears_mxm_style_nest() {
        // C[i·N + j] accumulate with N = 64: the parallel coefficient 64
        // exceeds the inner range width 63, so no nonzero multiple lands
        // in the f-difference interval and the filter proves safety
        // without enumerating 64² iterations.
        let mut p = Program::new("t");
        let c = p.add_array("C", 8, 64 * 64);
        let mut nest = LoopNest::rectangular("mm", &[64, 64]);
        let sub = AffineExpr::linear(&[64, 1], 0);
        nest.add_ref(c, sub.clone(), Access::Write);
        nest.add_ref(c, sub, Access::Read);
        let id = p.add_nest(nest);
        let nest_ref = p.nest(id);
        let env = p.params();
        let ranges = rect_ranges(nest_ref, &env).expect("rectangular");
        assert!(proves_no_conflict(nest_ref, &ranges, &env), "filter must clear mxm");
        let mut s = sink();
        check_nest(&p, id, &DataEnv::new(), &mut s);
        assert!(s.diagnostics().is_empty(), "{}", s.report());
    }

    #[test]
    fn shared_inner_index_falls_back_and_denies_lm0004() {
        // A[i + j] with parallel i: element 1 is written from (0,1) and
        // (1,0). The filter cannot clear c=1 against an f-range of width
        // 9, so the exact fallback runs and reports the conflict.
        let mut p = Program::new("t");
        let a = p.add_array("A", 8, 32);
        let mut nest = LoopNest::rectangular("skew", &[10, 10]);
        nest.add_ref(a, AffineExpr::linear(&[1, 1], 0), Access::Write);
        let id = p.add_nest(nest);
        let nest_ref = p.nest(id);
        let env = p.params();
        let ranges = rect_ranges(nest_ref, &env).expect("rectangular");
        assert!(!proves_no_conflict(nest_ref, &ranges, &env), "filter must not clear skew");
        let mut s = sink();
        check_nest(&p, id, &DataEnv::new(), &mut s);
        assert!(s.has(Code::CARRIED_DEPENDENCE), "{}", s.report());
    }

    #[test]
    fn triangular_nest_enumerates_and_stays_exact() {
        // i0 in 0..10, i1 in 0..i0+1: not rectangular, so both the OOB
        // check and the dependence check take the enumeration path.
        // A[i1] is written from many i0 values — a carried dependence.
        let mut p = Program::new("t");
        let a = p.add_array("A", 8, 10);
        let mut nest = LoopNest::with_bounds(
            "tri",
            vec![LoopBound::range(10), LoopBound {
                lower: AffineExpr::constant(0),
                upper: AffineExpr::var(0, 1).plus(1),
            }],
        );
        nest.add_ref(a, AffineExpr::var(1, 1), Access::Write);
        let id = p.add_nest(nest);
        assert!(rect_ranges(p.nest(id), &p.params()).is_none());
        let mut s = sink();
        check_nest(&p, id, &DataEnv::new(), &mut s);
        assert!(!s.has(Code::OOB_ACCESS), "i1 < i0+1 <= 10 stays in bounds: {}", s.report());
        assert!(s.has(Code::CARRIED_DEPENDENCE), "{}", s.report());
    }

    #[test]
    fn unresolved_indirect_warns_lm0003_and_lm0005() {
        let mut p = Program::new("t");
        let a = p.add_array("A", 8, 100);
        let idx = p.add_array("idx", 4, 100);
        let mut nest = LoopNest::rectangular("n", &[100]);
        nest.add_indirect_ref(a, idx, AffineExpr::var(0, 1), Access::Write);
        let id = p.add_nest(nest);
        let mut s = sink();
        check_nest(&p, id, &DataEnv::new(), &mut s);
        assert!(s.has(Code::UNRESOLVED_INDIRECT));
        assert!(s.has(Code::UNKNOWN_DEPENDENCE));
        assert!(s.is_clean(), "unknowable is a warning, not a proven violation");
    }

    #[test]
    fn resolved_indirect_oob_denies_lm0002() {
        let mut p = Program::new("t");
        let a = p.add_array("A", 8, 10);
        let idx = p.add_array("idx", 4, 4);
        let mut nest = LoopNest::rectangular("n", &[4]);
        nest.add_indirect_ref(a, idx, AffineExpr::var(0, 1), Access::Write);
        let id = p.add_nest(nest);
        let mut data = DataEnv::new();
        data.set_index_array(idx, vec![0, 3, 99, 1]); // 99 is out of A's extent 10
        let mut s = sink();
        check_nest(&p, id, &data, &mut s);
        assert!(s.has(Code::OOB_ACCESS), "{}", s.report());
    }
}
