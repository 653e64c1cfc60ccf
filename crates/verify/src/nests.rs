//! Pass 1: loop-nest lints.
//!
//! The pass is *exact* — it answers precisely, never "maybe" — but it does
//! not walk the iteration space unless it must:
//!
//! * **Rectangular fast path.** When every loop bound is independent of
//!   the enclosing indices (the common case: stencils, dense linear
//!   algebra), per-level ranges are constants and every affine subscript's
//!   min/max follows from interval arithmetic in `O(depth)` — no
//!   walk of the iteration space at all. Out-of-bounds subscripts are
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
//!   pairs the filter cannot clear fall back to one walk of the whole
//!   space with an [`IterCursor`], one innermost run at a time. The walk
//!   evaluates the references it needs through their [`CompiledRef`]s,
//!   the form the mapper and the simulator address with, and does two
//!   things at once: it records each reference's subscript and element
//!   ranges for the bounds lint, and it fills one dense conflict table per
//!   written array, sized by the array's extent. A dependence is carried
//!   by the declared-parallel loop iff some array element is written and
//!   touched from two different parallel-loop indices
//!   ([`Code::CARRIED_DEPENDENCE`]). The findings come out in array
//!   order, each naming its array's lowest conflicting element.
//!   This is exact where a classic ZIV/SIV/GCD battery must answer
//!   "maybe" (a strong-SIV test calls `A[i] = A[i+50]` over `0..50`
//!   carried), so provably-parallel shipped workloads verify Deny-free.
//!   It is the one parallel-legality analysis in the workspace.
//!
//! Irregular references without installed index arrays are unknowable at
//! compile time and produce warnings, mirroring the paper's fallback to
//! the runtime inspector.

use crate::diag::{Code, Diagnostic, DiagnosticSink, Entity};
use locmap_loopir::{
    Access, AffineExpr, ArrayId, ArrayRef, CompiledRef, DataEnv, IterCursor, LoopNest, NestId,
    ParamEnv, Program, RefKind,
};
use std::borrow::Cow;

/// Per-level inclusive index ranges `[lo, hi]`, or `None` when some bound
/// depends on an enclosing loop index (triangular nests are walked instead).
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

/// The affine subscript of `r` and the array it indexes: the accessed
/// array for an affine reference, the index array for an indirect one.
fn subscript_of(r: &ArrayRef) -> (&AffineExpr, ArrayId) {
    match &r.kind {
        RefKind::Affine(e) => (e, r.array),
        RefKind::Indirect { index_array, position, .. } => (position, *index_array),
    }
}

/// Whether `[lo, hi]` leaves `0..extent`.
fn outside(lo: i64, hi: i64, extent: u64) -> bool {
    lo < 0 || hi as u64 >= extent
}

/// What the bounds lint knows of one reference.
#[derive(Debug, Clone, Copy)]
struct Seen {
    /// Least and greatest subscript: the element of an affine reference,
    /// the index-array position of an indirect one.
    subscripts: (i64, i64),
    /// Least and greatest element an indirect reference's positions
    /// resolved to.
    elements: (i64, i64),
    /// Whether some position fell outside the installed index array.
    unresolved: bool,
}

impl Seen {
    /// Nothing seen yet: empty ranges.
    const NONE: Seen = Seen {
        subscripts: (i64::MAX, i64::MIN),
        elements: (i64::MAX, i64::MIN),
        unresolved: false,
    };
}

/// Widens `range` to cover `v`.
fn cover(range: &mut (i64, i64), v: i64) {
    range.0 = range.0.min(v);
    range.1 = range.1.max(v);
}

/// The dense conflict table of one written array, one slot per element
/// of its extent. Its conflicts are counted as they appear: an element
/// that is written and touched from two parallel indices stays so.
struct ConflictTable {
    array: ArrayId,
    /// Least and greatest parallel index that touched each element;
    /// `[i32::MAX, i32::MIN]` while untouched.
    span: Vec<[i32; 2]>,
    /// One bit per element, set once a write touched it.
    written: Vec<u64>,
    /// The number of conflicting elements, and the lowest of them.
    conflicts: Option<(usize, usize)>,
}

impl ConflictTable {
    fn new(array: ArrayId, extent: u64) -> Self {
        let extent = extent as usize;
        ConflictTable {
            array,
            span: vec![[i32::MAX, i32::MIN]; extent],
            written: vec![0; extent.div_ceil(64)],
            conflicts: None,
        }
    }

    /// Records a touch of element `e` from parallel index `p`. An element
    /// outside the extent is skipped: its reference's range is out of
    /// bounds, which the bounds lint reports and which drops legality.
    #[inline]
    fn touch(&mut self, e: i64, p: i32, write: bool) {
        let Some(i) = usize::try_from(e).ok().filter(|&i| i < self.span.len()) else {
            return;
        };
        let [lo, hi] = self.span[i];
        let word = &mut self.written[i / 64];
        let bit = 1 << (i % 64);
        let was = lo < hi && *word & bit != 0;
        let (lo, hi) = (lo.min(p), hi.max(p));
        self.span[i] = [lo, hi];
        if write {
            *word |= bit;
        }
        if !was && lo < hi && *word & bit != 0 {
            let (count, lowest) = self.conflicts.get_or_insert((0, i));
            *count += 1;
            *lowest = (*lowest).min(i);
        }
    }
}

/// One reference in the walk.
struct Probe<'a> {
    compiled: CompiledRef<'a>,
    /// Its subscript's coefficient on the innermost index.
    stride: i64,
    /// The table it fills, and whether it writes.
    table: Option<(usize, bool)>,
    /// Whether it is affine, so its elements are its subscripts.
    affine: bool,
}

/// Walks `nest`'s space once, one innermost run at a time, evaluating
/// every reference through its compiled form: each one's subscript and
/// element ranges come back in reference order, and each touch of an
/// array with a table in `tables` goes into that table.
///
/// # Panics
///
/// Panics, naming the nest, if `tables` is not empty and a parallel index
/// lies outside `i32`.
fn walk(
    program: &Program,
    nest: &LoopNest,
    data: &DataEnv,
    env: &ParamEnv,
    tables: &mut [ConflictTable],
) -> Vec<Seen> {
    // An indirect reference whose index array is not installed is walked
    // as the affine read of the index array that its position makes.
    let refs: Vec<Cow<ArrayRef>> = nest
        .refs
        .iter()
        .map(|r| match &r.kind {
            RefKind::Indirect { index_array, position, .. } if !data.has(*index_array) => {
                Cow::Owned(ArrayRef {
                    array: *index_array,
                    kind: RefKind::Affine(position.clone()),
                    access: Access::Read,
                })
            }
            _ => Cow::Borrowed(r),
        })
        .collect();
    let last = nest.depth() - 1;
    let probes: Vec<Probe> = refs
        .iter()
        .map(|r| {
            let table = tables.iter().position(|t| t.array == r.array);
            Probe {
                compiled: program.compile(r, nest.depth(), data),
                stride: subscript_of(r).0.coeffs.get(last).copied().unwrap_or(0),
                table: table.map(|t| (t, r.access == Access::Write)),
                affine: matches!(r.kind, RefKind::Affine(_)),
            }
        })
        .collect();
    let par = nest.parallel_depth;

    let mut seen = vec![Seen::NONE; probes.len()];
    let mut cursor = IterCursor::new(nest, env);
    let mut more = cursor.seek(&[]);
    while more {
        // One innermost run: the subscripts step by their innermost
        // coefficient, and the parallel index is fixed unless it is the
        // innermost index.
        let iv = cursor.iv();
        let (first, len) = (iv[last], cursor.run_end() - iv[last]);
        let (p0, p_step) = match tables {
            [] => (0, 0),
            _ if par == last => (first, 1),
            _ => (iv[par], 0),
        };
        // Both ends of the run fit `i32`, so every index between them does.
        let fits = |p: i64| i32::try_from(p).is_ok();
        assert!(
            fits(p0) && fits(p0 + p_step * (len - 1)),
            "nest {:?}: a parallel index lies outside the i32 range of the legality tables",
            nest.name
        );
        let p0 = p0 as i32;
        for (probe, s) in probes.iter().zip(&mut seen) {
            let s0 = probe.compiled.subscript(iv);
            cover(&mut s.subscripts, s0);
            cover(&mut s.subscripts, s0 + probe.stride * (len - 1));
            // An affine reference's elements are its subscripts.
            if probe.affine && probe.table.is_none() {
                continue;
            }
            // A subscript and a parallel index that both stay put touch
            // one element from one index, however long the run.
            let touches = if probe.stride == 0 && p_step == 0 { 1 } else { len };
            for k in 0..touches {
                let Some(e) = probe.compiled.element(s0 + probe.stride * k) else {
                    s.unresolved = true;
                    continue;
                };
                cover(&mut s.elements, e);
                if let Some((t, write)) = probe.table {
                    tables[t].touch(e, p0 + (p_step * k) as i32, write);
                }
            }
        }
        more = cursor.next_run();
    }
    seen
}

/// Lints one nest: degeneracy, subscript bounds, parallel legality.
///
/// # Panics
///
/// Panics, naming the nest, if the exact legality walk meets a parallel
/// index outside `i32` (such a nest cannot be enumerated for mapping
/// either).
pub fn check_nest(program: &Program, nest_id: NestId, data: &DataEnv, sink: &mut DiagnosticSink) {
    let nest = program.nest(nest_id);
    let env = program.params();
    let rect = rect_ranges(nest, &env);

    let empty = match &rect {
        Some(ranges) => ranges.iter().any(|&(lo, hi)| hi < lo),
        None => !IterCursor::new(nest, &env).seek(&[]),
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

    // Over a rectangular space every subscript's range follows from
    // interval arithmetic, exactly (the space is not empty).
    let static_seen: Option<Vec<Seen>> = rect.as_ref().map(|ranges| {
        let range = |r| affine_range(subscript_of(r).0, ranges, &env, None);
        nest.refs.iter().map(|r| Seen { subscripts: range(r), ..Seen::NONE }).collect()
    });
    let static_oob = static_seen.as_ref().is_some_and(|seen| {
        nest.refs.iter().zip(seen).any(|(r, s)| {
            let (lo, hi) = s.subscripts;
            outside(lo, hi, program.array(subscript_of(r).1).extent)
        })
    });
    let installed = |r: &ArrayRef| match &r.kind {
        RefKind::Affine(_) => true,
        RefKind::Indirect { index_array, .. } => data.has(*index_array),
    };
    // An indirect reference without its index array is either out of
    // bounds or unresolved; either way legality is not checked.
    let legality = nest.refs.iter().all(installed)
        && !static_oob
        && nest.parallel_depth < nest.depth()
        && !rect.as_ref().is_some_and(|ranges| proves_no_conflict(nest, ranges, &env));

    // Each written array gets a table, in array order, when legality is
    // checked.
    let written = if legality { written_arrays(nest) } else { Vec::new() };
    let mut tables: Vec<ConflictTable> = (0..written.len() as u32)
        .map(ArrayId)
        .filter(|a| written[a.0 as usize])
        .map(|a| ConflictTable::new(a, program.array(a).extent))
        .collect();
    // The walk resolves index arrays, ranges the subscripts of a
    // non-rectangular nest and fills the tables.
    let resolves = |r: &ArrayRef| matches!(r.kind, RefKind::Indirect { .. }) && installed(r);
    let seen = match static_seen {
        Some(seen) if !legality && !nest.refs.iter().any(resolves) => seen,
        _ => walk(program, nest, data, &env, &mut tables),
    };

    let mut any_oob = false;
    let mut any_unresolved = false;

    for ((ri, r), s) in nest.refs.iter().enumerate().zip(&seen) {
        let arr = program.array(r.array);
        let (lo, hi) = s.subscripts;
        match &r.kind {
            RefKind::Affine(e) => {
                if outside(lo, hi, arr.extent) {
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
                if outside(lo, hi, idx_arr.extent) {
                    any_oob = true;
                    sink.emit(
                        Diagnostic::new(
                            Code::OOB_ACCESS,
                            format!(
                                "index array {}[{position}] ranges over [{lo}, {hi}] but the \
                                 extent is {}",
                                idx_arr.name, idx_arr.extent
                            ),
                        )
                        .entity(Entity::Ref { nest: nest_id, index: ri }),
                    );
                } else if s.unresolved {
                    // Inside the extent but past the installed contents.
                    any_oob = true;
                    sink.emit(
                        Diagnostic::new(
                            Code::OOB_ACCESS,
                            format!(
                                "index array {}[{position}] ranges over [{lo}, {hi}] but only {} \
                                 entries are installed",
                                idx_arr.name,
                                data.index_array(*index_array).len()
                            ),
                        )
                        .entity(Entity::Ref { nest: nest_id, index: ri })
                        .suggest("install the whole index array in the DataEnv"),
                    );
                } else if data.has(*index_array) {
                    // The fetched values are data, not affine: their range
                    // comes from the walk over the positions actually
                    // touched (an interval over the positions could flag
                    // index-array slots the nest never reads).
                    let (lo, hi) = s.elements;
                    if outside(lo, hi, arr.extent) {
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
    if any_oob || !legality {
        return;
    }
    let par = nest.parallel_depth;
    for t in &tables {
        let Some((count, example)) = t.conflicts else { continue };
        let name = &program.array(t.array).name;
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
/// parallel loop provably breaks no dependence, so the walk can be
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
            // Resolved index-array values are data; only the walk is
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

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use locmap_loopir::LoopBound;

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
        // check and the dependence check walk the space.
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
    fn carried_dependences_report_in_array_order_from_the_lowest_element() {
        // B (array 0) and A (array 1) both carry conflicts, A's reference
        // first in the nest. A[i + j] conflicts on elements 1..=17 (each
        // reached from two or more i); B[2j + 3] is written from every i,
        // so elements 3, 5, …, 21 conflict. The findings follow array ids,
        // not reference order, and each names its lowest element.
        let mut p = Program::new("t");
        let b = p.add_array("B", 8, 32);
        let a = p.add_array("A", 8, 32);
        let mut nest = LoopNest::rectangular("two", &[10, 10]);
        nest.add_ref(a, AffineExpr::linear(&[1, 1], 0), Access::Write);
        nest.add_ref(b, AffineExpr::linear(&[0, 2], 3), Access::Write);
        let id = p.add_nest(nest);
        let mut s = sink();
        check_nest(&p, id, &DataEnv::new(), &mut s);
        let found: Vec<&str> = s
            .diagnostics()
            .iter()
            .filter(|d| d.code == Code::CARRIED_DEPENDENCE)
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(found.len(), 2, "{}", s.report());
        assert!(found[0].contains("on B: 10 element(s) (e.g. B[3])"), "{}", found[0]);
        assert!(found[1].contains("on A: 17 element(s) (e.g. A[1])"), "{}", found[1]);
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

    #[test]
    fn index_array_shorter_than_its_extent_denies_lm0002() {
        // Positions 0..4 lie inside idx's extent of 4, but only three
        // entries are installed: the fourth position resolves to nothing.
        let mut p = Program::new("t");
        let a = p.add_array("A", 8, 10);
        let idx = p.add_array("idx", 4, 4);
        let mut nest = LoopNest::rectangular("n", &[4]);
        nest.add_indirect_ref(a, idx, AffineExpr::var(0, 1), Access::Write);
        let id = p.add_nest(nest);
        let mut data = DataEnv::new();
        data.set_index_array(idx, vec![0, 3, 1]);
        let mut s = sink();
        check_nest(&p, id, &data, &mut s);
        assert_eq!(s.diagnostics().len(), 1, "{}", s.report());
        let d = &s.diagnostics()[0];
        assert_eq!(d.code, Code::OOB_ACCESS);
        assert!(d.message.contains("only 3 entries are installed"), "{}", d.message);
    }

    /// Builds random nests from a stream of raw draws.
    struct Draw<'a>(std::slice::Iter<'a, u32>);

    impl Draw<'_> {
        /// One of `choices`.
        fn pick<T: Copy>(&mut self, choices: &[T]) -> T {
            choices[*self.0.next().expect("enough draws") as usize % choices.len()]
        }

        /// An integer in `lo..=hi`.
        fn int(&mut self, lo: i64, hi: i64) -> i64 {
            lo + i64::from(*self.0.next().expect("enough draws")) % (hi - lo + 1)
        }

        /// `true` with probability `pct` percent.
        fn chance(&mut self, pct: i64) -> bool {
            self.int(0, 99) < pct
        }

        fn expr(&mut self, depth: usize) -> AffineExpr {
            let coeffs: Vec<i64> =
                (0..depth).map(|_| self.pick(&[0, 0, 1, 1, 1, 2, 3, -1])).collect();
            AffineExpr::linear(&coeffs, self.pick(&[0, 0, 0, 1, 2, 5, -1]))
        }
    }

    /// Draws per random nest: every draw below fits with room to spare.
    const DRAWS: usize = 96;
    /// Random nests per property-test case.
    const NESTS_PER_CASE: usize = 8;

    fn arb_draws() -> impl proptest::Strategy<Value = Vec<u32>> {
        proptest::collection::vec(0u32..1 << 30, DRAWS * NESTS_PER_CASE)
    }

    /// A random one-nest program and its data: rectangular or triangular
    /// bounds of depth 1–3, `parallel_depth` 0 or 1, one to four affine
    /// or indirect references on two arrays through two index arrays,
    /// each installed (injective or clustered contents, sometimes with an
    /// out-of-bounds entry) or missing.
    fn random_nest(draws: &[u32]) -> (Program, DataEnv) {
        let mut d = Draw(draws.iter());
        let mut p = Program::new("random");
        let arrays = [
            p.add_array("A", 8, d.int(12, 48) as u64),
            p.add_array("B", 8, d.int(12, 48) as u64),
        ];
        let mut data = DataEnv::new();
        let mut index_arrays = Vec::new();
        for name in ["idx", "jdx"] {
            let extent = d.int(4, 24) as usize;
            let idx = p.add_array(name, 4, extent as u64);
            index_arrays.push(idx);
            if d.chance(80) {
                let injective = d.chance(50);
                let mut contents: Vec<i32> = (0..extent)
                    .map(|k| if injective { k as i32 } else { d.int(0, 6) as i32 })
                    .collect();
                if d.chance(15) {
                    contents[d.int(0, extent as i64 - 1) as usize] = d.pick(&[-1, 99]);
                }
                data.set_index_array(idx, contents);
            }
        }

        let depth = d.int(1, 3) as usize;
        let mut bounds = vec![LoopBound::range(if d.chance(4) { 0 } else { d.int(1, 6) })];
        for level in 1..depth {
            let outer = AffineExpr::var(level - 1, 1);
            bounds.push(match d.int(0, 2) {
                0 => LoopBound { lower: AffineExpr::constant(0), upper: outer.plus(d.int(0, 2)) },
                1 => LoopBound {
                    lower: outer.plus(d.int(0, 1)),
                    upper: AffineExpr::constant(d.int(1, 7)),
                },
                _ => LoopBound {
                    lower: AffineExpr::constant(d.int(0, 1)),
                    upper: AffineExpr::constant(d.int(1, 6)),
                },
            });
        }
        let mut nest = LoopNest::with_bounds("n", bounds);
        nest.parallel_depth = d.int(0, 1) as usize;
        for _ in 0..d.int(1, 4) {
            let array = d.pick(&arrays);
            let access = if d.chance(50) { Access::Write } else { Access::Read };
            let kind = if d.chance(35) {
                RefKind::Indirect {
                    index_array: d.pick(&index_arrays),
                    position: d.expr(depth),
                    offset: d.pick(&[0, 0, 1, -1, 2]),
                }
            } else {
                RefKind::Affine(d.expr(depth))
            };
            nest.refs.push(ArrayRef { array, kind, access });
        }
        p.add_nest(nest);
        (p, data)
    }

    fn diagnostics(
        check: fn(&Program, NestId, &DataEnv, &mut DiagnosticSink),
        p: &Program,
        data: &DataEnv,
    ) -> Vec<Diagnostic> {
        let mut s = sink();
        check(p, NestId(0), data, &mut s);
        s.diagnostics().to_vec()
    }

    proptest::proptest! {
        #[test]
        fn check_nest_matches_the_hash_map_reference(draws in arb_draws()) {
            for nest in draws.chunks(DRAWS) {
                let (p, data) = random_nest(nest);
                proptest::prop_assert_eq!(
                    diagnostics(check_nest, &p, &data),
                    diagnostics(reference::check_nest, &p, &data),
                    "nest {:?}", p.nest(NestId(0))
                );
            }
        }
    }

    #[test]
    fn equivalence_cases_cover_every_shape() {
        // The property test above draws exactly these nests; count what
        // they exercise, as the reference pass sees it.
        let mut seen = std::collections::BTreeMap::<&str, usize>::new();
        for case in 0..proptest::CASES {
            let mut rng =
                proptest::TestRng::for_case("check_nest_matches_the_hash_map_reference", case);
            let draws = proptest::Strategy::new_value(&arb_draws(), &mut rng);
            for nest in draws.chunks(DRAWS) {
                let (p, data) = random_nest(nest);
                let n = p.nest(NestId(0));
                let found = diagnostics(reference::check_nest, &p, &data);
                let has = |code| found.iter().any(|d| d.code == code);
                let mut tally = |shape, yes: bool| *seen.entry(shape).or_default() += yes as usize;
                let rect = rect_ranges(n, &p.params()).is_some();
                tally("rectangular", rect);
                tally("triangular", !rect);
                for r in &n.refs {
                    match &r.kind {
                        RefKind::Affine(_) => tally("affine ref", true),
                        RefKind::Indirect { index_array, .. } if data.has(*index_array) => {
                            tally("installed indirect ref", true)
                        }
                        RefKind::Indirect { .. } => tally("missing indirect ref", true),
                    }
                }
                tally("parallel depth 0", n.parallel_depth == 0);
                tally("parallel depth 1", n.parallel_depth == 1);
                let writes = n.refs.iter().any(|r| r.access == Access::Write);
                tally("clean write", writes && n.parallel_depth < n.depth() && found.is_empty());
                tally("conflicting write", has(Code::CARRIED_DEPENDENCE));
                let oob = |needle: &str| {
                    found.iter().any(|d| d.code == Code::OOB_ACCESS && d.message.contains(needle))
                };
                tally("out-of-bounds subscript", oob("] ranges over") && !oob("index array"));
                tally("out-of-bounds resolved element", oob("resolves to"));
                tally("out-of-range index-array position", oob("index array"));
                tally("unresolved indirect", has(Code::UNRESOLVED_INDIRECT));
                tally("empty nest", has(Code::EMPTY_NEST));
            }
        }
        for (shape, count) in &seen {
            assert!(*count > 0, "no random nest exercises {shape}: {seen:?}");
        }
    }
}
