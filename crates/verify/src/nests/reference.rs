//! The nest pass as it stood before the single compiled walk: one walk
//! of the space per non-rectangular subscript and per resolved indirect
//! reference, one more for legality into a hash map keyed by (array,
//! element), every subscript through `AffineExpr::eval`. Kept only as
//! the reference that `nests`' equivalence property test compares the
//! pass against.

use super::{affine_range, proves_no_conflict, rect_ranges, written_arrays};
use crate::diag::{Code, Diagnostic, DiagnosticSink, Entity};
use locmap_loopir::{
    Access, ArrayId, DataEnv, IterCursor, LoopNest, NestId, ParamEnv, Program, RefKind,
};
use std::collections::{BTreeMap, HashMap};

/// Calls `f` on every iteration vector of `nest` in execution order,
/// holding one vector at a time.
fn walk(nest: &LoopNest, env: &ParamEnv, mut f: impl FnMut(&[i64])) {
    let mut cursor = IterCursor::new(nest, env);
    let mut more = cursor.seek(&[]);
    while more {
        f(cursor.iv());
        more = cursor.step();
    }
}

/// The least and greatest value of `f` over the iterations of `nest`.
fn walk_range(nest: &LoopNest, env: &ParamEnv, f: impl Fn(&[i64]) -> i64) -> (i64, i64) {
    let (mut lo, mut hi) = (i64::MAX, i64::MIN);
    walk(nest, env, |iv| {
        let v = f(iv);
        lo = lo.min(v);
        hi = hi.max(v);
    });
    (lo, hi)
}

/// The earlier [`super::check_nest`].
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

    let mut any_oob = false;
    let mut any_unresolved = false;

    for (ri, r) in nest.refs.iter().enumerate() {
        let arr = program.array(r.array);
        match &r.kind {
            RefKind::Affine(e) => {
                let (lo, hi) = match &rect {
                    Some(ranges) => affine_range(e, ranges, &env, None),
                    None => walk_range(nest, &env, |iv| e.eval(iv, &env)),
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
                    None => walk_range(nest, &env, |iv| position.eval(iv, &env)),
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
                    // them is inherently a walk of the positions actually
                    // touched (an interval over [plo, phi] could flag
                    // index-array slots the nest never reads).
                    let index = data.index_array(*index_array);
                    let (lo, hi) = walk_range(nest, &env, |iv| {
                        i64::from(index[position.eval(iv, &env) as usize]) + offset
                    });
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
    check_parallel_legality(program, nest_id, data, sink);
}

/// Exact carried-dependence check by a walk of the space: an element-level
/// conflict exists iff some element is written and accessed from two
/// distinct values of the parallel-loop index. Findings come out in array
/// order, each naming its array's lowest conflicting element.
fn check_parallel_legality(
    program: &Program,
    nest_id: NestId,
    data: &DataEnv,
    sink: &mut DiagnosticSink,
) {
    let nest = program.nest(nest_id);
    let env = program.params();
    let par = nest.parallel_depth;
    let written = written_arrays(nest);

    // (array, element) -> (min/max parallel index seen, written?).
    let mut touched: HashMap<(u32, i64), (i64, i64, bool)> = HashMap::new();
    walk(nest, &env, |iv| {
        let p = iv[par];
        for r in &nest.refs {
            if !written[r.array.0 as usize] {
                continue;
            }
            let elem = match &r.kind {
                RefKind::Affine(e) => e.eval(iv, &env),
                RefKind::Indirect { index_array, position, offset } => {
                    let index = data.index_array(*index_array);
                    i64::from(index[position.eval(iv, &env) as usize]) + offset
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
    });

    // array -> (conflicting elements, the lowest of them).
    let mut conflicts: BTreeMap<u32, (usize, i64)> = BTreeMap::new();
    for (&(arr, elem), &(lo, hi, w)) in &touched {
        if w && lo < hi {
            let e = conflicts.entry(arr).or_insert((0, elem));
            e.0 += 1;
            e.1 = e.1.min(elem);
        }
    }
    for (arr, (count, example)) in conflicts {
        let name = &program.array(ArrayId(arr)).name;
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
