//! Programs: arrays with a virtual address layout, plus loop nests.

use crate::affine::ParamEnv;
use crate::hash::fx_digest;
use crate::nest::{ArrayRef, LoopNest, NestId, RefKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// Identifier of an array within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ArrayId(pub u32);

/// A program array with its virtual placement.
///
/// Per the paper's OS cooperation (§4), the bits of the virtual address
/// that select the MC and LLC bank survive translation, so the virtual
/// layout *is* the physical layout for mapping purposes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Array {
    /// Name for reports.
    pub name: String,
    /// Element size in bytes.
    pub element_bytes: u32,
    /// Number of elements.
    pub extent: u64,
    /// Base byte address (page-aligned).
    pub base: u64,
}

impl Array {
    /// Byte address of element `index`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `index` is out of bounds — an out-of-range
    /// subscript is a workload construction bug.
    #[inline]
    pub fn addr_of(&self, index: i64) -> u64 {
        debug_assert!(
            index >= 0 && (index as u64) < self.extent,
            "{}[{index}] out of bounds (extent {})",
            self.name,
            self.extent
        );
        self.base + index as u64 * self.element_bytes as u64
    }

    /// Total footprint in bytes.
    pub fn bytes(&self) -> u64 {
        self.extent * self.element_bytes as u64
    }
}

/// Runtime contents of index arrays, needed to evaluate indirect
/// references. Regular programs use an empty env.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DataEnv {
    /// A program has a handful of index arrays, so an ordered map finds
    /// one in a few compares, with no hashing per indirect reference.
    /// Every element is an element position, so 32 bits hold it at half
    /// the memory of `i64`.
    index_arrays: BTreeMap<ArrayId, Vec<i32>>,
    /// [`DataEnv::digest`], computed on first request and dropped by every
    /// change to the arrays.
    #[serde(skip)]
    digest: OnceLock<[u64; 2]>,
}

impl DataEnv {
    /// An empty environment.
    pub fn new() -> Self {
        DataEnv::default()
    }

    /// Installs the contents of index array `a`: one `i32` element
    /// position per entry, widened to `i64` wherever it is read.
    pub fn set_index_array(&mut self, a: ArrayId, contents: Vec<i32>) {
        self.index_arrays.insert(a, contents);
        self.digest = OnceLock::new();
    }

    /// The installed contents of index array `a`.
    ///
    /// # Panics
    ///
    /// Panics if the array contents were not installed.
    pub fn index_array(&self, a: ArrayId) -> &[i32] {
        self.index_arrays
            .get(&a)
            .unwrap_or_else(|| panic!("index array {a:?} not installed in DataEnv"))
    }

    /// Whether contents for `a` are installed.
    pub fn has(&self, a: ArrayId) -> bool {
        self.index_arrays.contains_key(&a)
    }

    /// A 128-bit content digest of the installed index arrays: their
    /// count, then each array's id, length and elements in ascending
    /// [`ArrayId`] order, through the two passes of [`fx_digest`]. Each
    /// element is hashed widened to `i64`, so the digest does not depend
    /// on the width the elements are stored in. Equal
    /// contents give equal digests however they were installed. Computed
    /// once, on the first call after the last change.
    pub fn digest(&self) -> [u64; 2] {
        *self.digest.get_or_init(|| {
            fx_digest(|h| {
                h.write_usize(self.index_arrays.len());
                for (a, contents) in &self.index_arrays {
                    a.hash(h);
                    h.write_usize(contents.len());
                    for &x in contents {
                        h.write_i64(i64::from(x));
                    }
                }
            })
        })
    }
}

/// An [`ArrayRef`] specialised to one program, nest depth and data env:
/// the address of an iteration is one dot product (plus one index-array
/// load for an indirect reference), with no parameter or index-array
/// lookup. The array's base and element size are held by value, and the
/// dot product is straight-line code for nests of depth 1–3. Built by
/// [`Program::compile`].
#[derive(Debug, Clone, Copy)]
pub struct CompiledRef<'a> {
    /// The accessed array's base address.
    base: u64,
    /// The accessed array's element size in bytes.
    element_bytes: u64,
    /// The coefficients of the first three loop indices, zero past the
    /// subscript's last.
    head: [i64; 3],
    /// Coefficient per loop index; omitted trailing ones are zero. Read
    /// only for nests deeper than `head`.
    coeffs: &'a [i64],
    /// The subscript's constant with every parameter term folded in.
    constant: i64,
    /// For an indirect reference, the index array's contents and the
    /// offset added to the fetched index.
    indirect: Option<(&'a [i32], i64)>,
    /// The accessed array, for the debug-build bounds check.
    array: &'a Array,
}

impl CompiledRef<'_> {
    /// Byte address of the reference at iteration vector `iv`: a row of
    /// an [`crate::IterationSpace`] (`i32`) or an [`crate::IterCursor`]'s
    /// position (`i64`). Each index is widened to `i64` inside the dot
    /// product, so both widths give the same address.
    ///
    /// # Panics
    ///
    /// Panics if an index-array position is out of range, or, in debug
    /// builds, if the element is out of bounds.
    #[inline]
    pub fn addr<I: Copy + Into<i64>>(&self, iv: &[I]) -> u64 {
        let subscript = self.subscript(iv);
        let elem = match self.indirect {
            None => subscript,
            Some((index, offset)) => i64::from(index[subscript as usize]) + offset,
        };
        // `addr_of` checks `elem` against the extent first.
        debug_assert_eq!(self.array.addr_of(elem), self.base + elem as u64 * self.element_bytes);
        self.base + elem as u64 * self.element_bytes
    }

    /// The reference's subscript at iteration vector `iv`: the element
    /// index of an affine reference, the index-array position of an
    /// indirect one. Either index width is accepted, as by
    /// [`CompiledRef::addr`].
    #[inline]
    pub fn subscript<I: Copy + Into<i64>>(&self, iv: &[I]) -> i64 {
        debug_assert!(self.coeffs.len() <= iv.len(), "iteration vector shorter than the nest");
        let [c0, c1, c2] = self.head;
        match *iv {
            [i] => self.constant + c0 * i.into(),
            [i, j] => self.constant + c0 * i.into() + c1 * j.into(),
            [i, j, k] => self.constant + c0 * i.into() + c1 * j.into() + c2 * k.into(),
            _ => self.coeffs.iter().zip(iv).fold(self.constant, |v, (&c, &i)| v + c * i.into()),
        }
    }

    /// The element index that `subscript` (from [`CompiledRef::subscript`])
    /// resolves to: the subscript itself for an affine reference; for an
    /// indirect one, the index-array entry at that position plus the
    /// offset, or `None` when the position lies outside the installed
    /// contents. It never panics, and it does not check the element
    /// against the array's extent: the verifier's bounds lint reads it to
    /// find such subscripts.
    #[inline]
    pub fn element(&self, subscript: i64) -> Option<i64> {
        match self.indirect {
            None => Some(subscript),
            Some((index, offset)) => {
                let &x = index.get(usize::try_from(subscript).ok()?)?;
                Some(i64::from(x) + offset)
            }
        }
    }
}

/// A whole application: arrays, loop nests, parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Program {
    /// Program name (benchmark name in the evaluation).
    pub name: String,
    arrays: Vec<Array>,
    nests: Vec<LoopNest>,
    params: ParamEnv,
    /// Next free virtual address for array allocation.
    cursor: u64,
    /// Page size used for array alignment.
    page_bytes: u64,
}

impl Program {
    /// Creates an empty program.
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            arrays: Vec::new(),
            nests: Vec::new(),
            params: ParamEnv::new(),
            // Leave page 0 unused so address 0 is never a valid element.
            cursor: 2048,
            page_bytes: 2048,
        }
    }

    /// Declares an array of `extent` elements of `element_bytes` each,
    /// allocated page-aligned after all previous arrays.
    pub fn add_array(&mut self, name: impl Into<String>, element_bytes: u32, extent: u64) -> ArrayId {
        let base = self.cursor;
        let bytes = extent * element_bytes as u64;
        self.cursor = (base + bytes).next_multiple_of(self.page_bytes);
        self.arrays.push(Array { name: name.into(), element_bytes, extent, base });
        ArrayId(self.arrays.len() as u32 - 1)
    }

    /// Adds a loop nest, returning its id.
    pub fn add_nest(&mut self, nest: LoopNest) -> NestId {
        self.nests.push(nest);
        NestId(self.nests.len() as u32 - 1)
    }

    /// The array table.
    pub fn arrays(&self) -> &[Array] {
        &self.arrays
    }

    /// Looks up an array.
    pub fn array(&self, id: ArrayId) -> &Array {
        &self.arrays[id.0 as usize]
    }

    /// The nest table.
    pub fn nests(&self) -> &[LoopNest] {
        &self.nests
    }

    /// Looks up a nest.
    pub fn nest(&self, id: NestId) -> &LoopNest {
        &self.nests[id.0 as usize]
    }

    /// Iterator over `(NestId, &LoopNest)`.
    pub fn nest_ids(&self) -> impl Iterator<Item = NestId> + '_ {
        (0..self.nests.len() as u32).map(NestId)
    }

    /// Parameter bindings.
    pub fn params(&self) -> ParamEnv {
        self.params.clone()
    }

    /// Total data footprint in bytes.
    pub fn footprint(&self) -> u64 {
        self.arrays.iter().map(Array::bytes).sum()
    }

    /// Re-lays out all arrays, inserting `pads[i]` empty pages *before*
    /// array `i`. Bases are recomputed sequentially (page-aligned,
    /// disjoint), so shifting one array shifts all later ones.
    ///
    /// This is the knob data-layout optimizers (the paper's "DO" baseline,
    /// Ding et al. PLDI'15) turn: padding changes which MC/LLC bank each
    /// page of an array falls on, without touching the code.
    ///
    /// # Panics
    ///
    /// Panics if `pads.len()` differs from the number of arrays.
    pub fn relayout(&mut self, pads: &[u64]) {
        assert_eq!(pads.len(), self.arrays.len(), "one pad per array required");
        let mut cursor = self.page_bytes; // page 0 stays unused
        for (a, &pad) in self.arrays.iter_mut().zip(pads) {
            cursor += pad * self.page_bytes;
            a.base = cursor;
            cursor = (cursor + a.bytes()).next_multiple_of(self.page_bytes);
        }
        self.cursor = cursor;
    }

    /// The page size used for array alignment.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// Compiles reference `r` for iteration vectors of `depth` entries
    /// with index arrays from `data`: see [`CompiledRef`].
    ///
    /// # Panics
    ///
    /// Panics if a subscript has a nonzero coefficient at or past `depth`
    /// or an unbound parameter, or if the reference is indirect and `data`
    /// lacks its index array.
    pub fn compile<'a>(
        &'a self,
        r: &'a ArrayRef,
        depth: usize,
        data: &'a DataEnv,
    ) -> CompiledRef<'a> {
        let array = self.array(r.array);
        let (expr, indirect) = match &r.kind {
            RefKind::Affine(e) => (e, None),
            RefKind::Indirect { index_array, position, offset } => {
                (position, Some((*index_array, *offset)))
            }
        };
        let (coeffs, constant) = expr.specialise(depth, &self.params);
        let mut head = [0; 3];
        for (h, &c) in head.iter_mut().zip(coeffs) {
            *h = c;
        }
        let indirect = indirect.map(|(a, offset)| (data.index_array(a), offset));
        CompiledRef {
            base: array.base,
            element_bytes: u64::from(array.element_bytes),
            head,
            coeffs,
            constant,
            indirect,
            array,
        }
    }

    /// Compiles every reference of `nest`, in reference order.
    ///
    /// # Panics
    ///
    /// Panics like [`Program::compile`].
    pub fn compile_refs<'a>(
        &'a self,
        nest: &'a LoopNest,
        data: &'a DataEnv,
    ) -> Vec<CompiledRef<'a>> {
        nest.refs.iter().map(|r| self.compile(r, nest.depth(), data)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::{AffineExpr, ParamId};
    use crate::nest::Access;

    #[test]
    fn arrays_are_page_aligned_and_disjoint() {
        let mut p = Program::new("t");
        let a = p.add_array("A", 8, 100); // 800 B
        let b = p.add_array("B", 4, 1000); // 4000 B
        let c = p.add_array("C", 8, 10);
        let (a, b, c) = (p.array(a), p.array(b), p.array(c));
        assert_eq!(a.base % 2048, 0);
        assert_eq!(b.base % 2048, 0);
        assert_eq!(c.base % 2048, 0);
        assert!(a.base + a.bytes() <= b.base);
        assert!(b.base + b.bytes() <= c.base);
        assert!(a.base >= 2048, "page 0 must stay unused");
    }

    #[test]
    fn resolve_affine_ref() {
        let mut p = Program::new("t");
        let a = p.add_array("A", 8, 100);
        let base = p.array(a).base;
        let mut nest = LoopNest::rectangular("n", &[100]);
        nest.add_ref(a, AffineExpr::var(0, 1), Access::Read);
        let id = p.add_nest(nest);
        let r = &p.nest(id).refs[0];
        assert_eq!(p.compile(r, 1, &DataEnv::new()).addr(&[7]), base + 56);
    }

    #[test]
    fn resolve_indirect_ref() {
        let mut p = Program::new("t");
        let a = p.add_array("A", 8, 100);
        let idx = p.add_array("idx", 4, 10);
        let base = p.array(a).base;
        let mut nest = LoopNest::rectangular("n", &[10]);
        nest.add_indirect_ref(a, idx, AffineExpr::var(0, 1), Access::Write);
        let id = p.add_nest(nest);
        let mut data = DataEnv::new();
        data.set_index_array(idx, vec![5, 4, 3, 2, 1, 0, 9, 8, 7, 6]);
        let r = p.compile(&p.nest(id).refs[0], 1, &data);
        assert_eq!(r.addr(&[0]), base + 40);
        assert_eq!(r.addr(&[6]), base + 72);
    }

    #[test]
    fn footprint_sums_arrays() {
        let mut p = Program::new("t");
        p.add_array("A", 8, 100);
        p.add_array("B", 2, 50);
        assert_eq!(p.footprint(), 900);
    }

    #[test]
    #[should_panic(expected = "not installed in DataEnv")]
    fn missing_index_array_panics() {
        let mut p = Program::new("t");
        let a = p.add_array("A", 8, 10);
        let idx = p.add_array("idx", 4, 10);
        let mut nest = LoopNest::rectangular("n", &[10]);
        nest.add_indirect_ref(a, idx, AffineExpr::var(0, 1), Access::Read);
        let id = p.add_nest(nest);
        p.compile_refs(p.nest(id), &DataEnv::new());
    }

    #[test]
    #[should_panic(expected = "unbound parameter ParamId(3)")]
    fn unbound_parameter_panics() {
        let mut p = Program::new("t");
        let a = p.add_array("A", 8, 10);
        let mut nest = LoopNest::rectangular("n", &[10]);
        nest.add_ref(a, AffineExpr::var(0, 1) + &AffineExpr::param(ParamId(3), 2), Access::Read);
        let id = p.add_nest(nest);
        p.compile_refs(p.nest(id), &DataEnv::new());
    }

    #[test]
    #[should_panic(expected = "coefficient on i2 but iteration vector has 2 entries")]
    fn coefficient_past_the_iteration_vector_panics() {
        let mut p = Program::new("t");
        let a = p.add_array("A", 8, 10);
        let mut nest = LoopNest::rectangular("n", &[2, 5]);
        nest.add_ref(a, AffineExpr::var(2, 1), Access::Read);
        let id = p.add_nest(nest);
        p.compile_refs(p.nest(id), &DataEnv::new());
    }

    #[test]
    fn digest_follows_contents_not_installation_order() {
        let mut ab = DataEnv::new();
        ab.set_index_array(ArrayId(1), vec![3, 1, 2]);
        ab.set_index_array(ArrayId(4), vec![7]);
        let mut ba = DataEnv::new();
        ba.set_index_array(ArrayId(4), vec![7]);
        ba.set_index_array(ArrayId(1), vec![3, 1, 2]);
        assert_eq!(ab.digest(), ba.digest());
        assert_eq!(ab.clone().digest(), ab.digest());
        assert_ne!(ab.digest(), DataEnv::new().digest());

        // A digest taken before a change must not survive it.
        ba.set_index_array(ArrayId(1), vec![3, 1, 0]);
        assert_ne!(ab.digest(), ba.digest());
        ba.set_index_array(ArrayId(1), vec![3, 1, 2]);
        assert_eq!(ab.digest(), ba.digest());
    }
}

#[cfg(test)]
mod compiled_ref_tests {
    use super::*;
    use crate::affine::{AffineExpr, ParamId};
    use crate::nest::Access;
    use proptest::prelude::*;

    /// The address formula references used before they were compiled:
    /// evaluate the subscript with [`AffineExpr::eval`], then scale.
    fn eval_formula(p: &Program, r: &ArrayRef, iv: &[i64], data: &DataEnv) -> u64 {
        let params = p.params();
        let elem = match &r.kind {
            RefKind::Affine(e) => e.eval(iv, &params),
            RefKind::Indirect { index_array, position, offset } => {
                let pos = position.eval(iv, &params) as usize;
                i64::from(data.index_array(*index_array)[pos]) + offset
            }
        };
        assert!(elem >= 0, "the strategies keep subscripts in bounds");
        let arr = p.array(r.array);
        arr.base + elem as u64 * arr.element_bytes as u64
    }

    /// `Σ c·i + P0·d0 + P1·d1 + k` with up to five loop terms, so with
    /// indices in -5..=5 and parameters in 0..=5 it lies in 5..=235.
    fn arb_expr() -> impl Strategy<Value = AffineExpr> {
        (collection::vec(-3i64..=3, 0..=5), collection::vec(-3i64..=3, 2), 110i64..=130).prop_map(
            |(coeffs, d, constant)| AffineExpr {
                coeffs,
                params: vec![(ParamId(0), d[0]), (ParamId(1), d[1])],
                constant,
            },
        )
    }

    proptest! {
        #[test]
        fn compiled_refs_address_like_the_eval_formula(
            exprs in (arb_expr(), arb_expr(), 0i64..=10),
            // 1–3 take the straight-line arms of `CompiledRef::addr`; 0, 4
            // and 5 its fallback.
            depth in 0usize..=5,
            iv in collection::vec(-5i64..=5, 5),
            params in collection::vec(0i64..=5, 2),
            index in collection::vec(0i32..200, 256),
        ) {
            let (affine, position, offset) = exprs;
            // Coefficients past the nest's depth may be present, as zeros.
            let within = |mut e: AffineExpr| {
                e.coeffs.iter_mut().skip(depth).for_each(|c| *c = 0);
                e
            };
            let mut p = Program::new("t");
            p.params = ParamEnv::new().bind(ParamId(0), params[0]).bind(ParamId(1), params[1]);
            let a = p.add_array("A", 8, 256);
            let idx = p.add_array("idx", 4, 256);
            // A nest has at least one loop; depth 0 compiles for no index.
            let mut nest = LoopNest::rectangular("n", &vec![6; depth.max(1)]);
            nest.add_ref(a, within(affine), Access::Read);
            nest.refs.push(ArrayRef {
                array: a,
                kind: RefKind::Indirect { index_array: idx, position: within(position), offset },
                access: Access::Write,
            });
            let id = p.add_nest(nest);
            let mut data = DataEnv::new();
            data.set_index_array(idx, index);
            let (nest, iv) = (p.nest(id), &iv[..depth]);
            // The same values as an iteration space's `i32` row, whose
            // negative entries must sign-extend.
            let row: Vec<i32> = iv.iter().map(|&i| i as i32).collect();
            for r in &nest.refs {
                let c = p.compile(r, depth, &data);
                let want = eval_formula(&p, r, iv, &data);
                prop_assert_eq!(c.addr(iv), want, "ref {:?} at {:?}", r, iv);
                prop_assert_eq!(c.addr(&row), want, "ref {:?} at i32 row {:?}", r, row);
                let elem = c.element(c.subscript(iv)).expect("positions stay in the index array");
                prop_assert_eq!(p.array(a).addr_of(elem), want, "element of {:?} at {:?}", r, iv);
            }
        }
    }
}
