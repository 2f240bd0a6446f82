//! The object model: typed views over the DSM's 8-byte slots.
//!
//! The 2001 system compiled Java classes to C structs whose field accesses
//! were rewritten into the runtime's `get`/`put` primitives.  The
//! reproduction plays the role of that generated code with a small set of
//! typed handles:
//!
//! * [`HObject`] — a fixed number of named-by-index fields (a Java object;
//!   see [`crate::layout`] for the typed field-layout layer on top);
//! * [`HArray<T>`] — a one-dimensional array of slot-sized elements;
//! * [`HMatrix<T>`] — a Java-style two-dimensional array: an array of row
//!   references whose row objects can each live on a different home node
//!   (this is how the benchmarks express their block distributions).
//!
//! Every accessor takes the calling thread's [`ThreadCtx`] so the protocol's
//! access-detection cost lands on the right virtual clock.
//!
//! # Locality-aware access
//!
//! Per-element [`HArray::get`]/[`HArray::put`] pay the protocol's access
//! detection on every slot — that is the behaviour the paper studies.  The
//! locality-aware layer amortises detection to once per *page*:
//!
//! * [`HArray::read_slice`] / [`HArray::write_slice`] move a contiguous
//!   range through the DSM with per-page detection;
//! * [`HArray::view`] pins a range into an [`ArrayView`] — a local snapshot
//!   whose reads cost nothing at all;
//! * [`HArray::view_mut`] yields an [`ArrayViewMut`] write buffer whose
//!   [`ArrayViewMut::commit`] flushes the modified range per page;
//! * [`HMatrix::rows_view`] fetches the row-reference vector once into a
//!   [`MatrixRows`] handle cache, instead of re-reading the row-base slot
//!   through the DSM on every `get`/`put`.
//!
//! Views follow the Java Memory Model the same way cached pages do: a view
//! taken between two synchronisation points sees exactly what the
//! element-wise loop would have seen, and like any cached data it must be
//! re-taken after an acquire (monitor entry, `join`) to observe newer
//! writes.

use std::marker::PhantomData;
use std::ops::{Bound, RangeBounds};

use hyperion_pm2::{GlobalAddr, NodeId};

use crate::runtime::ThreadCtx;

/// A value that fits in one 8-byte DSM slot.
pub trait SlotValue: Copy + Send + Sync + 'static {
    /// Encode into a raw slot.
    fn to_slot(self) -> u64;
    /// Decode from a raw slot.
    fn from_slot(raw: u64) -> Self;
}

impl SlotValue for u64 {
    fn to_slot(self) -> u64 {
        self
    }
    fn from_slot(raw: u64) -> Self {
        raw
    }
}

impl SlotValue for i64 {
    fn to_slot(self) -> u64 {
        self as u64
    }
    fn from_slot(raw: u64) -> Self {
        raw as i64
    }
}

impl SlotValue for i32 {
    fn to_slot(self) -> u64 {
        self as i64 as u64
    }
    fn from_slot(raw: u64) -> Self {
        raw as i64 as i32
    }
}

impl SlotValue for f64 {
    fn to_slot(self) -> u64 {
        self.to_bits()
    }
    fn from_slot(raw: u64) -> Self {
        f64::from_bits(raw)
    }
}

impl SlotValue for bool {
    fn to_slot(self) -> u64 {
        self as u64
    }
    fn from_slot(raw: u64) -> Self {
        raw != 0
    }
}

impl SlotValue for GlobalAddr {
    fn to_slot(self) -> u64 {
        self.0
    }
    fn from_slot(raw: u64) -> Self {
        GlobalAddr(raw)
    }
}

/// A shared object with `fields` slot-sized fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HObject {
    base: GlobalAddr,
    fields: usize,
}

impl HObject {
    /// View an existing allocation as an object (used when object references
    /// are stored in other objects' fields).
    pub fn from_raw(base: GlobalAddr, fields: usize) -> Self {
        HObject { base, fields }
    }

    /// Base address of the object.
    pub fn base(&self) -> GlobalAddr {
        self.base
    }

    /// Number of fields.
    pub fn num_fields(&self) -> usize {
        self.fields
    }

    /// Address of field `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds.
    pub fn field_addr(&self, idx: usize) -> GlobalAddr {
        assert!(
            idx < self.fields,
            "field {idx} out of bounds for object with {} fields",
            self.fields
        );
        self.base.offset(idx as u64)
    }

    /// Read field `idx`.
    pub fn get<T: SlotValue>(&self, ctx: &mut ThreadCtx, idx: usize) -> T {
        T::from_slot(ctx.get_slot(self.field_addr(idx)))
    }

    /// Write field `idx`.
    pub fn put<T: SlotValue>(&self, ctx: &mut ThreadCtx, idx: usize, value: T) {
        ctx.put_slot(self.field_addr(idx), value.to_slot());
    }
}

/// A shared one-dimensional array of slot-sized elements.
pub struct HArray<T: SlotValue> {
    base: GlobalAddr,
    len: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T: SlotValue> Clone for HArray<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: SlotValue> Copy for HArray<T> {}

impl<T: SlotValue> std::fmt::Debug for HArray<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HArray")
            .field("base", &self.base)
            .field("len", &self.len)
            .finish()
    }
}

impl<T: SlotValue> HArray<T> {
    /// View an existing allocation as an array.
    pub fn from_raw(base: GlobalAddr, len: usize) -> Self {
        HArray {
            base,
            len,
            _marker: PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base address of the array.
    pub fn base(&self) -> GlobalAddr {
        self.base
    }

    /// Address of element `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn addr_of(&self, i: usize) -> GlobalAddr {
        assert!(
            i < self.len,
            "index {i} out of bounds for array of length {}",
            self.len
        );
        self.base.offset(i as u64)
    }

    /// Read element `i`.
    #[inline]
    pub fn get(&self, ctx: &mut ThreadCtx, i: usize) -> T {
        T::from_slot(ctx.get_slot(self.addr_of(i)))
    }

    /// Write element `i`.
    #[inline]
    pub fn put(&self, ctx: &mut ThreadCtx, i: usize, value: T) {
        ctx.put_slot(self.addr_of(i), value.to_slot());
    }

    /// Resolve a range bound against this array's length.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or inverted.
    fn resolve_range(&self, range: impl RangeBounds<usize>) -> (usize, usize) {
        let start = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "range {start}..{end} out of bounds for array of length {}",
            self.len
        );
        (start, end)
    }

    /// Prefetch every page this array's elements live on (`loadIntoCache`
    /// per touched page).  A no-op for local and already-cached pages.
    ///
    /// Under the overlapped transport
    /// ([`hyperion_dsm::TransportConfig::overlapped_fetches`]) the fetches
    /// are issued as split transactions, so calling this right after an
    /// acquire point hides the transfer latency behind whatever computation
    /// runs before the data's first real use.
    pub fn prefetch(&self, ctx: &mut ThreadCtx) {
        ctx.prefetch_slots(self.base, self.len);
    }

    /// Bulk-read `range` into a local vector, paying access detection once
    /// per touched page instead of once per element.
    pub fn read_slice(&self, ctx: &mut ThreadCtx, range: impl RangeBounds<usize>) -> Vec<T> {
        let (start, end) = self.resolve_range(range);
        let mut raw = vec![0u64; end - start];
        ctx.read_slots(self.base.offset(start as u64), &mut raw);
        raw.into_iter().map(T::from_slot).collect()
    }

    /// Bulk-write `values` to consecutive elements starting at `start`,
    /// paying access detection once per touched page.  The writes land in
    /// the ordinary dirty-slot bitmaps, so diff flushing keeps its field
    /// granularity.
    ///
    /// # Panics
    /// Panics if the destination range is out of bounds.
    pub fn write_slice(&self, ctx: &mut ThreadCtx, start: usize, values: &[T]) {
        assert!(
            start + values.len() <= self.len,
            "write_slice range {start}..{} out of bounds for array of length {}",
            start + values.len(),
            self.len
        );
        let raw: Vec<u64> = values.iter().map(|v| v.to_slot()).collect();
        ctx.write_slots(self.base.offset(start as u64), &raw);
    }

    /// Pin `range` into a local read view.
    ///
    /// The view performs detection and any page fetches once, up front; its
    /// accessors then read local memory with zero protocol dispatch —
    /// [`ArrayView::get`] does not even need a [`ThreadCtx`].  Take views
    /// *after* an acquire point and within one synchronisation epoch, like
    /// any other cached data.
    pub fn view(&self, ctx: &mut ThreadCtx, range: impl RangeBounds<usize>) -> ArrayView<T> {
        let (start, end) = self.resolve_range(range);
        let mut raw = vec![0u64; end - start];
        ctx.read_slots(self.base.offset(start as u64), &mut raw);
        ArrayView {
            start,
            raw,
            _marker: PhantomData,
        }
    }

    /// Pin `range` into a local read-modify-write buffer.
    ///
    /// The current contents are bulk-read on creation; writes stay local
    /// until [`ArrayViewMut::commit`] flushes the touched sub-range back
    /// through one bulk write.
    pub fn view_mut(&self, ctx: &mut ThreadCtx, range: impl RangeBounds<usize>) -> ArrayViewMut<T> {
        let (start, end) = self.resolve_range(range);
        let mut raw = vec![0u64; end - start];
        ctx.read_slots(self.base.offset(start as u64), &mut raw);
        ArrayViewMut {
            array: *self,
            start,
            written: vec![false; raw.len()],
            raw,
            _marker: PhantomData,
        }
    }

    /// Write `value` into every element (one bulk write).
    pub fn fill(&self, ctx: &mut ThreadCtx, value: T) {
        let values = vec![value; self.len];
        self.write_slice(ctx, 0, &values);
    }

    /// Read the whole array into a local `Vec` (one bulk read).
    pub fn to_vec(&self, ctx: &mut ThreadCtx) -> Vec<T> {
        self.read_slice(ctx, ..)
    }
}

/// A pinned, read-only local snapshot of a range of an [`HArray`].
///
/// Created by [`HArray::view`]; see the module docs for the consistency
/// contract.  Indices are relative to the start of the viewed range.
pub struct ArrayView<T: SlotValue> {
    start: usize,
    raw: Vec<u64>,
    _marker: PhantomData<fn() -> T>,
}

impl<T: SlotValue> ArrayView<T> {
    /// Number of elements in the view.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// True if the view covers no elements.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Index (in the parent array) of the view's first element.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Read element `i` of the view — pure local memory, no protocol
    /// dispatch, no [`ThreadCtx`].
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        T::from_slot(self.raw[i])
    }

    /// Iterate over the viewed elements.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.raw.iter().map(|&r| T::from_slot(r))
    }

    /// Copy the view into a plain vector.
    pub fn to_vec(&self) -> Vec<T> {
        self.iter().collect()
    }
}

impl<T: SlotValue> std::fmt::Debug for ArrayView<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArrayView")
            .field("start", &self.start)
            .field("len", &self.raw.len())
            .finish()
    }
}

/// A pinned read-modify-write buffer over a range of an [`HArray`].
///
/// Created by [`HArray::view_mut`].  Writes are local until
/// [`ArrayViewMut::commit`]; dropping an uncommitted view discards its
/// writes (there is no implicit flush — a drop cannot charge a clock).
/// Indices are relative to the start of the viewed range.
pub struct ArrayViewMut<T: SlotValue> {
    array: HArray<T>,
    start: usize,
    raw: Vec<u64>,
    /// One flag per element: set since creation / last commit.  Only set
    /// elements are flushed, so a commit can never clobber a concurrent
    /// writer's update to a slot this view merely snapshotted.
    written: Vec<bool>,
    _marker: PhantomData<fn() -> T>,
}

impl<T: SlotValue> ArrayViewMut<T> {
    /// Number of elements in the view.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// True if the view covers no elements.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Index (in the parent array) of the view's first element.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Read element `i` of the view (observes local writes).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        T::from_slot(self.raw[i])
    }

    /// Write element `i` of the view locally.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, value: T) {
        self.raw[i] = value.to_slot();
        self.written[i] = true;
    }

    /// True if any element has been modified since creation / last commit.
    pub fn is_dirty(&self) -> bool {
        self.written.iter().any(|&w| w)
    }

    /// Flush the modified elements back, one bulk write per contiguous run
    /// of [`ArrayViewMut::set`] elements, and return the view for further
    /// use.  A clean view flushes nothing.
    ///
    /// Only elements actually written through this view are flushed — slots
    /// the view merely snapshotted are left alone, preserving the DSM's
    /// field-granularity no-clobber guarantee exactly as an element-wise
    /// sequence of `put`s would.
    pub fn commit(mut self, ctx: &mut ThreadCtx) -> Self {
        let mut i = 0usize;
        while i < self.written.len() {
            if !self.written[i] {
                i += 1;
                continue;
            }
            let run_start = i;
            while i < self.written.len() && self.written[i] {
                i += 1;
            }
            ctx.write_slots(
                self.array.base.offset((self.start + run_start) as u64),
                &self.raw[run_start..i],
            );
        }
        self.written.fill(false);
        self
    }
}

impl<T: SlotValue> std::fmt::Debug for ArrayViewMut<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArrayViewMut")
            .field("start", &self.start)
            .field("len", &self.raw.len())
            .field("dirty", &self.is_dirty())
            .finish()
    }
}

/// A Java-style two-dimensional array: a (shared) vector of row references,
/// each row being its own object with its own home node.
///
/// [`HMatrix::get`]/[`HMatrix::put`]/[`HMatrix::row`] perform the row
/// indirection through the DSM on *every call*, exactly like un-hoisted
/// Java `a[r][c]` accesses — after each cache invalidation the row-base
/// slot is detected (and possibly fetched) all over again.  Kernels that
/// touch a matrix repeatedly should take a [`HMatrix::rows_view`] once per
/// synchronisation epoch instead: the row references are immutable after
/// allocation, so caching them is exactly the row-hoisting a Java compiler
/// (or programmer) would do.
pub struct HMatrix<T: SlotValue> {
    rows: HArray<GlobalAddr>,
    cols: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T: SlotValue> Clone for HMatrix<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: SlotValue> Copy for HMatrix<T> {}

impl<T: SlotValue> std::fmt::Debug for HMatrix<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HMatrix")
            .field("rows", &self.rows.len())
            .field("cols", &self.cols)
            .finish()
    }
}

impl<T: SlotValue> HMatrix<T> {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Fetch the reference to row `r` (a DSM access, exactly like the row
    /// indirection of a Java `double[][]`) and return a handle to the row.
    pub fn row(&self, ctx: &mut ThreadCtx, r: usize) -> HArray<T> {
        let base = self.rows.get(ctx, r);
        HArray::from_raw(base, self.cols)
    }

    /// Read element `(r, c)` through the row indirection.
    pub fn get(&self, ctx: &mut ThreadCtx, r: usize, c: usize) -> T {
        self.row(ctx, r).get(ctx, c)
    }

    /// Write element `(r, c)` through the row indirection.
    pub fn put(&self, ctx: &mut ThreadCtx, r: usize, c: usize, value: T) {
        self.row(ctx, r).put(ctx, c, value);
    }

    /// Fetch *all* row references in one bulk read and return a local
    /// handle cache.
    ///
    /// Row references never change after [`ThreadCtx::alloc_matrix`]
    /// returns, so the cache stays valid for the lifetime of the run — this
    /// is the fix for `get`/`put` re-fetching the row-base slot through the
    /// DSM on every call.  Each calling thread takes its own `rows_view`
    /// (its node still pays the one-time fetch of the row-reference pages,
    /// keeping the protocol accounting honest).
    pub fn rows_view(&self, ctx: &mut ThreadCtx) -> MatrixRows<T> {
        let bases = self.rows.read_slice(ctx, ..);
        MatrixRows {
            bases,
            cols: self.cols,
            _marker: PhantomData,
        }
    }
}

/// A local cache of an [`HMatrix`]'s row handles, created by
/// [`HMatrix::rows_view`].
///
/// Row lookups ([`MatrixRows::row`]) are pure local memory; element accesses
/// still go through the DSM with the protocol's ordinary per-access cost —
/// only the *row indirection* is amortised.
pub struct MatrixRows<T: SlotValue> {
    bases: Vec<GlobalAddr>,
    cols: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T: SlotValue> MatrixRows<T> {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.bases.len()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Handle to row `r` — no DSM access, no [`ThreadCtx`].
    ///
    /// # Panics
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row(&self, r: usize) -> HArray<T> {
        HArray::from_raw(self.bases[r], self.cols)
    }

    /// Read element `(r, c)` using the cached row handle.
    #[inline]
    pub fn get(&self, ctx: &mut ThreadCtx, r: usize, c: usize) -> T {
        self.row(r).get(ctx, c)
    }

    /// Write element `(r, c)` using the cached row handle.
    #[inline]
    pub fn put(&self, ctx: &mut ThreadCtx, r: usize, c: usize, value: T) {
        self.row(r).put(ctx, c, value);
    }

    /// Pin row `r` into a read view (one bulk read of the whole row).
    pub fn row_view(&self, ctx: &mut ThreadCtx, r: usize) -> ArrayView<T> {
        self.row(r).view(ctx, ..)
    }

    /// Pin row `r` into a read-modify-write view.
    pub fn row_view_mut(&self, ctx: &mut ThreadCtx, r: usize) -> ArrayViewMut<T> {
        self.row(r).view_mut(ctx, ..)
    }
}

impl<T: SlotValue> std::fmt::Debug for MatrixRows<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatrixRows")
            .field("rows", &self.bases.len())
            .field("cols", &self.cols)
            .finish()
    }
}

impl ThreadCtx {
    /// Allocate a shared object with `fields` fields, homed on `home`.
    pub fn alloc_object(&mut self, fields: usize, home: NodeId) -> HObject {
        let base = self.alloc_slots(fields.max(1), home);
        HObject {
            base,
            fields: fields.max(1),
        }
    }

    /// Allocate a shared array of `len` elements homed on `home`.
    pub fn alloc_array<T: SlotValue>(&mut self, len: usize, home: NodeId) -> HArray<T> {
        assert!(len > 0, "cannot allocate an empty array");
        HArray {
            base: self.alloc_slots(len, home),
            len,
            _marker: PhantomData,
        }
    }

    /// Allocate a shared array on fresh pages (no packing with neighbouring
    /// allocations), homed on `home`.
    pub fn alloc_array_page_aligned<T: SlotValue>(
        &mut self,
        len: usize,
        home: NodeId,
    ) -> HArray<T> {
        assert!(len > 0, "cannot allocate an empty array");
        HArray {
            base: self.alloc_slots_page_aligned(len, home),
            len,
            _marker: PhantomData,
        }
    }

    /// Allocate a two-dimensional array with `rows` rows of `cols` elements.
    ///
    /// The row-reference vector is homed on the calling thread's node; each
    /// row object is homed on `home_of_row(r)`, which is how the benchmarks
    /// express their block-of-rows data distributions (Jacobi, ASP).
    pub fn alloc_matrix<T: SlotValue>(
        &mut self,
        rows: usize,
        cols: usize,
        mut home_of_row: impl FnMut(usize) -> NodeId,
    ) -> HMatrix<T> {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        let row_refs: HArray<GlobalAddr> = self.alloc_array(rows, self.node());
        let bases: Vec<GlobalAddr> = (0..rows)
            .map(|r| self.alloc_slots(cols, home_of_row(r)))
            .collect();
        row_refs.write_slice(self, 0, &bases);
        HMatrix {
            rows: row_refs,
            cols,
            _marker: PhantomData,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{HyperionConfig, HyperionRuntime};
    use hyperion_dsm::ProtocolKind;
    use hyperion_model::myrinet_200;

    fn runtime(nodes: usize) -> HyperionRuntime {
        HyperionRuntime::new(HyperionConfig::new(
            myrinet_200(),
            nodes,
            ProtocolKind::JavaIc,
        ))
        .unwrap()
    }

    #[test]
    fn slot_value_round_trips() {
        assert_eq!(u64::from_slot(42u64.to_slot()), 42);
        assert_eq!(i64::from_slot((-7i64).to_slot()), -7);
        assert_eq!(i32::from_slot((-123i32).to_slot()), -123);
        assert_eq!(i32::from_slot(i32::MIN.to_slot()), i32::MIN);
        assert_eq!(f64::from_slot(3.25f64.to_slot()), 3.25);
        assert!(f64::from_slot(f64::NAN.to_slot()).is_nan());
        assert!(bool::from_slot(true.to_slot()));
        assert!(!bool::from_slot(false.to_slot()));
        assert_eq!(
            GlobalAddr::from_slot(GlobalAddr(99).to_slot()),
            GlobalAddr(99)
        );
    }

    #[test]
    fn object_fields_are_independent() {
        let rt = runtime(2);
        rt.run(|ctx| {
            let obj = ctx.alloc_object(4, NodeId(1));
            assert_eq!(obj.num_fields(), 4);
            obj.put(ctx, 0, 1.5f64);
            obj.put(ctx, 1, -9i64);
            obj.put(ctx, 2, true);
            assert_eq!(obj.get::<f64>(ctx, 0), 1.5);
            assert_eq!(obj.get::<i64>(ctx, 1), -9);
            assert!(obj.get::<bool>(ctx, 2));
            assert_eq!(obj.get::<i64>(ctx, 3), 0);
        });
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn object_field_bounds_are_checked() {
        let rt = runtime(1);
        rt.run(|ctx| {
            let obj = ctx.alloc_object(2, NodeId(0));
            obj.put(ctx, 2, 1u64);
        });
    }

    #[test]
    fn array_round_trip_and_fill() {
        let rt = runtime(2);
        rt.run(|ctx| {
            let arr: HArray<f64> = ctx.alloc_array(10, NodeId(1));
            assert_eq!(arr.len(), 10);
            assert!(!arr.is_empty());
            arr.fill(ctx, 2.5);
            arr.put(ctx, 3, -1.0);
            let v = arr.to_vec(ctx);
            assert_eq!(v.len(), 10);
            assert_eq!(v[3], -1.0);
            assert!(v
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != 3)
                .all(|(_, x)| *x == 2.5));
        });
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn array_bounds_are_checked() {
        let rt = runtime(1);
        rt.run(|ctx| {
            let arr: HArray<u64> = ctx.alloc_array(3, NodeId(0));
            let _ = arr.get(ctx, 3);
        });
    }

    #[test]
    fn slice_ops_round_trip_and_bound_check() {
        let rt = runtime(2);
        rt.run(|ctx| {
            let arr: HArray<i64> = ctx.alloc_array(20, NodeId(1));
            let values: Vec<i64> = (0..8).map(|i| i * i - 3).collect();
            arr.write_slice(ctx, 5, &values);
            assert_eq!(arr.read_slice(ctx, 5..13), values);
            assert_eq!(arr.read_slice(ctx, ..).len(), 20);
            assert_eq!(arr.read_slice(ctx, 4..5), vec![0]);
            assert_eq!(arr.get(ctx, 6), values[1]);
        });
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_slice_bounds_are_checked() {
        let rt = runtime(1);
        rt.run(|ctx| {
            let arr: HArray<u64> = ctx.alloc_array(4, NodeId(0));
            let _ = arr.read_slice(ctx, 2..5);
        });
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn write_slice_bounds_are_checked() {
        let rt = runtime(1);
        rt.run(|ctx| {
            let arr: HArray<u64> = ctx.alloc_array(4, NodeId(0));
            arr.write_slice(ctx, 3, &[1, 2]);
        });
    }

    #[test]
    fn views_pin_data_and_read_locally() {
        let rt = runtime(2);
        let out = rt.run(|ctx| {
            let arr: HArray<f64> = ctx.alloc_array(16, NodeId(1));
            for i in 0..16 {
                arr.put(ctx, i, i as f64 / 2.0);
            }
            let view = arr.view(ctx, 4..12);
            assert_eq!(view.len(), 8);
            assert_eq!(view.start(), 4);
            assert!(!view.is_empty());
            // Reads need no ctx and charge nothing.
            let before = ctx.now();
            let sum: f64 = view.iter().sum();
            assert_eq!(view.get(0), 2.0);
            assert_eq!(view.to_vec().len(), 8);
            assert_eq!(ctx.now(), before);
            sum
        });
        assert_eq!(out.result, (4..12).map(|i| i as f64 / 2.0).sum::<f64>());
        let total = out.report.total_stats();
        assert_eq!(total.bulk_reads, 1);
    }

    #[test]
    fn mutable_views_buffer_writes_until_commit() {
        let rt = runtime(2);
        rt.run(|ctx| {
            let arr: HArray<i64> = ctx.alloc_array(10, NodeId(0));
            arr.fill(ctx, 7);
            let mut vm = arr.view_mut(ctx, 2..8);
            assert!(!vm.is_dirty());
            assert_eq!(vm.get(0), 7, "view_mut reads current contents");
            vm.set(1, -1);
            vm.set(3, -3);
            assert!(vm.is_dirty());
            // Not yet visible through the DSM.
            assert_eq!(arr.get(ctx, 3), 7);
            let vm = vm.commit(ctx);
            assert!(!vm.is_dirty());
            assert_eq!(arr.get(ctx, 3), -1);
            assert_eq!(arr.get(ctx, 5), -3);
            assert_eq!(arr.get(ctx, 2), 7, "untouched elements keep their value");
            // A clean commit flushes nothing.
            let writes_before = ctx.shared.cluster.total_stats().bulk_writes;
            let _ = vm.commit(ctx);
            assert_eq!(ctx.shared.cluster.total_stats().bulk_writes, writes_before);
        });
    }

    #[test]
    fn commit_flushes_only_written_slots_and_never_clobbers_others() {
        let rt = runtime(2);
        rt.run(|ctx| {
            let arr: HArray<i64> = ctx.alloc_array(10, NodeId(0));
            arr.fill(ctx, 1);
            // Snapshot the whole array, then write only the two ends.
            let mut vm = arr.view_mut(ctx, ..);
            vm.set(0, 100);
            vm.set(9, 900);
            // A concurrent thread on another node updates a middle slot and
            // flushes it home (thread exit is a release point).
            let worker = ctx.spawn_on(NodeId(1), move |t| {
                arr.put(t, 5, 555);
            });
            ctx.join(worker);
            assert_eq!(arr.get(ctx, 5), 555);
            // Committing the view must flush exactly the two written slots:
            // the stale snapshot of slot 5 must NOT be written back.
            let _ = vm.commit(ctx);
            assert_eq!(arr.get(ctx, 0), 100);
            assert_eq!(arr.get(ctx, 9), 900);
            assert_eq!(arr.get(ctx, 5), 555, "commit clobbered a concurrent write");
            assert_eq!(arr.get(ctx, 4), 1, "untouched slots keep their value");
        });
    }

    #[test]
    fn rows_view_caches_row_handles() {
        let rt = runtime(3);
        let out = rt.run(|ctx| {
            let m: HMatrix<i64> = ctx.alloc_matrix(6, 8, |r| NodeId((r % 3) as u32));
            let rows = m.rows_view(ctx);
            assert_eq!(rows.rows(), 6);
            assert_eq!(rows.cols(), 8);
            for r in 0..6 {
                for c in 0..8 {
                    rows.put(ctx, r, c, (r * 8 + c) as i64);
                }
            }
            // Row lookups after the view are free: field reads stay flat
            // while we fetch every row handle again.
            let reads_before = ctx.shared.cluster.total_stats().field_reads;
            for r in 0..6 {
                let row = rows.row(r);
                assert_eq!(ctx.home_of(row.base()), NodeId((r % 3) as u32));
            }
            let reads_after = ctx.shared.cluster.total_stats().field_reads;
            assert_eq!(reads_before, reads_after);
            // Element reads agree with the per-access path.
            for r in 0..6 {
                for c in 0..8 {
                    assert_eq!(rows.get(ctx, r, c), m.get(ctx, r, c));
                }
            }
            let rv = rows.row_view(ctx, 2);
            let total: i64 = rv.iter().sum();
            let mut rvm = rows.row_view_mut(ctx, 3);
            rvm.set(0, 999);
            let _ = rvm.commit(ctx);
            assert_eq!(m.get(ctx, 3, 0), 999);
            total
        });
        assert_eq!(out.result, (16..24).sum::<i64>());
    }

    #[test]
    fn matrix_rows_live_on_their_assigned_homes() {
        let rt = runtime(3);
        rt.run(|ctx| {
            let m: HMatrix<i64> = ctx.alloc_matrix(6, 8, |r| NodeId((r % 3) as u32));
            for r in 0..6 {
                for c in 0..8 {
                    m.put(ctx, r, c, (r * 8 + c) as i64);
                }
            }
            for r in 0..6 {
                let row = m.row(ctx, r);
                assert_eq!(ctx.home_of(row.base()), NodeId((r % 3) as u32));
                for c in 0..8 {
                    assert_eq!(m.get(ctx, r, c), (r * 8 + c) as i64);
                }
            }
            assert_eq!(m.rows(), 6);
            assert_eq!(m.cols(), 8);
        });
    }

    #[test]
    fn page_aligned_array_starts_a_fresh_page() {
        let rt = runtime(1);
        rt.run(|ctx| {
            let a: HArray<u64> = ctx.alloc_array(4, NodeId(0));
            let b: HArray<u64> = ctx.alloc_array_page_aligned(4, NodeId(0));
            assert_ne!(a.base().page(), b.base().page());
            assert_eq!(b.base().slot(), 0);
        });
    }
}
