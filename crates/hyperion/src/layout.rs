//! Typed field layouts for shared objects.
//!
//! The seed runtime described object layouts with ad-hoc constant modules
//! (`mod barrier_fields { pub const COUNT: usize = 1; ... }`) and untyped
//! `HObject::get::<T>` calls — the field index and the field type were
//! connected only by convention.  This module promotes the layout into the
//! type system:
//!
//! * a [`Field<T>`] is a field index *carrying its slot type*;
//! * an [`ObjectLayout`] names a class-like layout and its field count;
//! * an [`HStruct<L>`] is an [`HObject`] whose
//!   accessors only accept that layout's fields, with the value type
//!   inferred from the field — `state.get(ctx, BarrierState::COUNT)` cannot
//!   read the wrong slot or the wrong type.
//!
//! Layouts are declared once with [`object_layout!`](crate::object_layout):
//!
//! ```
//! use hyperion::prelude::*;
//!
//! hyperion::object_layout! {
//!     /// A 2-D point with a tag.
//!     pub struct PointLayout {
//!         /// X coordinate.
//!         X: f64,
//!         /// Y coordinate.
//!         Y: f64,
//!         /// Owner tag.
//!         TAG: u64,
//!     }
//! }
//!
//! let config = HyperionConfig::new(myrinet_200(), 1, ProtocolKind::JavaIc);
//! let outcome = HyperionRuntime::new(config).unwrap().run(|ctx| {
//!     let p: HStruct<PointLayout> = ctx.alloc_struct(NodeId(0));
//!     p.put(ctx, PointLayout::X, 1.5);
//!     p.put(ctx, PointLayout::TAG, 9u64);
//!     (p.get(ctx, PointLayout::X), p.get(ctx, PointLayout::TAG))
//! });
//! assert_eq!(outcome.result, (1.5, 9));
//! ```

use std::marker::PhantomData;

use hyperion_pm2::NodeId;

use crate::object::{HObject, SlotValue};
use crate::runtime::ThreadCtx;

/// A typed field descriptor: the slot index of one field of an
/// [`ObjectLayout`], carrying the field's value type.
pub struct Field<T: SlotValue> {
    index: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T: SlotValue> Field<T> {
    /// Descriptor for the field at slot `index`.  Normally produced by
    /// [`object_layout!`](crate::object_layout), not written by hand.
    pub const fn at(index: usize) -> Self {
        Field {
            index,
            _marker: PhantomData,
        }
    }

    /// Slot index of the field within its object.
    #[inline]
    pub const fn index(self) -> usize {
        self.index
    }
}

impl<T: SlotValue> Clone for Field<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: SlotValue> Copy for Field<T> {}

impl<T: SlotValue> std::fmt::Debug for Field<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Field").field("index", &self.index).finish()
    }
}

/// A class-like description of a shared object's field layout.
///
/// Implemented by the marker types [`object_layout!`](crate::object_layout) generates; the field
/// descriptors themselves live as associated constants on the marker type.
pub trait ObjectLayout {
    /// Number of slot-sized fields in the layout.
    const NUM_FIELDS: usize;
    /// Class-like name for diagnostics.
    const NAME: &'static str;
}

/// A shared object whose accessors are typed by a layout `L`.
///
/// Wraps an [`HObject`] of exactly `L::NUM_FIELDS` fields; field accesses
/// pay the same protocol costs as the untyped object — the layout only adds
/// compile-time safety, never runtime behaviour.
pub struct HStruct<L: ObjectLayout> {
    object: HObject,
    _marker: PhantomData<fn() -> L>,
}

impl<L: ObjectLayout> Clone for HStruct<L> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<L: ObjectLayout> Copy for HStruct<L> {}

impl<L: ObjectLayout> std::fmt::Debug for HStruct<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HStruct")
            .field("layout", &L::NAME)
            .field("base", &self.object.base())
            .finish()
    }
}

impl<L: ObjectLayout> HStruct<L> {
    /// Wrap an existing object allocation.
    ///
    /// # Panics
    /// Panics if the object's field count does not match the layout.
    pub fn from_object(object: HObject) -> Self {
        assert_eq!(
            object.num_fields(),
            L::NUM_FIELDS,
            "object has {} fields but layout {} declares {}",
            object.num_fields(),
            L::NAME,
            L::NUM_FIELDS
        );
        HStruct {
            object,
            _marker: PhantomData,
        }
    }

    /// The underlying untyped object.
    pub fn object(&self) -> HObject {
        self.object
    }

    /// Read `field`.
    #[inline]
    pub fn get<T: SlotValue>(&self, ctx: &mut ThreadCtx, field: Field<T>) -> T {
        self.object.get(ctx, field.index())
    }

    /// Write `field`.
    #[inline]
    pub fn put<T: SlotValue>(&self, ctx: &mut ThreadCtx, field: Field<T>, value: T) {
        self.object.put(ctx, field.index(), value);
    }
}

impl ThreadCtx {
    /// Allocate a shared object shaped by layout `L`, homed on `home`.
    pub fn alloc_struct<L: ObjectLayout>(&mut self, home: NodeId) -> HStruct<L> {
        HStruct::from_object(self.alloc_object(L::NUM_FIELDS, home))
    }
}

/// Declare an [`ObjectLayout`] marker type together with its typed
/// [`Field`] constants.
///
/// Fields are assigned consecutive slot indices in declaration order; the
/// generated type implements [`ObjectLayout`] with the matching
/// `NUM_FIELDS`.  See the [module docs](crate::layout) for an example.
#[macro_export]
macro_rules! object_layout {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $field:ident : $ty:ty),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug)]
        $vis struct $name;

        impl $name {
            $crate::object_layout!(@fields 0usize; $($(#[$fmeta])* $field : $ty),+);
        }

        impl $crate::layout::ObjectLayout for $name {
            const NUM_FIELDS: usize = $crate::object_layout!(@count $($field),+);
            const NAME: &'static str = stringify!($name);
        }
    };

    (@fields $idx:expr; $(#[$fmeta:meta])* $field:ident : $ty:ty) => {
        $(#[$fmeta])*
        pub const $field: $crate::layout::Field<$ty> = $crate::layout::Field::at($idx);
    };
    (@fields $idx:expr; $(#[$fmeta:meta])* $field:ident : $ty:ty, $($rest:tt)+) => {
        $(#[$fmeta])*
        pub const $field: $crate::layout::Field<$ty> = $crate::layout::Field::at($idx);
        $crate::object_layout!(@fields $idx + 1usize; $($rest)+);
    };
    (@count $($field:ident),+) => {
        0usize $(+ { let _ = stringify!($field); 1usize })+
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{HyperionConfig, HyperionRuntime};
    use hyperion_dsm::ProtocolKind;
    use hyperion_model::myrinet_200;

    crate::object_layout! {
        /// Test layout: three differently typed fields.
        pub struct DemoLayout {
            /// A floating-point field.
            VALUE: f64,
            /// A signed counter.
            COUNT: i64,
            /// A flag.
            READY: bool,
        }
    }

    fn runtime() -> HyperionRuntime {
        HyperionRuntime::new(HyperionConfig::new(myrinet_200(), 2, ProtocolKind::JavaIc)).unwrap()
    }

    #[test]
    fn layout_assigns_indices_in_declaration_order() {
        assert_eq!(DemoLayout::VALUE.index(), 0);
        assert_eq!(DemoLayout::COUNT.index(), 1);
        assert_eq!(DemoLayout::READY.index(), 2);
        assert_eq!(DemoLayout::NUM_FIELDS, 3);
        assert_eq!(DemoLayout::NAME, "DemoLayout");
    }

    #[test]
    fn struct_accessors_are_typed_by_their_fields() {
        let rt = runtime();
        let out = rt.run(|ctx| {
            let s: HStruct<DemoLayout> = ctx.alloc_struct(NodeId(1));
            s.put(ctx, DemoLayout::VALUE, 2.25);
            s.put(ctx, DemoLayout::COUNT, -40);
            s.put(ctx, DemoLayout::READY, true);
            (
                s.get(ctx, DemoLayout::VALUE),
                s.get(ctx, DemoLayout::COUNT),
                s.get(ctx, DemoLayout::READY),
            )
        });
        assert_eq!(out.result, (2.25, -40, true));
        // Typed accesses pay the ordinary protocol costs.
        assert_eq!(out.report.total_stats().field_writes, 3);
        assert_eq!(out.report.total_stats().field_reads, 3);
    }

    #[test]
    fn struct_wraps_and_exposes_its_object() {
        let rt = runtime();
        rt.run(|ctx| {
            let s: HStruct<DemoLayout> = ctx.alloc_struct(NodeId(0));
            assert_eq!(s.object().num_fields(), 3);
            let again = HStruct::<DemoLayout>::from_object(s.object());
            assert_eq!(again.object().base(), s.object().base());
            assert!(format!("{s:?}").contains("DemoLayout"));
        });
    }

    #[test]
    #[should_panic(expected = "declares 3")]
    fn mismatched_object_shape_is_rejected() {
        let rt = runtime();
        rt.run(|ctx| {
            let obj = ctx.alloc_object(2, NodeId(0));
            let _ = HStruct::<DemoLayout>::from_object(obj);
        });
    }
}
