//! An append-only table indexed densely from 0, whose lookups take no lock.
//!
//! A node's frames (`crate::table`) and `java_ad`'s page states
//! (`crate::detection`) live in such tables: entry `k` exists once the
//! table has grown past it, and then for good.  Entries sit inline in
//! chunks allocated whole when the table first grows into them and never
//! moved, so a reference to one lives as long as the table.  The `o`-th
//! octave of indices (`64·(2^o − 1)` up to `64·(2^(o+1) − 1)`) is four
//! chunks of `2^(o+4)` entries: at most a quarter of an octave is allocated
//! ahead of the length.  A lookup reads two atomics; growth takes a lock.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use hyperion_model::sync::lock;

/// The first octave's entries, and the chunks of each octave, as powers of
/// two; and the octaves of a table, whose chunk slots every table builds.
const FIRST_BITS: u32 = 6;
const SPLIT_BITS: u32 = 2;
const OCTAVES: u32 = 14;

/// Entries a table holds at most: `2^20 − 64` (pages: 4 GiB), 128 times the
/// ~8 K pages of the largest run (ASP at paper scale).
pub(crate) const CAPACITY: usize = ((1 << OCTAVES) - 1) << FIRST_BITS;

/// An append-only table of `T`s (module docs).
#[derive(Debug)]
pub(crate) struct Dense<T> {
    chunks: [OnceLock<Box<[T]>>; (OCTAVES << SPLIT_BITS) as usize],
    /// The entries materialised: `0..len`.
    len: AtomicUsize,
    /// Held while the table grows.
    growing: Mutex<()>,
}

/// The chunk entry `k` sits in, and its place there.
#[inline]
fn locate(k: usize) -> (usize, usize) {
    let i = k + (1 << FIRST_BITS);
    let top = i.ilog2();
    // The chunk is `1 << shift` entries long.
    let shift = top - SPLIT_BITS;
    let chunk = ((top - FIRST_BITS) << SPLIT_BITS) as usize + (i >> shift) - (1 << SPLIT_BITS);
    (chunk, i & ((1 << shift) - 1))
}

impl<T: Default> Dense<T> {
    pub(crate) fn new() -> Self {
        Dense {
            chunks: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicUsize::new(0),
            growing: Mutex::new(()),
        }
    }

    /// Number of entries materialised.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Entry `k`, if it is materialised.
    #[inline]
    pub(crate) fn get(&self, k: usize) -> Option<&T> {
        if k >= self.len() {
            return None;
        }
        let (chunk, at) = locate(k);
        self.chunks[chunk].get().map(|entries| &entries[at])
    }

    /// Entry `k`, after materialising every entry up to it: each new one is
    /// handed to `materialise` once, before any lookup can see it.
    ///
    /// # Panics
    /// Panics if `k` is not below [`CAPACITY`].
    #[cold]
    pub(crate) fn grow(&self, k: usize, mut materialise: impl FnMut(usize, &T)) -> &T {
        assert!(k < CAPACITY, "entry {k} is past a table's {CAPACITY}");
        let _growing = lock(&self.growing);
        let from = self.len.load(Ordering::Relaxed);
        for i in from..=k {
            let (chunk, at) = locate(i);
            let entries = self.chunks[chunk].get_or_init(|| {
                let len = 1 << ((chunk as u32 >> SPLIT_BITS) + FIRST_BITS - SPLIT_BITS);
                (0..len).map(|_| T::default()).collect()
            });
            materialise(i, &entries[at]);
        }
        self.len.store(from.max(k + 1), Ordering::Release);
        self.get(k).expect("materialised")
    }

    /// The materialised entries, in index order, chunk by chunk.
    pub(crate) fn slices(&self) -> impl Iterator<Item = &[T]> {
        let (mut left, chunks) = (self.len(), self.chunks.iter().map_while(OnceLock::get));
        chunks.map_while(move |entries| {
            let taken = &entries[..entries.len().min(left)];
            left -= taken.len();
            (!taken.is_empty()).then_some(taken)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_entries_fill_each_chunk_in_order() {
        let mut next = (0, 0);
        for k in 0..5_000 {
            let (chunk, at) = locate(k);
            assert_eq!((chunk, at), next, "entry {k}");
            let len = 1 << ((chunk as u32 >> SPLIT_BITS) + FIRST_BITS - SPLIT_BITS);
            next = if at + 1 == len {
                (chunk + 1, 0)
            } else {
                (chunk, at + 1)
            };
        }
        assert_eq!(locate(CAPACITY - 1).0, (OCTAVES << SPLIT_BITS) as usize - 1);
    }

    #[test]
    #[should_panic(expected = "is past a table's")]
    fn growing_past_the_capacity_panics() {
        Dense::<u8>::new().grow(CAPACITY, |_, _| ());
    }
}
