//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access, so the real `rand` cannot be
//! fetched.  This shim provides the subset the workspace uses — `StdRng`,
//! [`SeedableRng::seed_from_u64`] and [`Rng::gen_range`] over integer and
//! float ranges — backed by a deterministic xoshiro256\*\* generator seeded
//! through SplitMix64 (the same construction the real `rand_xoshiro` uses).
//!
//! Determinism is all the benchmarks need: the distributed runs are checked
//! against sequential references generated from the *same* seed, so the
//! stream only has to be stable, not bit-identical to crates.io `rand`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::ops::Range;

/// Types that can be sampled uniformly from a `Range` by [`Rng::gen_range`].
pub trait SampleUniform: Copy + PartialOrd {
    /// Draw a uniform sample in `[low, high)` using `rng`.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

/// Object-safe source of random 64-bit words.
pub trait RngCore {
    /// Produce the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// The user-facing sampling interface (the subset of `rand::Rng` used here).
pub trait Rng: RngCore + Sized {
    /// Uniform sample from `range` (half-open, `low < high` required).
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        assert!(range.start < range.end, "gen_range needs a non-empty range");
        T::sample_range(self, range.start, range.end)
    }
}

impl<R: RngCore + Sized> Rng for R {}

/// Construction of a generator from a seed (the subset of `rand::SeedableRng`
/// used here).
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

macro_rules! impl_sample_int {
    ($($t:ty),+) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                // The draw is one word reduced modulo the span.  A span of a
                // type of at most 64 bits is at most 2^64 - 1 (`high` is
                // excluded), so the remainder taken in u64 is the one a u128
                // remainder gives, at the cost of a 64-bit divide.  Modulo
                // bias is negligible for the small spans used here and
                // irrelevant for correctness (only determinism matters).
                let span = (high as i128 - low as i128) as u64;
                let draw = rng.next_u64() % span;
                (low as i128 + draw as i128) as $t
            }
        }
    )+};
}

impl_sample_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        low + unit * (high - low)
    }
}

/// Generator implementations.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// Deterministic xoshiro256\*\* generator (stand-in for `rand::rngs::StdRng`).
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn integer_draws_are_the_word_modulo_the_span() {
        // The remainder taken in u64 must be the one taken in u128, down to
        // the widest spans a 64-bit type has.
        let mut rng = StdRng::seed_from_u64(11);
        for span in [1u64, 7, 1000, 1 << 32, 1 << 63] {
            for _ in 0..1000 {
                let x = rng.clone().next_u64();
                let want = ((x as u128) % span as u128) as u64;
                assert_eq!(rng.gen_range(0..span), want, "span {span}");
            }
        }
        for _ in 0..1000 {
            let x = rng.clone().next_u64();
            let span = (i64::MAX as i128 - i64::MIN as i128) as u128;
            let want = (i64::MIN as i128 + ((x as u128) % span) as i128) as i64;
            assert_eq!(rng.gen_range(i64::MIN..i64::MAX), want);
            let x = rng.clone().next_u64();
            let want = ((x as u128) % u64::MAX as u128) as u64;
            assert_eq!(rng.gen_range(0..u64::MAX), want);
        }
    }

    #[test]
    fn the_stream_of_one_seed_is_pinned() {
        // Every seeded input of the benchmarks and their references comes
        // from this stream: a change to the generator or to a sampler must
        // fail here, not as a moved digest somewhere else.
        let mut rng = StdRng::seed_from_u64(2026);
        let ints: Vec<u32> = (0..8).map(|_| rng.gen_range(0u32..1000)).collect();
        assert_eq!(ints, [109, 512, 418, 586, 994, 336, 772, 239]);
        let units: Vec<u64> = (0..8)
            .map(|_| rng.gen_range(0.0..1.0f64).to_bits())
            .collect();
        assert_eq!(
            units,
            [
                0x3feb_8d6a_5d59_8b74,
                0x3fce_7292_c6d4_9f44,
                0x3fee_e92a_65ce_bb89,
                0x3fd4_755a_44be_f350,
                0x3feb_e82e_024a_9fca,
                0x3fe7_6ef4_11df_e553,
                0x3fde_6341_94b5_0284,
                0x3fe7_f982_f019_ef7f,
            ]
        );
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u64..1_000_000), b.gen_range(0u64..1_000_000));
        }
        let mut c = StdRng::seed_from_u64(43);
        let sa: Vec<u64> = (0..8).map(|_| a.gen_range(0..1_000_000)).collect();
        let sc: Vec<u64> = (0..8).map(|_| c.gen_range(0..1_000_000)).collect();
        assert_ne!(sa, sc);
    }

    #[test]
    fn integer_ranges_are_respected() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(-5i64..17);
            assert!((-5..17).contains(&v));
            let u = rng.gen_range(3u32..4);
            assert_eq!(u, 3);
        }
    }

    #[test]
    fn float_ranges_are_respected_and_spread() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut low_half = 0usize;
        for _ in 0..10_000 {
            let v = rng.gen_range(-1.0f64..1.0);
            assert!((-1.0..1.0).contains(&v));
            if v < 0.0 {
                low_half += 1;
            }
        }
        assert!((3000..7000).contains(&low_half), "badly skewed: {low_half}");
    }
}
