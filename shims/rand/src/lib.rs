//! Offline stand-in for `rand` 0.8.
//!
//! Provides [`rngs::SmallRng`] (a SplitMix64 generator) plus the
//! [`Rng`]/[`SeedableRng`] trait subset this workspace uses:
//! `seed_from_u64`, `gen_range` over half-open integer ranges,
//! `gen_bool`, and `gen::<f64>()`. Deterministic for a given seed,
//! which is all the workload generators need.

use std::ops::Range;

/// Low-level generator interface.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable construction.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that [`Rng::gen_range`] can sample uniformly from a range.
pub trait SampleUniform: Copy {
    /// Maps a raw 64-bit draw into `lo..hi`.
    fn from_draw(draw: u64, lo: Self, hi: Self) -> Self;
}

macro_rules! sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn from_draw(draw: u64, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range: empty range");
                // At most 2^64 - 1 for a type of at most 64 bits, so the
                // modulo is a 64-bit one, not a call into `u128` division.
                let span = ((hi as i128) - (lo as i128)) as u64;
                let off = draw % span;
                ((lo as i128) + (off as i128)) as $t
            }
        }
    )*};
}

sample_uniform_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl SampleUniform for f64 {
    fn from_draw(draw: u64, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "gen_range: empty range");
        let unit = (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + unit * (hi - lo)
    }
}

/// Types that [`Rng::gen`] can produce from the standard distribution.
pub trait Standard: Sized {
    /// Maps a raw 64-bit draw into a value.
    fn from_draw(draw: u64) -> Self;
}

impl Standard for f64 {
    fn from_draw(draw: u64) -> Self {
        (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn from_draw(draw: u64) -> Self {
        (draw >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    fn from_draw(draw: u64) -> Self {
        draw & 1 == 1
    }
}

impl Standard for u64 {
    fn from_draw(draw: u64) -> Self {
        draw
    }
}

impl Standard for u32 {
    fn from_draw(draw: u64) -> Self {
        (draw >> 32) as u32
    }
}

/// High-level sampling interface, blanket-implemented for all cores.
pub trait Rng: RngCore {
    /// Samples uniformly from a half-open range.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::from_draw(self.next_u64(), range.start, range.end)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of range");
        <f64 as Standard>::from_draw(self.next_u64()) < p
    }

    /// Samples from the standard distribution.
    #[allow(clippy::should_implement_trait)]
    fn gen<T: Standard>(&mut self) -> T {
        T::from_draw(self.next_u64())
    }
}

impl<R: RngCore> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, deterministic generator (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        state: u64,
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            SmallRng { state: seed }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, RngCore, SampleUniform, SeedableRng};

    #[test]
    fn deterministic_for_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..10 {
            assert_eq!(a.gen_range(0u64..1000), b.gen_range(0u64..1000));
        }
    }

    #[test]
    fn ranges_respected() {
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..1000 {
            let x = rng.gen_range(-100i64..100);
            assert!((-100..100).contains(&x));
            let y = rng.gen_range(3usize..9);
            assert!((3..9).contains(&y));
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    /// `from_draw` against the `i128`/`u128` expression it replaced, on
    /// every integer type: the full range, the narrowest ranges, spans
    /// around each power of two, and edge and random draws.
    #[test]
    fn from_draw_matches_the_u128_modulo() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut draws = vec![0, 1, 1 << 63, u64::MAX];
        draws.extend((0..1000).map(|_| rng.next_u64()));
        macro_rules! check {
            ($($t:ty),*) => {$({
                let (min, max) = (<$t>::MIN as i128, <$t>::MAX as i128);
                let mut ranges = vec![(min, max), (0, 1), (max - 1, max)];
                for k in 0..=<$t>::BITS {
                    for span in [(1i128 << k) - 1, 1 << k, (1 << k) + 1] {
                        if span > 0 && min + span <= max {
                            ranges.push((min, min + span));
                        }
                    }
                }
                for (lo, hi) in ranges {
                    let (lo, hi) = (lo as $t, hi as $t);
                    for &draw in &draws {
                        let span = (hi as i128).wrapping_sub(lo as i128) as u128;
                        let wide = ((lo as i128) + ((draw as u128 % span) as i128)) as $t;
                        assert_eq!(
                            <$t as SampleUniform>::from_draw(draw, lo, hi),
                            wide,
                            "{} {lo}..{hi}, draw {draw}",
                            stringify!($t)
                        );
                    }
                }
            })*};
        }
        check!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }
}
