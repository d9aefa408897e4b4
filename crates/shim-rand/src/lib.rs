//! Offline drop-in subset of the `rand` 0.8 API.
//!
//! The build environment has no registry access, so the workspace vendors
//! the small slice of `rand` it actually uses: a seedable deterministic
//! generator ([`rngs::StdRng`]) plus the [`Rng`] convenience methods
//! (`gen_range`, `gen_bool`, `gen`). The generator is xoshiro256**
//! seeded via splitmix64 — statistically solid and stable across
//! platforms, which is what the seeded data generators and the
//! counter-pinning regression tests rely on.
//!
//! Only determinism and a reasonable distribution are promised; this is
//! NOT a cryptographic generator and does not track upstream `rand`'s
//! value streams.

use std::ops::{Range, RangeInclusive};

/// Construction of a generator from a seed (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed (deterministic, portable).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that `Rng::gen` can produce (subset of the `Standard`
/// distribution).
pub trait Standard: Sized {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 random mantissa bits.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges that `Rng::gen_range` accepts (subset of `rand`'s
/// `SampleRange`).
pub trait SampleRange<T> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(
                    self.start < self.end,
                    "gen_range: empty range {}..{}",
                    self.start,
                    self.end
                );
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                self.start.wrapping_add(uniform_u128(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range {lo}..={hi}");
                let span = (hi as u128) - (lo as u128) + 1;
                lo.wrapping_add(uniform_u128(rng, span) as $t)
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize);

/// Uniform value in `[0, span)` by rejection sampling (span ≤ 2^64).
fn uniform_u128<R: Rng + ?Sized>(rng: &mut R, span: u128) -> u64 {
    debug_assert!(span > 0 && span <= (1u128 << 64));
    if span == (1u128 << 64) {
        return rng.next_u64();
    }
    let span = span as u64;
    // Rejection zone keeps the distribution exactly uniform.
    let zone = u64::MAX - (u64::MAX - span + 1) % span;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % span;
        }
    }
}

/// The user-facing generator trait (subset of `rand::Rng`).
///
/// Usable via `R: Rng + ?Sized` so generic helpers can take
/// `&mut dyn`-style borrows, matching upstream.
pub trait Rng {
    /// The raw 64-bit output stream.
    fn next_u64(&mut self) -> u64;

    /// Uniform value in the given range (`a..b` or `a..=b`).
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} out of range");
        f64::sample(self) < p
    }

    /// A value from the `Standard` distribution (e.g. `f64` in `[0, 1)`).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }
}

pub mod rngs {
    use super::{Rng, SeedableRng};

    /// Deterministic seeded generator: xoshiro256** with splitmix64
    /// seeding. Stream differs from upstream `StdRng` (which is not
    /// reproducible across rand versions anyway); only in-repo
    /// determinism matters.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            StdRng { s }
        }
    }

    impl Rng for StdRng {
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

    impl<R: Rng + ?Sized> Rng for &mut R {
        fn next_u64(&mut self) -> u64 {
            R::next_u64(self)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.gen_range(3..17usize);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(5..=5u64);
            assert_eq!(w, 5);
            let x: u8 = rng.gen_range(0..=255u8);
            let _ = x;
        }
    }

    #[test]
    fn gen_range_covers_range() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(0..8usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn gen_f64_is_unit_interval() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn works_through_unsized_borrows() {
        fn sample<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.gen()
        }
        let mut rng = StdRng::seed_from_u64(1);
        let f = sample(&mut rng);
        assert!((0.0..1.0).contains(&f));
    }
}
