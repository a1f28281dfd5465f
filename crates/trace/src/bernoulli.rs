//! Bernoulli draws compared as integers.

use rand::RngCore;

/// 2^53, the resolution of `gen::<f64>()`.
const RESOLUTION: f64 = 9_007_199_254_740_992.0;

/// A probability `p`, drawn exactly as `rng.gen::<f64>() < p` but
/// without the float conversion: `gen::<f64>()` is `(next_u64() >> 11) ·
/// 2^-53`, so it is below `p` exactly when `next_u64() >> 11` is below
/// `ceil(p · 2^53)` (the product is exact, being a power-of-two scaling).
/// A negative or NaN `p` never fires; `p >= 1` always does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Bernoulli(u64);

impl Bernoulli {
    pub(crate) fn new(p: f64) -> Bernoulli {
        Bernoulli(mapg_units::ceil(p * RESOLUTION) as u64)
    }

    /// One draw, consuming one `next_u64` like `gen::<f64>()` does.
    #[inline]
    pub(crate) fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> bool {
        rng.next_u64() >> 11 < self.0
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn draws_match_the_float_comparison(p in -0.5f64..1.5, seed in any::<u64>()) {
            let bernoulli = Bernoulli::new(p);
            let (mut ints, mut floats) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            for _ in 0..64 {
                prop_assert_eq!(bernoulli.sample(&mut ints), floats.gen::<f64>() < p);
            }
        }
    }

    #[test]
    fn the_threshold_is_exact_at_every_draw_boundary() {
        // Every draw is k · 2^-53; p just above, at and below one of
        // them must split the draws exactly where the float compare does.
        for k in [0u64, 1, 2, 1 << 30, (1 << 53) - 1] {
            let at = k as f64 / RESOLUTION;
            for p in [at, f64::from_bits(at.to_bits() + 1), at - at * f64::EPSILON] {
                let threshold = Bernoulli::new(p).0;
                assert_eq!(k < threshold, at < p, "k {k}, p {p:e}");
            }
        }
        assert_eq!(Bernoulli::new(f64::NAN).0, 0);
        assert_eq!(Bernoulli::new(-0.0).0, 0);
        assert_eq!(Bernoulli::new(1.0).0, 1 << 53);
    }
}
