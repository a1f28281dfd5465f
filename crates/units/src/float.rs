//! Exact `f64` rounding without the library's software routine.
//!
//! On the default x86-64 target (no SSE4.1 `roundsd`), `f64::round` and
//! `f64::ceil` run a bit-manipulating software routine, out of line
//! unless the toolchain inlines it. The simulator rounds on its hot paths
//! (every sampled instruction gap, every scaled stall), so these helpers
//! do the common case — a non-negative value below 2^52 — with a
//! truncating conversion and one branch-free compare, and defer to the
//! library for everything else. Both return bit-for-bit what the library
//! would.

/// 2^52: every `f64` at or above it is an integer.
const INTEGRAL: f64 = 4_503_599_627_370_496.0;

/// `x.round()` (half away from zero), bit-for-bit.
///
/// ```
/// assert_eq!(mapg_units::round(2.5), 3.0);
/// assert_eq!(mapg_units::round(2.4999999999999996), 2.0);
/// ```
#[inline]
pub fn round(x: f64) -> f64 {
    if x.is_sign_positive() && x < INTEGRAL {
        // Below 2^52 both the truncation and `x - t` are exact. Adding
        // the comparison as an integer keeps the rounding branch-free.
        let t = x as i64;
        (t + i64::from(x - t as f64 >= 0.5)) as f64
    } else {
        x.round()
    }
}

/// `x.ceil()`, bit-for-bit.
///
/// ```
/// assert_eq!(mapg_units::ceil(2.0), 2.0);
/// assert_eq!(mapg_units::ceil(2.0000000000000004), 3.0);
/// ```
#[inline]
pub fn ceil(x: f64) -> f64 {
    if x.is_sign_positive() && x < INTEGRAL {
        let t = x as i64;
        (t + i64::from((t as f64) < x)) as f64
    } else {
        x.ceil()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits()
    }

    #[test]
    fn edges_match_the_library() {
        let positive = [
            0.0,
            0.5,
            0.49999999999999994,
            1.5,
            2.5,
            f64::MIN_POSITIVE,
            5e-324,
            INTEGRAL - 0.5,
            INTEGRAL - 1.0,
            INTEGRAL,
            INTEGRAL + 1.0,
            INTEGRAL / 2.0 + 0.5,
            9.2e18,
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        for x in positive.into_iter().flat_map(|x| [x, -x]) {
            assert!(same(round(x), x.round()), "round({x:e})");
            assert!(same(ceil(x), x.ceil()), "ceil({x:e})");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        #[test]
        fn any_bit_pattern_matches_the_library(bits in any::<u64>()) {
            let x = f64::from_bits(bits);
            prop_assert!(same(round(x), x.round()), "round({:e})", x);
            prop_assert!(same(ceil(x), x.ceil()), "ceil({:e})", x);
        }

        #[test]
        fn the_fast_range_matches_the_library(m in 0.0f64..1.0, e in 0i32..53) {
            // m · 2^e spreads the samples over every binade below 2^52.
            let x = m * 2f64.powi(e);
            let half = x.trunc() + 0.5;
            for x in [x, half] {
                prop_assert!(same(round(x), x.round()), "round({:e})", x);
                prop_assert!(same(ceil(x), x.ceil()), "ceil({:e})", x);
            }
        }
    }
}
