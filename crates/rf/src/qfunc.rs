//! The Gaussian Q-function and friends.
//!
//! Bit-error-rate expressions for coherent modulation over AWGN channels
//! are built from the Gaussian tail probability
//! `Q(x) = P(N(0,1) > x) = erfc(x / √2) / 2`. The standard library has no
//! `erfc`, so we implement one with a high-accuracy rational
//! approximation, plus a bisection-based inverse that is exact enough to
//! recover required Eb/N0 values at BERs down to 1e-15.

/// Complementary error function `erfc(x) = 1 − erf(x)`.
///
/// Uses the rational Chebyshev-style approximation from Numerical Recipes
/// (`erfcc`, fractional error below `1.2e-7`) for `|x| ≤ 3`, switching to
/// an asymptotic continued fraction (relative error below ~1e-10) in the
/// tails, which is where BER computations live.
#[must_use]
pub(crate) fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    // Numerical Recipes erfcc polynomial.
    let ans = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    let approx = if x >= 0.0 { ans } else { 2.0 - ans };
    erfc_by_region(x, approx)
}

/// Selects the evaluation strategy by region: the NR polynomial is at
/// ~1e-7 relative accuracy for moderate `x`; in the deep tail the
/// asymptotic continued fraction is far more accurate.
fn erfc_by_region(x: f64, approx: f64) -> f64 {
    if x > 3.0 {
        // Asymptotic continued fraction (Lentz), relative error < 1e-14
        // for x > 3: erfc(x) = e^{−x²}/(x√π) · 1/(1 + 1/(2x²) · cf).
        erfc_tail_cf(x)
    } else if x < -3.0 {
        2.0 - erfc_tail_cf(-x)
    } else {
        approx
    }
}

/// Continued-fraction evaluation of `erfc` for large positive `x`:
/// `erfc(x) = e^{−x²}/√π · 1/(x + 0.5/(x + 1.0/(x + 1.5/(x + …))))`,
/// evaluated bottom-up.
fn erfc_tail_cf(x: f64) -> f64 {
    let mut cf = 0.0_f64;
    for k in (1..=80).rev() {
        cf = (k as f64 / 2.0) / (x + cf);
    }
    let inv_sqrt_pi = 0.564_189_583_547_756_3;
    (-x * x).exp() * inv_sqrt_pi / (x + cf)
}

/// The Gaussian Q-function `Q(x) = erfc(x / √2) / 2`.
///
/// # Examples
///
/// ```
/// use mindful_rf::qfunc::q;
///
/// assert!((q(0.0) - 0.5).abs() < 1e-7);
/// // Q(4.7534) ≈ 1e-6 — the design point for BER 1e-6.
/// assert!((q(4.753_424).ln() - (1e-6_f64).ln()).abs() < 1e-3);
/// ```
#[must_use]
pub fn q(x: f64) -> f64 {
    0.5 * erfc(x / core::f64::consts::SQRT_2)
}

/// Inverse Q-function: returns `x` such that `Q(x) = p`, for `0 < p < 1`.
///
/// Uses bisection on the monotone `Q` over `[−10, 40]`, which keeps
/// `Q(lo) > p ≥ Q(hi)`. Once the midpoint rounds onto either end, every
/// further step leaves the bracket unchanged, so the loop stops there,
/// at f64 resolution, with the value a full 200-step run would return.
///
/// Out-of-domain inputs *saturate* instead of silently returning a
/// bisection artifact (the pre-fix behaviour in release builds, which
/// poisoned link budgets): `p ≤ 0` returns `+∞` (an impossibly clean
/// channel needs unbounded SNR), `p ≥ 1` returns `−∞`, and NaN
/// propagates as NaN. Use [`q_inv_checked`] to get an error instead.
#[must_use]
pub fn q_inv(p: f64) -> f64 {
    if p.is_nan() {
        return f64::NAN;
    }
    if p <= 0.0 {
        return f64::INFINITY;
    }
    if p >= 1.0 {
        return f64::NEG_INFINITY;
    }
    let (mut lo, mut hi) = (-10.0_f64, 40.0_f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mid == lo || mid == hi {
            break;
        }
        if q(mid) > p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// [`q_inv`] with domain checking: rejects `p` outside `(0, 1)` (and
/// NaN) instead of saturating.
///
/// # Errors
///
/// Returns [`crate::RfError::InvalidParameter`] when `p` is not a
/// probability strictly inside `(0, 1)`.
pub fn q_inv_checked(p: f64) -> crate::Result<f64> {
    if !(p > 0.0 && p < 1.0) {
        return Err(crate::RfError::InvalidParameter {
            name: "q_inv probability",
            value: p,
        });
    }
    Ok(q_inv(p))
}

/// Converts a linear power ratio to decibels.
#[must_use]
pub fn to_db(linear: f64) -> f64 {
    10.0 * linear.log10()
}

/// Converts decibels to a linear power ratio.
#[must_use]
pub fn from_db(db: f64) -> f64 {
    10.0_f64.powf(db / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_known_values() {
        // Reference values from standard tables.
        let cases = [
            (0.0, 1.0),
            (0.5, 0.479_500_122_186_953_5),
            (1.0, 0.157_299_207_050_285_13),
            (2.0, 0.004_677_734_981_063_127),
            (3.0, 2.209_049_699_858_544e-5),
            (4.0, 1.541_725_790_028_002e-8),
            (5.0, 1.537_459_794_428_035e-12),
        ];
        for (x, expected) in cases {
            let got = erfc(x);
            let rel = ((got - expected) / expected).abs();
            assert!(rel < 2e-7, "erfc({x}) = {got}, expected {expected}");
        }
    }

    #[test]
    fn erfc_deep_tail_is_accurate() {
        // erfc(6) = 2.1519736712498913e-17.
        let got = erfc(6.0);
        let expected = 2.151_973_671_249_891e-17;
        assert!(((got - expected) / expected).abs() < 1e-10);
    }

    #[test]
    fn erfc_negative_symmetry() {
        for x in [0.1, 0.7, 1.5, 2.5, 4.0] {
            let sum = erfc(x) + erfc(-x);
            assert!((sum - 2.0).abs() < 1e-9, "erfc({x}) symmetry: {sum}");
        }
    }

    #[test]
    fn q_at_zero_is_half() {
        assert!((q(0.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn q_is_monotone_decreasing() {
        let mut prev = q(-5.0);
        let mut x = -5.0;
        while x < 8.0 {
            x += 0.25;
            let cur = q(x);
            assert!(cur < prev, "Q not decreasing at {x}");
            prev = cur;
        }
    }

    #[test]
    fn q_inv_round_trips() {
        for p in [0.4, 0.1, 1e-3, 1e-6, 1e-9, 1e-12] {
            let x = q_inv(p);
            let back = q(x);
            assert!(
                ((back.ln() - p.ln()).abs()) < 1e-6,
                "q_inv({p}) = {x}, q back = {back}"
            );
        }
    }

    /// The inverse as it ran before its early exit: 200 bisection steps,
    /// no matter when the bracket stops moving.
    fn q_inv_200_steps(p: f64) -> f64 {
        let (mut lo, mut hi) = (-10.0_f64, 40.0_f64);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if q(mid) > p {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// The early exit changes no bit: a linear grid over (0, 1) plus a
    /// log grid into the deep tail.
    #[test]
    fn q_inv_early_exit_is_bit_identical_to_200_steps() {
        let linear = (1..1000).map(|i| f64::from(i) / 1000.0);
        let tail = (1..=300).map(|e| 10_f64.powf(-f64::from(e)));
        for p in linear.chain(tail) {
            let fast = q_inv(p);
            let oracle = q_inv_200_steps(p);
            assert_eq!(
                fast.to_bits(),
                oracle.to_bits(),
                "p = {p:e}: {fast} vs {oracle}"
            );
        }
    }

    #[test]
    fn q_inv_known_points() {
        // Q(1.2816) ≈ 0.1, Q(4.7534) ≈ 1e-6.
        assert!((q_inv(0.1) - 1.281_551_565_5).abs() < 1e-6);
        assert!((q_inv(1e-6) - 4.753_424_3).abs() < 1e-5);
    }

    /// Regression for the release-mode `q_inv` domain bug: out-of-range
    /// probabilities used to `debug_assert!` (a no-op in release builds)
    /// and then silently return a clamped bisection artifact. They now
    /// saturate identically in every build profile.
    #[test]
    fn q_inv_saturates_outside_its_domain() {
        assert_eq!(q_inv(0.0), f64::INFINITY);
        assert_eq!(q_inv(-3.5), f64::INFINITY);
        assert_eq!(q_inv(f64::NEG_INFINITY), f64::INFINITY);
        assert_eq!(q_inv(1.0), f64::NEG_INFINITY);
        assert_eq!(q_inv(7.0), f64::NEG_INFINITY);
        assert_eq!(q_inv(f64::INFINITY), f64::NEG_INFINITY);
        assert!(q_inv(f64::NAN).is_nan());
        // The saturated values are the correct limits: they are ordered
        // against every in-domain output.
        let in_domain = q_inv(1e-12);
        assert!(in_domain < q_inv(0.0) && in_domain > q_inv(1.0));
    }

    #[test]
    fn q_inv_checked_rejects_what_q_inv_saturates() {
        for bad in [0.0, -1.0, 1.0, 2.0, f64::NAN, f64::INFINITY] {
            assert!(q_inv_checked(bad).is_err(), "p = {bad} must be rejected");
        }
        for good in [1e-9, 1e-6, 0.1, 0.4999, 0.9] {
            let x = q_inv_checked(good).unwrap();
            assert_eq!(x, q_inv(good), "checked agrees in-domain at p = {good}");
            assert!(x.is_finite());
        }
    }

    #[test]
    fn db_conversions() {
        assert!((to_db(100.0) - 20.0).abs() < 1e-12);
        assert!((from_db(30.0) - 1000.0).abs() < 1e-9);
        for v in [0.01, 1.0, 42.0, 1e8] {
            assert!((from_db(to_db(v)) / v - 1.0).abs() < 1e-12);
        }
    }
}
