//! Closed real intervals with outward-conservative arithmetic.
//!
//! The verifier uses interval arithmetic to bound the range of polynomials
//! over boxes.  Operations here are *conservative*: the true range of the
//! operation over the operand intervals is always contained in the result.
//! (We do not perform directed rounding; the slack used by the verifier is
//! many orders of magnitude larger than double-precision rounding error, and
//! every acceptance threshold in the verifier budgets for it explicitly.)

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A closed interval `[lo, hi]` of real numbers.
///
/// # Examples
///
/// ```
/// use vrl_poly::Interval;
///
/// let a = Interval::new(-1.0, 2.0);
/// let b = a * a;
/// assert_eq!(b.lo(), -2.0); // naive product bound
/// assert_eq!(a.pow(2).lo(), 0.0); // even powers use the tighter rule
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// Creates the interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is NaN.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            !lo.is_nan() && !hi.is_nan(),
            "interval bounds must not be NaN"
        );
        assert!(
            lo <= hi,
            "interval lower bound {lo} exceeds upper bound {hi}"
        );
        Interval { lo, hi }
    }

    /// The degenerate interval `[x, x]`.
    pub fn point(x: f64) -> Self {
        Interval::new(x, x)
    }

    /// The interval `[0, 0]`.
    pub fn zero() -> Self {
        Interval::point(0.0)
    }

    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Width `hi - lo`.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Midpoint.
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Returns true when `x` lies in the interval.
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Returns true when `other` is entirely contained in `self`.
    pub fn contains_interval(&self, other: &Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Returns true when the two intervals share at least one point.
    pub fn intersects(&self, other: &Interval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Intersection, if non-empty.
    pub fn intersection(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo <= hi {
            Some(Interval::new(lo, hi))
        } else {
            None
        }
    }

    /// Smallest interval containing both operands.
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Scales the interval by a scalar (handles negative scalars).
    pub fn scaled(&self, k: f64) -> Interval {
        if k >= 0.0 {
            Interval::new(self.lo * k, self.hi * k)
        } else {
            Interval::new(self.hi * k, self.lo * k)
        }
    }

    /// Integer power with the tight rule for even exponents.
    ///
    /// Delegates to [`Interval::powi`]; see there for the enclosure
    /// guarantees.
    pub fn pow(&self, n: u32) -> Interval {
        self.powi(n)
    }

    /// Integer power via the endpoint fast path: both bounds are raised
    /// with `f64::powi` (square-and-multiply, `O(log n)` multiplications)
    /// and the sign structure of the interval picks the bounds directly —
    /// the historic `pow` used the same endpoint rule but selected bounds
    /// through `min`/`max` comparisons; this restructuring is
    /// value-identical and exists so the sign cases are explicit and
    /// branch-cheap.  Neither is the `O(n)` chain of four-product interval
    /// multiplications a naive power would perform.
    ///
    /// The result is always **at least as tight** as repeated interval
    /// multiplication — monotone-branch analysis gives the exact range
    /// `{xⁿ : x ∈ [lo, hi]}` up to `f64::powi` rounding (each endpoint is
    /// within a few ulps of the true power), whereas the product chain
    /// compounds its over-approximation at every step, e.g.
    /// `[-1, 2]·[-1, 2] = [-2, 4]` while `[-1, 2].powi(2) = [0, 4]`.  The
    /// `prop_powi_tighter_than_repeated_mul` test pins this tightness
    /// relation against the naive baseline.
    ///
    /// The compiled evaluation kernels reproduce this rule bit-for-bit in
    /// their interval power tables — including the sign-split case where
    /// even powers of a zero-straddling interval bottom out at exactly
    /// zero; the `prop_interval_even_power_containment` proptest in the
    /// `compiled` module pins the compiled table fill to this rule.
    pub fn powi(&self, n: u32) -> Interval {
        match n {
            0 => Interval::point(1.0),
            1 => *self,
            _ => {
                let a = self.lo.powi(n as i32);
                let b = self.hi.powi(n as i32);
                if n.is_multiple_of(2) {
                    if self.lo >= 0.0 {
                        // Monotone increasing on [0, ∞).
                        Interval { lo: a, hi: b }
                    } else if self.hi <= 0.0 {
                        // Monotone decreasing on (-∞, 0].
                        Interval { lo: b, hi: a }
                    } else {
                        // Straddles zero: the minimum is attained at 0.
                        Interval {
                            lo: 0.0,
                            hi: a.max(b),
                        }
                    }
                } else {
                    // Odd powers are monotone increasing everywhere.
                    Interval { lo: a, hi: b }
                }
            }
        }
    }

    /// Maximum absolute value attained on the interval.
    pub fn abs_max(&self) -> f64 {
        self.lo.abs().max(self.hi.abs())
    }

    /// Splits the interval at its midpoint into `(left, right)`.
    pub fn bisect(&self) -> (Interval, Interval) {
        let m = self.midpoint();
        (Interval::new(self.lo, m), Interval::new(m, self.hi))
    }

    /// Returns true when the whole interval is `<= bound`.
    pub fn certainly_le(&self, bound: f64) -> bool {
        self.hi <= bound
    }

    /// Returns true when the whole interval is `>= bound`.
    pub fn certainly_ge(&self, bound: f64) -> bool {
        self.lo >= bound
    }
}

impl Default for Interval {
    fn default() -> Self {
        Interval::zero()
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

impl From<f64> for Interval {
    fn from(x: f64) -> Self {
        Interval::point(x)
    }
}

impl Add for Interval {
    type Output = Interval;
    fn add(self, rhs: Interval) -> Interval {
        Interval::new(self.lo + rhs.lo, self.hi + rhs.hi)
    }
}

impl Sub for Interval {
    type Output = Interval;
    fn sub(self, rhs: Interval) -> Interval {
        Interval::new(self.lo - rhs.hi, self.hi - rhs.lo)
    }
}

impl Mul for Interval {
    type Output = Interval;
    fn mul(self, rhs: Interval) -> Interval {
        let products = [
            self.lo * rhs.lo,
            self.lo * rhs.hi,
            self.hi * rhs.lo,
            self.hi * rhs.hi,
        ];
        let lo = products.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = products.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Interval::new(lo, hi)
    }
}

impl Neg for Interval {
    type Output = Interval;
    fn neg(self) -> Interval {
        Interval::new(-self.hi, -self.lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_accessors() {
        let a = Interval::new(-1.0, 3.0);
        assert_eq!(a.lo(), -1.0);
        assert_eq!(a.hi(), 3.0);
        assert_eq!(a.width(), 4.0);
        assert_eq!(a.midpoint(), 1.0);
        assert!(a.contains(0.0));
        assert!(!a.contains(3.5));
        assert_eq!(a.abs_max(), 3.0);
        assert_eq!(Interval::point(2.0).width(), 0.0);
        assert_eq!(Interval::zero(), Interval::default());
        assert_eq!(Interval::from(1.5), Interval::point(1.5));
        assert_eq!(format!("{}", Interval::new(0.0, 1.0)), "[0, 1]");
    }

    #[test]
    fn arithmetic_is_conservative() {
        let a = Interval::new(-1.0, 2.0);
        let b = Interval::new(3.0, 4.0);
        assert_eq!(a + b, Interval::new(2.0, 6.0));
        assert_eq!(a - b, Interval::new(-5.0, -1.0));
        assert_eq!(a * b, Interval::new(-4.0, 8.0));
        assert_eq!(-a, Interval::new(-2.0, 1.0));
        assert_eq!(a.scaled(-2.0), Interval::new(-4.0, 2.0));
        assert_eq!(a.scaled(0.5), Interval::new(-0.5, 1.0));
    }

    #[test]
    fn powers_use_even_rule() {
        let a = Interval::new(-2.0, 1.0);
        assert_eq!(a.pow(0), Interval::point(1.0));
        assert_eq!(a.pow(1), a);
        assert_eq!(a.pow(2), Interval::new(0.0, 4.0));
        assert_eq!(a.pow(3), Interval::new(-8.0, 1.0));
        let positive = Interval::new(1.0, 2.0);
        assert_eq!(positive.pow(2), Interval::new(1.0, 4.0));
        let negative = Interval::new(-3.0, -1.0);
        assert_eq!(negative.pow(2), Interval::new(1.0, 9.0));
    }

    #[test]
    fn set_operations() {
        let a = Interval::new(0.0, 2.0);
        let b = Interval::new(1.0, 3.0);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b), Some(Interval::new(1.0, 2.0)));
        assert_eq!(a.hull(&b), Interval::new(0.0, 3.0));
        assert!(a.contains_interval(&Interval::new(0.5, 1.5)));
        assert!(!a.contains_interval(&b));
        let far = Interval::new(5.0, 6.0);
        assert!(!a.intersects(&far));
        assert_eq!(a.intersection(&far), None);
        let (l, r) = a.bisect();
        assert_eq!(l, Interval::new(0.0, 1.0));
        assert_eq!(r, Interval::new(1.0, 2.0));
        assert!(a.certainly_le(2.0));
        assert!(!a.certainly_le(1.9));
        assert!(a.certainly_ge(0.0));
        assert!(!a.certainly_ge(0.1));
    }

    #[test]
    #[should_panic(expected = "exceeds upper bound")]
    fn invalid_interval_panics() {
        let _ = Interval::new(1.0, 0.0);
    }

    fn sample_in(i: Interval, t: f64) -> f64 {
        i.lo() + t * i.width()
    }

    /// The naive power a direct implementation would use (`n`-fold interval
    /// multiplication) — never what `pow` did, but the baseline that makes
    /// the endpoint rule's tightness guarantee concrete.
    fn pow_by_repeated_mul(i: Interval, n: u32) -> Interval {
        let mut result = Interval::point(1.0);
        for _ in 0..n {
            result = result * i;
        }
        result
    }

    #[test]
    fn powi_is_tighter_than_repeated_multiplication() {
        // The canonical case: squaring a zero-straddling interval.
        let a = Interval::new(-1.0, 2.0);
        assert_eq!(pow_by_repeated_mul(a, 2), Interval::new(-2.0, 4.0));
        assert_eq!(a.powi(2), Interval::new(0.0, 4.0));
        // pow delegates to powi.
        assert_eq!(a.pow(4), a.powi(4));
        assert_eq!(a.powi(0), Interval::point(1.0));
        assert_eq!(a.powi(1), a);
    }

    proptest! {
        /// powi is contained in (≤ a few ulps of) the old repeated-multiply
        /// enclosure: the fast path never loosens a bound the naive path
        /// certified.  The slack covers `f64::powi` computing endpoint
        /// powers by squaring, which can differ from the left-to-right
        /// product chain by a few ulps in either direction.
        #[test]
        fn prop_powi_tighter_than_repeated_mul(lo in -3.0..3.0f64, w in 0.0..4.0f64, n in 0u32..8) {
            let a = Interval::new(lo, lo + w);
            let fast = a.powi(n);
            let naive = pow_by_repeated_mul(a, n);
            let slack = 1e-12 * (1.0 + naive.abs_max());
            prop_assert!(fast.lo() >= naive.lo() - slack,
                         "fast lower bound {} looser than naive {}", fast.lo(), naive.lo());
            prop_assert!(fast.hi() <= naive.hi() + slack,
                         "fast upper bound {} looser than naive {}", fast.hi(), naive.hi());
        }

        /// powi remains a conservative enclosure of the true range.
        #[test]
        fn prop_powi_is_conservative(lo in -3.0..3.0f64, w in 0.0..4.0f64,
                                      t in 0.0..1.0f64, n in 0u32..8) {
            let a = Interval::new(lo, lo + w);
            let x = sample_in(a, t);
            prop_assert!(a.powi(n).contains(x.powi(n as i32)));
        }
    }

    proptest! {
        #[test]
        fn prop_add_is_conservative(alo in -10.0..10.0f64, aw in 0.0..5.0f64,
                                     blo in -10.0..10.0f64, bw in 0.0..5.0f64,
                                     ta in 0.0..1.0f64, tb in 0.0..1.0f64) {
            let a = Interval::new(alo, alo + aw);
            let b = Interval::new(blo, blo + bw);
            let x = sample_in(a, ta);
            let y = sample_in(b, tb);
            prop_assert!((a + b).contains(x + y));
            prop_assert!((a - b).contains(x - y));
            prop_assert!((a * b).contains(x * y));
        }

        #[test]
        fn prop_pow_is_conservative(lo in -5.0..5.0f64, w in 0.0..5.0f64,
                                     t in 0.0..1.0f64, n in 0u32..6) {
            let a = Interval::new(lo, lo + w);
            let x = sample_in(a, t);
            prop_assert!(a.pow(n).contains(x.powi(n as i32)));
        }

        #[test]
        fn prop_bisect_covers(lo in -5.0..5.0f64, w in 0.0..5.0f64, t in 0.0..1.0f64) {
            let a = Interval::new(lo, lo + w);
            let x = sample_in(a, t);
            let (l, r) = a.bisect();
            prop_assert!(l.contains(x) || r.contains(x));
            prop_assert!(a.contains_interval(&l) && a.contains_interval(&r));
        }
    }
}
