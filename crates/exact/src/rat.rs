//! Exact rationals: an inline `i64` fraction, promoted to a pair of
//! [`BigInt`]s only when a reduced term outgrows `i64`.
//!
//! Every value the exact oracle meets on integer-payoff games — payoff
//! differences, indifference-system solutions, simplex tableau entries
//! — has small terms, so arithmetic on two inline values runs in
//! `i128` (products of two `i64` terms cannot overflow it) with a
//! `u128` binary gcd, and allocates nothing. A result whose reduced
//! numerator or denominator does not fit `i64` is promoted to the
//! big-int form; a big-int result that fits is demoted again, so the
//! representation of a value is unique.

use crate::bigint::BigInt;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};
use std::str::FromStr;

/// An exact rational number.
///
/// Canonical-form invariants, restored by every constructor and
/// operation: the denominator is strictly positive, numerator and
/// denominator are coprime, and zero is `0/1` — and a value is held
/// inline exactly when both reduced terms lie in `±i64::MAX` (so
/// `i64::MIN` is never inline and negation never overflows). The
/// representation is therefore unique: structural equality and the
/// derived hash are numeric equality.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rat(Repr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// `num / den`, both terms within `±i64::MAX`.
    Small(i64, i64),
    /// `num / den` with at least one term outside `±i64::MAX`.
    Big(BigInt, BigInt),
}

use Repr::{Big, Small};

/// Binary (Stein) gcd; `gcd(0, b) = b`.
fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

impl Rat {
    /// Zero (`0/1`).
    pub fn zero() -> Self {
        Self(Small(0, 1))
    }

    /// One (`1/1`).
    pub fn one() -> Self {
        Self(Small(1, 1))
    }

    /// The canonical rational with sign `neg` and magnitude
    /// `num / den`; `den` must be nonzero.
    fn from_mags(neg: bool, num: u128, den: u128) -> Self {
        debug_assert!(den != 0);
        if num == 0 {
            return Self::zero();
        }
        let g = gcd_u128(num, den);
        let (num, den) = if g == 1 {
            (num, den)
        } else {
            (num / g, den / g)
        };
        const MAX: u128 = i64::MAX as u128;
        if num <= MAX && den <= MAX {
            let n = num as i64;
            Self(Small(if neg { -n } else { n }, den as i64))
        } else {
            Self(Big(
                BigInt::from_u128_mag(neg, num),
                BigInt::from_u128_mag(false, den),
            ))
        }
    }

    /// `num / den` in canonical form; `den` must be nonzero.
    pub(crate) fn from_i128(num: i128, den: i128) -> Self {
        Self::from_mags(
            (num < 0) != (den < 0),
            num.unsigned_abs(),
            den.unsigned_abs(),
        )
    }

    /// `num / den` in canonical form.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn new(num: BigInt, den: BigInt) -> Self {
        assert!(!den.is_zero(), "rational with zero denominator");
        let neg = num.is_negative() != den.is_negative();
        if let (Some(n), Some(d)) = (num.to_u128_mag(), den.to_u128_mag()) {
            return Self::from_mags(neg, n, d);
        }
        let (num, den) = if den.is_negative() {
            (-num, -den)
        } else {
            (num, den)
        };
        let g = num.gcd(&den);
        if g.is_zero() {
            return Self::zero();
        }
        let (num, _) = num.div_rem(&g);
        let (den, _) = den.div_rem(&g);
        match (num.to_i64(), den.to_i64()) {
            (Some(n), Some(d)) if n != i64::MIN => Self(Small(n, d)),
            _ => Self(Big(num, den)),
        }
    }

    /// The exact integer `v`.
    pub fn from_int(v: i64) -> Self {
        Self::from_i128(v.into(), 1)
    }

    /// `a / b` as a rational.
    ///
    /// # Panics
    ///
    /// Panics if `b` is zero.
    pub fn from_ratio(a: i64, b: i64) -> Self {
        assert!(b != 0, "rational with zero denominator");
        Self::from_i128(a.into(), b.into())
    }

    /// The **exact** value of a finite `f64` — every finite float is a
    /// dyadic rational `m · 2^e`, so no rounding is involved: the
    /// conversion satisfies `Rat::from_f64(x).unwrap().to_f64() == x`.
    /// Returns `None` for NaN and infinities.
    pub fn from_f64(x: f64) -> Option<Self> {
        if !x.is_finite() {
            return None;
        }
        let bits = x.to_bits();
        let neg = bits >> 63 == 1;
        let exp_field = (bits >> 52 & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        // Normal: (2^52 + frac) * 2^(exp-1075); subnormal: frac * 2^-1074.
        let (mantissa, exp) = if exp_field == 0 {
            (frac, -1074i64)
        } else {
            (frac | 1 << 52, exp_field - 1075)
        };
        if mantissa == 0 {
            return Some(Self::zero());
        }
        let mag_bits = 64 - mantissa.leading_zeros() as i64;
        Some(if exp >= 0 {
            if mag_bits + exp <= 63 {
                Self::from_mags(neg, u128::from(mantissa) << exp, 1)
            } else {
                let m = BigInt::from(mantissa).shl(exp as usize);
                Self(Big(if neg { -m } else { m }, BigInt::one()))
            }
        } else {
            // Cancel the common powers of two: the odd part of the
            // mantissa over what is left of 2^-exp.
            let tz = i64::from(mantissa.trailing_zeros()).min(-exp);
            let (m, e) = (mantissa >> tz, -exp - tz);
            if e <= 62 {
                Self::from_mags(neg, m.into(), 1 << e)
            } else {
                let m = BigInt::from(m);
                Self(Big(if neg { -m } else { m }, BigInt::pow2(e as usize)))
            }
        })
    }

    /// Both terms as big integers (the cross-representation slow path).
    fn big_parts(&self) -> (BigInt, BigInt) {
        match &self.0 {
            Small(n, d) => (BigInt::from(*n), BigInt::from(*d)),
            Big(n, d) => (n.clone(), d.clone()),
        }
    }

    /// Numerator (canonical form).
    pub fn numer(&self) -> BigInt {
        self.big_parts().0
    }

    /// Denominator (canonical form, always positive).
    pub fn denom(&self) -> BigInt {
        self.big_parts().1
    }

    /// `true` iff zero.
    pub fn is_zero(&self) -> bool {
        self.signum() == 0
    }

    /// `true` iff strictly negative.
    pub fn is_negative(&self) -> bool {
        self.signum() < 0
    }

    /// `true` iff strictly positive.
    pub fn is_positive(&self) -> bool {
        self.signum() > 0
    }

    /// Sign as `-1`, `0` or `1`.
    pub fn signum(&self) -> i32 {
        match &self.0 {
            Small(n, _) => n.signum() as i32,
            Big(n, _) => n.signum(),
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Self {
        match &self.0 {
            Small(n, d) => Self(Small(n.abs(), *d)),
            Big(n, d) => Self(Big(n.abs(), d.clone())),
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    pub fn recip(&self) -> Self {
        assert!(!self.is_zero(), "reciprocal of zero");
        match &self.0 {
            Small(n, d) if *n < 0 => Self(Small(-d, -n)),
            Small(n, d) => Self(Small(*d, *n)),
            Big(n, d) if n.is_negative() => Self(Big(-d, -n)),
            Big(n, d) => Self(Big(d.clone(), n.clone())),
        }
    }

    /// Nearest `f64`. Exact whenever both numerator and denominator
    /// convert exactly (in particular for all values round-tripped
    /// through [`Rat::from_f64`] that still fit the format); very large
    /// magnitudes scale through a power-of-two split to avoid `inf/inf`.
    pub fn to_f64(&self) -> f64 {
        let (num, den) = match &self.0 {
            // Each conversion rounds once, as `BigInt::to_f64` does.
            Small(n, d) => return *n as f64 / *d as f64,
            Big(n, d) => (n, d),
        };
        let nb = num.bits() as i32;
        let db = den.bits() as i32;
        if nb <= 900 && db <= 900 {
            return num.to_f64() / den.to_f64();
        }
        // Shift both so the f64 conversions stay finite, then rescale.
        let shift_n = (nb - 512).max(0) as usize;
        let shift_d = (db - 512).max(0) as usize;
        let (n, _) = num.div_rem(&BigInt::pow2(shift_n));
        let (d, _) = den.div_rem(&BigInt::pow2(shift_d));
        (n.to_f64() / d.to_f64()) * 2f64.powi(shift_n as i32 - shift_d as i32)
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    /// Total order by cross-multiplication (denominators are positive,
    /// so the comparison direction is preserved).
    fn cmp(&self, other: &Self) -> Ordering {
        if let (Small(a, b), Small(c, d)) = (&self.0, &other.0) {
            return (i128::from(*a) * i128::from(*d)).cmp(&(i128::from(*c) * i128::from(*b)));
        }
        let (a, b) = self.big_parts();
        let (c, d) = other.big_parts();
        (&a * &d).cmp(&(&c * &b))
    }
}

impl Neg for &Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        match &self.0 {
            Small(n, d) => Rat(Small(-n, *d)),
            Big(n, d) => Rat(Big(-n, d.clone())),
        }
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        -&self
    }
}

/// Applies `small` to two inline operands widened to `i128` (whose
/// products cannot overflow), or `big` to both operands' big-int terms.
fn binary(
    x: &Rat,
    y: &Rat,
    small: impl FnOnce(i128, i128, i128, i128) -> Rat,
    big: impl FnOnce(BigInt, BigInt, BigInt, BigInt) -> Rat,
) -> Rat {
    if let (Small(a, b), Small(c, d)) = (&x.0, &y.0) {
        return small((*a).into(), (*b).into(), (*c).into(), (*d).into());
    }
    let (a, b) = x.big_parts();
    let (c, d) = y.big_parts();
    big(a, b, c, d)
}

impl Add for &Rat {
    type Output = Rat;
    fn add(self, rhs: &Rat) -> Rat {
        binary(
            self,
            rhs,
            |a, b, c, d| Rat::from_i128(a * d + c * b, b * d),
            |a, b, c, d| Rat::new(&(&a * &d) + &(&c * &b), &b * &d),
        )
    }
}

impl Sub for &Rat {
    type Output = Rat;
    fn sub(self, rhs: &Rat) -> Rat {
        binary(
            self,
            rhs,
            |a, b, c, d| Rat::from_i128(a * d - c * b, b * d),
            |a, b, c, d| Rat::new(&(&a * &d) - &(&c * &b), &b * &d),
        )
    }
}

impl Mul for &Rat {
    type Output = Rat;
    fn mul(self, rhs: &Rat) -> Rat {
        binary(
            self,
            rhs,
            |a, b, c, d| Rat::from_i128(a * c, b * d),
            |a, b, c, d| Rat::new(&a * &c, &b * &d),
        )
    }
}

impl Div for &Rat {
    type Output = Rat;
    fn div(self, rhs: &Rat) -> Rat {
        // a/b ÷ c/d = ad / bc, renormalized for sign and gcd.
        assert!(!rhs.is_zero(), "rational with zero denominator");
        binary(
            self,
            rhs,
            |a, b, c, d| Rat::from_i128(a * d, b * c),
            |a, b, c, d| Rat::new(&a * &d, &b * &c),
        )
    }
}

macro_rules! owned_ops {
    ($($trait:ident :: $method:ident),*) => {$(
        impl $trait for Rat {
            type Output = Rat;
            fn $method(self, rhs: Rat) -> Rat {
                $trait::$method(&self, &rhs)
            }
        }
    )*};
}
owned_ops!(Add::add, Sub::sub, Mul::mul, Div::div);

impl FromStr for Rat {
    type Err = String;

    /// Parses `"a"` or `"a/b"` with optionally signed decimal parts.
    fn from_str(s: &str) -> Result<Self, String> {
        match s.split_once('/') {
            None => Ok(Self::new(s.parse::<BigInt>()?, BigInt::one())),
            Some((a, b)) => {
                let den: BigInt = b.parse()?;
                if den.is_zero() {
                    return Err(format!("zero denominator in rational literal {s:?}"));
                }
                Ok(Self::new(a.parse()?, den))
            }
        }
    }
}

impl fmt::Display for Rat {
    /// Canonical form: `"a"` for integers, `"a/b"` otherwise — so
    /// `Display` → `FromStr` is the identity.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Small(n, 1) => write!(f, "{n}"),
            Small(n, d) => write!(f, "{n}/{d}"),
            Big(n, d) if *d == BigInt::one() => write!(f, "{n}"),
            Big(n, d) => write!(f, "{n}/{d}"),
        }
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rat({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: i64, b: i64) -> Rat {
        Rat::from_ratio(a, b)
    }

    #[test]
    fn canonical_form() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(0, -7), Rat::zero());
        assert_eq!(r(6, 3).to_string(), "2");
        assert_eq!(r(-10, 4).to_string(), "-5/2");
    }

    #[test]
    fn field_arithmetic() {
        assert_eq!(&r(1, 3) + &r(1, 6), r(1, 2));
        assert_eq!(&r(1, 3) - &r(1, 2), r(-1, 6));
        assert_eq!(&r(2, 3) * &r(9, 4), r(3, 2));
        assert_eq!(&r(2, 3) / &r(4, 9), r(3, 2));
        assert_eq!(r(-5, 7).recip(), r(-7, 5));
        assert_eq!(&r(3, 4) + &(-&r(3, 4)), Rat::zero());
    }

    #[test]
    fn ordering_crosses_denominators() {
        let mut v = vec![r(1, 2), r(-3, 2), r(0, 1), r(2, 3), r(-1, 3)];
        v.sort();
        assert_eq!(v, vec![r(-3, 2), r(-1, 3), Rat::zero(), r(1, 2), r(2, 3)]);
    }

    #[test]
    fn f64_round_trip_is_exact() {
        for x in [
            0.0,
            -0.0,
            1.0,
            0.5,
            -0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0, // subnormal
            f64::MAX,
            -123456.789,
        ] {
            let q = Rat::from_f64(x).unwrap();
            assert_eq!(q.to_f64(), x, "round trip failed for {x}");
        }
        assert_eq!(Rat::from_f64(0.25).unwrap(), r(1, 4));
        assert_eq!(Rat::from_f64(-3.0).unwrap(), r(-3, 1));
        assert!(Rat::from_f64(f64::NAN).is_none());
        assert!(Rat::from_f64(f64::INFINITY).is_none());
    }

    #[test]
    fn to_f64_handles_huge_components() {
        let big = BigInt::pow2(2000);
        let q = Rat::new(big.clone(), &big * &BigInt::from(3i64));
        let f = q.to_f64();
        assert!((f - 1.0 / 3.0).abs() < 1e-12, "got {f}");
        let huge = Rat::new(BigInt::pow2(3000), BigInt::one());
        assert_eq!(huge.to_f64(), f64::INFINITY);
    }

    #[test]
    fn parse_display_round_trip() {
        for s in ["0", "-5", "1/2", "-7/3", "123456789012345678901/2"] {
            let q: Rat = s.parse().unwrap();
            assert_eq!(q.to_string(), s);
        }
        assert_eq!("4/8".parse::<Rat>().unwrap().to_string(), "1/2");
        assert_eq!("6/-4".parse::<Rat>().unwrap().to_string(), "-3/2");
        assert!("1/0".parse::<Rat>().is_err());
        assert!("a/2".parse::<Rat>().is_err());
        assert!("".parse::<Rat>().is_err());
    }

    fn is_inline(q: &Rat) -> bool {
        matches!(q.0, Small(..))
    }

    /// `q` rebuilt from terms scaled far past `u128`, which takes the
    /// big-int gcd path of [`Rat::new`].
    fn via_big_gcd(q: &Rat) -> Rat {
        let k = BigInt::pow2(200) * BigInt::from(3i64);
        Rat::new(&q.numer() * &k, &q.denom() * &k)
    }

    #[test]
    fn inline_range_is_plus_minus_i64_max() {
        for q in [
            Rat::from_int(i64::MAX),
            Rat::from_int(-i64::MAX),
            r(1, i64::MAX),
            r(-1, i64::MAX),
            r(i64::MAX - 1, i64::MAX),
        ] {
            assert!(is_inline(&q), "{q} fits inline");
            assert_eq!(via_big_gcd(&q), q);
            assert!(is_inline(&via_big_gcd(&q)), "{q} is demoted again");
        }
        let min = Rat::from_int(i64::MIN);
        assert!(!is_inline(&min), "i64::MIN is never inline");
        assert_eq!(Rat::new(BigInt::from(i64::MIN), BigInt::one()), min);
        assert_eq!(via_big_gcd(&min), min);
        assert!(!is_inline(&-&min) && !is_inline(&r(1, i64::MIN)));
        assert_eq!(&min + &Rat::one(), Rat::from_int(i64::MIN + 1));
        assert!(is_inline(&(&min + &Rat::one())));
        assert_eq!(r(i64::MIN, -1).to_string(), "9223372036854775808");
        // A sum of inline values that outgrows i64 is promoted, and
        // promoted values cancelling back into range are demoted.
        let big = &Rat::from_int(i64::MAX) + &Rat::one();
        assert!(!is_inline(&big));
        assert_eq!(&big - &Rat::one(), Rat::from_int(i64::MAX));
        assert!(is_inline(&(&big - &Rat::one())));
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(BigInt::one(), BigInt::zero());
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn zero_reciprocal_panics() {
        let _ = Rat::zero().recip();
    }
}
