//! Sign-magnitude arbitrary-precision integers on `u32` limbs.
//!
//! This is the overflow fallback of [`Rat`](crate::Rat): a rational
//! lives inline as an `i64` fraction and reaches these integers only
//! when a reduced term outgrows `i64` (exact regrets of `f64`
//! profiles, payoffs with large dyadic denominators). Schoolbook
//! arithmetic throughout: such operands stay within a few hundred
//! bits, where the simple algorithms are both fast enough and easy to
//! audit. Division is binary long division (quadratic in the bit
//! length), gcd is Euclid on magnitudes.
//!
//! Invariants: limbs are little-endian with no high zero limb, and
//! zero is the empty limb vector with `neg == false` — so structural
//! equality is numeric equality.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};
use std::str::FromStr;

/// An arbitrary-precision signed integer.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigInt {
    /// Sign flag; never set when `mag` is empty (zero is `+0`).
    neg: bool,
    /// Little-endian base-2³² magnitude, no trailing (high) zero limbs.
    mag: Vec<u32>,
}

/// Strips high zero limbs so the no-leading-zeros invariant holds.
fn norm(mut mag: Vec<u32>) -> Vec<u32> {
    while mag.last() == Some(&0) {
        mag.pop();
    }
    mag
}

/// Magnitude comparison of two normalized limb vectors.
fn cmp_mag(a: &[u32], b: &[u32]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x.cmp(y);
        }
    }
    Ordering::Equal
}

fn add_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().max(b.len()) + 1);
    let mut carry = 0u64;
    for i in 0..a.len().max(b.len()) {
        let x = *a.get(i).unwrap_or(&0) as u64;
        let y = *b.get(i).unwrap_or(&0) as u64;
        let s = x + y + carry;
        out.push(s as u32);
        carry = s >> 32;
    }
    if carry != 0 {
        out.push(carry as u32);
    }
    out
}

/// `a - b` on magnitudes; requires `a >= b`.
fn sub_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
    debug_assert!(cmp_mag(a, b) != Ordering::Less);
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0i64;
    for (i, limb) in a.iter().enumerate() {
        let x = *limb as i64;
        let y = *b.get(i).unwrap_or(&0) as i64;
        let mut d = x - y - borrow;
        if d < 0 {
            d += 1 << 32;
            borrow = 1;
        } else {
            borrow = 0;
        }
        out.push(d as u32);
    }
    debug_assert_eq!(borrow, 0);
    norm(out)
}

fn mul_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u32; a.len() + b.len()];
    for (i, &x) in a.iter().enumerate() {
        let mut carry = 0u64;
        for (j, &y) in b.iter().enumerate() {
            let t = out[i + j] as u64 + x as u64 * y as u64 + carry;
            out[i + j] = t as u32;
            carry = t >> 32;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let t = out[k] as u64 + carry;
            out[k] = t as u32;
            carry = t >> 32;
            k += 1;
        }
    }
    norm(out)
}

fn bit_len(mag: &[u32]) -> usize {
    match mag.last() {
        None => 0,
        Some(top) => 32 * (mag.len() - 1) + (32 - top.leading_zeros() as usize),
    }
}

fn get_bit(mag: &[u32], i: usize) -> bool {
    mag.get(i / 32)
        .is_some_and(|limb| limb >> (i % 32) & 1 == 1)
}

/// Binary long division on magnitudes: `(n / d, n % d)`, `d != 0`.
fn div_rem_mag(n: &[u32], d: &[u32]) -> (Vec<u32>, Vec<u32>) {
    assert!(!d.is_empty(), "division by zero");
    if cmp_mag(n, d) == Ordering::Less {
        return (Vec::new(), n.to_vec());
    }
    let bits = bit_len(n);
    let mut q = vec![0u32; n.len()];
    let mut r: Vec<u32> = Vec::new();
    for i in (0..bits).rev() {
        // r = 2r + bit_i(n)
        let mut carry = u32::from(get_bit(n, i));
        for limb in r.iter_mut() {
            let t = (*limb as u64) << 1 | carry as u64;
            *limb = t as u32;
            carry = (t >> 32) as u32;
        }
        if carry != 0 {
            r.push(carry);
        }
        if cmp_mag(&r, d) != Ordering::Less {
            r = sub_mag(&r, d);
            q[i / 32] |= 1 << (i % 32);
        }
    }
    (norm(q), r)
}

impl BigInt {
    /// Zero.
    pub fn zero() -> Self {
        Self::default()
    }

    /// One.
    pub fn one() -> Self {
        Self::from(1i64)
    }

    /// `true` iff this is zero.
    pub fn is_zero(&self) -> bool {
        self.mag.is_empty()
    }

    /// `true` iff this is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.neg
    }

    /// Sign as `-1`, `0` or `1`.
    pub fn signum(&self) -> i32 {
        if self.mag.is_empty() {
            0
        } else if self.neg {
            -1
        } else {
            1
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Self {
        Self {
            neg: false,
            mag: self.mag.clone(),
        }
    }

    /// Number of bits in the magnitude (0 for zero).
    pub fn bits(&self) -> usize {
        bit_len(&self.mag)
    }

    /// `2^k`.
    pub fn pow2(k: usize) -> Self {
        let mut mag = vec![0u32; k / 32 + 1];
        mag[k / 32] = 1 << (k % 32);
        Self {
            neg: false,
            mag: norm(mag),
        }
    }

    /// `self << k` (multiplication by `2^k`).
    pub fn shl(&self, k: usize) -> Self {
        if self.is_zero() {
            return Self::zero();
        }
        let (limbs, bits) = (k / 32, k % 32);
        let mut mag = vec![0u32; limbs];
        let mut carry = 0u32;
        for &limb in &self.mag {
            if bits == 0 {
                mag.push(limb);
            } else {
                mag.push(limb << bits | carry);
                carry = limb >> (32 - bits);
            }
        }
        if carry != 0 {
            mag.push(carry);
        }
        Self {
            neg: self.neg,
            mag: norm(mag),
        }
    }

    /// Truncated division with remainder: `self = q * d + r` with
    /// `|r| < |d|` and `r` carrying the sign of `self` (truncation
    /// toward zero, like Rust's integer `/` and `%`).
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn div_rem(&self, d: &BigInt) -> (BigInt, BigInt) {
        let (q_mag, r_mag) = div_rem_mag(&self.mag, &d.mag);
        let q = BigInt {
            neg: !q_mag.is_empty() && (self.neg != d.neg),
            mag: q_mag,
        };
        let r = BigInt {
            neg: !r_mag.is_empty() && self.neg,
            mag: r_mag,
        };
        (q, r)
    }

    /// Greatest common divisor of the magnitudes (always ≥ 0;
    /// `gcd(0, 0) = 0`).
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        let mut a = self.mag.clone();
        let mut b = other.mag.clone();
        while !b.is_empty() {
            let (_, r) = div_rem_mag(&a, &b);
            a = b;
            b = r;
        }
        BigInt { neg: false, mag: a }
    }

    /// Nearest `f64` (magnitude rounded from the top 96 bits; values
    /// beyond `f64` range become `±inf`).
    pub fn to_f64(&self) -> f64 {
        let len = self.mag.len();
        if len == 0 {
            return 0.0;
        }
        let top = len.saturating_sub(3);
        let mut acc = 0.0f64;
        for &limb in self.mag[top..].iter().rev() {
            acc = acc * 4294967296.0 + limb as f64;
        }
        let scaled = acc * 2f64.powi(32 * top as i32);
        if self.neg {
            -scaled
        } else {
            scaled
        }
    }

    /// The magnitude as `u128` if it fits.
    pub(crate) fn to_u128_mag(&self) -> Option<u128> {
        if self.mag.len() > 4 {
            return None;
        }
        Some(
            self.mag
                .iter()
                .enumerate()
                .fold(0u128, |v, (i, &limb)| v | (limb as u128) << (32 * i)),
        )
    }

    /// The integer with sign `neg` and magnitude `mag`.
    pub(crate) fn from_u128_mag(neg: bool, mag: u128) -> Self {
        let mag = norm((0..4).map(|i| (mag >> (32 * i)) as u32).collect());
        Self {
            neg: neg && !mag.is_empty(),
            mag,
        }
    }

    /// Exact value as `i64` if it fits.
    pub fn to_i64(&self) -> Option<i64> {
        if self.mag.len() > 2 {
            return None;
        }
        let mut v: u64 = 0;
        for (i, &limb) in self.mag.iter().enumerate() {
            v |= (limb as u64) << (32 * i);
        }
        if self.neg {
            if v > 1 << 63 {
                None
            } else {
                Some((v as i64).wrapping_neg())
            }
        } else {
            i64::try_from(v).ok()
        }
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> Self {
        let neg = v < 0;
        let u = v.unsigned_abs();
        Self {
            neg: neg && u != 0,
            mag: norm(vec![u as u32, (u >> 32) as u32]),
        }
    }
}

impl From<u64> for BigInt {
    fn from(u: u64) -> Self {
        Self {
            neg: false,
            mag: norm(vec![u as u32, (u >> 32) as u32]),
        }
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.neg, other.neg) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => cmp_mag(&self.mag, &other.mag),
            (true, true) => cmp_mag(&other.mag, &self.mag),
        }
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        BigInt {
            neg: !self.mag.is_empty() && !self.neg,
            mag: self.mag.clone(),
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        -&self
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        if self.neg == rhs.neg {
            return BigInt {
                neg: self.neg,
                mag: add_mag(&self.mag, &rhs.mag),
            };
        }
        match cmp_mag(&self.mag, &rhs.mag) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => BigInt {
                neg: self.neg,
                mag: sub_mag(&self.mag, &rhs.mag),
            },
            Ordering::Less => BigInt {
                neg: rhs.neg,
                mag: sub_mag(&rhs.mag, &self.mag),
            },
        }
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        self + &(-rhs)
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &BigInt) -> BigInt {
        let mag = mul_mag(&self.mag, &rhs.mag);
        BigInt {
            neg: !mag.is_empty() && (self.neg != rhs.neg),
            mag,
        }
    }
}

macro_rules! owned_ops {
    ($($trait:ident :: $method:ident),*) => {$(
        impl $trait for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                $trait::$method(&self, &rhs)
            }
        }
    )*};
}
owned_ops!(Add::add, Sub::sub, Mul::mul);

impl FromStr for BigInt {
    type Err = String;

    /// Parses an optionally signed decimal integer.
    fn from_str(s: &str) -> Result<Self, String> {
        let (neg, digits) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if digits.is_empty() {
            return Err(format!("empty integer literal {s:?}"));
        }
        let mut mag: Vec<u32> = Vec::new();
        for c in digits.chars() {
            let d = c
                .to_digit(10)
                .ok_or_else(|| format!("invalid digit {c:?} in integer literal {s:?}"))?;
            // mag = mag * 10 + d
            let mut carry = d as u64;
            for limb in mag.iter_mut() {
                let t = *limb as u64 * 10 + carry;
                *limb = t as u32;
                carry = t >> 32;
            }
            if carry != 0 {
                mag.push(carry as u32);
            }
        }
        let mag = norm(mag);
        Ok(Self {
            neg: neg && !mag.is_empty(),
            mag,
        })
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Peel 9 decimal digits per pass via single-limb division.
        let mut mag = self.mag.clone();
        let mut chunks: Vec<u32> = Vec::new();
        while !mag.is_empty() {
            let mut rem = 0u64;
            for limb in mag.iter_mut().rev() {
                let cur = rem << 32 | *limb as u64;
                *limb = (cur / 1_000_000_000) as u32;
                rem = cur % 1_000_000_000;
            }
            chunks.push(rem as u32);
            mag = norm(mag);
        }
        if self.neg {
            write!(f, "-")?;
        }
        write!(f, "{}", chunks.last().expect("nonzero has chunks"))?;
        for chunk in chunks.iter().rev().skip(1) {
            write!(f, "{chunk:09}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(v: i64) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn small_arithmetic_matches_i64() {
        for x in [-7i64, -1, 0, 1, 3, 1 << 40] {
            for y in [-5i64, 0, 2, 9, (1 << 40) + 17] {
                assert_eq!((&b(x) + &b(y)).to_i64(), Some(x + y), "{x}+{y}");
                assert_eq!((&b(x) - &b(y)).to_i64(), Some(x - y), "{x}-{y}");
                let prod = (x as i128) * (y as i128); // may exceed i64
                assert_eq!((&b(x) * &b(y)).to_string(), prod.to_string(), "{x}*{y}");
                if y != 0 {
                    let (q, r) = b(x).div_rem(&b(y));
                    assert_eq!(q.to_i64(), Some(x / y), "{x}/{y}");
                    assert_eq!(r.to_i64(), Some(x % y), "{x}%{y}");
                }
            }
        }
    }

    #[test]
    fn multiplication_grows_past_native_width() {
        let big = b(i64::MAX);
        let sq = &big * &big;
        assert_eq!(sq.to_i64(), None);
        assert_eq!(sq.to_string(), "85070591730234615847396907784232501249");
        let (q, r) = sq.div_rem(&big);
        assert_eq!(q, big);
        assert!(r.is_zero());
    }

    #[test]
    fn display_parse_round_trip() {
        for s in [
            "0",
            "-1",
            "999999999",
            "1000000000",
            "-340282366920938463463374607431768211456",
            "12345678901234567890123456789012345678901234567890",
        ] {
            let v: BigInt = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
        assert_eq!("-0".parse::<BigInt>().unwrap(), BigInt::zero());
        assert_eq!("+17".parse::<BigInt>().unwrap(), b(17));
        assert!("".parse::<BigInt>().is_err());
        assert!("12x".parse::<BigInt>().is_err());
        assert!("-".parse::<BigInt>().is_err());
    }

    #[test]
    fn ordering_is_signed() {
        let mut v = vec![b(3), b(-10), b(0), b(10), b(-2)];
        v.sort();
        assert_eq!(v, vec![b(-10), b(-2), b(0), b(3), b(10)]);
    }

    #[test]
    fn gcd_of_magnitudes() {
        assert_eq!(b(12).gcd(&b(-18)), b(6));
        assert_eq!(b(0).gcd(&b(5)), b(5));
        assert_eq!(b(5).gcd(&b(0)), b(5));
        assert_eq!(b(0).gcd(&b(0)), b(0));
        let a = b(2 * 3 * 5 * 7 * 11);
        let c = b(3 * 7 * 13);
        assert_eq!(a.gcd(&c), b(21));
    }

    #[test]
    fn pow2_and_shl() {
        assert_eq!(BigInt::pow2(0), b(1));
        assert_eq!(BigInt::pow2(40).to_i64(), Some(1 << 40));
        assert_eq!(b(5).shl(3), b(40));
        assert_eq!(b(-5).shl(33).to_i64(), Some(-5 * (1i64 << 33)));
        assert_eq!(BigInt::zero().shl(100), BigInt::zero());
        assert_eq!(BigInt::pow2(200).bits(), 201);
    }

    #[test]
    fn to_f64_small_values_exact() {
        for v in [-(1i64 << 52), -97, 0, 1, 1 << 52] {
            assert_eq!(b(v).to_f64(), v as f64);
        }
        let huge: BigInt = "1000000000000000000000000000000".parse().unwrap();
        let f = huge.to_f64();
        assert!((f - 1e30).abs() / 1e30 < 1e-9);
    }

    #[test]
    fn truncated_division_signs() {
        assert_eq!(b(-7).div_rem(&b(2)), (b(-3), b(-1)));
        assert_eq!(b(7).div_rem(&b(-2)), (b(-3), b(1)));
        assert_eq!(b(-7).div_rem(&b(-2)), (b(3), b(-1)));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = b(1).div_rem(&BigInt::zero());
    }
}
