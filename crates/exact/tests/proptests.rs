//! Property-based tests for the exact arithmetic stack: `Rat` must be
//! an ordered field in the literal algebraic sense (laws hold as exact
//! equalities, not up to tolerance), `BigInt`/`Rat` canonical forms
//! must be unique, and the decimal text representation must
//! round-trip. These are the laws every downstream exactness claim
//! (Gauss rank detection, simplex feasibility, oracle refutation)
//! silently leans on.

use cnash_exact::linalg::{solve, solve_integer, LinSolve};
use cnash_exact::simplex::Relation;
use cnash_exact::{feasible_point, feasible_point_integer, BigInt, Constraint, Rat};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// An integer within 3 of ±2^31, ±2^62, ±`i64::MAX` or ±2^63 (so
/// `i64::MIN` itself too): the edges where `Rat`'s inline `i64` form
/// meets its big-int form.
fn arb_edge_int() -> impl Strategy<Value = BigInt> {
    (
        prop::sample::select(vec![1u64 << 31, 1 << 62, i64::MAX as u64, 1 << 63]),
        -3i64..=3,
        prop::bool::ANY,
    )
        .prop_map(|(base, offset, neg)| {
            let mag = BigInt::from(base) + BigInt::from(offset);
            if neg {
                -mag
            } else {
                mag
            }
        })
}

/// An arbitrary rational. Half the draws have numerator and
/// denominator well past the single-limb range, so limb-carry paths
/// are exercised; the other half put one or both terms on an
/// inline/big-int edge ([`arb_edge_int`]), so results cross between
/// the two forms in both directions.
fn arb_rat() -> impl Strategy<Value = Rat> {
    (
        -3_000_000_000i64..3_000_000_000,
        1i64..3_000_000_000,
        arb_edge_int(),
        arb_edge_int(),
        0u8..6,
    )
        .prop_map(|(n, d, edge_n, edge_d, form)| {
            let (n, d) = (BigInt::from(n), BigInt::from(d));
            match form {
                0..=2 => Rat::new(n, d),
                3 => Rat::new(edge_n, d),
                4 => Rat::new(n, edge_d),
                _ => Rat::new(edge_n, edge_d),
            }
        })
}

fn hash_of(r: &Rat) -> u64 {
    let mut h = DefaultHasher::new();
    r.hash(&mut h);
    h.finish()
}

/// `r` is in canonical form and equals `num / den`, checked by
/// cross-multiplication on big integers.
fn is_exactly(r: &Rat, num: &BigInt, den: &BigInt) -> bool {
    let (p, q) = (r.numer(), r.denom());
    let coprime = p.gcd(&q) == BigInt::one();
    q.signum() > 0 && coprime && &p * den == &q * num
}

/// The decimal form of an `i128`, as a big integer.
fn big(v: i128) -> BigInt {
    v.to_string().parse().expect("decimal integer")
}

/// The fraction-free integer solve of `a · x = b` classifies the
/// system as the `Rat` Gauss–Jordan reference does, with the same
/// solution — or reports overflow, which callers answer by falling
/// back to the reference.
fn integer_solve_matches_reference(a: &[Vec<i64>], b: &[i64]) -> Result<bool, String> {
    let rat = |v: &i64| Rat::from_int(*v);
    let a_rat: Vec<Vec<Rat>> = a.iter().map(|row| row.iter().map(rat).collect()).collect();
    let b_rat: Vec<Rat> = b.iter().map(rat).collect();
    let reference = solve(&a_rat, &b_rat);
    let Some((numers, det)) = solve_integer(a, b) else {
        return Ok(false);
    };
    match reference {
        LinSolve::Singular => prop_assert_eq!(det, 0),
        LinSolve::Unique(x) => {
            prop_assert!(det != 0, "unique system reported singular");
            let got: Vec<Rat> = numers.iter().map(|&y| Rat::new(big(y), big(det))).collect();
            prop_assert_eq!(got, x);
        }
    }
    Ok(true)
}

/// A `k × k` matrix from the first `k²` of `entries`, with row 0
/// optionally replaced by a duplicate of, or an integer combination
/// of, two other rows, which makes it exactly singular.
fn square(k: usize, entries: &[i64], singular: u8, c: (i64, i64)) -> Vec<Vec<i64>> {
    let mut a: Vec<Vec<i64>> = entries.chunks(6).take(k).map(|r| r[..k].to_vec()).collect();
    match (singular, k) {
        (1, 2..) => a[0] = a[k - 1].clone(),
        (2, 3..) => {
            a[0] = (0..k).map(|j| c.0 * a[1][j] + c.1 * a[k - 1][j]).collect();
        }
        _ => {}
    }
    a
}

/// An integer linear program over `vars` nonnegative variables: the
/// first `rows` of up to five rows, each with coefficients from the
/// next `vars` of `entries`, relation `=`, `≤` or `≥` by `rels` and
/// right-hand side from `rhs` (either sign).
fn program(
    vars: usize,
    rows: usize,
    entries: &[i64],
    rels: &[u8],
    rhs: &[i64],
) -> Vec<Constraint<i64>> {
    (0..rows)
        .map(|i| Constraint {
            coeffs: entries[i * 4..i * 4 + vars].to_vec(),
            rel: [Relation::Eq, Relation::Le, Relation::Ge][usize::from(rels[i])],
            rhs: rhs[i],
        })
        .collect()
}

/// The fraction-free simplex returns exactly the `Rat` simplex's
/// answer — the same vertex, or the same `None` — or reports
/// overflow, which callers answer by asking the `Rat` simplex. Returns
/// whether it overflowed. A returned vertex is also checked against
/// every row by substitution.
fn integer_simplex_matches_reference(
    vars: usize,
    program: &[Constraint<i64>],
) -> Result<bool, String> {
    let rat: Vec<Constraint> = program
        .iter()
        .map(|c| Constraint {
            coeffs: c.coeffs.iter().map(|&v| Rat::from_int(v)).collect(),
            rel: c.rel,
            rhs: Rat::from_int(c.rhs),
        })
        .collect();
    let reference = feasible_point(vars, &rat);
    let Ok(point) = feasible_point_integer(vars, program) else {
        return Ok(true);
    };
    prop_assert_eq!(&point, &reference);
    if let Some(x) = point {
        prop_assert!(x.iter().all(|v| !v.is_negative()));
        for c in &rat {
            let lhs = c
                .coeffs
                .iter()
                .zip(&x)
                .fold(Rat::zero(), |acc, (a, v)| &acc + &(a * v));
            let holds = match c.rel {
                Relation::Eq => lhs == c.rhs,
                Relation::Le => lhs <= c.rhs,
                Relation::Ge => lhs >= c.rhs,
            };
            prop_assert!(holds, "vertex {:?} violates {:?}", x, c);
        }
    }
    Ok(false)
}

/// A small rational whose `f64` image is exact (numerator and
/// denominator products stay far below 2^53).
fn arb_small_rat() -> impl Strategy<Value = Rat> {
    (-10_000i64..10_000, 1i64..10_000).prop_map(|(n, d)| Rat::from_ratio(n, d))
}

proptest! {
    /// Addition and multiplication are associative and commutative,
    /// and multiplication distributes over addition — exactly.
    #[test]
    fn field_laws_hold_exactly(a in arb_rat(), b in arb_rat(), c in arb_rat()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    /// Additive and multiplicative identities and inverses: `a − a = 0`
    /// and `a · a⁻¹ = 1` as exact equalities.
    #[test]
    fn inverses_cancel_exactly(a in arb_rat()) {
        prop_assert_eq!(&a + &Rat::zero(), a.clone());
        prop_assert_eq!(&a * &Rat::one(), a.clone());
        prop_assert_eq!(&a - &a, Rat::zero());
        if !a.is_zero() {
            prop_assert_eq!(&a * &a.recip(), Rat::one());
            prop_assert_eq!(&a / &a, Rat::one());
        }
    }

    /// Canonical form is unique: any numerator/denominator pair
    /// describing the same value normalizes to coprime terms with a
    /// positive denominator, so structural equality is value equality.
    #[test]
    fn gcd_normalization_is_canonical(
        n in -100_000i64..100_000,
        d in 1i64..100_000,
        scale in 1i64..10_000,
        sign in prop::sample::select(vec![1i64, -1]),
    ) {
        let plain = Rat::from_ratio(n, d);
        let scaled = Rat::new(
            BigInt::from(n * sign) * BigInt::from(scale),
            BigInt::from(d * sign) * BigInt::from(scale),
        );
        prop_assert_eq!(&plain, &scaled);
        // Canonical invariants: den > 0 and gcd(num, den) = 1.
        prop_assert!(!scaled.denom().is_negative() && !scaled.denom().is_zero());
        let g = scaled.numer().gcd(&scaled.denom());
        prop_assert!(g == BigInt::one() || scaled.numer().is_zero());
    }

    /// The order is total and transitive, and is exactly the order of
    /// the rational values (cross-multiplication).
    #[test]
    fn order_is_total_and_transitive(a in arb_rat(), b in arb_rat(), c in arb_rat()) {
        let mut v = [a.clone(), b.clone(), c.clone()];
        v.sort();
        prop_assert!(v[0] <= v[1] && v[1] <= v[2]);
        prop_assert!(v[0] <= v[2], "transitivity through the middle element");
        // Antisymmetry: mutual <= means equality.
        if a <= b && b <= a {
            prop_assert_eq!(&a, &b);
        }
        // Compatibility with addition: a <= b implies a + c <= b + c.
        if a <= b {
            prop_assert!(&a + &c <= &b + &c);
        }
    }

    /// On small values the exact order agrees with the `f64` order of
    /// the converted values (conversion is exact in this range, so the
    /// orders must coincide, not merely approximate each other).
    #[test]
    fn order_agrees_with_f64_on_small_values(a in arb_small_rat(), b in arb_small_rat()) {
        let (fa, fb) = (a.to_f64(), b.to_f64());
        prop_assert_eq!(a.cmp(&b), fa.partial_cmp(&fb).expect("finite"));
    }

    /// Every finite f64 converts exactly and converts back to itself.
    #[test]
    fn f64_round_trip(x in -1e12f64..1e12) {
        let q = Rat::from_f64(x).expect("finite");
        prop_assert_eq!(q.to_f64(), x);
    }

    /// `Display` → `FromStr` is the identity, and arithmetic commutes
    /// with the round-trip: parsing the printed operands and re-doing
    /// the sum/product gives the printed result.
    #[test]
    fn add_mul_round_trip_through_strings(a in arb_rat(), b in arb_rat()) {
        let reparse = |r: &Rat| r.to_string().parse::<Rat>().expect("display is parseable");
        prop_assert_eq!(reparse(&a), a.clone());
        let sum = &a + &b;
        let product = &a * &b;
        prop_assert_eq!(&reparse(&a) + &reparse(&b), reparse(&sum));
        prop_assert_eq!(&reparse(&a) * &reparse(&b), reparse(&product));
    }

    /// BigInt decimal printing round-trips and respects ordering.
    #[test]
    fn bigint_string_round_trip(n in -4_000_000_000_000i64..4_000_000_000_000, k in 0usize..5) {
        // Scale past the i64 range by repeated squaring-free shifts so
        // multi-limb printing paths run too.
        let mut big = BigInt::from(n);
        for _ in 0..k {
            big = &big * &BigInt::from(1_000_003i64);
        }
        let s = big.to_string();
        prop_assert_eq!(s.parse::<BigInt>().expect("printed form parses"), big);
    }

    /// Every operation and the order agree with cross-multiplication
    /// on the canonical terms, on both sides of the inline/big-int
    /// edge.
    #[test]
    fn arithmetic_matches_cross_multiplication(a in arb_rat(), b in arb_rat()) {
        let (an, ad, bn, bd) = (a.numer(), a.denom(), b.numer(), b.denom());
        prop_assert!(is_exactly(&(&a + &b), &(&(&an * &bd) + &(&bn * &ad)), &(&ad * &bd)));
        prop_assert!(is_exactly(&(&a - &b), &(&(&an * &bd) - &(&bn * &ad)), &(&ad * &bd)));
        prop_assert!(is_exactly(&(&a * &b), &(&an * &bn), &(&ad * &bd)));
        if !b.is_zero() {
            prop_assert!(is_exactly(&(&a / &b), &(&an * &bd), &(&ad * &bn)));
            prop_assert!(is_exactly(&b.recip(), &bd, &bn));
        }
        prop_assert!(is_exactly(&-&a, &-&an, &ad));
        prop_assert!(is_exactly(&a.abs(), &an.abs(), &ad));
        prop_assert_eq!(a.cmp(&b), (&an * &bd).cmp(&(&bn * &ad)));
        prop_assert_eq!(a.signum(), an.signum());
    }

    /// A value reached through the big-int form (scaled past `i64`
    /// and back, or built from terms sharing a factor past `u128`) is
    /// the same value, equal and hash-equal, as the one it started
    /// from.
    #[test]
    fn one_representation_per_value(a in arb_rat(), e in arb_edge_int()) {
        let k = Rat::new(e.clone(), BigInt::one());
        let round_trip = &(&a * &k) / &k;
        prop_assert_eq!(&round_trip, &a);
        prop_assert_eq!(hash_of(&round_trip), hash_of(&a));
        let f = &(&e * &e) * &e;
        let rebuilt = Rat::new(&a.numer() * &f, &a.denom() * &f);
        prop_assert_eq!(&rebuilt, &a);
        prop_assert_eq!(hash_of(&rebuilt), hash_of(&a));
    }

    /// `to_f64`, `Display` and `FromStr` are the big-int pair's:
    /// `numer / denom` in `f64`, and `"numer"` or `"numer/denom"`.
    #[test]
    fn conversions_match_the_bigint_pair(a in arb_rat()) {
        let (n, d) = (a.numer(), a.denom());
        prop_assert_eq!(a.to_f64().to_bits(), (n.to_f64() / d.to_f64()).to_bits());
        let text = if d == BigInt::one() { n.to_string() } else { format!("{n}/{d}") };
        prop_assert_eq!(a.to_string(), text.clone());
        prop_assert_eq!(text.parse::<Rat>().expect("canonical text parses"), a);
    }

    /// Fraction-free integer elimination agrees with `Rat`
    /// Gauss–Jordan on small systems (never overflowing there),
    /// including exactly singular ones.
    #[test]
    fn integer_solve_agrees_with_gauss_jordan(
        k in 1usize..=6,
        entries in prop::collection::vec(-20i64..=20, 36),
        rhs in prop::collection::vec(-20i64..=20, 6),
        singular in 0u8..3,
        c in (-3i64..=3, -3i64..=3),
    ) {
        let a = square(k, &entries, singular, c);
        prop_assert!(
            integer_solve_matches_reference(&a, &rhs[..k])?,
            "small system overflowed"
        );
    }

    /// With entries near ±2^62 the integer solve either agrees with the
    /// reference or reports overflow; it never wraps or panics.
    #[test]
    fn integer_solve_overflow_is_reported(
        k in 1usize..=4,
        entries in prop::collection::vec(-20i64..=20, 36),
        rhs in prop::collection::vec(-20i64..=20, 6),
        near in prop::collection::vec(-1i64..=1, 36),
        duplicate in 0u8..2,
    ) {
        let huge: Vec<i64> = entries
            .iter()
            .zip(&near)
            .map(|(&v, &n)| n * (1i64 << 62) + v)
            .collect();
        let a = square(k, &huge, duplicate, (0, 0));
        integer_solve_matches_reference(&a, &rhs[..k])?;
    }

    /// The fraction-free simplex agrees with the `Rat` simplex on
    /// small integer programs, where it never overflows.
    #[test]
    fn integer_simplex_agrees_with_rat_simplex(
        vars in 1usize..=4,
        rows in 1usize..=5,
        entries in prop::collection::vec(-6i64..=6, 20),
        rels in prop::collection::vec(0u8..3, 5),
        rhs in prop::collection::vec(-6i64..=6, 5),
    ) {
        let program = program(vars, rows, &entries, &rels, &rhs);
        prop_assert!(
            !integer_simplex_matches_reference(vars, &program)?,
            "small program overflowed"
        );
    }

    /// With entries near ±2^62 the fraction-free simplex either agrees
    /// with the `Rat` simplex or reports overflow; it never returns a
    /// wrong vertex, wraps or panics.
    #[test]
    fn integer_simplex_overflow_is_reported(
        vars in 1usize..=4,
        rows in 1usize..=5,
        entries in prop::collection::vec(-20i64..=20, 25),
        near in prop::collection::vec(-1i64..=1, 25),
        rels in prop::collection::vec(0u8..3, 5),
    ) {
        let huge: Vec<i64> = entries
            .iter()
            .zip(&near)
            .map(|(&v, &n)| n * (1i64 << 62) + v)
            .collect();
        let program = program(vars, rows, &huge[..20], &rels, &huge[20..]);
        integer_simplex_matches_reference(vars, &program)?;
    }
}
