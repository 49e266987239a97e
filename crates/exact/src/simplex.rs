//! A textbook phase-1 primal simplex over exact arithmetic: LP
//! feasibility and a vertex of the feasible region.
//!
//! Variables are implicitly nonnegative; constraints are arbitrary
//! `=` / `≤` / `≥` rows. Phase 1 minimizes the sum of artificial
//! variables: the region is nonempty iff that minimum is exactly zero,
//! and the basis it stops at is a basic feasible solution — a
//! **vertex** of the feasible region. There is no phase 2: the one
//! consumer (exact support enumeration) asks for feasibility and a
//! witness vertex, never for an optimum.
//!
//! Pivoting uses **Bland's rule** (smallest-index entering column,
//! smallest-basis-index leaving row among the minimum ratios), which
//! provably never cycles — combined with exact arithmetic there is no
//! tolerance, no epsilon-pivoting and no stall: the solver terminates
//! with the mathematically correct answer on every input.
//!
//! One pivoting rule runs over two arithmetics:
//!
//! * [`feasible_point`] keeps a [`Rat`] tableau in fully reduced
//!   (Gauss–Jordan) form;
//! * [`feasible_point_integer`] takes integer data and pivots
//!   **fraction-free** in checked `i128`, as lrs does (Avis,
//!   Rosenberg, Savani & von Stengel 2010, "Enumeration of Nash
//!   equilibria for two-player games"): every entry is the `Rat`
//!   tableau's entry times the basis determinant `D > 0`, hence an
//!   integer (a minor of the constraint matrix), and a pivot on `p` at
//!   `(r, c)` maps `T[i][j]` to `(p·T[i][j] − T[i][c]·T[r][j]) / D`
//!   with exact division, keeps row `r` and makes `p` the new `D`
//!   (negating the tableau if `p < 0`). No gcd is ever taken.
//!
//! Scaling by `D > 0` changes no sign and no ratio, so the entering
//! sign test and the cross-multiplied ratio test make the same Bland
//! choice at every step in both tableaux, and both return the same
//! vertex. The integer tableau reports [`Overflow`] when an
//! intermediate leaves `i128`; callers then ask [`feasible_point`].

use crate::rat::Rat;
use std::cmp::Ordering;
use std::convert::Infallible;

/// Relation of one constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// Equality.
    Eq,
    /// Less-than-or-equal.
    Le,
    /// Greater-than-or-equal.
    Ge,
}

/// One linear constraint `coeffs · x (=|≤|≥) rhs` over nonnegative
/// `x`, with [`Rat`] data or, for [`feasible_point_integer`], `i64`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraint<T = Rat> {
    /// Coefficients, one per structural variable.
    pub coeffs: Vec<T>,
    /// Row relation.
    pub rel: Relation,
    /// Right-hand side.
    pub rhs: T,
}

impl<T> Constraint<T> {
    /// `coeffs · x = rhs`.
    pub fn eq(coeffs: Vec<T>, rhs: T) -> Self {
        Self {
            coeffs,
            rel: Relation::Eq,
            rhs,
        }
    }

    /// `coeffs · x ≤ rhs`.
    pub fn le(coeffs: Vec<T>, rhs: T) -> Self {
        Self {
            coeffs,
            rel: Relation::Le,
            rhs,
        }
    }

    /// `coeffs · x ≥ rhs`.
    pub fn ge(coeffs: Vec<T>, rhs: T) -> Self {
        Self {
            coeffs,
            rel: Relation::Ge,
            rhs,
        }
    }
}

/// An intermediate of the fraction-free simplex left `i128`; decide
/// the program with [`feasible_point`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overflow;

/// A vertex of `{x ≥ 0 | constraints}` over `num_vars` variables, or
/// `None` if the region is empty.
///
/// # Panics
///
/// Panics if a constraint's coefficient count differs from `num_vars`.
pub fn feasible_point(num_vars: usize, constraints: &[Constraint]) -> Option<Vec<Rat>> {
    let mut t = Tableau::<Rat>::build(num_vars, constraints);
    let Ok(feasible) = t.phase1();
    feasible.then(|| t.point(num_vars))
}

/// [`feasible_point`] for integer data, pivoted fraction-free in
/// checked `i128`: the same vertex, or the same `None`, computed
/// without a gcd. Returns [`Overflow`] if an intermediate leaves
/// `i128`.
///
/// # Panics
///
/// Panics if a constraint's coefficient count differs from `num_vars`.
pub fn feasible_point_integer(
    num_vars: usize,
    constraints: &[Constraint<i64>],
) -> Result<Option<Vec<Rat>>, Overflow> {
    let mut t = Tableau::<i128>::build(num_vars, constraints);
    Ok(t.phase1()?.then(|| t.point(num_vars)))
}

/// The arithmetic of one tableau kind. The pivoting rule
/// ([`Tableau::phase1`]) is shared; only the pivot differs.
trait Entry: Clone + Ord + Sized {
    /// What an operation reports when it cannot be carried out.
    type Error;
    /// `v` (the tableau needs only 0 and ±1).
    fn int(v: i8) -> Self;
    /// `−self`, for constraint data (never an extreme value).
    fn negated(&self) -> Self;
    /// `self − other`.
    fn minus(&self, other: &Self) -> Result<Self, Self::Error>;
    /// `self · other`.
    fn times(&self, other: &Self) -> Result<Self, Self::Error>;
    /// Pivots `t` on `(row, col)`, whose entry is nonzero.
    fn pivot(t: &mut Tableau<Self>, row: usize, col: usize) -> Result<(), Self::Error>;
    /// `num / den` as a rational.
    fn quotient(num: &Self, den: &Self) -> Rat;
}

impl Entry for Rat {
    type Error = Infallible;

    fn int(v: i8) -> Self {
        Rat::from_int(v.into())
    }

    fn negated(&self) -> Self {
        -self
    }

    fn minus(&self, other: &Self) -> Result<Self, Infallible> {
        Ok(self - other)
    }

    fn times(&self, other: &Self) -> Result<Self, Infallible> {
        Ok(self * other)
    }

    /// Gauss–Jordan: the pivot row is divided by the pivot, so the
    /// tableau stays unscaled (`det` stays 1).
    fn pivot(t: &mut Tableau<Rat>, row: usize, col: usize) -> Result<(), Infallible> {
        let inv = t.rows[row][col].recip();
        for x in t.rows[row].iter_mut() {
            *x = &*x * &inv;
        }
        t.rhs[row] = &t.rhs[row] * &inv;
        for i in 0..t.rows.len() {
            if i == row || t.rows[i][col].is_zero() {
                continue;
            }
            let f = t.rows[i][col].clone();
            for j in 0..t.cols {
                let delta = &f * &t.rows[row][j];
                t.rows[i][j] = &t.rows[i][j] - &delta;
            }
            let delta = &f * &t.rhs[row];
            t.rhs[i] = &t.rhs[i] - &delta;
        }
        t.basis[row] = col;
        Ok(())
    }

    fn quotient(num: &Self, den: &Self) -> Rat {
        num / den
    }
}

impl Entry for i128 {
    type Error = Overflow;

    fn int(v: i8) -> Self {
        v.into()
    }

    fn negated(&self) -> Self {
        -self
    }

    fn minus(&self, other: &Self) -> Result<Self, Overflow> {
        self.checked_sub(*other).ok_or(Overflow)
    }

    fn times(&self, other: &Self) -> Result<Self, Overflow> {
        self.checked_mul(*other).ok_or(Overflow)
    }

    /// Fraction-free: every row but the pivot row becomes
    /// `(p·T[i][j] − T[i][c]·T[r][j]) / D`, the pivot row stays, and
    /// `p` becomes `D` — negated with the whole tableau if `p < 0`, so
    /// that `D > 0` and every sign means what it means in `Rat`.
    fn pivot(t: &mut Tableau<i128>, row: usize, col: usize) -> Result<(), Overflow> {
        let p = t.rows[row][col];
        let det = t.det;
        let (pivot_row, pivot_rhs) = (t.rows[row].clone(), t.rhs[row]);
        for i in 0..t.rows.len() {
            let f = t.rows[i][col];
            if i == row || (f == 0 && p == det) {
                continue;
            }
            let update = |x: i128, y: i128| -> Result<i128, Overflow> {
                let v = p.times(&x)?.minus(&f.times(&y)?)?;
                debug_assert_eq!(v % det, 0, "fraction-free division is exact");
                Ok(v / det)
            };
            for (x, &y) in t.rows[i].iter_mut().zip(&pivot_row) {
                *x = update(*x, y)?;
            }
            t.rhs[i] = update(t.rhs[i], pivot_rhs)?;
        }
        t.det = p;
        t.basis[row] = col;
        if p < 0 {
            let neg = |x: &mut i128| x.checked_neg().map(|v| *x = v).ok_or(Overflow);
            t.rows.iter_mut().flatten().try_for_each(neg)?;
            t.rhs.iter_mut().try_for_each(neg)?;
            neg(&mut t.det)?;
        }
        Ok(())
    }

    fn quotient(num: &Self, den: &Self) -> Rat {
        Rat::from_i128(*num, *den)
    }
}

/// Dense simplex tableau: the basic columns form `det` times the
/// identity, `rhs` stays ≥ 0, and the tableau's value is its entries
/// divided by `det`.
struct Tableau<T> {
    /// Row-major coefficient rows (length `cols` each).
    rows: Vec<Vec<T>>,
    /// Right-hand sides, one per row.
    rhs: Vec<T>,
    /// Basic variable (column index) of each row.
    basis: Vec<usize>,
    /// Total column count: structural + slack/surplus + artificial.
    cols: usize,
    /// First artificial column (artificials are the trailing columns).
    art_start: usize,
    /// The scale `D > 0` of every entry: the basis determinant in the
    /// fraction-free tableau, always 1 in the Gauss–Jordan one.
    det: T,
}

impl<T: Entry> Tableau<T> {
    fn build<C: Clone>(num_vars: usize, constraints: &[Constraint<C>]) -> Self
    where
        T: From<C>,
    {
        assert!(
            constraints.iter().all(|c| c.coeffs.len() == num_vars),
            "constraint arity must match the program"
        );
        let m = constraints.len();
        // One slack/surplus per inequality, one artificial per row that
        // lacks a natural initial basic column.
        let slacks = constraints.iter().filter(|c| c.rel != Relation::Eq).count();
        let art_start = num_vars + slacks;
        let zero = T::int(0);
        let mut rows = Vec::with_capacity(m);
        let mut rhs = Vec::with_capacity(m);
        let mut basis = Vec::with_capacity(m);
        let mut next_slack = num_vars;
        let mut arts = 0usize;
        for c in constraints {
            // Normalize to rhs ≥ 0 (flips the inequality direction).
            let b = T::from(c.rhs.clone());
            let flip = b < zero;
            let sign = |x: T| if flip { x.negated() } else { x };
            let mut row: Vec<T> = c.coeffs.iter().map(|x| sign(x.clone().into())).collect();
            row.resize(art_start, zero.clone());
            let rel = match (c.rel, flip) {
                (Relation::Eq, _) => Relation::Eq,
                (Relation::Le, false) | (Relation::Ge, true) => Relation::Le,
                (Relation::Ge, false) | (Relation::Le, true) => Relation::Ge,
            };
            let basic = match rel {
                Relation::Le => {
                    row[next_slack] = T::int(1);
                    next_slack += 1;
                    next_slack - 1
                }
                Relation::Ge => {
                    row[next_slack] = T::int(-1);
                    next_slack += 1;
                    arts += 1;
                    usize::MAX // artificial assigned below
                }
                Relation::Eq => {
                    arts += 1;
                    usize::MAX
                }
            };
            rows.push(row);
            rhs.push(sign(b));
            basis.push(basic);
        }
        let cols = art_start + arts;
        let mut art = art_start;
        for (i, b) in basis.iter_mut().enumerate() {
            rows[i].resize(cols, zero.clone());
            if *b == usize::MAX {
                rows[i][art] = T::int(1);
                *b = art;
                art += 1;
            }
        }
        Self {
            rows,
            rhs,
            basis,
            cols,
            art_start,
            det: T::int(1),
        }
    }

    /// Bland's entering column: the smallest index whose phase-1
    /// reduced cost `c_j − Σ_i c_{basis[i]} · T[i][j]` (`c` is 1 on
    /// artificial columns, 0 elsewhere) is negative. Computed scaled
    /// by `det > 0`, which keeps its sign.
    fn entering(&self) -> Result<Option<usize>, T::Error> {
        let zero = T::int(0);
        for j in 0..self.cols {
            let mut cost = if j >= self.art_start {
                self.det.clone()
            } else {
                zero.clone()
            };
            for (row, &b) in self.rows.iter().zip(&self.basis) {
                if b >= self.art_start && row[j] != zero {
                    cost = cost.minus(&row[j])?;
                }
            }
            if cost < zero {
                return Ok(Some(j));
            }
        }
        Ok(None)
    }

    /// Bland's leaving row: minimum ratio `rhs / T[i][enter]` over
    /// positive pivot coefficients, compared by cross-multiplication,
    /// smallest basis index on ties.
    fn leaving(&self, enter: usize) -> Result<Option<usize>, T::Error> {
        let zero = T::int(0);
        let mut leave: Option<usize> = None;
        for i in 0..self.rows.len() {
            if self.rows[i][enter] <= zero {
                continue;
            }
            leave = Some(match leave {
                None => i,
                Some(best) => {
                    let cur = self.rhs[i].times(&self.rows[best][enter])?;
                    let b = self.rhs[best].times(&self.rows[i][enter])?;
                    match cur.cmp(&b) {
                        Ordering::Less => i,
                        Ordering::Greater => best,
                        Ordering::Equal => {
                            if self.basis[i] < self.basis[best] {
                                i
                            } else {
                                best
                            }
                        }
                    }
                }
            });
        }
        Ok(leave)
    }

    /// Phase 1: minimize the artificial sum. `true` iff feasible
    /// (optimum exactly zero), with artificials driven out of the
    /// basis wherever a structural pivot exists (rows where none does
    /// are redundant and harmless: their artificial stays basic at 0).
    fn phase1(&mut self) -> Result<bool, T::Error> {
        while let Some(enter) = self.entering()? {
            let leave = self
                .leaving(enter)?
                .expect("phase-1 objective is bounded below by 0");
            T::pivot(self, leave, enter)?;
        }
        // Every rhs is ≥ 0, so the artificial sum is zero iff each
        // basic artificial sits at zero.
        let zero = T::int(0);
        if self
            .basis
            .iter()
            .zip(&self.rhs)
            .any(|(&b, v)| b >= self.art_start && *v != zero)
        {
            return Ok(false);
        }
        // Pivot basic artificials (at value 0) out on any nonzero
        // structural/slack column.
        for i in 0..self.rows.len() {
            if self.basis[i] >= self.art_start {
                if let Some(j) = (0..self.art_start).find(|&j| self.rows[i][j] != zero) {
                    T::pivot(self, i, j)?;
                }
            }
        }
        Ok(true)
    }

    /// The current basic solution restricted to the first `n` columns.
    fn point(&self, n: usize) -> Vec<Rat> {
        let mut x = vec![Rat::zero(); n];
        for (i, &b) in self.basis.iter().enumerate() {
            if b < n {
                x[b] = T::quotient(&self.rhs[i], &self.det);
            }
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: i64, b: i64) -> Rat {
        Rat::from_ratio(a, b)
    }

    fn ri(a: i64) -> Rat {
        Rat::from_int(a)
    }

    /// The same program with integer data, for the fraction-free path.
    fn integral(constraints: &[Constraint]) -> Vec<Constraint<i64>> {
        let int = |v: &Rat| {
            assert_eq!(v.denom(), crate::BigInt::one(), "integer datum");
            v.numer().to_i64().expect("fits i64")
        };
        constraints
            .iter()
            .map(|c| Constraint {
                coeffs: c.coeffs.iter().map(int).collect(),
                rel: c.rel,
                rhs: int(&c.rhs),
            })
            .collect()
    }

    /// Both tableaux decide `constraints`; they must agree exactly.
    fn both(num_vars: usize, constraints: &[Constraint]) -> Option<Vec<Rat>> {
        let point = feasible_point(num_vars, constraints);
        assert_eq!(
            feasible_point_integer(num_vars, &integral(constraints)),
            Ok(point.clone())
        );
        point
    }

    #[test]
    fn feasible_vertex_of_a_simplex() {
        // x + y = 1, x, y >= 0: a vertex is (1,0) or (0,1).
        let point = both(2, &[Constraint::eq(vec![ri(1), ri(1)], ri(1))]).unwrap();
        assert_eq!(&point[0] + &point[1], ri(1));
        assert!(point.iter().all(|v| !v.is_negative()));
        assert!(
            point.contains(&ri(0)),
            "a basic feasible solution is a vertex, got {point:?}"
        );
    }

    #[test]
    fn infeasible_region_detected() {
        // x + y = 1 and x + y >= 2 cannot both hold.
        assert_eq!(
            both(
                2,
                &[
                    Constraint::eq(vec![ri(1), ri(1)], ri(1)),
                    Constraint::ge(vec![ri(1), ri(1)], ri(2)),
                ]
            ),
            None
        );
        // x <= -1 with x >= 0 is empty, and so is x = -3.
        assert_eq!(both(1, &[Constraint::le(vec![ri(1)], ri(-1))]), None);
        assert_eq!(both(1, &[Constraint::eq(vec![ri(1)], ri(-3))]), None);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // -x - y <= -1  ==  x + y >= 1.
        let p = both(2, &[Constraint::le(vec![ri(-1), ri(-1)], ri(-1))]).unwrap();
        assert!(&p[0] + &p[1] >= ri(1));
    }

    #[test]
    fn redundant_rows_are_harmless() {
        // Same equality three times: phase 1 leaves an artificial
        // basic at zero on each redundant row, and the vertex is still
        // a point of the line.
        let p = both(
            2,
            &[
                Constraint::eq(vec![ri(1), ri(1)], ri(1)),
                Constraint::eq(vec![ri(1), ri(1)], ri(1)),
                Constraint::eq(vec![ri(2), ri(2)], ri(2)),
            ],
        )
        .unwrap();
        assert_eq!(&p[0] + &p[1], ri(1));
    }

    #[test]
    fn degenerate_cycling_guard() {
        // Beale's LP, which cycles under naive most-negative pivoting,
        // as a feasibility question: its constraints plus "objective at
        // most its optimum −1/20". Phase 1 must terminate on it under
        // Bland's rule, and both tableaux must stop at one vertex. The
        // rows are scaled to integers (×100, ×100, ×1, ×100).
        let constraints = [
            Constraint::le(vec![ri(25), ri(-6000), ri(-4), ri(900)], ri(0)),
            Constraint::le(vec![ri(50), ri(-9000), ri(-2), ri(300)], ri(0)),
            Constraint::le(vec![ri(0), ri(0), ri(1), ri(0)], ri(1)),
            Constraint::le(vec![ri(-75), ri(15000), ri(-2), ri(600)], ri(-5)),
        ];
        let p = both(4, &constraints).expect("the optimum is feasible");
        let objective = [r(-3, 4), ri(150), r(-1, 50), ri(6)];
        let value = objective
            .iter()
            .zip(&p)
            .fold(Rat::zero(), |acc, (c, x)| &acc + &(c * x));
        assert!(value <= r(-1, 20), "{p:?}");
        // One step past the optimum is empty.
        let mut past = constraints.to_vec();
        past[3].rhs = ri(-6);
        assert_eq!(both(4, &past), None);
    }

    #[test]
    fn exact_fractional_vertex() {
        // Indifference-style system: 3q0 - 2q1 = 0, q0 + q1 = 1
        // => q = (2/5, 3/5), exactly.
        let p = both(
            2,
            &[
                Constraint::eq(vec![ri(3), ri(-2)], ri(0)),
                Constraint::eq(vec![ri(1), ri(1)], ri(1)),
            ],
        )
        .unwrap();
        assert_eq!(p, vec![r(2, 5), r(3, 5)]);
    }

    #[test]
    fn fraction_free_pivots_report_overflow() {
        // x·2^62 − y = 0, y·2^62 − z = 0, z ≥ 2^62: the determinants
        // outgrow i128 after two pivots.
        let big = 1i64 << 62;
        let constraints = [
            Constraint::eq(vec![big, -1, 0], 0),
            Constraint::eq(vec![0, big, -1], 0),
            Constraint::eq(vec![-1, 0, big], big),
        ];
        assert_eq!(feasible_point_integer(3, &constraints), Err(Overflow));
    }
}
