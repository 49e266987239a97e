//! Exact Gaussian elimination: over [`Rat`], and fraction-free over
//! integers.

use crate::rat::Rat;

/// Outcome of solving a square linear system exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinSolve {
    /// The system has exactly one solution.
    Unique(Vec<Rat>),
    /// The coefficient matrix is rank-deficient: the system has either
    /// no solution or an affine subspace of them. Exact enumeration
    /// hands these to the simplex, which decides feasibility and
    /// produces a vertex witness.
    Singular,
}

/// Solves the square system `a · x = b` by fraction-exact
/// Gauss–Jordan elimination with full row pivoting on the first
/// nonzero entry — no tolerance anywhere: a pivot is zero iff it is
/// *exactly* zero, which is precisely the singularity test `f64`
/// elimination cannot perform.
///
/// # Panics
///
/// Panics if `a` is not square or `b` has the wrong length.
pub fn solve(a: &[Vec<Rat>], b: &[Rat]) -> LinSolve {
    let n = a.len();
    assert!(a.iter().all(|row| row.len() == n), "matrix must be square");
    assert_eq!(b.len(), n, "rhs length must match");
    // Augmented matrix [a | b].
    let mut m: Vec<Vec<Rat>> = a
        .iter()
        .zip(b)
        .map(|(row, rhs)| {
            let mut r = row.clone();
            r.push(rhs.clone());
            r
        })
        .collect();
    for col in 0..n {
        let Some(pivot) = (col..n).find(|&r| !m[r][col].is_zero()) else {
            return LinSolve::Singular;
        };
        m.swap(col, pivot);
        let inv = m[col][col].recip();
        for x in &mut m[col][col..] {
            *x = &*x * &inv;
        }
        for r in 0..n {
            if r != col && !m[r][col].is_zero() {
                let factor = m[r][col].clone();
                let pivot_row = m[col][col..=n].to_vec();
                for (x, p) in m[r][col..=n].iter_mut().zip(&pivot_row) {
                    *x = &*x - &(&factor * p);
                }
            }
        }
    }
    LinSolve::Unique(m.into_iter().map(|row| row[n].clone()).collect())
}

/// Solves the square integer system `a · x = b` by fraction-free
/// (Bareiss 1968) elimination in checked `i128` arithmetic.
///
/// Every intermediate entry is a minor of `[a | b]`, so each
/// elimination step's division is exact and nothing is ever reduced
/// by a gcd; back substitution stays integral by solving for
/// `det · x` instead of `x`, and the only division that leaves the
/// integers is the caller's final `numers[i] / det`.
///
/// Returns `Some((numers, det))` with `det` the determinant of `a`:
/// `det == 0` (and `numers` empty) iff `a` is exactly singular —
/// [`solve`] would return [`LinSolve::Singular`] — and otherwise the
/// unique solution is `x_i = numers[i] / det` (Cramer's rule, so
/// `numers[i]` is the determinant of `a` with column `i` replaced by
/// `b`). Returns `None` if an intermediate value overflows `i128`;
/// the caller then falls back to [`solve`].
///
/// # Panics
///
/// Panics if `a` is not square or `b` has the wrong length.
pub fn solve_integer(a: &[Vec<i64>], b: &[i64]) -> Option<(Vec<i128>, i128)> {
    let n = a.len();
    assert!(a.iter().all(|row| row.len() == n), "matrix must be square");
    assert_eq!(b.len(), n, "rhs length must match");
    let mut m: Vec<Vec<i128>> = a
        .iter()
        .zip(b)
        .map(|(row, &rhs)| row.iter().chain([&rhs]).map(|&v| v.into()).collect())
        .collect();
    // Forward elimination: after step k, row i > k holds minors of
    // order k + 1, and `prev` (the last pivot) divides every update.
    let mut prev: i128 = 1;
    let mut swaps_odd = false;
    for k in 0..n {
        let Some(pivot) = (k..n).find(|&r| m[r][k] != 0) else {
            return Some((Vec::new(), 0));
        };
        if pivot != k {
            m.swap(k, pivot);
            swaps_odd = !swaps_odd;
        }
        for i in k + 1..n {
            for j in k + 1..=n {
                let v = m[i][j]
                    .checked_mul(m[k][k])?
                    .checked_sub(m[i][k].checked_mul(m[k][j])?)?;
                debug_assert_eq!(v % prev, 0, "Bareiss division is exact");
                m[i][j] = v / prev;
            }
            m[i][k] = 0;
        }
        prev = m[k][k];
    }
    // The last pivot is the determinant of the row-permuted matrix.
    // Back substitution for y = pivot · x, integral by Cramer's rule.
    let pivot = prev;
    let mut y = vec![0i128; n];
    for i in (0..n).rev() {
        let mut acc = pivot.checked_mul(m[i][n])?;
        for j in i + 1..n {
            acc = acc.checked_sub(m[i][j].checked_mul(y[j])?)?;
        }
        debug_assert_eq!(acc % m[i][i], 0, "back substitution is exact");
        y[i] = acc / m[i][i];
    }
    if swaps_odd {
        let y = y.iter().map(|v| v.checked_neg()).collect::<Option<_>>()?;
        Some((y, pivot.checked_neg()?))
    } else {
        Some((y, pivot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: i64, b: i64) -> Rat {
        Rat::from_ratio(a, b)
    }

    #[test]
    fn solves_a_unique_system() {
        // 2x + y = 5, x - y = 1  =>  x = 2, y = 1
        let a = vec![vec![r(2, 1), r(1, 1)], vec![r(1, 1), r(-1, 1)]];
        let b = vec![r(5, 1), r(1, 1)];
        assert_eq!(solve(&a, &b), LinSolve::Unique(vec![r(2, 1), r(1, 1)]));
    }

    #[test]
    fn exact_fractions_no_drift() {
        // Hilbert-like 3x3: catastrophically ill-conditioned in f64,
        // trivially exact here.
        let a: Vec<Vec<Rat>> = (1..=3)
            .map(|i| (1..=3).map(|j| r(1, i + j - 1)).collect())
            .collect();
        let b = vec![r(1, 1), r(0, 1), r(0, 1)];
        let LinSolve::Unique(x) = solve(&a, &b) else {
            panic!("hilbert 3x3 is nonsingular");
        };
        // Residual must be exactly zero in every coordinate.
        for (i, row) in a.iter().enumerate() {
            let acc = row
                .iter()
                .zip(&x)
                .fold(Rat::zero(), |acc, (c, v)| &acc + &(c * v));
            assert_eq!(acc, b[i], "row {i} residual nonzero");
        }
    }

    #[test]
    fn detects_exact_singularity() {
        // Second row is 2x the first: singular regardless of rhs.
        let a = vec![vec![r(1, 1), r(2, 1)], vec![r(2, 1), r(4, 1)]];
        assert_eq!(solve(&a, &[r(1, 1), r(2, 1)]), LinSolve::Singular);
        assert_eq!(solve(&a, &[r(1, 1), r(3, 1)]), LinSolve::Singular);
    }

    #[test]
    fn empty_system_is_unique() {
        assert_eq!(solve(&[], &[]), LinSolve::Unique(vec![]));
        assert_eq!(solve_integer(&[], &[]), Some((vec![], 1)));
    }

    #[test]
    fn integer_solve_returns_cramer_numerators() {
        // 2x + y = 5, x - y = 1: det = -3, x = -6/-3, y = -3/-3.
        let a = vec![vec![2, 1], vec![1, -1]];
        assert_eq!(solve_integer(&a, &[5, 1]), Some((vec![-6, -3], -3)));
        // A leading zero forces a row swap, which flips the pivot's sign.
        let a = vec![vec![0, 1], vec![1, 0]];
        assert_eq!(solve_integer(&a, &[2, 3]), Some((vec![-3, -2], -1)));
    }

    #[test]
    fn integer_solve_detects_singularity_and_overflow() {
        let a = vec![vec![1, 2], vec![2, 4]];
        assert_eq!(solve_integer(&a, &[1, 3]), Some((vec![], 0)));
        let big = i64::MAX;
        let a = vec![
            vec![big, -big, big],
            vec![big, big, -big],
            vec![-big, big, big],
        ];
        assert_eq!(solve_integer(&a, &[big, big, big]), None);
    }
}
