//! Small dense linear-system solver (Gaussian elimination with partial
//! pivoting).
//!
//! Support enumeration repeatedly solves systems of the form
//! `A x = b` for supports of size ≤ n, where n is a player's action count —
//! tiny systems, so a straightforward `O(n³)` elimination is the right tool.
//!
//! There is one elimination routine, `solve_in_place`. It works on a
//! caller-owned flat augmented buffer, so the support enumerator solves
//! every support pair of a game without allocating. The public [`solve`]
//! validates shapes, copies `[A | b]` into a fresh buffer and calls it.

use crate::error::GameError;
use crate::matrix::Matrix;

/// Solves `A x = b` for square `A` using Gaussian elimination with partial
/// pivoting.
///
/// # Errors
///
/// Returns [`GameError::ShapeMismatch`] if `A` is not square or `b` has the
/// wrong length, and [`GameError::SingularSystem`] if a pivot smaller than
/// `1e-12` (relative to the largest row entry) is encountered.
///
/// # Example
///
/// ```
/// use cnash_game::{linalg::solve, Matrix};
///
/// # fn main() -> Result<(), cnash_game::GameError> {
/// let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]])?;
/// let x = solve(&a, &[3.0, 4.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, GameError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(GameError::ShapeMismatch {
            left: a.shape(),
            right: a.shape(),
        });
    }
    if b.len() != n {
        return Err(GameError::ShapeMismatch {
            left: a.shape(),
            right: (b.len(), 1),
        });
    }

    let mut w = Vec::with_capacity(n * (n + 1));
    for (i, &bi) in b.iter().enumerate() {
        w.extend_from_slice(a.row(i));
        w.push(bi);
    }
    let mut x = vec![0.0; n];
    solve_in_place(&mut w, &mut x)?;
    Ok(x)
}

/// Solves the `n x n` system held in `w` as a row-major augmented matrix
/// `[A | b]` (`n` rows of `n + 1` entries), writing the solution to `x`.
///
/// `w` is overwritten by the elimination. `n` is `x.len()`; `w` must hold
/// exactly `n * (n + 1)` entries and every entry of `A` must be finite.
///
/// # Errors
///
/// Returns [`GameError::SingularSystem`] if a pivot smaller than `1e-12`
/// (relative to the largest row entry) is encountered.
pub(crate) fn solve_in_place(w: &mut [f64], x: &mut [f64]) -> Result<(), GameError> {
    let n = x.len();
    let width = n + 1;
    debug_assert_eq!(w.len(), n * width, "augmented buffer shape");
    for col in 0..n {
        // Partial pivot: pick the row with the largest magnitude in `col`.
        let pivot_row = (col..n)
            .max_by(|&i, &j| {
                w[i * width + col]
                    .abs()
                    .partial_cmp(&w[j * width + col].abs())
                    .expect("pivot magnitudes are finite")
            })
            .expect("non-empty pivot range");
        let scale = w[pivot_row * width..pivot_row * width + n]
            .iter()
            .fold(0.0f64, |acc, &x| acc.max(x.abs()))
            .max(1.0);
        if w[pivot_row * width + col].abs() < 1e-12 * scale {
            return Err(GameError::SingularSystem);
        }
        if pivot_row != col {
            let (upper, lower) = w.split_at_mut(pivot_row * width);
            upper[col * width..(col + 1) * width].swap_with_slice(&mut lower[..width]);
        }

        let (upper, lower) = w.split_at_mut((col + 1) * width);
        let pivot = &upper[col * width..];
        for target in lower.chunks_exact_mut(width) {
            let factor = target[col] / pivot[col];
            if factor == 0.0 {
                continue;
            }
            for (t, p) in target[col..].iter_mut().zip(&pivot[col..]) {
                *t -= factor * p;
            }
        }
    }

    // Back substitution.
    for row in (0..n).rev() {
        let r = &w[row * width..(row + 1) * width];
        let mut acc = r[n];
        for k in row + 1..n {
            acc -= r[k] * x[k];
        }
        x[row] = acc / r[row];
    }
    Ok(())
}

/// Computes the residual `‖A x − b‖∞` of a candidate solution.
///
/// # Errors
///
/// Returns [`GameError::ShapeMismatch`] if shapes are inconsistent.
pub fn residual(a: &Matrix, x: &[f64], b: &[f64]) -> Result<f64, GameError> {
    let ax = a.mat_vec(x)?;
    if ax.len() != b.len() {
        return Err(GameError::ShapeMismatch {
            left: (ax.len(), 1),
            right: (b.len(), 1),
        });
    }
    Ok(ax
        .iter()
        .zip(b)
        .map(|(p, q)| (p - q).abs())
        .fold(0.0, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let a = Matrix::identity(4).unwrap();
        let b = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(solve(&a, &b).unwrap(), b.to_vec());
    }

    #[test]
    fn solves_with_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let x = solve(&a, &[5.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 5.0]);
    }

    #[test]
    fn detects_singular() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert_eq!(solve(&a, &[1.0, 2.0]), Err(GameError::SingularSystem));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert!(matches!(
            solve(&a, &[1.0, 2.0]),
            Err(GameError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn rejects_bad_rhs_len() {
        let a = Matrix::identity(2).unwrap();
        assert!(matches!(
            solve(&a, &[1.0]),
            Err(GameError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let a = Matrix::from_rows(&[
            vec![3.0, 1.0, -1.0],
            vec![1.0, 4.0, 1.0],
            vec![2.0, 1.0, 5.0],
        ])
        .unwrap();
        let b = [2.0, 12.0, 10.0];
        let x = solve(&a, &b).unwrap();
        assert!(residual(&a, &x, &b).unwrap() < 1e-10);
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn row_swaps_give_pinned_bits() {
        // Both elimination columns pick a lower pivot row and swap.
        let a = Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 10.0],
        ])
        .unwrap();
        let x = solve(&a, &[1.0, 2.0, 3.0]).unwrap();
        // -1/3, 2/3 and a negative zero, exactly as elimination rounds them.
        assert_eq!(
            bits(&x),
            [0xbfd5555555555555, 0x3fe5555555555555, 0x8000000000000000]
        );
    }

    #[test]
    fn detects_singular_after_elimination() {
        // Rank 2: the last pivot is only rounding noise.
        let a = Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ])
        .unwrap();
        assert_eq!(solve(&a, &[1.0, 2.0, 3.0]), Err(GameError::SingularSystem));
    }

    #[test]
    fn six_by_six_gives_pinned_bits() {
        let (a, b) = lcg_system(6);
        let want = [
            0x400667f6220d0d0d,
            0x3fc8ba8832ebf56c,
            0xc009123df3d3c671,
            0xc0076bdc05e793c0,
            0x3ffbe9a91c99666b,
            0x3ff6690a14859595,
        ];
        assert_eq!(bits(&solve(&a, &b).unwrap()), want);

        // The in-place solver on a caller-owned buffer gives the same bits,
        // whatever stale values `x` held before.
        let mut w: Vec<f64> = (0..6)
            .flat_map(|i| a.row(i).iter().chain([&b[i]]))
            .copied()
            .collect();
        let mut x = [f64::NAN; 6];
        solve_in_place(&mut w, &mut x).unwrap();
        assert_eq!(bits(&x), want);
    }

    /// The `n x n` system with deterministic pseudo-random coefficients
    /// that `random_system_round_trip` builds.
    fn lcg_system(n: usize) -> (Matrix, Vec<f64>) {
        let mut seed = 42u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let data: Vec<f64> = (0..n * n).map(|_| next() * 10.0).collect();
        let a = Matrix::new(n, n, data).unwrap();
        let b: Vec<f64> = (0..n).map(|_| next() * 10.0).collect();
        (a, b)
    }

    #[test]
    fn random_system_round_trip() {
        // Deterministic pseudo-random coefficients; verify A·solve(A,b) = b.
        let n = 6;
        let mut seed = 42u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let data: Vec<f64> = (0..n * n).map(|_| next() * 10.0).collect();
        let a = Matrix::new(n, n, data).unwrap();
        let b: Vec<f64> = (0..n).map(|_| next() * 10.0).collect();
        match solve(&a, &b) {
            Ok(x) => assert!(residual(&a, &x, &b).unwrap() < 1e-8),
            Err(GameError::SingularSystem) => (), // astronomically unlikely but legal
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}
