//! Support-enumeration computation of all Nash equilibria.
//!
//! This is the ground-truth solver of the reproduction, playing the role
//! Nashpy \[31] plays in the paper: given a bimatrix game it enumerates every
//! pair of equal-size supports `(S, T)`, solves the indifference conditions
//! on each support, and keeps the solutions that satisfy feasibility and
//! best-response conditions. For nondegenerate games this finds *all*
//! equilibria (Nash's theorem guarantees at least one exists).
//!
//! Complexity is exponential in the number of actions, which is fine for
//! the paper's benchmark sizes (≤ 8 actions per player).

use crate::bimatrix::BimatrixGame;
use crate::equilibrium::{dedup_equilibria, Equilibrium};
use crate::linalg::solve_in_place;
use crate::matrix::Matrix;
use crate::strategy::MixedStrategy;

/// Upper bound on actions per player accepted by the enumerator
/// (`2^n` supports per side).
pub const MAX_ENUM_ACTIONS: usize = 16;

/// Enumerates all Nash equilibria of `game` via support enumeration.
///
/// `tol` is the numerical tolerance for feasibility (probabilities ≥ −tol)
/// and best-response slack. Returned equilibria are deduplicated with an
/// `L∞` profile tolerance of `1e-6` and sorted by (row support, col
/// support) for reproducibility.
///
/// # Panics
///
/// Panics if either player has more than [`MAX_ENUM_ACTIONS`] actions.
///
/// # Example
///
/// ```
/// use cnash_game::{games, support_enum::enumerate_equilibria};
///
/// let eqs = enumerate_equilibria(&games::battle_of_the_sexes(), 1e-9);
/// assert_eq!(eqs.len(), 3); // 2 pure + 1 mixed
/// ```
pub fn enumerate_equilibria(game: &BimatrixGame, tol: f64) -> Vec<Equilibrium> {
    let n = game.row_actions();
    let m = game.col_actions();
    assert!(
        n <= MAX_ENUM_ACTIONS && m <= MAX_ENUM_ACTIONS,
        "support enumeration limited to {MAX_ENUM_ACTIONS} actions per player"
    );

    // Column player's payoff matrix transposed: rows become column actions.
    let bt = game.col_payoffs().transposed();
    let max_k = n.min(m);
    let mut scratch = Scratch {
        sys: Vec::with_capacity(max_k * (max_k + 1)),
        sol: vec![0.0; max_k],
        p: vec![0.0; n],
        q: vec![0.0; m],
    };
    let mut found = Vec::new();
    for k in 1..=max_k {
        let col_supports = subsets_of_size(m, k);
        for s in subsets_of_size(n, k) {
            for t in &col_supports {
                if let Some((p, q)) = try_support_pair(game, &bt, &s, t, tol, &mut scratch) {
                    if game.is_equilibrium(&p, &q, tol.max(1e-9)) {
                        found.push(Equilibrium::from_profile(game, p, q));
                    }
                }
            }
        }
    }
    let mut out = dedup_equilibria(found, 1e-6);
    out.sort_by(|a, b| {
        let ka = profile_key(a);
        let kb = profile_key(b);
        ka.partial_cmp(&kb).expect("finite probabilities")
    });
    out
}

/// Counts equilibria by kind: `(pure, mixed)`.
pub fn count_by_kind(eqs: &[Equilibrium], tol: f64) -> (usize, usize) {
    let pure = eqs
        .iter()
        .filter(|e| e.kind(tol) == crate::equilibrium::StrategyKind::Pure)
        .count();
    (pure, eqs.len() - pure)
}

fn profile_key(e: &Equilibrium) -> Vec<f64> {
    let mut k: Vec<f64> = e.row.probs().to_vec();
    k.extend_from_slice(e.col.probs());
    k
}

/// All subsets of `{0..n}` with exactly `k` elements, in lexicographic
/// order of their bitmasks. Shared with the exact enumerator so both
/// oracles walk support pairs in the same order.
pub(crate) fn subsets_of_size(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for mask in 0u32..(1u32 << n) {
        if mask.count_ones() as usize == k {
            out.push((0..n).filter(|i| mask & (1 << i) != 0).collect());
        }
    }
    out
}

/// Buffers reused by every support pair of one game, so a pair that
/// fails allocates nothing.
struct Scratch {
    /// Row-major augmented indifference system `[M | rhs]`, `k x (k + 1)`.
    sys: Vec<f64>,
    /// Its solution, in the first `k` entries.
    sol: Vec<f64>,
    /// Row player's full-length mixture.
    p: Vec<f64>,
    /// Column player's full-length mixture.
    q: Vec<f64>,
}

/// Attempts to find an equilibrium with row support `s` and column support
/// `t` (equal sizes); `bt` is the column player's payoff matrix transposed.
/// Returns `None` if the indifference system is singular or the solution is
/// infeasible.
fn try_support_pair(
    game: &BimatrixGame,
    bt: &Matrix,
    s: &[usize],
    t: &[usize],
    tol: f64,
    scratch: &mut Scratch,
) -> Option<(MixedStrategy, MixedStrategy)> {
    let Scratch { sys, sol, p, q } = scratch;
    solve_indifference(game.row_payoffs(), s, t, tol, sys, sol, q)?;
    solve_indifference(bt, t, s, tol, sys, sol, p)?;

    let p = MixedStrategy::new(p.clone()).ok()?;
    let q = MixedStrategy::new(q.clone()).ok()?;
    Some((p, q))
}

/// Solves for the *opponent* mixture `q` (written to `q`, one entry per
/// column of `a`, support `t`) that makes the focal player indifferent
/// across their support `s`, given the focal player's payoff matrix `a`
/// (focal actions on rows). `sys` and `sol` are scratch space.
///
/// Conditions: `(A q)_i` equal for all `i ∈ s`, `Σ_{j∈t} q_j = 1`,
/// `q_j = 0` outside `t`, `q ≥ −tol`, and no action outside `s` strictly
/// better than the support value.
fn solve_indifference(
    a: &Matrix,
    s: &[usize],
    t: &[usize],
    tol: f64,
    sys: &mut Vec<f64>,
    sol: &mut [f64],
    q: &mut [f64],
) -> Option<()> {
    let k = s.len();
    debug_assert_eq!(k, t.len());

    // Unknowns: q_{t[0]}, ..., q_{t[k-1]}.
    // Equations: (A q)_{s[0]} = (A q)_{s[r]} for r = 1..k, plus Σ q = 1.
    sys.clear();
    for r in 1..k {
        sys.extend(t.iter().map(|&j| a[(s[0], j)] - a[(s[r], j)]));
        sys.push(0.0);
    }
    // The difference of two finite payoffs can overflow; such a system
    // has no usable solution.
    if !sys.iter().all(|x| x.is_finite()) {
        return None;
    }
    // Last row: k ones, right-hand side 1.
    sys.resize(k * (k + 1), 1.0);
    let sol = &mut sol[..k];
    solve_in_place(sys, sol).ok()?;

    // Feasibility: probabilities in [0, 1] up to tolerance.
    if sol.iter().any(|&x| x < -tol || x > 1.0 + tol) {
        return None;
    }

    // Expand to full-length vector, clamping tiny negatives.
    q.fill(0.0);
    for (&j, &x) in t.iter().zip(sol.iter()) {
        q[j] = x.max(0.0);
    }
    // Renormalise the clamped vector (clamping can perturb the sum by tol).
    let sum: f64 = q.iter().sum();
    if sum <= 0.0 {
        return None;
    }
    for x in q.iter_mut() {
        *x /= sum;
    }

    // Best-response condition: actions off the support must not beat it.
    let payoff = |i: usize| -> f64 { a.row(i).iter().zip(q.iter()).map(|(a, b)| a * b).sum() };
    let v = payoff(s[0]);
    for i in 0..a.rows() {
        if !s.contains(&i) && payoff(i) > v + tol.max(1e-9) {
            return None;
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::StrategyKind;
    use crate::games;

    #[test]
    fn subsets_counted_correctly() {
        assert_eq!(subsets_of_size(4, 2).len(), 6);
        assert_eq!(subsets_of_size(5, 0).len(), 1);
        assert_eq!(subsets_of_size(3, 3), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn bos_has_three_equilibria() {
        let eqs = enumerate_equilibria(&games::battle_of_the_sexes(), 1e-9);
        assert_eq!(eqs.len(), 3);
        let (pure, mixed) = count_by_kind(&eqs, 1e-6);
        assert_eq!((pure, mixed), (2, 1));
        for e in &eqs {
            assert!(e.gap.abs() < 1e-9, "gap {} too large", e.gap);
        }
    }

    #[test]
    fn bos_mixed_equilibrium_values() {
        let eqs = enumerate_equilibria(&games::battle_of_the_sexes(), 1e-9);
        let mixed: Vec<_> = eqs
            .iter()
            .filter(|e| e.kind(1e-6) == StrategyKind::Mixed)
            .collect();
        assert_eq!(mixed.len(), 1);
        let e = mixed[0];
        assert!((e.row.prob(0) - 2.0 / 3.0).abs() < 1e-9);
        assert!((e.col.prob(0) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn matching_pennies_unique_mixed() {
        let g = games::matching_pennies();
        let eqs = enumerate_equilibria(&g, 1e-9);
        assert_eq!(eqs.len(), 1);
        assert_eq!(eqs[0].kind(1e-6), StrategyKind::Mixed);
        assert!((eqs[0].row.prob(0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn prisoners_dilemma_unique_pure() {
        let g = games::prisoners_dilemma();
        let eqs = enumerate_equilibria(&g, 1e-9);
        assert_eq!(eqs.len(), 1);
        assert_eq!(eqs[0].kind(1e-6), StrategyKind::Pure);
        // Defect is action 1 in our convention.
        assert_eq!(eqs[0].row.pure_action(1e-6), Some(1));
        assert_eq!(eqs[0].col.pure_action(1e-6), Some(1));
    }

    #[test]
    fn coordination3_has_seven() {
        // Pure 3x3 coordination: 3 pure + 3 two-support + 1 uniform NE.
        let g = games::coordination(3).unwrap();
        let eqs = enumerate_equilibria(&g, 1e-9);
        assert_eq!(eqs.len(), 7);
        let (pure, mixed) = count_by_kind(&eqs, 1e-6);
        assert_eq!((pure, mixed), (3, 4));
    }

    #[test]
    fn all_enumerated_profiles_verify() {
        for g in [
            games::battle_of_the_sexes(),
            games::bird_game(),
            games::stag_hunt(),
            games::hawk_dove(),
        ] {
            for e in enumerate_equilibria(&g, 1e-9) {
                assert!(
                    g.is_equilibrium(&e.row, &e.col, 1e-7),
                    "{}: {e} fails verification",
                    g.name()
                );
            }
        }
    }

    #[test]
    fn overflowing_indifference_system_is_skipped() {
        // For supports ({0, 1}, {0, 1}) the row player's indifference row
        // is MAX - (-MAX), which overflows to infinity. The enumerator
        // skips such a pair instead of solving with a non-finite entry,
        // so only the two pure equilibria are reported.
        let a = Matrix::from_rows(&[vec![f64::MAX, 1.0], vec![-f64::MAX, 1.0]]).unwrap();
        let g = BimatrixGame::new("overflow", a, Matrix::identity(2).unwrap()).unwrap();
        let profiles: Vec<_> = enumerate_equilibria(&g, 1e-9)
            .iter()
            .map(|e| (e.row.probs().to_vec(), e.col.probs().to_vec()))
            .collect();
        assert_eq!(
            profiles,
            [
                (vec![0.0, 1.0], vec![0.0, 1.0]),
                (vec![1.0, 0.0], vec![1.0, 0.0])
            ]
        );
    }

    #[test]
    fn results_are_sorted_and_deduplicated() {
        let eqs = enumerate_equilibria(&games::coordination(3).unwrap(), 1e-9);
        for w in eqs.windows(2) {
            assert!(
                !w[0].same_profile(&w[1], 1e-6),
                "duplicate equilibria in output"
            );
        }
    }
}
