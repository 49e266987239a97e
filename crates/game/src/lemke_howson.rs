//! Lemke–Howson path-following computation of one Nash equilibrium.
//!
//! Used as an independent cross-check of [`crate::support_enum`]: the two
//! algorithms share no code, so agreement between them validates the
//! ground-truth equilibrium sets used throughout the evaluation.
//!
//! The implementation follows the classic complementary-pivoting scheme on
//! two tableaux (one per player) with floating-point arithmetic and a
//! minimum-ratio test; it assumes a nondegenerate game and bails out with
//! [`GameError::SingularSystem`] if pivoting cycles.
//!
//! Degenerate games do cycle under a plain minimum-ratio rule (von
//! Stengel 2002, *Handbook of Game Theory* vol. 3, ch. 45). A cycle is
//! caught in one of two ways:
//!
//! * **An exact repeat.** The pivot state — both tableaux bit for bit,
//!   both bases, and the next entering label — is checkpointed at pivot
//!   counts that are powers of two (Brent 1980, *BIT* 20). When the state
//!   after a pivot equals the checkpoint, the run stops at once with
//!   [`GameError::SingularSystem`]. This returns exactly what running on
//!   to `MAX_PIVOTS` would: a pivot is a pure function of that state, so
//!   from a repeated state the run retraces the same period forever. No
//!   pivot of that period left with the dropped label or failed its ratio
//!   test, so none ever will, and the run would end in the same error.
//! * **The pivot bound.** Runs whose basis cycles while the tableau
//!   values keep drifting in their last bits never repeat exactly; they
//!   still run to `MAX_PIVOTS`.
//!
//! There is no anti-cycling rule: a lexicographic rule would let more
//! labels succeed and change which equilibria are found.

use crate::bimatrix::BimatrixGame;
use crate::equilibrium::Equilibrium;
use crate::error::GameError;
use crate::strategy::MixedStrategy;

/// Maximum pivot steps before declaring a cycle (degenerate game).
///
/// A run that revisits a bit-identical pivot state stops sooner, with the
/// same [`GameError::SingularSystem`] this bound would give it (see the
/// module docs); the bound is reached only by runs that cycle while their
/// values drift and so never repeat exactly.
const MAX_PIVOTS: usize = 10_000;

/// A pivoting tableau representing `basic = rhs − coeffs · nonbasic`.
///
/// Column layout: `n + m` variable columns (one per label) plus a trailing
/// right-hand-side column. `basis[r]` is the label of the basic variable of
/// row `r`.
#[derive(Debug, Clone)]
struct Tableau {
    /// Row-major `rows x width` coefficients; the last column of each row
    /// is the RHS.
    t: Vec<f64>,
    /// Entries per row: the `n + m` label columns plus the RHS.
    width: usize,
    basis: Vec<usize>,
}

impl Tableau {
    /// Pivots the variable with label `entering` into the basis.
    /// Returns the label that leaves, or `None` if unbounded/singular.
    fn pivot(&mut self, entering: usize) -> Option<usize> {
        let w = self.width;
        // Minimum ratio test over rows with positive entering coefficient.
        let mut best_row = None;
        let mut best_ratio = f64::INFINITY;
        for (r, row) in self.t.chunks_exact(w).enumerate() {
            let coef = row[entering];
            if coef > 1e-12 {
                let rhs = row[w - 1];
                let ratio = rhs / coef;
                if ratio < best_ratio - 1e-12
                    || (ratio < best_ratio + 1e-12
                        && best_row.is_none_or(|br: usize| self.basis[r] < self.basis[br]))
                {
                    best_ratio = ratio;
                    best_row = Some(r);
                }
            }
        }
        let r = best_row?;
        let leaving = self.basis[r];

        let (above, rest) = self.t.split_at_mut(r * w);
        let (pivot_row, below) = rest.split_at_mut(w);
        // Normalise the pivot row.
        let pivot = pivot_row[entering];
        for x in pivot_row.iter_mut() {
            *x /= pivot;
        }
        // Eliminate the entering column from all other rows.
        for row in above.chunks_exact_mut(w).chain(below.chunks_exact_mut(w)) {
            let factor = row[entering];
            if factor != 0.0 {
                for (x, p) in row.iter_mut().zip(pivot_row.iter()) {
                    *x -= factor * p;
                }
            }
        }
        self.basis[r] = entering;
        Some(leaving)
    }

    /// Value of the basic variable with label `label` (0 if nonbasic).
    fn value(&self, label: usize) -> f64 {
        self.basis
            .iter()
            .position(|&b| b == label)
            .map(|r| self.t[(r + 1) * self.width - 1])
            .unwrap_or(0.0)
    }

    /// Whether `other` holds the same basis and bit-identical entries.
    fn same_state(&self, other: &Tableau) -> bool {
        self.basis == other.basis
            && self
                .t
                .iter()
                .zip(&other.t)
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }
}

/// Runs Lemke–Howson from the artificial equilibrium, dropping `label`
/// (`0..n` selects a row action, `n..n+m` a column action).
///
/// # Errors
///
/// * [`GameError::InvalidParameter`] if `label >= n + m`,
/// * [`GameError::SingularSystem`] if pivoting fails to terminate
///   (degenerate game) or a tableau becomes unbounded.
///
/// # Example
///
/// ```
/// use cnash_game::{games, lemke_howson::lemke_howson};
///
/// # fn main() -> Result<(), cnash_game::GameError> {
/// let g = games::battle_of_the_sexes();
/// let eq = lemke_howson(&g, 0)?;
/// assert!(g.is_equilibrium(&eq.row, &eq.col, 1e-7));
/// # Ok(())
/// # }
/// ```
pub fn lemke_howson(game: &BimatrixGame, label: usize) -> Result<Equilibrium, GameError> {
    let n = game.row_actions();
    let m = game.col_actions();
    if label >= n + m {
        return Err(GameError::InvalidParameter(format!(
            "label {label} out of range for {n}+{m} labels"
        )));
    }

    let mut tabs = tableaux(game);
    pivot_path(&mut tabs, n, label).map_err(|_| GameError::SingularSystem)?;

    // Complementarity restored: extract the equilibrium.
    let x: Vec<f64> = (0..n).map(|i| tabs[1].value(i)).collect();
    let y: Vec<f64> = (0..m).map(|j| tabs[0].value(n + j)).collect();
    let norm = |v: Vec<f64>| -> Result<MixedStrategy, GameError> {
        let s: f64 = v.iter().sum();
        if s <= 0.0 {
            return Err(GameError::SingularSystem);
        }
        MixedStrategy::new(v.into_iter().map(|x| (x / s).max(0.0)).collect())
    };
    let p = norm(x)?;
    let q = norm(y)?;
    Ok(Equilibrium::from_profile(game, p, q))
}

/// The row and column tableaux at the artificial equilibrium.
fn tableaux(game: &BimatrixGame) -> [Tableau; 2] {
    let n = game.row_actions();
    let m = game.col_actions();

    // Shift payoffs strictly positive (invariant under LH).
    let shift = 1.0 - game.row_payoffs().min().min(game.col_payoffs().min());
    let a = game.row_payoffs().map(|x| x + shift); // n x m, row player
    let b = game.col_payoffs().map(|x| x + shift); // n x m, col player

    let labels = n + m;
    let width = labels + 1;

    // Row tableau: slacks r_i (labels 0..n) basic; r = 1 − A y,
    // nonbasic y_j carry labels n..n+m.
    let mut row_tab = Tableau {
        t: vec![0.0; n * width],
        width,
        basis: (0..n).collect(),
    };
    for (i, row) in row_tab.t.chunks_exact_mut(width).enumerate() {
        row[i] = 1.0;
        for j in 0..m {
            row[n + j] = a[(i, j)];
        }
        row[labels] = 1.0;
    }

    // Column tableau: slacks s_j (labels n..n+m) basic; s = 1 − Bᵀ x,
    // nonbasic x_i carry labels 0..n.
    let mut col_tab = Tableau {
        t: vec![0.0; m * width],
        width,
        basis: (n..n + m).collect(),
    };
    for (j, row) in col_tab.t.chunks_exact_mut(width).enumerate() {
        row[n + j] = 1.0;
        for i in 0..n {
            row[i] = b[(i, j)];
        }
        row[labels] = 1.0;
    }

    [row_tab, col_tab]
}

/// Pivots from the artificial equilibrium of `tabs` (`n` row actions),
/// dropping `label`, until `label` leaves a basis again.
///
/// Returns `Ok(pivots)` with `tabs` at the equilibrium, or `Err(pivots)`
/// if a ratio test came up empty, the state repeated exactly, or
/// `MAX_PIVOTS` pivots ran out.
fn pivot_path(tabs: &mut [Tableau; 2], n: usize, label: usize) -> Result<usize, usize> {
    // x variables (labels 0..n) enter the *column* tableau; y variables
    // (labels n..) enter the *row* tableau.
    let tableau_for = |l: usize| if l < n { 1 } else { 0 };

    // Brent's cycle detection: the state after pivot `2^k` is kept as a
    // checkpoint until pivot `2^(k+1)`, and every state in between is
    // compared with it.
    let mut checkpoint: Option<([Tableau; 2], usize)> = None;
    let mut next_checkpoint = 1;

    let mut entering = label;
    for pivots in 1..=MAX_PIVOTS {
        let leaving = tabs[tableau_for(entering)].pivot(entering).ok_or(pivots)?;
        if leaving == label {
            return Ok(pivots);
        }
        entering = leaving;

        if let Some((saved, saved_entering)) = &checkpoint {
            if *saved_entering == entering
                && saved[0].same_state(&tabs[0])
                && saved[1].same_state(&tabs[1])
            {
                // Exact repeat: the run is periodic and would run out of
                // pivots without ever restoring complementarity.
                return Err(pivots);
            }
        }
        if pivots == next_checkpoint {
            checkpoint = Some((tabs.clone(), entering));
            next_checkpoint *= 2;
        }
    }
    Err(MAX_PIVOTS)
}

/// Runs Lemke–Howson from every starting label and deduplicates the
/// results — a cheap way to find *several* (not necessarily all)
/// equilibria, used to cross-check support enumeration.
pub fn lemke_howson_all_labels(game: &BimatrixGame) -> Vec<Equilibrium> {
    let labels = game.row_actions() + game.col_actions();
    let found: Vec<Equilibrium> = (0..labels)
        .filter_map(|l| lemke_howson(game, l).ok())
        .filter(|e| game.is_equilibrium(&e.row, &e.col, 1e-7))
        .collect();
    crate::equilibrium::dedup_equilibria(found, 1e-6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::Family;
    use crate::games;
    use crate::support_enum::enumerate_equilibria;

    #[test]
    fn finds_equilibrium_of_bos_from_every_label() {
        let g = games::battle_of_the_sexes();
        for l in 0..4 {
            let eq = lemke_howson(&g, l).unwrap();
            assert!(
                g.is_equilibrium(&eq.row, &eq.col, 1e-7),
                "label {l} gave non-equilibrium {eq}"
            );
        }
    }

    #[test]
    fn finds_matching_pennies_mixed() {
        let g = games::matching_pennies();
        let eq = lemke_howson(&g, 0).unwrap();
        assert!((eq.row.prob(0) - 0.5).abs() < 1e-9);
        assert!((eq.col.prob(0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn finds_prisoners_dilemma_defect() {
        let g = games::prisoners_dilemma();
        let eq = lemke_howson(&g, 0).unwrap();
        assert_eq!(eq.row.pure_action(1e-9), Some(1));
        assert_eq!(eq.col.pure_action(1e-9), Some(1));
    }

    #[test]
    fn rejects_out_of_range_label() {
        let g = games::battle_of_the_sexes();
        assert!(matches!(
            lemke_howson(&g, 4),
            Err(GameError::InvalidParameter(_))
        ));
    }

    #[test]
    fn agrees_with_support_enumeration() {
        // Every LH solution must appear in the enumerated set.
        for g in [
            games::battle_of_the_sexes(),
            games::stag_hunt(),
            games::hawk_dove(),
            games::matching_pennies(),
        ] {
            let all = enumerate_equilibria(&g, 1e-9);
            for eq in lemke_howson_all_labels(&g) {
                assert!(
                    all.iter().any(|t| t.same_profile(&eq, 1e-5)),
                    "{}: LH found {eq} missing from enumeration",
                    g.name()
                );
            }
        }
    }

    #[test]
    fn all_labels_dedup_nonempty() {
        let g = games::bird_game();
        let eqs = lemke_howson_all_labels(&g);
        assert!(!eqs.is_empty());
        for w in 0..eqs.len() {
            for v in w + 1..eqs.len() {
                assert!(!eqs[w].same_profile(&eqs[v], 1e-6));
            }
        }
    }

    #[test]
    fn exact_repeat_stops_a_cycling_label_early() {
        // Degenerate 3x3 game, seed 0: dropping label 2 cycles through a
        // bit-identical state; every other label reaches an equilibrium.
        let fam = Family::Degenerate;
        let g = fam
            .build(3, fam.default_scale(), fam.default_knob(), 0)
            .unwrap();
        for l in 0..6 {
            let mut tabs = tableaux(&g);
            let path = pivot_path(&mut tabs, 3, l);
            if l == 2 {
                assert!(matches!(path, Err(p) if p < 64), "label 2: {path:?}");
                assert_eq!(lemke_howson(&g, l), Err(GameError::SingularSystem));
            } else {
                assert!(path.is_ok(), "label {l}: {path:?}");
                let eq = lemke_howson(&g, l).unwrap();
                assert!(
                    g.is_equilibrium(&eq.row, &eq.col, 1e-7),
                    "label {l} gave non-equilibrium {eq}"
                );
            }
        }
    }

    #[test]
    fn drifting_cycle_still_runs_to_the_pivot_bound() {
        // Degenerate 5x5 game, seed 2, label 9: the basis cycles while the
        // values drift in their last bits, so no state repeats exactly.
        let fam = Family::Degenerate;
        let g = fam
            .build(5, fam.default_scale(), fam.default_knob(), 2)
            .unwrap();
        let mut tabs = tableaux(&g);
        assert_eq!(pivot_path(&mut tabs, 5, 9), Err(MAX_PIVOTS));
        assert_eq!(lemke_howson(&g, 9), Err(GameError::SingularSystem));
    }
}
