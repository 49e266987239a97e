//! Extended game library (extension): additional named instances with
//! documented equilibrium structure, for tests, demos and scaling
//! studies beyond the three paper benchmarks.

use crate::bimatrix::BimatrixGame;
use crate::error::GameError;
use crate::matrix::Matrix;

fn must(m: Result<Matrix, GameError>) -> Matrix {
    m.expect("library payoff matrices are statically valid")
}

/// *Chicken* (anti-coordination with crash cost 10): two pure swerve/
/// straight equilibria plus a mixed one at `p_straight = 1/10` — off the
/// 1/12 grid, making it a useful ε-NE test case.
pub fn chicken() -> BimatrixGame {
    let m = must(Matrix::from_rows(&[vec![0.0, -1.0], vec![1.0, -10.0]]));
    BimatrixGame::symmetric("Chicken", m).expect("square")
}

/// *Inspection game* (zero-sum flavoured): an inspector chooses to audit
/// or not; a worker chooses to comply or shirk. No pure equilibrium; the
/// unique mixed equilibrium has audit probability 1/2 and shirk
/// probability 1/3 at these payoffs.
pub fn inspection_game() -> BimatrixGame {
    // Rows: inspector {audit, trust}; cols: worker {comply, shirk}.
    let m = must(Matrix::from_rows(&[vec![0.0, 4.0], vec![2.0, 0.0]]));
    let n = must(Matrix::from_rows(&[vec![2.0, 0.0], vec![2.0, 4.0]]));
    BimatrixGame::new("Inspection Game", m, n).expect("shapes")
}

/// *Quantized traveler's dilemma* with claims `{2, 3}` and bonus 2:
/// unique equilibrium at the lowest claim despite higher joint payoffs
/// above — the classic rationality stress test, miniaturised.
pub fn travelers_dilemma_mini() -> BimatrixGame {
    // payoff(i, j) = min(ci, cj) + 2·sign(j−i) with claims c = {2, 3}.
    let m = must(Matrix::from_rows(&[vec![2.0, 4.0], vec![0.0, 3.0]]));
    BimatrixGame::symmetric("Traveler's Dilemma (mini)", m).expect("square")
}

/// *Public goods* with two contribution levels (0 or full), multiplier
/// 1.5 split two ways: contributing returns only 0.75 per unit, so free-
/// riding dominates — unique (defect, defect) equilibrium.
pub fn public_goods_binary() -> BimatrixGame {
    // Endowment 4; contribute all or nothing; pot × 1.5 split evenly:
    // payoff = kept + 0.75 × (own + other contribution).
    // (C,C) = 6, (C,K) = 3, (K,C) = 7, (K,K) = 4.
    let m = must(Matrix::from_rows(&[vec![6.0, 3.0], vec![7.0, 4.0]]));
    BimatrixGame::symmetric("Public Goods (binary)", m).expect("square")
}

/// *Asymmetric matching pennies* (Goeree–Holt "10-40" flavour): unique
/// mixed equilibrium pushed off 50/50 for the column player only —
/// exercises asymmetric mixed-strategy search.
pub fn asymmetric_matching_pennies() -> BimatrixGame {
    let m = must(Matrix::from_rows(&[vec![4.0, 0.0], vec![0.0, 1.0]]));
    let n = must(Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]));
    BimatrixGame::new("Asymmetric Matching Pennies", m, n).expect("shapes")
}

/// *Deadlock*: like Prisoner's Dilemma but mutual defection is jointly
/// optimal — a dominance-solvable sanity instance.
pub fn deadlock() -> BimatrixGame {
    let m = must(Matrix::from_rows(&[vec![1.0, 0.0], vec![3.0, 2.0]]));
    BimatrixGame::symmetric("Deadlock", m).expect("square")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::StrategyKind;
    use crate::support_enum::{count_by_kind, enumerate_equilibria};
    use crate::MixedStrategy;

    #[test]
    fn chicken_structure() {
        let eqs = enumerate_equilibria(&chicken(), 1e-9);
        let (pure, mixed) = count_by_kind(&eqs, 1e-6);
        assert_eq!((pure, mixed), (2, 1));
        // Mixed: straight with probability 1/10 (indifference:
        // −s = 1 − 11s).
        let m = eqs
            .iter()
            .find(|e| e.kind(1e-6) == StrategyKind::Mixed)
            .expect("mixed NE");
        assert!((m.row.prob(1) - 0.1).abs() < 1e-9, "{}", m.row);
    }

    #[test]
    fn inspection_game_unique_mixed() {
        let g = inspection_game();
        let eqs = enumerate_equilibria(&g, 1e-9);
        assert_eq!(eqs.len(), 1);
        let e = &eqs[0];
        assert_eq!(e.kind(1e-6), StrategyKind::Mixed);
        // Inspector indifference (4s = 2(1−s)) gives shirk s = 1/3;
        // worker indifference (2 = 4(1−a)) gives audit a = 1/2.
        assert!(g.is_equilibrium(&e.row, &e.col, 1e-9));
        assert!((e.row.prob(0) - 0.5).abs() < 1e-9, "audit prob {}", e.row);
        assert!(
            (e.col.prob(1) - 1.0 / 3.0).abs() < 1e-9,
            "shirk prob {}",
            e.col
        );
    }

    #[test]
    fn travelers_dilemma_unique_low_claim() {
        let eqs = enumerate_equilibria(&travelers_dilemma_mini(), 1e-9);
        assert_eq!(eqs.len(), 1);
        assert_eq!(eqs[0].row.pure_action(1e-6), Some(0), "lowest claim wins");
    }

    #[test]
    fn public_goods_free_riding_dominates() {
        let g = public_goods_binary();
        let eqs = enumerate_equilibria(&g, 1e-9);
        assert_eq!(eqs.len(), 1);
        assert_eq!(eqs[0].row.pure_action(1e-6), Some(1));
    }

    #[test]
    fn asymmetric_pennies_mixed_off_centre() {
        let g = asymmetric_matching_pennies();
        let eqs = enumerate_equilibria(&g, 1e-9);
        assert_eq!(eqs.len(), 1);
        let e = &eqs[0];
        // Row player still mixes 50/50; the column player compensates
        // the 4-vs-1 asymmetry by playing the first column with 1/5.
        assert!((e.row.prob(0) - 0.5).abs() < 1e-9);
        assert!((e.col.prob(0) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn deadlock_is_dominance_solvable() {
        let g = deadlock();
        let eqs = enumerate_equilibria(&g, 1e-9);
        assert_eq!(eqs.len(), 1);
        assert_eq!(eqs[0].row.pure_action(1e-6), Some(1));
    }

    #[test]
    fn all_library_games_have_verified_equilibria() {
        for g in [
            chicken(),
            inspection_game(),
            travelers_dilemma_mini(),
            public_goods_binary(),
            asymmetric_matching_pennies(),
            deadlock(),
        ] {
            let eqs = enumerate_equilibria(&g, 1e-9);
            assert!(!eqs.is_empty(), "{} has no equilibria", g.name());
            for e in &eqs {
                assert!(g.is_equilibrium(&e.row, &e.col, 1e-7), "{}", g.name());
            }
        }
    }

    #[test]
    fn chicken_mixed_equilibrium_needs_fine_grid() {
        // p = 1/10 is not on the 1/12 grid: documents the ε-NE case.
        let eqs = enumerate_equilibria(&chicken(), 1e-9);
        let m = eqs
            .iter()
            .find(|e| e.kind(1e-6) == StrategyKind::Mixed)
            .expect("mixed NE");
        assert!(!m.row.is_on_grid(12, 1e-9));
        assert!(m.row.is_on_grid(10, 1e-9));
        let _ = MixedStrategy::uniform(2).unwrap();
    }
}
