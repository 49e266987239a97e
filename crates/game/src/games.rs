//! Named benchmark game instances.
//!
//! The three paper benchmarks (Sec. 4.2) come from Khan et al. \[8]:
//! *Battle of the Sexes* (2 actions), *Bird Game* (3 actions) and *Modified
//! Prisoner's Dilemma* (8 actions). Battle of the Sexes uses the standard
//! textbook payoffs. The exact payoff matrices of the other two instances
//! are not recoverable from the sources available offline, so this module
//! provides faithful stand-ins with the same action counts and the same
//! qualitative equilibrium structure (a mixture of pure and mixed NE, all
//! representable on the crossbar's probability grid). Coverage is always
//! measured against each stand-in's own ground-truth equilibrium set, so
//! the paper's coverage-relative comparisons carry over even where the
//! equilibrium counts differ. Ground-truth sets come from
//! [`crate::support_enum`].

use crate::bimatrix::BimatrixGame;
use crate::error::GameError;
use crate::matrix::Matrix;

/// Default probability-grid interval count that makes every equilibrium of
/// every benchmark game exactly representable (`lcm` of the denominators
/// 2, 3, 4 appearing in the mixed equilibria).
pub const BENCHMARK_INTERVALS: u32 = 12;

fn must(m: Result<Matrix, GameError>) -> Matrix {
    m.expect("benchmark payoff matrices are statically valid")
}

/// *Battle of the Sexes* — paper benchmark 1 (2 actions).
///
/// `M = [[2,0],[0,1]]`, `N = [[1,0],[0,2]]`. Equilibria: two pure
/// (coordinate on either event) and one mixed `p=(2/3,1/3), q=(1/3,2/3)`;
/// 3 in total, matching the paper's target of 3 solutions.
pub fn battle_of_the_sexes() -> BimatrixGame {
    let m = must(Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 1.0]]));
    let n = must(Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0]]));
    BimatrixGame::new("Battle of the Sexes", m, n).expect("shapes match")
}

/// *Bird Game* — paper benchmark 2 stand-in (3 actions).
///
/// Two birds each choose a nesting site of value 4, 2 or 1. If they pick
/// different sites each enjoys its site's value; if they collide both get
/// nothing. This anti-coordination contest has two pure equilibria
/// (the birds split the two best sites either way) and one mixed
/// equilibrium `p = q = (2/3, 1/3, 0)` — all on the `1/12` grid.
///
/// The original instance from Khan et al. \[8] reports 6 target solutions;
/// our stand-in has 3. Fig. 9 compares coverage relative to each game's
/// own ground truth, so that comparison is preserved.
pub fn bird_game() -> BimatrixGame {
    // M[i][j] = v_i if i != j else 0 ; N = M transposed structure.
    let v = [4.0, 2.0, 1.0];
    let mut m = must(Matrix::filled(3, 3, 0.0));
    let mut n = must(Matrix::filled(3, 3, 0.0));
    for i in 0..3 {
        for j in 0..3 {
            if i != j {
                m[(i, j)] = v[i];
                n[(i, j)] = v[j];
            }
        }
    }
    BimatrixGame::new("Bird Game", m, n).expect("shapes match")
}

/// *Modified Prisoner's Dilemma* — paper benchmark 3 stand-in (8 actions).
///
/// Each prisoner chooses Cooperate or Defect together with one of four
/// "signal" variants (actions 0–3 cooperate, 4–7 defect). Base payoffs are
/// the classic PD (`CC=3, CD=0, DC=5, DD=1`) plus a `+1` coordination bonus
/// when both defect with the *same* variant. Defection strictly dominates,
/// and the defect block is a 4-action coordination subgame, so the game has
/// exactly 15 equilibria: 4 pure and 11 mixed (uniform mixtures over every
/// non-empty subset of defect variants), all on the `1/12` grid.
///
/// The original instance reports 25 target solutions; ours has 15 with the
/// same many-equilibria character.
pub fn modified_prisoners_dilemma() -> BimatrixGame {
    let n_act = 8;
    let is_defect = |a: usize| a >= 4;
    let variant = |a: usize| a % 4;
    let mut m = must(Matrix::filled(n_act, n_act, 0.0));
    let mut n = must(Matrix::filled(n_act, n_act, 0.0));
    for i in 0..n_act {
        for j in 0..n_act {
            let (di, dj) = (is_defect(i), is_defect(j));
            let base_row = match (di, dj) {
                (false, false) => 3.0,
                (false, true) => 0.0,
                (true, false) => 5.0,
                (true, true) => 1.0 + if variant(i) == variant(j) { 1.0 } else { 0.0 },
            };
            let base_col = match (di, dj) {
                (false, false) => 3.0,
                (false, true) => 5.0,
                (true, false) => 0.0,
                (true, true) => 1.0 + if variant(i) == variant(j) { 1.0 } else { 0.0 },
            };
            m[(i, j)] = base_row;
            n[(i, j)] = base_col;
        }
    }
    BimatrixGame::new("Modified Prisoner's Dilemma", m, n).expect("shapes match")
}

/// Classic *Prisoner's Dilemma* (action 0 = cooperate, 1 = defect).
pub fn prisoners_dilemma() -> BimatrixGame {
    let m = must(Matrix::from_rows(&[vec![3.0, 0.0], vec![5.0, 1.0]]));
    let n = m.transposed();
    BimatrixGame::new("Prisoner's Dilemma", m, n).expect("shapes match")
}

/// *Matching Pennies* — zero-sum, unique fully mixed equilibrium.
pub fn matching_pennies() -> BimatrixGame {
    let m = must(Matrix::from_rows(&[vec![1.0, -1.0], vec![-1.0, 1.0]]));
    BimatrixGame::zero_sum("Matching Pennies", m).expect("valid")
}

/// *Rock–Paper–Scissors* — zero-sum, unique uniform equilibrium.
pub fn rock_paper_scissors() -> BimatrixGame {
    let m = must(Matrix::from_rows(&[
        vec![0.0, -1.0, 1.0],
        vec![1.0, 0.0, -1.0],
        vec![-1.0, 1.0, 0.0],
    ]));
    BimatrixGame::zero_sum("Rock-Paper-Scissors", m).expect("valid")
}

/// *Stag Hunt* — two pure and one mixed equilibrium (`q_stag = 3/4`).
pub fn stag_hunt() -> BimatrixGame {
    let m = must(Matrix::from_rows(&[vec![4.0, 0.0], vec![3.0, 3.0]]));
    BimatrixGame::symmetric("Stag Hunt", m).expect("square")
}

/// *Hawk–Dove* with `V = 2, C = 4` — two pure anti-coordination
/// equilibria and the mixed ESS `p_hawk = 1/2`.
pub fn hawk_dove() -> BimatrixGame {
    let m = must(Matrix::from_rows(&[vec![-1.0, 2.0], vec![0.0, 1.0]]));
    BimatrixGame::symmetric("Hawk-Dove", m).expect("square")
}

/// Pure coordination on `n` actions (`M = N = Iₙ`), which has `2ⁿ − 1`
/// equilibria (one uniform mixture per non-empty action subset).
///
/// # Errors
///
/// Returns [`GameError::EmptyActionSet`] if `n == 0`.
pub fn coordination(n: usize) -> Result<BimatrixGame, GameError> {
    let m = Matrix::identity(n)?;
    BimatrixGame::new(format!("Coordination-{n}"), m.clone(), m)
}

/// One paper benchmark together with its evaluation parameters from
/// Sec. 4.2 (iterations per SA run).
#[derive(Debug, Clone)]
pub struct PaperBenchmark {
    /// The game instance.
    pub game: BimatrixGame,
    /// SA iterations per run used in the paper for this instance.
    pub paper_iterations: usize,
    /// Number of distinct target solutions the *paper* reports for its
    /// (unavailable) instance — ours may differ (see [`bird_game`] and
    /// [`modified_prisoners_dilemma`]).
    pub paper_target_solutions: usize,
}

/// The three benchmarks of Table 1 / Figs. 8–10, with their paper
/// parameters (5000 SA runs of 10000/15000/50000 iterations).
pub fn paper_benchmarks() -> Vec<PaperBenchmark> {
    vec![
        PaperBenchmark {
            game: battle_of_the_sexes(),
            paper_iterations: 10_000,
            paper_target_solutions: 3,
        },
        PaperBenchmark {
            game: bird_game(),
            paper_iterations: 15_000,
            paper_target_solutions: 6,
        },
        PaperBenchmark {
            game: modified_prisoners_dilemma(),
            paper_iterations: 50_000,
            paper_target_solutions: 25,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::MixedStrategy;
    use crate::support_enum::{count_by_kind, enumerate_equilibria};

    #[test]
    fn bos_payoffs() {
        let g = battle_of_the_sexes();
        assert_eq!(g.row_payoffs()[(0, 0)], 2.0);
        assert_eq!(g.col_payoffs()[(1, 1)], 2.0);
    }

    #[test]
    fn bird_game_equilibrium_structure() {
        let g = bird_game();
        let eqs = enumerate_equilibria(&g, 1e-9);
        let (pure, mixed) = count_by_kind(&eqs, 1e-6);
        assert_eq!(
            (pure, mixed),
            (2, 1),
            "bird game should have 2 pure + 1 mixed"
        );
        // All equilibria on the 1/12 grid.
        for e in &eqs {
            assert!(e.row.is_on_grid(BENCHMARK_INTERVALS, 1e-9), "{e}");
            assert!(e.col.is_on_grid(BENCHMARK_INTERVALS, 1e-9), "{e}");
        }
    }

    #[test]
    fn bird_game_mixed_values() {
        let g = bird_game();
        let p = MixedStrategy::new(vec![2.0 / 3.0, 1.0 / 3.0, 0.0]).unwrap();
        let q = p.clone();
        assert!(g.is_equilibrium(&p, &q, 1e-9));
    }

    #[test]
    fn mpd8_has_fifteen_equilibria() {
        let g = modified_prisoners_dilemma();
        let eqs = enumerate_equilibria(&g, 1e-9);
        assert_eq!(eqs.len(), 15);
        let (pure, mixed) = count_by_kind(&eqs, 1e-6);
        assert_eq!((pure, mixed), (4, 11));
    }

    #[test]
    fn mpd8_defection_dominates() {
        let g = modified_prisoners_dilemma();
        // Every equilibrium support lies within the defect block (actions 4-7).
        for e in enumerate_equilibria(&g, 1e-9) {
            for a in e.row.support(1e-9) {
                assert!(a >= 4, "cooperate action {a} in equilibrium support");
            }
        }
    }

    #[test]
    fn mpd8_equilibria_on_grid() {
        let g = modified_prisoners_dilemma();
        for e in enumerate_equilibria(&g, 1e-9) {
            assert!(e.row.is_on_grid(BENCHMARK_INTERVALS, 1e-9));
            assert!(e.col.is_on_grid(BENCHMARK_INTERVALS, 1e-9));
        }
    }

    #[test]
    fn stag_hunt_mixed_on_grid() {
        let g = stag_hunt();
        let eqs = enumerate_equilibria(&g, 1e-9);
        assert_eq!(eqs.len(), 3);
        for e in &eqs {
            assert!(e.row.is_on_grid(BENCHMARK_INTERVALS, 1e-9));
        }
    }

    #[test]
    fn hawk_dove_structure() {
        let eqs = enumerate_equilibria(&hawk_dove(), 1e-9);
        let (pure, mixed) = count_by_kind(&eqs, 1e-6);
        assert_eq!((pure, mixed), (2, 1));
    }

    #[test]
    fn rps_unique_uniform() {
        let eqs = enumerate_equilibria(&rock_paper_scissors(), 1e-9);
        assert_eq!(eqs.len(), 1);
        for &p in eqs[0].row.probs() {
            assert!((p - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn coordination_counts() {
        assert_eq!(
            enumerate_equilibria(&coordination(2).unwrap(), 1e-9).len(),
            3
        );
        assert_eq!(
            enumerate_equilibria(&coordination(4).unwrap(), 1e-9).len(),
            15
        );
    }

    #[test]
    fn paper_benchmarks_metadata() {
        let b = paper_benchmarks();
        assert_eq!(b.len(), 3);
        assert_eq!(b[0].game.row_actions(), 2);
        assert_eq!(b[1].game.row_actions(), 3);
        assert_eq!(b[2].game.row_actions(), 8);
        assert_eq!(b[2].paper_iterations, 50_000);
    }

    #[test]
    fn payoff_matrices_are_nonneg_integers_after_offset() {
        // The crossbar mapping requires integer payoffs after offsetting;
        // all benchmark games satisfy this with unit scale.
        for b in paper_benchmarks() {
            let m = b.game.row_payoffs();
            let off = m.map(|x| x - m.min());
            assert!(off.is_nonneg_integer(1e-9), "{}", b.game.name());
        }
    }
}
