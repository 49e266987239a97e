//! Counterfactual-regret solver family (extension): external-sampling
//! regret matching on a [`BimatrixGame`].
//!
//! Each iteration samples both players' actions from their current
//! regret-matching strategies (external sampling, Lanctot et al. 2009),
//! lets the row and then the column player traverse against the other's
//! sampled action, updates clipped cumulative regrets (RM+, Tammelin
//! 2014), and folds the current strategies into linearly weighted
//! averages. The average pair converges to the coarse-correlated-
//! equilibrium set — to a Nash equilibrium in zero-sum games, but not in
//! general-sum ones; the `diffcheck` harness cross-checks it against the
//! exact oracles.
//!
//! # Claim discipline
//!
//! A learning dynamic's average strategy is an *approximate* profile, so
//! the solver never claims it as an equilibrium. Instead it keeps two
//! candidates per checkpoint:
//!
//! * the **best average iterate** — the checkpointed average pair with
//!   the lowest exact exploitability ([`BimatrixGame::nash_gap`]) seen so
//!   far, returned with `is_equilibrium: false` and the exploitability as
//!   `measured_objective`, and
//! * the **pure snap** — each player's argmax of the average strategy,
//!   claimed (`is_equilibrium: true`) only when both exact regrets are
//!   within [`CfrConfig::claim_tolerance`]. Pure profiles evaluate
//!   exactly in floating point, so a claim is a certificate, not a
//!   heuristic; the run stops at the claiming checkpoint.

use crate::error::CoreError;
use crate::solver::{NashSolver, RunOutcome};
use cnash_anneal::engine::HitRecorder;
use cnash_game::{BimatrixGame, Game, MixedStrategy};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Nominal per-iteration latency (seconds) used for the abstract time
/// axis of [`RunOutcome`]. CFR is a software baseline with no hardware
/// time model; a fixed constant keeps runs bit-reproducible (wall-clock
/// timing would break golden-stream comparisons).
const CFR_ITERATION_TIME: f64 = 20e-9;

/// Seed-stream tag so CFR draws differ from the SA solvers at equal
/// seeds.
const CFR_SEED_TAG: u64 = 0xCF12_3CF1;

/// Tuning knobs for [`CfrSolver`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfrConfig {
    /// External-sampling iterations per run.
    pub iterations: usize,
    /// Number of evenly spaced checkpoints at which the average profile
    /// is exactly evaluated (and the pure snap tested). Clamped to at
    /// least one; the final iteration always checkpoints.
    pub checkpoints: usize,
    /// Maximum exact per-player regret for the pure snap to be claimed
    /// as an equilibrium.
    pub claim_tolerance: f64,
}

impl CfrConfig {
    /// Default configuration sized for the benchmark-scale games in
    /// this workspace (actions ≤ 8 per player).
    pub fn new(iterations: usize) -> Self {
        Self {
            iterations,
            checkpoints: 64,
            claim_tolerance: 1e-9,
        }
    }
}

impl Default for CfrConfig {
    fn default() -> Self {
        Self::new(50_000)
    }
}

/// External-sampling CFR solver on one bimatrix game.
pub struct CfrSolver {
    game: BimatrixGame,
    config: CfrConfig,
}

impl CfrSolver {
    /// Wraps `game` with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `iterations` is zero.
    pub fn new(game: &BimatrixGame, config: CfrConfig) -> Result<Self, CoreError> {
        if config.iterations == 0 {
            return Err(CoreError::InvalidConfig("cfr needs iterations > 0".into()));
        }
        Ok(Self {
            game: game.clone(),
            config,
        })
    }

    /// The configuration in effect.
    pub fn config(&self) -> &CfrConfig {
        &self.config
    }

    /// Regret-matching strategy: positive regrets normalised, uniform
    /// when no action has positive regret.
    fn matched_strategy(regrets: &[f64]) -> Vec<f64> {
        let positive: f64 = regrets.iter().filter(|r| **r > 0.0).sum();
        if positive > 0.0 {
            regrets.iter().map(|r| r.max(0.0) / positive).collect()
        } else {
            vec![1.0 / regrets.len() as f64; regrets.len()]
        }
    }

    fn sample(strategy: &[f64], rng: &mut StdRng) -> usize {
        let draw: f64 = rng.random();
        let mut acc = 0.0;
        for (a, w) in strategy.iter().enumerate() {
            acc += w;
            if draw < acc {
                return a;
            }
        }
        strategy.len() - 1
    }

    /// One traverser's update at iteration `t`: RM+ regrets against the
    /// sampled opponent action (`utilities` per own action), then the
    /// linearly weighted strategy sum.
    fn traverse(
        regrets: &mut [f64],
        sums: &mut [f64],
        strategy: &[f64],
        utilities: &[f64],
        t: usize,
    ) {
        let node_value: f64 = strategy.iter().zip(utilities).map(|(w, u)| w * u).sum();
        for (a, u) in utilities.iter().enumerate() {
            // RM+: clip cumulative regrets at zero.
            regrets[a] = (regrets[a] + u - node_value).max(0.0);
        }
        // Linear averaging: later iterates dominate the average.
        for (a, w) in strategy.iter().enumerate() {
            sums[a] += t as f64 * w;
        }
    }

    /// Normalises one player's weighted strategy sums.
    fn average(sums: &[f64]) -> MixedStrategy {
        let total: f64 = sums.iter().sum();
        MixedStrategy::new(sums.iter().map(|w| w / total).collect())
            .expect("weighted sums normalise to a distribution")
    }

    /// The argmax of one player's average, as a pure strategy.
    fn pure_snap(sums: &[f64]) -> MixedStrategy {
        let mut best = 0;
        for (a, w) in sums.iter().enumerate() {
            if *w > sums[best] {
                best = a;
            }
        }
        MixedStrategy::pure(sums.len(), best).expect("argmax is in range")
    }

    /// Larger exact regret of the pair (∞-norm, not the exploitability
    /// sum — claims bound each player individually).
    fn max_regret(&self, p: &MixedStrategy, q: &MixedStrategy) -> f64 {
        let (row, col) = self.game.regrets(p, q).expect("pair matches the game");
        [row, col].into_iter().fold(0.0, f64::max)
    }

    fn exploitability(&self, p: &MixedStrategy, q: &MixedStrategy) -> f64 {
        self.game.nash_gap(p, q).expect("pair matches the game")
    }
}

impl NashSolver for CfrSolver {
    fn name(&self) -> &str {
        "cfr"
    }

    fn game(&self) -> &dyn Game {
        &self.game
    }

    fn run(&self, seed: u64) -> RunOutcome {
        let (m, n) = (self.game.row_payoffs(), self.game.col_payoffs());
        let mut rng = StdRng::seed_from_u64(seed ^ CFR_SEED_TAG);
        let mut row_regrets = vec![0.0; self.game.row_actions()];
        let mut col_regrets = vec![0.0; self.game.col_actions()];
        let mut row_sums = row_regrets.clone();
        let mut col_sums = col_regrets.clone();
        let every = (self.config.iterations / self.config.checkpoints.max(1)).max(1);

        type Pair = (MixedStrategy, MixedStrategy);
        let mut best: Option<(Pair, f64)> = None;
        let mut claim: Option<(Pair, usize)> = None;
        let mut solutions = HitRecorder::new(true);
        let mut ran = 0;

        for t in 1..=self.config.iterations {
            ran = t;
            let row = Self::matched_strategy(&row_regrets);
            let col = Self::matched_strategy(&col_regrets);
            // External sampling: one joint pure draw from the current
            // strategies serves both traversers this iteration.
            let i = Self::sample(&row, &mut rng);
            let j = Self::sample(&col, &mut rng);
            Self::traverse(&mut row_regrets, &mut row_sums, &row, &m.col(j), t);
            Self::traverse(&mut col_regrets, &mut col_sums, &col, n.row(i), t);
            if t % every == 0 || t == self.config.iterations {
                let snap = (Self::pure_snap(&row_sums), Self::pure_snap(&col_sums));
                if self.max_regret(&snap.0, &snap.1) <= self.config.claim_tolerance {
                    solutions.record(&snap);
                    claim = Some((snap, t));
                    break;
                }
                let average = (Self::average(&row_sums), Self::average(&col_sums));
                let exploitability = self.exploitability(&average.0, &average.1);
                if best.as_ref().is_none_or(|(_, e)| exploitability < *e) {
                    best = Some((average, exploitability));
                }
            }
        }

        let (solutions, solutions_truncated) = solutions.into_parts();
        let total_time = ran as f64 * CFR_ITERATION_TIME;
        match claim {
            Some((snap, t)) => RunOutcome {
                measured_objective: self.exploitability(&snap.0, &snap.1),
                profile: Some(snap),
                is_equilibrium: true,
                hit_time: Some(t as f64 * CFR_ITERATION_TIME),
                total_time,
                solutions,
                solutions_truncated,
            },
            None => {
                let (average, exploitability) = best.expect("final iteration always checkpoints");
                RunOutcome {
                    profile: Some(average),
                    is_equilibrium: false,
                    hit_time: None,
                    total_time,
                    measured_objective: exploitability,
                    solutions,
                    solutions_truncated,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnash_game::games;

    fn solver(game: BimatrixGame, iterations: usize) -> CfrSolver {
        CfrSolver::new(&game, CfrConfig::new(iterations)).unwrap()
    }

    #[test]
    fn claims_the_pure_equilibrium_of_prisoners_dilemma() {
        let s = solver(games::prisoners_dilemma(), 5_000);
        let out = s.run(0);
        assert!(out.is_equilibrium);
        assert!(out.hit_time.is_some());
        assert!(out.measured_objective.abs() < 1e-12);
        let (p, q) = out.pair().expect("profile");
        assert_eq!(p.pure_action(1e-9), Some(1), "defect is dominant");
        assert_eq!(q.pure_action(1e-9), Some(1));
    }

    #[test]
    fn claims_are_exactly_verified_on_bos() {
        let g = games::battle_of_the_sexes();
        let s = solver(g.clone(), 20_000);
        for seed in 0..5 {
            let out = s.run(seed);
            if out.is_equilibrium {
                let (p, q) = out.pair().expect("profile");
                assert!(g.is_equilibrium(p, q, 1e-12));
            }
        }
    }

    #[test]
    fn never_claims_on_matching_pennies_but_converges() {
        // The unique NE is fully mixed — no pure snap can ever verify,
        // so CFR must report a low-exploitability average instead.
        let s = solver(games::matching_pennies(), 50_000);
        let out = s.run(3);
        assert!(!out.is_equilibrium);
        assert!(out.hit_time.is_none());
        assert!(
            out.measured_objective < 1e-2,
            "exploitability {}",
            out.measured_objective
        );
        let (p, _) = out.pair().expect("profile");
        assert!((p.prob(0) - 0.5).abs() < 0.05);
    }

    #[test]
    fn runs_are_reproducible() {
        let s = solver(games::bird_game(), 2_000);
        assert_eq!(s.run(7), s.run(7));
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(CfrSolver::new(&games::bird_game(), CfrConfig::new(0)).is_err());
    }
}
