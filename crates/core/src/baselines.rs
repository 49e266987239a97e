//! The paper's baselines: S-QUBO on emulated D-Wave annealers.

use crate::error::CoreError;
use crate::solver::{NashSolver, RunOutcome};
use cnash_game::{BimatrixGame, Game};
use cnash_qubo::dwave::DWaveModel;
use cnash_qubo::squbo::{SQubo, SQuboWeights};
use std::sync::Arc;

/// A quantum-annealer Nash solver: Eq. 6 S-QUBO + emulated QPU sampling.
///
/// One "run" programs the QUBO once and draws `reads_per_run` samples; the
/// returned solution is the lowest-energy sample. Time accounting follows
/// QPU access time; the hit time is the access time up to the first sample
/// that decodes to a true equilibrium.
#[derive(Debug, Clone)]
pub struct DWaveNashSolver {
    name: String,
    game: BimatrixGame,
    model: DWaveModel,
    squbo: Arc<SQubo>,
    reads_per_run: usize,
}

impl DWaveNashSolver {
    /// Builds the S-QUBO for `game` and wraps the device model.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `reads_per_run` is zero
    /// (a run returns its best read), and [`CoreError::SQubo`] if the
    /// game's payoffs cannot be binary-encoded (non-integer after
    /// offsetting).
    pub fn new(
        game: &BimatrixGame,
        model: DWaveModel,
        reads_per_run: usize,
    ) -> Result<Self, CoreError> {
        let squbo = SQubo::build(game, &SQuboWeights::default())?;
        Self::from_programmed(game, model, reads_per_run, Arc::new(squbo))
    }

    /// Rebuilds a baseline solver around an already-built S-QUBO,
    /// skipping the QUBO construction. The device model and reads
    /// budget are per-request state and do not affect the programmed
    /// instance, so one cached S-QUBO serves every model/read sweep
    /// over the same game.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `reads_per_run` is zero
    /// or the S-QUBO's shape does not match the game.
    pub fn from_programmed(
        game: &BimatrixGame,
        model: DWaveModel,
        reads_per_run: usize,
        squbo: Arc<SQubo>,
    ) -> Result<Self, CoreError> {
        if reads_per_run == 0 {
            return Err(CoreError::InvalidConfig(
                "dwave needs reads_per_run > 0".into(),
            ));
        }
        let dims = (game.row_actions(), game.col_actions());
        if squbo.shape() != dims {
            return Err(CoreError::InvalidConfig(format!(
                "programmed S-QUBO is {:?}, game `{}` is {:?}",
                squbo.shape(),
                game.name(),
                dims
            )));
        }
        Ok(Self {
            name: model.name.clone(),
            game: game.clone(),
            model,
            squbo,
            reads_per_run,
        })
    }

    /// The emulated device.
    pub fn model(&self) -> &DWaveModel {
        &self.model
    }

    /// The S-QUBO instance (exposes the slack-variable blow-up).
    pub fn squbo(&self) -> &SQubo {
        &self.squbo
    }

    /// Reads per run.
    pub fn reads_per_run(&self) -> usize {
        self.reads_per_run
    }

    fn per_read_time(&self) -> f64 {
        self.model.anneal_time + self.model.readout_time + self.model.delay_time
    }
}

impl NashSolver for DWaveNashSolver {
    fn name(&self) -> &str {
        &self.name
    }

    fn game(&self) -> &dyn Game {
        &self.game
    }

    fn run(&self, seed: u64) -> RunOutcome {
        let samples = self
            .model
            .sample(self.squbo.qubo(), self.reads_per_run, seed);
        let mut best: Option<(usize, f64, Vec<bool>)> = None;
        let mut first_true_hit: Option<usize> = None;
        let mut solutions = cnash_anneal::engine::HitRecorder::new(true);
        for (k, x) in samples.into_iter().enumerate() {
            let e = self.squbo.qubo().energy(&x);
            if best.as_ref().is_none_or(|(_, be, _)| e < *be) {
                best = Some((k, e, x.clone()));
            }
            let d = self.squbo.decode(&x);
            if let Some((p, q)) = d.profile {
                if self.game.is_equilibrium(&p, &q, 1e-9) {
                    if first_true_hit.is_none() {
                        first_true_hit = Some(k);
                    }
                    solutions.record(&(p, q));
                }
            }
        }
        let (solutions, solutions_truncated) = solutions.into_parts();
        let (_, best_energy, best_x) = best.expect("at least one read");
        let decoded = self.squbo.decode(&best_x);
        let is_eq = decoded
            .profile
            .as_ref()
            .map(|(p, q)| self.game.is_equilibrium(p, q, 1e-9))
            .unwrap_or(false);
        RunOutcome {
            profile: decoded.profile,
            is_equilibrium: is_eq,
            hit_time: first_true_hit
                .map(|k| self.model.programming_time + (k + 1) as f64 * self.per_read_time()),
            total_time: self.model.qpu_access_time(self.reads_per_run),
            measured_objective: best_energy,
            solutions,
            solutions_truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnash_game::equilibrium::StrategyKind;
    use cnash_game::games;
    use cnash_game::Equilibrium;

    #[test]
    fn solves_bos_with_2000q() {
        let g = games::battle_of_the_sexes();
        let s = DWaveNashSolver::new(&g, DWaveModel::dwave_2000q(), 50).unwrap();
        let out = s.run(1);
        assert!(out.is_equilibrium, "2000Q should solve BoS easily");
        let (p, q) = out.profile.expect("decoded");
        let eq = Equilibrium::from_profile(&g, p, q);
        // Baselines can only ever return pure profiles.
        assert_eq!(eq.kind(1e-9), StrategyKind::Pure);
    }

    #[test]
    fn reprogrammed_baseline_is_bit_identical() {
        let g = games::battle_of_the_sexes();
        let cold = DWaveNashSolver::new(&g, DWaveModel::dwave_2000q(), 5).unwrap();
        let squbo = Arc::new(SQubo::build(&g, &SQuboWeights::default()).unwrap());
        // Same game, different model/reads: the cached S-QUBO is shared.
        let warm =
            DWaveNashSolver::from_programmed(&g, DWaveModel::dwave_2000q(), 5, Arc::clone(&squbo))
                .unwrap();
        assert_eq!(cold.run(3), warm.run(3));
        let advantage = DWaveNashSolver::from_programmed(
            &g,
            DWaveModel::advantage_4_1(),
            2,
            Arc::clone(&squbo),
        )
        .unwrap();
        assert_eq!(advantage.reads_per_run(), 2);
        // Shape mismatches are rejected.
        assert!(DWaveNashSolver::from_programmed(
            &games::bird_game(),
            DWaveModel::dwave_2000q(),
            1,
            squbo
        )
        .is_err());
    }

    #[test]
    fn zero_reads_per_run_is_rejected_by_both_constructors() {
        let g = games::battle_of_the_sexes();
        let expect_invalid = |r: Result<DWaveNashSolver, CoreError>| match r {
            Err(CoreError::InvalidConfig(msg)) => assert!(msg.contains("reads_per_run"), "{msg}"),
            other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
        };
        expect_invalid(DWaveNashSolver::new(&g, DWaveModel::dwave_2000q(), 0));
        let squbo = SQubo::build(&g, &SQuboWeights::default()).unwrap();
        expect_invalid(DWaveNashSolver::from_programmed(
            &g,
            DWaveModel::dwave_2000q(),
            0,
            Arc::new(squbo),
        ));
    }

    #[test]
    fn never_returns_mixed_profiles() {
        // Structural lossiness: strategies are single bits.
        let g = games::bird_game();
        let s = DWaveNashSolver::new(&g, DWaveModel::advantage_4_1(), 10).unwrap();
        for seed in 0..10 {
            if let Some((p, q)) = s.run(seed).profile {
                assert!(p.is_pure(1e-9) && q.is_pure(1e-9));
            }
        }
    }

    #[test]
    fn cannot_solve_matching_pennies() {
        // The only equilibrium is mixed; S-QUBO cannot represent it.
        let g = games::matching_pennies();
        let s = DWaveNashSolver::new(&g, DWaveModel::dwave_2000q(), 100).unwrap();
        for seed in 0..5 {
            assert!(!s.run(seed).is_equilibrium);
        }
    }

    #[test]
    fn timing_accounts_programming_and_reads() {
        let g = games::battle_of_the_sexes();
        let s = DWaveNashSolver::new(&g, DWaveModel::dwave_2000q(), 100).unwrap();
        let out = s.run(0);
        assert!((out.total_time - s.model().qpu_access_time(100)).abs() < 1e-12);
        if let Some(h) = out.hit_time {
            assert!(h <= out.total_time + 1e-12);
            assert!(h >= s.model().programming_time);
        }
    }

    #[test]
    fn runs_reproducible() {
        let g = games::bird_game();
        let s = DWaveNashSolver::new(&g, DWaveModel::advantage_4_1(), 20).unwrap();
        assert_eq!(s.run(9), s.run(9));
    }
}
