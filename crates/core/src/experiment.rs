//! Evaluation harness reproducing the paper's Sec. 4 artefacts.
//!
//! For each (game, solver) pair the runner executes many independent
//! seeded runs and aggregates:
//!
//! * **success rate** — fraction of runs whose returned solution is a true
//!   equilibrium (Table 1),
//! * **solution distribution** — error / pure-NE / mixed-NE percentages
//!   (Fig. 8),
//! * **coverage** — distinct equilibria found vs the support-enumeration
//!   ground truth (Fig. 9),
//! * **time to solution** — mean model time per found solution and the
//!   99 %-confidence restart TTS (Fig. 10).

use crate::solver::{NashSolver, RunOutcome};
use crate::timing::tts99;
use cnash_game::equilibrium::{coverage, StrategyKind};
use cnash_game::{BimatrixGame, Equilibrium};

/// Per-run solution classification tallies (Fig. 8 buckets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolutionDistribution {
    /// Runs whose solution is not an equilibrium (or undecodable).
    pub error: usize,
    /// Runs that returned a pure equilibrium.
    pub pure_ne: usize,
    /// Runs that returned a mixed equilibrium.
    pub mixed_ne: usize,
}

impl SolutionDistribution {
    /// Total classified runs.
    pub fn total(&self) -> usize {
        self.error + self.pure_ne + self.mixed_ne
    }

    /// `(error %, pure %, mixed %)` of total runs.
    pub fn percentages(&self) -> (f64, f64, f64) {
        let t = self.total().max(1) as f64;
        (
            100.0 * self.error as f64 / t,
            100.0 * self.pure_ne as f64 / t,
            100.0 * self.mixed_ne as f64 / t,
        )
    }
}

/// Aggregated report of one (solver, game) evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct GameReport {
    /// Solver name.
    pub solver: String,
    /// Game name.
    pub game: String,
    /// Number of runs executed.
    pub runs: usize,
    /// Fraction of runs returning a true equilibrium, in percent
    /// (Table 1).
    pub success_rate: f64,
    /// Fig. 8 buckets.
    pub distribution: SolutionDistribution,
    /// Distinct true equilibria found across all runs.
    pub distinct_found: Vec<Equilibrium>,
    /// Ground-truth equilibrium count.
    pub target_count: usize,
    /// How many ground-truth equilibria were found (Fig. 9).
    pub covered: usize,
    /// Mean model time per found solution (s): total model time spent
    /// divided by the number of successful runs (∞ if none succeeded).
    pub mean_time_to_solution: f64,
    /// 99 %-confidence restart TTS (s) based on per-run success
    /// probability and mean run time.
    pub tts99: f64,
    /// Mean model time of one full run (s).
    pub mean_run_time: f64,
    /// `true` when at least one folded run truncated its recorded
    /// solution set at the per-run cap — `covered` and `distinct_found`
    /// are then lower bounds, not exact counts.
    pub hits_truncated: bool,
}

impl GameReport {
    /// Coverage as a fraction in `[0, 1]`.
    pub fn coverage_fraction(&self) -> f64 {
        if self.target_count == 0 {
            1.0
        } else {
            self.covered as f64 / self.target_count as f64
        }
    }
}

/// Runs repeated solver evaluations with sequential seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentRunner {
    /// Independent runs per (solver, game) pair (paper: 5000).
    pub runs: usize,
    /// First seed; run `k` uses `base_seed + k`.
    pub base_seed: u64,
}

impl ExperimentRunner {
    /// Creates a runner.
    ///
    /// # Panics
    ///
    /// Panics if `runs == 0`.
    pub fn new(runs: usize, base_seed: u64) -> Self {
        assert!(runs > 0, "need at least one run");
        Self { runs, base_seed }
    }

    /// Evaluates `solver` against `ground_truth` equilibria of its game.
    pub fn evaluate(&self, solver: &dyn NashSolver, ground_truth: &[Equilibrium]) -> GameReport {
        let mut acc = ReportAccumulator::new(solver.name(), solver.game().bimatrix());
        for k in 0..self.runs {
            acc.fold(&solver.run(self.base_seed.wrapping_add(k as u64)));
        }
        acc.finish(ground_truth)
    }
}

/// Streaming fold of [`RunOutcome`]s into the statistics of a
/// [`GameReport`].
///
/// The accumulator holds O(distinct equilibria) state instead of all
/// outcomes, so arbitrarily large batches aggregate in constant memory.
/// Folding is *order-sensitive* in the floating-point sums; folding the
/// same outcomes in the same order always produces bit-identical
/// reports — the property the parallel runtime's deterministic
/// aggregation builds on.
#[derive(Debug, Clone)]
pub struct ReportAccumulator {
    solver: String,
    game: BimatrixGame,
    dist: SolutionDistribution,
    distinct: Vec<Equilibrium>,
    successes: usize,
    folded: usize,
    total_model_time: f64,
    run_time_sum: f64,
    hits_truncated: bool,
}

impl ReportAccumulator {
    /// Strategy-pair matching tolerance used for classification, dedup and
    /// coverage (the paper's exact-verification epsilon).
    pub const TOL: f64 = 1e-6;

    /// Creates an empty accumulator for a (solver, game) pair.
    pub fn new(solver_name: &str, game: &BimatrixGame) -> Self {
        Self {
            solver: solver_name.to_string(),
            game: game.clone(),
            dist: SolutionDistribution::default(),
            distinct: Vec::new(),
            successes: 0,
            folded: 0,
            total_model_time: 0.0,
            run_time_sum: 0.0,
            hits_truncated: false,
        }
    }

    /// Folds one run outcome into the aggregate.
    ///
    /// The outcome's `is_equilibrium` claim is re-verified against the
    /// game in exact arithmetic: a solver that flags success with a
    /// non-equilibrium profile (a contract violation) is tallied as an
    /// error and contributes nothing to coverage — which is what makes
    /// the runtime's early-stop conditions sound.
    pub fn fold(&mut self, out: &RunOutcome) {
        self.folded += 1;
        self.run_time_sum += out.total_time;
        self.hits_truncated |= out.solutions_truncated;
        match out.pair() {
            Some((p, q)) if out.is_equilibrium && self.game.is_equilibrium(p, q, Self::TOL) => {
                self.successes += 1;
                let eq = Equilibrium::from_profile(&self.game, p.clone(), q.clone());
                match eq.kind(Self::TOL) {
                    StrategyKind::Pure => self.dist.pure_ne += 1,
                    StrategyKind::Mixed => self.dist.mixed_ne += 1,
                }
                self.total_model_time += out.hit_time.unwrap_or(out.total_time);
                self.insert_distinct(eq);
            }
            _ => {
                self.dist.error += 1;
                self.total_model_time += out.total_time;
            }
        }
        // Every solver-flagged solution the run passed through counts
        // toward coverage, after exact verification.
        for (p, q) in &out.solutions {
            if self.game.is_equilibrium(p, q, Self::TOL) {
                let eq = Equilibrium::from_profile(&self.game, p.clone(), q.clone());
                self.insert_distinct(eq);
            }
        }
    }

    fn insert_distinct(&mut self, eq: Equilibrium) {
        if !self.distinct.iter().any(|e| e.same_profile(&eq, Self::TOL)) {
            self.distinct.push(eq);
        }
    }

    /// Runs folded so far.
    pub fn folded_runs(&self) -> usize {
        self.folded
    }

    /// Runs so far whose returned solution was a true equilibrium.
    pub fn successes(&self) -> usize {
        self.successes
    }

    /// Distinct verified equilibria seen so far (insertion order).
    pub fn distinct_found(&self) -> &[Equilibrium] {
        &self.distinct
    }

    /// How many of `ground_truth` the distinct found equilibria cover.
    pub fn covered(&self, ground_truth: &[Equilibrium]) -> usize {
        coverage(&self.distinct, ground_truth, Self::TOL)
    }

    /// Whether any folded run truncated its recorded solutions.
    pub fn hits_truncated(&self) -> bool {
        self.hits_truncated
    }

    /// Finalises the aggregate into a [`GameReport`].
    ///
    /// Zero folded runs (a batch cancelled before any work completed)
    /// yields an empty report: zero rates, infinite times.
    pub fn finish(self, ground_truth: &[Equilibrium]) -> GameReport {
        let covered = coverage(&self.distinct, ground_truth, Self::TOL);
        let denom = self.folded.max(1) as f64;
        let p_success = self.successes as f64 / denom;
        let mean_run_time = self.run_time_sum / denom;

        GameReport {
            solver: self.solver,
            game: self.game.name().to_string(),
            runs: self.folded,
            success_rate: 100.0 * p_success,
            distribution: self.dist,
            distinct_found: self.distinct,
            target_count: ground_truth.len(),
            covered,
            mean_time_to_solution: if self.successes > 0 {
                self.total_model_time / self.successes as f64
            } else {
                f64::INFINITY
            },
            tts99: tts99(mean_run_time, p_success),
            mean_run_time,
            hits_truncated: self.hits_truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::DWaveNashSolver;
    use crate::config::CNashConfig;
    use crate::solver::CNashSolver;
    use cnash_game::games;
    use cnash_game::support_enum::enumerate_equilibria;
    use cnash_qubo::dwave::DWaveModel;

    #[test]
    fn distribution_percentages() {
        let d = SolutionDistribution {
            error: 1,
            pure_ne: 2,
            mixed_ne: 1,
        };
        let (e, p, m) = d.percentages();
        assert_eq!((e, p, m), (25.0, 50.0, 25.0));
        assert_eq!(d.total(), 4);
    }

    #[test]
    fn cnash_bos_report_is_perfect() {
        let g = games::battle_of_the_sexes();
        let gt = enumerate_equilibria(&g, 1e-9);
        let solver = CNashSolver::new(&g, CNashConfig::ideal(12), 0).unwrap();
        let runner = ExperimentRunner::new(30, 100);
        let r = runner.evaluate(&solver, &gt);
        assert_eq!(r.success_rate, 100.0);
        assert_eq!(r.distribution.error, 0);
        assert!(
            r.covered >= 2,
            "covered {} of {}",
            r.covered,
            r.target_count
        );
        assert!(r.mean_time_to_solution.is_finite());
        assert!(r.tts99.is_finite());
    }

    #[test]
    fn cnash_finds_both_pure_and_mixed_on_bos() {
        let g = games::battle_of_the_sexes();
        let gt = enumerate_equilibria(&g, 1e-9);
        let solver = CNashSolver::new(&g, CNashConfig::ideal(12), 0).unwrap();
        let runner = ExperimentRunner::new(60, 0);
        let r = runner.evaluate(&solver, &gt);
        assert!(r.distribution.pure_ne > 0);
        // The walk passes through the mixed NE during runs even though the
        // returned best state is usually pure — coverage catches it.
        assert_eq!(r.covered, 3, "should cover all 3 BoS equilibria");
    }

    #[test]
    fn baseline_never_reports_mixed() {
        let g = games::battle_of_the_sexes();
        let gt = enumerate_equilibria(&g, 1e-9);
        let solver = DWaveNashSolver::new(&g, DWaveModel::dwave_2000q(), 20).unwrap();
        let runner = ExperimentRunner::new(20, 5);
        let r = runner.evaluate(&solver, &gt);
        assert_eq!(r.distribution.mixed_ne, 0);
        assert!(r.covered <= 2, "baseline cannot cover the mixed NE");
    }

    #[test]
    fn coverage_fraction_bounds() {
        let g = games::matching_pennies();
        let gt = enumerate_equilibria(&g, 1e-9);
        let solver = DWaveNashSolver::new(&g, DWaveModel::advantage_4_1(), 5).unwrap();
        let runner = ExperimentRunner::new(5, 0);
        let r = runner.evaluate(&solver, &gt);
        assert_eq!(r.covered, 0);
        assert_eq!(r.coverage_fraction(), 0.0);
        assert_eq!(r.success_rate, 0.0);
        assert!(r.mean_time_to_solution.is_infinite());
        assert!(r.tts99.is_infinite());
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_rejected() {
        let _ = ExperimentRunner::new(0, 0);
    }

    #[test]
    fn truncated_runs_flag_the_report() {
        use crate::solver::RunOutcome;
        let g = games::battle_of_the_sexes();
        let mut acc = ReportAccumulator::new("t", &g);
        let clean = RunOutcome {
            profile: None,
            is_equilibrium: false,
            hit_time: None,
            total_time: 1e-6,
            measured_objective: 1.0,
            solutions: Vec::new(),
            solutions_truncated: false,
        };
        acc.fold(&clean);
        assert!(!acc.hits_truncated());
        acc.fold(&RunOutcome {
            solutions_truncated: true,
            ..clean.clone()
        });
        assert!(acc.hits_truncated());
        // The flag is sticky and lands in the finished report.
        acc.fold(&clean);
        let report = acc.finish(&[]);
        assert!(report.hits_truncated);
    }
}
