//! Parallel batch execution of seeded solver runs.
//!
//! [`BatchRunner`] is the parallel counterpart of
//! `cnash_core::ExperimentRunner`: it fans `runs` independent seeded
//! runs of one solver across a worker pool, folds the outcomes through
//! the streaming [`ReportAccumulator`] **in seed order**, and so
//! produces bit-identical [`GameReport`]s at any thread count.
//!
//! An optional [`EarlyStop`] condition turns the batch into an anytime
//! computation: the runner broadcasts cancellation to the pool the
//! moment the folded prefix satisfies the condition, and reports
//! exactly that prefix. Early-stop decisions are made on *runtime
//! re-verified* equilibria (exact software check against the game), so
//! a buggy or adversarial solver claiming success cannot trigger a
//! stop.

use crate::pool::{effective_threads, fan_out_ordered, CancelToken};
use cnash_core::experiment::ReportAccumulator;
use cnash_core::{GameReport, NashSolver, RunOutcome};
use cnash_game::Equilibrium;
use std::ops::ControlFlow;
use std::time::Instant;

/// A condition that ends a batch before all scheduled runs execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EarlyStop {
    /// Stop once `n` runs returned a (re-verified) true equilibrium.
    Successes(usize),
    /// Stop once the distinct verified equilibria found cover `n`
    /// ground-truth equilibria.
    Coverage(usize),
}

impl EarlyStop {
    /// Stop at the first verified equilibrium — the portfolio default.
    pub const FIRST_VERIFIED: EarlyStop = EarlyStop::Successes(1);
}

/// Result of a batch execution.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Aggregated statistics over the executed prefix of runs.
    pub report: GameReport,
    /// Runs originally scheduled.
    pub scheduled_runs: usize,
    /// Runs actually folded into `report` (`< scheduled_runs` only when
    /// stopped early or cancelled).
    pub executed_runs: usize,
    /// Whether the early-stop condition ended the batch.
    pub stopped_early: bool,
    /// Whether an external (portfolio) cancellation ended the batch.
    pub cancelled: bool,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock duration of the batch (host time, not model time).
    pub wall_seconds: f64,
}

/// Runs repeated solver evaluations with sequential seeds, in parallel.
///
/// Seed assignment is by run index (`base_seed + k`), independent of
/// which worker executes the run, and aggregation folds outcomes in
/// index order — so for a fixed `(runs, base_seed, early_stop)` the
/// resulting [`GameReport`] is bit-identical at 1, 2 or 64 threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRunner {
    /// Independent runs per (solver, game) pair.
    pub runs: usize,
    /// First seed; run `k` uses `base_seed + k`.
    pub base_seed: u64,
    /// Worker threads (`0` = all available cores).
    pub threads: usize,
    /// Optional early-stop condition.
    pub early_stop: Option<EarlyStop>,
}

impl BatchRunner {
    /// Creates a runner using all available cores and no early stop.
    ///
    /// # Panics
    ///
    /// Panics if `runs == 0`.
    pub fn new(runs: usize, base_seed: u64) -> Self {
        assert!(runs > 0, "need at least one run");
        Self {
            runs,
            base_seed,
            threads: 0,
            early_stop: None,
        }
    }

    /// Returns a copy using `threads` workers (`0` = all cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns a copy with an early-stop condition.
    pub fn early_stop(mut self, stop: EarlyStop) -> Self {
        self.early_stop = Some(stop);
        self
    }

    /// Evaluates `solver` against `ground_truth`, in parallel.
    pub fn evaluate(&self, solver: &dyn NashSolver, ground_truth: &[Equilibrium]) -> BatchReport {
        self.evaluate_cancellable(solver, ground_truth, &CancelToken::new())
    }

    /// Like [`evaluate`](Self::evaluate), but additionally stops (with
    /// partial results) when `cancel` is cancelled externally — the
    /// portfolio runner's broadcast mechanism.
    pub fn evaluate_cancellable(
        &self,
        solver: &dyn NashSolver,
        ground_truth: &[Equilibrium],
        cancel: &CancelToken,
    ) -> BatchReport {
        let start = Instant::now();
        let mut acc = ReportAccumulator::new(solver.name(), solver.game().bimatrix());
        let mut stopped_early = false;

        let base_seed = self.base_seed;
        let executed = fan_out_ordered(
            self.runs,
            self.threads,
            cancel,
            |k| solver.run(base_seed.wrapping_add(k as u64)),
            |_k, out: RunOutcome| {
                acc.fold(&out);
                // The accumulator re-verifies every claimed success in
                // exact arithmetic, so these counts can never be
                // satisfied by an unverified "equilibrium".
                let stop = match self.early_stop {
                    Some(EarlyStop::Successes(n)) => acc.successes() >= n,
                    Some(EarlyStop::Coverage(n)) => acc.covered(ground_truth) >= n,
                    None => false,
                };
                if stop {
                    stopped_early = true;
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );

        // `cancelled` marks an external cancellation that actually cut
        // the batch short — a batch that finished (or early-stopped) all
        // on its own is not "cancelled" even if a sibling's broadcast
        // arrived after the fact.
        let cancelled = cancel.is_cancelled() && !stopped_early && executed < self.runs;

        BatchReport {
            report: acc.finish(ground_truth),
            scheduled_runs: self.runs,
            executed_runs: executed,
            stopped_early,
            cancelled,
            threads: effective_threads(self.threads),
            wall_seconds: start.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnash_core::{CNashConfig, CNashSolver, ExperimentRunner};
    use cnash_game::games;
    use cnash_game::support_enum::enumerate_equilibria;

    fn bos_solver() -> (CNashSolver, Vec<Equilibrium>) {
        let game = games::battle_of_the_sexes();
        let truth = enumerate_equilibria(&game, 1e-9);
        let solver =
            CNashSolver::new(&game, CNashConfig::ideal(12).with_iterations(2000), 0).expect("maps");
        (solver, truth)
    }

    #[test]
    fn matches_sequential_experiment_runner() {
        let (solver, truth) = bos_solver();
        let sequential = ExperimentRunner::new(12, 7).evaluate(&solver, &truth);
        let parallel = BatchRunner::new(12, 7).threads(4).evaluate(&solver, &truth);
        assert_eq!(parallel.report, sequential);
        assert_eq!(parallel.executed_runs, 12);
        assert!(!parallel.stopped_early);
    }

    #[test]
    fn early_stop_reports_deterministic_prefix() {
        let (solver, truth) = bos_solver();
        let runner = BatchRunner::new(50, 3).early_stop(EarlyStop::Successes(2));
        let a = runner.threads(1).evaluate(&solver, &truth);
        let b = runner.threads(8).evaluate(&solver, &truth);
        assert!(a.stopped_early);
        assert_eq!(a.executed_runs, b.executed_runs);
        assert_eq!(a.report, b.report);
        assert!(a.executed_runs < 50, "ideal config should stop early");
    }

    #[test]
    fn coverage_early_stop() {
        let (solver, truth) = bos_solver();
        let out = BatchRunner::new(200, 0)
            .threads(2)
            .early_stop(EarlyStop::Coverage(2))
            .evaluate(&solver, &truth);
        assert!(out.stopped_early);
        assert!(out.report.covered >= 2);
    }

    #[test]
    fn external_cancellation_is_flagged() {
        let (solver, truth) = bos_solver();
        let cancel = CancelToken::new();
        cancel.cancel();
        let out = BatchRunner::new(20, 0)
            .threads(2)
            .evaluate_cancellable(&solver, &truth, &cancel);
        assert!(out.cancelled);
        assert_eq!(out.report.runs, out.executed_runs);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_rejected() {
        let _ = BatchRunner::new(0, 0);
    }
}
