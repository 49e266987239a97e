//! Portfolio solving: race solver variants on the same instance.
//!
//! A portfolio submits several `(solver, run-budget)` jobs — typically
//! different solver configurations or hardware seeds over one game —
//! and runs them concurrently. In [`PortfolioStop::FirstTarget`] mode,
//! the first job to satisfy its early-stop condition broadcasts
//! cancellation to every sibling, so hardware variants that converge
//! slowly stop burning cores the moment any variant has a verified
//! answer (the "early-stop broadcast" of the batch-solving plan in
//! PAPERS.md / SNIPPETS.md).

use crate::batch::{BatchReport, BatchRunner, EarlyStop};
use crate::pool::{effective_threads, CancelToken};
use cnash_core::NashSolver;
use cnash_game::Equilibrium;

/// How jobs in a portfolio interact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortfolioStop {
    /// Jobs run to their own completion independently.
    Independent,
    /// The first job to reach its early-stop target cancels the rest.
    FirstTarget,
}

/// One entry of a portfolio: a solver with a run budget.
pub struct PortfolioJob {
    /// Display label (solver + variant).
    pub label: String,
    /// The solver under evaluation.
    pub solver: Box<dyn NashSolver>,
    /// Ground-truth equilibria of the solver's game.
    pub ground_truth: Vec<Equilibrium>,
    /// Scheduled runs.
    pub runs: usize,
    /// First seed of the batch.
    pub base_seed: u64,
    /// Per-job early-stop condition. In `FirstTarget` mode, jobs without
    /// one default to [`EarlyStop::FIRST_VERIFIED`].
    pub early_stop: Option<EarlyStop>,
}

/// Result of one portfolio entry.
#[derive(Debug, Clone)]
pub struct PortfolioJobResult {
    /// The job's label.
    pub label: String,
    /// Batch statistics (partial if the job was cancelled).
    pub batch: BatchReport,
}

/// Result of a portfolio execution.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// Per-job results, in submission order.
    pub results: Vec<PortfolioJobResult>,
    /// Index (into `results`) of the first job, in submission order,
    /// that reached its early-stop target, if any.
    ///
    /// The winner's report is deterministic for a fixed job spec: its
    /// batch folded a deterministic seed-ordered prefix. Reports of
    /// *cancelled* losers are timing-dependent partial aggregates.
    pub winner: Option<usize>,
}

/// Executes portfolios of batch jobs over a shared thread budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortfolioRunner {
    /// Total worker threads across all jobs (`0` = all cores).
    pub threads: usize,
    /// Interaction mode.
    pub stop: PortfolioStop,
}

impl PortfolioRunner {
    /// Creates a runner over all cores in `FirstTarget` mode.
    pub fn new() -> Self {
        Self {
            threads: 0,
            stop: PortfolioStop::FirstTarget,
        }
    }

    /// Returns a copy with a total thread budget (`0` = all cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns a copy with the given interaction mode.
    pub fn stop(mut self, stop: PortfolioStop) -> Self {
        self.stop = stop;
        self
    }

    /// Runs all `jobs` concurrently and collects their results.
    pub fn run(&self, jobs: &[PortfolioJob]) -> PortfolioOutcome {
        if jobs.is_empty() {
            return PortfolioOutcome {
                results: Vec::new(),
                winner: None,
            };
        }
        let shared = CancelToken::new();
        // Split the thread budget: the first `total % jobs` jobs get one
        // extra worker, and every job gets at least one (so with more
        // jobs than budgeted threads the OS time-slices the overflow).
        let total_threads = effective_threads(self.threads);
        let base = total_threads / jobs.len();
        let extra = total_threads % jobs.len();

        let mut batches: Vec<Option<BatchReport>> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (index, job) in jobs.iter().enumerate() {
                let shared = shared.clone();
                let stop_mode = self.stop;
                let job_threads = (base + usize::from(index < extra)).max(1);
                handles.push(scope.spawn(move || {
                    let early_stop = match (stop_mode, job.early_stop) {
                        (PortfolioStop::FirstTarget, None) => Some(EarlyStop::FIRST_VERIFIED),
                        (_, stop) => stop,
                    };
                    // Independent jobs must not observe each other: only
                    // FirstTarget mode shares the cancellation token
                    // (an early-stopping batch cancels its own token,
                    // which would otherwise leak into siblings).
                    let token = match stop_mode {
                        PortfolioStop::FirstTarget => shared.clone(),
                        PortfolioStop::Independent => CancelToken::new(),
                    };
                    let mut runner = BatchRunner::new(job.runs, job.base_seed).threads(job_threads);
                    runner.early_stop = early_stop;
                    let batch =
                        runner.evaluate_cancellable(job.solver.as_ref(), &job.ground_truth, &token);
                    if batch.stopped_early && stop_mode == PortfolioStop::FirstTarget {
                        shared.cancel();
                    }
                    batch
                }));
            }
            for handle in handles {
                batches.push(Some(handle.join().expect("portfolio job panicked")));
            }
        });

        let results: Vec<PortfolioJobResult> = jobs
            .iter()
            .zip(batches)
            .map(|(job, batch)| PortfolioJobResult {
                label: job.label.clone(),
                batch: batch.expect("every job joined"),
            })
            .collect();
        let winner = results.iter().position(|r| r.batch.stopped_early);
        PortfolioOutcome { results, winner }
    }
}

impl Default for PortfolioRunner {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnash_core::{CNashConfig, CNashSolver, IdealSolver};
    use cnash_game::games;
    use cnash_game::support_enum::enumerate_equilibria;

    fn jobs() -> Vec<PortfolioJob> {
        let game = games::battle_of_the_sexes();
        let truth = enumerate_equilibria(&game, 1e-9);
        let cfg = CNashConfig::ideal(12).with_iterations(2000);
        vec![
            PortfolioJob {
                label: "cnash-hw0".into(),
                solver: Box::new(CNashSolver::new(&game, cfg, 0).expect("maps")),
                ground_truth: truth.clone(),
                runs: 40,
                base_seed: 0,
                early_stop: None,
            },
            PortfolioJob {
                label: "ideal".into(),
                solver: Box::new(IdealSolver::new(&game, cfg).unwrap()),
                ground_truth: truth,
                runs: 40,
                base_seed: 1000,
                early_stop: None,
            },
        ]
    }

    #[test]
    fn first_target_produces_verified_winner() {
        let outcome = PortfolioRunner::new().threads(4).run(&jobs());
        let winner = outcome.winner.expect("ideal-config jobs find equilibria");
        let batch = &outcome.results[winner].batch;
        assert!(batch.stopped_early);
        assert!(batch.report.distribution.pure_ne + batch.report.distribution.mixed_ne > 0);
        // The winning prefix ends on the verified success that fired
        // the stop.
        assert!(batch.executed_runs <= batch.scheduled_runs);
    }

    #[test]
    fn independent_mode_runs_everything() {
        let outcome = PortfolioRunner::new()
            .threads(2)
            .stop(PortfolioStop::Independent)
            .run(&jobs());
        assert_eq!(outcome.winner, None);
        for r in &outcome.results {
            assert_eq!(r.batch.executed_runs, r.batch.scheduled_runs);
            assert!(!r.batch.cancelled);
        }
    }

    #[test]
    fn independent_jobs_do_not_observe_siblings_early_stop() {
        // Job 0 stops at its first verified success; job 1 must still
        // run every scheduled run (regression: a shared cancel token
        // leaked one job's early stop into its siblings).
        let mut jobs = jobs();
        jobs[0].early_stop = Some(EarlyStop::FIRST_VERIFIED);
        let outcome = PortfolioRunner::new()
            .threads(2)
            .stop(PortfolioStop::Independent)
            .run(&jobs);
        assert!(outcome.results[0].batch.stopped_early);
        let sibling = &outcome.results[1].batch;
        assert!(!sibling.cancelled);
        assert_eq!(sibling.executed_runs, sibling.scheduled_runs);
    }

    #[test]
    fn empty_portfolio() {
        let outcome = PortfolioRunner::new().run(&[]);
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.winner, None);
    }
}
