//! Property tests of the runtime's two core guarantees:
//!
//! 1. **Thread-count determinism** — a batch folds the same seed-ordered
//!    outcome stream whatever the worker count, so aggregate statistics
//!    are bit-identical at 1, 2 and 8 threads (with and without early
//!    stop).
//! 2. **Verified early-stop** — the stop conditions only count
//!    equilibria the runtime re-verified in exact arithmetic, so a
//!    solver that *claims* success with a bogus profile can never
//!    trigger an early stop.

use cnash_core::{CNashConfig, CNashSolver, NashSolver, RunOutcome};
use cnash_game::support_enum::enumerate_equilibria;
use cnash_game::{games, BimatrixGame, Game, MixedStrategy};
use cnash_runtime::{BatchRunner, EarlyStop};
use proptest::prelude::*;

/// Worker counts pinned by CI's determinism matrix: the workflow runs
/// this suite with `CNASH_TEST_THREADS` ∈ {1, 2, 8} and every
/// determinism property additionally compares against the pair
/// `(t, 2t + 1)`. The derived odd count lands outside the inline
/// {1, 2, 8} comparisons (3, 5, 17 across the matrix; 4 and 9 for the
/// local default of 4), so each matrix job pins seed-ordered folding at
/// worker counts — including chunk-boundary-unfriendly odd ones — that
/// no other job or inline assertion covers.
fn matrix_threads() -> (usize, usize) {
    let t = std::env::var("CNASH_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&t| t > 0)
        .unwrap_or(4);
    (t, 2 * t + 1)
}

/// A solver that lies: it flags every run as a success but returns a
/// profile that is *not* an equilibrium of its game.
struct LyingSolver {
    game: BimatrixGame,
}

impl LyingSolver {
    fn new() -> Self {
        // (Cooperate, Cooperate) is famously NOT a Nash equilibrium of
        // the prisoner's dilemma.
        Self {
            game: games::prisoners_dilemma(),
        }
    }

    fn bogus_profile(&self) -> (MixedStrategy, MixedStrategy) {
        (
            MixedStrategy::pure(self.game.row_actions(), 0).expect("valid"),
            MixedStrategy::pure(self.game.col_actions(), 0).expect("valid"),
        )
    }
}

impl NashSolver for LyingSolver {
    fn name(&self) -> &str {
        "liar"
    }

    fn game(&self) -> &dyn Game {
        &self.game
    }

    fn run(&self, _seed: u64) -> RunOutcome {
        let profile = self.bogus_profile();
        RunOutcome {
            solutions: vec![profile.clone()],
            profile: Some(profile),
            is_equilibrium: true, // the lie
            hit_time: Some(1e-6),
            total_time: 1e-5,
            measured_objective: 0.0,
            solutions_truncated: false,
        }
    }
}

/// A solver that finds a genuine equilibrium on every `hit_every`-th
/// seed and errors otherwise.
struct SometimesSolver {
    game: BimatrixGame,
    truth: (MixedStrategy, MixedStrategy),
    hit_every: u64,
}

impl SometimesSolver {
    fn new(hit_every: u64) -> Self {
        let game = games::prisoners_dilemma();
        // (Defect, Defect) IS the prisoner's dilemma equilibrium.
        let truth = (
            MixedStrategy::pure(game.row_actions(), 1).expect("valid"),
            MixedStrategy::pure(game.col_actions(), 1).expect("valid"),
        );
        assert!(game.is_equilibrium(&truth.0, &truth.1, 1e-9));
        Self {
            game,
            truth,
            hit_every,
        }
    }
}

impl NashSolver for SometimesSolver {
    fn name(&self) -> &str {
        "sometimes"
    }

    fn game(&self) -> &dyn Game {
        &self.game
    }

    fn run(&self, seed: u64) -> RunOutcome {
        if seed.is_multiple_of(self.hit_every) {
            RunOutcome {
                profile: Some(self.truth.clone()),
                is_equilibrium: true,
                hit_time: Some(1e-6),
                total_time: 1e-5,
                measured_objective: 0.0,
                solutions: vec![self.truth.clone()],
                solutions_truncated: false,
            }
        } else {
            RunOutcome {
                profile: None,
                is_equilibrium: false,
                hit_time: None,
                total_time: 1e-5,
                measured_objective: 1.0,
                solutions: Vec::new(),
                solutions_truncated: false,
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Bit-identical aggregates at 1, 2 and 8 worker threads, across
    /// run counts, seeds and noisy (paper-config) hardware.
    #[test]
    fn aggregates_identical_across_thread_counts(
        runs in 1usize..14,
        base_seed in 0u64..500,
        hardware_seed in 0u64..50,
    ) {
        let game = games::battle_of_the_sexes();
        let truth = enumerate_equilibria(&game, 1e-9);
        let solver = CNashSolver::new(
            &game,
            CNashConfig::paper(12).with_iterations(1000),
            hardware_seed,
        )
        .expect("benchmark maps");
        let runner = BatchRunner::new(runs, base_seed);
        let one = runner.threads(1).evaluate(&solver, &truth);
        let two = runner.threads(2).evaluate(&solver, &truth);
        let eight = runner.threads(8).evaluate(&solver, &truth);
        let (t, odd) = matrix_threads();
        let matrix = runner.threads(t).evaluate(&solver, &truth);
        let matrix_odd = runner.threads(odd).evaluate(&solver, &truth);
        prop_assert_eq!(&one.report, &two.report);
        prop_assert_eq!(&one.report, &eight.report);
        prop_assert_eq!(&one.report, &matrix.report);
        prop_assert_eq!(&one.report, &matrix_odd.report);
        prop_assert_eq!(one.executed_runs, eight.executed_runs);
        prop_assert_eq!(one.executed_runs, matrix.executed_runs);
        prop_assert_eq!(one.executed_runs, matrix_odd.executed_runs);
    }

    /// Determinism holds under early stop too: the stop index is decided
    /// on the folded prefix, not on racy completion order.
    #[test]
    fn early_stop_prefix_identical_across_thread_counts(
        base_seed in 0u64..200,
        target in 1usize..4,
    ) {
        let game = games::battle_of_the_sexes();
        let truth = enumerate_equilibria(&game, 1e-9);
        let solver = CNashSolver::new(
            &game,
            CNashConfig::ideal(12).with_iterations(1500),
            0,
        )
        .expect("benchmark maps");
        let runner = BatchRunner::new(60, base_seed).early_stop(EarlyStop::Successes(target));
        let one = runner.threads(1).evaluate(&solver, &truth);
        let eight = runner.threads(8).evaluate(&solver, &truth);
        let (t, odd) = matrix_threads();
        let matrix = runner.threads(t).evaluate(&solver, &truth);
        let matrix_odd = runner.threads(odd).evaluate(&solver, &truth);
        prop_assert_eq!(one.executed_runs, eight.executed_runs);
        prop_assert_eq!(one.executed_runs, matrix.executed_runs);
        prop_assert_eq!(one.executed_runs, matrix_odd.executed_runs);
        prop_assert_eq!(&one.report, &eight.report);
        prop_assert_eq!(&one.report, &matrix.report);
        prop_assert_eq!(&one.report, &matrix_odd.report);
        prop_assert_eq!(one.stopped_early, eight.stopped_early);
        prop_assert_eq!(one.stopped_early, matrix.stopped_early);
        prop_assert_eq!(one.stopped_early, matrix_odd.stopped_early);
    }

    /// A lying solver can never trigger an early stop: every claimed
    /// success is re-verified against the game before it counts.
    #[test]
    fn early_stop_never_fires_on_unverified_equilibria(
        runs in 1usize..40,
        threads in 1usize..9,
    ) {
        let solver = LyingSolver::new();
        let truth = enumerate_equilibria(&solver.game, 1e-9);
        let out = BatchRunner::new(runs, 0)
            .threads(threads)
            .early_stop(EarlyStop::FIRST_VERIFIED)
            .evaluate(&solver, &truth);
        prop_assert!(!out.stopped_early, "stopped on an unverified equilibrium");
        prop_assert_eq!(out.executed_runs, runs);
        // And nothing unverified leaks into the distinct-equilibria set.
        for eq in &out.report.distinct_found {
            prop_assert!(solver.game.is_equilibrium(&eq.row, &eq.col, 1e-6));
        }
    }

    /// Early stop fires exactly at the first verified success in seed
    /// order, at any thread count.
    #[test]
    fn early_stop_fires_at_first_verified_success(
        hit_every in 1u64..8,
        threads in 1usize..9,
    ) {
        let solver = SometimesSolver::new(hit_every);
        let truth = enumerate_equilibria(&solver.game, 1e-9);
        let out = BatchRunner::new(64, 1)
            .threads(threads)
            .early_stop(EarlyStop::FIRST_VERIFIED)
            .evaluate(&solver, &truth);
        prop_assert!(out.stopped_early);
        // Seeds are 1, 2, ...: the first seed divisible by hit_every is
        // hit_every itself, i.e. run index hit_every - 1, so exactly
        // hit_every runs execute.
        prop_assert_eq!(out.executed_runs as u64, hit_every);
        prop_assert_eq!(out.report.distribution.pure_ne, 1);
    }
}
