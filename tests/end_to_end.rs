//! End-to-end integration: the full paper pipeline on every benchmark.

use cnash_core::baselines::DWaveNashSolver;
use cnash_core::certificate::Certificate;
use cnash_core::{CNashConfig, CNashSolver, ExperimentRunner, NashSolver};
use cnash_game::equilibrium::StrategyKind;
use cnash_game::games;
use cnash_game::support_enum::enumerate_equilibria;
use cnash_qubo::dwave::DWaveModel;

/// C-Nash (paper hardware config) solves every benchmark game in a clear
/// majority of runs and its returned profiles verify exactly.
#[test]
fn cnash_solves_every_benchmark() {
    for bench in games::paper_benchmarks() {
        let cfg = CNashConfig::paper(12).with_iterations(bench.paper_iterations / 5);
        let solver = CNashSolver::new(&bench.game, cfg, 0).expect("hardware maps");
        let mut successes = 0;
        let runs = 20;
        for seed in 0..runs {
            let out = solver.run(seed);
            if out.is_equilibrium {
                successes += 1;
                let (p, q) = out.profile.expect("profile");
                assert!(bench.game.is_equilibrium(&p, &q, 1e-6));
            }
        }
        assert!(
            successes * 2 > runs,
            "{}: only {successes}/{runs} runs succeeded",
            bench.game.name()
        );
    }
}

/// Across enough runs C-Nash covers *all* equilibria of the two smaller
/// benchmarks, pure and mixed (the paper's Fig. 9 claim).
#[test]
fn cnash_covers_all_equilibria_of_small_benchmarks() {
    for (game, iterations) in [
        (games::battle_of_the_sexes(), 10_000),
        (games::bird_game(), 15_000),
    ] {
        let truth = enumerate_equilibria(&game, 1e-9);
        let cfg = CNashConfig::paper(12).with_iterations(iterations);
        let solver = CNashSolver::new(&game, cfg, 1).expect("maps");
        let runner = ExperimentRunner::new(40, 7);
        let report = runner.evaluate(&solver, &truth);
        assert_eq!(
            report.covered,
            report.target_count,
            "{}: covered {}/{}",
            game.name(),
            report.covered,
            report.target_count
        );
    }
}

/// The qualitative Table-1 ordering: C-Nash beats both baselines on the
/// Bird Game, and 2000Q6 is not worse than Advantage 4.1.
#[test]
fn solver_ordering_on_bird_game() {
    let game = games::bird_game();
    let truth = enumerate_equilibria(&game, 1e-9);
    let runner = ExperimentRunner::new(60, 3);

    let cnash =
        CNashSolver::new(&game, CNashConfig::paper(12).with_iterations(3000), 0).expect("maps");
    let q2000 = DWaveNashSolver::new(&game, DWaveModel::dwave_2000q(), 1).expect("builds");
    let advantage = DWaveNashSolver::new(&game, DWaveModel::advantage_4_1(), 1).expect("builds");

    let rc = runner.evaluate(&cnash, &truth);
    let rq = runner.evaluate(&q2000, &truth);
    let ra = runner.evaluate(&advantage, &truth);

    assert!(
        rc.success_rate > rq.success_rate && rc.success_rate > ra.success_rate,
        "C-Nash {} vs 2000Q {} vs Advantage {}",
        rc.success_rate,
        rq.success_rate,
        ra.success_rate
    );
    assert!(
        rq.success_rate >= ra.success_rate - 10.0,
        "2000Q should not trail Advantage by much: {} vs {}",
        rq.success_rate,
        ra.success_rate
    );
}

/// Only C-Nash produces mixed solutions; the baselines are structurally
/// pure-only (Fig. 8 claim).
#[test]
fn only_cnash_finds_mixed_solutions() {
    let game = games::bird_game();
    let truth = enumerate_equilibria(&game, 1e-9);
    let runner = ExperimentRunner::new(40, 11);

    let cnash =
        CNashSolver::new(&game, CNashConfig::paper(12).with_iterations(5000), 2).expect("maps");
    let rc = runner.evaluate(&cnash, &truth);
    assert!(rc.distribution.mixed_ne > 0, "C-Nash found no mixed NE");
    assert!(rc
        .distinct_found
        .iter()
        .any(|e| e.kind(1e-6) == StrategyKind::Mixed));

    let advantage = DWaveNashSolver::new(&game, DWaveModel::advantage_4_1(), 1).expect("builds");
    let ra = runner.evaluate(&advantage, &truth);
    assert_eq!(ra.distribution.mixed_ne, 0, "baseline reported a mixed NE");
}

/// Model time-to-solution ordering of Fig. 10: C-Nash is orders of
/// magnitude faster than both QPU baselines.
#[test]
fn tts_ordering_matches_fig10() {
    let game = games::battle_of_the_sexes();
    let truth = enumerate_equilibria(&game, 1e-9);
    let runner = ExperimentRunner::new(30, 0);

    let cnash =
        CNashSolver::new(&game, CNashConfig::paper(12).with_iterations(10_000), 0).expect("maps");
    let q2000 = DWaveNashSolver::new(&game, DWaveModel::dwave_2000q(), 1).expect("builds");

    let rc = runner.evaluate(&cnash, &truth);
    let rq = runner.evaluate(&q2000, &truth);
    assert!(rc.mean_time_to_solution.is_finite());
    assert!(
        rq.mean_time_to_solution / rc.mean_time_to_solution > 50.0,
        "QPU {} vs CiM {}",
        rq.mean_time_to_solution,
        rc.mean_time_to_solution
    );
}

/// Matching pennies end-to-end: no pure equilibrium exists, the baseline
/// must fail and C-Nash must find the mixed one — the paper's core
/// motivating scenario.
#[test]
fn mixed_only_game_separates_solvers() {
    let game = games::matching_pennies();
    let cnash =
        CNashSolver::new(&game, CNashConfig::paper(12).with_iterations(10_000), 0).expect("maps");
    let mut cnash_successes = 0;
    for seed in 0..10 {
        if cnash.run(seed).is_equilibrium {
            cnash_successes += 1;
        }
    }
    assert!(
        cnash_successes >= 5,
        "C-Nash solved only {cnash_successes}/10"
    );

    let baseline = DWaveNashSolver::new(&game, DWaveModel::dwave_2000q(), 5).expect("builds");
    for seed in 0..10 {
        assert!(!baseline.run(seed).is_equilibrium);
    }
}

/// Every solver answer can be certified, and the certificate agrees with
/// the run's own verdict.
#[test]
fn certificates_match_solver_verdicts() {
    let g = games::bird_game();
    let solver =
        CNashSolver::new(&g, CNashConfig::paper(12).with_iterations(4000), 1).expect("maps");
    for seed in 0..10 {
        let out = solver.run(seed);
        let claimed = out.is_equilibrium;
        let (p, q) = out.profile.expect("profile");
        let cert = Certificate::build(&g, p, q, 1e-6).expect("builds");
        assert_eq!(cert.is_valid(), claimed, "seed {seed}");
        if cert.is_valid() {
            assert!(cert.support_condition_holds());
        }
    }
}
