//! Reproducibility: everything in the pipeline is seeded, so identical
//! inputs must give identical outputs — the property that makes every
//! reproduction binary's numbers reproducible on any machine.

use cnash_core::baselines::DWaveNashSolver;
use cnash_core::{CNashConfig, CNashSolver, ExperimentRunner, NashSolver};
use cnash_game::games;
use cnash_game::support_enum::enumerate_equilibria;
use cnash_qubo::dwave::DWaveModel;

#[test]
fn cnash_full_report_is_deterministic() {
    let game = games::bird_game();
    let truth = enumerate_equilibria(&game, 1e-9);
    let runner = ExperimentRunner::new(10, 42);
    let make = || {
        let solver =
            CNashSolver::new(&game, CNashConfig::paper(12).with_iterations(2000), 7).expect("maps");
        runner.evaluate(&solver, &truth)
    };
    let a = make();
    let b = make();
    assert_eq!(a.success_rate, b.success_rate);
    assert_eq!(a.distribution, b.distribution);
    assert_eq!(a.covered, b.covered);
    assert_eq!(a.mean_time_to_solution, b.mean_time_to_solution);
}

#[test]
fn dwave_report_is_deterministic() {
    let game = games::battle_of_the_sexes();
    let truth = enumerate_equilibria(&game, 1e-9);
    let runner = ExperimentRunner::new(10, 3);
    let make = || {
        let solver = DWaveNashSolver::new(&game, DWaveModel::advantage_4_1(), 2).expect("builds");
        runner.evaluate(&solver, &truth)
    };
    let a = make();
    let b = make();
    assert_eq!(a.success_rate, b.success_rate);
    assert_eq!(a.covered, b.covered);
}

#[test]
fn different_hardware_seeds_give_different_silicon() {
    let game = games::bird_game();
    let a = CNashSolver::new(&game, CNashConfig::paper(12), 1).expect("maps");
    let b = CNashSolver::new(&game, CNashConfig::paper(12), 2).expect("maps");
    // Same SA seed on different silicon: outcomes may differ, and the
    // measured objective of the same state must differ.
    let state = cnash_anneal::moves::GridStrategyPair::all_on_first(3, 3, 12).expect("valid");
    assert_ne!(a.evaluate(&state), b.evaluate(&state));
}

#[test]
fn different_run_seeds_explore_differently() {
    let game = games::modified_prisoners_dilemma();
    let solver =
        CNashSolver::new(&game, CNashConfig::paper(12).with_iterations(2000), 0).expect("maps");
    let outcomes: Vec<_> = (0..8).map(|s| solver.run(s)).collect();
    let distinct_profiles = outcomes
        .iter()
        .filter_map(|o| o.profile.as_ref())
        .collect::<Vec<_>>();
    // At least two different returned profiles across 8 seeds.
    let first = distinct_profiles[0];
    assert!(
        distinct_profiles.iter().any(|p| *p != first),
        "all seeds returned the identical profile"
    );
}
